"""Adversarial attacks and hybrid adversarial training for waveform
speaker classification."""

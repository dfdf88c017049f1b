"""Differentiable log-Mel spectrogram front-end.

The whole pipeline (framing, Hann window, DFT as an explicit matrix
multiply, triangular mel filterbank, floored log) is one fused primitive
with a hand-written adjoint, so gradients flow from the features back to
the raw waveform. That is what lets attacks operate directly in the time
domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Value


@dataclass(frozen=True)
class FrontendConfig:
    sample_rate: int = 16000
    window_length: int = 400
    hop_length: int = 160
    fft_size: int = 512
    mel_bins: int = 40
    log_floor: float = 1e-6

    def __post_init__(self):
        if self.window_length > self.fft_size:
            raise ValueError(f"window_length {self.window_length} > fft_size {self.fft_size}")
        if self.hop_length > self.window_length:
            raise ValueError(f"hop_length {self.hop_length} > window_length {self.window_length}")
        if self.hop_length < 1 or self.window_length < 2:
            raise ValueError("hop_length and window_length must be positive")
        if self.mel_bins < 1:
            raise ValueError("mel_bins must be >= 1")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be > 0")


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(config: FrontendConfig) -> tuple[np.ndarray, np.ndarray]:
    """Triangular unit-peak filters covering [0, sample_rate/2].

    Returns (weights of shape (mel_bins, fft_size//2 + 1), center
    frequencies in Hz).
    """
    n_bins = config.fft_size // 2 + 1
    freqs = np.arange(n_bins) * config.sample_rate / config.fft_size
    pts = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(config.sample_rate / 2.0),
                                config.mel_bins + 2))
    lower, center, upper = pts[:-2], pts[1:-1], pts[2:]
    up = (freqs[None, :] - lower[:, None]) / (center - lower)[:, None]
    down = (upper[:, None] - freqs[None, :]) / (upper - center)[:, None]
    weights = np.maximum(0.0, np.minimum(up, down))
    return weights, center


class FrontendOps:
    """Precomputed constants (window, DFT matrices, filterbank) for one config."""

    def __init__(self, config: FrontendConfig):
        self.config = config
        w = config.window_length
        t = np.arange(w)
        self.window = 0.5 - 0.5 * np.cos(2.0 * np.pi * t / w)
        n_bins = config.fft_size // 2 + 1
        angle = 2.0 * np.pi * np.outer(t, np.arange(n_bins)) / config.fft_size
        self.dft_cos = np.cos(angle)
        self.dft_sin = -np.sin(angle)
        fb, self.mel_centers_hz = mel_filterbank(config)
        self.filterbank = fb
        self._fb_t = fb.T.copy()


def log_mel(waveform, ops: FrontendOps) -> Value:
    """(n, T) or (T,) waveforms -> (n, mel_bins, frames) floored log mel energies.

    One graph node with a hand-written adjoint. Forward and backward run
    the same array operations, in the same order, as the equivalent chain
    of autodiff primitives (frame, window, two DFT matmuls, power,
    filterbank, floor, log), so values and gradients match that chain bit
    for bit.
    """
    cfg = ops.config
    x = ad.as_value(waveform)
    if x.ndim not in (1, 2):
        raise ad.ShapeError("log_mel", f"expected (n, T) waveform, got {x.shape}")
    signal = x.data.reshape(1, -1) if x.ndim == 1 else x.data
    n, t = signal.shape
    if t < cfg.window_length:
        raise ad.ShapeError("log_mel", f"signal length {t} < window {cfg.window_length}")
    frames = ad.frames_view(signal, cfg.window_length, cfg.hop_length) * ops.window
    n_frames = frames.shape[1]
    flat = frames.reshape(n * n_frames, cfg.window_length)
    re = flat @ ops.dft_cos
    im = flat @ ops.dft_sin
    power = re * re
    power += im * im
    mel = power @ ops._fb_t
    clamped = np.clip(mel, cfg.log_floor, None)
    keep = mel > cfg.log_floor
    data = np.log(clamped).reshape(n, n_frames, cfg.mel_bins).transpose(0, 2, 1)

    def vjp(g):
        # the chain's zero-initialised accumulators only flip -0.0 to +0.0,
        # which the zero-initialised overlap-add does as well, so they are
        # left out; every other step repeats the chain's arithmetic
        g = g.transpose(0, 2, 1).reshape(n * n_frames, cfg.mel_bins)
        g_power = ((g / clamped) * keep) @ ops._fb_t.T
        g_re = g_power * re
        g_re += g_re
        g_im = np.multiply(g_power, im, out=g_power)
        g_im += g_im
        g_frames = (g_re @ ops.dft_cos.T).reshape(n, n_frames, cfg.window_length)
        g_frames += (g_im @ ops.dft_sin.T).reshape(n, n_frames, cfg.window_length)
        g_frames *= ops.window
        return ad.overlap_add(g_frames, t, cfg.hop_length).reshape(x.shape)

    return ad._node(data, "log_mel", (x, vjp))

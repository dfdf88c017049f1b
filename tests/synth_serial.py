"""The synthetic corpus as ``data.synth_corpus`` built it before it moved
its harmonics onto a thread pool: one loop that draws and computes each
utterance in turn.

It is kept as a test oracle: the pooled form makes the same draws in the
same order and the same float operations per utterance, so both must give
the same bytes.
"""

import numpy as np

from advspeaker.data import Corpus, SynthConfig, Utterance, split_counts
from advspeaker.util import fingerprint, rng_for, to_json


def synth_corpus_serial(config: SynthConfig) -> Corpus:
    rng = rng_for("synth", config.seed)
    n_samples = int(round(config.duration_s * config.sample_rate))
    t = np.arange(n_samples) / config.sample_rate
    lo, hi = config.f0_range
    band_edges = np.linspace(lo, hi, config.num_speakers + 1)

    utterances: list[Utterance] = []
    for s in range(config.num_speakers):
        speaker = f"spk{s:03d}"
        f0 = rng.uniform(band_edges[s], band_edges[s + 1])
        amps = (config.tilt ** np.arange(config.harmonics)) * \
            rng.uniform(0.5, 1.5, size=config.harmonics)
        n_train, n_test = split_counts(config.utterances_per_speaker)
        for u in range(config.utterances_per_speaker):
            phases = rng.uniform(0.0, 2.0 * np.pi, size=config.harmonics)
            wave_sum = np.zeros(n_samples)
            for h in range(config.harmonics):
                wave_sum += amps[h] * np.sin(2.0 * np.pi * (h + 1) * f0 * t + phases[h])
            wave_sum *= config.rms / np.sqrt(np.mean(wave_sum ** 2))
            noise_rms = config.rms * 10.0 ** (-config.noise_snr_db / 20.0)
            wave_sum += noise_rms * rng.normal(size=n_samples)
            samples = np.clip(wave_sum, -1.0, 1.0)
            split = "train" if u < n_train else "test"
            utterances.append(Utterance(samples, speaker, split))

    digest = fingerprint({"kind": "synthetic", **to_json(config)})
    return Corpus(utterances, config.sample_rate, digest)

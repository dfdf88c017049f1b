"""Corpus handling: WAV ingestion with a per-speaker 90/10 split, batching
with seeded shuffles and crops, and a synthetic harmonic-speaker corpus for
desk-scale experiments.

Synthetic speakers are separable by spectral envelope: each speaker owns a
fixed fundamental and harmonic amplitude profile; utterances vary only in
harmonic phases and additive noise.
"""

from __future__ import annotations

import json
import math
import os
import struct
import wave
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .util import ConfigError, check, fingerprint, rng_for, stable_int, to_json


class CorpusError(ConfigError):
    def __init__(self, message: str):
        super().__init__([message])


@dataclass
class Utterance:
    samples: np.ndarray
    speaker_id: str
    split: str  # "train" | "test"

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise CorpusError(f"empty utterance for speaker {self.speaker_id}")
        if self.split not in ("train", "test"):
            raise CorpusError(f"bad split {self.split!r}")


@dataclass
class Corpus:
    """In-memory corpus; the unit every trainer/evaluator consumes."""

    utterances: list[Utterance]
    sample_rate: int
    fingerprint: str
    manifest: CorpusManifest | None = field(default=None, repr=False)  # if read from WAVs

    speakers: list[str] = field(init=False)

    def __post_init__(self):
        self.speakers = sorted({u.speaker_id for u in self.utterances})
        if len(self.speakers) < 2:
            raise CorpusError("corpus needs at least 2 speakers")

    @property
    def num_speakers(self) -> int:
        return len(self.speakers)

    def label(self, speaker_id: str) -> int:
        return self.speakers.index(speaker_id)

    def items(self, split: str) -> list[tuple[np.ndarray, int]]:
        """Stable-order (samples, label) pairs; split "all" joins both."""
        return [(u.samples, self.label(u.speaker_id))
                for u in self.utterances if split == "all" or u.split == split]


def split_counts(n_utterances: int) -> tuple[int, int]:
    """(train, test) counts for one speaker: 90/10, at least one test item."""
    if n_utterances < 2:
        raise CorpusError(f"speaker has {n_utterances} utterance(s); need >= 2")
    n_test = max(1, n_utterances // 10)
    return n_utterances - n_test, n_test


# ---------------------------------------------------------------------------
# WAV files (RIFF PCM-16 mono)

def read_wav(path) -> tuple[np.ndarray, int]:
    with wave.open(str(path), "rb") as wav:
        if wav.getnchannels() != 1:
            raise CorpusError(f"{path}: expected mono, got {wav.getnchannels()} channels")
        if wav.getsampwidth() != 2:
            raise CorpusError(f"{path}: expected 16-bit PCM, got {8 * wav.getsampwidth()}-bit")
        frames = wav.readframes(wav.getnframes())
        rate = wav.getframerate()
    samples = np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32768.0
    return samples, rate


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        wav.writeframes(pcm.tobytes())


# ---------------------------------------------------------------------------
# directory ingestion

@dataclass
class ManifestEntry:
    path: str
    speaker_id: str
    split: str
    duration_s: float


@dataclass
class CorpusManifest:
    entries: list[ManifestEntry]
    num_speakers: int
    sample_rate: int
    fingerprint: str
    rejects: list[str]


def ingest(root, sample_rate: int, split_seed: int = 0) -> Corpus:
    """Read a directory of per-speaker subdirectories of WAV files.

    Each file is decoded once. The per-speaker split permutation is derived
    from (split_seed, speaker_id) only, so the corpus and its manifest are
    stable across runs and machines. Unreadable files, files without audio
    frames and files at a rate other than ``sample_rate`` are listed under
    the manifest's rejects; a speaker left with fewer than 2 usable
    utterances is fatal, and its error names what was rejected.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"{root} is not a directory")
    rejects: list[str] = []
    entries: list[ManifestEntry] = []
    waveforms: list[np.ndarray] = []
    speaker_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not speaker_dirs:
        raise CorpusError(f"{root} contains no speaker directories")
    for spk_dir in speaker_dirs:
        speaker = spk_dir.name
        usable: list[tuple[str, np.ndarray]] = []
        first_reject = len(rejects)
        for wav_path in sorted(spk_dir.glob("*.wav")):
            try:
                samples, rate = read_wav(wav_path)
            except (CorpusError, wave.Error, EOFError, struct.error) as exc:
                rejects.append(f"{wav_path}: {exc}")
                continue
            if samples.size == 0:
                rejects.append(f"{wav_path}: no audio frames")
                continue
            if rate != sample_rate:
                rejects.append(f"{wav_path}: sample rate {rate} != corpus rate {sample_rate}")
                continue
            usable.append((str(wav_path), samples))
        try:
            n_train, n_test = split_counts(len(usable))
        except CorpusError as exc:
            dropped = rejects[first_reject:]
            raise CorpusError(f"{spk_dir}: {exc}" + (
                f" ({len(dropped)} file(s) rejected, the first {dropped[0]})"
                if dropped else "")) from None
        perm = rng_for(split_seed, stable_int(speaker)).permutation(len(usable))
        test_positions = set(perm[:n_test].tolist())
        for i, (path, samples) in enumerate(usable):
            split = "test" if i in test_positions else "train"
            entries.append(ManifestEntry(path, speaker, split, samples.size / sample_rate))
            waveforms.append(samples)
    digest = fingerprint([[e.path, e.speaker_id, e.split, round(e.duration_s, 6)]
                          for e in entries] + [["seed", split_seed]])
    manifest = CorpusManifest(entries=entries, num_speakers=len(speaker_dirs),
                              sample_rate=int(sample_rate), fingerprint=digest,
                              rejects=rejects)
    utterances = [Utterance(samples, e.speaker_id, e.split)
                  for e, samples in zip(entries, waveforms)]
    return Corpus(utterances, manifest.sample_rate, digest, manifest)


def save_manifest(path, manifest: CorpusManifest) -> None:
    Path(path).write_text(json.dumps(to_json(manifest), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# synthetic corpus

@dataclass(frozen=True)
class SynthConfig:
    num_speakers: int = 10
    utterances_per_speaker: int = 40
    duration_s: float = 1.0
    sample_rate: int = 16000
    seed: int = 100
    rms: float = 0.05
    noise_snr_db: float = 20.0
    f0_range: tuple[float, float] = (110.0, 320.0)
    harmonics: int = 5
    # steep tilt leaves the upper harmonics near the attack budget: they are
    # discriminative enough for an undefended model to rely on, yet cheap to
    # counterfeit, which is what separates defended from undefended accuracy
    tilt: float = 0.45

    def __post_init__(self):
        check(self._rules())

    def _rules(self) -> list[tuple[bool, str]]:
        low, high = self.f0_range
        finite_duration = math.isfinite(self.duration_s)  # round() refuses NaN and inf
        return [(self.num_speakers < 2, "num_speakers: must be >= 2"),
                (self.utterances_per_speaker < 2, "utterances_per_speaker: must be >= 2"),
                (self.sample_rate < 1, "sample_rate: must be >= 1"),
                (not finite_duration, "duration_s: must be finite"),
                (finite_duration and round(self.duration_s * self.sample_rate) < 1,
                 "duration_s: must last at least one sample at sample_rate"),
                (self.seed < 0, "seed: must be >= 0"),
                (not (math.isfinite(low) and math.isfinite(high)), "f0_range: must be finite"),
                (not 0 < low <= high, "f0_range: must satisfy 0 < low <= high"),
                (self.harmonics < 1, "harmonics: must be >= 1"),
                (not math.isfinite(self.rms), "rms: must be finite"),
                (self.rms <= 0, "rms: must be > 0"),
                (not math.isfinite(self.noise_snr_db), "noise_snr_db: must be finite"),
                (not math.isfinite(self.tilt), "tilt: must be finite")]


def synth_corpus(config: SynthConfig) -> Corpus:
    """Deterministic harmonic-speaker corpus with a per-speaker 90/10 split.

    Each speaker gets a fundamental drawn from its own slice of the f0
    range plus a random tilt-shaped harmonic amplitude profile; utterances
    share the profile and differ by harmonic phases and additive noise at
    ``noise_snr_db``.

    Every random number is drawn on the calling thread in one fixed order;
    the harmonics of each utterance are summed on a pool of one thread per
    CPU, which is shut down before this returns. Each utterance is
    computed by the same operations whichever thread runs it, so the bytes
    do not depend on the CPU count.
    """
    rng = rng_for("synth", config.seed)
    n_samples = int(round(config.duration_s * config.sample_rate))
    t = np.arange(n_samples) / config.sample_rate
    lo, hi = config.f0_range
    band_edges = np.linspace(lo, hi, config.num_speakers + 1)
    noise_rms = config.rms * 10.0 ** (-config.noise_snr_db / 20.0)

    def draws():
        for s in range(config.num_speakers):
            f0 = rng.uniform(band_edges[s], band_edges[s + 1])
            amps = (config.tilt ** np.arange(config.harmonics)) * \
                rng.uniform(0.5, 1.5, size=config.harmonics)
            for _ in range(config.utterances_per_speaker):
                phases = rng.uniform(0.0, 2.0 * np.pi, size=config.harmonics)
                yield f0, amps, phases, rng.normal(size=n_samples)

    def utterance(drawn) -> np.ndarray:
        f0, amps, phases, samples = drawn
        # wave_sum += amps[h] * np.sin(2.0 * np.pi * (h + 1) * f0 * t + phases[h]),
        # operation for operation, through one buffer: what a worker frees
        # stays in its thread's malloc arena after the pool is gone, so fewer
        # temporaries keep the peak RSS down
        wave_sum = np.zeros(n_samples)
        term = np.empty(n_samples)
        for h in range(config.harmonics):
            np.multiply(2.0 * np.pi * (h + 1) * f0, t, out=term)
            term += phases[h]
            np.sin(term, out=term)
            term *= amps[h]
            wave_sum += term
        wave_sum *= config.rms / np.sqrt(np.mean(np.square(wave_sum, out=term)))
        samples *= noise_rms  # the noise becomes the utterance: no array beyond the corpus
        samples += wave_sum
        return np.clip(samples, -1.0, 1.0, out=samples)

    # map submits every job as it walks draws(), so drawing overlaps the sines
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        waves = list(pool.map(utterance, draws()))
    per_speaker = config.utterances_per_speaker
    n_train, _ = split_counts(per_speaker)
    utterances = [Utterance(samples, f"spk{i // per_speaker:03d}",
                            "train" if i % per_speaker < n_train else "test")
                  for i, samples in enumerate(waves)]

    digest = fingerprint({"kind": "synthetic", **to_json(config)})
    return Corpus(utterances, config.sample_rate, digest)


# ---------------------------------------------------------------------------
# batching

def crop_or_pad(samples: np.ndarray, segment_length: int, offset: int) -> np.ndarray:
    if samples.size >= segment_length:
        return samples[offset:offset + segment_length]
    padded = np.zeros(segment_length)
    padded[:samples.size] = samples
    return padded


def batch_iter(corpus: Corpus, batch_size: int, segment_length: int, *,
               seed: int, epoch: int = 0, split: str = "train",
               train: bool = True):
    """Yield (waveforms (n, L), labels (n,)) covering the split once.

    Training: per-epoch seeded shuffle plus one random crop per utterance.
    Evaluation: stable order and deterministic center crops.
    """
    items = corpus.items(split)
    if not items:
        raise CorpusError(f"split {split!r} is empty")
    rng = rng_for("batches", seed, epoch)
    order = rng.permutation(len(items)) if train else np.arange(len(items))
    for start in range(0, len(items), batch_size):
        chunk = order[start:start + batch_size]
        waves, labels = [], []
        for i in chunk:
            samples, label = items[i]
            max_off = max(samples.size - segment_length, 0)
            offset = int(rng.integers(0, max_off + 1)) if train else max_off // 2
            waves.append(crop_or_pad(samples, segment_length, offset))
            labels.append(label)
        yield np.stack(waves), np.asarray(labels, dtype=np.int64)

"""Corpus, split, batching, and WAV round-trip tests."""

import dataclasses
import hashlib
import json
import math
import os
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from advspeaker import data as dt
from advspeaker.config import config_from_dict
from advspeaker.frontend import FrontendConfig, FrontendOps, log_mel
from advspeaker.util import ConfigError, from_json, to_json
from synth_serial import synth_corpus_serial

SMALL_SYNTH = dt.SynthConfig(num_speakers=3, utterances_per_speaker=10,
                             duration_s=0.2, sample_rate=4000, seed=5)


def test_split_counts_rule():
    assert dt.split_counts(10) == (9, 1)
    assert dt.split_counts(2) == (1, 1)
    assert dt.split_counts(40) == (36, 4)
    with pytest.raises(dt.CorpusError):
        dt.split_counts(1)


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = np.clip(rng.normal(size=1600) * 0.2, -1, 1)
    path = tmp_path / "a.wav"
    dt.write_wav(path, samples, 8000)
    loaded, rate = dt.read_wav(path)
    assert rate == 8000
    assert loaded.shape == samples.shape
    assert np.abs(loaded - samples).max() < 2.0 / 32768


def _make_tree(tmp_path, per_speaker):
    rng = np.random.default_rng(1)
    for spk, count in per_speaker.items():
        d = tmp_path / spk
        d.mkdir()
        for i in range(count):
            dt.write_wav(d / f"utt{i:02d}.wav", rng.normal(size=800) * 0.1, 8000)
    return tmp_path


def test_ingest_split_and_determinism(tmp_path):
    root = _make_tree(tmp_path, {"alice": 10, "bob": 2, "carol": 5})
    m1 = dt.ingest(root, 8000, split_seed=3).manifest
    m2 = dt.ingest(root, 8000, split_seed=3).manifest
    assert m1.fingerprint == m2.fingerprint
    assert m1.num_speakers == 3
    by_speaker = {}
    for e in m1.entries:
        by_speaker.setdefault(e.speaker_id, []).append(e.split)
    assert sorted(by_speaker["alice"]).count("test") == 1
    assert sorted(by_speaker["bob"]) == ["test", "train"]
    assert sorted(by_speaker["carol"]).count("test") == 1
    m3 = dt.ingest(root, 8000, split_seed=4).manifest
    assert m3.fingerprint != m1.fingerprint


def test_ingest_rejects_corrupt_but_fails_on_tiny_speaker(tmp_path):
    root = _make_tree(tmp_path, {"alice": 3, "bob": 2})
    bad = root / "alice" / "broken.wav"
    bad.write_bytes(b"not a wav file")
    manifest = dt.ingest(root, 8000).manifest
    assert any("broken.wav" in r for r in manifest.rejects)
    assert sum(e.speaker_id == "alice" for e in manifest.entries) == 3

    solo = tmp_path / "solo"
    solo.mkdir()
    d = solo / "dave"
    d.mkdir()
    dt.write_wav(d / "only.wav", np.zeros(100) + 0.1, 8000)
    with pytest.raises(dt.CorpusError, match=f"^{re.escape(str(d))}: speaker has 1 "):
        dt.ingest(solo, 8000)


def test_a_wav_without_frames_is_rejected_like_a_corrupt_file(tmp_path):
    root = _make_tree(tmp_path, {"alice": 3, "bob": 2})
    empty = root / "alice" / "empty.wav"
    dt.write_wav(empty, np.zeros(0), 8000)
    manifest = dt.ingest(root, 8000).manifest
    assert manifest.rejects == [f"{empty}: no audio frames"]
    assert sum(e.speaker_id == "alice" for e in manifest.entries) == 3


def test_a_file_at_another_rate_is_rejected_even_when_it_sorts_first(tmp_path):
    root = _make_tree(tmp_path, {"a": 3, "b": 3})
    stray = root / "a" / "utt00.wav"
    dt.write_wav(stray, np.zeros(1600) + 0.1, 16000)
    corpus = dt.ingest(root, 8000)
    assert corpus.sample_rate == 8000
    assert corpus.manifest.rejects == [f"{stray}: sample rate 16000 != corpus rate 8000"]
    assert len(corpus.utterances) == 5
    # a speaker left short names what was rejected
    message = (f"{root / 'a'}: speaker has 1 utterance(s); need >= 2 (2 file(s) rejected, "
               f"the first {root / 'a' / 'utt01.wav'}: sample rate 8000 != corpus rate 16000)")
    with pytest.raises(dt.CorpusError, match=f"^{re.escape(message)}$"):
        dt.ingest(root, 16000)


def test_load_corpus_round_trip(tmp_path):
    root = _make_tree(tmp_path, {"alice": 4, "bob": 4})
    corpus = dt.ingest(root, 8000)
    assert corpus.num_speakers == 2
    assert corpus.fingerprint == corpus.manifest.fingerprint
    assert len(corpus.items("train")) + len(corpus.items("test")) == 8
    for utterance, entry in zip(corpus.utterances, corpus.manifest.entries, strict=True):
        assert (utterance.speaker_id, utterance.split) == (entry.speaker_id, entry.split)
        assert np.array_equal(utterance.samples, dt.read_wav(entry.path)[0])


def _pinned_tree(root):
    """Three speakers of varied-length 8 kHz WAVs, one corrupt file and one
    file at another sample rate."""
    rng = np.random.default_rng(11)
    for spk, count in (("alice", 5), ("bob", 3), ("carol", 4)):
        d = root / spk
        d.mkdir(parents=True)
        for i in range(count):
            dt.write_wav(d / f"utt{i:02d}.wav", rng.normal(size=600 + 37 * i) * 0.1, 8000)
    (root / "bob" / "broken.wav").write_bytes(b"RIFF not really")
    dt.write_wav(root / "carol" / "wide.wav", rng.normal(size=900) * 0.1, 16000)


def _utterance_digest(corpus):
    """Digest of each utterance's order, speaker, label, split and samples."""
    h = hashlib.sha256()
    for u in corpus.utterances:
        h.update(f"{u.speaker_id}|{corpus.label(u.speaker_id)}|{u.split}|".encode())
        h.update(u.samples.tobytes())
    return h.hexdigest()[:16]


def test_ingest_of_a_pinned_tree_is_bit_exact(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths keep the manifest independent of tmp_path
    _pinned_tree(tmp_path / "corpus")
    corpus = dt.ingest("corpus", 8000, split_seed=3)
    dt.save_manifest("manifest.json", corpus.manifest)
    digest = hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest()[:16]
    assert digest == "c2ff57e387226076"
    assert corpus.fingerprint == "3c4c2b2524d51b7a"
    assert corpus.sample_rate == 8000
    assert corpus.manifest.rejects == [
        "corpus/bob/broken.wav: not a WAVE file",
        "corpus/carol/wide.wav: sample rate 16000 != corpus rate 8000"]
    assert [(u.speaker_id, u.split) for u in corpus.utterances] == [
        ("alice", "train"), ("alice", "test"), ("alice", "train"), ("alice", "train"),
        ("alice", "train"), ("bob", "train"), ("bob", "train"), ("bob", "test"),
        ("carol", "test"), ("carol", "train"), ("carol", "train"), ("carol", "train")]
    assert _utterance_digest(corpus) == "7e68c487c5cad66a"


def test_manifest_dict_round_trip(tmp_path):
    root = _make_tree(tmp_path, {"alice": 4, "bob": 4})
    manifest = dt.ingest(root, 8000).manifest
    clone = from_json(dt.CorpusManifest, to_json(manifest))
    assert clone.fingerprint == manifest.fingerprint
    assert [vars(e) for e in clone.entries] == [vars(e) for e in manifest.entries]


def test_manifest_file_round_trip(tmp_path):
    root = _make_tree(tmp_path, {"alice": 4, "bob": 4})
    manifest = dt.ingest(root, 8000).manifest
    path = tmp_path / "manifest.json"
    dt.save_manifest(path, manifest)
    loaded = from_json(dt.CorpusManifest, json.loads(path.read_text()))
    assert loaded.fingerprint == manifest.fingerprint
    assert loaded.num_speakers == manifest.num_speakers
    assert [vars(e) for e in loaded.entries] == [vars(e) for e in manifest.entries]


def test_no_utterance_in_both_splits():
    corpus = dt.synth_corpus(SMALL_SYNTH)
    train_ids = {id(u) for u in corpus.utterances if u.split == "train"}
    test_ids = {id(u) for u in corpus.utterances if u.split == "test"}
    assert not train_ids & test_ids
    per_speaker = {}
    for u in corpus.utterances:
        per_speaker.setdefault(u.speaker_id, set()).add(u.split)
    assert all(splits == {"train", "test"} for splits in per_speaker.values())


def test_synth_corpus_deterministic():
    a = dt.synth_corpus(SMALL_SYNTH)
    b = dt.synth_corpus(SMALL_SYNTH)
    assert a.fingerprint == b.fingerprint
    for ua, ub in zip(a.utterances, b.utterances):
        assert np.array_equal(ua.samples, ub.samples)


def test_synth_corpus_bytes_are_pinned():
    """The desk presets' corpus and paper-attack's stand-in, as the serial
    loop of tests/synth_serial.py gave them."""
    raw = json.loads((Path(__file__).parents[1] / "configs" / "desk-hat.json").read_text())
    desk = dt.synth_corpus(config_from_dict(raw).corpus.synth_config())
    assert desk.fingerprint == "c16f7580e8ebe819"
    assert _utterance_digest(desk) == "625e183e67b8488c"
    paper = dt.synth_corpus(dt.SynthConfig(num_speakers=32, utterances_per_speaker=2,
                                           duration_s=3.0, sample_rate=16000, seed=1))
    assert paper.fingerprint == "9ff1084b21053f15"
    assert _utterance_digest(paper) == "c9611f18775fdff5"


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("synth", [
    SMALL_SYNTH,
    dataclasses.replace(SMALL_SYNTH, harmonics=1),
    dataclasses.replace(SMALL_SYNTH, utterances_per_speaker=2),
    dataclasses.replace(SMALL_SYNTH, duration_s=1 / SMALL_SYNTH.sample_rate),
    dataclasses.replace(SMALL_SYNTH, num_speakers=7),
], ids=["small", "one-harmonic", "two-utterances", "one-sample", "seven-speakers"])
def test_pooled_synthesis_matches_the_serial_loop_at_any_cpu_count(monkeypatch, synth, workers):
    expected = synth_corpus_serial(synth)
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    threads = threading.active_count()
    corpus = dt.synth_corpus(synth)
    assert threading.active_count() == threads  # the pool is gone when synth_corpus returns
    assert corpus.fingerprint == expected.fingerprint
    assert corpus.speakers == expected.speakers
    for got, want in zip(corpus.utterances, expected.utterances, strict=True):
        assert (got.speaker_id, got.split) == (want.speaker_id, want.split)
        assert got.samples.tobytes() == want.samples.tobytes()


@pytest.mark.parametrize("field, value", [
    ("noise_snr_db", math.nan), ("tilt", math.nan), ("rms", math.inf),
    ("duration_s", math.nan), ("duration_s", -math.inf), ("f0_range", (110.0, math.inf)),
])
def test_synth_config_rejects_non_finite_fields_when_built(field, value):
    with pytest.raises(ConfigError) as built:
        dt.SynthConfig(**{field: value})
    assert built.value.errors == [f"{field}: must be finite"]
    # from JSON, the field's type check refuses the value first, as it always has
    with pytest.raises(ConfigError) as loaded:
        from_json(dt.SynthConfig, {field: value})
    assert all(": must be a finite number, got " in e for e in loaded.value.errors)


def test_synth_speakers_have_distinct_spectral_envelopes():
    corpus = dt.synth_corpus(SMALL_SYNTH)
    fe = FrontendConfig(sample_rate=4000, window_length=128, hop_length=64,
                        fft_size=128, mel_bins=12)
    ops = FrontendOps(fe)
    means = {}
    for spk in corpus.speakers:
        waves = np.stack([u.samples for u in corpus.utterances if u.speaker_id == spk])
        feats = log_mel(waves, ops).data
        means[spk] = feats.mean(axis=(0, 2))
    speakers = corpus.speakers
    for i in range(len(speakers)):
        for j in range(i + 1, len(speakers)):
            assert np.linalg.norm(means[speakers[i]] - means[speakers[j]]) > 0.1


def test_synth_classes_linearly_separable_on_mean_logmel():
    corpus = dt.synth_corpus(dt.SynthConfig(num_speakers=5, utterances_per_speaker=12,
                                            duration_s=0.25, sample_rate=4000, seed=7))
    fe = FrontendConfig(sample_rate=4000, window_length=128, hop_length=64,
                        fft_size=128, mel_bins=12)
    ops = FrontendOps(fe)

    def features(split):
        xs, ys = [], []
        for samples, label in corpus.items(split):
            feats = log_mel(samples[None, :], ops).data[0].mean(axis=1)
            xs.append(feats)
            ys.append(label)
        return np.stack(xs), np.asarray(ys)

    xtr, ytr = features("train")
    xte, yte = features("test")
    # one-hot least-squares linear classifier as the sanity oracle
    a = np.hstack([xtr, np.ones((len(xtr), 1))])
    targets = np.eye(corpus.num_speakers)[ytr]
    w, *_ = np.linalg.lstsq(a, targets, rcond=None)
    pred = np.argmax(np.hstack([xte, np.ones((len(xte), 1))]) @ w, axis=1)
    assert (pred == yte).mean() > 0.8


def test_batch_iter_covers_each_utterance_once():
    corpus = dt.synth_corpus(SMALL_SYNTH)
    n_train = len(corpus.items("train"))
    seen = 0
    for waves, labels in dt.batch_iter(corpus, 8, 400, seed=1, epoch=0):
        seen += len(labels)
        assert waves.shape == (len(labels), 400)
        assert (labels < corpus.num_speakers).all() and (labels >= 0).all()
    assert seen == n_train


def test_batch_iter_eval_deterministic_and_train_shuffles_differ():
    corpus = dt.synth_corpus(SMALL_SYNTH)
    ev1 = list(dt.batch_iter(corpus, 4, 400, seed=1, epoch=0, split="test", train=False))
    ev2 = list(dt.batch_iter(corpus, 4, 400, seed=9, epoch=3, split="test", train=False))
    for (x1, y1), (x2, y2) in zip(ev1, ev2):
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    tr_e0 = np.concatenate([y for _, y in dt.batch_iter(corpus, 8, 400, seed=1, epoch=0)])
    tr_e1 = np.concatenate([y for _, y in dt.batch_iter(corpus, 8, 400, seed=1, epoch=1)])
    assert not np.array_equal(tr_e0, tr_e1)
    tr_e0_again = np.concatenate([y for _, y in dt.batch_iter(corpus, 8, 400, seed=1, epoch=0)])
    assert np.array_equal(tr_e0, tr_e0_again)


def test_short_utterances_zero_padded():
    utts = [dt.Utterance(np.full(50, 0.5), s, sp)
            for s in ("a", "b") for sp in ("train", "test")]
    corpus = dt.Corpus(utts, 8000, "fp")
    waves, _ = next(dt.batch_iter(corpus, 4, 80, seed=0))
    assert waves.shape[1] == 80
    assert np.allclose(waves[:, 50:], 0.0)

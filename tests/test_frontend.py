"""Log-mel front-end tests."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advspeaker import autodiff as ad
from advspeaker.frontend import FrontendConfig, FrontendOps, log_mel, mel_filterbank
from gradcheck_cases import finite_diff_check
from log_mel_chain import frame_signal, log_mel_chain

MICRO = FrontendConfig(sample_rate=1600, window_length=32, hop_length=16,
                       fft_size=32, mel_bins=6, log_floor=1e-6)
DESK = FrontendConfig(sample_rate=16000, window_length=256, hop_length=128,
                      fft_size=256, mel_bins=32, log_floor=1e-6)


def test_config_invariants():
    with pytest.raises(ValueError):
        FrontendConfig(window_length=600, fft_size=512)
    with pytest.raises(ValueError):
        FrontendConfig(hop_length=500, window_length=400)
    with pytest.raises(ValueError):
        FrontendConfig(mel_bins=0)
    with pytest.raises(ValueError):
        FrontendConfig(log_floor=0.0)


def test_filterbank_properties():
    cfg = FrontendConfig()
    fb, centers = mel_filterbank(cfg)
    assert fb.shape == (cfg.mel_bins, cfg.fft_size // 2 + 1)
    assert (fb >= 0).all()
    assert (fb.max(axis=1) > 0).all()
    assert fb.max() <= 1.0 + 1e-12
    # filters jointly cover the band: every interior fft bin gets weight
    coverage = fb.sum(axis=0)
    assert (coverage[1:-1] > 0).all()
    assert centers.shape == (cfg.mel_bins,) and (np.diff(centers) > 0).all()


def test_zero_waveform_floors_out():
    ops = FrontendOps(MICRO)
    out = log_mel(np.zeros((2, 96)), ops)
    assert np.allclose(out.data, np.log(MICRO.log_floor))


def test_output_shape_and_frame_count():
    ops = FrontendOps(MICRO)
    for t in (32, 96, 97, 111):
        out = log_mel(np.zeros((1, t)), ops)
        expected_frames = (t - MICRO.window_length) // MICRO.hop_length + 1
        assert out.shape == (1, MICRO.mel_bins, expected_frames)


def test_too_short_waveform_raises():
    ops = FrontendOps(MICRO)
    with pytest.raises(ad.ShapeError):
        log_mel(np.zeros((1, 31)), ops)


def test_sine_at_filter_center_dominates():
    cfg = FrontendConfig()
    ops = FrontendOps(cfg)
    centers = mel_filterbank(cfg)[1]
    t = np.arange(8000) / cfg.sample_rate
    for m in (8, 16, 28):
        f = centers[m]
        wave = 0.3 * np.sin(2 * np.pi * f * t)
        out = log_mel(wave[None, :], ops).data[0]
        interior = out[:, 2:-2]
        assert (np.argmax(interior, axis=0) == m).all(), f"filter {m} at {f:.1f} Hz"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.floats(min_value=1.01, max_value=5.0))
def test_scaling_up_never_decreases_output(seed, c):
    ops = FrontendOps(MICRO)
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.normal(size=(1, 80))
    base = log_mel(x, ops).data
    scaled = log_mel(np.clip(c * x, -1, 1) if np.abs(c * x).max() > 1 else c * x, ops).data
    if np.abs(c * x).max() <= 1:
        assert (scaled >= base - 1e-12).all()


def test_gradient_matches_finite_differences():
    ops = FrontendOps(MICRO)
    rng = np.random.default_rng(5)
    point = 0.2 * rng.normal(size=(1, 64))
    assert finite_diff_check(lambda x: log_mel(x, ops).sum(), point) < 1e-4
    weights = ad.Value(rng.normal(size=(1, MICRO.mel_bins, 3)))
    err = finite_diff_check(lambda x: (log_mel(x, ops) * weights).sum(), point)
    assert err < 1e-4


def test_deterministic():
    ops = FrontendOps(MICRO)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 96))
    assert np.array_equal(log_mel(x, ops).data, log_mel(x, ops).data)


def _features_and_gradient(fn, x, ops, weights):
    xv = ad.Value(x, requires_grad=True)
    out = fn(xv, ops)
    ad.backward((out * ad.Value(weights)).sum())
    return out.data, xv.grad


@pytest.mark.parametrize("config, shape", [
    (DESK, (32, 8000)),
    (FrontendConfig(), (32, 8000)),
    (FrontendConfig(), (2, 48000)),
    (MICRO, (2, 112)),
    (MICRO, (97,)),
    (FrontendConfig(fft_size=511, hop_length=150), (4, 8000)),
    (FrontendConfig(window_length=100, hop_length=50, fft_size=512), (4, 4000)),
], ids=["desk", "default", "paper-length", "micro", "micro-1d", "fft511-hop150",
        "window100-fft512"])
def test_fused_log_mel_is_bit_identical_to_the_primitive_chain(config, shape):
    ops = FrontendOps(config)
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.1, 0.1, size=shape)
    if x.ndim == 2:
        # every mel energy of row 0 is floored: zero frames in its first
        # half, frames of tiny impulses (so a missing floor mask shows) after
        x[0] = 0.0
        x[0, shape[1] // 2::7] = 1e-6
    weights = rng.normal(size=log_mel(x, ops).shape)
    fused, fused_grad = _features_and_gradient(log_mel, x, ops, weights)
    chain, chain_grad = _features_and_gradient(log_mel_chain, x, ops, weights)
    assert fused.shape == chain.shape and fused.strides == chain.strides
    # byte equality also tells -0.0 from 0.0, which np.array_equal does not
    assert fused.tobytes() == chain.tobytes()
    assert fused_grad.shape == chain_grad.shape == x.shape
    assert fused_grad.tobytes() == chain_grad.tobytes()


def _assert_as_fresh(xv, features, weights):
    """``features`` and ``xv.grad`` equal those of a graph and ``FrontendOps`` of their own."""
    want_features, want_grad = _features_and_gradient(log_mel, xv.data, FrontendOps(DESK),
                                                      weights)
    assert features.data.tobytes() == want_features.tobytes()
    assert xv.grad.tobytes() == want_grad.tobytes()


def _waves(seed, *rows):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-0.1, 0.1, size=(n, 1024)) for n in rows]


def test_two_log_mel_nodes_of_one_shape_in_one_graph_match_separate_graphs():
    ops = FrontendOps(DESK)
    a, b = (ad.Value(x, requires_grad=True) for x in _waves(14, 32, 32))
    weights = np.random.default_rng(15).normal(size=(32, DESK.mel_bins, 7))
    features = [log_mel(a, ops), log_mel(b, ops)]
    ad.backward(((features[0] + features[1]) * ad.Value(weights)).sum())
    for xv, out in zip((a, b), features):
        _assert_as_fresh(xv, out, weights)


def test_a_forward_only_log_mel_between_forward_and_backward_changes_no_gradient():
    ops = FrontendOps(DESK)
    x, other = _waves(16, 32, 32)
    xv = ad.Value(x, requires_grad=True)
    weights = np.random.default_rng(17).normal(size=(32, DESK.mel_bins, 7))
    features = log_mel(xv, ops)
    log_mel(other, ops)
    ad.backward((features * ad.Value(weights)).sum())
    _assert_as_fresh(xv, features, weights)


def test_batch_shapes_32_8_32_in_one_graph_match_separate_graphs_with_one_workspace():
    ops = FrontendOps(DESK)
    values = [ad.Value(x, requires_grad=True) for x in _waves(18, 32, 8, 32)]
    weights = np.random.default_rng(19).normal(size=(32, DESK.mel_bins, 7))
    features, workspaces = [], []
    for xv in values:
        features.append(log_mel(xv, ops))
        workspaces.append(weakref.ref(ops._workspace))
    # each new batch shape replaced the workspace of the one before
    assert [ws() is None for ws in workspaces] == [True, True, False]
    loss = sum((out * ad.Value(weights[:len(out.data)])).sum() for out in features)
    ad.backward(loss)
    for xv, out in zip(values, features):
        _assert_as_fresh(xv, out, weights[:len(out.data)])


@pytest.mark.parametrize("config, shape", [(DESK, (32, 8000)), (FrontendConfig(), (8, 48000))],
                         ids=["desk", "paper"])
def test_workspace_is_four_blocks(config, shape):
    ops = FrontendOps(config)
    n_frames = (shape[1] - config.window_length) // config.hop_length + 1
    ws = ops._workspace_for(shape[0], n_frames)
    rows, bins = shape[0] * n_frames, config.fft_size // 2 + 1
    arrays = [a for a in vars(ws).values() if isinstance(a, np.ndarray)]
    owners = {id(a): a for a in (b if b.base is None else b.base for b in arrays)}
    assert sum(a.nbytes for a in owners.values()) == (
        8 * (2 * rows * bins + 2 * rows * max(config.window_length, bins)))


def test_two_backward_passes_through_one_log_mel_give_twice_the_gradient():
    ops = FrontendOps(DESK)
    (x,) = _waves(20, 32)
    xv = ad.Value(x, requires_grad=True)
    weights = np.random.default_rng(21).normal(size=(32, DESK.mel_bins, 7))
    loss = (log_mel(xv, ops) * ad.Value(weights)).sum()
    ad.backward(loss)
    once = xv.grad.copy()
    ad.backward(loss)
    assert xv.grad.tobytes() == (2.0 * once).tobytes()


def test_log_mel_is_one_graph_node():
    out = log_mel(ad.Value(np.zeros((1, 96)), requires_grad=True), FrontendOps(MICRO))
    assert out._op == "log_mel" and len(out._parents) == 1


def test_log_mel_gradient_of_a_1d_waveform_is_that_of_its_one_row_batch():
    ops = FrontendOps(FrontendConfig(sample_rate=4000, window_length=400, hop_length=160,
                                     fft_size=512, mel_bins=12))
    rng = np.random.default_rng(13)
    wave = rng.uniform(-0.1, 0.1, size=1210)
    weights = ad.Value(rng.normal(size=(1, 12, 6)))
    grads = []
    for x in (wave, wave[None, :]):
        xv = ad.Value(x, requires_grad=True)
        ad.backward((log_mel(xv, ops) * weights).sum())
        grads.append(xv.grad)
    assert grads[0].shape == (1210,)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_frame_signal_backward_is_overlap_add():
    rng = np.random.default_rng(9)
    x = ad.Value(rng.normal(size=(3, 50)), requires_grad=True)
    frames = frame_signal(x, 9, 4)
    upstream = rng.normal(size=frames.shape)
    ad.backward((frames * ad.Value(upstream)).sum())
    expected = np.zeros((3, 50))
    for i in range(9):
        expected[:, i:i + 4 * frames.shape[1]:4] += upstream[:, :, i]
    assert frames.shape == (3, 11, 9)
    assert np.array_equal(frames.data[:, 2], x.data[:, 8:17])
    assert x.grad.tobytes() == expected.tobytes()

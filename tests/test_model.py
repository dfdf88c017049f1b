"""Speaker CNN tests on micro configurations."""

import gc
import time
import weakref

import numpy as np
import pytest

from advspeaker import autodiff as ad
from advspeaker import model as mdl
from advspeaker.frontend import FrontendConfig
from gradcheck_cases import finite_diff_check

MICRO_FE = FrontendConfig(sample_rate=1600, window_length=32, hop_length=16,
                          fft_size=32, mel_bins=6, log_floor=1e-6)
MICRO_CNN = mdl.SpeakerCNNConfig(channels=(4, 4), kernel_size=3,
                                 pool_every=2, num_speakers=3)


def micro_params(seed=0):
    return mdl.build(MICRO_CNN, MICRO_FE, seed)


def test_build_is_deterministic():
    a, b = micro_params(7), micro_params(7)
    for name in a.arrays:
        assert np.array_equal(a.arrays[name], b.arrays[name])
    c = micro_params(8)
    assert not np.array_equal(a.arrays["conv0.w"], c.arrays["conv0.w"])


def test_default_config_has_four_pool_layers_and_251_outputs():
    cfg = mdl.SpeakerCNNConfig()
    assert len(cfg.pool_layers()) == 4
    assert cfg.pool_layers() == (2, 4, 6, 8)
    params = mdl.build(cfg, FrontendConfig(), seed=0)
    assert params.arrays["fc.w"].shape[1] == 251
    assert params.arrays["fc.b"].shape == (251,)


def test_conv_layers_carry_no_bias_since_batch_norm_cancels_it():
    assert sorted(micro_params().arrays) == ["bn0.beta", "bn0.gamma", "bn1.beta", "bn1.gamma",
                                             "conv0.w", "conv1.w", "fc.b", "fc.w"]
    x = np.random.default_rng(2).normal(size=(6, 4, 9))
    bias = np.arange(4.0).reshape(1, 4, 1)
    for mode in ("train", "attack"):
        plain, shifted = (ad.batchnorm(x + b, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4),
                                       mode=mode).data for b in (0.0, bias))
        assert np.allclose(plain, shifted, atol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        mdl.SpeakerCNNConfig(channels=(0,))
    with pytest.raises(ValueError):
        mdl.SpeakerCNNConfig(num_speakers=1)


def test_forward_shape_contract():
    params = micro_params()
    rng = np.random.default_rng(0)
    for t in (112, 128, 200):
        logits = mdl.forward_logits(params, rng.normal(size=(5, t)) * 0.1)
        assert logits.shape == (5, 3)


def test_eval_forward_is_pure_and_deterministic():
    params = micro_params()
    x = np.random.default_rng(1).normal(size=(4, 128)) * 0.1
    running_before = {k: v.copy() for k, v in params.running.items()}
    first = mdl.forward_logits(params, x, mode="eval").data
    second = mdl.forward_logits(params, x, mode="eval").data
    assert np.array_equal(first, second)
    for k in running_before:
        assert np.array_equal(params.running[k], running_before[k])


def test_train_mode_updates_running_stats():
    params = micro_params()
    x = np.random.default_rng(2).normal(size=(4, 128)) * 0.1
    mdl.forward_logits(params, x, mode="train")
    assert not np.array_equal(params.running["bn0.mean"], np.zeros(4))


def test_batch_permutation_permutes_logits():
    params = micro_params()
    x = np.random.default_rng(3).normal(size=(6, 128)) * 0.1
    perm = np.random.default_rng(4).permutation(6)
    logits = mdl.forward_logits(params, x, mode="eval").data
    logits_perm = mdl.forward_logits(params, x[perm], mode="eval").data
    assert np.allclose(logits[perm], logits_perm, atol=1e-12)


def test_input_below_receptive_field_raises():
    params = micro_params()
    min_t = mdl.min_input_samples(MICRO_CNN, MICRO_FE)
    assert mdl.forward_logits(params, np.zeros((1, min_t))).shape == (1, 3)
    with pytest.raises(ad.ShapeError):
        mdl.forward_logits(params, np.zeros((1, min_t - MICRO_FE.hop_length)))


def test_ce_gradient_wrt_waveform_matches_finite_differences():
    params = micro_params(5)
    rng = np.random.default_rng(6)
    point = 0.2 * rng.normal(size=(2, 112))
    labels = np.array([0, 2])

    def loss_fn(x):
        logits = mdl.forward_logits(params, x, mode="eval")
        log_probs = logits - ad.logsumexp(logits, axis=1, keepdims=True)
        return -ad.gather_rows(log_probs, labels).mean()

    assert finite_diff_check(loss_fn, point) < 1e-3


def _log_mel_output(loss):
    """A weak reference to the features array of the one log_mel node under ``loss``."""
    (node,) = [node for node in ad._topo_order(loss) if node._op == "log_mel"]
    return weakref.ref(node.data)


def test_a_graph_is_freed_by_reference_counting_once_its_loss_is_dropped():
    params = micro_params(9)
    x = ad.Value(0.1 * np.random.default_rng(10).normal(size=(3, 128)), requires_grad=True)
    # with the cyclic collector off, a graph that is a reference cycle is never freed
    gc.disable()
    try:
        loss = mdl.forward_logits(params, x, mode="attack").sum()
        features = _log_mel_output(loss)
        ad.backward(loss)
        assert features() is not None and x.grad is not None
        del loss
        assert features() is None
    finally:
        gc.enable()


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    params = micro_params(9)
    params.running["bn0.mean"] += 0.25
    vel = {k: np.full_like(v, 0.5) for k, v in params.arrays.items()}
    path = tmp_path / "ckpt.npz"
    mdl.save_checkpoint(path, params, config_fingerprint="cfg123",
                        corpus_fingerprint="corp456", epoch=3, velocity=vel)
    loaded, meta = mdl.load_checkpoint(path)
    assert meta["epoch"] == 3
    assert meta["config_fingerprint"] == "cfg123"
    assert meta["corpus_fingerprint"] == "corp456"
    assert loaded.seed == params.seed
    assert loaded.model_config == params.model_config
    assert loaded.frontend_config == params.frontend_config
    for name in params.arrays:
        assert np.array_equal(loaded.arrays[name], params.arrays[name])
    for name in params.running:
        assert np.array_equal(loaded.running[name], params.running[name])
    for name in vel:
        assert np.array_equal(meta["velocity"][name], vel[name])
    x = np.random.default_rng(10).normal(size=(2, 128)) * 0.1
    assert np.array_equal(mdl.forward_logits(params, x).data,
                          mdl.forward_logits(loaded, x).data)


def test_a_save_that_fails_part_way_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.npz"
    params = micro_params(9)
    mdl.save_checkpoint(path, params, epoch=1)
    saved = path.read_bytes()
    real_write_array = np.lib.format.write_array
    written = []

    def write_array_then_fail(*args, **kwargs):
        written.append(1)
        if len(written) == 3:
            raise OSError("no space left on device")
        return real_write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", write_array_then_fail)
    with pytest.raises(OSError, match="no space left"):
        mdl.save_checkpoint(path, micro_params(10), epoch=2)
    monkeypatch.undo()
    assert len(written) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.npz"]
    assert path.read_bytes() == saved
    loaded, meta = mdl.load_checkpoint(path)
    assert meta["epoch"] == 1
    for name in params.arrays:
        assert np.array_equal(loaded.arrays[name], params.arrays[name])


def test_a_save_writes_what_savez_writes_to_the_path(tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: 1.7e9)  # zip entries carry the write time
    path = tmp_path / "checkpoint.npz"
    mdl.save_checkpoint(path, micro_params(9), epoch=1)
    with np.load(path) as archive:
        payload = {name: archive[name] for name in archive.files}
    direct = tmp_path / "direct.npz"
    np.savez(direct, **payload)
    assert path.read_bytes() == direct.read_bytes()


def test_load_rejects_non_checkpoint(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.ones(3))
    with pytest.raises(mdl.CheckpointError):
        mdl.load_checkpoint(path)


@pytest.mark.parametrize("broken", ["shape", "extra"])
def test_load_rejects_optimizer_state_unlike_the_arrays(tmp_path, broken):
    params = micro_params(9)
    vel = {k: np.zeros_like(v) for k, v in params.arrays.items()}
    if broken == "shape":
        vel["fc.w"] = vel["fc.w"][:1]
    else:
        vel["fc.bias"] = np.zeros(3)
    path = tmp_path / "ckpt.npz"
    mdl.save_checkpoint(path, params, velocity=vel)
    with pytest.raises(mdl.CheckpointError, match="vel__fc.w" if broken == "shape"
                       else "vel__fc.bias"):
        mdl.load_checkpoint(path)

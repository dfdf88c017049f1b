"""Training loop tests on a micro synthetic setup."""

import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from advspeaker import autodiff as ad
from advspeaker import data as dt
from advspeaker import model as mdl
from advspeaker import training as tr
from advspeaker.attacks import AttackSpec
from advspeaker.frontend import FrontendConfig
from advspeaker.losses import LossWeights

MICRO_FE = FrontendConfig(sample_rate=4000, window_length=128, hop_length=64,
                          fft_size=128, mel_bins=12, log_floor=1e-6)
MICRO_CNN = mdl.SpeakerCNNConfig(channels=(8, 8), kernel_size=5,
                                 pool_every=2, num_speakers=3)
MICRO_SYNTH = dt.SynthConfig(num_speakers=3, utterances_per_speaker=10,
                             duration_s=0.2, sample_rate=4000, seed=21)


def micro_train_config(defense="standard", epochs=2, iterations=2):
    attack = AttackSpec(LossWeights(1, 1, 1), epsilon=0.002, alpha=0.0004,
                        iterations=iterations, random_init=True, margin=50.0)
    return tr.TrainConfig(epochs=epochs, batch_size=9, lr_schedule=((60, 0.1),),
                          defense=defense, attack=attack, segment_length=800)


@pytest.fixture(scope="module")
def micro_corpus():
    return dt.synth_corpus(MICRO_SYNTH)


def test_lr_at_reference_schedule():
    sched = tr.PAPER_LR_SCHEDULE
    assert tr.lr_at(sched, 30) == 0.1
    assert tr.lr_at(sched, 60) == 0.1
    assert tr.lr_at(sched, 75) == 0.01
    assert tr.lr_at(sched, 150) == 0.001
    assert tr.lr_at(sched, 500) == 0.001
    with pytest.raises(ValueError):
        tr.lr_at(sched, 0)


def test_sgd_momentum_zero_is_plain_descent():
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([0.5, -0.5])}
    new, vel = tr.sgd_momentum_update(params, grads, {}, lr=0.1, momentum=0.0)
    assert np.allclose(new["w"], [0.95, 2.05])
    assert np.allclose(vel["w"], grads["w"])


def test_sgd_zero_gradient_keeps_parameters():
    params = {"w": np.array([1.0])}
    new, vel = tr.sgd_momentum_update(params, {"w": np.zeros(1)}, {}, lr=0.1, momentum=0.9)
    assert np.array_equal(new["w"], params["w"])


def test_sgd_two_steps_constant_gradient():
    theta = {"w": np.array([0.0])}
    g = {"w": np.array([1.0])}
    vel = {}
    theta, vel = tr.sgd_momentum_update(theta, g, vel, lr=0.1, momentum=0.9)
    first = -theta["w"][0]
    theta, vel = tr.sgd_momentum_update(theta, g, vel, lr=0.1, momentum=0.9)
    second = -theta["w"][0] - first
    assert abs(first - 0.1) < 1e-12
    assert abs(second - 0.1 * 1.9) < 1e-12


def test_sgd_rejects_non_finite_gradient():
    with pytest.raises(ad.NonFiniteError):
        tr.sgd_momentum_update({"w": np.zeros(2)}, {"w": np.array([np.nan, 0.0])},
                               {}, lr=0.1, momentum=0.9)


def test_reference_defaults_are_all_ones():
    config = tr.TrainConfig(epochs=1, defense="hat")
    assert config.w1 == 1.0 and config.w2 == 1.0
    assert config.attack.weights.as_tuple() == (1.0, 1.0, 1.0)
    assert config.attack.epsilon == 0.002
    assert config.attack.alpha is None and config.attack.step == 0.002 / 5
    assert config.attack.iterations == 10
    assert config.attack.margin == 50.0
    assert config.momentum == 0.9
    assert config.sinkhorn.regularization == 0.01


def test_attack_spec_resolution():
    base = micro_train_config().attack
    assert tr.attack_spec_for_defense("standard", base) is None
    fgsm = tr.attack_spec_for_defense("fgsm_at", base)
    assert fgsm.iterations == 1 and not fgsm.random_init and fgsm.step == base.epsilon
    assert fgsm.weights.as_tuple() == (1, 0, 0)
    pgd = tr.attack_spec_for_defense("pgd_at", base)
    assert pgd.weights.as_tuple() == (1, 0, 0)
    assert pgd.iterations == base.iterations and pgd.random_init
    assert tr.attack_spec_for_defense("fs_at", base).weights.as_tuple() == (0, 1, 0)
    assert tr.attack_spec_for_defense("hat", base) is base


def test_standard_training_learns_separable_toy(micro_corpus):
    params = mdl.build(MICRO_CNN, MICRO_FE, seed=1)
    config = micro_train_config(epochs=20)
    records = tr.fit(params, micro_corpus, config, seed=3)
    assert records[-1].train_accuracy >= 99.0
    assert records[-1].clean_loss < records[0].clean_loss


def test_train_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        tr.TrainConfig(epochs=1, defense="nope")
    with pytest.raises(ValueError):
        tr.TrainConfig(epochs=1, lr_schedule=((10, -0.1),))


def test_hat_with_ce_only_weights_matches_pgd_at_bitwise(micro_corpus):
    config_pgd = micro_train_config(defense="pgd_at", epochs=2)
    hat_attack = AttackSpec(LossWeights(1, 0, 0), epsilon=0.002, alpha=0.0004,
                            iterations=2, random_init=True, margin=50.0)
    config_hat = tr.TrainConfig(epochs=2, batch_size=9, lr_schedule=((60, 0.1),),
                                defense="hat", attack=hat_attack, segment_length=800)

    params_a = mdl.build(MICRO_CNN, MICRO_FE, seed=5)
    params_b = mdl.build(MICRO_CNN, MICRO_FE, seed=5)
    tr.fit(params_a, micro_corpus, config_pgd, seed=7)
    tr.fit(params_b, micro_corpus, config_hat, seed=7)
    for name in params_a.arrays:
        assert np.array_equal(params_a.arrays[name], params_b.arrays[name]), name
    for name in params_a.running:
        assert np.array_equal(params_a.running[name], params_b.running[name]), name


def test_adversarial_training_runs_all_defenses(micro_corpus):
    for defense in ("fgsm_at", "fs_at", "hat"):
        params = mdl.build(MICRO_CNN, MICRO_FE, seed=2)
        records = tr.fit(params, micro_corpus, micro_train_config(defense, epochs=1), seed=2)
        assert records[0].adv_loss is not None
        assert records[0].defense == defense


def test_trainlog_is_deterministic(micro_corpus):
    def run():
        params = mdl.build(MICRO_CNN, MICRO_FE, seed=4)
        return tr.fit(params, micro_corpus, micro_train_config("pgd_at", epochs=2), seed=9)

    first, second = run(), run()
    assert [r.stable_dict() for r in first] == [r.stable_dict() for r in second]


def test_a_fresh_run_starts_a_fresh_trainlog_and_a_resumed_run_appends(micro_corpus, tmp_path):
    config = micro_train_config(epochs=1)
    for _ in range(2):
        tr.fit(mdl.build(MICRO_CNN, MICRO_FE, seed=6), micro_corpus, config, seed=11,
               out_dir=tmp_path)
        assert len((tmp_path / "trainlog.jsonl").read_text().splitlines()) == config.epochs
    loaded, meta = mdl.load_checkpoint(tmp_path / "checkpoint.npz")
    tr.fit(loaded, micro_corpus, micro_train_config(epochs=2), seed=11, out_dir=tmp_path,
           start_epoch=meta["epoch"] + 1, velocity=meta["velocity"])
    epochs = [json.loads(line)["epoch"]
              for line in (tmp_path / "trainlog.jsonl").read_text().splitlines()]
    assert epochs == [1, 2]


def test_checkpoint_resume_matches_uninterrupted_run(micro_corpus, tmp_path):
    config4 = micro_train_config(defense="pgd_at", epochs=4)
    straight = mdl.build(MICRO_CNN, MICRO_FE, seed=6)
    tr.fit(straight, micro_corpus, config4, seed=11)

    config2 = micro_train_config(defense="pgd_at", epochs=2)
    resumed = mdl.build(MICRO_CNN, MICRO_FE, seed=6)
    tr.fit(resumed, micro_corpus, config2, seed=11, out_dir=tmp_path)
    loaded, meta = mdl.load_checkpoint(tmp_path / "checkpoint.npz")
    assert meta["epoch"] == 2
    tr.fit(loaded, micro_corpus, config4, seed=11,
           start_epoch=meta["epoch"] + 1, velocity=meta["velocity"])

    for name in straight.arrays:
        assert np.array_equal(straight.arrays[name], loaded.arrays[name]), name
    for name in straight.running:
        assert np.array_equal(straight.running[name], loaded.running[name]), name


@pytest.mark.parametrize("checkpoint_every, start_epoch, saved", [
    (1, 1, [1, 2]), (0, 1, [2]), (1, 3, [2])], ids=["every-epoch", "at-end", "resume-past-end"])
def test_each_checkpoint_is_saved_once(micro_corpus, tmp_path, monkeypatch,
                                       checkpoint_every, start_epoch, saved):
    epochs = []
    save = tr.save_checkpoint

    def counting_save(path, params, **kwargs):
        epochs.append(kwargs["epoch"])
        save(path, params, **kwargs)

    monkeypatch.setattr(tr, "save_checkpoint", counting_save)
    config = replace(micro_train_config(epochs=2), checkpoint_every=checkpoint_every)
    tr.fit(mdl.build(MICRO_CNN, MICRO_FE, seed=6), micro_corpus, config, seed=11,
           out_dir=tmp_path, start_epoch=start_epoch)
    assert epochs == saved


def test_epoch_aborts_atomically_on_non_finite_loss(micro_corpus, monkeypatch):
    params = mdl.build(MICRO_CNN, MICRO_FE, seed=8)
    before = params.copy_state()
    velocity = {}

    calls = {"n": 0}
    real_ce = tr.ce_loss

    def poisoned_ce(logits, labels):
        calls["n"] += 1
        if calls["n"] >= 3:
            return ad.Value(np.nan, requires_grad=False)
        return real_ce(logits, labels)

    monkeypatch.setattr(tr, "ce_loss", poisoned_ce)
    with pytest.raises(ad.NonFiniteError):
        tr.train_epoch(params, velocity, micro_corpus,
                       micro_train_config(epochs=1), epoch=1, seed=13)
    after_arrays, after_running = params.copy_state()
    for name in before[0]:
        assert np.array_equal(before[0][name], after_arrays[name])
    for name in before[1]:
        assert np.array_equal(before[1][name], after_running[name])
    assert velocity == {}


def test_each_batch_frees_its_parameter_values_before_the_next_attack(micro_corpus,
                                                                     monkeypatch):
    # the SGD step replaces every parameter array, so the old ones outlive
    # their batch only while its graph and parameter values do
    params = mdl.build(MICRO_CNN, MICRO_FE, seed=9)
    parameter_values, attacks_started = [], []
    real_forward, real_generate = tr.forward_logits, tr.generate

    def forward(params, x, mode="eval", param_values=None):
        if param_values is not None:
            parameter_values.extend(weakref.ref(v.data) for v in param_values.values())
        return real_forward(params, x, mode=mode, param_values=param_values)

    def generate(*args, **kwargs):
        assert all(ref() is None for ref in parameter_values), "a batch's graph is alive"
        attacks_started.append(len(parameter_values))
        return real_generate(*args, **kwargs)

    monkeypatch.setattr(tr, "forward_logits", forward)
    monkeypatch.setattr(tr, "generate", generate)
    tr.train_epoch(params, {}, micro_corpus, micro_train_config("hat", epochs=1),
                   epoch=1, seed=3)
    assert len(attacks_started) >= 2 and attacks_started[-1] > 0


def test_training_attack_respects_ball(micro_corpus):
    params = mdl.build(MICRO_CNN, MICRO_FE, seed=10)
    config = micro_train_config(defense="pgd_at", epochs=1, iterations=3)
    records = tr.fit(params, micro_corpus, config, seed=15)
    assert records[0].epsilon == 0.002

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The desk-scale fixtures train three tiny models (standard, FS-AT, HAT) on
the shipped synthetic corpus; that is the expensive part (~12 minutes on a
desktop CPU). Absolute full-scale accuracies are out of scope; these
checks are the property/directional versions of the headline claims.
"""

import itertools
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from fgsm_direct import fgsm_direct
from gradcheck_cases import PRIMITIVE_CASES, finite_diff_check
from advspeaker.util import stable_int

from advspeaker import autodiff as ad
from advspeaker import config as cfg
from advspeaker import data as dt
from advspeaker import evaluate as ev
from advspeaker import model as mdl
from advspeaker import training as tr
from advspeaker.attacks import (AttackSpec, fgsm_spec, generate, model_forward_fn,
                                pgd_spec, snr_db, spec_with)
from advspeaker.frontend import FrontendConfig
from advspeaker.losses import (LossWeights, SinkhornConvergenceWarning,
                               TransportProblem, sinkhorn_ot)

warnings.simplefilter("ignore", SinkhornConvergenceWarning)

PRESET_DIR = Path(__file__).resolve().parents[1] / "configs"


def desk_config(defense: str) -> cfg.ExperimentConfig:
    """The shipped desk-scale preset ``configs/desk-<defense>.json``."""
    return cfg.load_config(PRESET_DIR / f"desk-{defense.replace('_', '-')}.json")


DESK = desk_config("hat")
EVAL_SEED = 3
TRAIN_SEED = 7
BUILD_SEED = 1

MICRO_FE = FrontendConfig(sample_rate=1600, window_length=32, hop_length=16,
                          fft_size=32, mel_bins=6, log_floor=1e-6)
MICRO_CNN = mdl.SpeakerCNNConfig(channels=(4, 4), kernel_size=3,
                                 pool_every=2, num_speakers=3)


def criterion(number: int, description: str, passed: bool, details: str = ""):
    line = f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {description}"
    if details:
        line += f"  ({details})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def desk_corpus():
    return dt.synth_corpus(DESK.corpus.synth_config())


@pytest.fixture(scope="module")
def desk_models(desk_corpus):
    """standard, fs_at and hat models trained with the shipped desk preset."""
    models = {}
    timings = {}
    for defense in ("standard", "fs_at", "hat"):
        config = desk_config(defense)
        params = mdl.build(config.model, config.frontend, BUILD_SEED)
        started = time.monotonic()
        tr.fit(params, desk_corpus, config.train, seed=TRAIN_SEED)
        timings[defense] = time.monotonic() - started
        models[defense] = params
    models["timings"] = timings
    return models


def desk_eval_kwargs(split="test"):
    return dict(batch_size=DESK.eval.batch_size,
                segment_length=DESK.train.segment_length,
                seed=EVAL_SEED, split=split)


# --- criterion 1: gradient correctness ---------------------------------------

def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    worst_primitive = 0.0
    for name, case in sorted(PRIMITIVE_CASES.items()):
        for point_index in range(20):
            loss_fn, point = case(np.random.default_rng((stable_int(name) % 1000, point_index)))
            err = finite_diff_check(loss_fn, point)
            worst_primitive = max(worst_primitive, err)
            assert err < 1e-6, f"{name} point {point_index}: {err}"

    params = mdl.build(MICRO_CNN, MICRO_FE, seed=11)
    worst_e2e = 0.0
    for point_index in range(20):
        rng = np.random.default_rng((71, point_index))
        x = 0.2 * rng.normal(size=(2, 112))
        labels = rng.integers(0, 3, size=2)

        def ce_from_waveform(xv):
            logits = mdl.forward_logits(params, xv, mode="eval")
            log_probs = logits - ad.logsumexp(logits, axis=1, keepdims=True)
            return -ad.gather_rows(log_probs, labels).mean()

        err = finite_diff_check(ce_from_waveform, x)
        worst_e2e = max(worst_e2e, err)
    elapsed = time.monotonic() - started
    criterion(1, "primitive and end-to-end gradients match finite differences",
              worst_primitive < 1e-6 and worst_e2e < 1e-4 and elapsed < 120,
              f"primitives max {worst_primitive:.2e}, end-to-end max {worst_e2e:.2e}, "
              f"{elapsed:.0f}s")


# --- criterion 2: sinkhorn vs brute force -------------------------------------

def test_criterion_2_sinkhorn_matches_bruteforce():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    worst_gap = worst_marginal = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 5))
        cost = rng.uniform(0.0, 2.0, size=(n, n))
        uniform = np.full(n, 1.0 / n)
        result = sinkhorn_ot(TransportProblem(uniform, uniform, cost, 0.01),
                             max_iters=2000)
        exact = min(sum(cost[i, p[i]] for i in range(n)) / n
                    for p in itertools.permutations(range(n)))
        worst_gap = max(worst_gap, abs(result.distance - exact))
        worst_marginal = max(worst_marginal, result.marginal_error)
    elapsed = time.monotonic() - started
    criterion(2, "sinkhorn within 0.02 of the exact optimum on 50 random problems",
              worst_gap <= 0.02 and worst_marginal < 1e-6 and elapsed < 60,
              f"max gap {worst_gap:.4f}, max marginal violation {worst_marginal:.1e}, "
              f"{elapsed:.0f}s")


# --- criterion 3: attack invariants -------------------------------------------

def test_criterion_3_attack_invariants():
    rng = np.random.default_rng(303)
    violations = []
    calls = 0

    def run_case(forward, x, y, spec, seed):
        nonlocal calls
        calls += 1

        def on_step(t, x_adv):
            linf = np.abs(x_adv - x).max()
            if linf > spec.epsilon + 1e-12 or np.abs(x_adv).max() > 1.0:
                violations.append((seed, t, linf))

        generate(forward, x, y, spec, seed=seed, on_step=on_step)

    # bulk of the calls on instant linear models, a slice on the CNN path
    for i in range(900):
        d = int(rng.integers(3, 9))
        w = rng.normal(size=(d, 3))
        forward = lambda xv, mode, w=w: ad.matmul(xv, ad.Value(w))
        x = np.clip(rng.normal(size=(2, d)) * 0.4, -1, 1)
        y = rng.integers(0, 3, size=2)
        spec = AttackSpec(LossWeights(1, 0, 0), epsilon=float(rng.uniform(0.001, 0.1)),
                          alpha=float(rng.uniform(0.0005, 0.05)),
                          iterations=int(rng.integers(1, 5)),
                          random_init=bool(rng.integers(0, 2)))
        run_case(forward, x, y, spec, seed=i)

    # attack a briefly trained model: an untrained one can emit an all-zero
    # logit row (dead ReLUs + zero bias), which the FS cost rightly rejects
    micro_corpus = dt.synth_corpus(dt.SynthConfig(
        num_speakers=3, utterances_per_speaker=10, duration_s=0.12, sample_rate=1600))
    params = mdl.build(MICRO_CNN, MICRO_FE, seed=13)
    tr.fit(params, micro_corpus,
           tr.TrainConfig(epochs=3, batch_size=9, lr_schedule=((60, 0.1),),
                          defense="standard", segment_length=112), seed=13)
    forward = model_forward_fn(params)
    weights_pool = [LossWeights(1, 0, 0), LossWeights(0, 0, 1), LossWeights(0, 1, 0),
                    LossWeights(1, 1, 1)]
    for i in range(100):
        x = np.clip(0.3 * rng.normal(size=(2, 112)), -1, 1)
        y = rng.integers(0, 3, size=2)
        spec = AttackSpec(weights_pool[i % 4], epsilon=float(rng.uniform(0.001, 0.05)),
                          alpha=float(rng.uniform(0.0005, 0.02)),
                          iterations=int(rng.integers(1, 4)),
                          random_init=bool(rng.integers(0, 2)), margin=10.0)
        run_case(forward, x, y, spec, seed=10_000 + i)

    x = 0.2 * np.random.default_rng(99).normal(size=(3, 112))
    y = np.array([0, 1, 2])
    one_step = AttackSpec(LossWeights(1, 0, 0), epsilon=0.002, alpha=0.002,
                          iterations=1, random_init=False)
    bit_equal = np.array_equal(generate(forward, x, y, one_step).x_adv,
                               fgsm_direct(forward, x, y, 0.002))
    criterion(3, "ball/range invariants hold at every iterate over 1000 calls; "
                 "FGSM specialization is bit-exact",
              calls == 1000 and not violations and bit_equal,
              f"{calls} calls, {len(violations)} violations, fgsm bit-equal {bit_equal}")


# --- criterion 4: desk-scale defense efficacy ---------------------------------

@pytest.fixture(scope="module")
def hat_test_pgd10(desk_corpus, desk_models):
    """The desk HAT model's PGD-10 accuracy on the test split, measured once
    for criteria 4 and 6, with its wall time for criterion 4's budget."""
    started = time.monotonic()
    acc, _ = ev.accuracy_under_attack(desk_models["hat"], desk_corpus, pgd_spec(0.002, 10),
                                      **desk_eval_kwargs())
    return acc, time.monotonic() - started


def test_criterion_4_desk_scale_defense_efficacy(desk_corpus, desk_models, hat_test_pgd10):
    started = time.monotonic()
    pgd10 = pgd_spec(0.002, 10)
    kw = desk_eval_kwargs()
    std_clean, _ = ev.accuracy_under_attack(desk_models["standard"], desk_corpus, None, **kw)
    std_pgd, _ = ev.accuracy_under_attack(desk_models["standard"], desk_corpus, pgd10, **kw)
    hat_clean, _ = ev.accuracy_under_attack(desk_models["hat"], desk_corpus, None, **kw)
    hat_pgd, hat_pgd_s = hat_test_pgd10
    fs_pgd, _ = ev.accuracy_under_attack(desk_models["fs_at"], desk_corpus, pgd10, **kw)
    total_time = (sum(desk_models["timings"].values()) + hat_pgd_s
                  + (time.monotonic() - started))

    ok = (std_clean >= 95.0 and std_pgd <= 20.0 and hat_clean >= 90.0
          and hat_pgd >= std_pgd + 30.0 and hat_pgd >= fs_pgd - 2.0
          and total_time < 1800)
    criterion(4, "desk-scale efficacy: undefended model breaks, hybrid-trained "
                 "model stays robust",
              ok,
              f"std clean {std_clean:.2f} / pgd10 {std_pgd:.2f}; hat clean "
              f"{hat_clean:.2f} / pgd10 {hat_pgd:.2f}; fs-at pgd10 {fs_pgd:.2f}; "
              f"train+eval {total_time:.0f}s")


# --- criterion 5: attack-strength orderings ------------------------------------

SWEEP_EPSILONS = [0.001, 0.002, 0.005, 0.01, 0.1]


@pytest.fixture(scope="module")
def hat_accuracies(desk_corpus, desk_models):
    """The desk HAT model's whole-corpus accuracies that criterion 5 and the
    masking checks both judge, each measured once: FGSM, PGD-10, PGD-100 and
    the PGD-10 budget sweep, whose 0.002 point is the PGD-10 pass itself."""
    hat = desk_models["hat"]
    kw = desk_eval_kwargs(split="all")  # finer granularity than the 40-item test split
    pgd10 = pgd_spec(0.002, 10)
    assert spec_with(pgd10, epsilon=0.002) == pgd10
    assert spec_with(pgd10, epsilon=0.1) == pgd_spec(0.1, 10)
    measured = {"fgsm": fgsm_spec(0.002), "pgd10": pgd10, "pgd100": pgd_spec(0.002, 100)}
    measured.update({eps: spec_with(pgd10, epsilon=eps) for eps in SWEEP_EPSILONS
                     if eps != 0.002})
    accs = {key: ev.accuracy_under_attack(hat, desk_corpus, spec, **kw)[0]
            for key, spec in measured.items()}
    accs[0.002] = accs["pgd10"]
    return accs


def test_criterion_5_orderings_and_budget_sweep(hat_accuracies):
    fgsm_acc, pgd10_acc, pgd100_acc = (hat_accuracies[k] for k in ("fgsm", "pgd10", "pgd100"))
    curve = [(eps, hat_accuracies[eps]) for eps in SWEEP_EPSILONS]
    non_increasing = all(curve[i + 1][1] <= curve[i][1] + 2.0
                         for i in range(len(curve) - 1))
    stable = abs(pgd10_acc - pgd100_acc) < 10.0  # defended curve barely moves with T
    ok = (pgd100_acc <= pgd10_acc + 2.0 and pgd10_acc <= fgsm_acc + 2.0
          and non_increasing and curve[-1][1] <= 5.0 and stable)
    criterion(5, "more iterations and bigger budgets never help the defender",
              ok,
              f"fgsm {fgsm_acc:.2f} >= pgd10 {pgd10_acc:.2f} >= pgd100 {pgd100_acc:.2f}; "
              f"sweep {[(e, round(a, 2)) for e, a in curve]}")


# --- criterion 6: transfer attacks are weaker ----------------------------------

def test_criterion_6_transfer_attacks_no_stronger_than_white_box(desk_corpus, desk_models,
                                                                 hat_test_pgd10):
    white, _ = hat_test_pgd10  # criterion 4's white-box pass
    transferred, _ = ev.accuracy_under_attack(
        desk_models["hat"], desk_corpus, pgd_spec(0.002, 10),
        attacker=model_forward_fn(desk_models["standard"]), **desk_eval_kwargs())
    criterion(6, "adversaries transferred from the undefended model are no "
                 "stronger than white-box ones",
              transferred >= white,
              f"transfer {transferred:.2f} vs white-box {white:.2f}")


def test_masking_checks_all_pass_on_desk_hat(desk_corpus, desk_models, hat_accuracies):
    """A properly adversarially-trained model clears every masking check.

    Only the transfer pass runs here; the white-box accuracies are criterion
    5's, and its sweep's 0.1 point is the large-budget PGD-10.
    """
    transfer, _ = ev.accuracy_under_attack(
        desk_models["hat"], desk_corpus, pgd_spec(0.002, 10),
        attacker=model_forward_fn(desk_models["standard"]), **desk_eval_kwargs(split="all"))
    checks = ev.masking_checks(hat_accuracies["pgd10"], hat_accuracies["fgsm"],
                               {"standard": transfer}, hat_accuracies[0.1],
                               tolerance_points=2.0)
    assert checks.all_passed(), checks.evidence


# --- criterion 7: hybrid specializes to PGD-AT bit-for-bit ----------------------

def test_criterion_7_hybrid_with_ce_only_weights_is_pgd_at(desk_corpus):
    base = desk_config("pgd_at").train
    config_pgd = tr.TrainConfig(
        epochs=2, batch_size=base.batch_size, lr_schedule=base.lr_schedule,
        defense="pgd_at", attack=base.attack, sinkhorn=base.sinkhorn,
        segment_length=base.segment_length)
    hat_attack = AttackSpec(LossWeights(1, 0, 0), epsilon=base.attack.epsilon,
                            alpha=base.attack.alpha, iterations=base.attack.iterations,
                            random_init=base.attack.random_init, margin=base.attack.margin)
    config_hat = tr.TrainConfig(
        epochs=2, batch_size=base.batch_size, lr_schedule=base.lr_schedule,
        defense="hat", attack=hat_attack, sinkhorn=base.sinkhorn,
        segment_length=base.segment_length)

    params_pgd = mdl.build(DESK.model, DESK.frontend, BUILD_SEED)
    params_hat = mdl.build(DESK.model, DESK.frontend, BUILD_SEED)
    tr.fit(params_pgd, desk_corpus, config_pgd, seed=TRAIN_SEED)
    tr.fit(params_hat, desk_corpus, config_hat, seed=TRAIN_SEED)
    identical = all(np.array_equal(params_pgd.arrays[k], params_hat.arrays[k])
                    for k in params_pgd.arrays)
    identical &= all(np.array_equal(params_pgd.running[k], params_hat.running[k])
                     for k in params_pgd.running)
    criterion(7, "hybrid training with CE-only weights reproduces PGD-AT "
                 "bit-for-bit over 2 epochs", identical)


# --- criterion 8: SNR reporting -------------------------------------------------

def test_criterion_8_snr_range_and_exact_formula(desk_corpus, desk_models):
    x, y = next(dt.batch_iter(desk_corpus, 40, DESK.train.segment_length,
                              seed=EVAL_SEED, epoch=0, split="test", train=False))
    adv = generate(model_forward_fn(desk_models["hat"]), x, y, pgd_spec(0.002, 10),
                   mode="eval", seed=(EVAL_SEED, 0, 1))
    finite = adv.snr_db[np.isfinite(adv.snr_db)]
    in_range = finite.size == len(y) and (finite >= 25.0).all() and (finite <= 60.0).all()

    unit_power = np.ones((1, 1000))
    exact = snr_db(unit_power, unit_power + np.sqrt(1.0 / 1000.0))[0]
    formula_exact = abs(exact - 30.0) < 1e-9
    criterion(8, "reported SNR in [25, 60] dB at the reference budget; 30 dB "
                 "formula case exact",
              in_range and formula_exact,
              f"range [{finite.min():.2f}, {finite.max():.2f}] dB, "
              f"formula case {exact:.12f} dB")


# --- criterion 9: reproducibility -----------------------------------------------

def test_criterion_9_reruns_reproduce_reports(tmp_path, desk_corpus, desk_models):
    # micro-scale train rerun: identical checkpoints and stable log fields
    micro_corpus = dt.synth_corpus(dt.SynthConfig(
        num_speakers=3, utterances_per_speaker=10, duration_s=0.2, sample_rate=4000))
    micro_cfg = tr.TrainConfig(epochs=2, batch_size=9, lr_schedule=((60, 0.1),),
                               defense="pgd_at",
                               attack=AttackSpec(LossWeights(1, 0, 0), 0.002, 0.0004,
                                                 iterations=2, random_init=True),
                               segment_length=800)
    micro_fe = FrontendConfig(sample_rate=4000, window_length=128, hop_length=64,
                              fft_size=128, mel_bins=12)

    def run_once():
        params = mdl.build(mdl.SpeakerCNNConfig(channels=(8, 8),
                                                kernel_size=5, num_speakers=3),
                           micro_fe, seed=5)
        records = tr.fit(params, micro_corpus, micro_cfg, seed=9)
        return params, [r.stable_dict() for r in records]

    (params_a, log_a), (params_b, log_b) = run_once(), run_once()
    trains_identical = log_a == log_b and all(
        np.array_equal(params_a.arrays[k], params_b.arrays[k]) for k in params_a.arrays)

    # desk-scale eval rerun: identical report content hashes
    def desk_report():
        report = ev.RobustnessReport("hat", DESK.fingerprint(),
                                     desk_corpus.fingerprint, TRAIN_SEED)
        acc, _ = ev.accuracy_under_attack(desk_models["hat"], desk_corpus,
                                          pgd_spec(0.002, 10), **desk_eval_kwargs())
        report.entries.append(ev.ReportEntry("pgd10", acc, None, None, EVAL_SEED))
        return report.content_hash()

    hashes_equal = desk_report() == desk_report()
    criterion(9, "identical config and seed reproduce identical artifacts",
              trains_identical and hashes_equal,
              f"train logs equal {log_a == log_b}, report hash equal {hashes_equal}")

"""Evaluation-harness tests on micro models (desk-scale behavior is covered
by the acceptance suite)."""

import numpy as np
import pytest
from scrambled_gradient import scrambled_gradient_forward

from advspeaker import data as dt
from advspeaker import evaluate as ev
from advspeaker import model as mdl
from advspeaker import training as tr
from advspeaker.attacks import AttackSpec, fgsm_spec, model_forward_fn, pgd_spec, spec_with
from advspeaker.frontend import FrontendConfig
from advspeaker.losses import LossWeights

MICRO_FE = FrontendConfig(sample_rate=4000, window_length=128, hop_length=64,
                          fft_size=128, mel_bins=12, log_floor=1e-6)
MICRO_CNN = mdl.SpeakerCNNConfig(channels=(8, 8), kernel_size=5,
                                 pool_every=2, num_speakers=3)
MICRO_SYNTH = dt.SynthConfig(num_speakers=3, utterances_per_speaker=10,
                             duration_s=0.2, sample_rate=4000, seed=31)


@pytest.fixture(scope="module")
def corpus():
    return dt.synth_corpus(MICRO_SYNTH)


@pytest.fixture(scope="module")
def trained(corpus):
    params = mdl.build(MICRO_CNN, MICRO_FE, seed=1)
    config = tr.TrainConfig(epochs=15, batch_size=9, lr_schedule=((60, 0.1),),
                            defense="standard", segment_length=800)
    tr.fit(params, corpus, config, seed=2)
    return params


def test_zero_budget_point_equals_clean_accuracy(corpus, trained):
    clean, _ = ev.accuracy_under_attack(trained, corpus, None, batch_size=16)
    zero, _ = ev.accuracy_under_attack(trained, corpus, spec_with(pgd_spec(0.002, 2),
                                                                  epsilon=0.0), batch_size=16)
    assert zero == clean


def test_untrained_models_sit_at_chance_level_on_average():
    # a single random init can permute classes systematically, so the
    # chance-level oracle is the mean over random initializations
    synth = dt.SynthConfig(num_speakers=10, utterances_per_speaker=20,
                           duration_s=0.2, sample_rate=4000, seed=37)
    balanced = dt.synth_corpus(synth)
    seeds = range(1000, 1010)
    cnn = mdl.SpeakerCNNConfig(channels=(8, 8), kernel_size=5, num_speakers=10)
    clean = [ev.accuracy_under_attack(mdl.build(cnn, MICRO_FE, s),
                                      balanced, None, batch_size=32, split="train")[0]
             for s in seeds]
    assert abs(np.mean(clean) - 100.0 / 10) <= 5.0
    fgsm = AttackSpec(LossWeights(1, 0, 0), 0.002, 0.002, 1, False)
    attacked = [ev.accuracy_under_attack(
        mdl.build(cnn, MICRO_FE, s), balanced, fgsm,
        batch_size=32, split="train")[0] for s in seeds]
    assert abs(np.mean(attacked) - 100.0 / 10) <= 5.0


def test_transfer_with_source_equal_target_matches_white_box(corpus, trained):
    spec = pgd_spec(0.002, 2)
    white, _ = ev.accuracy_under_attack(trained, corpus, spec, batch_size=16, seed=5)
    degenerate, _ = ev.accuracy_under_attack(trained, corpus, spec,
                                             attacker=model_forward_fn(trained),
                                             batch_size=16, seed=5)
    assert white == degenerate


def test_transfer_from_untrained_source_barely_moves_target(corpus, trained):
    clean, _ = ev.accuracy_under_attack(trained, corpus, None, batch_size=16)
    random_source = mdl.build(MICRO_CNN, MICRO_FE, seed=99)
    acc, _ = ev.accuracy_under_attack(trained, corpus, pgd_spec(0.002, 3),
                                      attacker=model_forward_fn(random_source),
                                      batch_size=16, seed=6)
    assert abs(acc - clean) <= 3.0 + 1e-9


def test_iteration_sweep_first_point_is_one_full_step(corpus, trained):
    first = spec_with(pgd_spec(0.002, 10), iterations=1)
    one_step = AttackSpec(LossWeights(1, 0, 0), 0.002, alpha=None,
                          iterations=1, random_init=True)
    assert first == one_step and first.step == 0.002
    swept, _ = ev.accuracy_under_attack(trained, corpus, first, batch_size=16, seed=7)
    expected, _ = ev.accuracy_under_attack(trained, corpus, one_step,
                                           batch_size=16, seed=7)
    assert swept == expected


def test_report_hash_excludes_timestamps(corpus, trained):
    def make(created):
        report = ev.RobustnessReport("m", "cfg", corpus.fingerprint, 3,
                                     created_utc=created)
        report.entries.append(ev.ReportEntry("clean", 98.0, None, None, 3))
        return report

    a, b = make("2026-01-01T00:00:00+00:00"), make("2026-02-02T09:09:09+00:00")
    assert a.content_hash() == b.content_hash()
    c = make("2026-01-01T00:00:00+00:00")
    c.entries[0].accuracy = 97.0
    assert c.content_hash() != a.content_hash()
    assert "content_hash" in a.to_jsonl()
    assert "clean" in a.render_table()


def test_curve_csv_layout():
    csv = ev.curve_csv([(0.001, 88.0), (0.002, 71.5)], "pgd", 3, header_note="fp=abc")
    lines = csv.strip().splitlines()
    assert lines[0] == "# fp=abc"
    assert lines[1] == "x,accuracy,attack,seed"
    assert lines[2] == "0.001,88.00,pgd,3"


def measured_masking_checks(target, sources, corpus, *, epsilon, iterations,
                            large_epsilon=0.1, attacker=None, **kwargs):
    """The masking verdict on the four accuracies measured on ``corpus``;
    the white-box attacks are crafted on ``attacker`` when given."""
    def acc(spec, crafted_on):
        return ev.accuracy_under_attack(target, corpus, spec, attacker=crafted_on, **kwargs)[0]

    pgd = pgd_spec(epsilon, iterations)
    return ev.masking_checks(
        acc(pgd, attacker), acc(fgsm_spec(epsilon), attacker),
        {name: acc(pgd, model_forward_fn(src)) for name, src in sources.items()},
        acc(pgd_spec(large_epsilon, iterations), attacker))


def test_masking_checks_structure_and_degenerate_source(corpus, trained):
    checks = measured_masking_checks(trained, {"self": trained}, corpus,
                                     epsilon=0.002, iterations=2, large_epsilon=0.2,
                                     batch_size=16, seed=8)
    assert checks.black_box_not_weaker  # source == target -> equality case
    assert set(checks.evidence) == {"white_box_pgd", "white_box_fgsm", "transfer_pgd",
                                    "large_epsilon_accuracy", "tolerance_points"}


def test_scrambled_gradients_fail_the_iterative_check(corpus, trained):
    # the control leaves forward values intact but randomizes the waveform
    # adjoint; one-step attacks then beat iterative ones
    scrambled = scrambled_gradient_forward(trained, scramble_seed=5)
    checks = measured_masking_checks(trained, {}, corpus, epsilon=0.05, iterations=10,
                                     batch_size=16, seed=9, split="all", attacker=scrambled)
    assert not checks.iterative_at_least_one_step
    healthy = measured_masking_checks(trained, {}, corpus, epsilon=0.05, iterations=10,
                                      batch_size=16, seed=9, split="all")
    assert healthy.iterative_at_least_one_step


@pytest.mark.parametrize("transfer, fgsm, large, failed", [
    ({"src": 48.0}, 48.0, 5.0, None),               # every check on its edge
    ({"src": 48.0 - 1e-9}, 48.0, 5.0, "black_box_not_weaker"),
    ({"src": 50.0}, 48.0 - 1e-9, 5.0, "iterative_at_least_one_step"),
    ({"src": 50.0}, 48.0, 5.0 + 1e-9, "large_budget_breaks_model"),
    ({}, 48.0, 5.0, None),                          # no transfer source: (a) holds
])
def test_masking_verdict_edges(transfer, fgsm, large, failed):
    # white-box PGD at 50 with the default 2-point tolerance
    checks = ev.masking_checks(50.0, fgsm, transfer, large)
    verdicts = {name: getattr(checks, name) for name in (
        "black_box_not_weaker", "iterative_at_least_one_step", "large_budget_breaks_model")}
    assert verdicts == {name: name != failed for name in verdicts}
    assert checks.all_passed() == (failed is None)
    assert checks.evidence == {"white_box_pgd": 50.0, "white_box_fgsm": fgsm,
                               "transfer_pgd": transfer, "large_epsilon_accuracy": large,
                               "tolerance_points": 2.0}

"""Attack-family tests: projection invariants, specializations, SNR."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fgsm_direct import fgsm_direct

from advspeaker import attacks as atk
from advspeaker import autodiff as ad
from advspeaker import losses as ls
from advspeaker import model as mdl
from advspeaker.frontend import FrontendConfig

MICRO_FE = FrontendConfig(sample_rate=1600, window_length=32, hop_length=16,
                          fft_size=32, mel_bins=6, log_floor=1e-6)
MICRO_CNN = mdl.SpeakerCNNConfig(channels=(4, 4), kernel_size=3,
                                 pool_every=2, num_speakers=3)


def micro_forward(seed=0):
    params = mdl.build(MICRO_CNN, MICRO_FE, seed)
    return atk.model_forward_fn(params)


def linear_forward(w: np.ndarray):
    def fn(xv, mode):
        return ad.matmul(xv, ad.Value(w))
    return fn


def test_init_without_random_start_is_identity():
    x = np.random.default_rng(0).normal(size=(2, 16)) * 0.1
    out = atk.init_perturbation(x, 0.002, False, np.random.default_rng(1))
    assert np.array_equal(out, x)


def test_init_random_start_stays_inside_ball():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 32)) * 0.1
    out = atk.init_perturbation(x, 0.002, True, np.random.default_rng(3))
    assert np.abs(out - x).max() < 0.002


def test_init_same_seed_identical():
    x = np.zeros((2, 8))
    a = atk.init_perturbation(x, 0.01, True, np.random.default_rng(7))
    b = atk.init_perturbation(x, 0.01, True, np.random.default_rng(7))
    assert np.array_equal(a, b)


def ball(x, epsilon):
    """The (lo, hi) bounds ``generate`` hands ``pgd_step``: the ball within [-1, 1]."""
    return np.maximum(x - epsilon, -1.0), np.minimum(x + epsilon, 1.0)


def test_pgd_step_saturates_at_ball_boundary():
    # scalar x=0, positive gradient, alpha=0.0004, eps=0.002: saturated after 5 steps
    x = np.zeros((1, 1))
    x_adv = x.copy()
    for _ in range(10):
        x_adv = atk.pgd_step(x_adv, np.ones((1, 1)), *ball(x, 0.002), alpha=0.0004)
    assert np.allclose(x_adv, 0.002)


def test_pgd_step_zero_gradient_is_identity():
    x = np.full((1, 4), 0.5)
    x_adv = x + 0.001
    out = atk.pgd_step(x_adv, np.zeros((1, 4)), *ball(x, 0.002), alpha=0.01)
    assert np.array_equal(out, x_adv)


def test_pgd_step_projects_outside_candidate():
    x = np.zeros((1, 1))
    out = atk.pgd_step(np.full((1, 1), 0.004), np.ones((1, 1)), *ball(x, 0.002), alpha=0.001)
    assert np.allclose(out, 0.002)


def test_pgd_step_rejects_non_finite_gradient():
    with pytest.raises(ad.NonFiniteError):
        atk.pgd_step(np.zeros((1, 2)), np.array([[np.nan, 0.0]]), *ball(np.zeros((1, 2)), 0.2),
                     0.1)


def test_pgd_step_respects_waveform_range():
    x = np.full((1, 2), 0.9995)
    out = atk.pgd_step(x.copy(), np.ones((1, 2)), *ball(x, 0.01), alpha=0.01)
    assert (out <= 1.0).all()


def test_pgd_step_one_clip_bit_equals_the_ball_clip_then_the_range_clip():
    rng = np.random.default_rng(12)
    x = np.clip(rng.normal(size=(4, 256)) * 0.6, -1, 1)
    x_adv = np.clip(x + rng.uniform(-0.01, 0.01, size=x.shape), -1, 1)
    grad = rng.normal(size=x.shape)
    two_clips = np.clip(np.clip(x_adv + 0.004 * np.sign(grad), x - 0.01, x + 0.01), -1, 1)
    assert np.array_equal(atk.pgd_step(x_adv, grad, *ball(x, 0.01), alpha=0.004), two_clips)


def test_pgd_step_bit_equals_the_clip_of_the_signed_step():
    rng = np.random.default_rng(21)
    x = np.clip(rng.normal(size=(4, 300)) * 0.6, -1, 1)
    x[0, :40], x[1, :40] = 1.0, -1.0  # the waveform range cuts the ball
    x_adv = x + rng.uniform(-0.02, 0.02, size=x.shape)  # some of it outside the ball
    grad = rng.normal(size=x.shape)
    grad[2, ::3], grad[3, ::5] = 0.0, -0.0
    lo, hi = ball(x, 0.01)
    before = x_adv.copy()
    out = atk.pgd_step(x_adv, grad, lo, hi, alpha=0.004)
    assert out.tobytes() == np.clip(x_adv + 0.004 * np.sign(grad), lo, hi).tobytes()
    assert x_adv.tobytes() == before.tobytes()


@pytest.mark.parametrize("outside", [1.5, -1.0000001, np.nan])
def test_generate_rejects_a_clean_batch_outside_the_waveform_range(outside):
    x = np.zeros((1, 5))
    x[0, 2] = outside
    with pytest.raises(ValueError, match="waveform range"):
        atk.generate(linear_forward(np.ones((5, 2))), x, np.array([0]), atk.pgd_spec(0.002, 2))


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        atk.AttackSpec(ls.LossWeights(1, 0, 0), epsilon=0.0, alpha=0.1, iterations=1, random_init=False)
    with pytest.raises(ValueError):
        atk.AttackSpec(ls.LossWeights(1, 0, 0), epsilon=0.1, alpha=-1, iterations=1, random_init=False)
    with pytest.raises(ValueError):
        atk.AttackSpec(ls.LossWeights(1, 0, 0), epsilon=0.1, alpha=0.1, iterations=0, random_init=False)


def test_generate_fgsm_specialization_bit_equals_direct_fgsm():
    forward = micro_forward(1)
    rng = np.random.default_rng(4)
    x = 0.2 * rng.normal(size=(3, 112))
    y = np.array([0, 1, 2])
    spec = atk.AttackSpec(ls.LossWeights(1, 0, 0), epsilon=0.002, alpha=0.002,
                          iterations=1, random_init=False)
    via_generate = atk.generate(forward, x, y, spec).x_adv
    direct = fgsm_direct(forward, x, y, 0.002)
    assert np.array_equal(via_generate, direct)


def test_generate_every_iterate_inside_ball_and_range():
    forward = micro_forward(2)
    rng = np.random.default_rng(5)
    x = np.clip(0.3 * rng.normal(size=(2, 112)), -1, 1)
    y = np.array([0, 1])
    seen = []

    def on_step(t, x_adv):
        seen.append((t, np.abs(x_adv - x).max(), np.abs(x_adv).max()))

    spec = atk.pgd_spec(0.002, iterations=7)
    atk.generate(forward, x, y, spec, seed=11, on_step=on_step)
    assert len(seen) == 7
    for _, linf, peak in seen:
        assert linf <= 0.002 + 1e-12
        assert peak <= 1.0


def test_generate_deterministic_for_fixed_seed():
    forward = micro_forward(3)
    rng = np.random.default_rng(6)
    x = 0.2 * rng.normal(size=(2, 112))
    y = np.array([1, 2])
    spec = atk.hybrid_spec(0.002, iterations=3)
    a = atk.generate(forward, x, y, spec, seed=9).x_adv
    b = atk.generate(forward, x, y, spec, seed=9).x_adv
    assert np.array_equal(a, b)
    c = atk.generate(forward, x, y, spec, seed=10).x_adv
    assert not np.array_equal(a, c)


def test_pgd1_on_linear_model_matches_bruteforce_worst_case():
    rng = np.random.default_rng(7)
    d = 6
    w = rng.normal(size=(d, 2))
    x = rng.normal(size=(1, d)) * 0.1
    y = np.array([0])
    eps = 0.05
    spec = atk.AttackSpec(ls.LossWeights(1, 0, 0), epsilon=eps, alpha=eps,
                          iterations=1, random_init=False)
    x_adv = atk.generate(linear_forward(w), x, y, spec).x_adv

    def ce(xx):
        z = xx @ w
        return float(-(z[0, 0] - np.log(np.exp(z[0]).sum())) * -1.0
                     ) if False else float(np.log(np.exp(z[0]).sum()) - z[0, 0])

    best_loss, best_x = -np.inf, None
    for signs in itertools.product([-1.0, 1.0], repeat=d):
        cand = x + eps * np.array(signs)[None, :]
        if ce(cand) > best_loss:
            best_loss, best_x = ce(cand), cand
    assert abs(ce(x_adv) - best_loss) < 1e-12
    assert np.allclose(x_adv, best_x)


def test_generate_loss_nondecreasing_in_iterations_on_average():
    forward = micro_forward(8)
    rng = np.random.default_rng(9)

    def mean_attacked_loss(iterations):
        total = 0.0
        for b in range(10):
            x = 0.2 * np.random.default_rng((1, b)).normal(size=(3, 112))
            y = np.array([0, 1, 2])
            spec = atk.AttackSpec(ls.LossWeights(1, 0, 0), epsilon=0.01,
                                  alpha=0.002, iterations=iterations, random_init=False)
            batch = atk.generate(forward, x, y, spec, seed=b)
            logits = forward(ad.Value(batch.x_adv), "eval")
            total += float(ls.ce_loss(logits, y).data)
        return total / 10

    losses = [mean_attacked_loss(t) for t in (1, 3, 10)]
    assert losses[0] <= losses[1] + 1e-9 <= losses[2] + 2e-9


def test_snr_formula_cases():
    # perturbation power = signal power / 1000 -> exactly 30 dB
    x = np.ones((1, 1000))
    got = atk.snr_db(x, x + np.full((1, 1000), np.sqrt(1.0 / 1000.0)))[0]
    assert abs(got - 30.0) < 1e-9


def test_snr_clean_sentinel_and_constant_perturbation():
    x = np.ones((1, 100))
    assert np.isinf(atk.snr_db(x, x.copy())[0])
    # unit-power signal, xi = +/-0.002 everywhere: 10*log10(1/4e-6) ~ 53.98 dB
    got = atk.snr_db(x, x + 0.002)[0]
    assert abs(got - 10 * np.log10(1.0 / 4e-6)) < 1e-9
    assert abs(got - 53.9794) < 1e-3


def test_snr_of_a_silent_row_is_minus_inf_once_perturbed():
    x = np.zeros((3, 4))
    x[2] = 0.5
    x_adv = x.copy()
    x_adv[0] = 0.001
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = atk.snr_db(x, x_adv)
    assert got.tolist() == [-np.inf, np.inf, np.inf]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.001, 0.1), st.integers(1, 4))
def test_generate_ball_invariant_property(seed, eps, iterations):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(5, 3))
    x = np.clip(rng.normal(size=(2, 5)) * 0.3, -1, 1)
    y = rng.integers(0, 3, size=2)
    spec = atk.AttackSpec(ls.LossWeights(1, 0, 0), epsilon=eps, alpha=eps / 2,
                          iterations=iterations, random_init=bool(seed % 2))
    batch = atk.generate(linear_forward(w), x, y, spec, seed=seed)
    assert batch.linf <= eps + 1e-12
    assert np.abs(batch.x_adv).max() <= 1.0


def test_spec_with_epsilon_rescales_alpha():
    spec = atk.pgd_spec(0.002, iterations=10)
    wider = atk.spec_with(spec, epsilon=0.01)
    assert wider.epsilon == 0.01 and wider.alpha is None and wider.step == 0.002
    one_step = atk.spec_with(atk.fgsm_spec(0.002), epsilon=0.01)
    assert one_step.step == 0.01


def test_default_alpha_is_full_budget_for_one_step_else_a_fifth():
    assert atk.default_alpha(0.002, 1) == 0.002
    assert atk.default_alpha(0.002, 10) == 0.002 / 5
    assert atk.pgd_spec(0.002, iterations=1).step == 0.002
    assert atk.hybrid_spec(0.002).step == 0.002 / 5
    assert atk.cw_spec(0.002, alpha=0.001).step == 0.001


def test_explicit_zero_alpha_is_rejected_not_defaulted():
    with pytest.raises(ValueError, match="alpha"):
        atk.pgd_spec(0.002, alpha=0.0)

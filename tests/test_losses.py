"""Loss tests: hand-derived values, brute-force OT oracle, gradient checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advspeaker import autodiff as ad
from advspeaker import losses as ls
from gradcheck_cases import finite_diff_check
from sinkhorn_log_domain import sinkhorn_log_domain


def lp_uniform_bruteforce(cost: np.ndarray) -> float:
    """Exact OT value for uniform marginals: best permutation plan / n."""
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return float(best)


# --- cross-entropy -----------------------------------------------------------

def test_ce_uniform_logits():
    logits = np.zeros((3, 4))
    assert abs(float(ls.ce_loss(logits, [0, 1, 3]).data) - np.log(4)) < 1e-12


def test_ce_two_class_hand_value():
    loss = ls.ce_loss(np.array([[2.0, 0.0]]), [0])
    assert abs(float(loss.data) - np.log(1 + np.exp(-2.0))) < 1e-12


def test_ce_perfect_prediction_goes_to_zero():
    loss = ls.ce_loss(np.array([[100.0, 0.0, 0.0]]), [0])
    assert float(loss.data) < 1e-12


def test_ce_rejects_bad_labels():
    with pytest.raises(ValueError):
        ls.ce_loss(np.zeros((2, 3)), [0, 3])
    with pytest.raises(ValueError):
        ls.ce_loss(np.zeros((2, 3)), [-1, 0])


def test_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    labels = np.array([1, 0, 2])
    err = finite_diff_check(lambda z: ls.ce_loss(z, labels), rng.normal(size=(3, 4)))
    assert err < 1e-6


# --- margin ------------------------------------------------------------------

def test_margin_hand_values():
    assert float(ls.margin_loss(np.array([[5.0, 3.0]]), [0], margin=50).data) == -52.0
    assert float(ls.margin_loss(np.array([[-100.0, 3.0]]), [0], margin=50).data) == 0.0
    assert float(ls.margin_loss(np.array([[1.0, 1.0]]), [0], margin=0).data) == 0.0


def test_margin_sums_over_batch():
    logits = np.array([[5.0, 3.0], [4.0, 1.0]])
    assert float(ls.margin_loss(logits, [0, 0], margin=50).data) == -(52.0 + 53.0)


def test_margin_rejects_bad_input():
    with pytest.raises(ValueError):
        ls.margin_loss(np.zeros((2, 1)), [0, 0])
    with pytest.raises(ValueError):
        ls.margin_loss(np.zeros((2, 3)), [0, 5])


def test_margin_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    # spread logits so neither the hinge boundary nor argmax ties are near
    logits = rng.normal(size=(3, 5)) * 3.0
    labels = np.array([0, 2, 4])
    err = finite_diff_check(lambda z: ls.margin_loss(z, labels, margin=5.0), logits)
    assert err < 1e-6


# --- cosine cost -------------------------------------------------------------

def test_cost_diagonal_zero_for_identical_batches():
    rng = np.random.default_rng(2)
    f = rng.normal(size=(4, 6))
    cost = ls.cosine_cost_matrix(f, f).data
    assert np.allclose(np.diag(cost), 0.0, atol=1e-12)
    assert (cost >= -1e-12).all() and (cost <= 2 + 1e-12).all()


def test_cost_antipodal_and_orthogonal():
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = np.array([[-1.0, 0.0], [0.0, 1.0]])
    cost = ls.cosine_cost_matrix(f, g).data
    assert abs(cost[0, 0] - 2.0) < 1e-12   # antipodal
    assert abs(cost[0, 1] - 1.0) < 1e-12   # orthogonal
    assert abs(cost[1, 1] - 0.0) < 1e-12   # identical


def test_cost_rejects_zero_norm_row():
    with pytest.raises(ValueError):
        ls.cosine_cost_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(2))


# --- sinkhorn ----------------------------------------------------------------

def test_sinkhorn_constant_cost_distance_is_one():
    for n in (1, 2, 4):
        mu = np.full(n, 1.0 / n)
        plan = ls.sinkhorn_ot(ls.TransportProblem(mu, mu, np.ones((n, n)), 0.01))
        assert abs(plan.distance - 1.0) < 1e-9
    # any marginals: every feasible plan costs exactly 1
    mu = np.array([0.7, 0.2, 0.1])
    nu = np.array([0.1, 0.1, 0.8])
    plan = ls.sinkhorn_ot(ls.TransportProblem(mu, nu, np.ones((3, 3)), 0.01))
    assert abs(plan.distance - 1.0) < 1e-9


def test_sinkhorn_two_point_example():
    mu = np.array([0.5, 0.5])
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    result = ls.sinkhorn_ot(ls.TransportProblem(mu, mu, cost, 0.01))
    assert abs(result.distance - 0.0) < 0.02
    assert np.allclose(result.plan, np.diag([0.5, 0.5]), atol=0.02)


def test_sinkhorn_tracks_bruteforce_lp_on_random_problems():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        for _ in range(5):
            cost = rng.uniform(0.0, 2.0, size=(n, n))
            mu = np.full(n, 1.0 / n)
            result = ls.sinkhorn_ot(ls.TransportProblem(mu, mu, cost, 0.01), max_iters=2000)
            exact = lp_uniform_bruteforce(cost)
            assert result.distance >= exact - 1e-9
            assert abs(result.distance - exact) <= 0.02


def test_sinkhorn_marginals_exact_after_rounding():
    rng = np.random.default_rng(4)
    cost = rng.uniform(0.0, 2.0, size=(4, 4))
    mu = np.full(4, 0.25)
    result = ls.sinkhorn_ot(ls.TransportProblem(mu, mu, cost, 0.01))
    assert result.marginal_error < 1e-6
    assert (result.plan >= 0).all()
    assert np.allclose(result.plan.sum(axis=1), mu, atol=1e-12)
    assert np.allclose(result.plan.sum(axis=0), mu, atol=1e-12)


def test_sinkhorn_symmetric_under_transpose():
    rng = np.random.default_rng(5)
    cost = rng.uniform(0.0, 2.0, size=(3, 3))
    mu = np.array([0.5, 0.3, 0.2])
    nu = np.array([0.2, 0.3, 0.5])
    a = ls.sinkhorn_ot(ls.TransportProblem(mu, nu, cost, 0.01), max_iters=5000)
    b = ls.sinkhorn_ot(ls.TransportProblem(nu, mu, cost.T, 0.01), max_iters=5000)
    assert abs(a.distance - b.distance) < 1e-6


def test_sinkhorn_reports_non_convergence_without_raising():
    rng = np.random.default_rng(6)
    cost = rng.uniform(0.0, 2.0, size=(4, 4))
    mu = np.full(4, 0.25)
    result = ls.sinkhorn_ot(ls.TransportProblem(mu, mu, cost, 0.01),
                            max_iters=3, tolerance=1e-12)
    assert not result.converged
    assert result.iterations == 3
    assert result.marginal_error < 1e-6  # rounding still yields a feasible plan


def test_sinkhorn_gradient_wrt_cost_is_the_plan():
    rng = np.random.default_rng(7)
    cost = ad.Value(rng.uniform(0.0, 2.0, size=(3, 3)), requires_grad=True)
    mu = np.full(3, 1.0 / 3.0)
    result = ls.sinkhorn_ot(ls.TransportProblem(mu, mu, cost, 0.01))
    ad.backward(result.distance)
    assert np.allclose(cost.grad, result.plan)


def oracle_problems(count=60):
    """Seeded problems for the log-domain oracle: square and rectangular
    shapes in [2, 40], Dirichlet marginals with one zero weight on each
    side, uniform [0, 2] costs, both regularizations, and budgets that
    converge as well as budgets that run out."""
    rng = np.random.default_rng(20)
    for k in range(count):
        n, m = (int(x) for x in rng.integers(2, 41, size=2))
        if k % 2 == 0:
            m = n
        mu, nu = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        mu[rng.integers(n)] = 0.0
        nu[rng.integers(m)] = 0.0
        cost = rng.uniform(0.0, 2.0, size=(n, m))
        lam = (0.01, 2.0 / 700.0)[k % 3 == 0]
        max_iters = (5, 50, 1000, 5000)[k % 4]
        yield ls.TransportProblem(mu / mu.sum(), nu / nu.sum(), cost, lam), max_iters


def test_scaling_sinkhorn_matches_log_domain_oracle():
    outcomes = set()
    for problem, max_iters in oracle_problems():
        fast = ls.sinkhorn_ot(problem, max_iters)
        slow = sinkhorn_log_domain(problem, max_iters)
        assert (fast.iterations, fast.converged) == (slow.iterations, slow.converged)
        assert np.abs(fast.plan - slow.plan).max() < 1e-12
        assert abs(fast.distance - slow.distance) < 1e-12
        outcomes.add(fast.converged)
    assert outcomes == {True, False}


def sinkhorn_per_iteration(problem, max_iters, tolerance):
    """The scaling loop with the row and column errors tested after every
    iteration. Returns the stopping iteration, the unrounded plan and each
    iterate's row error."""
    mu, nu = problem.mu, problem.nu
    kernel = np.exp(-np.asarray(problem.cost) / problem.regularization)
    v = np.ones_like(nu)
    kv = kernel @ v
    row_errors = []
    for it in range(1, max_iters + 1):
        u = mu / kv
        ktu = u @ kernel
        v = nu / ktu
        kv = kernel @ v
        row_errors.append(np.abs(u * kv - mu).max())
        if max(row_errors[-1], np.abs(v * ktu - nu).max()) < tolerance:
            break
    return it, u[:, None] * kernel * v[None, :], row_errors


def _assert_sinkhorn_matches_per_iteration(problem, max_iters, tolerance):
    result = ls.sinkhorn_ot(problem, max_iters, tolerance)
    it, plan, row_errors = sinkhorn_per_iteration(problem, max_iters, tolerance)
    assert (result.iterations, result.converged) == (it, row_errors[-1] < tolerance)
    assert result.scaling_residual == row_errors[-1]
    rounded = ls._round_to_feasible(plan, problem.mu, problem.nu)
    assert result.plan.tobytes() == rounded.tobytes()
    assert result.distance == float((rounded * problem.cost).sum())
    return row_errors


def test_sinkhorn_stops_where_a_per_iteration_test_stops_when_the_error_rises():
    # skewed marginals make the row error fall below 0.006 at iteration 15,
    # then rise above it at 16, inside the block of iterations 11-20
    rng = np.random.default_rng(541)
    mu, nu = rng.uniform(0.01, 1.0, size=(2, 7)) ** 3
    problem = ls.TransportProblem(mu / mu.sum(), nu / nu.sum(),
                                  rng.uniform(0.0, 2.0, size=(7, 7)), 0.05)
    row_errors = _assert_sinkhorn_matches_per_iteration(problem, 300, 0.006)
    assert len(row_errors) == 15 and ls.SINKHORN_BLOCK == 10
    assert min(row_errors[:-1]) >= 0.006
    assert sinkhorn_per_iteration(problem, 16, 0.0)[2][-1] >= 0.006


@pytest.mark.parametrize("max_iters", [1, 9, 10, 11, 300])
def test_sinkhorn_matches_a_per_iteration_loop_at_every_budget(max_iters):
    rng = np.random.default_rng(max_iters)
    labels = rng.integers(0, 10, size=32)  # a desk batch: 32 utterances of 10 speakers
    centers = rng.normal(size=(10, 10))
    clean = centers[labels] + 0.1 * rng.normal(size=(32, 10))
    adv = centers[labels] + 0.3 * rng.normal(size=(32, 10))
    uniform = np.full(32, 1.0 / 32)
    cost = ls.cosine_cost_matrix(clean, adv).data
    for tolerance in (1e-6, 1e-3):
        _assert_sinkhorn_matches_per_iteration(
            ls.TransportProblem(uniform, uniform, cost, 0.01), max_iters, tolerance)


def test_kernel_range_rule():
    mu = np.array([0.5, 0.5])
    cost = np.array([[0.0, 7.0], [7.0, 0.0]])
    at_limit = ls.sinkhorn_ot(ls.TransportProblem(mu, mu, cost, 7.0 / ls.MAX_COST_RATIO))
    assert np.isfinite(at_limit.plan).all() and at_limit.converged
    with pytest.raises(ValueError, match="regularization"):
        ls.TransportProblem(mu, mu, cost, 0.0099)
    with pytest.raises(ValueError, match="regularization"):
        ls.TransportProblem(mu, mu, -cost, 0.0099)
    # cosine costs reach 2, so the smallest accepted setting stays in range
    assert 2.0 / ls.MIN_REGULARIZATION <= ls.MAX_COST_RATIO
    ls.SinkhornSettings(regularization=ls.MIN_REGULARIZATION)
    for lam in (0.001, 0.0, -1.0):
        with pytest.raises(ValueError, match="regularization"):
            ls.SinkhornSettings(regularization=lam)


@pytest.mark.parametrize("max_iters, tolerance", [(0, 1e-6), (-1, 1e-6), (10, 0.0),
                                                   (10, -1e-6)])
def test_sinkhorn_rejects_an_empty_budget(max_iters, tolerance):
    field = "max_iters" if max_iters < 1 else "tolerance"
    mu = np.full(3, 1.0 / 3.0)
    problem = ls.TransportProblem(mu, mu, np.ones((3, 3)), 0.01)
    with pytest.raises(ValueError, match=f"^{field}: "):
        ls.sinkhorn_ot(problem, max_iters, tolerance)
    with pytest.raises(ValueError, match=f"^{field}: "):
        ls.SinkhornSettings(max_iters=max_iters, tolerance=tolerance)


def test_transport_problem_validation():
    with pytest.raises(ValueError):
        ls.TransportProblem(np.array([0.6, 0.6]), np.array([0.5, 0.5]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ls.TransportProblem(np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.zeros((2, 2)), -1.0)
    with pytest.raises(ValueError):
        ls.TransportProblem(np.array([1.0]), np.array([0.5, 0.5]), np.zeros((2, 2)))


# --- feature scattering ------------------------------------------------------

def test_fs_loss_of_batch_against_itself_is_near_zero():
    rng = np.random.default_rng(8)
    f = rng.normal(size=(4, 6))
    loss = float(ls.fs_loss(f, f).data)
    assert 0.0 <= loss < 0.02


def test_fs_loss_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(5):
        f, g = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        assert float(ls.fs_loss(f, g).data) >= -1e-12


def test_fs_antipode_strictly_increases_loss():
    rng = np.random.default_rng(10)
    f = rng.normal(size=(3, 5))
    base = float(ls.fs_loss(f, f).data)
    flipped = f.copy()
    flipped[1] = -flipped[1]
    higher = float(ls.fs_loss(f, flipped).data)
    assert higher > base + 0.1
    # brute-force LP oracle agrees on the ordering
    base_lp = lp_uniform_bruteforce(ls.cosine_cost_matrix(f, f).data)
    flip_lp = lp_uniform_bruteforce(ls.cosine_cost_matrix(f, flipped).data)
    assert flip_lp > base_lp + 0.1


def test_fs_self_loss_minimal_among_row_permutations():
    rng = np.random.default_rng(11)
    f = rng.normal(size=(4, 5))
    self_loss = float(ls.fs_loss(f, f).data)
    for perm in itertools.permutations(range(4)):
        permuted = float(ls.fs_loss(f, f[list(perm)]).data)
        assert self_loss <= permuted + 1e-6


def test_fs_loss_warns_when_scaling_loop_exhausts_budget():
    rng = np.random.default_rng(16)
    f, g = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    tight = ls.SinkhornSettings(regularization=0.01, max_iters=2, tolerance=1e-12)
    with pytest.warns(ls.SinkhornConvergenceWarning):
        ls.fs_loss(f, g, tight)


def test_fs_gradient_flows_to_adversarial_logits():
    rng = np.random.default_rng(12)
    f_clean = ad.Value(rng.normal(size=(3, 5)))
    f_adv = ad.Value(rng.normal(size=(3, 5)), requires_grad=True)
    loss = ls.fs_loss(f_clean, f_adv)
    ad.backward(loss)
    assert f_adv.grad is not None and np.abs(f_adv.grad).max() > 0


# --- hybrid ------------------------------------------------------------------

def test_hybrid_weight_selection():
    rng = np.random.default_rng(13)
    logits_adv = rng.normal(size=(4, 5))
    logits_clean = rng.normal(size=(4, 5))
    labels = np.array([0, 1, 2, 3])
    ce_only = ls.hybrid_loss(ls.LossWeights(1, 0, 0), logits_adv, logits_clean, labels)
    assert float(ce_only.data) == float(ls.ce_loss(logits_adv, labels).data)
    m_only = ls.hybrid_loss(ls.LossWeights(0, 0, 1), logits_adv, logits_clean, labels, margin=7.0)
    assert float(m_only.data) == float(ls.margin_loss(logits_adv, labels, margin=7.0).data)
    fs_only = ls.hybrid_loss(ls.LossWeights(0, 1, 0), logits_adv, logits_clean, labels)
    assert float(fs_only.data) == float(ls.fs_loss(logits_clean, logits_adv).data)


def test_hybrid_equals_sum_of_components():
    rng = np.random.default_rng(14)
    logits_adv = rng.normal(size=(3, 4))
    logits_clean = rng.normal(size=(3, 4))
    labels = np.array([0, 1, 2])
    combined = float(ls.hybrid_loss(ls.LossWeights(1, 1, 1), logits_adv,
                                    logits_clean, labels, margin=5.0).data)
    separate = (float(ls.ce_loss(logits_adv, labels).data)
                + float(ls.fs_loss(logits_clean, logits_adv).data)
                + float(ls.margin_loss(logits_adv, labels, margin=5.0).data))
    assert abs(combined - separate) <= 1e-12


def test_hybrid_skips_clean_logits_when_gamma_zero():
    rng = np.random.default_rng(15)
    loss = ls.hybrid_loss(ls.LossWeights(1, 0, 1), rng.normal(size=(2, 3)), None, [0, 1])
    assert np.isfinite(float(loss.data))
    with pytest.raises(ValueError):
        ls.hybrid_loss(ls.LossWeights(1, 1, 1), rng.normal(size=(2, 3)), None, [0, 1])


def test_all_zero_weights_rejected():
    with pytest.raises(ValueError):
        ls.hybrid_loss(ls.LossWeights(0, 0, 0), np.zeros((2, 3)), None, [0, 1])


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        ls.LossWeights(-1, 0, 0)
    with pytest.raises(ValueError):
        ls.LossWeights(np.inf, 1, 1)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_losses_invariant_to_consistent_batch_permutation(seed):
    rng = np.random.default_rng(seed)
    n = 4
    logits_adv = rng.normal(size=(n, 5))
    logits_clean = rng.normal(size=(n, 5))
    labels = rng.integers(0, 5, size=n)
    perm = rng.permutation(n)
    for weights in (ls.LossWeights(1, 0, 0), ls.LossWeights(0, 1, 0), ls.LossWeights(0, 0, 1)):
        before = float(ls.hybrid_loss(weights, logits_adv, logits_clean, labels, margin=3.0).data)
        after = float(ls.hybrid_loss(weights, logits_adv[perm], logits_clean[perm],
                                     labels[perm], margin=3.0).data)
        assert abs(before - after) < 1e-9

"""Attack objectives: cross-entropy, margin (CW), and the optimal-transport
feature-scattering distance, plus their weighted hybrid combination.

All three losses operate in logit space. The feature-scattering term treats
the clean and adversarial logit batches as two uniform discrete
distributions and measures the entropic-regularized OT distance between
them under a pairwise cosine cost, solved by Sinkhorn in matrix-scaling
form. The converged transport plan is treated as a constant, so the
gradient of the distance with respect to the cost matrix is the plan
itself.

The scaling form works on the kernel exp(-cost / regularization), which
stays finite and nonzero in float64 only while |cost| / regularization is
at most MAX_COST_RATIO; ``TransportProblem`` rejects anything beyond it.
Cosine costs lie in [0, 2], so ``SinkhornSettings`` accepts no
regularization below MIN_REGULARIZATION.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .util import check


# exp(-745) underflows to 0 in float64; 700 leaves the kernel normal
MAX_COST_RATIO = 700.0
# cosine costs reach 2, and 2 / 0.003 ≈ 667 stays under MAX_COST_RATIO
MIN_REGULARIZATION = 0.003
# Sinkhorn iterates scaled between two stopping tests; the test of a block
# picks its first passing iterate, so the block size changes no result
SINKHORN_BLOCK = 10


class SinkhornConvergenceWarning(RuntimeWarning):
    pass


def _budget_rules(max_iters: int, tolerance: float) -> list[tuple[bool, str]]:
    return [(max_iters < 1, "max_iters: must be >= 1"), (tolerance <= 0, "tolerance: must be > 0")]


@dataclass(frozen=True)
class LossWeights:
    """Coefficients for the hybrid objective: CE, feature-scattering, margin."""

    beta: float = 1.0
    gamma: float = 1.0
    zeta: float = 1.0

    def __post_init__(self):
        check([(not np.isfinite(v) or v < 0, f"{name}: must be finite and >= 0")
               for name, v in zip(("beta", "gamma", "zeta"), self.as_tuple())])

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.beta, self.gamma, self.zeta)


@dataclass(frozen=True)
class SinkhornSettings:
    regularization: float = 0.01
    max_iters: int = 1000
    tolerance: float = 1e-6

    def __post_init__(self):
        check([(self.regularization < MIN_REGULARIZATION,
                f"regularization: must be >= {MIN_REGULARIZATION}"),
               *_budget_rules(self.max_iters, self.tolerance)])


@dataclass
class TransportProblem:
    mu: np.ndarray
    nu: np.ndarray
    cost: Value | np.ndarray
    regularization: float = 0.01

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.nu = np.asarray(self.nu, dtype=np.float64)
        cost_data = self.cost.data if isinstance(self.cost, Value) else np.asarray(self.cost)
        n, m = cost_data.shape
        if self.mu.shape != (n,) or self.nu.shape != (m,):
            raise ValueError(f"marginals {self.mu.shape}/{self.nu.shape} do not match cost {cost_data.shape}")
        for name, w in (("mu", self.mu), ("nu", self.nu)):
            if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
                raise ValueError(f"{name} must be nonnegative and sum to 1")
        if self.regularization <= 0:
            raise ValueError("regularization must be > 0")
        if np.abs(cost_data).max() / self.regularization > MAX_COST_RATIO:
            raise ValueError(f"max |cost| / regularization must be <= {MAX_COST_RATIO:g}, "
                             f"or the Sinkhorn kernel underflows")


@dataclass
class TransportPlan:
    plan: np.ndarray
    distance: Value | float
    converged: bool
    iterations: int
    marginal_error: float       # marginal error of the final (rounded) plan
    # row-marginal error when the scaling loop stopped; the columns then fit
    # to within rounding, so it differs from the larger of both errors only
    # once the row error is itself at rounding level
    scaling_residual: float = 0.0


def ce_loss(logits, labels) -> Value:
    """Mean negative log softmax probability of the true class."""
    logits = ad.as_value(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    log_probs = logits - ad.logsumexp(logits, axis=1, keepdims=True)
    return -ad.gather_rows(log_probs, labels).mean()


def margin_loss(logits, labels, margin: float = 50.0) -> Value:
    """Sum over the batch of -[f_true - max_other + margin]_+ (CW objective)."""
    logits = ad.as_value(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if k < 2:
        raise ValueError("margin loss needs at least 2 classes")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    true_logit = ad.gather_rows(logits, labels)
    # push the true class far down so the max runs over j != true only
    masked = logits - Value(ad.one_hot(labels, k) * 1e30)
    best_other = ad.reduce_max(masked, axis=1)
    return -ad.relu(true_logit - best_other + float(margin)).sum()


def cosine_cost_matrix(f_clean, f_adv) -> Value:
    """C[i, j] = 1 - cos(f_clean[i], f_adv[j]); values in [0, 2]."""
    f_clean, f_adv = ad.as_value(f_clean), ad.as_value(f_adv)
    if f_clean.ndim != 2 or f_adv.ndim != 2 or f_clean.shape[1] != f_adv.shape[1]:
        raise ad.ShapeError("cosine_cost_matrix",
                            f"need (n,k) and (m,k), got {f_clean.shape}, {f_adv.shape}")
    for name, f in (("f_clean", f_clean), ("f_adv", f_adv)):
        norms = np.sqrt((f.data ** 2).sum(axis=1))
        if (norms < 1e-12).any():
            raise ValueError(f"{name} has a zero-norm row (cosine cost undefined)")
    a = f_clean / ad.l2_norm(f_clean, axis=1, keepdims=True)
    b = f_adv / ad.l2_norm(f_adv, axis=1, keepdims=True)
    return 1.0 - ad.matmul(a, ad.permute(b, (1, 0)))


def _round_to_feasible(plan: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Project an almost-feasible plan onto exact marginals.

    Scale rows then columns down where they overshoot, then spread the
    remaining mass as a rank-one correction. The total plan mass moved is
    on the order of the incoming marginal error, so the transport cost
    changes by at most that times max|cost|.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        row = plan.sum(axis=1)
        plan = plan * np.minimum(np.where(row > 0, mu / row, 1.0), 1.0)[:, None]
        col = plan.sum(axis=0)
        plan = plan * np.minimum(np.where(col > 0, nu / col, 1.0), 1.0)[None, :]
    missing_row = np.maximum(mu - plan.sum(axis=1), 0.0)
    missing_col = np.maximum(nu - plan.sum(axis=0), 0.0)
    total = missing_row.sum()
    if total > 0:
        plan = plan + np.outer(missing_row, missing_col) / total
    return plan


def sinkhorn_ot(problem: TransportProblem, max_iters: int = 1000,
                tolerance: float = 1e-6) -> TransportPlan:
    """Entropic-regularized OT via Sinkhorn's alternating matrix scaling.

    The plan is diag(u) K diag(v) with kernel K = exp(-cost / lambda); each
    iteration rescales u to fit the row marginals, then v to fit the column
    marginals, starting from v = 1. These are the iterates of the
    log-domain form with u = exp(f / lambda) and v = exp(g / lambda); the
    kernel stays finite by the range rule ``TransportProblem`` enforces.
    The loop stops at the first iterate whose row-marginal error is below
    ``tolerance``, or when the budget is spent; the plan is then rounded
    onto exact marginals. Right after the v update the columns fit to within
    rounding, so only the rows are tested. Iterates are scaled in blocks of
    SINKHORN_BLOCK and a block's row errors are tested together; the first
    passing one is the iterate a test after every iteration stops at, even
    where the error is not monotone.
    The returned plan is a plain array; when the cost is a Value the
    distance is the differentiable <plan, cost> with the plan held
    constant. A loop that did not reach tolerance is reported via
    ``converged=False``, never as an exception.
    """
    check(_budget_rules(max_iters, tolerance))
    cost_value = problem.cost if isinstance(problem.cost, Value) else None
    cost = problem.cost.data if cost_value is not None else np.asarray(problem.cost, dtype=np.float64)
    mu, nu = problem.mu, problem.nu
    kernel = np.exp(-cost / problem.regularization)
    us = np.empty((SINKHORN_BLOCK, mu.size))
    kvs = np.empty_like(us)
    vs = np.empty((SINKHORN_BLOCK, nu.size))
    ktu = np.empty_like(nu)
    kv = kernel @ np.ones_like(nu)
    for start in range(0, max_iters, SINKHORN_BLOCK):
        size = min(SINKHORN_BLOCK, max_iters - start)
        # ndarray.dot into a positional output runs the same BLAS gemv as @,
        # for a third of the call overhead
        for i in range(size):
            u = np.divide(mu, kv, us[i])
            v = np.divide(nu, u.dot(kernel, ktu), vs[i])
            kv = kernel.dot(v, kvs[i])
        # row sums of diag(u) K diag(v) are u * kv: every iterate's row error in one pass
        errs = np.abs(us[:size] * kvs[:size] - mu).max(axis=1)
        passed = np.flatnonzero(errs < tolerance)
        if passed.size:
            break
    last = int(passed[0]) if passed.size else size - 1
    u, v, err = us[last], vs[last], errs[last]
    converged = bool(err < tolerance)
    plan = _round_to_feasible(u[:, None] * kernel * v[None, :], mu, nu)
    final_err = max(np.abs(plan.sum(axis=1) - mu).max(),
                    np.abs(plan.sum(axis=0) - nu).max())
    if cost_value is not None:
        distance = (Value(plan) * cost_value).sum()
    else:
        distance = float((plan * cost).sum())
    return TransportPlan(plan=plan, distance=distance, converged=converged,
                         iterations=start + last + 1, marginal_error=float(final_err),
                         scaling_residual=float(err))


def fs_loss(f_clean, f_adv, settings: SinkhornSettings = SinkhornSettings()) -> Value:
    """OT distance between clean and adversarial logit batches, uniform marginals."""
    f_clean, f_adv = ad.as_value(f_clean), ad.as_value(f_adv)
    n = f_clean.shape[0]
    if f_adv.shape[0] != n:
        raise ad.ShapeError("fs_loss", f"batch sizes differ: {f_clean.shape} vs {f_adv.shape}")
    cost = cosine_cost_matrix(f_clean, f_adv)
    uniform = np.full(n, 1.0 / n)
    problem = TransportProblem(uniform, uniform, cost, settings.regularization)
    result = sinkhorn_ot(problem, settings.max_iters, settings.tolerance)
    if not result.converged:
        # static message so the default warning filter collapses repeats
        warnings.warn(
            "sinkhorn scaling exhausted its iteration budget before reaching "
            "tolerance; the plan was rounded to exact marginals",
            SinkhornConvergenceWarning, stacklevel=2)
    return result.distance


def hybrid_loss(weights: LossWeights, logits_adv, logits_clean, labels,
                margin: float = 50.0,
                sinkhorn: SinkhornSettings = SinkhornSettings()) -> Value:
    """beta*CE + gamma*FS + zeta*margin, skipping zero-weight terms entirely."""
    terms = []
    if weights.beta != 0.0:
        terms.append(weights.beta * ce_loss(logits_adv, labels))
    if weights.gamma != 0.0:
        if logits_clean is None:
            raise ValueError("feature-scattering term requires clean logits")
        terms.append(weights.gamma * fs_loss(logits_clean, logits_adv, sinkhorn))
    if weights.zeta != 0.0:
        terms.append(weights.zeta * margin_loss(logits_adv, labels, margin))
    if not terms:
        raise ValueError("all loss weights are zero")
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total

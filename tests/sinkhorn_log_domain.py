"""Sinkhorn in log-domain form, as ``losses.sinkhorn_ot`` ran it before it
moved to matrix scaling.

It is kept as a test oracle: the scaling form runs the same iterates
(u = exp(f / lambda), v = exp(g / lambda)), so both must stop at the same
iteration with the same plan up to rounding.
"""

import numpy as np

from advspeaker.autodiff import Value
from advspeaker.losses import TransportPlan, TransportProblem, _round_to_feasible


def sinkhorn_log_domain(problem: TransportProblem, max_iters: int = 1000,
                        tolerance: float = 1e-6) -> TransportPlan:
    cost_value = problem.cost if isinstance(problem.cost, Value) else None
    cost = problem.cost.data if cost_value is not None else np.asarray(problem.cost, dtype=np.float64)
    lam = problem.regularization
    with np.errstate(divide="ignore"):  # zero marginal weights are legal
        log_mu = np.log(problem.mu)
        log_nu = np.log(problem.nu)
    f = np.zeros_like(problem.mu)
    g = np.zeros_like(problem.nu)

    def lse(m, axis):
        peak = m.max(axis=axis, keepdims=True)
        return (peak + np.log(np.exp(m - peak).sum(axis=axis, keepdims=True))).squeeze(axis)

    err = np.inf
    it = 0
    plan = np.outer(problem.mu, problem.nu)
    for it in range(1, max_iters + 1):
        f = lam * (log_mu - lse((g[None, :] - cost) / lam, axis=1))
        g = lam * (log_nu - lse((f[:, None] - cost) / lam, axis=0))
        plan = np.exp((f[:, None] + g[None, :] - cost) / lam)
        err = max(np.abs(plan.sum(axis=1) - problem.mu).max(),
                  np.abs(plan.sum(axis=0) - problem.nu).max())
        if err < tolerance:
            break
    converged = bool(err < tolerance)
    plan = _round_to_feasible(plan, problem.mu, problem.nu)
    final_err = max(np.abs(plan.sum(axis=1) - problem.mu).max(),
                    np.abs(plan.sum(axis=0) - problem.nu).max())
    if cost_value is not None:
        distance = (Value(plan) * cost_value).sum()
    else:
        distance = float((plan * cost).sum())
    return TransportPlan(plan=plan, distance=distance, converged=converged,
                         iterations=it, marginal_error=float(final_err),
                         scaling_residual=float(err))

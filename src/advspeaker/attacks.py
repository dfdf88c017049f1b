"""Adversarial waveform generation: iterated sign-gradient ascent with
l-infinity projection.

One parameterization covers the whole attack family. FGSM is a single
full-budget step on the CE loss with no random start; PGD/CW/FS/hybrid are
multi-step variants distinguished only by their loss weights. The iterate
is projected back onto the epsilon-ball and the valid waveform range
[-1, 1] after every step, never just at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Value
from .losses import LossWeights, SinkhornSettings, hybrid_loss

WAVE_MIN, WAVE_MAX = -1.0, 1.0

# ForwardFn(x_value, mode) -> logits Value; mode is "train"/"attack"/"eval"
ForwardFn = Callable[[Value, str], Value]


@dataclass(frozen=True)
class AttackSpec:
    """Loss weights plus budget; determines every attack in the family."""

    weights: LossWeights
    epsilon: float
    alpha: float
    iterations: int
    random_init: bool
    margin: float = 50.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")

    def describe(self) -> str:
        b, g, z = self.weights.as_tuple()
        return (f"weights=({b:g},{g:g},{z:g}) eps={self.epsilon:g} "
                f"alpha={self.alpha:g} T={self.iterations} init={self.random_init}")


def default_alpha(epsilon: float, iterations: int) -> float:
    """Step size when none is given: the full budget for one step, else eps/5."""
    return epsilon if iterations == 1 else epsilon / 5


def _alpha_or_default(alpha: float | None, epsilon: float, iterations: int) -> float:
    return default_alpha(epsilon, iterations) if alpha is None else alpha


def fgsm_spec(epsilon: float) -> AttackSpec:
    """One full-budget CE step, deterministic start."""
    return AttackSpec(LossWeights(1, 0, 0), epsilon, alpha=default_alpha(epsilon, 1),
                      iterations=1, random_init=False)


def pgd_spec(epsilon: float, iterations: int = 10, alpha: float | None = None) -> AttackSpec:
    return AttackSpec(LossWeights(1, 0, 0), epsilon,
                      alpha=_alpha_or_default(alpha, epsilon, iterations),
                      iterations=iterations, random_init=True)


def cw_spec(epsilon: float, iterations: int = 10, margin: float = 50.0,
            alpha: float | None = None) -> AttackSpec:
    return AttackSpec(LossWeights(0, 0, 1), epsilon,
                      alpha=_alpha_or_default(alpha, epsilon, iterations),
                      iterations=iterations, random_init=True, margin=margin)


def fs_spec(epsilon: float, iterations: int = 10, alpha: float | None = None) -> AttackSpec:
    return AttackSpec(LossWeights(0, 1, 0), epsilon,
                      alpha=_alpha_or_default(alpha, epsilon, iterations),
                      iterations=iterations, random_init=True)


def hybrid_spec(epsilon: float, iterations: int = 10, margin: float = 50.0,
                weights: LossWeights = LossWeights(1, 1, 1),
                alpha: float | None = None) -> AttackSpec:
    return AttackSpec(weights, epsilon,
                      alpha=_alpha_or_default(alpha, epsilon, iterations),
                      iterations=iterations, random_init=True, margin=margin)


ATTACK_BUILDERS = {
    "fgsm": lambda eps, T=1, margin=50.0: fgsm_spec(eps),
    "pgd": lambda eps, T=10, margin=50.0: pgd_spec(eps, T),
    "cw": lambda eps, T=10, margin=50.0: cw_spec(eps, T, margin),
    "fs": lambda eps, T=10, margin=50.0: fs_spec(eps, T),
    "hybrid": lambda eps, T=10, margin=50.0: hybrid_spec(eps, T, margin),
}


@dataclass
class AdversarialBatch:
    x_adv: np.ndarray
    linf: float                # realized max-norm over the whole batch
    snr_db: np.ndarray         # per-sample; +inf means clean (zero perturbation)


def init_perturbation(x: np.ndarray, epsilon: float, random_init: bool,
                      rng: np.random.Generator) -> np.ndarray:
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if not random_init:
        return x.copy()
    noise = rng.uniform(-epsilon, epsilon, size=x.shape)
    return np.clip(x + noise, WAVE_MIN, WAVE_MAX)


def pgd_step(x_adv: np.ndarray, grad: np.ndarray, x: np.ndarray,
             alpha: float, epsilon: float) -> np.ndarray:
    """Ascend along sign(grad), project onto the ball, clamp to valid range."""
    if x_adv.shape != grad.shape or x_adv.shape != x.shape:
        raise ad.ShapeError("pgd_step", f"shapes {x_adv.shape}/{grad.shape}/{x.shape} differ")
    if not np.isfinite(grad).all():
        raise NonFiniteError("pgd_step: non-finite gradient")
    candidate = x_adv + alpha * np.sign(grad)
    candidate = np.clip(candidate, x - epsilon, x + epsilon)
    return np.clip(candidate, WAVE_MIN, WAVE_MAX)


def snr_db(x: np.ndarray, x_adv: np.ndarray) -> np.ndarray:
    """Per-sample 10*log10(signal power / perturbation power); +inf if clean."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_adv = np.atleast_2d(np.asarray(x_adv, dtype=np.float64))
    sig = (x ** 2).sum(axis=1)
    if (sig == 0).any():
        raise ValueError("snr_db: zero-power signal")
    noise = ((x_adv - x) ** 2).sum(axis=1)
    out = np.full(x.shape[0], np.inf)
    nz = noise > 0
    out[nz] = 10.0 * np.log10(sig[nz] / noise[nz])
    return out


def generate(forward: ForwardFn, x: np.ndarray, y: np.ndarray, spec: AttackSpec,
             *, mode: str = "eval", seed: int = 0,
             sinkhorn: SinkhornSettings = SinkhornSettings(),
             on_step: Callable[[int, np.ndarray], None] | None = None) -> AdversarialBatch:
    """Run the attack described by ``spec`` against ``forward``.

    ``forward`` maps (waveform Value, mode) to logits. At evaluation time
    pass mode="eval" (running batch-norm statistics, deterministic); inside
    the training loop pass mode="attack" (batch statistics, running stats
    untouched).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(seed)
    x_adv = init_perturbation(x, spec.epsilon, spec.random_init, rng)
    needs_clean = spec.weights.gamma != 0.0
    logits_clean = forward(Value(x), mode).detach() if needs_clean else None

    for t in range(1, spec.iterations + 1):
        xv = Value(x_adv, requires_grad=True)
        logits = forward(xv, mode)
        loss = hybrid_loss(spec.weights, logits, logits_clean, y,
                           margin=spec.margin, sinkhorn=sinkhorn)
        ad.backward(loss)
        x_adv = pgd_step(x_adv, xv.grad, x, spec.alpha, spec.epsilon)
        realized = np.abs(x_adv - x).max()
        if realized > spec.epsilon + 1e-12:
            raise AssertionError(f"ball invariant violated at step {t}: {realized} > {spec.epsilon}")
        if on_step is not None:
            on_step(t, x_adv)

    return AdversarialBatch(x_adv=x_adv, linf=float(np.abs(x_adv - x).max()),
                            snr_db=snr_db(x, x_adv))


def fgsm_direct(forward: ForwardFn, x: np.ndarray, y: np.ndarray, epsilon: float,
                *, mode: str = "eval") -> np.ndarray:
    """Independently coded one-step sign attack, used as a specialization oracle."""
    from .losses import ce_loss

    x = np.asarray(x, dtype=np.float64)
    xv = Value(x, requires_grad=True)
    loss = ce_loss(forward(xv, mode), y)
    ad.backward(loss)
    stepped = x + epsilon * np.sign(xv.grad)
    stepped = np.clip(stepped, x - epsilon, x + epsilon)
    return np.clip(stepped, WAVE_MIN, WAVE_MAX)


def model_forward_fn(params, param_values=None) -> ForwardFn:
    """Adapter binding ModelParams into the ForwardFn shape attacks expect."""
    from .model import forward_logits

    def fn(xv: Value, mode: str) -> Value:
        return forward_logits(params, xv, mode=mode, param_values=param_values)

    return fn


def spec_with_epsilon(spec: AttackSpec, epsilon: float, rescale_alpha: bool = True) -> AttackSpec:
    """Copy a spec at a different budget, with ``default_alpha`` unless told to keep alpha."""
    alpha = default_alpha(epsilon, spec.iterations) if rescale_alpha else spec.alpha
    return replace(spec, epsilon=epsilon, alpha=alpha)

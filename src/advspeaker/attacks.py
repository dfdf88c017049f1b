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
from functools import partial
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import model
from .autodiff import NonFiniteError, Value
from .losses import LossWeights, SinkhornSettings, hybrid_loss
from .util import check

WAVE_MIN, WAVE_MAX = -1.0, 1.0

# ForwardFn(x_value, mode) -> logits Value; mode is "train"/"attack"/"eval"
ForwardFn = Callable[[Value, str], Value]

REFERENCE_EPSILON = 0.002  # the paper's l-inf budget
DEFAULT_ITERATIONS = 10
DEFAULT_MARGIN = 50.0


@dataclass(frozen=True)
class AttackSpec:
    """Loss weights plus budget; determines every attack in the family.

    ``alpha`` is the stated step size; None leaves it to ``step``.
    """

    weights: LossWeights
    epsilon: float
    alpha: float | None
    iterations: int
    random_init: bool
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        check([(self.epsilon <= 0, "epsilon: must be > 0"),
               (self.iterations < 1, "iterations: must be >= 1"),
               (self.alpha is not None and self.alpha <= 0, "alpha: must be > 0")])

    @property
    def step(self) -> float:
        """The step size the attack takes: ``alpha``, or ``default_alpha`` if unstated."""
        return default_alpha(self.epsilon, self.iterations) if self.alpha is None else self.alpha


def default_alpha(epsilon: float, iterations: int) -> float:
    """Step size when none is given: the full budget for one step, else eps/5."""
    return epsilon if iterations == 1 else epsilon / 5


@dataclass(frozen=True)
class Attack:
    """A named attack: its loss weights, and whether it is one step.

    A one-step attack (FGSM) takes a single full-budget step from the clean
    input; every other attack takes T steps from a random start.
    """

    weights: LossWeights
    one_step: bool = False

    def on(self, base: AttackSpec) -> AttackSpec:
        """This attack at ``base``'s budget: its weights, and if one step, its step rule."""
        if not self.one_step:
            return replace(base, weights=self.weights)
        return replace(base, weights=self.weights, iterations=1, alpha=None,
                       random_init=False)


# The attack-name -> spec table: the one place each named attack is defined.
ATTACKS = {
    "fgsm": Attack(LossWeights(1, 0, 0), one_step=True),
    "pgd": Attack(LossWeights(1, 0, 0)),
    "cw": Attack(LossWeights(0, 0, 1)),
    "fs": Attack(LossWeights(0, 1, 0)),
    "hybrid": Attack(LossWeights(1, 1, 1)),
}


def attack_spec(name: str, epsilon: float, iterations: int | None = None,
                margin: float = DEFAULT_MARGIN, alpha: float | None = None) -> AttackSpec:
    """The named attack at budget ``epsilon``; T defaults to DEFAULT_ITERATIONS."""
    attack = ATTACKS[name]
    return attack.on(AttackSpec(attack.weights, epsilon, alpha,
                                DEFAULT_ITERATIONS if iterations is None else iterations,
                                random_init=True, margin=margin))


fgsm_spec = partial(attack_spec, "fgsm")
pgd_spec = partial(attack_spec, "pgd")
cw_spec = partial(attack_spec, "cw")
fs_spec = partial(attack_spec, "fs")
hybrid_spec = partial(attack_spec, "hybrid")


def spec_with(spec: AttackSpec, *, epsilon: float | None = None,
              iterations: int | None = None) -> AttackSpec | None:
    """Copy a spec at another budget or step count, its alpha unstated.

    A zero budget is the clean evaluation and gives None.
    """
    if epsilon == 0:
        return None
    return replace(spec, epsilon=spec.epsilon if epsilon is None else epsilon,
                   iterations=spec.iterations if iterations is None else iterations,
                   alpha=None)


@dataclass
class AdversarialBatch:
    x_adv: np.ndarray
    linf: float                # realized max-norm over the whole batch
    snr_db: np.ndarray         # per-sample; +inf clean, -inf a perturbed silent row


def init_perturbation(x: np.ndarray, epsilon: float, random_init: bool,
                      rng: np.random.Generator) -> np.ndarray:
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if not random_init:
        return x.copy()
    noise = rng.uniform(-epsilon, epsilon, size=x.shape)
    return np.clip(x + noise, WAVE_MIN, WAVE_MAX)


def pgd_step(x_adv: np.ndarray, grad: np.ndarray, lo: np.ndarray, hi: np.ndarray,
             alpha: float) -> np.ndarray:
    """Ascend along sign(grad), then clip into [lo, hi]: the epsilon-ball
    around the clean input intersected with the valid waveform range."""
    if not x_adv.shape == grad.shape == lo.shape == hi.shape:
        raise ad.ShapeError("pgd_step", f"shapes {x_adv.shape}/{grad.shape}/{lo.shape}/"
                                        f"{hi.shape} differ")
    if not np.isfinite(grad).all():
        raise NonFiniteError("pgd_step: non-finite gradient")
    # np.clip(x_adv + alpha * np.sign(grad), lo, hi), without temporaries
    step = np.sign(grad)
    step *= alpha
    step += x_adv
    return np.clip(step, lo, hi, out=step)


def snr_db(x: np.ndarray, x_adv: np.ndarray) -> np.ndarray:
    """Per-sample 10*log10(signal power / perturbation power).

    A row left unperturbed reads +inf; a perturbed silent row reads -inf.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_adv = np.atleast_2d(np.asarray(x_adv, dtype=np.float64))
    sig = (x ** 2).sum(axis=1)
    noise = ((x_adv - x) ** 2).sum(axis=1)
    out = np.full(x.shape[0], np.inf)
    nz = noise > 0
    with np.errstate(divide="ignore"):
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
    if not (np.abs(x) <= WAVE_MAX).all():
        raise ValueError("generate: the clean batch must lie in the waveform range [-1, 1]")
    # one clip per step equals the ball clip then the range clip because x lies in range
    lo = np.maximum(x - spec.epsilon, WAVE_MIN)
    hi = np.minimum(x + spec.epsilon, WAVE_MAX)
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
        x_adv = pgd_step(x_adv, xv.grad, lo, hi, spec.step)
        realized = np.abs(x_adv - x).max()
        if realized > spec.epsilon + 1e-12:
            raise AssertionError(f"ball invariant violated at step {t}: {realized} > {spec.epsilon}")
        if on_step is not None:
            on_step(t, x_adv)

    return AdversarialBatch(x_adv=x_adv, linf=float(np.abs(x_adv - x).max()),
                            snr_db=snr_db(x, x_adv))


def model_forward_fn(params) -> ForwardFn:
    """Adapter binding ModelParams into the ForwardFn shape attacks expect.

    ``forward_logits`` is looked up on ``model`` at each call, so a wrapper
    set there (as the benchmark's tracer sets one) sees every attack forward.
    """

    def fn(xv: Value, mode: str) -> Value:
        return model.forward_logits(params, xv, mode=mode)

    return fn


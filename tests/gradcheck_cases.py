"""Shared per-primitive gradient-check battery (used by the unit suite
and the acceptance gate): the central-difference oracle, the engine's
primitives it must cover, and one case per primitive."""

import numpy as np

from advspeaker import autodiff as ad
from advspeaker.autodiff import NonFiniteError, Value
from advspeaker.frontend import FrontendConfig, FrontendOps, log_mel
from log_mel_chain import clamp, frame_signal, log, reshape

# The differentiable primitives ``advspeaker.autodiff`` provides; each has
# an adjoint rule and needs a case below.
OPSET = (
    "add", "sub", "neg", "mul", "div", "pow", "matmul",
    "conv1d", "maxpool1d", "relu", "batchnorm",
    "logsumexp",
    "sum", "mean", "amax",
    "gather_rows", "permute",
    "l2_norm", "affine",
)


def finite_diff_check(loss_fn, point: np.ndarray, step: float = 1e-5,
                      floor: float = 1e-6) -> float:
    """Max relative gap between analytic and central-difference gradients.

    Per coordinate: |analytic - fd| / (|fd| + floor), fd the central
    difference with the given step. Raises NonFiniteError if any
    evaluation is non-finite.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    point = np.asarray(point, dtype=np.float64)
    x = Value(point, requires_grad=True)
    loss = loss_fn(x)
    if loss.data.size != 1:
        raise ad.ShapeError("finite_diff_check", f"loss must be scalar, got {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NonFiniteError("loss is non-finite at the evaluation point")
    ad.backward(loss)
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(point)

    flat = point.reshape(-1)
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += step
        hi = float(loss_fn(Value(bumped.reshape(point.shape))).data)
        bumped[i] -= 2 * step
        lo = float(loss_fn(Value(bumped.reshape(point.shape))).data)
        fd[i] = (hi - lo) / (2 * step)
    if not np.isfinite(fd).all() or not np.isfinite(analytic).all():
        raise NonFiniteError("non-finite values in gradient evaluation")
    rel = np.abs(analytic.reshape(-1) - fd) / (np.abs(fd) + floor)
    return float(rel.max()) if rel.size else 0.0


def rng_for(seed):
    return np.random.default_rng(seed)


def _away_from_zero(a, margin=0.05):
    a = np.where(np.abs(a) < margin, a + np.sign(a + 0.5) * margin, a)
    return a


def _distinct(rng, shape, spacing=0.1):
    flat = (np.arange(np.prod(shape)) * spacing)[rng.permutation(int(np.prod(shape)))]
    return (flat + rng.normal(scale=0.01, size=flat.size)).reshape(shape)


PRIMITIVE_CASES = {}


def _register(name):
    def deco(fn):
        PRIMITIVE_CASES[name] = fn
        return fn
    return deco


@_register("add")
def _case_add(rng):
    other = ad.Value(rng.normal(size=(3, 4)))
    return lambda x: (ad.add(x, other) * 2.0).sum(), rng.normal(size=(3, 4))


@_register("sub")
def _case_sub(rng):
    other = ad.Value(rng.normal(size=(3, 4)))
    return lambda x: (ad.sub(other, x) ** 2.0).sum(), rng.normal(size=(3, 4))


@_register("neg")
def _case_neg(rng):
    return lambda x: (ad.neg(x) * 3.0).sum(), rng.normal(size=(5,))


@_register("mul")
def _case_mul(rng):
    other = ad.Value(rng.normal(size=(3, 4)))
    return lambda x: ad.mul(x, other).sum(), rng.normal(size=(3, 4))


@_register("div")
def _case_div(rng):
    other = ad.Value(_away_from_zero(rng.normal(size=(3, 4))))
    return lambda x: ad.div(x, other).sum(), rng.normal(size=(3, 4))


@_register("pow")
def _case_pow(rng):
    return lambda x: (x ** 3.0).sum(), _away_from_zero(rng.normal(size=(6,)))


@_register("matmul")
def _case_matmul(rng):
    other = ad.Value(rng.normal(size=(4, 2)))
    return lambda x: ad.matmul(x, other).sum(), rng.normal(size=(3, 4))


@_register("affine")
def _case_affine(rng):
    w = ad.Value(rng.normal(size=(4, 2)))
    b = ad.Value(rng.normal(size=(2,)))
    return lambda x: (ad.affine(x, w, b) ** 2.0).sum(), rng.normal(size=(3, 4))


@_register("conv1d")
def _case_conv1d(rng):
    w = ad.Value(rng.normal(size=(3, 2, 3)))
    return lambda x: (ad.conv1d(x, w) ** 2.0).sum(), rng.normal(size=(2, 2, 9))


@_register("maxpool1d")
def _case_maxpool1d(rng):
    return lambda x: (ad.maxpool1d(x, 2) * 2.0).sum(), _distinct(rng, (2, 3, 8))


@_register("relu")
def _case_relu(rng):
    return lambda x: ad.relu(x).sum(), _away_from_zero(rng.normal(size=(3, 4)))


@_register("batchnorm")
def _case_batchnorm(rng):
    gamma = ad.Value(rng.uniform(0.5, 1.5, size=3))
    beta = ad.Value(rng.normal(size=3))
    rm, rv = np.zeros(3), np.ones(3)
    # mix with random weights: sum(BN(x)**2) alone is nearly constant in x
    # (normalization symmetry) and makes the relative check degenerate
    w1 = ad.Value(rng.normal(size=(4, 3, 5)))
    w2 = ad.Value(rng.normal(size=(4, 3, 5)))

    def loss(x):
        bn = ad.batchnorm(x, gamma, beta, rm.copy(), rv.copy(), mode="train")
        return (bn * w1).sum() + ((bn * w2) ** 2.0).sum()

    return loss, rng.normal(size=(4, 3, 5))


@_register("logsumexp")
def _case_logsumexp(rng):
    return lambda x: ad.logsumexp(x, axis=1).sum(), rng.normal(size=(3, 5))


@_register("log")
def _case_log(rng):
    return lambda x: log(x).sum(), rng.uniform(0.5, 2.0, size=(3, 4))


@_register("sum")
def _case_sum(rng):
    return lambda x: (ad.reduce_sum(x, axis=1) ** 2.0).sum(), rng.normal(size=(3, 4))


@_register("mean")
def _case_mean(rng):
    return lambda x: (ad.reduce_mean(x, axis=0) ** 2.0).sum(), rng.normal(size=(3, 4))


@_register("amax")
def _case_amax(rng):
    return lambda x: (ad.reduce_max(x, axis=1) * 2.0).sum(), _distinct(rng, (3, 5))


@_register("clamp")
def _case_clamp(rng):
    pts = rng.normal(size=(3, 4))
    pts[np.abs(pts - 1.0) < 0.05] += 0.2
    pts[np.abs(pts + 1.0) < 0.05] -= 0.2
    return lambda x: (clamp(x, -1.0, 1.0) ** 2.0).sum(), pts


@_register("gather_rows")
def _case_gather_rows(rng):
    idx = rng.integers(0, 4, size=3)
    return lambda x: (ad.gather_rows(x, idx) ** 2.0).sum(), rng.normal(size=(3, 4))


@_register("frame_signal")
def _case_frame_signal(rng):
    return lambda x: (frame_signal(x, 4, 2) ** 2.0).sum(), rng.normal(size=(2, 12))


@_register("reshape")
def _case_reshape(rng):
    return lambda x: (reshape(x, (2, 6)) ** 2.0).sum(), rng.normal(size=(3, 4))


@_register("permute")
def _case_permute(rng):
    w = ad.Value(rng.normal(size=(4, 3)))
    return lambda x: ad.mul(ad.permute(x, (1, 0)), w).sum(), rng.normal(size=(3, 4))


@_register("l2_norm")
def _case_l2_norm(rng):
    return lambda x: ad.l2_norm(x, axis=1).sum(), _away_from_zero(rng.normal(size=(3, 4)))


# hop 4 does not divide window 9, fft_size 11 is odd and longer than the
# window; row 1 of the 2-D input is scaled down until every mel energy in
# it sits on the floor (its frames are not zero, so a missing floor mask
# would show), and a second term feeds the same samples as one 1-D signal.
# The floor is high (1e-2) because near-silent frames, where log curves
# sharply, would push central differences past the 1e-6 bound.
_LOG_MEL_OPS = FrontendOps(FrontendConfig(sample_rate=800, window_length=9, hop_length=4,
                                          fft_size=11, mel_bins=3, log_floor=1e-2))


@_register("log_mel")
def _case_log_mel(rng):
    row_scale = ad.Value([[1.0], [1e-3]])
    w2d = ad.Value(rng.normal(size=(2, 3, 4)))
    w1d = ad.Value(rng.normal(size=(1, 3, 10)))

    def loss(x):
        floored = (log_mel(x * row_scale, _LOG_MEL_OPS) * w2d).sum()
        return floored + (log_mel(reshape(x, (48,)), _LOG_MEL_OPS) * w1d).sum()

    return loss, rng.normal(size=(2, 24))

"""Reverse-mode automatic differentiation over numpy float64 arrays.

Graphs are define-by-run: constructing an expression evaluates it eagerly
and records, for each input, one ``(parent, vjp)`` edge whose ``vjp`` maps
the output gradient to that input's gradient. ``_node`` is the only place
that builds a node: it drops edges into constants and stores the rest on
the node, and ``backward`` accumulates them. A fresh graph is built on
every forward pass, which is exactly what iterative attack loops need.
Constant subgraphs (no ``requires_grad`` leaf below them) carry no tape and
cost nothing at backward time.

Graphs are acyclic: a node refers to its parents and their adjoints, never
to itself, so reference counting frees a graph's arrays as soon as its
last node is dropped, without waiting for the cyclic garbage collector.

Conventions baked in here:
  * everything is float64,
  * the ReLU subgradient at 0 is 0,
  * max / max-pool ties route the gradient to the lowest index,
  * ``backward`` only accepts scalar (size-1) losses.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

class ShapeError(ValueError):
    """Operand shapes are incompatible for an operation."""

    def __init__(self, op: str, message: str):
        super().__init__(f"{op}: {message}")
        self.op = op


class NonFiniteError(ArithmeticError):
    """A computation produced NaN/inf where finite values are required."""


class Value:
    """A node in the computation graph: an array plus an optional gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_edges", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._edges: tuple[tuple[Value, Callable[[np.ndarray], np.ndarray]], ...] = ()
        self._op = "leaf"

    @property
    def _parents(self) -> tuple["Value", ...]:
        return tuple(parent for parent, _ in self._edges)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def detach(self) -> "Value":
        return Value(self.data)

    def __repr__(self) -> str:
        return f"Value(op={self._op}, shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other): return add(self, other)
    def __radd__(self, other): return add(other, self)
    def __sub__(self, other): return sub(self, other)
    def __rsub__(self, other): return sub(other, self)
    def __mul__(self, other): return mul(self, other)
    def __rmul__(self, other): return mul(other, self)
    def __truediv__(self, other): return div(self, other)
    def __rtruediv__(self, other): return div(other, self)
    def __neg__(self): return neg(self)
    def __pow__(self, p): return power(self, p)
    def __matmul__(self, other): return matmul(self, other)

    def sum(self, axis=None, keepdims=False): return reduce_sum(self, axis, keepdims)
    def mean(self, axis=None, keepdims=False): return reduce_mean(self, axis, keepdims)


def as_value(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


def _node(data: np.ndarray, op: str,
          *edges: tuple[Value, Callable[[np.ndarray], np.ndarray]]) -> Value:
    """A graph node with one ``(parent, vjp)`` edge per input.

    ``vjp(g)`` maps the node's gradient ``g`` to that parent's gradient.
    Edges into parents that need no gradient are dropped here, so no adjoint
    is ever computed for a constant. The kept edges are stored on the node;
    at backward time each kept edge's adjoint is added to its parent's
    ``grad``, in edge order.
    """
    out = Value(data)
    out._op = op
    out._edges = tuple(edge for edge in edges if edge[0].requires_grad)
    out.requires_grad = bool(out._edges)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _unreduce(g: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    """Re-insert the axes a reduction dropped, so ``g`` broadcasts against its input."""
    return g if keepdims or axis is None else np.expand_dims(g, axis)


# ---------------------------------------------------------------------------
# elementwise arithmetic

# Broadcasting binary ops: the forward ufunc, then the adjoint of each
# operand as a function of (output gradient, a data, b data), taken before
# it is summed back down to the operand's shape.
_BROADCASTING = {
    "add": (np.add, lambda g, a, b: g, lambda g, a, b: g),
    "sub": (np.subtract, lambda g, a, b: g, lambda g, a, b: -g),
    "mul": (np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a),
    "div": (np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)),
}


def _broadcasting(op: str, a, b) -> Value:
    forward, grad_a, grad_b = _BROADCASTING[op]
    a, b = as_value(a), as_value(b)
    try:
        data = forward(a.data, b.data)
    except ValueError:
        raise ShapeError(op, f"cannot broadcast {a.shape} with {b.shape}") from None
    return _node(data, op,
                 (a, lambda g: _unbroadcast(grad_a(g, a.data, b.data), a.shape)),
                 (b, lambda g: _unbroadcast(grad_b(g, a.data, b.data), b.shape)))


def add(a, b) -> Value:
    return _broadcasting("add", a, b)


def sub(a, b) -> Value:
    return _broadcasting("sub", a, b)


def mul(a, b) -> Value:
    return _broadcasting("mul", a, b)


def div(a, b) -> Value:
    return _broadcasting("div", a, b)


def neg(a) -> Value:
    a = as_value(a)
    return _node(-a.data, "neg", (a, np.negative))


def power(a, p: float) -> Value:
    a = as_value(a)
    p = float(p)
    return _node(a.data ** p, "pow", (a, lambda g: g * p * a.data ** (p - 1.0)))


# ---------------------------------------------------------------------------
# linear algebra / structure

def matmul(a, b) -> Value:
    a, b = as_value(a), as_value(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", f"requires (m,k)@(k,n), got {a.shape} @ {b.shape}")
    return _node(a.data @ b.data, "matmul",
                 (a, lambda g: g @ b.data.T),
                 (b, lambda g: a.data.T @ g))


def affine(x, w, b) -> Value:
    """x @ w + b with b broadcast over rows."""
    return add(matmul(x, w), b)


def permute(a, axes: Sequence[int]) -> Value:
    a = as_value(a)
    axes = tuple(int(i) for i in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError("permute", f"axes {axes} invalid for ndim {a.ndim}")
    inverse = tuple(int(i) for i in np.argsort(axes))
    return _node(a.data.transpose(axes), "permute", (a, lambda g: g.transpose(inverse)))


def gather_rows(a, indices) -> Value:
    """out[i] = a[i, indices[i]] for a 2-D value."""
    a = as_value(a)
    idx = np.asarray(indices, dtype=np.int64)
    if a.ndim != 2 or idx.ndim != 1 or idx.shape[0] != a.shape[0]:
        raise ShapeError("gather_rows", f"need (n,k) value and (n,) indices, got {a.shape}, {idx.shape}")
    if idx.min(initial=0) < 0 or idx.max(initial=0) >= a.shape[1]:
        raise ShapeError("gather_rows", f"index out of range for {a.shape[1]} columns")
    rows = np.arange(a.shape[0])

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, idx), g)
        return full

    return _node(a.data[rows, idx], "gather_rows", (a, vjp))


def frames_view(x: np.ndarray, window_length: int, hop_length: int) -> np.ndarray:
    """Read-only strided view of (n, T) signals as frames (n, F, window_length)."""
    return np.lib.stride_tricks.sliding_window_view(x, window_length, axis=1)[:, ::hop_length]


def overlap_add(frames: np.ndarray, length: int, hop_length: int) -> np.ndarray:
    """Adjoint of ``frames_view``: sum (n, F, W) frames back onto (n, length) signals.

    The signals are held as rows of hop-sized blocks, padded to whole
    blocks. Window offsets [b*hop, (b+1)*hop) of frame f land on block
    f + b, so each of the ceil(W/hop) adds is one collision-free add into a
    plain view. Adding the offsets in increasing order sums every sample's
    terms in the same order as a per-offset loop would. (Rows that are not
    a whole number of blocks long made each add about twice as slow at
    (40, 8000), window 256, hop 128.)
    """
    n, n_frames, window_length = frames.shape
    spans = -(-window_length // hop_length)  # blocks one frame touches
    blocks = max(-(-length // hop_length), n_frames + spans - 1)
    out = np.zeros((n, blocks, hop_length))
    for b, start in enumerate(range(0, window_length, hop_length)):
        width = min(hop_length, window_length - start)
        out[:, b:b + n_frames, :width] += frames[:, :, start:start + width]
    return out.reshape(n, blocks * hop_length)[:, :length]


# ---------------------------------------------------------------------------
# nonlinearities and reductions

def relu(a) -> Value:
    a = as_value(a)
    mask = a.data > 0
    return _node(np.where(mask, a.data, 0.0), "relu", (a, lambda g: g * mask))


def reduce_sum(a, axis=None, keepdims: bool = False) -> Value:
    a = as_value(a)
    return _node(a.data.sum(axis=axis, keepdims=keepdims), "sum",
                 (a, lambda g: np.broadcast_to(_unreduce(g, axis, keepdims), a.shape)))


def reduce_mean(a, axis=None, keepdims: bool = False) -> Value:
    a = as_value(a)
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.data.shape[i] for i in axes]))
    return _node(a.data.mean(axis=axis, keepdims=keepdims), "mean",
                 (a, lambda g: np.broadcast_to(_unreduce(g, axis, keepdims), a.shape) / count))


def reduce_max(a, axis: int, keepdims: bool = False) -> Value:
    """Max along one axis; ties send the gradient to the lowest index."""
    a = as_value(a)
    idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)
    data = np.take_along_axis(a.data, idx, axis=axis)
    if not keepdims:
        data = np.squeeze(data, axis=axis)

    def vjp(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, idx, _unreduce(g, axis, keepdims), axis=axis)
        return full

    return _node(data, "amax", (a, vjp))


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Value:
    a = as_value(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    se = e.sum(axis=axis, keepdims=True)
    data = m + np.log(se)
    soft = e / se
    if not keepdims:
        data = np.squeeze(data, axis=axis)
    return _node(data, "logsumexp", (a, lambda g: soft * _unreduce(g, axis, keepdims)))


# ---------------------------------------------------------------------------
# neural-net primitives

def conv1d(x, w) -> Value:
    """Valid (no padding) stride-1 correlation: (n,Cin,L) * (Cout,Cin,K) -> (n,Cout,L-K+1)."""
    x, w = as_value(x), as_value(w)
    if x.ndim != 3 or w.ndim != 3 or x.shape[1] != w.shape[1]:
        raise ShapeError("conv1d", f"need (n,Cin,L) and (Cout,Cin,K), got {x.shape}, {w.shape}")
    k = w.shape[2]
    if x.shape[2] < k:
        raise ShapeError("conv1d", f"input length {x.shape[2]} < kernel {k}")
    windows = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=2)
    data = np.einsum("nclk,ock->nol", windows, w.data, optimize=True)

    def x_vjp(g):
        gw = np.lib.stride_tricks.sliding_window_view(
            np.pad(g, ((0, 0), (0, 0), (k - 1, k - 1))), k, axis=2)
        return np.einsum("nolk,ock->ncl", gw, w.data[:, :, ::-1], optimize=True)

    return _node(data, "conv1d",
                 (x, x_vjp),
                 (w, lambda g: np.einsum("nol,nclk->ock", g, windows, optimize=True)))


def maxpool1d(x, width: int) -> Value:
    """Non-overlapping max pooling over time; a trailing partial window is dropped."""
    x = as_value(x)
    if x.ndim != 3:
        raise ShapeError("maxpool1d", f"expected (n,C,L), got {x.shape}")
    n, c, length = x.shape
    pooled = length // width
    if pooled < 1:
        raise ShapeError("maxpool1d", f"input length {length} < pool width {width}")
    blocks = x.data[:, :, :pooled * width].reshape(n, c, pooled, width)
    idx = np.argmax(blocks, axis=3)
    data = np.take_along_axis(blocks, idx[..., None], axis=3)[..., 0]

    def vjp(g):
        g_blocks = np.zeros_like(blocks)
        np.put_along_axis(g_blocks, idx[..., None], g[..., None], axis=3)
        full = np.zeros_like(x.data)
        full[:, :, :pooled * width] = g_blocks.reshape(n, c, pooled * width)
        return full

    return _node(data, "maxpool1d", (x, vjp))


def batchnorm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
              mode: str = "train", momentum: float = 0.1, eps: float = 1e-5) -> Value:
    """Channel batch normalization for (n,C) or (n,C,L) inputs.

    mode "train": normalize with batch statistics and update the running
    arrays in place; "attack": batch statistics without touching running
    stats (attack generation inside the training loop); "eval": use the
    running statistics.
    """
    x, gamma, beta = as_value(x), as_value(gamma), as_value(beta)
    if x.ndim not in (2, 3):
        raise ShapeError("batchnorm", f"expected (n,C) or (n,C,L), got {x.shape}")
    if mode not in ("train", "attack", "eval"):
        raise ValueError(f"batchnorm: unknown mode {mode!r}")
    axes = (0,) if x.ndim == 2 else (0, 2)
    cshape = (1, -1) if x.ndim == 2 else (1, -1, 1)
    gam = gamma.data.reshape(cshape)
    bet = beta.data.reshape(cshape)

    if mode == "eval":
        rstd = 1.0 / np.sqrt(running_var.reshape(cshape) + eps)
        x_hat = (x.data - running_mean.reshape(cshape)) * rstd

        def x_vjp(g):
            return g * gam * rstd
    else:
        m = int(np.prod([x.shape[i] for i in axes]))
        mu = x.data.mean(axis=axes, keepdims=True)
        var = x.data.var(axis=axes, keepdims=True)
        rstd = 1.0 / np.sqrt(var + eps)
        x_hat = (x.data - mu) * rstd
        if mode == "train":
            running_mean *= 1.0 - momentum
            running_mean += momentum * mu.reshape(-1)
            running_var *= 1.0 - momentum
            running_var += momentum * var.reshape(-1)

        def x_vjp(g):
            g_sum = g.sum(axis=axes, keepdims=True)
            gx_sum = (g * x_hat).sum(axis=axes, keepdims=True)
            return gam * rstd * (g - g_sum / m - x_hat * gx_sum / m)

    return _node(gam * x_hat + bet, "batchnorm",
                 (x, x_vjp),
                 (gamma, lambda g: (g * x_hat).sum(axis=axes)),
                 (beta, lambda g: g.sum(axis=axes)))


# ---------------------------------------------------------------------------
# composed helpers (differentiable through their primitive parts)

def l2_norm(a, axis=None, keepdims: bool = False) -> Value:
    a = as_value(a)
    return power(reduce_sum(mul(a, a), axis=axis, keepdims=keepdims), 0.5)


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# backward pass

def _topo_order(root: Value) -> list[Value]:
    order: list[Value] = []
    visited: set[int] = set()
    stack: list[tuple[Value, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Value) -> None:
    """Populate ``grad`` on every requires_grad node reachable from ``loss``."""
    if loss.data.size != 1:
        raise ShapeError("backward", f"loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    for node in order:
        if node.grad is None:
            node.grad = np.zeros_like(node.data)
    loss.grad = loss.grad + np.ones_like(loss.data)
    for node in reversed(order):
        for parent, vjp in node._edges:
            parent.grad += vjp(node.grad)

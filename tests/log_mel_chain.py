"""The log-mel front end as a chain of autodiff primitives.

This is the composition that ``frontend.log_mel`` fuses into one node. It
is kept as a test oracle: the fused primitive must reproduce its values
and its waveform gradients bit for bit. The four primitives only the
chain uses, ``frame_signal``, ``clamp``, ``log`` and ``reshape``, live
here with it.
"""

import numpy as np

from advspeaker import autodiff as ad
from advspeaker.autodiff import Value
from advspeaker.frontend import FrontendOps


def frame_signal(x, window_length: int, hop_length: int) -> Value:
    """Slice (n, T) signals into overlapping frames (n, F, window_length)."""
    x = ad.as_value(x)
    if x.ndim != 2:
        raise ad.ShapeError("frame_signal", f"expected (n, T), got {x.shape}")
    if x.shape[1] < window_length:
        raise ad.ShapeError("frame_signal",
                            f"signal length {x.shape[1]} < window {window_length}")
    return ad._node(ad.frames_view(x.data, window_length, hop_length).copy(), "frame_signal",
                    (x, lambda g: ad.overlap_add(g, x.shape[1], hop_length)))


def clamp(a, lo: float | None = None, hi: float | None = None) -> Value:
    """Elementwise clip; the subgradient at a bound is 0."""
    a = ad.as_value(a)
    data = np.clip(a.data, lo, hi)
    mask = np.ones_like(a.data, dtype=bool)
    if lo is not None:
        mask &= a.data > lo
    if hi is not None:
        mask &= a.data < hi
    return ad._node(data, "clamp", (a, lambda g: g * mask))


def log(a) -> Value:
    """Elementwise natural log."""
    a = ad.as_value(a)
    return ad._node(np.log(a.data), "log", (a, lambda g: g / a.data))


def reshape(a, shape) -> Value:
    a = ad.as_value(a)
    shape = tuple(int(s) for s in shape)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ad.ShapeError("reshape", f"cannot reshape {a.shape} to {shape}") from None
    return ad._node(data, "reshape", (a, lambda g: g.reshape(a.shape)))


def log_mel_chain(waveform, ops: FrontendOps) -> Value:
    cfg = ops.config
    x = ad.as_value(waveform)
    if x.ndim == 1:
        x = reshape(x, (1, x.shape[0]))
    n = x.shape[0]
    frames = frame_signal(x, cfg.window_length, cfg.hop_length)
    n_frames = frames.shape[1]
    frames = frames * Value(ops.window)
    flat = reshape(frames, (n * n_frames, cfg.window_length))
    re = ad.matmul(flat, Value(ops.dft_cos))
    im = ad.matmul(flat, Value(ops.dft_sin))
    power = re * re + im * im
    mel = ad.matmul(power, Value(ops._fb_t))
    out = log(clamp(mel, lo=cfg.log_floor))
    out = reshape(out, (n, n_frames, cfg.mel_bins))
    return ad.permute(out, (0, 2, 1))

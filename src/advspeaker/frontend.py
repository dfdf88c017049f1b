"""Differentiable log-Mel spectrogram front-end.

The whole pipeline (framing, Hann window, DFT as an explicit matrix
multiply, triangular mel filterbank, floored log) is one fused primitive
with a hand-written adjoint, so gradients flow from the features back to
the raw waveform. That is what lets attacks operate directly in the time
domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .util import check


@dataclass(frozen=True)
class FrontendConfig:
    sample_rate: int = 16000
    window_length: int = 400
    hop_length: int = 160
    fft_size: int = 512
    mel_bins: int = 40
    log_floor: float = 1e-6

    def __post_init__(self):
        check([(self.sample_rate < 1, "sample_rate: must be >= 1"),
               (not 2 <= self.window_length <= self.fft_size,
                f"window_length: must be >= 2 and <= fft_size ({self.fft_size})"),
               (not 1 <= self.hop_length <= self.window_length,
                f"hop_length: must be >= 1 and <= window_length ({self.window_length})"),
               (self.mel_bins < 1, "mel_bins: must be >= 1"),
               (self.log_floor <= 0, "log_floor: must be > 0")])


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(config: FrontendConfig) -> tuple[np.ndarray, np.ndarray]:
    """Triangular unit-peak filters covering [0, sample_rate/2].

    Returns (weights of shape (mel_bins, fft_size//2 + 1), center
    frequencies in Hz).
    """
    n_bins = config.fft_size // 2 + 1
    freqs = np.arange(n_bins) * config.sample_rate / config.fft_size
    pts = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(config.sample_rate / 2.0),
                                config.mel_bins + 2))
    lower, center, upper = pts[:-2], pts[1:-1], pts[2:]
    up = (freqs[None, :] - lower[:, None]) / (center - lower)[:, None]
    down = (upper[:, None] - freqs[None, :]) / (upper - center)[:, None]
    weights = np.maximum(0.0, np.minimum(up, down))
    return weights, center


class _Workspace:
    """The arrays ``log_mel`` and its adjoint write through ``out=`` for one batch shape.

    ``re`` and ``im`` hold the spectrum of the call that ``stamp`` names.
    ``frames``, ``power``, ``spare`` and ``g_sin`` are scratch: no value in
    them outlives the forward or adjoint that wrote it.
    """

    def __init__(self, n: int, n_frames: int, config: FrontendConfig):
        rows, bins = n * n_frames, config.fft_size // 2 + 1
        self.key = (n, n_frames)
        self.stamp: object | None = None
        self.frames = np.empty((n, n_frames, config.window_length))
        self.g_sin = np.empty((rows, config.window_length))
        self.re, self.im, self.power, self.spare = (np.empty((rows, bins)) for _ in range(4))


class FrontendOps:
    """Precomputed constants (window, DFT matrices, filterbank) for one config.

    It also holds one ``_Workspace``, for the last batch shape ``log_mel``
    saw; a call of another shape replaces it.
    """

    _workspace: _Workspace | None = None

    def __init__(self, config: FrontendConfig):
        self.config = config
        w = config.window_length
        t = np.arange(w)
        self.window = 0.5 - 0.5 * np.cos(2.0 * np.pi * t / w)
        n_bins = config.fft_size // 2 + 1
        angle = 2.0 * np.pi * np.outer(t, np.arange(n_bins)) / config.fft_size
        self.dft_cos = np.cos(angle)
        self.dft_sin = -np.sin(angle)
        self._fb_t = mel_filterbank(config)[0].T.copy()

    def _workspace_for(self, n: int, n_frames: int) -> _Workspace:
        if self._workspace is None or self._workspace.key != (n, n_frames):
            self._workspace = None  # free the old shape's arrays before allocating
            self._workspace = _Workspace(n, n_frames, self.config)
        return self._workspace


def _spectrum(signal: np.ndarray, ops: FrontendOps, ws: _Workspace) -> None:
    """Frame, window and DFT (n, T) ``signal`` into ``ws.re`` and ``ws.im``."""
    cfg = ops.config
    np.multiply(ad.frames_view(signal, cfg.window_length, cfg.hop_length), ops.window,
                out=ws.frames)
    flat = ws.frames.reshape(-1, cfg.window_length)
    np.matmul(flat, ops.dft_cos, out=ws.re)
    np.matmul(flat, ops.dft_sin, out=ws.im)


def log_mel(waveform, ops: FrontendOps) -> Value:
    """(n, T) or (T,) waveforms -> (n, mel_bins, frames) floored log mel energies.

    One graph node with a hand-written adjoint. Forward and backward run
    the same array operations, in the same order, as the equivalent chain
    of autodiff primitives (frame, window, two DFT matmuls, power,
    filterbank, floor, log), so values and gradients match that chain bit
    for bit.

    The large intermediates live in ``ops``' workspace, not in the graph.
    Each call stamps the workspace; an adjoint run after another call
    overwrote it first recomputes its spectrum from the waveform, which
    gives the same bits, so any number of calls may share one graph.
    """
    cfg = ops.config
    x = ad.as_value(waveform)
    if x.ndim not in (1, 2):
        raise ad.ShapeError("log_mel", f"expected (n, T) waveform, got {x.shape}")
    signal = x.data.reshape(1, -1) if x.ndim == 1 else x.data
    n, t = signal.shape
    if t < cfg.window_length:
        raise ad.ShapeError("log_mel", f"signal length {t} < window {cfg.window_length}")
    n_frames = (t - cfg.window_length) // cfg.hop_length + 1
    ws = ops._workspace_for(n, n_frames)
    _spectrum(signal, ops, ws)
    stamp = ws.stamp = object()
    power = np.multiply(ws.re, ws.re, out=ws.power)
    power += np.multiply(ws.im, ws.im, out=ws.spare)
    mel = power @ ops._fb_t
    clamped = np.clip(mel, cfg.log_floor, None)
    keep = mel > cfg.log_floor
    data = np.log(clamped).reshape(n, n_frames, cfg.mel_bins).transpose(0, 2, 1)

    def vjp(g):
        ws = ops._workspace_for(n, n_frames)
        if ws.stamp is not stamp:
            _spectrum(signal, ops, ws)
            ws.stamp = stamp
        # the chain's zero-initialised accumulators only flip -0.0 to +0.0,
        # which the zero-initialised overlap-add does as well, so they are
        # left out; every other step repeats the chain's arithmetic
        g = g.transpose(0, 2, 1).reshape(n * n_frames, cfg.mel_bins)
        g_power = np.matmul((g / clamped) * keep, ops._fb_t.T, out=ws.power)
        # the chain doubles g*re and g*im; doubling g first is exact, so the
        # products match it bit for bit (outside the subnormal range)
        g_power += g_power
        g_re = np.multiply(g_power, ws.re, out=ws.spare)
        g_im = np.multiply(g_power, ws.im, out=g_power)
        g_frames = ws.frames.reshape(n * n_frames, cfg.window_length)
        np.matmul(g_re, ops.dft_cos.T, out=g_frames)
        g_frames += np.matmul(g_im, ops.dft_sin.T, out=ws.g_sin)
        g_frames *= ops.window
        g_frames = g_frames.reshape(n, n_frames, cfg.window_length)
        return ad.overlap_add(g_frames, t, cfg.hop_length).reshape(x.shape)

    return ad._node(data, "log_mel", (x, vjp))

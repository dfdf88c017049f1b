"""The log-mel front end as a chain of autodiff primitives.

This is the composition that ``frontend.log_mel`` fuses into one node. It
is kept as a test oracle: the fused primitive must reproduce its values
and its waveform gradients bit for bit.
"""

from advspeaker import autodiff as ad
from advspeaker.autodiff import Value
from advspeaker.frontend import FrontendOps


def log_mel_chain(waveform, ops: FrontendOps) -> Value:
    cfg = ops.config
    x = ad.as_value(waveform)
    if x.ndim == 1:
        x = ad.reshape(x, (1, x.shape[0]))
    n = x.shape[0]
    frames = ad.frame_signal(x, cfg.window_length, cfg.hop_length)
    n_frames = frames.shape[1]
    frames = frames * Value(ops.window)
    flat = ad.reshape(frames, (n * n_frames, cfg.window_length))
    re = ad.matmul(flat, Value(ops.dft_cos))
    im = ad.matmul(flat, Value(ops.dft_sin))
    power = re * re + im * im
    mel = ad.matmul(power, Value(ops._fb_t))
    out = ad.log(ad.clamp(mel, lo=cfg.log_floor))
    out = ad.reshape(out, (n, n_frames, cfg.mel_bins))
    return ad.permute(out, (0, 2, 1))

"""Negative control for ``evaluate.masking_checks``.

Kept as a test oracle: the masking checks must flag a model whose waveform
gradient is noise.
"""

import numpy as np

from advspeaker import autodiff as ad
from advspeaker.model import ModelParams, forward_logits


def scrambled_gradient_forward(params: ModelParams, scramble_seed: int = 0):
    """Forward values are the real model's, but the waveform adjoint is
    replaced with fresh seeded noise on every backward pass, which is the
    obfuscated-gradient signature: iterative attacks degenerate to a random
    walk while a one-step attack still lands on a random full-budget corner.
    """
    rng = np.random.default_rng((scramble_seed, 0xC0DE))

    def scramble(x: ad.Value) -> ad.Value:
        return ad._node(x.data.copy(), "scrambled_identity",
                        (x, lambda g: rng.normal(size=x.shape)))

    def fn(xv: ad.Value, mode: str) -> ad.Value:
        return forward_logits(params, scramble(xv), mode=mode)

    return fn

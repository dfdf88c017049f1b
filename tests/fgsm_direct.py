"""One-step sign attack, coded independently of ``attacks.generate``.

Kept as a test oracle: ``generate`` with the FGSM spec must reproduce it
bit for bit.
"""

import numpy as np

from advspeaker import autodiff as ad
from advspeaker.attacks import WAVE_MAX, WAVE_MIN
from advspeaker.autodiff import Value
from advspeaker.losses import ce_loss


def fgsm_direct(forward, x: np.ndarray, y: np.ndarray, epsilon: float,
                *, mode: str = "eval") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    xv = Value(x, requires_grad=True)
    loss = ce_loss(forward(xv, mode), y)
    ad.backward(loss)
    stepped = x + epsilon * np.sign(xv.grad)
    stepped = np.clip(stepped, x - epsilon, x + epsilon)
    return np.clip(stepped, WAVE_MIN, WAVE_MAX)

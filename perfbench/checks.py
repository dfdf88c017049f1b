"""Output checks shared by every workload.

Every adversarial batch must stay inside the epsilon-ball around its clean
batch and inside the waveform range [-1, 1], and every attack loss must be
finite. A batch that breaks one of these is a failed operation. Separately,
each unit of work folds its outputs into a digest that the runner compares
with ``references.json``; a mismatch is reported as a bit-exactness change,
not as a failure, because a legitimate numerical change alters it too.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from advspeaker import attacks, evaluate, training
from tracing import patched

REFERENCES = Path(__file__).with_name("references.json")


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def array_digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def load_references() -> dict:
    """{workload: {seed: [digest of unit 0, unit 1, ...]}}."""
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


@dataclass
class CheckedBatch:
    problems: list[str]   # empty when every check passed
    digest: str           # hash of x_adv


class OutputChecks:
    """Checks every adversarial batch the program generates while installed."""

    def __init__(self):
        self._batches: list[CheckedBatch] = []
        self._nonfinite_losses = 0
        self.problems: list[str] = []  # every problem seen in the run

    def check(self, x, x_adv, epsilon: float, finite_losses: bool) -> None:
        x, x_adv = np.asarray(x), np.asarray(x_adv)
        problems = []
        if not finite_losses:
            problems.append("non-finite attack loss")
        if x_adv.shape != x.shape:
            problems.append(f"x_adv shape {x_adv.shape} != x shape {x.shape}")
        elif not np.isfinite(x_adv).all():
            problems.append("non-finite x_adv")
        else:
            linf = float(np.abs(x_adv - x).max())
            if linf > epsilon + 1e-12:
                problems.append(f"outside the epsilon-ball: linf {linf:.6g} > {epsilon:g}")
            if x_adv.min() < -1.0 or x_adv.max() > 1.0:
                problems.append("outside the waveform range [-1, 1]")
        self.problems += problems
        self._batches.append(CheckedBatch(problems, array_digest(x_adv)))

    def take(self) -> list[CheckedBatch]:
        """Adversarial batches checked since the last call."""
        batches, self._batches = self._batches, []
        return batches

    def _checked_generate(self, generate):
        def checked(forward, x, y, spec, **kwargs):
            before = self._nonfinite_losses
            adv = generate(forward, x, y, spec, **kwargs)
            self.check(x, adv.x_adv, spec.epsilon, self._nonfinite_losses == before)
            return adv
        return checked

    def _checked_loss(self, hybrid_loss):
        def checked(*args, **kwargs):
            loss = hybrid_loss(*args, **kwargs)
            if not np.isfinite(loss.data).all():
                self._nonfinite_losses += 1
            return loss
        return checked

    @contextmanager
    def installed(self):
        targets = [(module, "generate", self._checked_generate(module.generate))
                   for module in (attacks, training, evaluate)]
        targets.append((attacks, "hybrid_loss", self._checked_loss(attacks.hybrid_loss)))
        with patched(targets):
            yield self

"""Span recorder for the traced benchmark run.

Tracing lives entirely in the benchmark: each public function it measures
is replaced, in every module that looks it up, by a wrapper that records a
span (name, start, end, parent). Spans stay in memory and are written out
when the run ends. A span's self time is its duration minus the time of its
child spans, which never overlap because the program is single-threaded.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

from advspeaker import attacks, autodiff, data, evaluate, losses, model, training

# (span name, modules that look the function up, attribute name). The
# program binds some names at import (training and evaluate bind
# forward_logits and generate, model binds log_mel), so a function is
# patched in each module that calls it, not only where it is defined.
TRACED = (
    ("frontend.log_mel", (model,), "log_mel"),
    ("autodiff.backward", (autodiff,), "backward"),
    ("model.forward_logits", (model, training, evaluate), "forward_logits"),
    ("model.build", (model,), "build"),
    ("model.save_checkpoint", (model,), "save_checkpoint"),
    ("model.load_checkpoint", (model,), "load_checkpoint"),
    ("losses.sinkhorn_ot", (losses,), "sinkhorn_ot"),
    ("losses.ce_loss", (losses, training), "ce_loss"),
    ("losses.margin_loss", (losses,), "margin_loss"),
    ("losses.fs_loss", (losses,), "fs_loss"),
    ("attacks.generate", (attacks, training, evaluate), "generate"),
    ("attacks.pgd_step", (attacks,), "pgd_step"),
    ("training.train_epoch", (training,), "train_epoch"),
    ("training.sgd_momentum_update", (training,), "sgd_momentum_update"),
    ("evaluate.accuracy_under_attack", (evaluate,), "accuracy_under_attack"),
    ("data.synth_corpus", (data,), "synth_corpus"),
)
# generators: a span covers each next() call, i.e. the time spent producing a batch
TRACED_ITERATORS = (
    ("data.batch_iter", (training, evaluate), "batch_iter"),
)


@contextmanager
def patched(targets):
    """Set module attributes for the duration of the block, then restore them."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, value in targets:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        # (iterations, converged, scaling residual) of every Sinkhorn solve
        self.sinkhorn: list[tuple[int, bool, float]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    def _count_sinkhorn(self, fn):
        """Record convergence from the TransportPlan each solve returns."""
        def solve(*args, **kwargs):
            plan = fn(*args, **kwargs)
            self.sinkhorn.append((plan.iterations, plan.converged, plan.scaling_residual))
            return plan
        return solve

    def wrap_iter(self, name, fn):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item
        return traced

    @contextmanager
    def installed(self):
        targets = []
        for table, wrapper in ((TRACED, self.wrap), (TRACED_ITERATORS, self.wrap_iter)):
            for name, modules, attr in table:
                for module in modules:
                    fn = getattr(module, attr)
                    if name == "losses.sinkhorn_ot":
                        fn = self._count_sinkhorn(fn)
                    targets.append((module, attr, wrapper(name, fn)))
        with patched(targets):
            yield self

    def mark(self) -> tuple[int, int]:
        """Current position: (span count, Sinkhorn solve count)."""
        return len(self.spans), len(self.sinkhorn)

    def totals(self, since: tuple[int, int], until: tuple[int, int]) -> dict[str, dict]:
        """Per span name between two marks: calls, busy seconds and self seconds."""
        first, last = since[0], until[0]
        child_time = [0.0] * (last - first)
        for name, start, end, parent in self.spans[first:last]:
            if parent >= first:
                child_time[parent - first] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), children in zip(self.spans[first:last], child_time):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - children
        return out

    def sinkhorn_stats(self, since: tuple[int, int], until: tuple[int, int]) -> dict[str, float]:
        solves = self.sinkhorn[since[1]:until[1]]
        if not solves:
            return {"iters_mean": 0.0, "converged_frac": 0.0, "residual_max": 0.0}
        return {
            "iters_mean": statistics.fmean(it for it, _, _ in solves),
            "converged_frac": sum(ok for _, ok, _ in solves) / len(solves),
            "residual_max": max(res for _, _, res in solves),
        }

    def write(self, path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": self.spans,
                                    "sinkhorn": self.sinkhorn}) + "\n")

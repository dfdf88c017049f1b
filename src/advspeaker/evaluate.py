"""Robustness evaluation: accuracy under white-box and transfer (black-box)
attacks, the report every table is written from, sweep curves, and the
gradient-masking sanity checks.

Every number a report carries is reproducible from (checkpoint, attack
spec, seed, split): evaluation attacks run against eval-mode models with
deterministic center crops and fixed batch order.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackSpec, ForwardFn, fgsm_spec, generate, model_forward_fn, pgd_spec
from .data import Corpus, batch_iter
from .losses import SinkhornSettings
from .model import ModelParams, forward_logits
from .util import fingerprint, to_json


@dataclass
class ReportEntry:
    name: str
    accuracy: float
    attack: dict | None
    source: str | None
    seed: int
    snr_mean_db: float | None = None
    snr_min_db: float | None = None

    def to_dict(self) -> dict:
        return dict(to_json(self), accuracy=round(self.accuracy, 2))


@dataclass
class RobustnessReport:
    target_name: str
    config_fingerprint: str
    corpus_fingerprint: str
    global_seed: int
    entries: list[ReportEntry] = field(default_factory=list)
    created_utc: str = field(default_factory=lambda: datetime.datetime.now(
        datetime.timezone.utc).isoformat())

    def _identity(self) -> dict:
        return {"target": self.target_name, "config_fingerprint": self.config_fingerprint,
                "corpus_fingerprint": self.corpus_fingerprint, "seed": self.global_seed}

    def content_hash(self) -> str:
        """Hash of everything except wall-clock metadata."""
        return fingerprint(dict(self._identity(), entries=[e.to_dict() for e in self.entries]))

    def to_jsonl(self) -> str:
        header = dict(self._identity(), record="header", created_utc=self.created_utc,
                      content_hash=self.content_hash())
        lines = [json.dumps(header, sort_keys=True)]
        lines += [json.dumps(dict(e.to_dict(), record="entry"), sort_keys=True)
                  for e in self.entries]
        return "\n".join(lines) + "\n"

    def render_table(self) -> str:
        width = max([len(e.name) for e in self.entries] + [8])
        lines = [f"target: {self.target_name}   seed: {self.global_seed}   "
                 f"config: {self.config_fingerprint}",
                 f"{'scenario'.ljust(width)}  accuracy(%)"]
        for e in self.entries:
            lines.append(f"{e.name.ljust(width)}  {e.accuracy:10.2f}")
        return "\n".join(lines) + "\n"


def attack_dict(spec: AttackSpec | None) -> dict | None:
    if spec is None:
        return None
    return dict(to_json(spec), weights=list(spec.weights.as_tuple()), alpha=spec.step)


def accuracy_under_attack(target: ModelParams, corpus: Corpus,
                          spec: AttackSpec | None, *,
                          attacker: ForwardFn | None = None,
                          batch_size: int = 64, segment_length: int | None = None,
                          seed: int = 0, split: str = "test",
                          sinkhorn: SinkhornSettings = SinkhornSettings()
                          ) -> tuple[float, np.ndarray]:
    """Percent accuracy on the split under the attack; returns (acc, per-sample SNR).

    Adversaries are crafted on ``attacker`` when given (a transfer source,
    or the gradient-masking negative control), otherwise on the target
    itself (white-box). ``spec=None`` means clean evaluation, which is also
    what a zero budget degenerates to.
    """
    attacked_forward = model_forward_fn(target) if attacker is None else attacker
    correct = total = 0
    snrs = []
    for x, y, adv in attack_batches(attacked_forward, corpus, spec, batch_size=batch_size,
                                    segment_length=segment_length, seed=seed, split=split,
                                    sinkhorn=sinkhorn):
        if adv is not None:
            x = adv.x_adv
            snrs.append(adv.snr_db)
        preds = np.argmax(forward_logits(target, x, mode="eval").data, axis=1)
        correct += int((preds == y).sum())
        total += len(y)
    snr = np.concatenate(snrs) if snrs else np.array([])
    return 100.0 * correct / total, snr


def attack_batches(forward, corpus: Corpus, spec: AttackSpec | None, *, batch_size: int,
                   segment_length: int | None, seed: int, split: str,
                   sinkhorn: SinkhornSettings):
    """Yield (x, y, adversarial batch or None) for each evaluation batch.

    Batches are deterministic center crops of ``segment_length`` samples
    (the shortest utterance when None) in fixed order; batch k is attacked
    on ``forward`` with seed (seed, k, 1). ``spec=None`` yields no attack.
    """
    segment = segment_length or min(u.samples.size for u in corpus.utterances)
    for batch_index, (x, y) in enumerate(batch_iter(
            corpus, batch_size, segment, seed=seed, epoch=0, split=split, train=False)):
        adv = None if spec is None else generate(
            forward, x, y, spec, mode="eval", seed=(seed, batch_index, 1), sinkhorn=sinkhorn)
        yield x, y, adv


def curve_csv(rows, attack_name: str, seed: int, *, header_note: str = "") -> str:
    """CSV with the columns x, accuracy, attack, seed."""
    lines = []
    if header_note:
        lines.append(f"# {header_note}")
    lines.append("x,accuracy,attack,seed")
    for x, acc in rows:
        lines.append(f"{x},{acc:.2f},{attack_name},{seed}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# gradient-masking sanity checks

@dataclass
class MaskingChecks:
    black_box_not_weaker: bool
    iterative_at_least_one_step: bool
    large_budget_breaks_model: bool
    evidence: dict

    def all_passed(self) -> bool:
        return (self.black_box_not_weaker and self.iterative_at_least_one_step
                and self.large_budget_breaks_model)


def masking_checks(target: ModelParams, sources: dict[str, ModelParams],
                   corpus: Corpus, *, epsilon: float = 0.002, iterations: int = 10,
                   large_epsilon: float = 0.1, tolerance_points: float = 2.0,
                   seed: int = 0, batch_size: int = 64,
                   segment_length: int | None = None, split: str = "test",
                   attacker: ForwardFn | None = None) -> MaskingChecks:
    """The three sanity checks for gradient masking, with supporting numbers.

    (a) transfer (black-box) accuracy is at least the white-box accuracy,
    (b) iterative PGD is at least as strong as one-step FGSM,
    (c) accuracy collapses (<= 5%) once the budget grows large.

    The white-box attacks are crafted on ``attacker`` when given, as in
    ``accuracy_under_attack``.
    """
    kwargs = dict(batch_size=batch_size, segment_length=segment_length, seed=seed,
                  split=split, attacker=attacker)
    pgd = pgd_spec(epsilon, iterations)
    white_pgd, _ = accuracy_under_attack(target, corpus, pgd, **kwargs)
    white_fgsm, _ = accuracy_under_attack(target, corpus, fgsm_spec(epsilon), **kwargs)
    transfers = {name: accuracy_under_attack(
                     target, corpus, pgd, **dict(kwargs, attacker=model_forward_fn(src)))[0]
                 for name, src in sources.items()}
    large_acc, _ = accuracy_under_attack(
        target, corpus, pgd_spec(large_epsilon, iterations), **kwargs)

    check_a = all(acc >= white_pgd - tolerance_points for acc in transfers.values())
    check_b = white_pgd <= white_fgsm + tolerance_points
    check_c = large_acc <= 5.0
    evidence = {
        "white_box_pgd": white_pgd, "white_box_fgsm": white_fgsm,
        "transfer_pgd": transfers, "large_epsilon": large_epsilon,
        "large_epsilon_accuracy": large_acc, "epsilon": epsilon,
        "iterations": iterations, "tolerance_points": tolerance_points,
    }
    return MaskingChecks(check_a, check_b, check_c, evidence)


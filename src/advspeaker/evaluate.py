"""Robustness evaluation: white-box accuracy, transfer (black-box) attacks,
budget and iteration sweeps, loss-combination ablations, and the
gradient-masking sanity checks.

Every number a report carries is reproducible from (checkpoint, attack
spec, seed, split): evaluation attacks run against eval-mode models with
deterministic center crops and fixed batch order.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .attacks import (AttackSpec, cw_spec, fgsm_spec, generate, model_forward_fn,
                      pgd_spec, spec_with)
from .data import Corpus, batch_iter
from .losses import LossWeights, SinkhornSettings
from .model import ModelParams, forward_logits
from .training import TrainConfig, fit
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
    return dict(to_json(spec), weights=list(spec.weights.as_tuple()))


def accuracy_under_attack(target: ModelParams, corpus: Corpus,
                          spec: AttackSpec | None, *,
                          source: ModelParams | None = None,
                          forward_override=None,
                          batch_size: int = 64, segment_length: int | None = None,
                          seed: int = 0, split: str = "test",
                          sinkhorn: SinkhornSettings = SinkhornSettings()
                          ) -> tuple[float, np.ndarray]:
    """Percent accuracy on the split under the attack; returns (acc, per-sample SNR).

    Adversaries are crafted on ``source`` when given (transfer setting),
    otherwise on the target itself (white-box). ``spec=None`` means clean
    evaluation, which is also what a zero budget degenerates to.
    ``forward_override`` substitutes the attacked forward function (used by
    the gradient-masking negative control).
    """
    if forward_override is not None:
        attacked_forward = forward_override
    else:
        attacked_forward = model_forward_fn(source if source is not None else target)
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


def clean_accuracy(target: ModelParams, corpus: Corpus, **kwargs) -> float:
    return accuracy_under_attack(target, corpus, None, **kwargs)[0]


def transfer_eval(source: ModelParams, target: ModelParams, corpus: Corpus,
                  spec: AttackSpec, **kwargs) -> float:
    """Black-box setting: adversaries from the source, accuracy on the target."""
    acc, _ = accuracy_under_attack(target, corpus, spec, source=source, **kwargs)
    return acc


def epsilon_sweep(target: ModelParams, corpus: Corpus, epsilons,
                  template: AttackSpec, **kwargs) -> list[tuple[float, float]]:
    """Accuracy per budget; each point runs ``spec_with(template, epsilon=eps)``."""
    return [(float(eps), accuracy_under_attack(
                target, corpus, spec_with(template, epsilon=float(eps)), **kwargs)[0])
            for eps in epsilons]


def iteration_sweep(target: ModelParams, corpus: Corpus, counts,
                    template: AttackSpec, **kwargs) -> list[tuple[int, float]]:
    """Accuracy per step count; each point runs ``spec_with(template, iterations=t)``."""
    return [(int(t), accuracy_under_attack(
                target, corpus, spec_with(template, iterations=int(t)), **kwargs)[0])
            for t in counts]


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
# ablation grid

ABLATION_SUBSETS = (
    ("CE",), ("FS",), ("M",), ("CE", "FS"), ("CE", "M"), ("FS", "M"), ("CE", "FS", "M"),
)


def weights_for_subset(subset) -> tuple[float, float, float]:
    return (1.0 if "CE" in subset else 0.0,
            1.0 if "FS" in subset else 0.0,
            1.0 if "M" in subset else 0.0)


@dataclass
class AblationRow:
    subset: str
    weights: tuple[float, float, float]
    pgd_accuracy: float
    cw_accuracy: float
    pgd_delta_vs_full: float
    cw_delta_vs_full: float
    records: list = field(default_factory=list)


def ablation_grid(corpus: Corpus, build_params, base_config: TrainConfig, *,
                  seed: int, eval_iterations: int = 10, batch_size: int = 64,
                  log_hook=None) -> list[AblationRow]:
    """Train one model per nonempty loss subset; evaluate under PGD and CW.

    ``build_params()`` must return freshly initialized ModelParams so every
    subset starts from the same weights. Deltas are reported against the
    full CE+FS+M recipe.
    """
    raw = {}
    for subset in ABLATION_SUBSETS:
        beta, gamma, zeta = weights_for_subset(subset)
        config = replace(base_config, defense="hat",
                         attack=replace(base_config.attack,
                                        weights=LossWeights(beta, gamma, zeta)))
        params = build_params()
        records = fit(params, corpus, config, seed=seed, log_hook=log_hook)
        pgd_acc, _ = accuracy_under_attack(
            params, corpus, pgd_spec(config.attack.epsilon, eval_iterations),
            batch_size=batch_size, segment_length=config.segment_length, seed=seed)
        cw_acc, _ = accuracy_under_attack(
            params, corpus, cw_spec(config.attack.epsilon, eval_iterations,
                                    config.attack.margin),
            batch_size=batch_size, segment_length=config.segment_length, seed=seed)
        raw["+".join(subset)] = ((beta, gamma, zeta), pgd_acc, cw_acc, records)

    full_pgd, full_cw = raw["CE+FS+M"][1], raw["CE+FS+M"][2]
    return [AblationRow(subset=key, weights=weights, pgd_accuracy=pgd_acc,
                        cw_accuracy=cw_acc, pgd_delta_vs_full=full_pgd - pgd_acc,
                        cw_delta_vs_full=full_cw - cw_acc, records=records)
            for key, (weights, pgd_acc, cw_acc, records) in
            ((k, raw[k]) for k in ("+".join(s) for s in ABLATION_SUBSETS))]


def ablation_csv(rows: list[AblationRow]) -> str:
    lines = ["subset,beta,gamma,zeta,pgd_accuracy,cw_accuracy,pgd_delta_vs_full,cw_delta_vs_full"]
    for r in rows:
        b, g, z = r.weights
        lines.append(f"{r.subset},{b:g},{g:g},{z:g},{r.pgd_accuracy:.2f},"
                     f"{r.cw_accuracy:.2f},{r.pgd_delta_vs_full:.2f},{r.cw_delta_vs_full:.2f}")
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
                   forward_override=None) -> MaskingChecks:
    """The three sanity checks for gradient masking, with supporting numbers.

    (a) transfer (black-box) accuracy is at least the white-box accuracy,
    (b) iterative PGD is at least as strong as one-step FGSM,
    (c) accuracy collapses (<= 5%) once the budget grows large.
    """
    kwargs = dict(batch_size=batch_size, segment_length=segment_length, seed=seed,
                  split=split, forward_override=forward_override)
    pgd = pgd_spec(epsilon, iterations)
    white_pgd, _ = accuracy_under_attack(target, corpus, pgd, **kwargs)
    white_fgsm, _ = accuracy_under_attack(target, corpus, fgsm_spec(epsilon), **kwargs)
    transfers = {name: transfer_eval(src, target, corpus, pgd,
                                     batch_size=batch_size, split=split,
                                     segment_length=segment_length, seed=seed)
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


def scrambled_gradient_forward(params: ModelParams, scramble_seed: int = 0):
    """Negative control for the masking checks.

    Forward values are the real model's, but the waveform adjoint is
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

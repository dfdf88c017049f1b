"""Training loops: standard classification and the adversarial-training
family (FGSM-AT, PGD-AT, FS-AT, hybrid HAT).

Every adversarial variant is the same loop with different loss weights for
the inner maximization: each minibatch first generates adversaries by
iterated sign-gradient ascent on the configured objective, then the model
minimizes w1*CE(clean) + w2*CE(adversarial) with SGD momentum. Standard
training skips the inner step and minimizes CE(clean) only.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attacks import (ATTACKS, REFERENCE_EPSILON, AttackSpec, generate, hybrid_spec,
                      model_forward_fn)
from .autodiff import NonFiniteError, Value
from .data import Corpus, batch_iter
from .losses import SinkhornSettings, ce_loss
from .model import ModelParams, forward_logits, save_checkpoint
from .util import check, to_json

# The named attack each single-objective defense trains against; HAT trains
# against the configured attack as given, standard training against none.
DEFENSE_ATTACKS = {"fgsm_at": "fgsm", "pgd_at": "pgd", "fs_at": "fs"}
DEFENSE_KINDS = ("standard", *DEFENSE_ATTACKS, "hat")

PAPER_LR_SCHEDULE = ((60, 0.1), (90, 0.01), (200, 0.001))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    lr_schedule: tuple[tuple[int, float], ...] = PAPER_LR_SCHEDULE
    momentum: float = 0.9
    w1: float = 1.0
    w2: float = 1.0
    defense: str = "standard"
    attack: AttackSpec = field(default_factory=lambda: hybrid_spec(REFERENCE_EPSILON))
    sinkhorn: SinkhornSettings = field(default_factory=SinkhornSettings)
    segment_length: int = 48000
    checkpoint_every: int = 0  # 0: only at the end

    def __post_init__(self):
        thresholds = [t for t, _ in self.lr_schedule]
        check([(self.epochs < 1, "epochs: must be >= 1"),
               (self.batch_size < 1, "batch_size: must be >= 1"),
               (self.defense not in DEFENSE_KINDS,
                f"defense: unknown defense {self.defense!r} (one of {', '.join(DEFENSE_KINDS)})"),
               (not self.lr_schedule or any(lr <= 0 for _, lr in self.lr_schedule),
                "lr_schedule: must be nonempty with positive rates"),
               (thresholds != sorted(thresholds), "lr_schedule: thresholds must be ascending"),
               (self.checkpoint_every < 0, "checkpoint_every: must be >= 0")])


def lr_at(schedule, epoch: int) -> float:
    """Piecewise-constant rate: the first entry whose threshold covers the epoch."""
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    for threshold, rate in schedule:
        if epoch <= threshold:
            return float(rate)
    return float(schedule[-1][1])


def attack_spec_for_defense(defense: str, base: AttackSpec) -> AttackSpec | None:
    """Resolve the per-defense inner objective from the configured template."""
    if defense == "standard":
        return None
    if defense == "hat":
        return base
    if defense not in DEFENSE_ATTACKS:
        raise ValueError(f"unknown defense {defense!r}")
    return ATTACKS[DEFENSE_ATTACKS[defense]].on(base)


def sgd_momentum_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                        velocity: dict[str, np.ndarray], lr: float,
                        momentum: float) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """v' = momentum*v + g; theta' = theta - lr*v'."""
    new_params, new_velocity = {}, {}
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ad.ShapeError("sgd_momentum_update", f"{name}: grad {g.shape} vs param {theta.shape}")
        if not np.isfinite(g).all():
            raise NonFiniteError(f"sgd_momentum_update: non-finite gradient for {name}")
        v = momentum * velocity.get(name, np.zeros_like(theta)) + g
        new_velocity[name] = v
        new_params[name] = theta - lr * v
    return new_params, new_velocity


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    clean_loss: float
    adv_loss: float | None
    train_accuracy: float
    wall_time_s: float
    defense: str
    attack_weights: tuple[float, float, float] | None
    epsilon: float | None

    def stable_dict(self) -> dict:
        d = to_json(self)
        d.pop("wall_time_s")
        return d


def train_epoch(params: ModelParams, velocity: dict[str, np.ndarray],
                corpus: Corpus, config: TrainConfig, *, epoch: int,
                seed: int) -> EpochRecord:
    """One pass over the train split; mutates params and velocity in place.

    Aborts atomically (parameters, running stats and velocity restored) if
    any batch produces a non-finite loss or gradient.
    """
    spec = attack_spec_for_defense(config.defense, config.attack)
    lr = lr_at(config.lr_schedule, epoch)
    snapshot = params.copy_state()
    velocity_snapshot = {k: v.copy() for k, v in velocity.items()}
    started = time.perf_counter()

    try:
        batches = batch_iter(corpus, config.batch_size, config.segment_length,
                             seed=seed, epoch=epoch, split="train", train=True)
        stats = [_train_batch(params, velocity, x, y, config, spec, lr,
                              attack_seed=_batch_seed(seed, epoch, index),
                              where=f"epoch {epoch}, batch {index}")
                 for index, (x, y) in enumerate(batches)]
    except NonFiniteError:
        params.restore_state(snapshot)
        velocity.clear()
        velocity.update(velocity_snapshot)
        raise

    clean_losses, adv_losses, correct, sizes = zip(*stats)
    return EpochRecord(
        epoch=epoch, lr=lr, clean_loss=float(np.mean(clean_losses)),
        adv_loss=float(np.mean(adv_losses)) if spec else None,
        train_accuracy=100.0 * sum(correct) / sum(sizes),
        wall_time_s=time.perf_counter() - started,
        defense=config.defense,
        attack_weights=spec.weights.as_tuple() if spec else None,
        epsilon=spec.epsilon if spec else None,
    )


def _train_batch(params: ModelParams, velocity: dict[str, np.ndarray], x: np.ndarray,
                 y: np.ndarray, config: TrainConfig, spec: AttackSpec | None, lr: float, *,
                 attack_seed, where: str) -> tuple[float, float | None, int, int]:
    """Attack the batch (if ``spec``), then one SGD momentum step on the weighted loss.

    Returns (clean loss, adversarial loss or None, correct predictions, batch
    size); the batch's graphs and parameter ``Value``s die on return.
    """
    x_adv = None
    if spec is not None:
        adv = generate(model_forward_fn(params), x, y, spec, mode="attack", seed=attack_seed,
                       sinkhorn=config.sinkhorn)
        assert adv.linf <= spec.epsilon + 1e-12
        x_adv = adv.x_adv

    param_values = params.trainable_values()
    logits_clean = forward_logits(params, Value(x), mode="train", param_values=param_values)
    loss_clean = ce_loss(logits_clean, y)
    loss, adv_loss = loss_clean, None
    if x_adv is not None:
        logits_adv = forward_logits(params, Value(x_adv), mode="train",
                                    param_values=param_values)
        loss_adv = ce_loss(logits_adv, y)
        loss = config.w1 * loss_clean + config.w2 * loss_adv
        adv_loss = float(loss_adv.data)
    if not np.isfinite(loss.data).all():
        raise NonFiniteError(f"non-finite loss in {where}")
    ad.backward(loss)

    grads = {name: pv.grad for name, pv in param_values.items()}
    params.arrays, new_velocity = sgd_momentum_update(
        params.arrays, grads, velocity, lr, config.momentum)
    velocity.clear()
    velocity.update(new_velocity)
    preds = np.argmax(logits_clean.data, axis=1)
    return float(loss_clean.data), adv_loss, int((preds == y).sum()), len(y)


def _batch_seed(seed: int, epoch: int, batch_index: int) -> tuple[int, int, int, int]:
    return (seed, epoch, batch_index, 0xA77A)


def fit(params: ModelParams, corpus: Corpus, config: TrainConfig, *, seed: int,
        out_dir=None, config_fingerprint: str = "", start_epoch: int = 1,
        velocity: dict[str, np.ndarray] | None = None,
        log_hook=None) -> list[EpochRecord]:
    """Run epochs start_epoch..config.epochs; optionally persist artifacts.

    With an out_dir, writes one JSON line per epoch to trainlog.jsonl (a
    fresh log from epoch 1, appended to when resuming) and writes
    checkpoint.npz (including optimizer state, so a reloaded
    checkpoint continues bit-identically to an uninterrupted run).
    """
    velocity = velocity if velocity is not None else {}
    records: list[EpochRecord] = []
    log_path = None
    if out_dir is not None:
        from pathlib import Path

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        log_path = out_dir / "trainlog.jsonl"
        if start_epoch == 1:
            log_path.unlink(missing_ok=True)

    def checkpoint(epoch: int) -> None:
        if out_dir is None:
            return
        save_checkpoint(out_dir / "checkpoint.npz", params,
                        config_fingerprint=config_fingerprint,
                        corpus_fingerprint=corpus.fingerprint,
                        epoch=epoch, velocity=velocity,
                        extra={"defense": config.defense, "seed": seed})

    for epoch in range(start_epoch, config.epochs + 1):
        record = train_epoch(params, velocity, corpus, config, epoch=epoch, seed=seed)
        records.append(record)
        if log_path is not None:
            payload = dict(to_json(record), config_fingerprint=config_fingerprint,
                           corpus_fingerprint=corpus.fingerprint, seed=seed)
            with open(log_path, "a") as fh:
                fh.write(json.dumps(payload, sort_keys=True) + "\n")
        if log_hook is not None:
            log_hook(record)
        if (config.checkpoint_every and epoch % config.checkpoint_every == 0
                and epoch < config.epochs):  # the last epoch is saved below
            checkpoint(epoch)
    checkpoint(config.epochs)
    return records

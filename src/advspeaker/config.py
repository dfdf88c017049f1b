"""Experiment configuration: a single JSON document binding corpus,
front-end, model, training, and evaluation sections, with dotted-path
overrides, invariant validation, and a stable fingerprint that every
artifact embeds. The shipped experiments are the files in ``configs/``.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .attacks import ATTACKS, DEFAULT_MARGIN, REFERENCE_EPSILON
from .data import SynthConfig
from .frontend import FrontendConfig
from .model import SpeakerCNNConfig, min_input_samples
from .training import TrainConfig
from .util import ConfigError, check, fingerprint, from_json, to_json


@dataclass(frozen=True)
class CorpusSection(SynthConfig):
    """Where utterances come from: the synthetic corpus (its generator
    settings are the inherited fields) or a directory of WAV files."""

    kind: str = "synthetic"              # "synthetic" | "wav_dir"
    root: str | None = None              # wav_dir only
    split_seed: int = 0                  # wav_dir only

    def _rules(self) -> list[tuple[bool, str]]:
        return super()._rules() + [
            (self.kind not in ("synthetic", "wav_dir"), f"kind: unknown kind {self.kind!r}"),
            (self.kind == "wav_dir" and not self.root,
             "root: required when corpus.kind is wav_dir"),
            (self.split_seed < 0, "split_seed: must be >= 0")]

    def synth_config(self) -> SynthConfig:
        return SynthConfig(**{f.name: getattr(self, f.name) for f in fields(SynthConfig)})


@dataclass(frozen=True)
class ScenarioSection:
    kind: str                            # clean|fgsm|pgd|cw|fs|hybrid|transfer|epsilon_sweep|iteration_sweep
    attack: str = "pgd"                  # inner attack for transfer/sweeps
    iterations: int | None = None
    epsilon: float | None = None
    epsilons: tuple[float, ...] = ()
    counts: tuple[int, ...] = ()

    def __post_init__(self):
        check([
            (self.kind not in SCENARIO_KINDS, f"kind: unknown kind {self.kind!r}"),
            (self.kind in ("transfer", *SWEEP_KINDS) and self.attack not in ATTACKS,
             f"attack: unknown attack {self.attack!r} (one of {', '.join(ATTACKS)})"),
            (self.iterations is not None and self.iterations < 1, "iterations: must be >= 1"),
            (self.kind == "epsilon_sweep" and not self.epsilons, "epsilon_sweep needs epsilons"),
            (any(e < 0 for e in self.epsilons), "epsilons: must be >= 0"),
            (self.kind == "iteration_sweep" and not self.counts, "iteration_sweep needs counts"),
            (any(t < 1 for t in self.counts), "counts: must be >= 1"),
            (self.epsilon is not None and self.epsilon < 0, "epsilon: must be >= 0")])


SWEEP_KINDS = ("epsilon_sweep", "iteration_sweep")
SCENARIO_KINDS = ("clean", *ATTACKS, "transfer", *SWEEP_KINDS)


@dataclass(frozen=True)
class EvalSection:
    batch_size: int = 40
    split: str = "test"
    epsilon: float = REFERENCE_EPSILON
    margin: float = DEFAULT_MARGIN
    seed: int = 0
    target_checkpoint: str | None = None
    source_checkpoint: str | None = None
    scenarios: tuple[ScenarioSection, ...] = (
        ScenarioSection("clean"), ScenarioSection("fgsm"),
        ScenarioSection("pgd", iterations=10), ScenarioSection("cw", iterations=10),
        ScenarioSection("fs", iterations=10), ScenarioSection("hybrid", iterations=10),
    )

    def __post_init__(self):
        rules = [(self.batch_size < 1, "batch_size: must be >= 1"),
                 (self.epsilon < 0, "epsilon: must be >= 0"),
                 (self.seed < 0, "seed: must be >= 0"),
                 (self.split not in ("train", "test", "all"),
                  f"split: unknown split {self.split!r}")]
        for i, s in enumerate(self.scenarios):
            budget = self.epsilon if s.epsilon is None else s.epsilon
            rules += [(s.kind == "transfer" and not self.source_checkpoint,
                       f"scenarios[{i}]: transfer needs eval.source_checkpoint"),
                      (s.kind in SWEEP_KINDS and budget == 0,
                       f"scenarios[{i}]: {s.kind} needs a budget > 0 "
                       f"(eval.epsilon or the scenario's epsilon)")]
        check(rules)


@dataclass(frozen=True)
class ReportSection:
    checkpoints: tuple[tuple[str, str], ...] = ()  # (row name, checkpoint path)

    def __post_init__(self):
        names = [name for name, _ in self.checkpoints]  # each names a directory of `report`
        check([(name in ("", ".", "..") or "/" in name,
                f"checkpoints: row name {name!r} must be one path component")
               for name in names]
              + [(name in ("comparison.txt", "comparison.csv", ".lock"),
                  f"checkpoints: row name {name!r} names a file `report` writes")
                 for name in names]
              + [(names.count(name) > 1, f"checkpoints: row name {name!r} is repeated")
                 for name in dict.fromkeys(names)])


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 7
    output_dir: str = "runs/experiment"
    corpus: CorpusSection = field(default_factory=CorpusSection)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    model: SpeakerCNNConfig = field(default_factory=SpeakerCNNConfig)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=30))
    eval: EvalSection = field(default_factory=EvalSection)
    report: ReportSection = field(default_factory=ReportSection)

    def __post_init__(self):
        check([(self.seed < 0, "seed: must be >= 0")])

    def fingerprint(self) -> str:
        return fingerprint(to_json(self))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The experiment a JSON document describes, on top of ``ExperimentConfig()``.

    ``util.from_json`` checks every field against its annotation and lists
    every section's errors at once.
    """
    return from_json(ExperimentConfig(), raw)


def load_config(path, overrides=()) -> ExperimentConfig:
    """The experiment a JSON file describes, with dotted ``overrides`` applied."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise FileNotFoundError(f"config file {path} not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from None
    return config_from_dict(apply_overrides(raw, overrides))


def parse_override(expr: str) -> tuple[list[str], object]:
    """'train.epochs=5' -> (['train', 'epochs'], 5); values parse as JSON,
    falling back to a bare string."""
    if "=" not in expr:
        raise ConfigError([f"override {expr!r} is not of the form path.key=value"])
    path, _, value = expr.partition("=")
    keys = [k for k in path.strip().split(".") if k]
    if not keys:
        raise ConfigError([f"override {expr!r} has an empty path"])
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    return keys, parsed


def apply_overrides(raw: dict, overrides) -> dict:
    raw = copy.deepcopy(raw)
    for expr in overrides:
        keys, value = parse_override(expr)
        node = raw
        for key in keys[:-1]:
            node = node.setdefault(key, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError([f"override {expr!r}: "
                               f"{'.'.join(keys[:-1]) or 'the config'} is not a section"])
        node[keys[-1]] = value
    return raw


# ---------------------------------------------------------------------------
# validation


def validate(config: ExperimentConfig) -> list[str]:
    """Raise ConfigError unless the sections agree (each checked its own fields
    when built); else return warnings for values off the reference experiment."""
    corpus, model, train = config.corpus, config.model, config.train
    synthetic = corpus.kind == "synthetic"
    needed = min_input_samples(model, config.frontend)
    check([
        (synthetic and model.num_speakers != corpus.num_speakers,
         f"model.num_speakers ({model.num_speakers}) != "
         f"corpus.num_speakers ({corpus.num_speakers})"),
        (synthetic and corpus.sample_rate != config.frontend.sample_rate,
         "corpus.sample_rate != frontend.sample_rate"),
        (train.segment_length < needed,
         f"train.segment_length ({train.segment_length}) below the "
         f"model receptive field ({needed} samples)")])

    epsilon = train.attack.epsilon
    return [message for diverges, message in [
        (epsilon != REFERENCE_EPSILON, f"train.attack.epsilon = {epsilon:g} differs from "
                                       f"the reference budget {REFERENCE_EPSILON}"),
        (config.eval.epsilon not in (0.0, epsilon),
         f"eval.epsilon ({config.eval.epsilon:g}) != train.attack.epsilon ({epsilon:g}); "
         f"budget sweeps do this deliberately")] if diverges]

"""Experiment configuration: a single JSON document binding corpus,
front-end, model, training, and evaluation sections, with dotted-path
overrides, invariant validation, and a stable fingerprint that every
artifact embeds.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .attacks import ATTACKS, DEFAULT_MARGIN, REFERENCE_EPSILON
from .data import SynthConfig
from .frontend import FrontendConfig
from .losses import LossWeights, SinkhornSettings
from .model import SpeakerCNNConfig, min_input_samples
from .training import PAPER_LR_SCHEDULE, TrainConfig, default_train_attack
from .util import ConfigError, fingerprint, from_json, to_json


@dataclass(frozen=True)
class CorpusSection(SynthConfig):
    """Where utterances come from: the synthetic corpus (its generator
    settings are the inherited fields) or a directory of WAV files."""

    kind: str = "synthetic"              # "synthetic" | "wav_dir"
    root: str | None = None              # wav_dir only
    split_seed: int = 0                  # wav_dir only

    def synth_config(self) -> SynthConfig:
        return SynthConfig(**{f.name: getattr(self, f.name) for f in fields(SynthConfig)})


@dataclass
class ScenarioSection:
    kind: str                            # clean|fgsm|pgd|cw|fs|hybrid|transfer|epsilon_sweep|iteration_sweep
    attack: str = "pgd"                  # inner attack for transfer/sweeps
    iterations: int | None = None
    epsilon: float | None = None
    epsilons: list[float] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)


SWEEP_KINDS = ("epsilon_sweep", "iteration_sweep")
SCENARIO_KINDS = ("clean", *ATTACKS, "transfer", *SWEEP_KINDS)


@dataclass
class EvalSection:
    batch_size: int = 40
    split: str = "test"
    epsilon: float = REFERENCE_EPSILON
    margin: float = DEFAULT_MARGIN
    seed: int = 0
    target_checkpoint: str | None = None
    source_checkpoint: str | None = None
    full_grid: bool = False
    scenarios: list[ScenarioSection] = field(default_factory=lambda: [
        ScenarioSection("clean"), ScenarioSection("fgsm"),
        ScenarioSection("pgd", iterations=10), ScenarioSection("cw", iterations=10),
        ScenarioSection("fs", iterations=10), ScenarioSection("hybrid", iterations=10),
    ])


@dataclass
class ReportSection:
    checkpoints: list[tuple[str, str]] = field(default_factory=list)
    iterations: list[int] = field(default_factory=lambda: [10, 40])


@dataclass
class ExperimentConfig:
    seed: int = 7
    output_dir: str = "runs/experiment"
    deterministic: bool = True
    corpus: CorpusSection = field(default_factory=CorpusSection)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    model: SpeakerCNNConfig = field(default_factory=SpeakerCNNConfig)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=30))
    eval: EvalSection = field(default_factory=EvalSection)
    report: ReportSection = field(default_factory=ReportSection)

    def to_dict(self) -> dict:
        d = to_json(self)
        attack = d["train"]["attack"]
        attack.update(attack.pop("weights"))
        return d

    def fingerprint(self) -> str:
        return fingerprint(self.to_dict())


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The experiment a JSON document describes, on top of ``ExperimentConfig()``.

    ``util.from_json`` checks every field against its annotation. The one
    layout rule is ``train.attack``'s: its loss weights are written flat
    beside the budget, and an unstated alpha follows epsilon and T.
    """
    raw = copy.deepcopy(raw)
    attack = {}
    if isinstance(raw, dict) and isinstance(raw.get("train"), dict):
        attack = raw["train"].pop("attack", {})
    config = from_json(ExperimentConfig(), raw)
    if not isinstance(attack, dict) or "weights" in attack:
        raise ConfigError([f"train.attack: must be an object with beta, gamma and zeta "
                           f"written flat, got {attack!r}"])
    reference = default_train_attack()
    weights = {f.name: attack.pop(f.name) for f in fields(LossWeights) if f.name in attack}
    weights = from_json(reference.weights, weights, "train.attack")
    attack = from_json(replace(reference, weights=weights), {"alpha": None, **attack},
                       "train.attack")
    return replace(config, train=replace(config.train, attack=attack))


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
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError([f"override {expr!r}: {key} is not a section"])
        node[keys[-1]] = value
    return raw


# ---------------------------------------------------------------------------
# validation


def validate(config: ExperimentConfig) -> tuple[list[str], list[str]]:
    """(violations, warnings). Violations make the config unusable; warnings
    flag values that diverge from the reference experimental defaults."""
    violations: list[str] = []
    warnings_: list[str] = []

    if config.corpus.kind not in ("synthetic", "wav_dir"):
        violations.append(f"corpus.kind: unknown kind {config.corpus.kind!r}")
    if config.corpus.kind == "wav_dir" and not config.corpus.root:
        violations.append("corpus.root: required when corpus.kind is wav_dir")
    if config.corpus.kind == "synthetic":
        if config.model.num_speakers != config.corpus.num_speakers:
            violations.append(
                f"model.num_speakers ({config.model.num_speakers}) != "
                f"corpus.num_speakers ({config.corpus.num_speakers})")
        if config.corpus.sample_rate != config.frontend.sample_rate:
            violations.append("corpus.sample_rate != frontend.sample_rate")

    attack = config.train.attack
    if config.eval.epsilon < 0:
        violations.append("eval.epsilon: must be >= 0")
    if config.eval.split not in ("train", "test", "all"):
        violations.append(f"eval.split: unknown split {config.eval.split!r}")
    for i, scenario in enumerate(config.eval.scenarios):
        where = f"eval.scenarios[{i}]"
        if scenario.kind not in SCENARIO_KINDS:
            violations.append(f"{where}.kind: unknown kind {scenario.kind!r}")
        if scenario.kind in ("transfer", *SWEEP_KINDS) and scenario.attack not in ATTACKS:
            violations.append(f"{where}.attack: unknown attack {scenario.attack!r} "
                              f"(one of {', '.join(ATTACKS)})")
        if scenario.iterations is not None and scenario.iterations < 1:
            violations.append(f"{where}.iterations: must be >= 1")
        if scenario.kind == "epsilon_sweep" and not scenario.epsilons:
            violations.append(f"{where}: epsilon_sweep needs epsilons")
        if any(e < 0 for e in scenario.epsilons):
            violations.append(f"{where}.epsilons: must be >= 0")
        if scenario.kind == "iteration_sweep" and not scenario.counts:
            violations.append(f"{where}: iteration_sweep needs counts")
        if any(t < 1 for t in scenario.counts):
            violations.append(f"{where}.counts: must be >= 1")
        if scenario.kind == "transfer" and not config.eval.source_checkpoint:
            violations.append(f"{where}: transfer needs eval.source_checkpoint")
        if scenario.epsilon is not None and scenario.epsilon < 0:
            violations.append(f"{where}.epsilon: must be >= 0")
        budget = config.eval.epsilon if scenario.epsilon is None else scenario.epsilon
        if scenario.kind in SWEEP_KINDS and budget == 0:
            violations.append(f"{where}: {scenario.kind} needs a budget > 0 "
                              f"(eval.epsilon or the scenario's epsilon)")

    if any(t < 1 for t in config.report.iterations):
        violations.append("report.iterations: must be >= 1")

    # receptive-field check: the training segment must survive the stack
    needed = min_input_samples(config.model, config.frontend)
    if config.train.segment_length < needed:
        violations.append(
            f"train.segment_length ({config.train.segment_length}) below the "
            f"model receptive field ({needed} samples)")

    if attack.epsilon != REFERENCE_EPSILON:
        warnings_.append(
            f"train.attack.epsilon = {attack.epsilon:g} differs from the reference "
            f"budget {REFERENCE_EPSILON}")
    if config.eval.epsilon not in (0.0, attack.epsilon):
        warnings_.append(
            f"eval.epsilon ({config.eval.epsilon:g}) != train.attack.epsilon "
            f"({attack.epsilon:g}); budget sweeps do this deliberately")
    return violations, warnings_


# ---------------------------------------------------------------------------
# shipped presets

def desk_preset(defense: str) -> ExperimentConfig:
    """Desk-scale synthetic-corpus preset for one defense kind."""
    train = TrainConfig(epochs=30, batch_size=32, lr_schedule=PAPER_LR_SCHEDULE,
                        momentum=0.9, w1=1.0, w2=1.0, defense=defense, segment_length=8000,
                        sinkhorn=SinkhornSettings(0.01, 300, 1e-6),
                        checkpoint_every=10)
    fe = FrontendConfig(sample_rate=16000, window_length=256, hop_length=128,
                        fft_size=256, mel_bins=32, log_floor=1e-6)
    name = defense.replace("_", "-")
    return ExperimentConfig(
        seed=7, output_dir=f"runs/desk-{name}", deterministic=True,
        corpus=CorpusSection(), frontend=fe,
        model=SpeakerCNNConfig.tiny(10), train=train,
        eval=EvalSection(batch_size=40, target_checkpoint=f"runs/desk-{name}/checkpoint.npz"))


def full_scale_preset() -> ExperimentConfig:
    """Full-scale settings (251 speakers, 200 epochs); documented, not run in CI."""
    train = TrainConfig(epochs=200, batch_size=32, lr_schedule=PAPER_LR_SCHEDULE,
                        momentum=0.9, w1=1.0, w2=1.0, defense="hat",
                        segment_length=48000, sinkhorn=SinkhornSettings(0.01, 1000, 1e-6),
                        checkpoint_every=10)
    return ExperimentConfig(
        seed=7, output_dir="runs/paper-hat", deterministic=True,
        corpus=CorpusSection(kind="wav_dir", root="data/librispeech-train-clean-100",
                             num_speakers=251),
        frontend=FrontendConfig(), model=SpeakerCNNConfig(), train=train,
        eval=EvalSection(batch_size=32, target_checkpoint="runs/paper-hat/checkpoint.npz"))


BUILTIN_PRESETS = {
    "desk-standard": lambda: desk_preset("standard"),
    "desk-fgsm-at": lambda: desk_preset("fgsm_at"),
    "desk-pgd-at": lambda: desk_preset("pgd_at"),
    "desk-fs-at": lambda: desk_preset("fs_at"),
    "desk-hat": lambda: desk_preset("hat"),
    "paper-hat": full_scale_preset,
}


def write_preset_files(directory) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, factory in BUILTIN_PRESETS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(factory().to_dict(), indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written

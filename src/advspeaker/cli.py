"""Experiment runner CLI.

Subcommands: train, attack, eval, ablate, report, validate. Every run is
driven by one JSON config (plus dotted --set overrides), owns its output
directory through a lock file, and stamps artifacts with the config
fingerprint and global seed.

Every table comes from one path: `_evaluate` runs one checkpoint over
`eval.scenarios` and `_write_report` writes its report and sweep curves.
`eval` does this once, `report` once per row (and tabulates the reports'
entries, one column per entry), and `ablate` is seven `train` runs, one per
loss subset, then `report`.

Exit codes: 0 success, 2 config error (a checkpoint trained on another corpus
included), 3 numeric failure, 4 missing or unreadable artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .attacks import ATTACKS, AttackSpec, attack_spec, model_forward_fn, spec_with
from .autodiff import NonFiniteError
from .config import ConfigError, ExperimentConfig, ScenarioSection, check, load_config, validate
from .data import Corpus, ingest, save_manifest, synth_corpus, write_wav
from .losses import LossWeights
from .model import CheckpointError, build, load_checkpoint
from .training import fit
from .util import to_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_MISSING = 4

# The loss terms `ablate` trains HAT with, each at weight 1: every nonempty
# subset of CE, FS and the margin loss (M).
ABLATION_SUBSETS = (("CE",), ("FS",), ("M",), ("CE", "FS"), ("CE", "M"), ("FS", "M"),
                    ("CE", "FS", "M"))


class OutputLock:
    """Exclusive ownership of an output directory for the run's duration."""

    def __init__(self, directory: Path):
        self.path = Path(directory) / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = self.path.open("x")
        except FileExistsError:
            raise ConfigError([
                f"output directory {self.path.parent} is locked by another run "
                f"(remove {self.path} if that run is dead)"]) from None
        fd.write("locked\n")
        fd.close()
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        return False


def build_corpus(config: ExperimentConfig) -> Corpus:
    if config.corpus.kind == "synthetic":
        return synth_corpus(config.corpus.synth_config())
    corpus = ingest(config.corpus.root, config.frontend.sample_rate,
                    split_seed=config.corpus.split_seed)
    check([(corpus.num_speakers != config.model.num_speakers,
            f"corpus has {corpus.num_speakers} speakers != model.num_speakers "
            f"{config.model.num_speakers}")])
    return corpus


def _load_checkpoint_or_missing(path_str: str | None, what: str, corpus: Corpus):
    """The checkpoint's parameters, refused unless it was trained on ``corpus``."""
    if not path_str:
        raise ConfigError([f"{what}: no checkpoint path configured"])
    path = Path(path_str)
    if not path.exists():
        raise FileNotFoundError(f"{what}: checkpoint {path} does not exist")
    params, meta = load_checkpoint(path)
    if meta["corpus_fingerprint"] and meta["corpus_fingerprint"] != corpus.fingerprint:
        raise ConfigError([
            f"{what}: checkpoint {path} was trained on a different corpus "
            f"({meta['corpus_fingerprint']} != {corpus.fingerprint})"])
    return params


def _eval_kwargs(config: ExperimentConfig) -> dict:
    return dict(batch_size=config.eval.batch_size,
                segment_length=config.train.segment_length,
                seed=config.eval.seed, split=config.eval.split,
                sinkhorn=config.train.sinkhorn)


def _scenario_spec(scenario, eval_cfg) -> AttackSpec | None:
    eps = scenario.epsilon if scenario.epsilon is not None else eval_cfg.epsilon
    if scenario.kind == "clean" or eps == 0:
        return None
    name = scenario.kind if scenario.kind in ATTACKS else scenario.attack
    return attack_spec(name, eps, scenario.iterations, eval_cfg.margin)


def _scenario_name(scenario, spec: AttackSpec | None) -> str:
    if spec is None:
        return "clean"
    if scenario.kind in ATTACKS:
        suffix = "" if ATTACKS[scenario.kind].one_step else str(spec.iterations)
        return f"{scenario.kind}{suffix}"
    return f"{scenario.kind}:{scenario.attack}{spec.iterations}"


def _cells(scenario, eval_cfg) -> list[tuple[float | int | None, str, AttackSpec | None]]:
    """(sweep point or None, report entry name, spec) for each entry the scenario gives."""
    spec = _scenario_spec(scenario, eval_cfg)
    name = _scenario_name(scenario, spec)
    if scenario.kind == "epsilon_sweep":
        return [(e, f"{name}@eps={e:g}", spec_with(spec, epsilon=e))
                for e in map(float, scenario.epsilons)]
    if scenario.kind == "iteration_sweep":
        return [(t, f"{name}@T={t}", spec_with(spec, iterations=t)) for t in scenario.counts]
    return [(None, name, spec)]


def cmd_train(config: ExperimentConfig, out_dir: Path) -> int:
    corpus = build_corpus(config)
    if corpus.manifest is not None:
        save_manifest(out_dir / "manifest.json", corpus.manifest)
    params = build(config.model, config.frontend, config.seed)
    fp = config.fingerprint()
    (out_dir / "config.resolved.json").write_text(
        json.dumps(dict(to_json(config), fingerprint=fp), indent=2, sort_keys=True) + "\n")
    records = fit(params, corpus, config.train, seed=config.seed,
                  out_dir=out_dir, config_fingerprint=fp,
                  log_hook=lambda r: print(
                      f"epoch {r.epoch:3d}  lr {r.lr:g}  clean {r.clean_loss:.4f}"
                      + (f"  adv {r.adv_loss:.4f}" if r.adv_loss is not None else "")
                      + f"  acc {r.train_accuracy:.2f}%"))
    print(f"trained {config.train.defense} for {len(records)} epochs -> "
          f"{out_dir / 'checkpoint.npz'}")
    return EXIT_OK


def _evaluate(config: ExperimentConfig, corpus: Corpus, params, target_name: str
              ) -> tuple[ev.RobustnessReport, list[str]]:
    """One checkpoint over ``eval.scenarios``: its report, and a CSV curve per sweep."""
    fp, seed, kwargs = config.fingerprint(), config.eval.seed, _eval_kwargs(config)
    report = ev.RobustnessReport(
        target_name=target_name, config_fingerprint=fp,
        corpus_fingerprint=corpus.fingerprint, global_seed=config.seed)
    curves_csv: list[str] = []
    source = None
    if any(s.kind == "transfer" for s in config.eval.scenarios):
        source = model_forward_fn(_load_checkpoint_or_missing(
            config.eval.source_checkpoint, "eval.source_checkpoint", corpus))
    for scenario in config.eval.scenarios:
        attacker, source_name = None, None
        if scenario.kind == "transfer":
            attacker, source_name = source, str(config.eval.source_checkpoint)
        curve = []
        for point, name, spec in _cells(scenario, config.eval):
            acc, snr = ev.accuracy_under_attack(params, corpus, spec, attacker=attacker,
                                                **kwargs)
            finite = snr[np.isfinite(snr)]
            report.entries.append(ev.ReportEntry(
                name, acc, ev.attack_dict(spec), source_name, seed,
                snr_mean_db=float(finite.mean()) if finite.size else None,
                snr_min_db=float(finite.min()) if finite.size else None))
            if point is not None:
                curve.append((point, acc))
        if curve:
            label = scenario.attack
            if scenario.kind == "epsilon_sweep":
                label += str(_scenario_spec(scenario, config.eval).iterations)
            curves_csv.append(ev.curve_csv(
                curve, label, seed, header_note=f"{scenario.kind.replace('_', ' ')}; "
                                                f"fingerprint={fp} seed={config.seed}"))
    return report, curves_csv


def _write_report(report: ev.RobustnessReport, curves_csv: list[str], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    curves = out_dir / "curves.csv"
    if curves_csv:
        curves.write_text("".join(curves_csv))
    else:
        curves.unlink(missing_ok=True)  # a previous run's curves would outlive its report
    (out_dir / "report.jsonl").write_text(report.to_jsonl())
    (out_dir / "report.txt").write_text(report.render_table())
    print(f"report hash {report.content_hash()} -> {out_dir / 'report.jsonl'}")


def cmd_eval(config: ExperimentConfig, out_dir: Path) -> int:
    corpus = build_corpus(config)
    params = _load_checkpoint_or_missing(config.eval.target_checkpoint,
                                         "eval.target_checkpoint", corpus)
    report, curves_csv = _evaluate(config, corpus, params, str(config.eval.target_checkpoint))
    print(report.render_table())
    _write_report(report, curves_csv, out_dir)
    return EXIT_OK


def cmd_attack(config: ExperimentConfig, out_dir: Path) -> int:
    scenario = next((s for s in config.eval.scenarios if s.kind in ATTACKS),
                    ScenarioSection("pgd"))
    spec = _scenario_spec(scenario, config.eval)
    if spec is None:
        raise ConfigError([f"eval.epsilon: the {scenario.kind} scenario has a zero budget, "
                           "so attack has nothing to generate"])
    corpus = build_corpus(config)
    params = _load_checkpoint_or_missing(config.eval.target_checkpoint,
                                         "eval.target_checkpoint", corpus)
    wav_dir = out_dir / "adv"
    wav_dir.mkdir(parents=True, exist_ok=True)
    for stale in wav_dir.glob("adv_*.wav"):  # a previous run's waveforms would outlive its stats
        stale.unlink()
    stats = []
    for x, y, adv in ev.attack_batches(model_forward_fn(params), corpus, spec,
                                       **_eval_kwargs(config)):
        for row in range(x.shape[0]):
            name = f"adv_{len(stats):04d}_spk{y[row]:03d}.wav"
            write_wav(wav_dir / name, adv.x_adv[row], corpus.sample_rate)
            stats.append({"file": name, "label": int(y[row]),
                          "snr_db": None if np.isinf(adv.snr_db[row])
                          else float(adv.snr_db[row])})
    payload = {
        "fingerprint": config.fingerprint(), "seed": config.seed,
        "attack": ev.attack_dict(spec), "linf_budget": spec.epsilon,
        "samples": stats,
    }
    (out_dir / "snr_stats.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(stats)} adversarial waveforms -> {wav_dir}")
    return EXIT_OK


def cmd_ablate(config: ExperimentConfig, out_dir: Path) -> int:
    """Train HAT once per loss subset into ``out_dir/<subset>/``, then report on them."""
    checkpoints = []
    for subset in ABLATION_SUBSETS:
        name = "+".join(subset)
        subset_dir = out_dir / name
        subset_dir.mkdir(exist_ok=True)
        weights = LossWeights(*(float(term in subset) for term in ("CE", "FS", "M")))
        train = replace(config.train, defense="hat",
                        attack=replace(config.train.attack, weights=weights))
        cmd_train(replace(config, output_dir=str(subset_dir), train=train), subset_dir)
        checkpoints.append((name, str(subset_dir / "checkpoint.npz")))
    report = replace(config.report, checkpoints=tuple(checkpoints))
    return cmd_report(replace(config, report=report), out_dir)


def cmd_report(config: ExperimentConfig, out_dir: Path) -> int:
    """One report per checkpoint in ``out_dir/<row name>/``, and a table of them."""
    if not config.report.checkpoints:
        raise ConfigError(["report.checkpoints: nothing to compare"])
    corpus = build_corpus(config)
    loaded = [(name, path, _load_checkpoint_or_missing(path, f"report checkpoint {name!r}",
                                                       corpus))
              for name, path in config.report.checkpoints]
    rows = []
    for name, path, params in loaded:
        report, curves_csv = _evaluate(config, corpus, params, path)
        _write_report(report, curves_csv, out_dir / name)
        rows.append((name, {e.name: e.accuracy for e in report.entries}))
    columns = list(rows[0][1])

    stamp = f"# fingerprint={config.fingerprint()} seed={config.seed}"
    width = max(len("defense"), *(len(name) for name, _ in rows))
    widths = {c: max(8, len(c)) for c in columns}
    table = [f"{stamp} eps={config.eval.epsilon:g}",
             "defense".ljust(width) + "".join(f"  {c:>{widths[c]}}" for c in columns)]
    table += [name.ljust(width) + "".join(f"  {accs[c]:{widths[c]}.2f}" for c in columns)
              for name, accs in rows]
    csv = [stamp, "defense," + ",".join(columns)]
    csv += [name + "," + ",".join(f"{accs[c]:.2f}" for c in columns) for name, accs in rows]
    text = "\n".join(table) + "\n"
    (out_dir / "comparison.txt").write_text(text)
    (out_dir / "comparison.csv").write_text("\n".join(csv) + "\n")
    print(text)
    return EXIT_OK


def cmd_validate(config: ExperimentConfig, out_dir: Path) -> int:
    print("config ok")  # main has validated the config and printed its warnings
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "attack": cmd_attack,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "report": cmd_report,
    "validate": cmd_validate,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advspeaker",
        description="Adversarial attacks and hybrid adversarial training for "
                    "waveform speaker classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="K=V", help="dotted-path config override, repeatable")
        p.add_argument("--seed", type=int, default=None, help="override the global seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        flags = (("seed", args.seed), ("output_dir", args.out))
        config = load_config(args.config, args.overrides + [
            f"{key}={json.dumps(value)}" for key, value in flags if value is not None])
        for w in validate(config):
            print(f"warning: {w}", file=sys.stderr)

        out_dir = Path(config.output_dir)
        if args.command == "validate":
            return cmd_validate(config, out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with OutputLock(out_dir):
            return COMMANDS[args.command](config, out_dir)
    except ConfigError as exc:  # a CorpusError included
        for v in exc.errors:
            print(f"error: {v}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (NonFiniteError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""Experiment runner CLI.

Subcommands: train, attack, eval, ablate, report, validate. Every run is
driven by one JSON config (plus dotted --set overrides), owns its output
directory through a lock file, and stamps artifacts with the config
fingerprint and global seed.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 missing or unreadable
artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .attacks import ATTACKS, AttackSpec, attack_spec, generate, model_forward_fn, spec_with
from .autodiff import NonFiniteError
from .config import (ConfigError, ExperimentConfig, ScenarioSection, apply_overrides,
                     config_from_dict, validate)
from .data import (Corpus, CorpusError, ingest, load_corpus, save_manifest, synth_corpus,
                   write_wav)
from .model import CheckpointError, build, load_checkpoint
from .training import fit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_MISSING = 4

# The multi-step attacks of the `report` comparison table, one column per T.
REPORT_ATTACKS = ("pgd", "cw", "fs")


class MissingArtifactError(FileNotFoundError):
    pass


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
    manifest = ingest(config.corpus.root, split_seed=config.corpus.split_seed)
    corpus = load_corpus(manifest)
    if corpus.sample_rate != config.frontend.sample_rate:
        raise ConfigError([
            f"corpus sample rate {corpus.sample_rate} != frontend.sample_rate "
            f"{config.frontend.sample_rate}"])
    return corpus


def _load_checkpoint_or_missing(path_str: str | None, what: str):
    if not path_str:
        raise ConfigError([f"{what}: no checkpoint path configured"])
    path = Path(path_str)
    if not path.exists():
        raise MissingArtifactError(f"{what}: checkpoint {path} does not exist")
    return load_checkpoint(path)


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


def cmd_train(config: ExperimentConfig, out_dir: Path) -> int:
    corpus = build_corpus(config)
    if corpus.manifest is not None:
        save_manifest(out_dir / "manifest.json", corpus.manifest)
    params = build(config.model, config.frontend, config.seed)
    fp = config.fingerprint()
    (out_dir / "config.resolved.json").write_text(
        json.dumps(dict(config.to_dict(), fingerprint=fp), indent=2, sort_keys=True) + "\n")
    records = fit(params, corpus, config.train, seed=config.seed,
                  out_dir=out_dir, config_fingerprint=fp,
                  log_hook=lambda r: print(
                      f"epoch {r.epoch:3d}  lr {r.lr:g}  clean {r.clean_loss:.4f}"
                      + (f"  adv {r.adv_loss:.4f}" if r.adv_loss is not None else "")
                      + f"  acc {r.train_accuracy:.2f}%"))
    print(f"trained {config.train.defense} for {len(records)} epochs -> "
          f"{out_dir / 'checkpoint.npz'}")
    return EXIT_OK


def cmd_eval(config: ExperimentConfig, out_dir: Path) -> int:
    params, meta = _load_checkpoint_or_missing(config.eval.target_checkpoint,
                                               "eval.target_checkpoint")
    corpus = build_corpus(config)
    if meta["corpus_fingerprint"] and meta["corpus_fingerprint"] != corpus.fingerprint:
        raise ConfigError([
            "eval: checkpoint was trained on a different corpus "
            f"({meta['corpus_fingerprint']} != {corpus.fingerprint})"])
    source_params = None
    if config.eval.source_checkpoint:
        source_params, _ = _load_checkpoint_or_missing(config.eval.source_checkpoint,
                                                       "eval.source_checkpoint")
    fp = config.fingerprint()
    report = ev.RobustnessReport(
        target_name=str(config.eval.target_checkpoint), config_fingerprint=fp,
        corpus_fingerprint=corpus.fingerprint, global_seed=config.seed)
    kwargs = dict(batch_size=config.eval.batch_size,
                  segment_length=config.train.segment_length,
                  seed=config.eval.seed, split=config.eval.split)
    curves_csv: list[str] = []
    for scenario in config.eval.scenarios:
        spec = _scenario_spec(scenario, config.eval)
        name = _scenario_name(scenario, spec)
        if scenario.kind == "epsilon_sweep":
            curve = ev.epsilon_sweep(params, corpus, scenario.epsilons, spec, **kwargs)
            curves_csv.append(ev.curve_csv(
                curve, f"{scenario.attack}{spec.iterations}", config.eval.seed,
                header_note=f"epsilon sweep; fingerprint={fp} seed={config.seed}"))
            for eps, acc in curve:
                report.entries.append(ev.ReportEntry(
                    f"{name}@eps={eps:g}", acc, ev.attack_dict(spec_with(spec, epsilon=eps)),
                    None, config.eval.seed))
            continue
        if scenario.kind == "iteration_sweep":
            curve = ev.iteration_sweep(params, corpus, scenario.counts, spec, **kwargs)
            curves_csv.append(ev.curve_csv(
                curve, scenario.attack, config.eval.seed,
                header_note=f"iteration sweep; fingerprint={fp} seed={config.seed}"))
            for t, acc in curve:
                report.entries.append(ev.ReportEntry(
                    f"{name}@T={t}", acc, ev.attack_dict(spec_with(spec, iterations=t)),
                    None, config.eval.seed))
            continue
        if scenario.kind == "transfer":
            if source_params is None:
                raise ConfigError(["eval: transfer scenario without source_checkpoint"])
            acc = ev.transfer_eval(source_params, params, corpus, spec, **kwargs)
            report.entries.append(ev.ReportEntry(
                name, acc, ev.attack_dict(spec), str(config.eval.source_checkpoint),
                config.eval.seed))
            continue
        acc, snr = ev.accuracy_under_attack(params, corpus, spec, **kwargs)
        finite = snr[np.isfinite(snr)] if snr.size else snr
        report.entries.append(ev.ReportEntry(
            name, acc, ev.attack_dict(spec), None, config.eval.seed,
            snr_mean_db=float(finite.mean()) if finite.size else None,
            snr_min_db=float(finite.min()) if finite.size else None))

    (out_dir / "report.jsonl").write_text(report.to_jsonl())
    (out_dir / "report.txt").write_text(report.render_table())
    if curves_csv:
        (out_dir / "curves.csv").write_text("".join(curves_csv))
    print(report.render_table())
    print(f"report hash {report.content_hash()} -> {out_dir / 'report.jsonl'}")
    return EXIT_OK


def cmd_attack(config: ExperimentConfig, out_dir: Path) -> int:
    scenario = next((s for s in config.eval.scenarios if s.kind in ATTACKS),
                    ScenarioSection("pgd"))
    spec = _scenario_spec(scenario, config.eval)
    if spec is None:
        raise ConfigError([f"eval.epsilon: the {scenario.kind} scenario has a zero budget, "
                           "so attack has nothing to generate"])
    params, _ = _load_checkpoint_or_missing(config.eval.target_checkpoint,
                                            "eval.target_checkpoint")
    corpus = build_corpus(config)
    from .data import batch_iter

    wav_dir = out_dir / "adv"
    wav_dir.mkdir(parents=True, exist_ok=True)
    stats = []
    index = 0
    for batch_index, (x, y) in enumerate(batch_iter(
            corpus, config.eval.batch_size, config.train.segment_length,
            seed=config.eval.seed, epoch=0, split=config.eval.split, train=False)):
        adv = generate(model_forward_fn(params), x, y, spec, mode="eval",
                       seed=(config.eval.seed, batch_index, 1))
        for row in range(x.shape[0]):
            name = f"adv_{index:04d}_spk{y[row]:03d}.wav"
            write_wav(wav_dir / name, adv.x_adv[row], corpus.sample_rate)
            stats.append({"file": name, "label": int(y[row]),
                          "snr_db": None if np.isinf(adv.snr_db[row])
                          else float(adv.snr_db[row])})
            index += 1
    payload = {
        "fingerprint": config.fingerprint(), "seed": config.seed,
        "attack": ev.attack_dict(spec), "linf_budget": spec.epsilon,
        "samples": stats,
    }
    (out_dir / "snr_stats.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {index} adversarial waveforms -> {wav_dir}")
    return EXIT_OK


def cmd_ablate(config: ExperimentConfig, out_dir: Path) -> int:
    corpus = build_corpus(config)
    rows = ev.ablation_grid(
        corpus, lambda: build(config.model, config.frontend, config.seed),
        config.train, seed=config.seed, batch_size=config.eval.batch_size)
    csv = ev.ablation_csv(rows)
    (out_dir / "ablation.csv").write_text(
        f"# fingerprint={config.fingerprint()} seed={config.seed}\n" + csv)
    print(csv)
    return EXIT_OK


def cmd_report(config: ExperimentConfig, out_dir: Path) -> int:
    if not config.report.checkpoints:
        raise ConfigError(["report.checkpoints: nothing to compare"])
    corpus = build_corpus(config)
    loaded = []
    for name, path in config.report.checkpoints:
        params, meta = _load_checkpoint_or_missing(path, f"report checkpoint {name!r}")
        if meta["corpus_fingerprint"] and meta["corpus_fingerprint"] != corpus.fingerprint:
            raise ConfigError([
                f"report: checkpoint {name!r} has corpus fingerprint "
                f"{meta['corpus_fingerprint']}, expected {corpus.fingerprint}"])
        loaded.append((name, params))

    iterations = [10, 20, 40] if config.eval.full_grid else list(config.report.iterations)
    eps = config.eval.epsilon
    scenarios = [ScenarioSection("clean"), ScenarioSection("fgsm")] + [
        ScenarioSection(kind, iterations=t) for kind in REPORT_ATTACKS for t in iterations]
    cells = {}
    for scenario in scenarios:
        spec = _scenario_spec(scenario, config.eval)
        cells[_scenario_name(scenario, spec)] = spec
    columns = list(cells)
    kwargs = dict(batch_size=config.eval.batch_size,
                  segment_length=config.train.segment_length,
                  seed=config.eval.seed, split=config.eval.split)
    grid = {}
    for name, params in loaded:
        grid[name] = {column: ev.accuracy_under_attack(params, corpus, spec, **kwargs)[0]
                      for column, spec in cells.items()}
        print(f"evaluated {name}")

    width = max(len(n) for n, _ in loaded)
    lines = [f"# fingerprint={config.fingerprint()} seed={config.seed} eps={eps:g}",
             "defense".ljust(width) + "".join(f"  {c:>8}" for c in columns)]
    for name, _ in loaded:
        lines.append(name.ljust(width)
                     + "".join(f"  {grid[name][c]:8.2f}" for c in columns))
    table = "\n".join(lines) + "\n"
    csv_lines = ["defense," + ",".join(columns)]
    for name, _ in loaded:
        csv_lines.append(name + "," + ",".join(f"{grid[name][c]:.2f}" for c in columns))
    (out_dir / "comparison.txt").write_text(table)
    (out_dir / "comparison.csv").write_text(
        f"# fingerprint={config.fingerprint()} seed={config.seed}\n"
        + "\n".join(csv_lines) + "\n")
    print(table)
    return EXIT_OK


def cmd_validate(config: ExperimentConfig, out_dir: Path) -> int:
    violations, warnings_ = validate(config)
    for v in violations:
        print(f"violation: {v}")
    for w in warnings_:
        print(f"warning: {w}")
    if violations:
        return EXIT_CONFIG
    print("config ok")
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
        raw = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"error: config file {args.config} not found", file=sys.stderr)
        return EXIT_MISSING
    except json.JSONDecodeError as exc:
        print(f"error: {args.config}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        raw = apply_overrides(raw, args.overrides)
        config = config_from_dict(raw)
        if args.seed is not None:
            config.seed = args.seed
        if args.out is not None:
            config.output_dir = args.out
        violations, warnings_ = validate(config)
        for w in warnings_:
            print(f"warning: {w}", file=sys.stderr)
        if violations:
            for v in violations:
                print(f"violation: {v}", file=sys.stderr)
            return EXIT_CONFIG

        out_dir = Path(config.output_dir)
        if args.command == "validate":
            return cmd_validate(config, out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with OutputLock(out_dir):
            return COMMANDS[args.command](config, out_dir)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"error: {v}", file=sys.stderr)
        return EXIT_CONFIG
    except (MissingArtifactError, FileNotFoundError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (NonFiniteError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Experiment runner CLI.

Subcommands: train, attack, eval, ablate, report, validate. Every run is
driven by one JSON config (plus dotted --set overrides), owns its output
directory through a lock file, and stamps artifacts with the config
fingerprint and global seed.

Exit codes: 0 success, 2 config error (a checkpoint trained on another corpus
included), 3 numeric failure, 4 missing or unreadable artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .attacks import ATTACKS, AttackSpec, attack_spec, model_forward_fn, spec_with
from .autodiff import NonFiniteError
from .config import ConfigError, ExperimentConfig, ScenarioSection, load_config, validate
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
    corpus = build_corpus(config)
    params = _load_checkpoint_or_missing(config.eval.target_checkpoint,
                                         "eval.target_checkpoint", corpus)
    source_params = None
    if any(s.kind == "transfer" for s in config.eval.scenarios):
        source_params = _load_checkpoint_or_missing(config.eval.source_checkpoint,
                                                    "eval.source_checkpoint", corpus)
    fp, seed, kwargs = config.fingerprint(), config.eval.seed, _eval_kwargs(config)
    report = ev.RobustnessReport(
        target_name=str(config.eval.target_checkpoint), config_fingerprint=fp,
        corpus_fingerprint=corpus.fingerprint, global_seed=config.seed)
    curves_csv: list[str] = []
    for scenario in config.eval.scenarios:
        source, source_name = None, None
        if scenario.kind == "transfer":
            source, source_name = source_params, str(config.eval.source_checkpoint)
        curve = []
        for point, name, spec in _cells(scenario, config.eval):
            acc, snr = ev.accuracy_under_attack(params, corpus, spec, source=source, **kwargs)
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
    corpus = build_corpus(config)
    params = _load_checkpoint_or_missing(config.eval.target_checkpoint,
                                         "eval.target_checkpoint", corpus)
    wav_dir = out_dir / "adv"
    wav_dir.mkdir(parents=True, exist_ok=True)
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
    loaded = [(name, _load_checkpoint_or_missing(path, f"report checkpoint {name!r}", corpus))
              for name, path in config.report.checkpoints]

    iterations = [10, 20, 40] if config.eval.full_grid else list(config.report.iterations)
    scenarios = [ScenarioSection("clean"), ScenarioSection("fgsm")] + [
        ScenarioSection(kind, iterations=t) for kind in REPORT_ATTACKS for t in iterations]
    cells = {name: spec for scenario in scenarios
             for _, name, spec in _cells(scenario, config.eval)}
    kwargs = _eval_kwargs(config)
    rows = []
    for name, params in loaded:
        rows.append((name, [ev.accuracy_under_attack(params, corpus, spec, **kwargs)[0]
                            for spec in cells.values()]))
        print(f"evaluated {name}")

    stamp = f"# fingerprint={config.fingerprint()} seed={config.seed}"
    width = max(len(name) for name, _ in rows)
    table = [f"{stamp} eps={config.eval.epsilon:g}",
             "defense".ljust(width) + "".join(f"  {c:>8}" for c in cells)]
    table += [name.ljust(width) + "".join(f"  {a:8.2f}" for a in accs) for name, accs in rows]
    csv = [stamp, "defense," + ",".join(cells)]
    csv += [name + "," + ",".join(f"{a:.2f}" for a in accs) for name, accs in rows]
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
        config = load_config(args.config, args.overrides)
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
    except (FileNotFoundError, CheckpointError) as exc:
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

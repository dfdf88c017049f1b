#!/usr/bin/env python3
"""advspeaker benchmark.

One workload in one process, from the root of a checkout:

    python3 perfbench/run.py --workload desk-hat-epoch --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` is a separate run that records spans around the program's
public functions and reports the per-layer metrics. The last line of
stdout is the result as one JSON object; the lines before it, and a file
under ``.perfbench_out/``, record the environment, the output checks,
bit-exactness against ``references.json`` and, for a traced run, the
tracing overhead against the untraced run of the same seed. ``setup_s``
is the median of SETUP_REPEATS cold set-ups: all but one in child
processes (``--setup-once``), then the run's own.

Every workload, untraced then traced, printed as one table:

    python3 perfbench/run.py --all [--seed 1] [--seconds 25]

Record the bit-exactness references again (only after an intended change
of the program's outputs):

    python3 perfbench/run.py --record-references 0-19
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
OUT = REPO / ".perfbench_out"
SETUP_REPEATS = 7
PROBE_REPEATS = 5


# ---------------------------------------------------------------------------
# environment

def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy bundles, if it can be asked."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = REPO / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = REPO / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    modules = sorted((SRC / "advspeaker").glob("*.py"))
    loc = {p.stem: len(p.read_text().splitlines()) for p in modules}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "loc": dict(loc, total=sum(loc.values())),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# one run

def cold_setup_seconds(args) -> float:
    """Time one set-up in a fresh process, which starts as cold as this one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-once"]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up in a child process exited with {proc.returncode}")
    return float(proc.stdout.splitlines()[-1])


def setup_once(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size == "smoke", OUT)
    gc.collect()
    began = time.perf_counter()
    workload.setup()
    print(repr(time.perf_counter() - began))
    return 0


def timed_loop(workload, checks, seconds: float, references: list | None) -> dict:
    """Repeat units until the next one would end after ``seconds``."""
    rates, units = [], []
    attempted = failed = 0
    bitexact = {"match": 0, "differ": 0, "unrecorded": 0}
    digests: dict[int, str] = {}
    first_rss = None
    start = time.perf_counter()
    index, last = 0, 0.0
    while index == 0 or time.perf_counter() - start + last <= seconds:
        workload.prepare(index)
        began = time.perf_counter()
        try:
            unit = workload.run_unit(index, checks)
        except Exception:  # a raising unit is a failed operation; keep measuring
            traceback.print_exc()
            checks.take()
            checks.problems.append(f"unit {index} raised")
            unit = None
        last = time.perf_counter() - began
        # the peak grows with the number of units run, which depends on speed,
        # so the reported peak covers a fixed amount of work: set-up and one unit
        first_rss = first_rss or peak_rss_mb()
        if unit is None:
            attempted += workload.batches_per_unit
            failed += workload.batches_per_unit
        else:
            digests[index] = unit.digest
            earlier = digests.get(index - workload.cycle)
            if earlier is not None and earlier != unit.digest:
                # the work repeats every cycle, and so must its outputs, bit for bit
                checks.problems.append(f"unit {index} did not reproduce unit "
                                       f"{index - workload.cycle}")
                unit.failed = unit.batches
            attempted += unit.batches
            failed += unit.failed
            if not unit.failed:
                rates += [n / t for n, t in unit.batch_times or [(unit.examples, last)]]
            position = index % workload.cycle
            if references is None or position >= len(references):
                bitexact["unrecorded"] += 1
            else:
                bitexact["match" if references[position] == unit.digest else "differ"] += 1
            units.append(dict(unit.detail, unit=index, seconds=last, digest=unit.digest))
        index += 1
    return {"rates": rates, "attempted": attempted, "failed": failed, "first_rss": first_rss,
            "bitexact": bitexact, "units": units}


def probe_log_mel(workload, seed: int) -> dict:
    """Median forward and backward time of log_mel alone at the workload's batch shape."""
    from advspeaker import autodiff, frontend

    ops = workload.params.frontend_ops
    x = np.random.default_rng(seed).uniform(-0.1, 0.1, size=workload.batch_shape)
    fwd, bwd = [], []
    for _ in range(PROBE_REPEATS):
        xv = autodiff.Value(x, requires_grad=True)
        t0 = time.perf_counter()
        out = frontend.log_mel(xv, ops)
        t1 = time.perf_counter()
        autodiff.backward(autodiff.reduce_sum(out))
        t2 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
    return {"fwd_ms": 1e3 * statistics.median(fwd), "bwd_ms": 1e3 * statistics.median(bwd)}


def layer_value(name: str, timed: dict, setup: dict, sinkhorn: dict,
                probe: dict, traced_rate: float) -> float:
    """Resolve a per-layer metric name of BENCHMARK.json to its value."""
    if name == "trace.examples_per_s":
        return traced_rate
    span, stat = name.rsplit(".", 1)
    if stat in ("calls", "busy_s", "self_s"):
        return timed.get(span, {}).get(stat, 0)
    if stat == "s":  # a step of the traced set-up
        return setup.get(span, {}).get("busy_s", 0.0)
    if span == "losses.sinkhorn_ot":
        return sinkhorn[stat]
    if span == "frontend.log_mel":
        return probe[stat]
    raise KeyError(f"no source for per-layer metric {name!r}")


def result_path(workload: str, seed: int, trace: int, size: str) -> Path:
    suffix = "" if size == "full" else f"-{size}"
    return OUT / f"{workload}-s{seed}-t{trace}{suffix}.json"


def run_one(args, spec: dict) -> int:
    from checks import OutputChecks, load_references
    from tracing import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.size == "smoke", OUT)
    references = (load_references().get(args.workload, {}).get(str(args.seed))
                  if args.size == "full" else None)
    checks = OutputChecks()
    tracer = Tracer() if args.trace else None
    # every set-up is cold: SETUP_REPEATS - 1 in child processes, then the one that is used
    setup_s = [cold_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(checks.installed())  # outermost: check time stays out of spans
        gc.collect()
        setup_from = tracer.mark() if tracer else None
        began = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - began)
        setup_to = tracer.mark() if tracer else None
        gc.collect()
        timed_from = tracer.mark() if tracer else None
        loop = timed_loop(workload, checks, args.seconds, references)
        timed_to = tracer.mark() if tracer else None

    attempted, failed = loop["attempted"], loop["failed"]
    # the first sample pays for faulting in the process's working memory
    samples = loop["rates"][1:] or loop["rates"]
    rate = statistics.median(samples) if samples else 0.0
    measured = {
        "examples_per_s": rate,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": loop["first_rss"],
        "ok_frac": (attempted - failed) / attempted,
    }
    overhead = None
    if tracer is None:
        wanted = spec["end_to_end"]
    else:
        wanted = spec["per_layer"]
        timed = tracer.totals(timed_from, timed_to)
        setup = tracer.totals(setup_from, setup_to)
        sinkhorn = tracer.sinkhorn_stats(timed_from, timed_to)
        probe = probe_log_mel(workload, args.seed)
        measured = {m["name"]: layer_value(m["name"], timed, setup, sinkhorn, probe, rate)
                    for m in wanted}
        tracer.write(OUT / f"trace-{result_path(args.workload, args.seed, 1, args.size).name}")
        untraced = result_path(args.workload, args.seed, 0, args.size)
        if untraced.is_file():
            base = json.loads(untraced.read_text())["result"]["metrics"]["examples_per_s"]["value"]
            overhead = 1.0 - rate / base if base else None
    result = {
        "correct": not checks.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env,
              "setup_s": setup_s, "unit_rates": loop["rates"], "units": loop["units"],
              "peak_rss_mb_whole_run": peak_rss_mb(),
              "problems": checks.problems, "bitexact": loop["bitexact"],
              "trace_overhead": overhead, "result": result}
    result_path(args.workload, args.seed, args.trace, args.size).write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("environment: " + json.dumps(env, sort_keys=True))
    rates = sorted(samples)
    print(f"set-up: {', '.join(f'{s:.3f}' for s in setup_s)} s; {len(loop['units'])} units, "
          f"{len(rates)} timed samples after warm-up, waveforms/s min "
          f"{rates[0] if rates else 0:.2f} "
          f"median {rate:.2f} max {rates[-1] if rates else 0:.2f}")
    if loop["units"]:
        print("last unit: " + json.dumps(loop["units"][-1], sort_keys=True))
    print(f"checks: {attempted - failed}/{attempted} operations passed"
          + (f"; problems: {checks.problems[:5]}" if checks.problems else
             " (epsilon-ball, [-1, 1], finite losses, repeatable outputs)"))
    b = loop["bitexact"]
    print(f"bit-exact: {b['match']} units match references.json, {b['differ']} differ, "
          f"{b['unrecorded']} have no reference")
    if overhead is not None:
        print(f"tracing overhead: {100 * overhead:.2f}% of untraced examples_per_s")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload as one table

def run_all(args, spec: dict) -> int:
    header = ["workload", "setup_s [s]", "examples_per_s [waveforms/s]",
              "peak_rss_mb [MiB]", "failed_frac [ratio]", "checks", "bit-exact",
              "trace overhead"]
    rows = [header]
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        records = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} --trace {trace} exited with {proc.returncode}")
                status = 1
                break
            path = result_path(workload, args.seed, trace, args.size)
            records[trace] = json.loads(path.read_text())
        if len(records) < 2:
            continue
        r0 = records[0]["result"]
        m = r0["metrics"]
        b = records[0]["bitexact"]
        overhead = records[1]["trace_overhead"]
        rows.append([workload, f"{m['setup_s']['value']:.3f}",
                     f"{m['examples_per_s']['value']:.2f}",
                     f"{m['peak_rss_mb']['value']:.1f}",
                     f"{r0['failed'] / r0['attempted']:.4f}",
                     "pass" if r0["correct"] and records[1]["result"]["correct"] else "FAIL",
                     f"{b['match']}/{b['match'] + b['differ']} match"
                     + (f" ({b['unrecorded']} unrecorded)" if b["unrecorded"] else ""),
                     "n/a" if overhead is None else f"{100 * overhead:.2f}%"])
        layers = records[1]["result"]["metrics"]
        print(f"{workload} per-layer: " + ", ".join(
            f"{k}={v['value']:.4g} {v['unit']}" for k, v in layers.items()))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return status


# ---------------------------------------------------------------------------
# bit-exactness references

def record_references(seeds: list[int]) -> int:
    from checks import REFERENCES, OutputChecks, load_references
    from workloads import WORKLOADS

    references = load_references()
    for name, factory in WORKLOADS.items():
        for seed in seeds:
            workload = factory(seed, False, OUT)
            checks = OutputChecks()
            with checks.installed():
                workload.setup()
                digests = []
                for index in range(workload.reference_units):
                    workload.prepare(index)
                    digests.append(workload.run_unit(index, checks).digest)
            if checks.problems:
                print(f"{name} seed {seed}: {checks.problems}", file=sys.stderr)
                return 1
            references.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {digests}", flush=True)
            REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest shapes, for the self-test")
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced; print one table")
    parser.add_argument("--setup-once", action="store_true",
                        help="time one set-up of --workload, print the seconds and exit")
    parser.add_argument("--record-references", metavar="SEEDS",
                        help="rewrite references.json for a seed range such as 0-19")
    args = parser.parse_args(argv)

    if not (SRC / "advspeaker").is_dir() or not (REPO / "configs").is_dir():
        print(f"perfbench: {SRC / 'advspeaker'} or {REPO / 'configs'} is missing; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args, spec)
    if args.record_references:
        return record_references(parse_seeds(args.record_references))
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_once:
        return setup_once(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

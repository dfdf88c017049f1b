#!/usr/bin/env python3
"""Train all five desk-scale presets and render the defense comparison table.

Roughly 25 minutes on a desktop CPU; artifacts land under runs/, and the
report config that built the table is kept as runs/comparison.json.

    python scripts/run_desk_suite.py [--epochs N] [--out-root runs]
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from advspeaker import cli  # noqa: E402

DESK_PRESETS = ["desk-standard", "desk-fgsm-at", "desk-pgd-at", "desk-fs-at", "desk-hat"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--epochs", type=int, default=None,
                        help="override training epochs for a faster smoke run")
    parser.add_argument("--out-root", default="runs")
    args = parser.parse_args()

    out_root = Path(args.out_root)
    checkpoints = []
    for name in DESK_PRESETS:
        out_dir = out_root / name
        overrides = [f"output_dir={out_dir}"]
        if args.epochs is not None:
            overrides.append(f"train.epochs={args.epochs}")
        argv = ["train", "--config", str(REPO / "configs" / f"{name}.json")]
        for expr in overrides:
            argv += ["--set", expr]
        print(f"=== {name} ===")
        code = cli.main(argv)
        if code != 0:
            return code
        checkpoints.append([name.removeprefix("desk-"), str(out_dir / "checkpoint.npz")])

    report_raw = json.loads((REPO / "configs" / "desk-hat.json").read_text())
    report_raw["output_dir"] = str(out_root / "comparison")
    report_raw["report"] = {"checkpoints": checkpoints}
    report_config = out_root / "comparison.json"  # kept beside the table it produced
    report_config.write_text(json.dumps(report_raw, indent=2) + "\n")
    print("=== comparison table ===")
    return cli.main(["report", "--config", str(report_config)])


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Calibrate the chain and reproduce all four figure scenarios as CSVs.

Equivalent to:

    qfdc calibrate configs/default.json
    qfdc run fig4a configs/default.json
    qfdc run fig4b configs/default.json
    qfdc run fig5  configs/default.json
    qfdc run fig6  configs/default.json

plus the fig5 control run with the interferometer removed.
"""

import argparse
import sys
import time
from pathlib import Path

from qfdc.cli import main as qfdc_main

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CONFIG = REPO_ROOT / "configs" / "default.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(DEFAULT_CONFIG))
    parser.add_argument("--out-dir", default=None,
                        help="override the config's output directory")
    args = parser.parse_args()

    steps = [("calibration.json", ["calibrate", args.config])]
    steps += [(f"{s}.csv", ["run", s, args.config]) for s in ("fig4a", "fig4b", "fig5", "fig6")]
    steps += [("fig5_control.csv", ["run", "fig5", args.config, "--no-interferometer"])]
    if args.out_dir:
        steps = [(name, step + ["--out", str(Path(args.out_dir) / name)])
                 for name, step in steps]

    for _, step in steps:
        t0 = time.perf_counter()
        code = qfdc_main(step)
        print(f"[{time.perf_counter() - t0:6.1f}s] qfdc {' '.join(step)} -> exit {code}")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

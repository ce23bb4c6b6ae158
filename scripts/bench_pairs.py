#!/usr/bin/env python3
"""Paired benchmark runs of two source checkouts, written as one BENCH_<n>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_17.json

PARENT_DIR must be a ``git clone`` of the parent commit (cloning works
offline); a checkout without git history is refused, so every report names
the commit it measured.

Runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` in
each checkout, one pair per seed: seeds 200-209, ten pairs, on every
workload. Pair k runs the parent first when k is even and the change first
when it is odd, so a drift in machine speed does not favour one side.
``summary`` compares the pairs per workload and end-to-end metric, with
``gain_shown`` true when the change is lower in at least 9 of every 10 pairs
and the median difference exceeds the parent's interquartile range; ``runs``
holds every run's JSON line. Uses the standard library only; a run that
fails is recorded with its exit code and standard error, and counts as not
correct; a run that reports itself not correct keeps the first
``FAIL_LINES`` ``FAIL ...`` lines of its standard error as ``fail_lines``.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = dict.fromkeys(("dense_map", "reproduce", "long_integration"), range(200, 210))
METRICS = ("setup_s", "pass_s", "peak_rss_mb")
FAIL_LINES = 20  # the FAIL lines kept of a run that is not correct


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its last stdout line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    if not result.get("correct"):
        # bench/run.py exits 0 after a failed check; its FAIL lines name the check
        result["fail_lines"] = [line for line in proc.stderr.splitlines()
                                if line.startswith("FAIL ")][:FAIL_LINES]
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], workload: str) -> dict:
    """Per-metric comparison of the paired runs of one workload (lower is better)."""
    by_side = {side: {r["seed"]: r["result"] for r in runs
                      if r["workload"] == workload and r["side"] == side}
               for side in ("parent", "change")}
    seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
    ok = [s for s in seeds if "metrics" in by_side["parent"][s] and "metrics" in by_side["change"][s]]
    summary = {}
    for metric in METRICS if len(ok) >= 2 else ():
        values = {side: [by_side[side][s]["metrics"][metric]["value"] for s in ok]
                  for side in by_side}
        parent, change = spread(values["parent"]), spread(values["change"])
        summary[metric] = {
            "parent": parent,
            "change": change,
            "seeds": ok,
            "pairs": len(ok),
            "change_lower_in": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "change_median_over_parent_median": change["median"] / parent["median"],
            "median_difference": parent["median"] - change["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
        }
        summary[metric]["gain_shown"] = gain_shown(summary[metric])
    summary["failed_over_attempted"] = {
        side: [sum(r.get("failed", 0) for r in results.values()),
               sum(r.get("attempted", 0) for r in results.values())]
        for side, results in by_side.items()}
    summary["all_correct"] = all(r.get("correct") for results in by_side.values()
                                 for r in results.values())
    return summary


def gain_shown(compared: dict) -> bool:
    """Whether the pairs show a gain: the change lower in at least 9 of every
    10 pairs, and the median difference above the parent's IQR."""
    return (compared["change_lower_in"] >= math.ceil(0.9 * compared["pairs"])
            and compared["median_difference"] > compared["parent_iqr"])


def numpy_version() -> str:
    proc = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "not installed"


def git_head(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", nargs="+", choices=sorted(SEEDS), default=list(SEEDS))
    parser.add_argument("--claim", default="", help="the claim the runs are meant to test")
    args = parser.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    parent_commit = git_head(sides["parent"])
    if parent_commit is None:
        parser.error(f"{args.parent} has no git history; pass a `git clone` of the parent commit")
    runs = []
    for workload in args.workloads:
        for k, seed in enumerate(SEEDS[workload]):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                result = bench_run(sides[side], workload, seed, args.seconds)
                runs.append({"side": side, "workload": workload, "seed": seed,
                             "first": order[0], "trace": 0, "result": result})
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(result.get('metrics', result))}", file=sys.stderr)

    report = {
        "description": (
            f"Outputs of `python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
            "--trace 0`, run by scripts/bench_pairs.py from two copies of the tree: the parent "
            "commit and this change. Each pair runs both sides on one seed, alternating which "
            "runs first. End-to-end metrics are the bench's scaled values. `summary` compares "
            "the pairs (quartiles by statistics.quantiles, n=4); `runs` holds every run."),
        "machine": (f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
                    f"Python {platform.python_version()}, numpy {numpy_version()}"),
        "parent_commit": parent_commit,
        "claim": args.claim,
        "summary": {w: summarize(runs, w) for w in args.workloads},
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(report["summary"][w]["all_correct"] for w in args.workloads) else 1


if __name__ == "__main__":
    sys.exit(main())

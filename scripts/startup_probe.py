#!/usr/bin/env python3
"""Start-up times of qfdc checkouts, each probe timed inside a fresh interpreter.

    python3 scripts/startup_probe.py PARENT_DIR CHANGE_DIR --runs 21
    python3 scripts/startup_probe.py PARENT_DIR CHANGE_DIR --runs 21 --cached

Each probe runs in a new ``python`` process, which times its own imports
and work with ``time.perf_counter``, so interpreter start-up is left out:

* ``setup``: ``import qfdc``, ``calibrate()``, ``calibrated_chain()``;
* ``validate``: import ``qfdc.cli`` and run ``validate configs/default.json``;
* ``calibrate``: import ``qfdc.cli`` and run ``calibrate configs/default.json``;
* ``run_parse``: import ``qfdc.cli``, parse a ``run`` command line and import
  ``qfdc.experiment``.

Each checkout's ``src`` is copied once to a temporary directory without
``__pycache__``, and the probes import from the copy. Without ``--cached``
every process runs with ``python -B``, so each qfdc module compiles from
source; with ``--cached`` the copy is compiled first with ``compileall``.
Run k takes the checkouts in the given order when k is even and in reverse
when it is odd. Prints each probe's median [q1, q3] in ms per checkout.
Uses the standard library only.
"""

import argparse
import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PROBES = {
    "setup": "import qfdc\nqfdc.calibrated_chain(qfdc.calibrate())\n",
    "validate": "from qfdc.cli import main\nmain(['validate', 'configs/default.json'])\n",
    "calibrate": "from qfdc.cli import main\nmain(['calibrate', 'configs/default.json', '--out', OUT])\n",
    "run_parse": ("from qfdc.cli import parse_args\n"
                  "parse_args(['run', 'fig5', 'configs/default.json'])\nimport qfdc.experiment\n"),
}
TIMED = ("import contextlib, io, time\nOUT = {out!r}\nt0 = time.perf_counter()\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n{body}"
         "print(time.perf_counter() - t0)\n")


def probe_seconds(checkout: Path, src: Path, body: str, out: str, cached: bool) -> float:
    code = TIMED.format(out=out, body="".join(f"    {line}\n" for line in body.splitlines()))
    cmd = [sys.executable, *([] if cached else ["-B"]), "-c", code]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", type=Path, nargs="+", help="qfdc source checkouts")
    parser.add_argument("--runs", type=int, default=21)
    parser.add_argument("--cached", action="store_true", help="compile the sources first")
    args = parser.parse_args()
    times = {(c, p): [] for c in args.checkouts for p in PROBES}
    with tempfile.TemporaryDirectory(prefix="startup-") as tmp:
        srcs = {}
        for k, checkout in enumerate(args.checkouts):
            srcs[checkout] = Path(tmp) / str(k)
            shutil.copytree(checkout / "src", srcs[checkout],
                            ignore=shutil.ignore_patterns("__pycache__"))
            if args.cached:
                compileall.compile_dir(srcs[checkout], quiet=1)
        out = str(Path(tmp) / "calibration.json")
        for k in range(args.runs):
            order = args.checkouts if k % 2 == 0 else args.checkouts[::-1]
            for probe, body in PROBES.items():
                for checkout in order:
                    times[checkout, probe].append(
                        probe_seconds(checkout.resolve(), srcs[checkout], body, out, args.cached))
    for probe in PROBES:
        cells = []
        for checkout in args.checkouts:
            q1, median, q3 = statistics.quantiles(times[checkout, probe], n=4)
            cells.append(f"{checkout}: {median * 1e3:.1f} [{q1 * 1e3:.1f}, {q3 * 1e3:.1f}] ms")
        print(f"{probe:9}  " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())

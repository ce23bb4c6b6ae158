#!/usr/bin/env python3
"""qfdc benchmark: three workloads, output checks, end-to-end and per-layer metrics.

    python3 bench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (or anywhere: paths are resolved
from this file); the package is imported from ``src/`` and nothing needs to
be installed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, the ``per_layer`` metrics
with ``--trace 1``. Failed checks are listed on standard error. See
bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from oracle import Oracle
from tracer import Tracer, layer_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "default.json"
RUN_ALL = ROOT / "scripts" / "run_all_figures.py"
TRACER = BENCH / "tracer.py"

QFDC = [sys.executable, "-c", "import sys; from qfdc.cli import main; sys.exit(main())"]
SETUP_CODE = (
    "import time; t0 = time.perf_counter()\n"
    "import qfdc\n"
    "qfdc.calibrated_chain(qfdc.calibrate())\n"
    "print(repr(time.perf_counter() - t0))"
)
IMPORT_PROBES = {"start": "pass", "numpy": "import numpy", "qfdc": "import qfdc"}
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 9
PROCESS_TIMEOUT_S = 60
MAX_PULL = 5.0
WORKERS_N = 2

#: dense_map: pump power x mu map, 1 s of gates per fringe point. The grid
#: starts at 12 mW: below about 10 mW the fitted c0 of a low-mu scan can land
#: exactly on the dark count probability, and run_fig5 then divides by zero on
#: some seeds (see bench/README.md).
MAP_POWERS_W = [0.012 + 0.018 * k / 7 for k in range(8)]  # 12 .. 30 mW
MAP_MU = [0.01 * 4500.0 ** (k / 31) for k in range(32)]  # log-spaced 0.01 .. 45
MAP_N_PHI = 16
MAP_GATES = 4_000_000

#: long_integration: low-mu fringe tail, 250 s of gates per phase point.
TAIL_MU = [0.01 + 0.016 * k for k in range(6)]  # 0.01 .. 0.09
TAIL_GATES = 1_000_000_000

CSV_SCHEMAS = {
    "fig4a.csv": ["power_mw", "efficiency", "eff_sigma", "noise_per_gate", "noise_sigma"],
    "fig4b.csv": ["mu", "p_raw", "sigma", "p_subtracted", "sigma", "fit_line"],
    "fig5.csv": ["phi_rad", "rate_per_s", "sigma"],
    "fig6.csv": ["mu", "v_raw", "sigma", "v_sub", "sigma", "v_analytic"],
    "fig5_control.csv": ["phi_rad", "rate_per_s", "sigma"],
}


class Ops:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"FAIL {label}: {problem}", file=sys.stderr)


#: Nominal times of the two reference kernels on the 2-core machine the
#: reference figures come from, unloaded.
CPU_NOMINAL_S = 0.004
PROCESS_NOMINAL_S = 0.13
_REF_ARRAY = np.exp(1j * np.linspace(0.0, 1.0, 4096))


def cpu_kernel() -> float:
    """Reference for in-process steps: a pure Python loop plus small numpy
    array operations."""
    t0 = time.perf_counter()
    total = 0
    for k in range(100_000):
        total += k
    for _ in range(40):
        float(np.mean(np.abs(_REF_ARRAY[1:] + _REF_ARRAY[:-1] * np.exp(0.1j)) ** 2))
    return time.perf_counter() - t0


def process_kernel() -> float:
    """Reference for process steps: a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=PROCESS_TIMEOUT_S)
    return time.perf_counter() - t0


class RefClock:
    """Puts step times on one machine speed.

    The CPU speed of a shared host changes by up to 1.6x over seconds to
    minutes as other tenants load its cores, and a process's CPU time slows
    with it. So each step's wall time is divided by the time of a fixed
    reference kernel that calls nothing in qfdc, run just before and just
    after the step, and multiplied by the kernel's nominal time.
    """

    def __init__(self, kernel, nominal_s: float) -> None:
        self._kernel, self._nominal_s = kernel, nominal_s
        self._last = kernel()

    def scale(self, seconds: float) -> float:
        """Scaled time of a step that has just ended."""
        after = self._kernel()
        ref = 0.5 * (self._last + after)
        self._last = after
        return seconds * self._nominal_s / ref


def pull_problems(label: str, observed: float, expected: float, sigma: float) -> list[str]:
    z = (observed - expected) / sigma if sigma > 0.0 else math.inf
    if abs(z) < MAX_PULL:
        return []
    return [f"{label}: {observed!r} vs oracle {expected!r} (sigma {sigma!r}, z = {z:.2f})"]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(ops: Ops, label: str, cmd: list[str], extra_problems=None):
    """Run one child process to completion; returns (seconds, completed process)."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=PROCESS_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    if "Traceback" in proc.stderr:
        problems.append("Traceback on stderr")
    if extra_problems is not None and not problems:
        problems += extra_problems(proc)
    ops.record(label, problems)
    return seconds, proc


def import_probes(ops: Ops) -> dict[str, float]:
    """Fresh-interpreter start and import costs: medians of the differences
    between back-to-back processes that start, import numpy, import qfdc."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        samples.append({
            name: run_process(ops, f"probe {name}", [sys.executable, "-c", code])[0]
            for name, code in IMPORT_PROBES.items()
        })
    return {
        "python.start_s": statistics.median(s["start"] for s in samples),
        "numpy.import_s": statistics.median(s["numpy"] - s["start"] for s in samples),
        "qfdc.import_s": statistics.median(s["qfdc"] - s["numpy"] for s in samples),
    }


class Workload:
    """A fixed round of steps; each untraced step adds one (kind, scaled seconds) sample."""

    def __init__(self, ops: Ops, oracle: Oracle, clock: RefClock) -> None:
        self.ops, self.oracle, self.clock = ops, oracle, clock
        self.samples: list[tuple[str, float]] = []
        self.tracing = False

    def sample(self, kind: str, seconds: float) -> None:
        scaled = self.clock.scale(seconds)
        if not self.tracing:
            self.samples.append((kind, scaled))

    def warmup(self) -> None:
        pass


# --- reproduce ---------------------------------------------------------------


def _read_csv(text: str, schema: list[str]) -> tuple[list[list[float]], list[str]]:
    lines = text.rstrip("\n").split("\n")
    problems = [] if lines[0].split(",") == schema else [f"header {lines[0]!r}"]
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        return [], problems + [f"unparsable value: {exc}"]
    if not rows:
        problems.append("no rows")
    if any(not math.isfinite(v) for row in rows for v in row):
        problems.append("non-finite value")
    return rows, problems


def _stdout_value(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        name, _, value = line.strip().partition(": ")
        if name == key:
            return float(value)
    raise ValueError(f"{key} not printed")


def check_output(name: str, text: str, stdout: str, cfg: dict, oracle: Oracle) -> list[str]:
    """Checks one reproduce output file against the oracle and the config."""
    power = cfg["targets"]["pump_power_w"]
    if name == "calibration.json":
        fitted = json.loads(text)["fitted"]
        return [
            f"fitted {key} = {fitted[key]!r}, config {value!r}"
            for key, value in cfg["chain"].items()
            if not math.isclose(fitted[key], value, rel_tol=1e-9)
        ]
    rows, problems = _read_csv(text, CSV_SCHEMAS[name])
    if problems:
        return problems
    if name == "fig4a.csv":
        top = [r for r in rows if abs(r[0] - power * 1e3) < 1e-9]
        if len(top) != 1:
            return [f"no single row at {power * 1e3} mW"]
        problems += pull_problems("efficiency", top[0][1], oracle.efficiency(power), top[0][2])
        slope = _stdout_value(stdout, "noise_slope_per_w")
        slope_sigma = _stdout_value(stdout, "noise_slope_sigma")
        problems += pull_problems("noise slope", slope, oracle.beta, slope_sigma)
    elif name == "fig4b.csv":
        floor = oracle.p_click(0.0, power)
        for mu, _, _, p_sub, sigma, _ in rows:
            expected = oracle.p_click(mu, power) - floor
            problems += pull_problems(f"p_subtracted mu={mu}", p_sub, expected, sigma)
    elif name in ("fig5.csv", "fig5_control.csv"):
        mu = cfg["scenarios"]["fig5"]["mu"]
        for phi, rate, sigma in rows:
            p = oracle.p_click(mu, power, None if name == "fig5_control.csv" else phi)
            problems += pull_problems(f"rate phi={phi}", rate, p * oracle.gate_rate_hz, sigma)
    else:
        for mu, *_, v_analytic in rows:
            expected = oracle.visibility(mu, power)[0]
            if not math.isclose(v_analytic, expected, rel_tol=1e-9):
                problems.append(f"v_analytic mu={mu}: {v_analytic!r} vs oracle {expected!r}")
    return problems


class Reproduce(Workload):
    """The README's CLI sequence, one fresh interpreter per command, then
    run_all_figures.py; one step is one process."""

    def __init__(self, seed: int, tmp: Path, ops: Ops, oracle: Oracle) -> None:
        super().__init__(ops, oracle, RefClock(process_kernel, PROCESS_NOMINAL_S))
        self.tmp = tmp
        cfg = json.loads(CONFIG.read_text())
        cfg["seed"] = random.Random(seed).getrandbits(32)
        cfg.pop("output_dir", None)
        self.cfg = cfg
        self.config = tmp / "config.json"
        self.config.write_text(json.dumps(cfg, indent=2))
        self.first_pass: dict[str, bytes] = {}

    def setup(self) -> list[float]:
        times = []
        for _ in range(SETUP_SAMPLES):
            seconds, _ = run_process(self.ops, "qfdc validate",
                                     QFDC + ["validate", str(self.config)])
            times.append(self.clock.scale(seconds))
        return times

    def _outputs_check(self, outputs: dict[str, Path]):
        def check(proc) -> list[str]:
            problems = []
            for name, path in outputs.items():
                try:
                    data = path.read_bytes()
                    problems += check_output(name, data.decode(), proc.stdout,
                                             self.cfg, self.oracle)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems.append(f"{name}: {exc!r}")
                    continue
                if data != self.first_pass.setdefault(name, data):
                    problems.append(f"{name} differs from the first pass with the same seed")
            return problems
        return check

    def round(self) -> list[dict]:
        cli_dir, all_dir, trace_dir = (self.tmp / d for d in ("cli", "run_all", "trace"))
        for d in (cli_dir, all_dir, trace_dir):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir()
        cfg = str(self.config)
        steps = [("calibration.json", ["calibrate", cfg])]
        steps += [(f"{s}.csv", ["run", s, cfg]) for s in ("fig4a", "fig4b", "fig5", "fig6")]
        steps += [("fig5_control.csv", ["run", "fig5", cfg, "--no-interferometer"])]
        for i, (name, args) in enumerate(steps):
            out = cli_dir / name
            prefix = ([sys.executable, str(TRACER), str(trace_dir / f"{i}.json"), "cli"]
                      if self.tracing else QFDC)
            seconds, _ = run_process(self.ops, f"qfdc -> {name}",
                                     prefix + args + ["--out", str(out)],
                                     self._outputs_check({name: out}))
            self.sample(name, seconds)
        prefix = ([sys.executable, str(TRACER), str(trace_dir / "run_all.json")]
                  if self.tracing else [sys.executable])
        seconds, _ = run_process(self.ops, "run_all_figures.py",
                                 prefix + [str(RUN_ALL), "--config", cfg, "--out-dir", str(all_dir)],
                                 self._outputs_check({name: all_dir / name for name, _ in steps}))
        self.sample("run_all_figures.py", seconds)
        if not self.tracing:
            return []
        dumps = [json.loads(t.read_text()) for t in sorted(trace_dir.glob("*.json"))]
        csv_bytes = sum(p.stat().st_size for d in (cli_dir, all_dir) for p in d.glob("*.csv"))
        return dumps + [{"spans": [], "counters": {"cli.csv_bytes": csv_bytes}}]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --- in-process workloads ----------------------------------------------------


class InProcess(Workload):
    """Shared set-up, tracing and bookkeeping of the two in-process workloads."""

    def __init__(self, seed: int, tmp: Path, ops: Ops, oracle: Oracle) -> None:
        super().__init__(ops, oracle, RefClock(cpu_kernel, CPU_NOMINAL_S))
        self.rng = random.Random(seed)
        self.tracer = Tracer()
        sys.path.insert(0, str(SRC))
        from qfdc import calibration, experiment
        self.calibration, self.experiment = calibration, experiment

    def setup(self) -> list[float]:
        # set-up runs in a fresh interpreter, so it is scaled like a process step
        clock = RefClock(process_kernel, PROCESS_NOMINAL_S)
        times = []
        for _ in range(SETUP_SAMPLES):
            _, proc = run_process(self.ops, "setup", [sys.executable, "-c", SETUP_CODE])
            if proc.returncode == 0:
                times.append(clock.scale(float(proc.stdout.strip().splitlines()[-1])))
        return times

    def warmup(self) -> None:
        self.step(self.chain(), 0)

    def chain(self):
        return self.calibration.calibrated_chain(self.calibration.calibrate())

    def timed_op(self, label: str, call, check):
        """Time one call into qfdc, then check its result; returns (seconds, result).

        An exception or a failed check fails the operation; the check is
        not timed.
        """
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # any exception is a failed operation
            self.ops.record(label, [f"{type(exc).__name__}: {exc}"])
            return time.perf_counter() - t0, None
        seconds = time.perf_counter() - t0
        try:
            problems = check(result)
        except Exception as exc:  # a result the checks cannot read fails too
            problems = [f"unreadable result: {type(exc).__name__}: {exc}"]
        self.ops.record(label, problems)
        return seconds, result

    def round(self) -> list[dict]:
        if self.tracing:
            self.tracer.reset()
            self.tracer.install()
        try:
            chain = self.chain()
            for i in range(self.n_steps):
                self.step(chain, i)
        finally:
            if self.tracing:
                self.tracer.uninstall()
        return [self.tracer.dump()] if self.tracing else []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class DenseMap(InProcess):
    """run_fig6 rows over a pump power x mu grid; one step is one row."""

    n_steps = len(MAP_POWERS_W)

    def step(self, chain, i: int) -> None:
        power = MAP_POWERS_W[i]
        seed = self.rng.getrandbits(63)
        seconds, _ = self.timed_op(
            f"run_fig6 P={power}",
            lambda: self.experiment.run_fig6(
                chain.at_pump_power(power), MAP_MU, n_phi=MAP_N_PHI,
                gates_per_point=MAP_GATES, seed=seed),
            lambda scan: self.check(scan, power))
        self.sample("run_fig6", seconds)

    def check(self, scan, power: float) -> list[str]:
        problems = []
        cols = scan.columns
        for mu, v, sigma in zip(scan.abscissa, cols["v_raw"], cols["v_raw_sigma"]):
            expected = self.oracle.visibility(mu, power)[0]
            problems += pull_problems(f"v_raw P={power} mu={mu}", v, expected, sigma)
        return problems


class LongIntegration(InProcess):
    """Low-mu run_fig5 scans at 1e9 gates per phase point, each mu scanned
    with workers=1 and then workers=WORKERS_N on the same seed; one step is
    one serial scan."""

    n_steps = len(TAIL_MU)

    def step(self, chain, i: int) -> None:
        mu = TAIL_MU[i]
        seed = self.rng.getrandbits(63)

        def scan(workers: int):
            return lambda: self.experiment.run_fig5(
                chain, mu, gates_per_point=TAIL_GATES, seed=seed, workers=workers)

        seconds, serial = self.timed_op(
            f"run_fig5 mu={mu} workers=1", scan(1), lambda r: self.check(r, mu))
        self.sample("run_fig5 workers=1", seconds)
        seconds, _ = self.timed_op(
            f"run_fig5 mu={mu} workers={WORKERS_N}", scan(WORKERS_N),
            lambda r: self.check(r, mu) + self.same_clicks(serial, r))
        # The threaded scan's wall time depends on whether the host gives the
        # process both cores at once, which the single-thread reference cannot
        # correct for, so it stays out of pass_s; the reference is still run to
        # bracket the next serial scan.
        self.clock.scale(seconds)

    def check(self, scan, mu: float) -> list[str]:
        power = self.oracle.pump_power_w
        problems = []
        for phi, summary in zip(scan.abscissa, scan.raw):
            expected = self.oracle.p_click(mu, power, phi)
            problems += pull_problems(f"p_click phi={phi}", summary.p_click, expected,
                                      summary.sigma_p)
        problems += pull_problems("visibility", scan.fit["visibility"],
                                  self.oracle.visibility(mu, power)[0],
                                  scan.fit["visibility_sigma"])
        return problems

    @staticmethod
    def same_clicks(serial, threaded) -> list[str]:
        if serial is None:
            return ["no workers=1 scan to compare with"]
        a = [s.clicks for s in serial.raw]
        b = [s.clicks for s in threaded.raw]
        return [] if a == b else [f"click counts differ from workers=1: {a} vs {b}"]


WORKLOADS = {"reproduce": Reproduce, "dense_map": DenseMap,
             "long_integration": LongIntegration}


def measure(workload: Workload, seconds: float) -> dict[str, float]:
    """End-to-end metrics from whole rounds run until ``seconds`` have passed.

    ``pass_s`` is the scaled time of one round: for each kind of step, its
    median scaled time times the number of such steps in a round.
    """
    setup = workload.setup()
    workload.warmup()
    workload.samples.clear()
    rounds = 0
    t0 = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t0 < seconds:
        workload.round()
        rounds += 1
    by_kind: dict[str, list[float]] = defaultdict(list)
    for kind, scaled in workload.samples:
        by_kind[kind].append(scaled)
    return {
        "setup_s": statistics.median(setup),
        "pass_s": sum(len(v) / rounds * statistics.median(v) for v in by_kind.values()),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def measure_traced(workload: Workload, seconds: float, ops: Ops) -> dict[str, float]:
    """Per-layer metrics per round: untraced and traced rounds alternate.

    Calls, counters and self times are medians over the traced rounds (the
    counts are the same in every round); the tracing overhead is the median
    traced round's wall time minus the median untraced round's.
    """
    metrics = import_probes(ops)
    workload.warmup()
    plain, traced, per_round = [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        t1 = time.perf_counter()
        workload.round()
        t2 = time.perf_counter()
        workload.tracing = True
        try:
            dumps = workload.round()
        finally:
            workload.tracing = False
        plain.append(t2 - t1)
        traced.append(time.perf_counter() - t2)
        totals = layer_totals(dumps)
        totals["detector.sample_gates.calls"] = (
            totals["detector.sample_gates.w1.calls"] + totals["detector.sample_gates.wN.calls"])
        per_round.append(totals)
    names = set().union(*per_round)
    metrics.update({name: statistics.median(t[name] for t in per_round) for name in names})
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (SRC / "qfdc" / "__init__.py", CONFIG, RUN_ALL, ROOT / "BENCHMARK.json")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"not a qfdc source checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    oracle = Oracle.from_config(json.loads(CONFIG.read_text()))
    disagreements = oracle.paper_check()
    if disagreements:
        print("oracle disagrees with the paper:", *disagreements, sep="\n", file=sys.stderr)
        return 2

    ops = Ops()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp, ops, oracle)
        if args.trace:
            values = measure_traced(workload, args.seconds, ops)
        else:
            values = measure(workload, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    if args.trace:
        # a layer the workload does not reach reports zero calls and zero time
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

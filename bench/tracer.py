"""Per-layer spans recorded from outside the package.

The tracer replaces module attributes of ``qfdc`` with wrappers that record
one span per call (name, start, end, parent) in memory, plus a few work
counters taken from the call arguments. Modules bind their imports by name,
so each function is wrapped under the name the *calling* module looks up:
``qfdc.experiment.sample_gates``, not ``qfdc.detector.sample_gates``.
A layer's self time is its spans' duration minus the time of their child
spans. Spans nest on one stack: every wrapped call runs on the thread that
called into ``qfdc``; the worker threads of ``sample_gates`` run only
unwrapped code.

Run as a script, it traces one ``qfdc`` CLI process or one script and
writes the spans to a JSON file when that process ends::

    python3 bench/tracer.py TRACE.json cli run fig5 configs/default.json
    python3 bench/tracer.py TRACE.json scripts/run_all_figures.py --out-dir D
"""

from __future__ import annotations

import functools
import importlib
import json
import runpy
import sys
import time
from collections import defaultdict


def _sample_gates_name(args, kwargs) -> str:
    workers = kwargs.get("workers", args[4] if len(args) > 4 else 1)
    return "detector.sample_gates.w1" if workers == 1 else "detector.sample_gates.wN"


def _slots(args, kwargs):
    return "optics.slots", int(kwargs.get("n_slots", args[1]))


def _gates(args, kwargs):
    return "detector.gates", int(kwargs.get("n_gates", args[2]))


_SCANS = ("run_fig4a", "run_fig4b", "run_fig5", "run_fig6")

#: (calling module, attribute, span name, counter) for every wrapped call site.
PATCHES = (
    [("qfdc.cli", name, "cli." + name, None)
     for name in ("load_config", "run_scenario", "cmd_run")]
    + [("qfdc.cli", "calibrate", "calibration.calibrate", None),
       ("qfdc.cli", "calibrated_chain", "calibration.calibrated_chain", None)]
    + [("qfdc.cli", name, "experiment.scan", None) for name in _SCANS]
    + [("qfdc.calibration", "calibrate", "calibration.calibrate", None),
       ("qfdc.calibration", "calibrated_chain", "calibration.calibrated_chain", None),
       ("qfdc.calibration", "expected_rate", "experiment.closed_form", None),
       ("qfdc.calibration", "analytic_visibility", "experiment.closed_form", None)]
    + [("qfdc.experiment", name, "experiment.scan", None) for name in _SCANS]
    + [("qfdc.experiment", "chain_point_mean", "experiment.chain_point_mean", None),
       ("qfdc.experiment", "simulate_point", "experiment.simulate_point", None),
       ("qfdc.experiment", "fit_cosine", "experiment.fit", None),
       ("qfdc.experiment", "fit_through_origin", "experiment.fit", None),
       ("qfdc.experiment", "expected_rate", "experiment.closed_form", None),
       ("qfdc.experiment", "analytic_visibility", "experiment.closed_form", None),
       ("qfdc.experiment", "coherent_train", "optics.coherent_train", _slots),
       ("qfdc.experiment", "attenuate", "optics.attenuate", None),
       ("qfdc.experiment", "convert", "mixer.convert", None),
       ("qfdc.experiment", "transmit_train", "interferometer.transmit_train", None),
       ("qfdc.experiment", "derive_seed", "detector.derive_seed", None),
       ("qfdc.experiment", "sample_gates", _sample_gates_name, _gates)]
)


class Tracer:
    """In-memory span and counter store; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.counters, self._stack = [], defaultdict(int), []

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                key, amount = counter(args, kwargs)
                self.counters[key] += amount
            span_name = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            self.spans.append([span_name, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def layer_totals(dumps) -> dict[str, float]:
    """Sum calls, self time and counters per layer over traced processes.

    Gives ``<span>.calls`` and ``<span>.self_s`` for every span name, plus
    each counter under its own name.
    """
    totals: dict[str, float] = defaultdict(float)
    for dump in dumps:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(spans, child_time):
            totals[name + ".calls"] += 1
            totals[name + ".self_s"] += (end - start) - children
        for key, value in dump["counters"].items():
            totals[key] += value
    return totals


def _main(argv: list[str]) -> int:
    trace_path, target, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        if target == "cli":
            from qfdc.cli import main
            return main(rest)
        sys.argv = [target] + rest
        try:
            runpy.run_path(target, run_name="__main__")
        except SystemExit as exc:
            if exc.code is None or isinstance(exc.code, int):
                return exc.code or 0
            return 1
        return 0
    finally:
        with open(trace_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))

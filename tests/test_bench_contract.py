"""The benchmark's own output checks, run in-process on the package.

``bench/run.py`` is loaded read-only as a module, and its workload steps and
``check_output`` judge what the package computes and writes now, so a change
that would make a benchmark run count failed operations fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qfdc.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
CONFIG = ROOT / "configs" / "default.json"


@pytest.fixture(scope="module")
def bench():
    """``bench/run.py``, imported with ``bench/`` on the path for its own imports."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.fixture(scope="module")
def oracle(bench):
    oracle = bench.Oracle.from_config(json.loads(CONFIG.read_text()))
    assert oracle.paper_check() == []
    return oracle


@pytest.mark.parametrize("workload, operations", [("DenseMap", 1), ("LongIntegration", 2)])
def test_workload_step_passes_its_checks(bench, oracle, tmp_path, monkeypatch, capsys,
                                         workload, operations):
    # the in-process workloads put src/ on sys.path; give them a copy to extend
    monkeypatch.setattr(sys, "path", list(sys.path))
    ops = bench.Ops()
    work = getattr(bench, workload)(1, tmp_path, ops, oracle)
    work.step(work.chain(), 0)
    assert ops.attempted == operations
    assert ops.failed == 0, capsys.readouterr().err


#: The reproduce workload's CLI sequence: (output file, command).
_STEPS = [("calibration.json", ["calibrate", str(CONFIG)])]
_STEPS += [(f"{s}.csv", ["run", s, str(CONFIG)]) for s in ("fig4a", "fig4b", "fig5", "fig6")]
_STEPS += [("fig5_control.csv", ["run", "fig5", str(CONFIG), "--no-interferometer"])]


@pytest.mark.parametrize("name, argv", _STEPS, ids=[name for name, _ in _STEPS])
def test_reproduce_output_passes_its_checks(bench, oracle, tmp_path, capsys, name, argv):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    cfg = json.loads(CONFIG.read_text())
    assert bench.check_output(name, out.read_text(), stdout, cfg, oracle) == []

"""What importing the package and its command line loads and provides."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfdc

ROOT = Path(__file__).resolve().parents[1]

#: The top-level names that ``qfdc`` imports on first access, and their modules.
LAZY_NAMES = {
    "CountSummary": "detector",
    "ScanResult": "experiment",
    "run_fig4a": "experiment",
    "run_fig4b": "experiment",
    "run_fig5": "experiment",
    "run_fig6": "experiment",
}

#: The package's modules after the set-up the bench times, whether that
#: set-up loaded ``dataclasses`` or ``inspect``, and then whether each lazy
#: name is its module's object when it is first accessed.
_SETUP_PROBE = """
import importlib, json, sys
import qfdc
qfdc.calibrated_chain(qfdc.calibrate())
loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "qfdc")
stdlib = {name: name in sys.modules for name in ("dataclasses", "inspect")}
same = {name: getattr(qfdc, name) is getattr(importlib.import_module("qfdc." + module), name)
        for name, module in json.loads(sys.argv[1]).items()}
print(json.dumps({"loaded": loaded, "stdlib": stdlib, "same": same}))
"""

#: Records whether numpy is loaded after each start-up step, then after a run.
_STARTUP_PROBE = """
import json, sys
cfg, out = sys.argv[1], sys.argv[2]
loaded = {}
import qfdc.cli
loaded["import qfdc.cli"] = "numpy" in sys.modules
from qfdc.cli import main
assert main(["validate", cfg]) == 0
loaded["validate"] = "numpy" in sys.modules
assert main(["calibrate", cfg, "--out", out + "/calibration.json"]) == 0
loaded["calibrate"] = "numpy" in sys.modules
import qfdc
qfdc.calibrated_chain(qfdc.calibrate())
loaded["calibrated_chain"] = "numpy" in sys.modules
assert main(["run", "fig5", cfg, "--out", out + "/fig5.csv"]) == 0
loaded["run fig5"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""

#: The package's modules after ``validate``, ``calibrate`` and a run, and
#: whether the CLI's driver is then ``experiment``'s.
_CLI_PROBE = """
import json, sys
cfg, out = sys.argv[1], sys.argv[2]
def qfdc_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "qfdc")
from qfdc.cli import main
loaded = {}
assert main(["validate", cfg]) == 0
loaded["validate"] = qfdc_modules()
assert main(["calibrate", cfg, "--out", out + "/calibration.json"]) == 0
loaded["calibrate"] = qfdc_modules()
assert main(["run", "fig5", cfg, "--out", out + "/fig5.csv"]) == 0
loaded["run"] = qfdc_modules()
import qfdc.cli, qfdc.experiment
loaded["same"] = qfdc.cli.run_fig6 is qfdc.experiment.run_fig6
print(json.dumps(loaded))
"""


#: The package's modules after each command, and whether argparse, the
#: reference pipeline, ``dataclasses`` or ``inspect`` was loaded by then.
_COMMAND_PROBE = """
import json, sys
cfg, out = sys.argv[1], sys.argv[2]
from qfdc.cli import main
loaded = {}
for argv in (["validate", cfg], ["calibrate", cfg, "--out", out + "/calibration.json"],
             ["run", "fig5", cfg, "--out", out + "/fig5.csv"]):
    assert main(argv) == 0
    loaded[argv[0]] = {
        "qfdc": sorted(name for name in sys.modules if name.partition(".")[0] == "qfdc"),
        "argparse": "argparse" in sys.modules,
        "reference": "qfdc.reference" in sys.modules,
        "dataclasses": "dataclasses" in sys.modules,
        "inspect": "inspect" in sys.modules,
    }
print(json.dumps(loaded))
"""

#: Whether ``experiment`` loads the reference pipeline only when one of its
#: traced names is read, and then returns the reference's object.
_REFERENCE_PROBE = """
import json, sys
import qfdc.experiment
before = "qfdc.reference" in sys.modules
value = qfdc.experiment.chain_point_mean
import qfdc.reference
print(json.dumps({"before": before, "after": "qfdc.reference" in sys.modules,
                  "same": value is qfdc.reference.chain_point_mean}))
"""


def _run_probe(probe: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe, *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def setup_probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, json.dumps(LAZY_NAMES)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_set_up_loads_only_the_model_and_the_calibration(setup_probe):
    assert setup_probe["loaded"] == ["qfdc", "qfdc.calibration", "qfdc.model"]


def test_set_up_loads_neither_dataclasses_nor_inspect(setup_probe):
    assert setup_probe["stdlib"] == {"dataclasses": False, "inspect": False}


def test_lazy_names_are_their_modules_objects(setup_probe):
    assert setup_probe["same"] == dict.fromkeys(LAZY_NAMES, True)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(qfdc, "no_such_name")


def test_star_import_binds_every_top_level_name():
    namespace: dict = {}
    exec("from qfdc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qfdc.__all__)
    assert len(namespace) == 13


def test_numpy_loads_only_when_arrays_are_computed(tmp_path):
    config = json.loads((ROOT / "configs" / "default.json").read_text())
    config["scenarios"]["fig5"] = {"n_phi": 8, "gates_per_point": 1000}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(path), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import qfdc.cli": False,
        "validate": False,
        "calibrate": False,
        "calibrated_chain": False,
        "run fig5": True,
    }


@pytest.mark.parametrize("source", ["chain", "chain_from_report"])
def test_validate_and_calibrate_load_no_driver(tmp_path, source):
    config = json.loads((ROOT / "configs" / "default.json").read_text())
    config["scenarios"]["fig5"] = {"n_phi": 8, "gates_per_point": 1000}
    if source == "chain_from_report":
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"fitted": config.pop("chain")}))
        config["chain_from_report"] = str(report)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_PROBE, str(path), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    cli_only = ["qfdc", "qfdc.calibration", "qfdc.cli", "qfdc.model"]
    assert (probe["validate"], probe["calibrate"]) == (cli_only, cli_only)
    assert "qfdc.experiment" in probe["run"]
    assert probe["same"]


def test_cli_unknown_attribute_raises_attribute_error():
    cli = importlib.import_module("qfdc.cli")
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(cli, "no_such_name")


def test_every_traced_name_resolves():
    # bench/tracer.py wraps these (module, attribute) pairs at install time;
    # a renamed or moved name would make every traced bench run fail
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    importlib.import_module("qfdc.cli")
    assert tracer.PATCHES
    for module_name, attr, *_ in tracer.PATCHES:
        assert module_name in sys.modules, module_name
        assert callable(getattr(sys.modules[module_name], attr, None)), (module_name, attr)


def test_each_command_loads_only_what_it_runs(tmp_path):
    config = json.loads((ROOT / "configs" / "default.json").read_text())
    config["scenarios"]["fig5"] = {"n_phi": 8, "gates_per_point": 1000}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    probe = _run_probe(_COMMAND_PROBE, str(path), str(tmp_path))
    cli_only = ["qfdc", "qfdc.calibration", "qfdc.cli", "qfdc.model"]
    assert probe["validate"]["qfdc"] == cli_only
    assert probe["calibrate"]["qfdc"] == cli_only
    assert probe["run"]["qfdc"] == [
        "qfdc", "qfdc.calibration", "qfdc.cli", "qfdc.detector", "qfdc.experiment", "qfdc.model",
    ]
    for command in ("validate", "calibrate", "run"):
        assert not probe[command]["argparse"], command
        assert not probe[command]["reference"], command
        assert not probe[command]["dataclasses"], command
    # numpy loads ``inspect`` for ``run``; the package itself never does
    assert not probe["validate"]["inspect"]
    assert not probe["calibrate"]["inspect"]


def test_only_the_reference_imports_dataclasses():
    importers = []
    for path in sorted((ROOT / "src" / "qfdc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                importers.append(path.name)
    assert importers == ["reference.py"]


def test_traced_name_on_experiment_loads_the_reference():
    assert _run_probe(_REFERENCE_PROBE) == {"before": False, "after": True, "same": True}


def test_experiment_unknown_attribute_raises_attribute_error():
    experiment = importlib.import_module("qfdc.experiment")
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(experiment, "no_such_name")

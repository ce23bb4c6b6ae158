"""The README's library example runs against the current public API."""

import ast
import contextlib
import io
import re
from pathlib import Path

import qfdc
from qfdc.cli import USAGE

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    return README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def _library_example() -> str:
    section = _library_section()
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "the Library section should hold one python block"
    return blocks[0]


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    pair = ast.literal_eval(lines[1])
    assert isinstance(pair, tuple) and len(pair) == 2
    assert all(isinstance(v, float) for v in pair)


def test_top_level_names_are_the_documented_ones():
    assert sorted(qfdc.__all__) == sorted([
        "calibrate", "calibrated_chain", "CalibrationTargets", "CalibrationContext",
        "ChainParams", "run_fig4a", "run_fig4b", "run_fig5", "run_fig6", "ScanResult",
        "CountSummary", "expected_rate", "analytic_visibility",
    ])
    section = _library_section()
    for name in qfdc.__all__:
        assert hasattr(qfdc, name)
        assert f"`{name}`" in section


def test_command_line_usage_is_the_cli_help():
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```text\n(.*?)```", section, flags=re.DOTALL)
    assert blocks == [USAGE]

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfdc.calibration import CalibrationContext, CalibrationTargets
from qfdc.model import _Record
from qfdc.cli import (
    CSV_SCHEMAS,
    SCENARIOS,
    ConfigError,
    cmd_calibrate,
    cmd_run,
    load_config,
    main,
    parse_args,
    run_scenario,
)

REPO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def _fast_config(tmp_path: Path, *edits, **overrides) -> Path:
    """A reduced-statistics copy of the shipped config for quick CLI runs,
    with top-level ``overrides`` and then each of ``edits`` (a function of
    the config, such as :func:`_set`) applied."""
    config = json.loads(REPO_CONFIG.read_text())
    config["output_dir"] = str(tmp_path / "results")
    config["scenarios"]["fig4a"] = {
        "power_mw": [0.0, 13.5, 27.0], "mu": 125.0, "gates_per_point": 1_000_000
    }
    config["scenarios"]["fig4b"] = {"mu": [0.3, 1.0, 10.0], "gates_per_point": 1_000_000}
    config["scenarios"]["fig5"] = {"mu": 0.7, "n_phi": 8, "gates_per_point": 1_000_000}
    config["scenarios"]["fig6"] = {
        "mu": [0.7, 3.0], "n_phi": 8, "gates_per_point": 1_000_000
    }
    config.update(overrides)
    for edit in edits:
        edit(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


_COMMANDS = [["validate"], ["calibrate"], ["run", "fig5"]]


class TestValidate:
    def test_shipped_config_is_valid(self):
        assert main(["validate", str(REPO_CONFIG)]) == 0

    def test_unknown_top_level_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sede": 1}))
        assert main(["validate", str(path)]) == 1
        assert "sede" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenarios": {"fig5": {"n_fi": 8}}}))
        assert main(["validate", str(path)]) == 1
        assert "n_fi" in capsys.readouterr().err

    def test_invalid_value(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"targets": {"visibility_raw": -0.3}}))
        assert main(["validate", str(path)]) == 1
        assert "visibility_raw" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("content", [
        b"{not json",
        b'\xff\xfe{"seed": 1}',  # JSON is UTF-8
        b'{"output_dir": "\xff"}',  # JSON in form, but a string that is not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
        b'{"seed": 1' + b"0" * 5000 + b"}",  # past Python's integer digit limit
    ], ids=["not-json", "not-utf-8", "not-utf-8-string", "too-deep", "too-many-digits"])
    def test_malformed_json(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON: ")
        assert "Traceback" not in err

    def test_maxima_are_inclusive(self, tmp_path):
        config = _fast_config(tmp_path, _set("scenarios.fig6.n_phi", 1024),
                              _set("scenarios.fig4b.gates_per_point", 1e12))
        assert main(["validate", str(config)]) == 0
        scenarios = load_config(config).scenarios
        assert (scenarios["fig6"].n_phi, scenarios["fig4b"].gates_per_point) == (1024, 10**12)

    def test_incomplete_chain_section(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"chain": {"system_transmission": 0.066}}))
        assert main(["validate", str(path)]) == 1
        assert "chain" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", _COMMANDS, ids=[argv[0] for argv in _COMMANDS])
    def test_nul_in_a_path_exits_1(self, tmp_path, capsys, argv):
        config = _fast_config(tmp_path, output_dir="a\0b")
        assert main(argv + [str(config)]) == 1
        err = capsys.readouterr().err
        assert err == "error: key 'output_dir' must not contain a NUL character\n"

    def test_nul_in_the_config_path_is_unreadable(self):
        with pytest.raises(ConfigError, match="^cannot read config file: embedded null byte$"):
            load_config("a\0b")

    def test_non_string_output_dir_exits_1(self, tmp_path, capsys):
        assert main(["validate", str(_fast_config(tmp_path, output_dir=5))]) == 1
        assert capsys.readouterr() == ("", "error: key 'output_dir' must be a string\n")

    @pytest.mark.parametrize("argv", _COMMANDS, ids=[argv[0] for argv in _COMMANDS])
    def test_a_report_is_not_a_chain_source(self, tmp_path, capsys, argv):
        # the chain comes from ``chain`` or from the targets; a report's
        # ``fitted`` block is copied into ``chain`` to run from it
        config = _fast_config(tmp_path, chain_from_report=str(tmp_path / "calibration.json"))
        assert main(argv + [str(config)]) == 1
        assert capsys.readouterr() == ("", "error: unknown key 'chain_from_report'\n")

    @pytest.mark.parametrize("argv", _COMMANDS, ids=[argv[0] for argv in _COMMANDS])
    def test_control_is_not_a_config_key(self, tmp_path, capsys, argv):
        # the control run is chosen on the command line, by --no-interferometer
        config = _fast_config(tmp_path, _set("scenarios.fig5.control", True))
        assert main(argv + [str(config)]) == 1
        assert capsys.readouterr() == ("", "error: unknown key scenarios.fig5.'control'\n")


def _set(path: str, value):
    """Config override: set the dotted key ``path`` to ``value``."""
    def apply(config: dict) -> None:
        *parents, leaf = path.split(".")
        section = config
        for key in parents:
            section = section[key]
        section[leaf] = value
    return apply


def _get(config: dict, path: str):
    """The value at the dotted key ``path``."""
    for key in path.split("."):
        config = config[key]
    return config


def _numeric_keys(section: dict, prefix: str = "") -> list[str]:
    """The dotted path of every number or list of numbers in a config."""
    keys = []
    for key, value in section.items():
        if isinstance(value, dict):
            keys += _numeric_keys(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float, list)) and not isinstance(value, bool):
            keys.append(prefix + key)
    return keys


def _apparatus(values: dict):
    """Config override: update ``apparatus`` and drop the explicit chain, so
    ``run`` has to calibrate from the apparatus values."""
    def apply(config: dict) -> None:
        config["apparatus"].update(values)
        del config["chain"]
    return apply


_BAD_APPARATUS = [
    {"leak_fraction": 1.5},
    {"leak_fraction": -0.1},
    {"oob_suppression_db": -3.0},
    {"eta_nor_per_w": -1.0},
    {"signal_wavelength_nm": 2000.0},  # pump above the signal: amplifier-type
    {"signal_wavelength_nm": 1551.1},  # same frequency as the pump
    {"signal_wavelength_nm": 5e-324},  # underflows to 0 m
    {"pump_wavelength_nm": 0.0},
]

_SHIPPED_CHAIN = json.loads(REPO_CONFIG.read_text())["chain"]

#: Malformed ``chain`` sections.
_BAD_CHAIN = {
    "string": {**_SHIPPED_CHAIN, "system_transmission": "0.066"},
    "boolean": {**_SHIPPED_CHAIN, "noise_coeff_beta": True},
    "unknown-key": {**_SHIPPED_CHAIN, "system_transmision": 0.066},
    "missing-key": {k: v for k, v in _SHIPPED_CHAIN.items() if k != "transmission_product"},
    "non-object": [0.066, 0.094, 0.179, 0.947],
}


class TestNumbersExitOne:
    @pytest.mark.parametrize(
        "override, argv",
        [
            (_set("seed", math.nan), ["validate"]),
            (_set("seed", math.inf), ["validate"]),
            (_set("seed", 1.7), ["validate"]),
            (_set("scenarios.fig5.mu", math.nan), ["validate"]),
            (_set("scenarios.fig6.mu", [0.7, -math.inf]), ["validate"]),
            (_set("scenarios.fig5.n_phi", 8.5), ["validate"]),
            (_set("scenarios.fig4b.gates_per_point", 1_000_000.5), ["validate"]),
            (_set("scenarios.fig4a.gates_per_point", 10**12 + 1), ["validate"]),
            (_set("scenarios.fig6.n_phi", 1025), ["validate"]),
            (_set("scenarios.fig4a.mu", 0.0), ["validate"]),  # the bound is exclusive
            (_set("targets.pump_power_w", True), ["validate"]),
            (_set("targets.mu_fringe", "0.7"), ["validate"]),
            (_set("apparatus.detector.efficiency", True), ["validate"]),
            (_set("apparatus.detector.gate_rate_hz", "4e6"), ["validate"]),
            (_set("chain.noise_coeff_beta", math.nan), ["validate"]),
            (_set("chain.system_transmission", 1.5), ["validate"]),
            (_set("apparatus.eta_nor_per_w", math.nan), ["validate"]),
            (None, ["run", "fig5", "--seed", "-1"]),
            (_set("chain.transmission_product", 0.0), ["run", "fig4a"]),
            # no background passes the interferometer: the noise scale underflows
            (_apparatus({"leak_fraction": 1.0, "oob_suppression_db": 4000.0}), ["run", "fig5"]),
        ] + [
            (_set("chain", chain), ["validate"]) for chain in _BAD_CHAIN.values()
        ] + [
            (_apparatus(values), argv) for values in _BAD_APPARATUS for argv in _COMMANDS
        ],
        ids=[
            "seed-nan", "seed-inf", "seed-fractional", "mu-nan", "grid-inf",
            "n_phi-fractional", "gates-fractional", "gates-above-1e12", "n_phi-above-1024",
            "fig4a-mu-zero",
            "targets-boolean", "targets-string", "detector-boolean", "detector-string",
            "chain-nan", "chain-out-of-range", "apparatus-nan",
            "cli-seed-negative", "no-light-fig4a", "noise-scale-underflow",
        ] + [f"chain-{name}" for name in _BAD_CHAIN] + [
            f"{key}={value}-{argv[0]}"
            for values in _BAD_APPARATUS for key, value in values.items() for argv in _COMMANDS
        ],
    )
    def test_exit_1_without_traceback(self, tmp_path, capsys, override, argv):
        config = _fast_config(tmp_path, *filter(None, [override]))
        assert main(argv + [str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", _numeric_keys(json.loads(REPO_CONFIG.read_text())))
    def test_integer_beyond_float_range(self, tmp_path, capsys, key):
        # json reads integers of any size; this one does not convert to a float
        huge = 10**400
        config = _fast_config(tmp_path, lambda raw: _set(
            key, [huge] if isinstance(_get(raw, key), list) else huge)(raw))
        for argv in (["validate"], ["calibrate"]):
            assert main(argv + [str(config)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and repr(key.rsplit(".", 1)[-1]) in err


#: ``eta_nor_per_w * P`` past the float range, where the conversion
#: probability sin^2(sqrt(eta_nor * P)) has no value: at the targets' pump
#: power, and at a fig4a power. Then the same for a pinned chain's
#: ``beta * P``, where the background has no value.
_OVERFLOW_TARGETS = (_apparatus({"eta_nor_per_w": 1e300}), _set("targets.pump_power_w", 1e10))
_OVERFLOW_FIG4A = (_set("apparatus.eta_nor_per_w", 1e300),
                   _set("scenarios.fig4a.power_mw", [0.0, 1e12]))
_BETA_OVERFLOW_TARGETS = (_set("chain.noise_coeff_beta", 1e300),
                          _set("targets.pump_power_w", 1e10))
_BETA_OVERFLOW_FIG4A = (_set("chain.noise_coeff_beta", 1e300),
                        _set("scenarios.fig4a.power_mw", [0.0, 1e12]))


def _assert_overflow(tmp_path, capsys, overrides, argv, coefficient_key, power_key):
    """The command exits 1 and its stderr names both keys of the product."""
    config = _fast_config(tmp_path, *overrides)
    assert main(argv + [str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: keys {coefficient_key!r} and {power_key!r}: product overflows\n")


class TestMixingProductOverflow:
    @pytest.mark.parametrize("overrides, argv, key", [
        (_OVERFLOW_TARGETS, ["validate"], "targets.pump_power_w"),
        (_OVERFLOW_TARGETS, ["calibrate"], "targets.pump_power_w"),
        (_OVERFLOW_TARGETS, ["run", "fig6"], "targets.pump_power_w"),
        (_OVERFLOW_FIG4A, ["run", "fig4a"], "scenarios.fig4a.power_mw"),
    ])
    def test_exit_1_names_both_keys(self, tmp_path, capsys, overrides, argv, key):
        _assert_overflow(tmp_path, capsys, overrides, argv, "apparatus.eta_nor_per_w", key)

    @pytest.mark.parametrize("overrides, argv, key", [
        (_BETA_OVERFLOW_TARGETS, ["validate"], "targets.pump_power_w"),
        (_BETA_OVERFLOW_TARGETS, ["run", "fig6"], "targets.pump_power_w"),
        (_BETA_OVERFLOW_FIG4A, ["validate"], "scenarios.fig4a.power_mw"),
        (_BETA_OVERFLOW_FIG4A, ["run", "fig4a"], "scenarios.fig4a.power_mw"),
    ])
    def test_pinned_beta_overflow_names_both_keys(self, tmp_path, capsys, overrides, argv, key):
        _assert_overflow(tmp_path, capsys, overrides, argv, "chain.noise_coeff_beta", key)

    def test_largest_finite_product_is_accepted(self, tmp_path):
        config = _fast_config(tmp_path, _set("apparatus.eta_nor_per_w", 1e300),
                              _set("scenarios.fig4a.power_mw", [0.0, 1e11]))  # 1e300 * 1e8 W
        assert main(["validate", str(config)]) == 0


class TestCalibrateCommand:
    def test_default_targets_report(self, tmp_path):
        config = _fast_config(tmp_path)
        report_path = tmp_path / "calibration.json"
        assert main(["calibrate", str(config), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["feasible"] is True
        assert report["within_tolerance"] is True
        assert set(report["residuals"]) == set(report["predictions"])
        assert report["fitted"]["system_transmission"] == pytest.approx(0.066, rel=0.01)

    def test_infeasible_targets_exit_2(self, tmp_path):
        config = _fast_config(tmp_path, _set("targets.visibility_raw", 0.8),
                              _set("targets.visibility_subtracted", 0.5))
        assert main(["calibrate", str(config), "--out", str(tmp_path / "r.json")]) == 2

    def test_feasible_but_out_of_tolerance_exits_2(self, tmp_path, capsys):
        # the floors are predictions, not fit targets: a bare floor far from
        # its prediction leaves the solve feasible and its residual too large
        config = _fast_config(tmp_path, _set("targets.floor_bare", 1e-5))
        report_path = tmp_path / "r.json"
        assert main(["calibrate", str(config), "--out", str(report_path)]) == 2
        report = json.loads(report_path.read_text())
        assert (report["feasible"], report["within_tolerance"], report["message"]) == (
            True, False, "")
        assert capsys.readouterr().out.startswith("calibration out of tolerance;")

    def test_unwritable_report_exits_1(self, tmp_path, capsys):
        # the report's directory would be the config, a regular file
        config = _fast_config(tmp_path)
        assert main(["calibrate", str(config), "--out", str(config / "x.json")]) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write report: [Errno 17] File exists: '{config}'\n")

    def test_report_round_trip(self, tmp_path):
        # feed a report's predictions back in as targets: near-zero residuals
        config = _fast_config(tmp_path)
        report_path = tmp_path / "calibration.json"
        main(["calibrate", str(config), "--out", str(report_path)])
        predictions = json.loads(report_path.read_text())["predictions"]
        assert len(predictions) == 6  # every target but the pump power and the two mus
        config = _fast_config(tmp_path, lambda raw: raw["targets"].update(predictions))
        second = tmp_path / "second.json"
        assert main(["calibrate", str(config), "--out", str(second)]) == 0
        again = json.loads(second.read_text())
        for value in again["residuals"].values():
            assert abs(value) < 1e-12


#: fig4a at two powers, 1000 gates each.
_FEW_FIG4A = _set("scenarios.fig4a", {"power_mw": [0, 27], "gates_per_point": 1000})


class TestRunCommand:
    @pytest.mark.parametrize("scenario", ["fig4a", "fig4b", "fig5", "fig6"])
    def test_csv_schema(self, tmp_path, scenario):
        config = _fast_config(tmp_path)
        out = tmp_path / f"{scenario}.csv"
        assert main(["run", scenario, str(config), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_SCHEMAS[scenario])
        assert len(lines) > 1
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(CSV_SCHEMAS[scenario])
            for value in fields:
                parsed = float(value)
                # full round-trip serialization
                assert repr(parsed) == value

    def test_same_seed_byte_identical(self, tmp_path):
        config = _fast_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "fig5", str(config), "--out", str(a)])
        main(["run", "fig5", str(config), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        config = _fast_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "fig5", str(config), "--out", str(a)])
        main(["run", "fig5", str(config), "--seed", "7", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_seed_zero_is_a_seed(self, tmp_path):
        config = _fast_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "fig5", str(config), "--seed", "0", "--out", str(a)]) == 0
        main(["run", "fig5", str(_fast_config(tmp_path, seed=0)), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_control_flag(self, tmp_path, capsys):
        # high mu and enough gates that a real fringe would tower over shot noise
        config = _fast_config(tmp_path, _set("scenarios.fig5", {
            "mu": 143.0, "n_phi": 8, "gates_per_point": 4_000_000}))
        out = tmp_path / "control.csv"
        assert main(
            ["run", "fig5", str(config), "--no-interferometer", "--out", str(out)]
        ) == 0
        rates = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        spread = (max(rates) - min(rates)) / (sum(rates) / len(rates))
        assert spread < 0.05

    def test_control_flag_rejected_elsewhere(self, tmp_path):
        config = _fast_config(tmp_path)
        assert main(["run", "fig6", str(config), "--no-interferometer"]) == 1

    def test_unknown_scenario_exit_1(self, tmp_path):
        config = _fast_config(tmp_path)
        assert main(["run", "fig7", str(config)]) == 1

    def test_unwritable_csv_exits_1(self, tmp_path, capsys):
        # --out names a directory
        assert main(["run", "fig5", str(_fast_config(tmp_path)), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write CSV: [Errno 21] Is a directory: '{tmp_path}'\n")

    def test_default_output_dir(self, tmp_path):
        config = _fast_config(tmp_path)
        assert main(["run", "fig5", str(config)]) == 0
        assert (tmp_path / "results" / "fig5.csv").exists()

    def test_control_run_writes_its_own_file(self, tmp_path, capsys):
        # the fringe and its control land side by side; the control run
        # leaves the fringe's bytes as they were
        config = _fast_config(tmp_path)
        assert main(["run", "fig5", str(config)]) == 0
        fringe = tmp_path / "results" / "fig5.csv"
        before = fringe.read_bytes()
        assert main(["run", "fig5", str(config), "--no-interferometer"]) == 0
        control = tmp_path / "results" / "fig5_control.csv"
        assert f"written to {control}" in capsys.readouterr().out
        assert fringe.read_bytes() == before
        assert control.read_bytes() != before
        assert sorted(f.name for f in control.parent.iterdir()) == ["fig5.csv",
                                                                    "fig5_control.csv"]

    @pytest.mark.parametrize("argv", [["calibrate"], ["run", "fig5"]], ids=["calibrate", "run"])
    def test_out_creates_missing_directories(self, tmp_path, argv):
        out = tmp_path / "a" / "b" / "out"
        assert main(argv + [str(_fast_config(tmp_path)), "--out", str(out)]) == 0
        assert out.exists()

    def test_no_output_dir_writes_to_the_current_directory(self, tmp_path, monkeypatch):
        # the environment plays no part: the path is --out, then output_dir,
        # then the current directory
        config = _fast_config(tmp_path, lambda raw: raw.pop("output_dir"))
        monkeypatch.setenv("QFDC_OUTPUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig5", str(config)]) == 0
        assert (tmp_path / "fig5.csv").exists()
        assert not (tmp_path / "envout").exists()

    def test_chain_from_a_report_is_the_calibrated_chain(self, tmp_path, capsys):
        # a report's ``fitted`` block, copied into ``chain``, runs the chain
        # that ``run`` calibrates from the targets, bit for bit
        config = _fast_config(tmp_path, lambda raw: raw.pop("chain"))
        report = tmp_path / "calibration.json"
        assert main(["calibrate", str(config), "--out", str(report)]) == 0
        pinned = tmp_path / "pinned.json"
        fitted = json.loads(report.read_text())["fitted"]
        pinned.write_text(json.dumps({**json.loads(config.read_text()), "chain": fitted}))
        capsys.readouterr()
        outputs = []
        for path in (config, pinned):
            out = tmp_path / f"{path.stem}.csv"
            assert main(["run", "fig6", str(path), "--out", str(out)]) == 0
            # the printed fit, without the line that names the CSV
            outputs.append((out.read_bytes(), capsys.readouterr().out.split("\n", 1)[1]))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("scenario, slope, sigma", [
        ("fig4a", "noise_slope_per_w", "noise_slope_sigma"),
        ("fig4b", "slope", "slope_sigma"),
        ("fig5", "c1", "c1_sigma"),
    ])
    def test_few_gates_give_finite_fits(self, tmp_path, capsys, scenario, slope, sigma):
        # most points see zero clicks; the one-count sigma floor keeps every
        # fit weight finite, and a zero fringe offset gives a NaN visibility
        config = _fast_config(tmp_path, _set(f"scenarios.{scenario}.gates_per_point", 10))
        assert main(["run", scenario, str(config), "--out", str(tmp_path / "out.csv")]) == 0
        _assert_nan_policy(scenario, (tmp_path / "out.csv").read_text())
        fit = {}
        for line in capsys.readouterr().out.splitlines()[1:]:
            name, value = line.split(":")
            fit[name.strip()] = float(value)
        assert math.isfinite(fit[slope])
        assert math.isfinite(fit[sigma])

    @pytest.mark.filterwarnings("error")
    def test_saturated_fig4a_gives_nan_noise(self, tmp_path, capsys):
        # every gate clicks: the click model cannot be inverted, so the noise
        # estimates are NaN and stay out of the slope fit, without warnings
        config = _fast_config(tmp_path, _set("scenarios.fig4a", {"power_mw": [1e8, 2e8],
                                                                "gates_per_point": 1000}))
        out = tmp_path / "out.csv"
        assert main(["run", "fig4a", str(config), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2
        for row in rows:
            assert all(math.isnan(float(v)) for v in row[3:])
        _assert_nan_policy("fig4a", out.read_text())

    def test_tiny_transmission_fig4a_without_overflow(self, tmp_path):
        # a subnormal transmission puts the noise estimates near 1e306 and
        # their fit sigmas near 1e308: the fit weights must not overflow, and
        # the fitted slope stays finite while its sigma (1/0.027 x 1e308) is NaN
        config = _fast_config(tmp_path, _set("chain.transmission_product", 1e-310), _FEW_FIG4A)
        out = tmp_path / "out.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from qfdc.cli import main; sys.exit(main())",
             "run", "fig4a", str(config), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        fit = dict(line.split(":") for line in proc.stdout.splitlines()[1:])
        assert math.isfinite(float(fit["  noise_slope_per_w"]))
        assert math.isnan(float(fit["  noise_slope_sigma"]))
        _assert_nan_policy("fig4a", out.read_text())

    @pytest.mark.filterwarnings("error")
    def test_subnormal_transmission_fig4a_gives_nan_not_inf(self, tmp_path, capsys):
        # at 1e-320 the inversion divides by a subnormal and overflows: the
        # overflowing estimates are NaN, as are their sigmas, and leave the
        # noise-slope fit
        config = _fast_config(tmp_path, _set("chain.transmission_product", 1e-320), _FEW_FIG4A)
        out = tmp_path / "out.csv"
        assert main(["run", "fig4a", str(config), "--out", str(out)]) == 0
        _assert_nan_policy("fig4a", out.read_text())
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(math.isnan(float(row[3])) and math.isnan(float(row[4])) for row in rows)
        assert "noise_slope_per_w: nan" in capsys.readouterr().out

    def test_zero_click_fig4a_sigmas_carry_the_floor(self, tmp_path):
        # at 1e-310 no run sees a photon and the background runs have no
        # clicks: each estimate is absurd but has a sigma of at least one
        # count, so it reads as consistent with zero instead of exact
        config = _fast_config(tmp_path, _set("chain.transmission_product", 1e-310), _FEW_FIG4A)
        out = tmp_path / "out.csv"
        assert main(["run", "fig4a", str(config), "--out", str(out)]) == 0
        _assert_nan_policy("fig4a", out.read_text())
        for row in out.read_text().splitlines()[1:]:
            _, efficiency, eff_sigma, noise, noise_sigma = map(float, row.split(","))
            assert abs(efficiency) < eff_sigma and abs(noise) < noise_sigma, row

    def test_zero_click_fig4b_fig5_sigmas_carry_the_floor(self, tmp_path):
        # the same one-count floor as fig4a: a run without clicks in 1000
        # gates has a sigma of 1e-3 in click probability, 4000/s in rate
        config = _fast_config(
            tmp_path, _set("chain.transmission_product", 1e-310),
            _set("scenarios.fig4b", {"mu": [0.01, 0.3, 10.0], "gates_per_point": 1000}),
            _set("scenarios.fig5", {"n_phi": 8, "gates_per_point": 1000}))
        rows = {}
        for scenario in ("fig4b", "fig5"):
            out = tmp_path / f"{scenario}.csv"
            assert main(["run", scenario, str(config), "--out", str(out)]) == 0
            _assert_nan_policy(scenario, out.read_text())
            rows[scenario] = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows["fig4b"][0][:5] == ["0.01", "0.0", "0.001", "0.0", "0.001414213562373095"]
        assert [row[1:] for row in rows["fig5"]] == [["0.0", "4000.0"]] * 8



#: argv (``{config}`` is a valid config file) and a phrase of the error message.
_USAGE_ERRORS = {
    "no-command": ([], "no command"),
    "unknown-command": (["simulate", "{config}"], "unknown command 'simulate'"),
    "option-before-command": (["--seed", "7", "run", "fig5", "{config}"],
                              "unknown command '--seed'"),
    "missing-positional": (["validate"], "validate takes 1 argument(s) (CONFIG), got 0"),
    "missing-config": (["run", "fig5"], "run takes 2 argument(s) (SCENARIO CONFIG), got 1"),
    "extra-positional": (["validate", "{config}", "extra"], "got 2"),
    "extra-run-positional": (["run", "fig5", "{config}", "extra"], "got 3"),
    "unknown-option": (["run", "fig5", "{config}", "--verbose"], "unknown option '--verbose'"),
    "abbreviated-option": (["run", "fig5", "{config}", "--no-inter"],
                           "unknown option '--no-inter' for run"),
    "single-dash-option": (["validate", "-v"], "unknown option '-v' for validate"),
    "dash": (["validate", "-"], "unknown option '-'"),
    "other-commands-option": (["calibrate", "{config}", "--seed", "7"],
                              "unknown option '--seed' for calibrate"),
    "seed-without-value": (["run", "fig5", "{config}", "--seed"], "--seed needs a value"),
    "seed-not-integer": (["run", "fig5", "{config}", "--seed", "abc"],
                         "--seed must be an integer, got 'abc'"),
    "seed-empty": (["run", "fig5", "{config}", "--seed="], "--seed must be an integer, got ''"),
    "out-without-value": (["calibrate", "{config}", "--out"], "--out needs a value"),
    "out-empty": (["calibrate", "{config}", "--out="], "--out needs a value"),
    "out-empty-spaced": (["run", "fig5", "{config}", "--out", ""], "--out needs a value"),
    "flag-with-value": (["run", "fig5", "{config}", "--no-interferometer=yes"],
                        "--no-interferometer takes no value"),
    "unknown-scenario": (["run", "fig7", "{config}"], "unknown scenario 'fig7'"),
}


class TestParser:
    @pytest.mark.parametrize("argv, message", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS)
    def test_usage_error_exits_1_without_traceback(self, tmp_path, capsys, argv, message):
        config = _fast_config(tmp_path)
        assert main([arg.format(config=config) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_equals_forms_give_the_same_bytes(self, tmp_path):
        config = _fast_config(tmp_path)
        # only the first "=" separates the option from its value
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "seed=7.csv"
        assert main(["run", "fig5", str(config), "--seed", "7", "--out", str(spaced)]) == 0
        # options may also come between the positionals
        assert main(["run", "fig5", "--seed=7", str(config), f"--out={joined}"]) == 0
        assert joined.read_bytes() == spaced.read_bytes()

    def test_repeated_option_takes_the_last_value(self, tmp_path):
        config = _fast_config(tmp_path)
        first, last = tmp_path / "first.csv", tmp_path / "last.csv"
        assert main(["run", "fig5", str(config), "--seed", "7", "--out", str(first)]) == 0
        assert main(["run", "fig5", str(config), "--seed", "3", "--seed", "7",
                     "--out", str(tmp_path / "unused.csv"), "--out", str(last)]) == 0
        assert last.read_bytes() == first.read_bytes()
        assert not (tmp_path / "unused.csv").exists()

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "--help"],
                                      ["validate", "configs/missing.json", "-h"]])
    def test_help_exits_0_and_names_every_command(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        for command in ("qfdc calibrate CONFIG", "qfdc run", "qfdc validate CONFIG"):
            assert command in captured.out
        assert "cannot be abbreviated" in captured.out

    def test_help_exit_code_of_the_process(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from qfdc.cli import main; sys.exit(main())",
             "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("usage: qfdc calibrate CONFIG")

    def test_namespace_holds_every_positional_and_option(self):
        args = parse_args(["run", "fig5", "c.json", "--seed=7"])
        assert (args.command, args.scenario, args.config) == ("run", "fig5", "c.json")
        assert (args.seed, args.out, args.no_interferometer) == (7, None, False)
        assert args.func is cmd_run
        args = parse_args(["calibrate", "c.json", "--out", "r.json"])
        assert (args.command, args.config, args.out, args.func) == (
            "calibrate", "c.json", "r.json", cmd_calibrate)
        assert parse_args(["run", "fig5", "c.json", "--no-interferometer"]).no_interferometer
        assert parse_args(["run", "fig4a", "c.json", "--seed", "-1"]).seed == -1


#: Every bounded scenario key, as the README states its bounds: an edge
#: value that loads, a value just past it and the error that value gives.
_SCENARIO_BOUNDS = [
    ("fig4a", "power_mw", [0.0], [-1e-9], "must be >= 0.0"),
    ("fig4a", "mu", 5e-324, 0.0, "must be > 0.0"),
    ("fig4b", "mu", [0.0], [-1e-9], "must be >= 0.0"),
    ("fig5", "mu", 0.0, -1e-9, "must be >= 0.0"),
    ("fig6", "mu", [0.0], [-1e-9], "must be >= 0.0"),
] + [
    (scenario, "n_phi", edge, rejected, message)
    for scenario in ("fig5", "fig6")
    for edge, rejected, message in ((4, 3, "must be >= 4"), (1024, 1025, "must be <= 1024"))
] + [
    (scenario, "gates_per_point", edge, rejected, message)
    for scenario in sorted(SCENARIOS)
    for edge, rejected, message in ((1, 0, "must be >= 1"),
                                    (10**12, 10**12 + 1, "must be <= 1000000000000"))
]


class TestConfigLoading:
    def test_defaults_fill_in(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg.seed == 20260810
        assert cfg.scenarios["fig5"].mu == 0.7
        assert cfg.chain is None

    def test_shipped_scenarios_are_the_defaults(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text("{}")
        assert load_config(REPO_CONFIG).scenarios == load_config(path).scenarios

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_csv_schema_leads_the_columns(self, tmp_path, scenario):
        cfg = load_config(_fast_config(tmp_path))
        keys = list(run_scenario(scenario, cfg, seed=1).columns)
        header = CSV_SCHEMAS[scenario]
        assert len(keys) >= len(header)
        for name, key in zip(header, keys):
            assert name == key or (name == "sigma" and key.endswith("_sigma")), (name, key)

    def test_rejects_old_scenario_key(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"scenario": "fig5"}))
        with pytest.raises(ConfigError, match="scenario"):
            load_config(path)

    def test_shipped_chain_matches_calibration(self):
        cfg = load_config(REPO_CONFIG)
        from qfdc.calibration import calibrate

        fitted = calibrate(cfg.targets, cfg.context)
        chain = cfg.chain
        for value, name in [(chain.converter.system_transmission, "system_transmission"),
                            (chain.converter.noise_coeff_beta, "noise_coeff_beta"),
                            (chain.post_converter_transmission, "transmission_product"),
                            (chain.intrinsic_visibility_v0, "intrinsic_visibility_v0")]:
            assert value == pytest.approx(getattr(fitted, name), rel=1e-12)

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("scenario, key, edge, rejected, message", _SCENARIO_BOUNDS,
                             ids=[f"{s}.{k}={r}" for s, k, _, r, _ in _SCENARIO_BOUNDS])
    def test_scenario_key_bounds(self, tmp_path, scenario, key, edge, rejected, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenarios": {scenario: {key: edge}}}))
        value = getattr(load_config(path).scenarios[scenario], key)
        assert value == (tuple(edge) if isinstance(edge, list) else edge)
        path.write_text(json.dumps({"scenarios": {scenario: {key: rejected}}}))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"key scenarios.{scenario}.{key!r} {message}"


# --- generated configs --------------------------------------------------------

_ANY = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5, 1.5, 2.5, 8.5]),
    st.floats(min_value=-10.0, max_value=200.0),
    st.integers(min_value=-5, max_value=1000),
    st.sampled_from(["0.7", None, True, False, {}, []]),
)

#: The shipped config at 1000 gates per point; generated values go on top.
_SMALL_CONFIG = json.loads(REPO_CONFIG.read_text())
del _SMALL_CONFIG["output_dir"]
_SMALL_CONFIG["scenarios"] = {
    "fig4a": {"power_mw": [0.0, 27.0], "gates_per_point": 1000},
    "fig4b": {"mu": [0.3, 10.0], "gates_per_point": 1000},
    "fig5": {"n_phi": 8, "gates_per_point": 1000},
    "fig6": {"mu": [0.7, 3.0], "n_phi": 8, "gates_per_point": 1000},
}


#: Tiny positive numbers, subnormals included, which a draw from [0, 2 x
#: default] almost never reaches.
_TINY = st.sampled_from([5e-324, 1e-320, 1e-310, 2.2250738585072014e-308])


def _near(default: float):
    """Numbers between 0 and twice a default, tiny ones, or anything at all."""
    return st.one_of(st.floats(min_value=0.0, max_value=2.0 * default), _TINY, _ANY)


def _value(default):
    """Values for a config key with this default: of its type or anything at
    all; a default that is a record is a nested section. The keys and their
    defaults are read as ``qfdc.cli._section`` reads them."""
    if isinstance(default, _Record):
        return _section(type(default))
    if type(default) is float:
        return _near(default)
    typed = {
        int: st.integers(min_value=1, max_value=1000),
        tuple: st.lists(
            st.one_of(st.floats(min_value=0.0, max_value=200.0), _ANY), min_size=1, max_size=3
        ),
    }[type(default)]
    return st.one_of(typed, _ANY)


def _section(spec_type):
    default = spec_type()
    optional = {key: _value(getattr(default, key)) for key in spec_type.__slots__}
    optional["unknown_key"] = st.just(1)
    return st.fixed_dictionaries({}, optional=optional)


#: A ``chain`` section or a report's ``fitted`` block: all four keys, near
#: the shipped values, sometimes with an unknown key.
_CHAIN = st.fixed_dictionaries(
    {key: _near(value) for key, value in _SMALL_CONFIG["chain"].items()},
    optional={"unknown_key": st.just(1)},
)


#: The CSV columns where the README's degenerate-fit policy allows ``nan``:
#: fig6's visibilities and their sigmas, fig4a's four estimators and fig4b's
#: fit line (a through-origin fit without a nonzero abscissa).
_NAN_COLUMNS = {
    "fig4a": {"efficiency", "eff_sigma", "noise_per_gate", "noise_sigma"},
    "fig4b": {"fit_line"},
    "fig5": set(),
    "fig6": {"v_raw", "sigma", "v_sub"},
}


def _assert_nan_policy(scenario: str, csv_text: str) -> None:
    header, *rows = [line.split(",") for line in csv_text.splitlines()]
    assert header == CSV_SCHEMAS[scenario]
    for row in rows:
        for name, cell in zip(header, row):
            assert not math.isinf(float(cell)), (scenario, name, row)
            if math.isnan(float(cell)):
                assert name in _NAN_COLUMNS[scenario], (scenario, name, row)
        if scenario == "fig4a":  # NaN together, and no sigma of 0
            efficiency, eff_sigma, noise, noise_sigma = map(float, row[1:])
            assert math.isnan(efficiency) == math.isnan(eff_sigma), row
            assert math.isnan(noise) == math.isnan(noise_sigma), row
            assert eff_sigma != 0.0 and noise_sigma != 0.0, row
        if scenario in ("fig4b", "fig5"):  # a run without clicks still has a sigma
            for name, cell in zip(header, row):
                assert name != "sigma" or float(cell) != 0.0, (scenario, row)


class TestGeneratedConfigs:
    @settings(max_examples=150, deadline=None)
    @given(
        section=st.sampled_from(sorted(SCENARIOS)).flatmap(
            lambda name: st.tuples(st.just(name), _section(SCENARIOS[name]))
        ),
        targets=st.one_of(st.just({}), _section(CalibrationTargets)),
        apparatus=st.one_of(st.just({}), _section(CalibrationContext)),
        chain=st.one_of(st.just(_SMALL_CONFIG["chain"]), _CHAIN),
        source=st.sampled_from(["chain", "calibration"]),
    )
    @example(section=("fig6", {}), targets={"pump_power_w": 1e10},
             apparatus={"eta_nor_per_w": 1e300}, chain=_SMALL_CONFIG["chain"],
             source="calibration")
    @example(section=("fig4a", {"power_mw": [0.0, 1e12]}), targets={},
             apparatus={"eta_nor_per_w": 1e300}, chain=_SMALL_CONFIG["chain"], source="chain")
    @example(section=("fig6", {}), targets={"pump_power_w": 1e10}, apparatus={},
             chain={**_SMALL_CONFIG["chain"], "noise_coeff_beta": 1e300}, source="chain")
    @example(section=("fig4a", {"power_mw": [0.0, 1e12]}), targets={}, apparatus={},
             chain={**_SMALL_CONFIG["chain"], "noise_coeff_beta": 1e300}, source="chain")
    def test_exit_code_without_traceback(self, section, targets, apparatus, chain, source):
        scenario, values = section
        config = json.loads(json.dumps(_SMALL_CONFIG))
        config["scenarios"][scenario].update(values)
        config["targets"].update(targets)
        config["apparatus"].update(apparatus)
        with tempfile.TemporaryDirectory() as tmp:
            config["chain"] = chain
            if source != "chain":
                del config["chain"]
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            for argv in (["validate", str(path)],
                         ["calibrate", str(path), "--out", str(Path(tmp) / "calibration.json")],
                         ["run", scenario, str(path), "--out", str(Path(tmp) / "out.csv")]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                assert code in (0, 1, 2), argv
                assert "Traceback" not in err.getvalue()
            if code == 0:  # the run, the last command, wrote its CSV
                _assert_nan_policy(scenario, (Path(tmp) / "out.csv").read_text())


class TestTinyTransmission:
    """Subnormal and tiny ``transmission_product`` values, which the
    generated configs above rarely carry through to a run."""

    @settings(max_examples=20, deadline=None)
    @given(
        scenario=st.sampled_from(sorted(SCENARIOS)),
        transmission=st.one_of(_TINY, st.floats(min_value=0.0, max_value=1e-300)),
    )
    @example("fig4a", 1e-310)
    @example("fig4a", 1e-320)
    @example("fig4a", 2.2250738585072014e-308)
    @example("fig4b", 1e-320)
    @example("fig5", 1e-320)
    @example("fig6", 1e-320)
    @example("fig6", 5e-324)
    @example("fig5", 0.0)
    def test_nan_policy(self, scenario, transmission):
        # fig4a alone needs light at the detector to invert its click model
        config = json.loads(json.dumps(_SMALL_CONFIG))
        config["chain"]["transmission_product"] = transmission
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            out = Path(tmp) / "out.csv"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", scenario, str(path), "--out", str(out)])
            assert code == 0 or (scenario, code) == ("fig4a", 1), err.getvalue()
            if code == 0:
                _assert_nan_policy(scenario, out.read_text())

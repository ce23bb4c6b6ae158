"""Command-line front end: ``qfdc calibrate | run | validate``.

Configuration is a single JSON document (schema documented in the README);
unknown keys are rejected so typos fail loudly. Scenario runs write one CSV
per figure with a fixed column schema and full round-trip float precision.

Exit codes: 0 success, 1 usage/configuration error, 2 model infeasibility.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .calibration import (
    BOUNDS,
    CalibrationContext,
    CalibrationResult,
    CalibrationTargets,
    calibrate,
    calibrated_chain,
    residuals_within_tolerance,
)
from .model import DEFAULT_GATES_PER_POINT, DEFAULT_N_PHI, ChainParams, _Record, _setfield

if TYPE_CHECKING:
    from .experiment import ScanResult

#: The drivers, imported from ``experiment`` on first access (PEP 562), so
#: that ``validate`` and ``calibrate`` do not load the Monte Carlo.
_DRIVERS = ("run_fig4a", "run_fig4b", "run_fig5", "run_fig6")

DEFAULT_SEED = 20260810

CSV_SCHEMAS = {
    "fig4a": ["power_mw", "efficiency", "eff_sigma", "noise_per_gate", "noise_sigma"],
    "fig4b": ["mu", "p_raw", "sigma", "p_subtracted", "sigma", "fit_line"],
    "fig5": ["phi_rad", "rate_per_s", "sigma"],
    "fig6": ["mu", "v_raw", "sigma", "v_sub", "sigma", "v_analytic"],
}


def __getattr__(name: str):
    if name not in _DRIVERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.experiment"), name)
    globals()[name] = value
    return value


class ConfigError(Exception):
    """Configuration file problem; the message names the offending key."""


def _check_keys(section: dict, allowed, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}{key!r}")


def _is_finite_number(value) -> bool:
    # Python's json accepts NaN and +-Infinity, and integers of any size
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(section: dict, key: str, default, path: str, minimum=None, above=None,
            maximum=None):
    value = section.get(key, default)
    if not _is_finite_number(value):
        raise ConfigError(f"key {path}{key!r} must be a finite number")
    if minimum is not None and value < minimum:
        raise ConfigError(f"key {path}{key!r} must be >= {minimum}")
    if above is not None and value <= above:
        raise ConfigError(f"key {path}{key!r} must be > {above}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"key {path}{key!r} must be <= {maximum}")
    return value


def _integer(section: dict, key: str, default, path: str, **bounds) -> int:
    value = _number(section, key, default, path, **bounds)
    if not float(value).is_integer():
        raise ConfigError(f"key {path}{key!r} must be an integer, got {value!r}")
    return int(value)


def _grid(section: dict, key: str, default, path: str, **bounds) -> tuple[float, ...]:
    values = section.get(key, default)
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"key {path}{key!r} must be a non-empty list of finite numbers")
    return tuple(float(_number({key: v}, key, None, path, **bounds)) for v in values)


def _string(section: dict, key: str) -> str | None:
    value = section.get(key)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"key {key!r} must be a string")
    if value is not None and "\0" in value:  # no file path can hold one
        raise ConfigError(f"key {key!r} must not contain a NUL character")
    return value


def _object(value, allowed, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"key {path!r} must be an object")
    _check_keys(value, allowed, path + ".")
    return value


#: Parser per type of a field's default value.
_FIELD_PARSERS = {float: _number, int: _integer, tuple: _grid}
_NON_NEGATIVE = {"minimum": 0.0}
_GATES = {"minimum": 1, "maximum": 10**12}  # 1e12 gates: about 2 s of sampling per point
_N_PHI = {"minimum": 4, "maximum": 1024}


def _section(spec_type: type, raw, path: str):
    """Read the config section ``path`` into the record class that declares it.

    The class's fields (its ``__slots__``) are the section's keys, and the
    field values of its default instance ``spec_type()`` are their defaults;
    the type of a default picks the key's parser, and a default that is
    itself a record is a nested section. The class attribute ``key_bounds``,
    where present, holds a key's bounds. A ``ValueError`` from the class's
    own checks is a config error.
    """
    keys = spec_type.__slots__
    _object(raw, keys, path)
    default = spec_type()
    bounds = getattr(spec_type, "key_bounds", {})
    values = {}
    for key in keys:
        value = getattr(default, key)
        if isinstance(value, _Record):
            values[key] = _section(type(value), raw.get(key, {}), f"{path}.{key}")
        else:
            values[key] = _FIELD_PARSERS[type(value)](raw, key, value, path + ".",
                                                      **bounds.get(key, {}))
    try:
        return spec_type(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {path}: {exc}") from exc


# One frozen record per scenario: its fields are the keys of the config
# section ``scenarios.<name>``, their defaults the default settings, and
# ``key_bounds`` their bounds. ``run`` takes the full chain and calls the
# driver by name.


class Fig4a(_Record):
    """Pump-power sweep: conversion efficiency and pump-induced noise."""

    __slots__ = ("power_mw", "mu", "gates_per_point")
    key_bounds = {"power_mw": _NON_NEGATIVE, "mu": {"above": 0.0}, "gates_per_point": _GATES}

    def __init__(self,
                 power_mw: tuple[float, ...] = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0,
                                                24.0, 27.0),
                 mu: float = 125.0, gates_per_point: int = DEFAULT_GATES_PER_POINT) -> None:
        _setfield(self, "power_mw", power_mw)
        _setfield(self, "mu", mu)
        _setfield(self, "gates_per_point", gates_per_point)

    def run(self, chain: ChainParams, seed: int) -> ScanResult:
        return run_fig4a(chain.without_interferometer(), [p * 1e-3 for p in self.power_mw],
                         mu=self.mu, gates_per_point=self.gates_per_point, seed=seed)


class Fig4b(_Record):
    """Count rate per gate versus mu, floor-subtracted, with a through-origin fit."""

    __slots__ = ("mu", "gates_per_point")
    key_bounds = {"mu": _NON_NEGATIVE, "gates_per_point": _GATES}

    def __init__(self, mu: tuple[float, ...] = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 125.0),
                 gates_per_point: int = 100_000_000) -> None:
        _setfield(self, "mu", mu)
        _setfield(self, "gates_per_point", gates_per_point)

    def run(self, chain: ChainParams, seed: int) -> ScanResult:
        return run_fig4b(chain.without_interferometer(), self.mu,
                         gates_per_point=self.gates_per_point, seed=seed)


class Fig5(_Record):
    """Fringe scan over the phase-modulation depth; on a chain without the
    interferometer it is the control run."""

    __slots__ = ("mu", "n_phi", "gates_per_point")
    key_bounds = {"mu": _NON_NEGATIVE, "n_phi": _N_PHI, "gates_per_point": _GATES}

    def __init__(self, mu: float = 0.7, n_phi: int = DEFAULT_N_PHI,
                 gates_per_point: int = DEFAULT_GATES_PER_POINT) -> None:
        _setfield(self, "mu", mu)
        _setfield(self, "n_phi", n_phi)
        _setfield(self, "gates_per_point", gates_per_point)

    def run(self, chain: ChainParams, seed: int) -> ScanResult:
        return run_fig5(chain, self.mu, n_phi=self.n_phi,
                        gates_per_point=self.gates_per_point, seed=seed)


class Fig6(_Record):
    """Fringe visibility versus mu against the analytic curve."""

    __slots__ = ("mu", "n_phi", "gates_per_point")
    key_bounds = {"mu": _NON_NEGATIVE, "n_phi": _N_PHI, "gates_per_point": _GATES}

    def __init__(self,
                 mu: tuple[float, ...] = (0.01, 0.03, 0.09, 0.2, 0.45, 0.7, 1.5, 3.0, 7.0, 15.0,
                                          45.0),
                 n_phi: int = DEFAULT_N_PHI,
                 gates_per_point: int = DEFAULT_GATES_PER_POINT) -> None:
        _setfield(self, "mu", mu)
        _setfield(self, "n_phi", n_phi)
        _setfield(self, "gates_per_point", gates_per_point)

    def run(self, chain: ChainParams, seed: int) -> ScanResult:
        return run_fig6(chain, self.mu, n_phi=self.n_phi,
                        gates_per_point=self.gates_per_point, seed=seed)


SCENARIOS = {"fig4a": Fig4a, "fig4b": Fig4b, "fig5": Fig5, "fig6": Fig6}


class ScenarioConfig(_Record):
    """Validated run description: chain, scenario settings, seed, output.

    ``targets``, ``context`` and ``scenarios`` default to new default
    instances; ``chain`` is the chain that the config's ``chain`` section
    pins, or ``None``, in which case a run calibrates it to the targets.
    """

    __slots__ = ("seed", "output_dir", "targets", "context", "chain", "scenarios")

    def __init__(self, seed: int = DEFAULT_SEED, output_dir: str | None = None,
                 targets: CalibrationTargets | None = None,
                 context: CalibrationContext | None = None,
                 chain: ChainParams | None = None,
                 scenarios: dict | None = None) -> None:
        _setfield(self, "seed", seed)
        _setfield(self, "output_dir", output_dir)
        _setfield(self, "targets", CalibrationTargets() if targets is None else targets)
        _setfield(self, "context", CalibrationContext() if context is None else context)
        _setfield(self, "chain", chain)
        _setfield(self, "scenarios", {name: spec() for name, spec in SCENARIOS.items()}
                  if scenarios is None else scenarios)


_TOP_KEYS = {"seed", "output_dir", "targets", "apparatus", "chain", "scenarios"}
_CHAIN_KEYS = tuple(BOUNDS)


def _chain_values(section, path: str) -> dict[str, float]:
    """The four chain parameters of a ``chain`` section."""
    _object(section, _CHAIN_KEYS, path)
    missing = [k for k in _CHAIN_KEYS if k not in section]
    if missing:
        raise ConfigError(f"key {path!r} is missing {missing}")
    return {k: _number(section, k, None, path + ".") for k in _CHAIN_KEYS}


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and fully validate a configuration file."""
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        raw = json.loads(data.decode("utf-8"))
    # malformed JSON, bytes that are not UTF-8 (RFC 8259), an integer past
    # Python's digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "")
    seed = _integer(raw, "seed", DEFAULT_SEED, "", minimum=0)
    output_dir = _string(raw, "output_dir")
    section = _object(raw.get("scenarios", {}), SCENARIOS, "scenarios")
    targets = _section(CalibrationTargets, raw.get("targets", {}), "targets")
    context = _section(CalibrationContext, raw.get("apparatus", {}), "apparatus")
    scenarios = {name: _section(spec, section.get(name, {}), f"scenarios.{name}")
                 for name, spec in SCENARIOS.items()}
    pinned = _chain_values(raw["chain"], "chain") if "chain" in raw else {}
    # the converter takes sin(sqrt(eta_nor * P)), and a pinned chain beta * P,
    # at every pump power a run uses
    coefficients = {"apparatus.eta_nor_per_w": context.eta_nor_per_w,
                    "chain.noise_coeff_beta": pinned.get("noise_coeff_beta", 0.0)}
    for (name, coefficient), (key, power_w) in itertools.product(coefficients.items(), (
            ("targets.pump_power_w", targets.pump_power_w),
            ("scenarios.fig4a.power_mw", max(scenarios["fig4a"].power_mw) * 1e-3))):
        if not math.isfinite(coefficient * power_w):
            raise ConfigError(f"keys {name!r} and {key!r}: product overflows")
    chain = None
    if pinned:
        try:
            chain = calibrated_chain(CalibrationResult(**pinned), targets, context)
        except ValueError as exc:
            raise ConfigError(f"invalid chain parameters: {exc}") from exc
    return ScenarioConfig(seed, output_dir, targets, context, chain, scenarios)


def _output_path(cfg: ScenarioConfig, out_arg: str | None, default_name: str) -> Path:
    if out_arg is not None:
        return Path(out_arg)
    return Path(cfg.output_dir or ".") / default_name


def _write_csv(path: Path, header: list[str], scan: ScanResult) -> None:
    """Write the scan's leading ``len(header)`` columns under ``header``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = list(scan.columns.values())[: len(header)]
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")


def run_scenario(
    scenario: str, cfg: ScenarioConfig, seed: int, control_override: bool = False
) -> ScanResult:
    if control_override and scenario != "fig5":
        raise ConfigError(f"--no-interferometer has no meaning for {scenario}")
    chain = cfg.chain
    if chain is None:  # no ``chain`` section: calibrate to the targets
        result = calibrate(cfg.targets, cfg.context)
        if not result.feasible:
            raise ConfigError("calibration from the configured targets is infeasible: "
                              + result.message)
        chain = calibrated_chain(result, cfg.targets, cfg.context)
    if control_override:  # the fig5 control run
        chain = chain.without_interferometer()
    module = sys.modules[__name__]
    for name in _DRIVERS:  # binds each driver as a global for the scenario's ``run``
        getattr(module, name)
    try:
        return cfg.scenarios[scenario].run(chain, seed)
    except ValueError as exc:  # a driver rejecting settings it cannot run
        raise ConfigError(f"cannot run {scenario}: {exc}") from exc


def cmd_validate(args) -> int:
    load_config(args.config)
    print(f"{args.config}: OK")
    return 0


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config)
    result = calibrate(cfg.targets, cfg.context)
    ok = result.feasible and residuals_within_tolerance(result, cfg.targets)
    report = {
        "fitted": result.fitted(),
        "predictions": result.predictions,
        "residuals": result.residuals,
        "feasible": result.feasible,
        "within_tolerance": ok,
        "message": result.message,
        "targets": {name: getattr(cfg.targets, name) for name in cfg.targets.__slots__},
    }
    path = _output_path(cfg, args.out, "calibration.json")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    status = "ok" if ok else ("infeasible" if not result.feasible else "out of tolerance")
    print(f"calibration {status}; report written to {path}")
    for name, value in result.residuals.items():
        print(f"  residual {name}: {value:+.3e}")
    if result.message:
        print(f"  note: {result.message}")
    return 0 if ok else 2


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    seed = cfg.seed if args.seed is None else args.seed
    scan = run_scenario(args.scenario, cfg, seed, control_override=args.no_interferometer)
    # a control run does not overwrite the fringe that the same config wrote
    suffix = "_control" if scan.fit.get("control") else ""
    path = _output_path(cfg, args.out, f"{args.scenario}{suffix}.csv")
    try:
        _write_csv(path, CSV_SCHEMAS[args.scenario], scan)
    except OSError as exc:
        print(f"error: cannot write CSV: {exc}", file=sys.stderr)
        return 1
    print(f"{args.scenario}: {len(scan.abscissa)} points written to {path}")
    for name, value in scan.fit.items():
        print(f"  {name}: {value:.6g}")
    return 0


USAGE = """\
usage: qfdc calibrate CONFIG [--out PATH]
       qfdc run {fig4a,fig4b,fig5,fig6} CONFIG [--seed N] [--out PATH] [--no-interferometer]
       qfdc validate CONFIG

commands:
  calibrate  fit chain parameters to the configured targets and write the report
             (default <output_dir>/calibration.json)
  run        run a scenario and write its CSV (default <output_dir>/<scenario>.csv);
             --no-interferometer is the fig5 control run with the interferometer removed;
             a control run writes <output_dir>/fig5_control.csv by default
  validate   check a configuration file

Options may come anywhere after the command, as --opt VALUE or --opt=VALUE,
and cannot be abbreviated. -h or --help prints this text.
Exit codes: 0 success, 1 usage or configuration error, 2 model infeasibility.
"""

#: Each command's function, its positionals (with their choices, or None for
#: any value) and its options (with their value type; ``bool`` is a flag).
_COMMANDS = {
    "calibrate": (cmd_calibrate, {"config": None}, {"--out": str}),
    "run": (cmd_run, {"scenario": SCENARIOS, "config": None},
            {"--seed": int, "--out": str, "--no-interferometer": bool}),
    "validate": (cmd_validate, {"config": None}, {}),
}


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command line as a namespace: ``command``, ``func``, one attribute
    per positional and one per option (``None``, or ``False`` for a flag,
    when not given). A usage problem raises :class:`ConfigError`."""
    if not argv or argv[0] not in _COMMANDS:
        found = f"unknown command {argv[0]!r}" if argv else "no command"
        raise ConfigError(f"{found}; choose from {', '.join(_COMMANDS)}")
    command, *rest = argv
    func, positionals, options = _COMMANDS[command]
    args = SimpleNamespace(command=command, func=func, **{
        name[2:].replace("-", "_"): False if kind is bool else None
        for name, kind in options.items()})
    values = []
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            values.append(token)
            continue
        name, equals, value = token.partition("=")
        kind = options.get(name)
        if kind is None:
            raise ConfigError(f"unknown option {name!r} for {command}")
        if kind is bool:
            if equals:
                raise ConfigError(f"{name} takes no value")
            value = True
        elif not equals:
            value = next(tokens, None)
        if value is None or (kind is str and not value):  # an empty path names no file
            raise ConfigError(f"{name} needs a value")
        try:
            setattr(args, name[2:].replace("-", "_"), kind(value))
        except ValueError:
            raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if len(values) != len(positionals):
        raise ConfigError(f"{command} takes {len(positionals)} argument(s) "
                          f"({' '.join(positionals).upper()}), got {len(values)}")
    for (name, choices), value in zip(positionals.items(), values):
        if choices is not None and value not in choices:
            raise ConfigError(f"unknown {name} {value!r}; choose from {', '.join(choices)}")
        setattr(args, name, value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        return 0
    try:
        args = parse_args(argv)
        return args.func(args)
    except ConfigError as exc:  # usage and configuration errors of every command
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The package's value classes: immutability, equality, hashing, repr,
``replace``, copies and pickles."""

import copy
import pickle

import pytest

from qfdc.calibration import (
    CalibrationContext,
    CalibrationResult,
    CalibrationTargets,
    calibrate,
    calibrated_chain,
)
from qfdc.cli import Fig4a, Fig4b, Fig5, Fig6, ScenarioConfig
from qfdc.detector import CountSummary
from qfdc.experiment import ScanResult
from qfdc.model import (
    ConverterSpec,
    DetectorSpec,
    InterferometerSpec,
    OpticalMode,
    ProcessKind,
    ThreeWaveProcess,
    derive_process,
    mode_from_wavelength,
)


def _process() -> ThreeWaveProcess:
    return derive_process(mode_from_wavelength(1551.1), mode_from_wavelength(712.9))


#: Per class: a valid sample, its fields in order, and one change that its
#: checks reject (``None`` for a class without checks).
CASES = {
    "OpticalMode": (lambda: OpticalMode(712.9), ("wavelength_nm",), {"wavelength_nm": -1.0}),
    "ThreeWaveProcess": (_process, ("pump", "signal", "converted", "kind"),
                         {"kind": ProcessKind.AMPLIFIER}),
    "ConverterSpec": (lambda: ConverterSpec(_process(), 2.0, 0.027, 0.5, 1e-3),
                      ("process", "eta_nor_per_w", "pump_power_w", "system_transmission",
                       "noise_coeff_beta", "leak_fraction"),
                      {"pump_power_w": -1.0}),
    "InterferometerSpec": (InterferometerSpec, ("phase_bias_theta", "oob_suppression_db"),
                           {"oob_suppression_db": -1.0}),
    "DetectorSpec": (DetectorSpec, ("efficiency", "dark_prob_per_gate", "gate_rate_hz"),
                     {"efficiency": 1.5}),
    "ChainParams": (lambda: calibrated_chain(calibrate()),
                    ("converter", "detector", "interferometer", "post_converter_transmission",
                     "intrinsic_visibility_v0"),
                    {"intrinsic_visibility_v0": 1.5}),
    "CalibrationTargets": (CalibrationTargets,
                           ("conversion_efficiency", "pump_power_w", "floor_bare",
                            "floor_interferometer", "visibility_high_mu", "mu_high",
                            "visibility_raw", "visibility_subtracted", "mu_fringe"),
                           {"visibility_raw": 1.0}),
    "CalibrationContext": (CalibrationContext,
                           ("eta_nor_per_w", "detector", "leak_fraction", "oob_suppression_db",
                            "signal_wavelength_nm", "pump_wavelength_nm"),
                           {"leak_fraction": 2.0}),
    "CalibrationResult": (calibrate,
                          ("system_transmission", "noise_coeff_beta", "transmission_product",
                           "intrinsic_visibility_v0", "predictions", "residuals", "feasible",
                           "message"),
                          None),
    "Fig4a": (Fig4a, ("power_mw", "mu", "gates_per_point"), None),
    "Fig4b": (Fig4b, ("mu", "gates_per_point"), None),
    "Fig5": (Fig5, ("mu", "n_phi", "gates_per_point", "control"), None),
    "Fig6": (Fig6, ("mu", "n_phi", "gates_per_point"), None),
    "ScenarioConfig": (ScenarioConfig,
                       ("seed", "output_dir", "targets", "context", "chain_params",
                        "scenarios"),
                       None),
    "CountSummary": (lambda: CountSummary(1000, 7, 4e6), ("gates", "clicks", "gate_rate_hz"),
                     {"clicks": 1001}),
    "ScanResult": (lambda: ScanResult({"mu": [0.1, 0.7], "p": [0.2, 0.3]}, {"slope": 1.0},
                                      [CountSummary(10, 2, 4e6), CountSummary(10, 3, 4e6)]),
                   ("columns", "fit", "raw"),
                   {"raw": [CountSummary(10, 2, 4e6)]}),
}

#: Frozen, but unhashable: their dict fields cannot be hashed.
DICT_FIELDS = {"CalibrationResult", "ScanResult", "ScenarioConfig"}


@pytest.fixture(params=sorted(CASES))
def case(request):
    make, fields, bad = CASES[request.param]
    return request.param, make, fields, bad


def test_every_class_is_covered():
    assert len(CASES) == 16
    assert {make().__class__.__name__ for make, _, _ in CASES.values()} == set(CASES)


def test_fields_are_the_slots_in_order(case):
    name, make, fields, _ = case
    assert make().__slots__ == fields


def test_assignment_and_deletion(case):
    name, make, fields, _ = case
    record = make()
    value = getattr(record, fields[0])
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(record, fields[0], value)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(record, fields[0])
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, fields[0]) is value


def test_equality_and_hash(case):
    name, make, fields, _ = case
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != object() and a != tuple(getattr(a, f) for f in fields)
    if name in DICT_FIELDS:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        # the record is hashable, its fields are not
        assert type(a).__hash__ is not None
    else:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))


def test_repr_names_every_field_in_order(case):
    name, make, fields, _ = case
    record = make()
    inner = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{name}({inner})"


def test_replace_builds_a_new_checked_instance(case):
    name, make, fields, bad = case
    record = make()
    same = record.replace()
    assert same is not record and same == record
    with pytest.raises(TypeError):
        record.replace(not_a_field=1)
    if bad is not None:
        with pytest.raises(ValueError):
            record.replace(**bad)


def test_copy_and_pickle_give_an_equal_instance(case):
    name, make, fields, _ = case
    record = make()
    for other in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert other is not record and other == record
        assert type(other) is type(record)


def test_replace_changes_only_the_named_field():
    spec = ConverterSpec(_process(), 2.0, 0.027, 0.5, 1e-3)
    moved = spec.replace(pump_power_w=0.01)
    assert [getattr(moved, name) for name in spec.__slots__] == [
        spec.process, 2.0, 0.01, 0.5, 1e-3, 0.8]
    assert spec.pump_power_w == 0.027


def test_copies_and_pickles_go_through_the_constructor():
    record = CountSummary(1000, 7, 4e6)
    assert record.__reduce__() == (CountSummary, (1000, 7, 4e6))

    class Forged:
        def __reduce__(self):
            return CountSummary, (1000, 1001, 4e6)

    with pytest.raises(ValueError, match="clicks <= gates"):
        pickle.loads(pickle.dumps(Forged()))


def test_defaults_are_new_per_instance():
    assert CalibrationResult(0.5, 1.0, 0.5, 0.9).predictions is not \
        CalibrationResult(0.5, 1.0, 0.5, 0.9).predictions
    assert ScanResult({"mu": [1.0]}).fit is not ScanResult({"mu": [1.0]}).fit
    assert ScenarioConfig().scenarios is not ScenarioConfig().scenarios
    assert ScenarioConfig().targets == CalibrationTargets()


def test_dict_fields_compare_by_value():
    a = ScanResult({"mu": [1.0]}, {"slope": 2.0})
    b = ScanResult({"mu": [1.0]})
    assert a != b
    b.fit["slope"] = 2.0
    assert a == b


def test_a_subclass_keeps_the_fields_and_is_not_equal_to_its_base():
    class Counted(CountSummary):
        pass

    assert Counted(10, 2, 4e6) == Counted(10, 2, 4e6) != Counted(10, 3, 4e6)
    assert Counted(10, 2, 4e6) != CountSummary(10, 2, 4e6)
    assert repr(Counted(10, 2, 4e6)).endswith(
        ".Counted(gates=10, clicks=2, gate_rate_hz=4000000.0)")

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. All Monte Carlo runs are
pinned to ACCEPT_SEED, so the suite is deterministic.
"""

import math

import numpy as np
import pytest

from qfdc.calibration import (
    CalibrationContext,
    CalibrationTargets,
    calibrate,
    calibrated_chain,
)
from qfdc.experiment import run_fig4b, run_fig5, run_fig6
from qfdc.model import (
    DetectorSpec,
    InterferometerSpec,
    ProcessKind,
    click_probability,
    derive_process,
    mode_from_wavelength,
    spdc_leak_safe,
)
from qfdc.reference import (
    PhasePattern,
    apply_phase,
    attenuate,
    coherent_train,
    convert,
    sample_gates,
    transmit_train,
)

ACCEPT_SEED = 20260810

FIG4B_MU_GRID = [0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 125.0]
FIG6_MU_GRID = [0.01, 0.03, 0.09, 0.2, 0.45, 0.7, 1.5, 3.0, 7.0, 15.0, 45.0]


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def calibration():
    return calibrate()


@pytest.fixture(scope="module")
def chain(calibration):
    return calibrated_chain(calibration)


@pytest.fixture(scope="module")
def fig4b_scan(chain):
    return run_fig4b(
        chain.without_interferometer(),
        FIG4B_MU_GRID,
        gates_per_point=100_000_000,
        seed=ACCEPT_SEED,
    )


@pytest.fixture(scope="module")
def fig6_scan(chain):
    return run_fig6(
        chain, FIG6_MU_GRID, n_phi=16, gates_per_point=40_000_000, seed=ACCEPT_SEED
    )


def test_criterion_1_energy_conservation():
    process = derive_process(
        mode_from_wavelength(1551.1), mode_from_wavelength(712.9)
    )
    lam = process.converted.wavelength_nm
    kind_ok = process.kind is ProcessKind.BEAMSPLITTER
    leak_ok = spdc_leak_safe(process)
    lam_ok = abs(lam - 1319.1) <= 0.05
    _report(
        "1",
        kind_ok and leak_ok and lam_ok,
        f"beamsplitter-type {kind_ok}, SPDC-leak-safe {leak_ok}, "
        f"converted {lam:.4f} nm vs 1319.1 +- 0.05 nm {lam_ok} "
        f"(the three quoted wavelengths are rounded to 0.1 nm and are mutually "
        f"inconsistent by 0.13 nm, so exact difference-frequency arithmetic "
        f"cannot land within 0.05 nm)",
    )
    assert kind_ok
    assert leak_ok
    assert lam_ok


def test_criterion_2_calibration(calibration):
    targets = CalibrationTargets()
    r = calibration.residuals
    checks = {
        "efficiency exact": abs(r["conversion_efficiency"]) <= 1e-9 * 0.0035,
        "floor 7e-5 within 15%": abs(r["floor_bare"]) <= 0.15 * targets.floor_bare,
        "floor 3e-5 within 15%": abs(r["floor_interferometer"])
        <= 0.15 * targets.floor_interferometer,
        "V(143) within 0.5 pt": abs(r["visibility_high_mu"]) <= 0.005,
        "V_raw(0.7) within 1.1 pt": abs(r["visibility_raw"]) <= 0.011,
        "V_sub(0.7) within 2.2 pt": abs(r["visibility_subtracted"]) <= 0.022,
    }
    ok = calibration.feasible and all(checks.values())
    _report(
        "2",
        ok,
        f"feasible {calibration.feasible}; "
        + "; ".join(f"{name} {flag}" for name, flag in checks.items()),
    )
    assert calibration.feasible
    for name, flag in checks.items():
        assert flag, name


def test_criterion_3_count_rate_sweep(fig4b_scan):
    scan = fig4b_scan
    fit_ok = True
    subtracted = list(zip(scan.columns["p_subtracted"], scan.columns["p_subtracted_sigma"]))
    for mu, (p_sub, sigma), line in zip(scan.abscissa, subtracted, scan.columns["fit_line"]):
        if abs(p_sub - line) >= 3.0 * sigma:
            fit_ok = False
    raw_ok = True
    for mu, raw, line in zip(scan.abscissa, scan.raw, scan.columns["fit_line"]):
        if mu <= 0.1 and (raw.p_click - line) <= 3.0 * raw.sigma_p:
            raw_ok = False
    worst = max(
        abs(p_sub - f) / sigma
        for (p_sub, sigma), f in zip(subtracted, scan.columns["fit_line"])
    )
    _report(
        "3",
        fit_ok and raw_ok,
        f"subtracted points on through-origin line (worst {worst:.2f} sigma, "
        f"need < 3), raw points above the line by > 3 sigma for mu <= 0.1: {raw_ok}",
    )
    assert fit_ok
    assert raw_ok


def test_criterion_4_fringe_scans(chain):
    high = run_fig5(chain, 143.0, gates_per_point=40_000_000, seed=ACCEPT_SEED)
    low = run_fig5(chain, 0.7, gates_per_point=40_000_000, seed=ACCEPT_SEED + 2)
    control = run_fig5(
        chain.without_interferometer(), 143.0, gates_per_point=40_000_000, seed=ACCEPT_SEED + 3
    )
    v_high, v_low = high.fit["visibility"], low.fit["visibility"]
    high_ok = abs(v_high - 0.94) <= 0.01
    low_ok = abs(v_low - 0.379) <= 0.02
    control_ok = abs(control.fit["c1"]) < 3.0 * control.fit["c1_sigma"]
    _report(
        "4",
        high_ok and low_ok and control_ok,
        f"V(143) = {v_high:.4f} (94 +- 1 pt) {high_ok}; "
        f"V(0.7) = {v_low:.4f} (37.9 +- 2 pt) {low_ok}; "
        f"control modulation {control.fit['c1']:.2e} +- {control.fit['c1_sigma']:.2e} "
        f"consistent with zero {control_ok}",
    )
    assert high_ok
    assert low_ok
    assert control_ok


def test_criterion_5_visibility_sweep(fig6_scan):
    scan = fig6_scan
    cols = scan.columns
    track_ok = all(
        abs(v - a) < 3.0 * s
        for v, a, s in zip(cols["v_raw"], cols["v_analytic"], cols["v_raw_sigma"])
    )
    order_ok = all(vs > vr for vs, vr in zip(cols["v_sub"], cols["v_raw"]))
    by_mu = dict(zip(scan.abscissa, cols["detectable"]))
    detect_ok = by_mu[0.09] == 1.0 and by_mu[0.01] == 0.0
    worst = max(
        abs(v - a) / s
        for v, a, s in zip(cols["v_raw"], cols["v_analytic"], cols["v_raw_sigma"])
    )
    _report(
        "5",
        track_ok and order_ok and detect_ok,
        f"raw tracks analytic (worst {worst:.2f} sigma, need < 3) {track_ok}; "
        f"subtracted > raw everywhere {order_ok}; "
        f"fringe detectable at mu=0.09 {by_mu[0.09] == 1.0} and "
        f"not at mu=0.01 {by_mu[0.01] == 0.0}",
    )
    assert track_ok
    assert order_ok
    assert detect_ok


SIGNAL = mode_from_wavelength(712.9)
PUMP = mode_from_wavelength(1551.1)


def _random_train(rng, n_slots=8):
    mu = float(rng.uniform(1e-4, 150.0))
    train = coherent_train(SIGNAL, n_slots, mu)
    return apply_phase(
        train, PhasePattern.explicit(rng.uniform(-math.pi, math.pi, n_slots))
    )


def test_criterion_6a_conversion_unitarity(chain):
    rng = np.random.default_rng(61)
    for _ in range(1000):
        spec = chain.converter.replace(
            system_transmission=1.0,
            pump_power_w=float(rng.uniform(0.0, 2.0)),
        )
        train = _random_train(rng)
        converted, residual = convert(train, spec)
        total = converted.slot_photon_numbers() + residual.slot_photon_numbers()
        assert np.allclose(total, train.slot_photon_numbers(), rtol=1e-12, atol=0)
    _report("6a", True, "per-slot photon conservation at unit system transmission, "
                        "1000 random trains within 1e-12")


def test_criterion_6b_phase_preservation(chain):
    rng = np.random.default_rng(62)
    for _ in range(1000):
        train = _random_train(rng)
        converted, _ = convert(train, chain.converter)
        diff = np.angle(converted.amplitudes * np.conj(train.amplitudes))
        assert np.all(np.abs(diff - diff[0]) < 1e-12)
    _report("6b", True, "slot-independent phase offset through conversion, 1000 random trains")


def test_criterion_6c_attenuation_composition():
    rng = np.random.default_rng(63)
    for _ in range(1000):
        train = _random_train(rng, n_slots=6)
        a, b = rng.uniform(0.0, 60.0, 2)
        chained = attenuate(attenuate(train, a), b)
        direct = attenuate(train, a + b)
        assert np.allclose(chained.amplitudes, direct.amplitudes, rtol=1e-12, atol=0)
    _report("6c", True, "attenuate(a) o attenuate(b) == attenuate(a+b), 1000 cases within 1e-12")


def test_criterion_6d_interferometer_energy():
    rng = np.random.default_rng(64)
    for _ in range(1000):
        n = int(rng.integers(2, 32))
        train = _random_train(rng, n_slots=n)
        spec = InterferometerSpec(phase_bias_theta=float(rng.uniform(-math.pi, math.pi)))
        p0 = transmit_train(train, spec, port=0)
        p1 = transmit_train(train, spec, port=1)
        slots = train.slot_photon_numbers()
        expected = np.empty(n)
        expected[0] = slots[0] / 2.0
        expected[1:] = (slots[1:] + slots[:-1]) / 2.0
        assert np.allclose(p0 + p1, expected, rtol=1e-12, atol=1e-30)
    _report("6d", True, "two-port energy conservation, 1000 random trains within 1e-12")


def test_criterion_6e_click_monotonicity():
    rng = np.random.default_rng(65)
    for _ in range(1000):
        spec = DetectorSpec(
            efficiency=float(rng.uniform(0.0, 1.0)),
            dark_prob_per_gate=float(rng.uniform(0.0, 0.1)),
            gate_rate_hz=4e6,
        )
        a, b = sorted(rng.uniform(0.0, 1e3, 2))
        p_a, p_b = click_probability(a, spec), click_probability(b, spec)
        assert 0.0 <= p_a <= p_b <= 1.0
    _report("6e", True, "click probability monotone nondecreasing and bounded, 1000 cases")


def test_criterion_6f_monte_carlo_determinism():
    rng = np.random.default_rng(66)
    spec = DetectorSpec()
    cases = []
    for _ in range(1000):
        mu = float(rng.uniform(0.0, 10.0))
        n_gates = int(rng.integers(1, 4 * (1 << 20)))
        seed = int(rng.integers(0, 2**63))
        cases.append(((mu, spec, n_gates, seed), sample_gates(mu, spec, n_gates, seed)))
        assert sample_gates(mu, spec, n_gates, seed) == cases[-1][1]
    # again in reverse order, so every call follows calls with other seeds
    for args, reference in reversed(cases):
        assert sample_gates(*args) == reference
    _report("6f", True, "bit-identical click counts on repeated and interleaved calls, 1000 cases")

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdc.model import (
    ConverterSpec,
    InterferometerSpec,
    ProcessKind,
    background_photons,
    conversion_efficiency,
    derive_process,
    mode_from_wavelength,
    spdc_leak_safe,
)
from qfdc.reference import PhasePattern, coherent_train, convert

PUMP = mode_from_wavelength(1551.1)
SIGNAL = mode_from_wavelength(712.9)


def reference_process():
    return derive_process(PUMP, SIGNAL)


def reference_spec(**overrides):
    kwargs = dict(
        process=reference_process(),
        eta_nor_per_w=2.0,
        pump_power_w=0.027,
        system_transmission=0.06599419030372597,
        noise_coeff_beta=0.09446572517398062,
        leak_fraction=0.8,
    )
    kwargs.update(overrides)
    return ConverterSpec(**kwargs)


class TestDeriveProcess:
    def test_downconversion_channel(self):
        process = reference_process()
        assert process.kind is ProcessKind.BEAMSPLITTER
        # exact difference frequency of the two quoted inputs; frozen from a
        # 50-digit evaluation (0.13 nm above the rounded 1319.1 nm label)
        assert process.converted.wavelength_nm == pytest.approx(1319.230720591744, rel=1e-12)

    def test_internal_energy_conservation(self):
        process = reference_process()
        w = process
        assert w.pump.angular_frequency + w.converted.angular_frequency == pytest.approx(
            w.signal.angular_frequency, rel=1e-12
        )

    def test_amplifier_when_pump_highest(self):
        process = derive_process(pump=SIGNAL, signal=PUMP)
        assert process.kind is ProcessKind.AMPLIFIER
        assert process.converted.angular_frequency == pytest.approx(
            SIGNAL.angular_frequency - PUMP.angular_frequency, rel=1e-12
        )

    def test_degenerate_rejected(self):
        # frequencies within 1e-12 relative of each other have no converted mode
        for signal in (SIGNAL, mode_from_wavelength(712.9 * (1 + 1e-13))):
            with pytest.raises(ValueError, match="must be distinct"):
                derive_process(SIGNAL, signal)

    def test_converted_mode_beyond_the_float_range_rejected(self):
        # distinct modes whose difference frequency is too small for a
        # finite wavelength
        with pytest.raises(ValueError, match="wavelength_nm must be finite"):
            derive_process(mode_from_wavelength(1e308), mode_from_wavelength(0.99999999999e308))

    def test_energy_conservation_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            lam_pump = rng.uniform(900.0, 1700.0)
            lam_signal = rng.uniform(400.0, 899.0)
            p = derive_process(mode_from_wavelength(lam_pump), mode_from_wavelength(lam_signal))
            assert p.kind is ProcessKind.BEAMSPLITTER
            total = p.pump.angular_frequency + p.converted.angular_frequency
            assert abs(total - p.signal.angular_frequency) <= 1e-9 * p.signal.angular_frequency
            # converted wavelength re-enters consistently
            again = derive_process(p.pump, p.signal)
            assert again.converted.wavelength_nm == p.converted.wavelength_nm


class TestSpdcLeakSafe:
    def test_reference_configuration_safe(self):
        assert spdc_leak_safe(reference_process()) is True

    def test_long_converted_wavelength_unsafe(self):
        # pump 1000 nm, signal 600 nm -> converted 1500 nm, below pump frequency
        process = derive_process(mode_from_wavelength(1000.0), mode_from_wavelength(600.0))
        assert process.converted.wavelength_nm == pytest.approx(1500.0, rel=1e-9)
        assert spdc_leak_safe(process) is False

    def test_boundary_equal_frequencies_unsafe(self):
        # omega_s = 2*omega_p puts the converted photon at the pump; this pair
        # rounds its converted frequency onto the pump's bit for bit, so it
        # sits exactly on the strict boundary
        process = derive_process(mode_from_wavelength(800.1), mode_from_wavelength(400.05))
        assert process.converted.angular_frequency == process.pump.angular_frequency
        assert spdc_leak_safe(process) is False

    def test_rejects_amplifier(self):
        process = derive_process(pump=SIGNAL, signal=PUMP)
        with pytest.raises(ValueError):
            spdc_leak_safe(process)


class TestConverterSpec:
    @pytest.mark.parametrize("name", ["system_transmission", "leak_fraction"])
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_bounds_are_closed(self, name, value):
        assert getattr(reference_spec(**{name: value}), name) == value

    @pytest.mark.parametrize("eta, power", [(1e300, 1e10), (2.0, 1e308)])
    def test_overflowing_mixing_product_rejected(self, eta, power):
        # sin(sqrt(eta_nor * P)) has no value once the product is inf
        with pytest.raises(ValueError, match=r"eta_nor_per_w \* pump_power_w overflows"):
            reference_spec(eta_nor_per_w=eta, pump_power_w=power)

    def test_largest_finite_mixing_product_accepted(self):
        spec = reference_spec(eta_nor_per_w=1e300, pump_power_w=1e8)
        assert 0.0 <= spec.internal_conversion_probability <= 1.0


class TestConversionEfficiency:
    def test_zero_power(self):
        assert conversion_efficiency(reference_spec(pump_power_w=0.0)) == 0.0

    def test_quoted_operating_point(self):
        assert conversion_efficiency(reference_spec()) == pytest.approx(0.0035, rel=1e-12)

    def test_unit_peak(self):
        peak_power = (math.pi / 2) ** 2 / 2.0
        spec = reference_spec(system_transmission=1.0, pump_power_w=peak_power)
        assert conversion_efficiency(spec) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_up_to_peak(self):
        peak_power = (math.pi / 2) ** 2 / 2.0
        values = [
            conversion_efficiency(reference_spec(pump_power_w=p))
            for p in np.linspace(0.0, peak_power, 64)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_bounded_by_system_transmission(self):
        for p in np.linspace(0.0, 5.0, 50):
            spec = reference_spec(pump_power_w=float(p))
            assert 0.0 <= conversion_efficiency(spec) <= spec.system_transmission

    def test_rejects_amplifier(self):
        process = derive_process(pump=SIGNAL, signal=PUMP)
        with pytest.raises(ValueError):
            conversion_efficiency(reference_spec(process=process))


class TestConvert:
    def test_vacuum_in_vacuum_out(self):
        train = coherent_train(SIGNAL, 4, 0.0)
        converted, residual = convert(train, reference_spec())
        assert np.all(converted.amplitudes == 0)
        assert np.all(residual.amplitudes == 0)

    def test_full_conversion(self):
        peak_power = (math.pi / 2) ** 2 / 2.0
        spec = reference_spec(system_transmission=1.0, pump_power_w=peak_power)
        train = coherent_train(SIGNAL, 4, 0.7, PhasePattern.alternating(1.0))
        converted, residual = convert(train, spec)
        assert converted.mean_photon_number == pytest.approx(0.7, rel=1e-12)
        assert residual.mean_photon_number == pytest.approx(0.0, abs=1e-30)
        assert converted.mode == spec.process.converted

    def test_phase_pattern_preserved(self):
        train = coherent_train(SIGNAL, 8, 0.7, PhasePattern.alternating(0.9))
        converted, _ = convert(train, reference_spec())
        diffs = np.angle(converted.amplitudes) - np.angle(train.amplitudes)
        assert np.allclose(diffs, diffs[0], atol=1e-12)

    def test_mode_mismatch_rejected(self):
        train = coherent_train(mode_from_wavelength(800.0), 4, 1.0)
        with pytest.raises(ValueError):
            convert(train, reference_spec())

    def test_amplifier_rejected(self):
        process = derive_process(pump=SIGNAL, signal=PUMP)
        spec = reference_spec(process=process)
        train = coherent_train(PUMP, 4, 1.0)
        with pytest.raises(ValueError):
            convert(train, spec)

    @given(
        mu=st.floats(1e-6, 150.0),
        phi=st.floats(-math.pi, math.pi),
        power=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_unitarity_without_loss(self, mu, phi, power):
        spec = reference_spec(system_transmission=1.0, pump_power_w=power)
        train = coherent_train(SIGNAL, 6, mu, PhasePattern.alternating(phi))
        converted, residual = convert(train, spec)
        total = converted.slot_photon_numbers() + residual.slot_photon_numbers()
        assert np.allclose(total, train.slot_photon_numbers(), rtol=1e-12, atol=0)


def _background(transmission=1.0, interferometer=None, **overrides):
    """:func:`background_photons` of a converter at ``reference_spec``."""
    spec = reference_spec(**overrides)
    return background_photons(spec.noise_coeff_beta * spec.pump_power_w, spec.leak_fraction,
                              transmission, interferometer)


class TestNoiseBackground:
    def test_zero_power(self):
        assert _background(pump_power_w=0.0) == 0.0

    def test_linearity(self):
        for interferometer in (None, InterferometerSpec()):
            one = _background(interferometer=interferometer, pump_power_w=0.013)
            two = _background(interferometer=interferometer, pump_power_w=0.026)
            assert two == pytest.approx(2 * one, rel=1e-12)

    def test_split(self):
        total = 0.09446572517398062 * 0.027
        assert _background() == pytest.approx(total, rel=1e-12)
        # behind a 0 dB interferometer the leak (0.8) stays and the Raman light halves
        behind = _background(interferometer=InterferometerSpec(oob_suppression_db=0.0))
        assert behind == pytest.approx((0.8 + 0.2 / 2) * total, rel=1e-12)

    def test_scaled(self):
        for interferometer in (None, InterferometerSpec()):
            full = _background(interferometer=interferometer)
            assert _background(0.5, interferometer) == pytest.approx(full / 2, rel=1e-12)
            assert _background(0.0, interferometer) == 0.0

    def test_rejects_a_product_that_overflows(self):
        with pytest.raises(ValueError, match="beta"):
            _background(noise_coeff_beta=1e300, pump_power_w=1e10)

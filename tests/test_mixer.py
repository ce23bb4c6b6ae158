import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdc.model import (
    ConverterSpec,
    ProcessKind,
    ThreeWaveProcess,
    conversion_efficiency,
    derive_process,
    mode_from_wavelength,
    noise_background,
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
        with pytest.raises(ValueError):
            derive_process(SIGNAL, SIGNAL)

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


class TestThreeWaveProcess:
    # with the 1551.1 nm mode, these two wavelengths miss energy conservation
    # by exactly its tolerance, 1e-9 of the highest frequency of the three
    LOW_NM, HIGH_NM, CONVERTED_NM = 1551.1, 712.9000367525003, 1319.2308440056986

    def test_residual_equal_to_the_tolerance_is_accepted(self):
        low, high, converted = map(
            mode_from_wavelength, (self.LOW_NM, self.HIGH_NM, self.CONVERTED_NM))
        w_low, w_high = low.angular_frequency, high.angular_frequency
        assert abs(w_low + converted.angular_frequency - w_high) == 1e-9 * w_high
        ThreeWaveProcess(low, high, converted, ProcessKind.BEAMSPLITTER)
        ThreeWaveProcess(high, low, converted, ProcessKind.AMPLIFIER)

    @pytest.mark.parametrize("kind", list(ProcessKind))
    def test_equal_pump_and_signal_rejected(self, kind):
        # a converted frequency of 1.9e6 rad/s, within the tolerance of zero,
        # conserves energy; only the frequency order rejects the triple
        mode = mode_from_wavelength(712.9)
        with pytest.raises(ValueError, match="above"):
            ThreeWaveProcess(mode, mode, mode_from_wavelength(1e12), kind)


class TestSpdcLeakSafe:
    def test_reference_configuration_safe(self):
        assert spdc_leak_safe(reference_process()) is True

    def test_long_converted_wavelength_unsafe(self):
        # pump 1000 nm, signal 600 nm -> converted 1500 nm, below pump frequency
        process = derive_process(mode_from_wavelength(1000.0), mode_from_wavelength(600.0))
        assert process.converted.wavelength_nm == pytest.approx(1500.0, rel=1e-9)
        assert spdc_leak_safe(process) is False

    def test_boundary_equal_frequencies_unsafe(self):
        # omega_s = 2*omega_p puts the converted photon exactly at the pump
        pump = mode_from_wavelength(1400.0)
        signal = mode_from_wavelength(700.0)
        process = derive_process(pump, signal)
        assert spdc_leak_safe(process) is False
        # derive_process rounds the converted frequency 0.25 rad/s below the
        # pump's; the pump's own mode as the converted one is the exact boundary
        exact = ThreeWaveProcess(pump, signal, pump, ProcessKind.BEAMSPLITTER)
        assert spdc_leak_safe(exact) is False

    def test_rejects_amplifier(self):
        process = derive_process(pump=SIGNAL, signal=PUMP)
        with pytest.raises(ValueError):
            spdc_leak_safe(process)


class TestConverterSpec:
    @pytest.mark.parametrize("name", ["system_transmission", "leak_fraction"])
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_bounds_are_closed(self, name, value):
        assert getattr(reference_spec(**{name: value}), name) == value


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


class TestNoiseBackground:
    def test_zero_power(self):
        bg = noise_background(reference_spec(pump_power_w=0.0))
        assert bg.total_photons_per_gate == 0.0

    def test_linearity(self):
        one = noise_background(reference_spec(pump_power_w=0.013))
        two = noise_background(reference_spec(pump_power_w=0.026))
        assert two.leak_photons_per_gate == pytest.approx(2 * one.leak_photons_per_gate, rel=1e-12)
        assert two.raman_photons_per_gate == pytest.approx(2 * one.raman_photons_per_gate, rel=1e-12)

    def test_split(self):
        bg = noise_background(reference_spec())
        assert bg.leak_photons_per_gate == pytest.approx(0.8 * bg.total_photons_per_gate, rel=1e-12)
        assert bg.total_photons_per_gate == pytest.approx(
            0.09446572517398062 * 0.027, rel=1e-12
        )

    def test_scaled(self):
        bg = noise_background(reference_spec()).scaled(0.5)
        full = noise_background(reference_spec())
        assert bg.total_photons_per_gate == pytest.approx(
            full.total_photons_per_gate / 2, rel=1e-12
        )

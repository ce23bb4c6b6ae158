import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdc.model import (
    InterferometerSpec,
    NoiseBackground,
    mode_from_wavelength,
    suppress_background,
)
from qfdc.reference import PhasePattern, coherent_train, gate_mean_photons, transmit_train

CONVERTED = mode_from_wavelength(1319.1)


class TestTransmitTrain:
    def test_uniform_constructive(self):
        spec = InterferometerSpec()
        train = coherent_train(CONVERTED, 16, 0.5, PhasePattern.uniform(0.0))
        out = transmit_train(train, spec)
        assert out[1:] == pytest.approx([0.5] * 15, rel=1e-12)
        assert out[0] == pytest.approx(0.5 / 4, rel=1e-12)

    def test_uniform_destructive(self):
        spec = InterferometerSpec(phase_bias_theta=math.pi)
        train = coherent_train(CONVERTED, 16, 0.5, PhasePattern.uniform(0.0))
        out = transmit_train(train, spec)
        assert np.all(out[1:] < 1e-25)

    @pytest.mark.parametrize("phi", [0.0, 0.4, math.pi / 2, 2.5, math.pi])
    def test_alternating_fringe_law(self, phi):
        spec = InterferometerSpec()
        mu = 0.7
        train = coherent_train(CONVERTED, 64, mu, PhasePattern.alternating(phi))
        out = transmit_train(train, spec)
        expected = mu * (1.0 + math.cos(phi)) / 2.0
        assert out[1:] == pytest.approx([expected] * 63, rel=1e-9, abs=1e-15)

    def test_fringe_extremes(self):
        spec = InterferometerSpec()
        train_max = coherent_train(CONVERTED, 512, 1.0, PhasePattern.alternating(0.0))
        train_min = coherent_train(CONVERTED, 512, 1.0, PhasePattern.alternating(math.pi))
        p_max = gate_mean_photons(transmit_train(train_max, spec))
        p_min = gate_mean_photons(transmit_train(train_min, spec))
        assert p_max > p_min
        # interior slots give port-level visibility 1 before any background;
        # the edge slot's non-interfering term is an O(1/n) gate-mean effect
        i_max = float(np.mean(transmit_train(train_max, spec)[1:]))
        i_min = float(np.mean(transmit_train(train_min, spec)[1:]))
        assert (i_max - i_min) / (i_max + i_min) == pytest.approx(1.0, abs=1e-12)
        assert abs(p_max - i_max) / i_max < 1.0 / 512

    def test_bias_delays_by_plus_theta(self):
        # slot k has phase k*pi/2, so alpha_{k-1}*exp(i*theta) equals alpha_k
        # at theta = pi/2: port 0 carries every interior slot, port 1 none
        spec = InterferometerSpec(phase_bias_theta=math.pi / 2)
        ramp = PhasePattern.explicit([k * math.pi / 2 for k in range(12)])
        train = coherent_train(CONVERTED, 12, 0.6, ramp)
        assert transmit_train(train, spec, port=0)[1:] == pytest.approx([0.6] * 11, rel=1e-12)
        assert np.all(transmit_train(train, spec, port=1)[1:] < 1e-25)

    def test_global_phase_invariance(self):
        spec = InterferometerSpec(phase_bias_theta=0.3)
        train = coherent_train(CONVERTED, 32, 0.9, PhasePattern.alternating(1.2))
        shifted = coherent_train(CONVERTED, 32, 0.9, PhasePattern.alternating(1.2))
        shifted = shifted.with_amplitudes(shifted.amplitudes * np.exp(1j * 0.77))
        assert np.allclose(
            transmit_train(train, spec), transmit_train(shifted, spec), rtol=1e-12
        )

    def test_rejects_short_train(self):
        train = coherent_train(CONVERTED, 1, 1.0)
        with pytest.raises(ValueError):
            transmit_train(train, InterferometerSpec())

    @given(
        mu=st.floats(1e-6, 150.0),
        phi=st.floats(-math.pi, math.pi),
        theta=st.floats(-math.pi, math.pi),
        n=st.integers(2, 64),
    )
    @settings(max_examples=200)
    def test_two_port_energy_conservation(self, mu, phi, theta, n):
        spec = InterferometerSpec(phase_bias_theta=theta)
        train = coherent_train(CONVERTED, n, mu, PhasePattern.alternating(phi))
        p0 = transmit_train(train, spec, port=0)
        p1 = transmit_train(train, spec, port=1)
        slots = train.slot_photon_numbers()
        expected = np.empty(n)
        expected[0] = slots[0] / 2.0
        expected[1:] = (slots[1:] + slots[:-1]) / 2.0
        assert np.allclose(p0 + p1, expected, rtol=1e-12, atol=1e-30)


class TestSuppressBackground:
    def test_12_db_on_leak(self):
        bg = NoiseBackground(1.0, 0.0)
        out = suppress_background(bg, InterferometerSpec(oob_suppression_db=12.0))
        assert out.leak_photons_per_gate == pytest.approx(10 ** (-1.2), rel=1e-12)

    def test_port_splitting_only(self):
        bg = NoiseBackground(0.4, 0.6)
        out = suppress_background(bg, InterferometerSpec(oob_suppression_db=0.0))
        assert out.leak_photons_per_gate == pytest.approx(0.4, rel=1e-12)
        assert out.raman_photons_per_gate == pytest.approx(0.3, rel=1e-12)



class TestSpecValidation:
    def test_rejects_negative_suppression(self):
        with pytest.raises(ValueError):
            InterferometerSpec(oob_suppression_db=-1.0)

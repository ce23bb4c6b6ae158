import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdc.model import mode_from_angular_frequency, mode_from_wavelength
from qfdc.optics import (
    CoherentPulseTrain,
    PhasePattern,
    apply_phase,
    attenuate,
    coherent_train,
    transmission_loss_db,
)

SIGNAL = mode_from_wavelength(712.9)


class TestOpticalMode:
    def test_signal_frequency(self):
        # 2*pi*c / 712.9 nm, frozen from a 50-digit evaluation
        assert SIGNAL.angular_frequency == pytest.approx(2642238136216655.0, rel=1e-12)

    def test_frequency_ordering(self):
        w_s = mode_from_wavelength(712.9).angular_frequency
        w_c = mode_from_wavelength(1319.1).angular_frequency
        w_p = mode_from_wavelength(1551.1).angular_frequency
        assert w_s > w_c > w_p

    def test_round_trip(self):
        mode = mode_from_wavelength(1319.1)
        again = mode_from_wavelength(mode.wavelength_nm)
        assert again.angular_frequency == mode.angular_frequency

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf])
    def test_rejects_bad_wavelength(self, bad):
        with pytest.raises(ValueError):
            mode_from_wavelength(bad)

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf])
    def test_rejects_bad_angular_frequency(self, bad):
        with pytest.raises(ValueError, match="angular_frequency"):
            mode_from_angular_frequency(bad)


class TestCoherentTrain:
    def test_alternating_amplitudes(self):
        train = coherent_train(SIGNAL, 4, 0.7, PhasePattern.alternating(math.pi / 2))
        root = math.sqrt(0.7)
        expected = root * np.array([1.0, 1.0j, 1.0, 1.0j])
        assert np.allclose(train.amplitudes, expected, rtol=0, atol=1e-15)

    def test_vacuum(self):
        train = coherent_train(SIGNAL, 2, 0.0, PhasePattern.alternating(1.3))
        assert np.all(train.amplitudes == 0)
        assert train.mean_photon_number == 0.0

    def test_high_mu_slots(self):
        train = coherent_train(SIGNAL, 2, 143.0, PhasePattern.uniform(0.0))
        assert train.slot_photon_numbers() == pytest.approx([143.0, 143.0], rel=1e-12)

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            coherent_train(SIGNAL, 4, -0.1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            coherent_train(SIGNAL, 0, 1.0)
        with pytest.raises(ValueError):
            CoherentPulseTrain(mode=SIGNAL, amplitudes=np.array([]))

    def test_amplitudes_read_only(self):
        train = coherent_train(SIGNAL, 4, 1.0)
        with pytest.raises(ValueError):
            train.amplitudes[0] = 0.0


class TestAttenuate:
    def test_half_power(self):
        train = coherent_train(SIGNAL, 8, 1.0)
        out = attenuate(train, 3.0103)
        assert out.mean_photon_number == pytest.approx(0.5, rel=1e-6)

    def test_zero_db_identity(self):
        train = coherent_train(SIGNAL, 8, 0.7, PhasePattern.alternating(0.4))
        out = attenuate(train, 0.0)
        assert np.array_equal(out.amplitudes, train.amplitudes)

    def test_30_db(self):
        train = coherent_train(SIGNAL, 4, 125.0)
        out = attenuate(train, 30.0)
        assert out.mean_photon_number == pytest.approx(0.125, rel=1e-12)

    def test_phases_unchanged(self):
        train = coherent_train(SIGNAL, 6, 2.0, PhasePattern.alternating(1.1))
        out = attenuate(train, 7.5)
        assert np.allclose(np.angle(out.amplitudes), np.angle(train.amplitudes), atol=1e-15)

    def test_rejects_negative_loss(self):
        train = coherent_train(SIGNAL, 4, 1.0)
        with pytest.raises(ValueError):
            attenuate(train, -0.1)

    @given(a=st.floats(0.0, 60.0), b=st.floats(0.0, 60.0), mu=st.floats(1e-6, 200.0))
    @settings(max_examples=200)
    def test_composition(self, a, b, mu):
        train = coherent_train(SIGNAL, 5, mu, PhasePattern.alternating(0.7))
        chained = attenuate(attenuate(train, a), b)
        direct = attenuate(train, a + b)
        assert np.allclose(chained.amplitudes, direct.amplitudes, rtol=1e-12, atol=0)

    def test_transmission_loss_db(self):
        assert transmission_loss_db(1.0) == 0.0
        assert transmission_loss_db(0.5) == pytest.approx(3.0102999566398, rel=1e-12)
        assert transmission_loss_db(0.0) == math.inf
        with pytest.raises(ValueError):
            transmission_loss_db(1.5)


class TestApplyPhase:
    def test_uniform_zero_identity(self):
        train = coherent_train(SIGNAL, 6, 0.9, PhasePattern.alternating(0.5))
        out = apply_phase(train, PhasePattern.uniform(0.0))
        assert np.array_equal(out.amplitudes, train.amplitudes)

    def test_alternating_pi_flips_signs(self):
        train = coherent_train(SIGNAL, 4, 1.0, PhasePattern.uniform(0.0))
        out = apply_phase(train, PhasePattern.alternating(math.pi))
        signs = np.real(out.amplitudes)
        assert signs[0] > 0 and signs[2] > 0
        assert signs[1] < 0 and signs[3] < 0

    def test_inverse(self):
        train = coherent_train(SIGNAL, 9, 0.3, PhasePattern.uniform(0.2))
        phi = 1.234
        back = apply_phase(
            apply_phase(train, PhasePattern.alternating(phi)),
            PhasePattern.alternating(-phi),
        )
        assert np.allclose(back.amplitudes, train.amplitudes, rtol=0, atol=1e-12)

    def test_explicit_length_mismatch(self):
        train = coherent_train(SIGNAL, 4, 1.0)
        with pytest.raises(ValueError):
            apply_phase(train, PhasePattern.explicit([0.0, 1.0, 2.0]))

    @given(
        mu=st.floats(0.0, 150.0),
        phi=st.floats(-10.0, 10.0),
        n=st.integers(1, 64),
    )
    @settings(max_examples=200)
    def test_preserves_mean_photon_number(self, mu, phi, n):
        train = coherent_train(SIGNAL, n, mu, PhasePattern.uniform(0.3))
        out = apply_phase(train, PhasePattern.alternating(phi))
        assert out.mean_photon_number == pytest.approx(
            train.mean_photon_number, rel=1e-12, abs=0.0
        )


class TestPhasePattern:
    def test_alternating_expansion(self):
        assert PhasePattern.alternating(0.7).phases(5).tolist() == [0.0, 0.7, 0.0, 0.7, 0.0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PhasePattern("sawtooth")

    def test_explicit_round_trip(self):
        values = [0.1, 0.2, 0.3]
        assert PhasePattern.explicit(values).phases(3).tolist() == values

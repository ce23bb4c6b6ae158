"""The reference train pipeline and the one-point definitions of the Monte Carlo.

Nothing that a command runs needs this module; the tests check the runtime
against it. :func:`chain_point_mean` propagates a finite train of coherent
amplitudes slot by slot, following the optical chain, and is the reference
for the closed form :func:`qfdc.model.expected_rate`:

* pulse trains: :class:`PhasePattern`, :class:`CoherentPulseTrain`,
  :func:`coherent_train`, :func:`attenuate` and :func:`apply_phase`;
* the converter: :func:`convert`, the conversion law as a cos/sin amplitude
  map;
* the 1-bit delay interferometer: :func:`transmit_train`.

:func:`derive_seed` and :func:`sample_gates` are the one-point definitions
of :func:`qfdc.detector.derive_seeds` and :func:`qfdc.detector.sample_scan`,
:func:`simulate_point` samples one scenario point alone, and
:func:`dark_subtract` is the one-pair background subtraction that fig4b
forms over arrays.

Every optical state here is a coherent state, so a pulse train is carried
entirely by one complex amplitude per clock slot; ``|amplitude|**2`` is the
slot's mean photon number. All elements are linear in the amplitudes, which
keeps this description exact; photon statistics enter only at detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .detector import CountSummary, sample_scan
from .model import (
    ChainParams,
    ConverterSpec,
    DetectorSpec,
    InterferometerSpec,
    OpticalMode,
    ProcessKind,
    click_probability,
    expected_rate,
    noise_background,
    suppress_background,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_N_SLOTS = 4096


# --- pulse trains ----------------------------------------------------------


@dataclass(frozen=True)
class PhasePattern:
    """Per-slot phase assignment for a pulse train.

    ``alternating(phi)`` expands to 0, phi, 0, phi, ... over the train;
    ``uniform(phi)`` assigns the same phase everywhere; ``explicit`` carries
    one phase per slot and must match the train length exactly.
    """

    kind: str
    phi: float = 0.0
    values: tuple[float, ...] | None = None

    _KINDS = ("uniform", "alternating", "explicit")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.kind == "explicit":
            if self.values is None:
                raise ValueError("explicit pattern requires values")
            if not all(math.isfinite(v) for v in self.values):
                raise ValueError("explicit pattern values must be finite")
        elif not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")

    @classmethod
    def uniform(cls, phi: float = 0.0) -> "PhasePattern":
        return cls("uniform", phi=float(phi))

    @classmethod
    def alternating(cls, phi: float) -> "PhasePattern":
        return cls("alternating", phi=float(phi))

    @classmethod
    def explicit(cls, values) -> "PhasePattern":
        return cls("explicit", values=tuple(float(v) for v in values))

    def phases(self, n_slots: int) -> np.ndarray:
        """Expand to one phase per slot; explicit patterns must match n_slots."""
        import numpy as np
        if n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        if self.kind == "uniform":
            return np.full(n_slots, self.phi, dtype=float)
        if self.kind == "alternating":
            out = np.zeros(n_slots, dtype=float)
            out[1::2] = self.phi
            return out
        assert self.values is not None
        if len(self.values) != n_slots:
            raise ValueError(
                f"explicit pattern has {len(self.values)} phases for {n_slots} slots"
            )
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True, eq=False)
class CoherentPulseTrain:
    """A clocked train of coherent pulses on one wavelength channel.

    ``amplitudes[k]`` is the complex coherent amplitude of slot k; a slot is
    treated as a point event with a mean photon number.
    """

    mode: OpticalMode
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(amps.real) & np.isfinite(amps.imag)):
            raise ValueError("amplitudes must all be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_slots(self) -> int:
        return int(self.amplitudes.size)

    def slot_photon_numbers(self) -> np.ndarray:
        """Mean photon number of each slot, ``|alpha_k|**2``."""
        return abs(self.amplitudes) ** 2

    @property
    def mean_photon_number(self) -> float:
        """Average of ``|alpha_k|**2`` over the slots."""
        return float(self.slot_photon_numbers().mean())

    def with_amplitudes(self, amplitudes: np.ndarray, mode: OpticalMode | None = None) -> "CoherentPulseTrain":
        """New train with replaced amplitudes (and optionally mode)."""
        return CoherentPulseTrain(self.mode if mode is None else mode, amplitudes)


def coherent_train(
    mode: OpticalMode,
    n_slots: int,
    mu: float,
    pattern: PhasePattern | None = None,
) -> CoherentPulseTrain:
    """Phase-modulated attenuated coherent pulse train with |alpha_k|^2 = mu.

    Idealizes the whole preparation chain (pulse carving, phase modulator,
    attenuator, wavelength translation of the source) into one constructor.
    """
    import numpy as np
    mu = float(mu)
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    if pattern is None:
        pattern = PhasePattern.uniform(0.0)
    amps = math.sqrt(mu) * np.exp(1j * pattern.phases(n_slots))
    return CoherentPulseTrain(mode, amps)


def attenuate(train: CoherentPulseTrain, loss_db: float) -> CoherentPulseTrain:
    """Apply a fixed optical power loss in dB; phases are unchanged."""
    loss_db = float(loss_db)
    if math.isnan(loss_db) or loss_db < 0.0:
        raise ValueError(f"loss_db must be >= 0, got {loss_db}")
    scale = 10.0 ** (-loss_db / 20.0)
    return train.with_amplitudes(train.amplitudes * scale)


def transmission_loss_db(transmission: float) -> float:
    """Power transmission in [0, 1] expressed as a loss in dB."""
    transmission = float(transmission)
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {transmission}")
    if transmission == 0.0:
        return math.inf
    return -10.0 * math.log10(transmission)


def apply_phase(train: CoherentPulseTrain, pattern: PhasePattern) -> CoherentPulseTrain:
    """Rotate each slot's phase per the pattern; magnitudes are unchanged."""
    import numpy as np
    phases = pattern.phases(train.n_slots)
    return train.with_amplitudes(train.amplitudes * np.exp(1j * phases))


# --- the converter ---------------------------------------------------------


def convert(
    train: CoherentPulseTrain, spec: ConverterSpec
) -> tuple[CoherentPulseTrain, CoherentPulseTrain]:
    """Downconvert a pulse train; returns (converted, residual) trains.

    The beamsplitter-type process (signal above the pump in frequency) swaps
    amplitude between the signal and converted modes,
    ``a_c = a_c0 * cos(chi*t) + a_s0 * sin(chi*t)`` with
    ``chi*t = sqrt(eta_nor * pump_power)``; the converted-mode input is
    vacuum, so the map is a pure cos/sin split. The converted amplitudes are
    sqrt(eta_int * T_sys) * alpha_s and the residual signal keeps
    sqrt(1 - eta_int) * alpha_s, so for T_sys = 1 the map is unitary slot by
    slot. The CW pump contributes a single fixed phase, taken as 0, so the
    slot-to-slot phase pattern is preserved exactly.
    """
    if spec.process.kind is not ProcessKind.BEAMSPLITTER:
        raise ValueError("conversion requires a beamsplitter-type process")
    w_train = train.mode.angular_frequency
    w_signal = spec.process.signal.angular_frequency
    if not math.isclose(w_train, w_signal, rel_tol=1e-9):
        raise ValueError(
            f"train mode ({train.mode.wavelength_nm} nm) does not match the "
            f"process signal mode ({spec.process.signal.wavelength_nm} nm)"
        )
    eta_int = spec.internal_conversion_probability
    converted_amps = math.sqrt(eta_int * spec.system_transmission) * train.amplitudes
    residual_amps = math.sqrt(1.0 - eta_int) * train.amplitudes
    converted = train.with_amplitudes(converted_amps, mode=spec.process.converted)
    residual = train.with_amplitudes(residual_amps)
    return converted, residual


# --- the 1-bit delay interferometer ----------------------------------------


def transmit_train(
    train: CoherentPulseTrain, spec: InterferometerSpec, port: int = 0
) -> np.ndarray:
    """Per-slot mean photon numbers at one output port.

    The path difference equals one clock period, so each slot interferes
    with its predecessor: port 0 of slot k carries
    ``|alpha_k + alpha_{k-1} * exp(i*theta)|^2 / 4`` and port 1 the
    complementary minus-sign combination. The first slot of a finite train
    has no partner and contributes only its non-interfering half-amplitude
    term. Port 0 is the detected port; port 1 is its energy-conserving
    complement (the two ports of each interior slot sum to
    ``(|alpha_k|^2 + |alpha_{k-1}|^2) / 2``).
    """
    import numpy as np
    if port not in (0, 1):
        raise ValueError(f"port must be 0 or 1, got {port}")
    amps = train.amplitudes
    if amps.size < 2:
        raise ValueError("interferometer needs a train of at least 2 slots")
    sign = 1.0 if port == 0 else -1.0
    delayed = amps[:-1] * np.exp(1j * spec.phase_bias_theta)
    out = np.empty(amps.size, dtype=float)
    out[0] = np.abs(amps[0]) ** 2 / 4.0
    out[1:] = np.abs(amps[1:] + sign * delayed) ** 2 / 4.0
    return out


def gate_mean_photons(per_slot: np.ndarray) -> float:
    """Mean photons per gate: the average over all counted slots."""
    import numpy as np
    return float(np.mean(per_slot))


# --- the whole chain -------------------------------------------------------


def chain_point_mean(
    mu: float, phi: float | None, params: ChainParams, n_slots: int = DEFAULT_N_SLOTS
) -> float:
    """Mean photons per gate at the detector via the full train pipeline.

    A reference for :func:`expected_rate`, which the Monte Carlo uses: this
    propagates an actual finite train of amplitudes, so it includes the
    non-interfering edge slot of the interferometer (at most 0.2% at the
    default train length, largest at the fringe minimum). The intrinsic
    visibility ceiling enters as a partial-coherence blend of the
    interfering and incoherent port outputs.

    ``phi=None`` means the phi-averaged fringe, as in :func:`expected_rate`;
    a single train cannot represent that average, so it is rejected when the
    chain has an interferometer.
    """
    if phi is None and params.interferometer is not None:
        raise ValueError("phi=None (the phi-averaged fringe) has no single-train equivalent")
    pattern = PhasePattern.alternating(phi) if phi is not None else PhasePattern.uniform(0.0)
    train = coherent_train(params.converter.process.signal, n_slots, mu, pattern)
    converted, _ = convert(train, params.converter)
    converted = attenuate(converted, transmission_loss_db(params.post_converter_transmission))
    noise = noise_background(params.converter).scaled(params.post_converter_transmission)
    if params.interferometer is not None:
        port0 = transmit_train(converted, params.interferometer, port=0)
        port1 = transmit_train(converted, params.interferometer, port=1)
        v0 = params.intrinsic_visibility_v0
        signal = gate_mean_photons(v0 * port0 + (1.0 - v0) * 0.5 * (port0 + port1))
        noise = suppress_background(noise, params.interferometer)
    else:
        signal = converted.mean_photon_number
    return signal + noise.total_photons_per_gate


# --- one-point Monte Carlo -------------------------------------------------


def derive_seed(master_seed: int, *path: int) -> int:
    """Stable 64-bit substream seed for (master seed, index path).

    The definition of every scenario point's seed, so per-point streams are
    reproducible for a fixed master seed and independent of evaluation
    order; scans compute the same seeds with :func:`qfdc.detector.derive_seeds`.
    """
    import numpy as np
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def sample_gates(
    mean_photons_at_detector: float,
    spec: DetectorSpec,
    n_gates: int,
    seed: int,
) -> CountSummary:
    """Sample independent gates and aggregate the clicks: the one-point
    :func:`qfdc.detector.sample_scan` at the click probability of the given
    mean.

    Deterministic for a fixed ``(seed, n_gates)``; the block decomposition
    defines the draws.
    """
    p = click_probability(mean_photons_at_detector, spec)
    return CountSummary(int(n_gates), sample_scan([p], n_gates, [seed])[0], spec.gate_rate_hz)


def simulate_point(
    mu: float, phi: float | None, params: ChainParams, n_gates: int, seed: int
) -> CountSummary:
    """Monte Carlo click record for one scenario point, sampled at the
    closed-form mean of :func:`expected_rate` (``phi=None``: the phi average)."""
    return sample_gates(expected_rate(mu, phi, params), params.detector, n_gates, seed)


def dark_subtract(signal: CountSummary, background: CountSummary) -> tuple[float, float]:
    """Subtract a background run from a signal run: the corrected click
    probability and its sigma. The probability may come out negative when
    the background fluctuates above the signal run; it is reported as-is."""
    if not math.isclose(signal.gate_rate_hz, background.gate_rate_hz, rel_tol=1e-12):
        raise ValueError("signal and background summaries must share a gate rate")
    return signal.p_click - background.p_click, math.hypot(signal.sigma_p, background.sigma_p)

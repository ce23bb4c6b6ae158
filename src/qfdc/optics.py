"""Coherent pulse trains, the source of the reference train pipeline.

Every optical state in this package is a coherent state, so a pulse train is
carried entirely by one complex amplitude per clock slot; ``|amplitude|**2``
is the slot's mean photon number. All elements downstream are linear in the
amplitudes, which keeps this description exact; photon statistics enter only
at detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import OpticalMode

if TYPE_CHECKING:
    import numpy as np


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

"""1-bit delayed Mach-Zehnder interferometer.

The path difference equals one clock period, so each slot interferes with
its predecessor. Output port 0 of slot k carries
``|alpha_k + alpha_{k-1} * exp(i*theta)|^2 / 4``; port 1 carries the
complementary minus-sign combination. The first slot of a finite train has
no partner and contributes only its non-interfering half-amplitude term.

For out-of-band light (residual pump leakage) the device acts as a filter
with ``oob_suppression_db`` of rejection instead of an interferometer;
in-band incoherent light simply splits between the two ports. The
device's broadband insertion loss is not modelled separately: it multiplies
signal and background alike, so it is part of the chain's
``post_converter_transmission``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixer import NoiseBackground
from .optics import CoherentPulseTrain


@dataclass(frozen=True)
class InterferometerSpec:
    """Arm phase bias and out-of-band rejection."""

    phase_bias_theta: float = 0.0
    oob_suppression_db: float = 12.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.phase_bias_theta):
            raise ValueError(f"phase_bias_theta must be finite, got {self.phase_bias_theta}")
        if math.isnan(self.oob_suppression_db) or self.oob_suppression_db < 0.0:
            raise ValueError(
                f"oob_suppression_db must be >= 0, got {self.oob_suppression_db}"
            )


def transmit_train(
    train: CoherentPulseTrain, spec: InterferometerSpec, port: int = 0
) -> np.ndarray:
    """Per-slot mean photon numbers at one output port.

    Port 0 is the detected port; port 1 is its energy-conserving complement
    (the two ports of each interior slot sum to
    ``(|alpha_k|^2 + |alpha_{k-1}|^2) / 2``).
    """
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
    return float(np.mean(per_slot))


def suppress_background(bg: NoiseBackground, spec: InterferometerSpec) -> NoiseBackground:
    """Background after the interferometer.

    Out-of-band pump leakage sees the full spectral rejection; in-band Raman
    light is incoherent and splits evenly between the two output ports.
    """
    return NoiseBackground(
        bg.leak_photons_per_gate * 10.0 ** (-spec.oob_suppression_db / 10.0),
        bg.raman_photons_per_gate / 2.0,
    )

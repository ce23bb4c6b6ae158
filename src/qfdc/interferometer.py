"""1-bit delayed Mach-Zehnder interferometer.

The path difference equals one clock period, so each slot interferes with
its predecessor. Output port 0 of slot k carries
``|alpha_k + alpha_{k-1} * exp(i*theta)|^2 / 4``; port 1 carries the
complementary minus-sign combination. The first slot of a finite train has
no partner and contributes only its non-interfering half-amplitude term.

The spec and the background the device passes are in :mod:`qfdc.model`;
this is the reference pipeline's per-slot transmission.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .model import InterferometerSpec
from .optics import CoherentPulseTrain

if TYPE_CHECKING:
    import numpy as np


def transmit_train(
    train: CoherentPulseTrain, spec: InterferometerSpec, port: int = 0
) -> np.ndarray:
    """Per-slot mean photon numbers at one output port.

    Port 0 is the detected port; port 1 is its energy-conserving complement
    (the two ports of each interior slot sum to
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

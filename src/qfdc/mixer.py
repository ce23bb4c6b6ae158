"""Three-wave mixing on coherent pulse trains, for the reference pipeline.

The beamsplitter-type process (signal above the pump in frequency) swaps
amplitude between the signal and converted modes::

    a_c = a_c0 * cos(chi*t) + a_s0 * sin(chi*t)

with chi*t = sqrt(eta_nor * pump_power). The converted-mode input is vacuum
here, so the map on coherent amplitudes is a pure cos/sin split. The
process, its classification and the converter's parameters are in
:mod:`qfdc.model`.
"""

from __future__ import annotations

import math

from .model import ConverterSpec, ProcessKind
from .optics import CoherentPulseTrain


def convert(
    train: CoherentPulseTrain, spec: ConverterSpec
) -> tuple[CoherentPulseTrain, CoherentPulseTrain]:
    """Downconvert a pulse train; returns (converted, residual) trains.

    The converted amplitudes are sqrt(eta_int * T_sys) * alpha_s and the
    residual signal keeps sqrt(1 - eta_int) * alpha_s, so for T_sys = 1 the
    map is unitary slot by slot. The CW pump contributes a single fixed
    phase, taken as 0, so the slot-to-slot phase pattern is preserved
    exactly.
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

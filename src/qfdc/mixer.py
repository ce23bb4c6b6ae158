"""Three-wave mixing in a chi(2) waveguide.

Classifies a pump/signal pair into the two difference-frequency processes,
applies the beamsplitter-type conversion map to coherent pulse trains, and
models the pump-induced incoherent background.

The beamsplitter-type process (signal above the pump in frequency) swaps
amplitude between the signal and converted modes::

    a_c = a_c0 * cos(chi*t) + a_s0 * sin(chi*t)

with chi*t = sqrt(eta_nor * pump_power). The converted-mode input is vacuum
here, so the map on coherent amplitudes is a pure cos/sin split. The
amplifier-type process (pump above the signal) is parametric amplification;
it spontaneously creates photon pairs and is represented only as a
classification that conversion operations refuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .optics import CoherentPulseTrain, OpticalMode, mode_from_angular_frequency

_REL_TOL = 1e-9


class ProcessKind(Enum):
    BEAMSPLITTER = "beamsplitter"
    AMPLIFIER = "amplifier"


@dataclass(frozen=True)
class ThreeWaveProcess:
    """A pump/signal/converted mode triple satisfying energy conservation."""

    pump: OpticalMode
    signal: OpticalMode
    converted: OpticalMode
    kind: ProcessKind

    def __post_init__(self) -> None:
        w_p = self.pump.angular_frequency
        w_s = self.signal.angular_frequency
        w_c = self.converted.angular_frequency
        if self.kind is ProcessKind.BEAMSPLITTER:
            if not w_s > w_p:
                raise ValueError("beamsplitter-type requires signal above pump in frequency")
            if abs(w_p + w_c - w_s) > _REL_TOL * w_s:
                raise ValueError("beamsplitter-type requires omega_p + omega_c = omega_s")
        else:
            if not w_p > w_s:
                raise ValueError("amplifier-type requires pump above signal in frequency")
            if abs(w_s + w_c - w_p) > _REL_TOL * w_p:
                raise ValueError("amplifier-type requires omega_s + omega_c = omega_p")


def derive_process(pump: OpticalMode, signal: OpticalMode) -> ThreeWaveProcess:
    """Classify the DFG process and derive the converted mode.

    Signal above the pump gives the beamsplitter-type process with
    omega_c = omega_s - omega_p; pump above the signal gives the
    amplifier-type process with omega_c = omega_p - omega_s. Degenerate
    (equal-frequency) input is rejected.
    """
    w_p = pump.angular_frequency
    w_s = signal.angular_frequency
    if math.isclose(w_p, w_s, rel_tol=1e-12):
        raise ValueError("pump and signal frequencies must be distinct")
    if w_s > w_p:
        converted = mode_from_angular_frequency(w_s - w_p)
        return ThreeWaveProcess(pump, signal, converted, ProcessKind.BEAMSPLITTER)
    converted = mode_from_angular_frequency(w_p - w_s)
    return ThreeWaveProcess(pump, signal, converted, ProcessKind.AMPLIFIER)


def spdc_leak_safe(process: ThreeWaveProcess) -> bool:
    """Whether pump-induced SPDC cannot leak into the converted channel.

    SPDC photons from the pump occupy frequencies below omega_p, so the
    converted channel is clean iff omega_c > omega_p (strict). Only
    meaningful for the beamsplitter-type process.
    """
    if process.kind is not ProcessKind.BEAMSPLITTER:
        raise ValueError("spdc_leak_safe is only defined for beamsplitter-type processes")
    return process.converted.angular_frequency > process.pump.angular_frequency


@dataclass(frozen=True)
class ConverterSpec:
    """Operating parameters of the fiber-coupled waveguide converter.

    ``eta_nor_per_w`` is the normalized mixing efficiency (1/W), so the
    internal conversion probability is sin^2(sqrt(eta_nor * P)).
    ``system_transmission`` lumps fiber-waveguide coupling and internal loss
    up to the waveguide output into the converted arm. ``noise_coeff_beta``
    is the pump-induced background in photons per gate per watt at the
    waveguide output, split into residual pump leakage (``leak_fraction``)
    and in-band Raman scattering (the remainder).
    """

    process: ThreeWaveProcess
    eta_nor_per_w: float
    pump_power_w: float
    system_transmission: float
    noise_coeff_beta: float = 0.0
    leak_fraction: float = 0.8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta_nor_per_w) and self.eta_nor_per_w >= 0.0):
            raise ValueError(f"eta_nor_per_w must be >= 0, got {self.eta_nor_per_w}")
        if not (math.isfinite(self.pump_power_w) and self.pump_power_w >= 0.0):
            raise ValueError(f"pump_power_w must be >= 0, got {self.pump_power_w}")
        if not 0.0 <= self.system_transmission <= 1.0:
            raise ValueError(
                f"system_transmission must be in [0, 1], got {self.system_transmission}"
            )
        if not (math.isfinite(self.noise_coeff_beta) and self.noise_coeff_beta >= 0.0):
            raise ValueError(f"noise_coeff_beta must be >= 0, got {self.noise_coeff_beta}")
        if not 0.0 <= self.leak_fraction <= 1.0:
            raise ValueError(f"leak_fraction must be in [0, 1], got {self.leak_fraction}")

    @property
    def internal_conversion_probability(self) -> float:
        """sin^2(sqrt(eta_nor * P)), before any loss."""
        return math.sin(math.sqrt(self.eta_nor_per_w * self.pump_power_w)) ** 2


def conversion_efficiency(spec: ConverterSpec) -> float:
    """End-to-end conversion efficiency T_sys * sin^2(sqrt(eta_nor * P)).

    Refuses amplifier-type specs: parametric amplification cannot perform
    quiet frequency conversion.
    """
    if spec.process.kind is not ProcessKind.BEAMSPLITTER:
        raise ValueError("conversion requires a beamsplitter-type process")
    return spec.system_transmission * spec.internal_conversion_probability


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


@dataclass(frozen=True)
class NoiseBackground:
    """Incoherent Poissonian background, mean photons per gate.

    Both components live in the converted-photon detection band at the
    point in the chain where the value is quoted; ``leak`` is residual pump
    light (out of band for downstream filters), ``raman`` is in-band.
    """

    leak_photons_per_gate: float
    raman_photons_per_gate: float

    def __post_init__(self) -> None:
        for name in ("leak_photons_per_gate", "raman_photons_per_gate"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")

    @property
    def total_photons_per_gate(self) -> float:
        return self.leak_photons_per_gate + self.raman_photons_per_gate

    def scaled(self, factor: float) -> "NoiseBackground":
        """Both components attenuated by a common power transmission."""
        if not (math.isfinite(factor) and factor >= 0.0):
            raise ValueError(f"factor must be finite and >= 0, got {factor}")
        return NoiseBackground(
            self.leak_photons_per_gate * factor,
            self.raman_photons_per_gate * factor,
        )


def noise_background(spec: ConverterSpec) -> NoiseBackground:
    """Pump-induced background at the waveguide output: beta * P photons/gate."""
    total = spec.noise_coeff_beta * spec.pump_power_w
    leak = spec.leak_fraction * total
    return NoiseBackground(leak, total - leak)

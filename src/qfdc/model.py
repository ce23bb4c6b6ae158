"""The forward model: mean photons per gate and the click probability.

The chain is the paper's: attenuated coherent pulses on the signal channel
(:class:`OpticalMode`), difference-frequency conversion in a pumped chi(2)
waveguide (:class:`ConverterSpec`, whose beamsplitter-type process swaps
amplitude between the signal and converted modes with probability
sin^2(sqrt(eta_nor * P))) plus its pump-induced background
(:func:`background_photons`), a 1-bit delay interferometer
(:class:`InterferometerSpec`) and a gated detector (:class:`DetectorSpec`).
A gate sees a Poissonian light field with some mean photon number and clicks
with probability ``1 - (1 - p_dark) * exp(-efficiency * mu)``.
:func:`expected_rate` and :func:`analytic_visibility` evaluate the chain in
closed form; the seeded Monte Carlo samples at the same probabilities. The
amplifier-type process (pump above the signal) is only a classification
that conversion refuses.
"""

from __future__ import annotations

import math
from enum import Enum

SPEED_OF_LIGHT_M_PER_S = 299792458.0  # exact by definition

_TWO_PI_C = 2.0 * math.pi * SPEED_OF_LIGHT_M_PER_S

_REL_TOL = 1e-9

#: Scenario defaults; the scenario classes in ``qfdc.cli`` need them when
#: their classes are built, before any driver is imported.
DEFAULT_GATES_PER_POINT = 40_000_000  # 10 s at the 4 MHz gate rate
DEFAULT_N_PHI = 16

#: Sets a field of a record in its ``__init__``, past the record's own
#: ``__setattr__``.
_setfield = object.__setattr__


class _Record:
    """Base of the package's value classes.

    A subclass lists its fields in ``__slots__``, in order, and sets each in
    its own ``__init__`` with :data:`_setfield`, then runs its checks. The
    base makes instances immutable, compares and hashes them by their field
    values, writes the repr as ``Name(field=value, ...)``, and copies and
    pickles them through the constructor.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A new instance with ``changes`` applied, built and checked by the
        constructor."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))


class OpticalMode(_Record):
    """A wavelength channel, fixed by its vacuum wavelength in nm."""

    __slots__ = ("wavelength_nm",)

    def __init__(self, wavelength_nm: float) -> None:
        _setfield(self, "wavelength_nm", wavelength_nm)
        # checked in metres: a subnormal wavelength in nm underflows to 0 m
        if not (math.isfinite(self.wavelength_nm) and self.wavelength_nm * 1e-9 > 0.0):
            raise ValueError(f"wavelength_nm must be finite and > 0, got {self.wavelength_nm}")

    @property
    def angular_frequency(self) -> float:
        """Angular frequency in rad/s, 2*pi*c / wavelength."""
        return _TWO_PI_C / (self.wavelength_nm * 1e-9)


def mode_from_wavelength(wavelength_nm: float) -> OpticalMode:
    """Build an :class:`OpticalMode` from a vacuum wavelength in nm."""
    return OpticalMode(float(wavelength_nm))


def mode_from_angular_frequency(angular_frequency: float) -> OpticalMode:
    """Build an :class:`OpticalMode` from an angular frequency in rad/s."""
    angular_frequency = float(angular_frequency)
    if not (math.isfinite(angular_frequency) and angular_frequency > 0.0):
        raise ValueError(
            f"angular_frequency must be finite and > 0, got {angular_frequency}"
        )
    return OpticalMode(_TWO_PI_C / angular_frequency * 1e9)


class ProcessKind(Enum):
    BEAMSPLITTER = "beamsplitter"
    AMPLIFIER = "amplifier"


class ThreeWaveProcess(_Record):
    """A pump/signal/converted mode triple satisfying energy conservation."""

    __slots__ = ("pump", "signal", "converted", "kind")

    def __init__(self, pump: OpticalMode, signal: OpticalMode, converted: OpticalMode,
                 kind: ProcessKind) -> None:
        _setfield(self, "pump", pump)
        _setfield(self, "signal", signal)
        _setfield(self, "converted", converted)
        _setfield(self, "kind", kind)
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


class ConverterSpec(_Record):
    """Operating parameters of the fiber-coupled waveguide converter.

    ``eta_nor_per_w`` is the normalized mixing efficiency (1/W), so the
    internal conversion probability is sin^2(sqrt(eta_nor * P)).
    ``system_transmission`` lumps fiber-waveguide coupling and internal loss
    up to the waveguide output into the converted arm. ``noise_coeff_beta``
    is the pump-induced background in photons per gate per watt at the
    waveguide output, split into residual pump leakage (``leak_fraction``)
    and in-band Raman scattering (the remainder).
    """

    __slots__ = ("process", "eta_nor_per_w", "pump_power_w", "system_transmission",
                 "noise_coeff_beta", "leak_fraction")

    def __init__(self, process: ThreeWaveProcess, eta_nor_per_w: float, pump_power_w: float,
                 system_transmission: float, noise_coeff_beta: float = 0.0,
                 leak_fraction: float = 0.8) -> None:
        _setfield(self, "process", process)
        _setfield(self, "eta_nor_per_w", eta_nor_per_w)
        _setfield(self, "pump_power_w", pump_power_w)
        _setfield(self, "system_transmission", system_transmission)
        _setfield(self, "noise_coeff_beta", noise_coeff_beta)
        _setfield(self, "leak_fraction", leak_fraction)
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


class InterferometerSpec(_Record):
    """Arm phase bias and out-of-band rejection."""

    __slots__ = ("phase_bias_theta", "oob_suppression_db")

    def __init__(self, phase_bias_theta: float = 0.0, oob_suppression_db: float = 12.0) -> None:
        _setfield(self, "phase_bias_theta", phase_bias_theta)
        _setfield(self, "oob_suppression_db", oob_suppression_db)
        if not math.isfinite(self.phase_bias_theta):
            raise ValueError(f"phase_bias_theta must be finite, got {self.phase_bias_theta}")
        if math.isnan(self.oob_suppression_db) or self.oob_suppression_db < 0.0:
            raise ValueError(
                f"oob_suppression_db must be >= 0, got {self.oob_suppression_db}"
            )


def background_photons(beta_power: float, leak_fraction: float, transmission: float,
                       interferometer: InterferometerSpec | None) -> float:
    """Pump-induced background photons per gate, a Poissonian mean.

    ``beta_power`` is beta * P, the background at the waveguide output:
    residual pump leakage (``leak_fraction`` of it) plus in-band Raman light
    (the rest), both attenuated by ``transmission``. Behind an
    interferometer the out-of-band leakage sees the full spectral rejection,
    and the incoherent Raman light splits evenly between the two ports.
    """
    if not (math.isfinite(beta_power) and beta_power >= 0.0):
        raise ValueError(f"beta * P must be finite and >= 0, got {beta_power}")
    leak = leak_fraction * beta_power
    raman = (beta_power - leak) * transmission
    leak *= transmission
    if interferometer is not None:
        leak *= 10.0 ** (-interferometer.oob_suppression_db / 10.0)
        raman /= 2.0
    return leak + raman


class DetectorSpec(_Record):
    """Gated detector: efficiency, dark count probability, gate rate."""

    __slots__ = ("efficiency", "dark_prob_per_gate", "gate_rate_hz")

    def __init__(self, efficiency: float = 0.10, dark_prob_per_gate: float = 2.6e-5,
                 gate_rate_hz: float = 4.0e6) -> None:
        _setfield(self, "efficiency", efficiency)
        _setfield(self, "dark_prob_per_gate", dark_prob_per_gate)
        _setfield(self, "gate_rate_hz", gate_rate_hz)
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_prob_per_gate <= 1.0:
            raise ValueError(
                f"dark_prob_per_gate must be in [0, 1], got {self.dark_prob_per_gate}"
            )
        if not (math.isfinite(self.gate_rate_hz) and self.gate_rate_hz > 0.0):
            raise ValueError(f"gate_rate_hz must be > 0, got {self.gate_rate_hz}")


def click_probability(mean_photons_at_detector: float, spec: DetectorSpec) -> float:
    """Click probability per gate for Poissonian light of the given mean."""
    return _click_probabilities([float(mean_photons_at_detector)], spec)[0]


def _click_probabilities(means: list[float], spec: DetectorSpec) -> list[float]:
    """:func:`click_probability` at each mean, the means checked in one pass."""
    if means and (min(means) < 0.0 or any(map(math.isnan, means))):
        bad = next(mu for mu in means if not mu >= 0.0)
        raise ValueError(f"mean photons must be >= 0, got {bad}")
    d = spec.dark_prob_per_gate
    eta = spec.efficiency
    # 1 - (1-d)*exp(-eta*mu), written via expm1 to keep precision at tiny mu
    return [d + (1.0 - d) * -math.expm1(-eta * mu) for mu in means]


class ChainParams(_Record):
    """Everything between the source and the click record.

    ``post_converter_transmission`` is the broadband transmission from the
    waveguide output to the detector (collection lenses, fiber coupling, the
    pump-rejection couplers and the interferometer's insertion loss).
    ``intrinsic_visibility_v0`` is the background-free fringe contrast
    ceiling, lumping source coherence, modulator fidelity and interferometer
    imbalance.
    """

    __slots__ = ("converter", "detector", "interferometer", "post_converter_transmission",
                 "intrinsic_visibility_v0")

    def __init__(self, converter: ConverterSpec, detector: DetectorSpec,
                 interferometer: InterferometerSpec | None = None,
                 post_converter_transmission: float = 1.0,
                 intrinsic_visibility_v0: float = 1.0) -> None:
        _setfield(self, "converter", converter)
        _setfield(self, "detector", detector)
        _setfield(self, "interferometer", interferometer)
        _setfield(self, "post_converter_transmission", post_converter_transmission)
        _setfield(self, "intrinsic_visibility_v0", intrinsic_visibility_v0)
        if not 0.0 <= self.post_converter_transmission <= 1.0:
            raise ValueError(
                "post_converter_transmission must be in [0, 1], "
                f"got {self.post_converter_transmission}"
            )
        if not 0.0 <= self.intrinsic_visibility_v0 <= 1.0:
            raise ValueError(
                f"intrinsic_visibility_v0 must be in [0, 1], got {self.intrinsic_visibility_v0}"
            )

    def without_interferometer(self) -> "ChainParams":
        return self.replace(interferometer=None)

    def at_pump_power(self, pump_power_w: float) -> "ChainParams":
        return self.replace(converter=self.converter.replace(pump_power_w=pump_power_w))


class _ClosedForm:
    """The per-chain factors of :func:`expected_rate` and
    :func:`analytic_visibility`, formed once per scan.

    :meth:`means` forms the signal photons ``mu*eta*t_post`` once per mu
    and the fringe factor ``(1 + contrast*cos(phi))/2`` once per phi, and
    combines them as ``signal*fringe + noise``; a point and a scan share
    that one path, and :meth:`grid` applies the detector's click formula.
    """

    def __init__(self, params: ChainParams) -> None:
        converter = params.converter
        self.eta = conversion_efficiency(converter)
        self.t_post = params.post_converter_transmission
        self.detector = params.detector
        self.noise = background_photons(  # background photons per gate
            converter.noise_coeff_beta * converter.pump_power_w, converter.leak_fraction,
            self.t_post, params.interferometer)
        # fringe contrast, None without an interferometer: slots interfere at
        # phase differences -phi and +phi, so an arm bias theta gives the
        # fringe (1 + V0*cos(theta)*cos(phi))/2
        self.contrast = None
        if params.interferometer is not None:
            self.contrast = params.intrinsic_visibility_v0 * math.cos(
                params.interferometer.phase_bias_theta)

    def _signal(self, mu: float) -> float:
        """Signal photons per gate at the detector, before the fringe."""
        if mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        return mu * self.eta * self.t_post

    def _fringe(self, phi: float | None) -> float:
        """The fringe factor at phi (``None``: the phi average), 1 without an
        interferometer; multiplying by 1 leaves every bit as it is."""
        if self.contrast is None:
            if phi is not None:
                raise ValueError("phi was given but the chain has no interferometer")
            return 1.0
        cos_phi = 0.0 if phi is None else math.cos(phi)
        return (1.0 + self.contrast * cos_phi) / 2.0

    def means(self, mus, phis) -> list[float]:
        """The mean photons per gate at the detector at each (mu, phi), mu-major."""
        fringes = [self._fringe(phi) for phi in phis]
        noise = self.noise
        return [signal * fringe + noise for signal in map(self._signal, mus)
                for fringe in fringes]

    def grid(self, mus, phis) -> list[float]:
        """The click probability at each (mu, phi), mu-major."""
        return _click_probabilities(self.means(mus, phis), self.detector)

    def visibility(self, mu: float) -> tuple[float, float]:
        """The paper's fringe visibility at mu; see :func:`analytic_visibility`."""
        if self.contrast is None:
            raise ValueError("analytic_visibility requires an interferometer in the chain")
        if mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        det = self.detector
        s_clicks = det.efficiency * mu * self.eta * self.t_post
        b_noise = det.efficiency * self.noise
        if s_clicks == 0.0:
            return 0.0, 0.0
        raw = s_clicks * self.contrast / (s_clicks + 2.0 * (b_noise + det.dark_prob_per_gate))
        sub = s_clicks * self.contrast / (s_clicks + 2.0 * b_noise)
        return raw, sub


def expected_rate(mu: float, phi: float | None, params: ChainParams) -> float:
    """Closed-form mean photons per gate at the detector: signal plus background.

    ``phi`` is the alternating phase-modulation depth; ``None`` means the
    phi-averaged fringe (factor 1/2) when an interferometer is present.
    All factors are photon-number transmissions; the detector efficiency
    enters only the click model, ``click_probability(expected_rate(...),
    params.detector)``.
    """
    return _ClosedForm(params).means([mu], [phi])[0]


def analytic_visibility(mu: float, params: ChainParams) -> tuple[float, float]:
    """Fringe visibility predicted from the signal-to-background ratio, as
    the pair ``(raw, subtracted)``.

    With S the constructive-port signal clicks/gate (fringe peak for a
    perfect fringe) and B the flat background clicks/gate, the fitted
    c1/c0 visibility of the fringe S*(1 + V0*cos(phi))/2 + B is
    S*V0/(S + 2B). The raw value counts dark clicks in B; the subtracted
    value removes them.
    """
    return _ClosedForm(params).visibility(mu)

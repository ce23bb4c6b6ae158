"""Pin the chain's free parameters to the six measured observables.

The system decouples and solves in closed form:

* the conversion efficiency at the operating pump power fixes the
  converter's system transmission directly;
* the raw/dark-subtracted visibility pair at the low-mu fringe fixes
  ``D = S + 2*B_n`` (the ratio of the two removes everything except the
  dark counts), and the high-mu visibility then fixes the signal level S,
  the contrast ceiling V0 and the noise level B_n one after the other;
* S converts into the product of post-converter and interferometer
  transmission, and B_n into the pump-noise coefficient.

Only the product of the two transmissions is identifiable from these
observables, and the chain carries exactly that product, as
``post_converter_transmission``; the interferometer has no insertion
transmission of its own.
With the noise coefficient pinned by the fringe data, the two count-rate
floors are predictions rather than fit targets; their residuals come out
a few percent high, well inside the precision to which they are quoted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .detector import DetectorSpec, click_probability
from .experiment import ChainParams, analytic_visibility, expected_rate
from .interferometer import InterferometerSpec, suppress_background
from .mixer import (
    ConverterSpec,
    NoiseBackground,
    ThreeWaveProcess,
    conversion_efficiency,
    derive_process,
)
from .optics import mode_from_wavelength

SIGNAL_WAVELENGTH_NM = 712.9
PUMP_WAVELENGTH_NM = 1551.1

#: Acceptance tolerance per observable: ("rel"|"abs", value). The floors are
#: only quoted to one significant figure; the visibilities carry their own
#: stated uncertainties.
RESIDUAL_TOLERANCES: dict[str, tuple[str, float]] = {
    "conversion_efficiency": ("rel", 1e-9),
    "floor_bare": ("rel", 0.15),
    "floor_interferometer": ("rel", 0.15),
    "visibility_high_mu": ("abs", 0.005),
    "visibility_raw": ("abs", 0.011),
    "visibility_subtracted": ("abs", 0.022),
}


@dataclass(frozen=True)
class CalibrationTargets:
    """The six observables the model is pinned to, with their conditions.

    Defaults are the measured values of the downconversion experiment this
    package models: 0.35% conversion at 27 mW pump, count-rate floors of
    7e-5 (bare) and 3e-5 (behind the interferometer) clicks per gate, a 94%
    fringe visibility at mu = 143, and 37.9% raw / 72.1% dark-subtracted
    visibility at mu = 0.7.
    """

    conversion_efficiency: float = 0.0035
    pump_power_w: float = 0.027
    floor_bare: float = 7e-5
    floor_interferometer: float = 3e-5
    visibility_high_mu: float = 0.94
    mu_high: float = 143.0
    visibility_raw: float = 0.379
    visibility_subtracted: float = 0.721
    mu_fringe: float = 0.7

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{f.name} must be finite and > 0, got {v}")
        for name in ("visibility_high_mu", "visibility_raw", "visibility_subtracted"):
            if getattr(self, name) >= 1.0:
                raise ValueError(f"{name} must be < 1")


@dataclass(frozen=True)
class CalibrationContext:
    """Apparatus values known independently of the fitted parameters."""

    eta_nor_per_w: float = 2.0
    detector: DetectorSpec = DetectorSpec()
    leak_fraction: float = 0.8
    oob_suppression_db: float = 12.0
    signal_wavelength_nm: float = SIGNAL_WAVELENGTH_NM
    pump_wavelength_nm: float = PUMP_WAVELENGTH_NM

    def __post_init__(self) -> None:
        # build the chain's fixed parts now, so that bad values fail when a
        # configuration is loaded rather than inside a calibration or a run
        converter = ConverterSpec(self.process, self.eta_nor_per_w, 0.0, 0.0,
                                  leak_fraction=self.leak_fraction)
        conversion_efficiency(converter)  # rejects an amplifier-type process
        InterferometerSpec(oob_suppression_db=self.oob_suppression_db)
        # the calibration divides by the efficiency, and a detector that
        # always clicks leaves nothing to measure
        if not (self.detector.efficiency > 0.0 and self.detector.dark_prob_per_gate < 1.0):
            raise ValueError("the detector needs efficiency > 0 and dark_prob_per_gate < 1")

    @property
    def process(self) -> ThreeWaveProcess:
        """The pump/signal/converted triple; raises for unusable wavelengths."""
        return derive_process(
            mode_from_wavelength(self.pump_wavelength_nm),
            mode_from_wavelength(self.signal_wavelength_nm),
        )

    @property
    def noise_suppression_factor(self) -> float:
        """Interferometer passband factor on the converter noise."""
        unit = NoiseBackground(self.leak_fraction, 1.0 - self.leak_fraction)
        spec = InterferometerSpec(oob_suppression_db=self.oob_suppression_db)
        return suppress_background(unit, spec).total_photons_per_gate


#: Physical range of each fitted parameter; a solution outside it is clipped
#: and marks the result infeasible.
BOUNDS: dict[str, tuple[float, float]] = {
    "system_transmission": (0.0, 1.0),
    "noise_coeff_beta": (0.0, math.inf),
    "transmission_product": (0.0, 1.0),
    "intrinsic_visibility_v0": (0.0, 1.0),
}


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted parameters plus per-observable residuals (model - target)."""

    system_transmission: float
    noise_coeff_beta: float
    transmission_product: float
    intrinsic_visibility_v0: float
    predictions: dict[str, float] = field(default_factory=dict)
    residuals: dict[str, float] = field(default_factory=dict)
    feasible: bool = True
    message: str = ""

    def fitted(self) -> dict[str, float]:
        """The fitted parameters, in :data:`BOUNDS` order."""
        return {name: getattr(self, name) for name in BOUNDS}


def residuals_within_tolerance(result: CalibrationResult, targets: CalibrationTargets) -> bool:
    """Whether every residual is inside its observable's quoted precision."""
    for name, (kind, tol) in RESIDUAL_TOLERANCES.items():
        resid = abs(result.residuals[name])
        if kind == "rel":
            resid /= getattr(targets, name)
        if resid > tol:
            return False
    return True


def calibrated_chain(
    result: CalibrationResult,
    targets: CalibrationTargets | None = None,
    context: CalibrationContext | None = None,
) -> ChainParams:
    """Assemble runnable chain parameters from a calibration result.

    The identifiable transmission product becomes
    ``post_converter_transmission``.
    :meth:`ChainParams.without_interferometer` gives the bare chain of the
    count-rate scenarios.
    """
    targets = targets or CalibrationTargets()
    context = context or CalibrationContext()
    converter = ConverterSpec(
        process=context.process,
        eta_nor_per_w=context.eta_nor_per_w,
        pump_power_w=targets.pump_power_w,
        system_transmission=result.system_transmission,
        noise_coeff_beta=result.noise_coeff_beta,
        leak_fraction=context.leak_fraction,
    )
    return ChainParams(
        converter=converter,
        detector=context.detector,
        interferometer=InterferometerSpec(oob_suppression_db=context.oob_suppression_db),
        post_converter_transmission=result.transmission_product,
        intrinsic_visibility_v0=result.intrinsic_visibility_v0,
    )


def _predict(
    result: CalibrationResult, targets: CalibrationTargets, context: CalibrationContext
) -> dict[str, float]:
    """Forward model: the six observables for a given parameter set."""
    chain = calibrated_chain(result, targets, context)
    bare = chain.without_interferometer()
    high, _ = analytic_visibility(targets.mu_high, chain)
    fringe_raw, fringe_sub = analytic_visibility(targets.mu_fringe, chain)
    return {
        "conversion_efficiency": conversion_efficiency(chain.converter),
        "floor_bare": click_probability(expected_rate(0.0, None, bare), chain.detector),
        "floor_interferometer": click_probability(expected_rate(0.0, None, chain), chain.detector),
        "visibility_high_mu": high,
        "visibility_raw": fringe_raw,
        "visibility_subtracted": fringe_sub,
    }


def _clip(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


def calibrate(
    targets: CalibrationTargets | None = None,
    context: CalibrationContext | None = None,
) -> CalibrationResult:
    """Solve the chain parameters from the six observables.

    Exact (algebraic) where the system decouples; infeasible targets give a
    ``feasible=False`` result carrying the closest in-bounds parameters and
    their residuals rather than raising.
    """
    targets = targets or CalibrationTargets()
    context = context or CalibrationContext()

    det = context.detector
    dark = det.dark_prob_per_gate
    eta_int = math.sin(math.sqrt(context.eta_nor_per_w * targets.pump_power_w)) ** 2
    problems: list[str] = []

    # target 1: conversion efficiency pins the system transmission exactly
    if eta_int <= 0.0:
        problems.append("zero internal conversion at the stated pump power")
        t_sys = 0.0
    else:
        t_sys = targets.conversion_efficiency / eta_int

    # targets 5+6: the visibility pair at mu_fringe pins D = S + 2*B_n
    v_raw = targets.visibility_raw
    v_sub = targets.visibility_subtracted
    if v_sub <= v_raw:
        problems.append("dark-subtracted visibility must exceed the raw visibility")
        big_d = math.nan
    else:
        big_d = 2.0 * dark * v_raw / (v_sub - v_raw)

    # target 4: the high-mu visibility then pins S (signal scales linearly in mu)
    k = targets.mu_high / targets.mu_fringe
    if k <= 1.0:
        problems.append("mu_high must exceed mu_fringe")
    s_clicks = v0 = b_noise = math.nan
    if not problems:
        s_clicks = (k * v_sub * big_d / targets.visibility_high_mu - big_d - 2.0 * dark) / (k - 1.0)
        if s_clicks <= 0.0:
            problems.append("high-mu visibility target is too large for the fringe pair")
        else:
            v0 = v_sub * big_d / s_clicks
            b_noise = (big_d - s_clicks) / 2.0
            if b_noise < 0.0:
                problems.append(
                    "fringe targets imply a negative converter noise level"
                )

    # map (S, B_n) onto the chain parameters; keep whatever part of the
    # solution is valid so an infeasible result still carries its best
    # in-bounds parameters
    product = beta = math.nan
    signal_scale = det.efficiency * targets.mu_fringe * targets.conversion_efficiency
    if math.isfinite(s_clicks) and s_clicks > 0.0 and signal_scale > 0.0:
        product = s_clicks / signal_scale
        noise_scale = (
            det.efficiency * product * context.noise_suppression_factor * targets.pump_power_w
        )
        if math.isfinite(b_noise) and b_noise >= 0.0 and noise_scale > 0.0:
            beta = b_noise / noise_scale

    fitted = {
        "system_transmission": t_sys,
        "noise_coeff_beta": beta,
        "transmission_product": product,
        "intrinsic_visibility_v0": v0,
    }
    for name, value in fitted.items():
        lo, hi = BOUNDS[name]
        if not math.isfinite(_clip(value, lo, hi)):  # NaN, or inf that no bound stops
            fitted[name] = lo
            if not problems:  # only a scale factor that underflows gets here
                problems.append(f"{name} is undefined: its scale factor underflows")
        elif not lo <= value <= hi:
            problems.append(f"{name} = {value:.6g} violates bounds [{lo:g}, {hi:g}]")
            fitted[name] = _clip(value, lo, hi)

    result = CalibrationResult(
        **fitted,
        feasible=not problems,
        message="; ".join(problems),
    )
    predictions = _predict(result, targets, context)
    residuals = {
        name: predictions[name] - getattr(targets, name) for name in predictions
    }
    return CalibrationResult(
        **fitted,
        predictions=predictions,
        residuals=residuals,
        feasible=not problems,
        message="; ".join(problems),
    )

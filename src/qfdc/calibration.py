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

from .model import (
    ChainParams,
    ConverterSpec,
    DetectorSpec,
    InterferometerSpec,
    ThreeWaveProcess,
    _Record,
    _setfield,
    analytic_visibility,
    background_photons,
    click_probability,
    conversion_efficiency,
    derive_process,
    expected_rate,
    mode_from_wavelength,
)

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


class CalibrationTargets(_Record):
    """The six observables the model is pinned to, with their conditions.

    Defaults are the measured values of the downconversion experiment this
    package models: 0.35% conversion at 27 mW pump, count-rate floors of
    7e-5 (bare) and 3e-5 (behind the interferometer) clicks per gate, a 94%
    fringe visibility at mu = 143, and 37.9% raw / 72.1% dark-subtracted
    visibility at mu = 0.7.
    """

    __slots__ = ("conversion_efficiency", "pump_power_w", "floor_bare", "floor_interferometer",
                 "visibility_high_mu", "mu_high", "visibility_raw", "visibility_subtracted",
                 "mu_fringe")

    def __init__(self, conversion_efficiency: float = 0.0035, pump_power_w: float = 0.027,
                 floor_bare: float = 7e-5, floor_interferometer: float = 3e-5,
                 visibility_high_mu: float = 0.94, mu_high: float = 143.0,
                 visibility_raw: float = 0.379, visibility_subtracted: float = 0.721,
                 mu_fringe: float = 0.7) -> None:
        _setfield(self, "conversion_efficiency", conversion_efficiency)
        _setfield(self, "pump_power_w", pump_power_w)
        _setfield(self, "floor_bare", floor_bare)
        _setfield(self, "floor_interferometer", floor_interferometer)
        _setfield(self, "visibility_high_mu", visibility_high_mu)
        _setfield(self, "mu_high", mu_high)
        _setfield(self, "visibility_raw", visibility_raw)
        _setfield(self, "visibility_subtracted", visibility_subtracted)
        _setfield(self, "mu_fringe", mu_fringe)
        for name in self.__slots__:
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        for name in ("visibility_high_mu", "visibility_raw", "visibility_subtracted"):
            if getattr(self, name) >= 1.0:
                raise ValueError(f"{name} must be < 1")


class CalibrationContext(_Record):
    """Apparatus values known independently of the fitted parameters."""

    __slots__ = ("eta_nor_per_w", "detector", "leak_fraction", "oob_suppression_db",
                 "signal_wavelength_nm", "pump_wavelength_nm")

    def __init__(self, eta_nor_per_w: float = 2.0, detector: DetectorSpec = DetectorSpec(),
                 leak_fraction: float = 0.8, oob_suppression_db: float = 12.0,
                 signal_wavelength_nm: float = SIGNAL_WAVELENGTH_NM,
                 pump_wavelength_nm: float = PUMP_WAVELENGTH_NM) -> None:
        _setfield(self, "eta_nor_per_w", eta_nor_per_w)
        _setfield(self, "detector", detector)
        _setfield(self, "leak_fraction", leak_fraction)
        _setfield(self, "oob_suppression_db", oob_suppression_db)
        _setfield(self, "signal_wavelength_nm", signal_wavelength_nm)
        _setfield(self, "pump_wavelength_nm", pump_wavelength_nm)
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
        """The pump and signal process; raises for unusable wavelengths."""
        return derive_process(
            mode_from_wavelength(self.pump_wavelength_nm),
            mode_from_wavelength(self.signal_wavelength_nm),
        )

    @property
    def noise_suppression_factor(self) -> float:
        """Interferometer passband factor on the converter noise."""
        spec = InterferometerSpec(oob_suppression_db=self.oob_suppression_db)
        return background_photons(1.0, self.leak_fraction, 1.0, spec)


#: Physical range of each fitted parameter; a solution outside it is clipped
#: and marks the result infeasible, unless it is within rounding of the bound.
BOUNDS: dict[str, tuple[float, float]] = {
    "system_transmission": (0.0, 1.0),
    "noise_coeff_beta": (0.0, math.inf),
    "transmission_product": (0.0, 1.0),
    "intrinsic_visibility_v0": (0.0, 1.0),
}

#: A solution this close (relative) outside its bound is rounding error and
#: takes the bound's value: a chain at a bound of 1 comes back up to 6e-13
#: (about 2,700 ulps) above it from its own predictions.
_BOUND_ROUNDING = 1e-9


class CalibrationResult(_Record):
    """Fitted parameters plus per-observable residuals (model - target);
    ``predictions`` and ``residuals`` default to new empty dicts. ``message``
    names every problem of the solve, and the result is feasible exactly
    when it is empty."""

    __slots__ = ("system_transmission", "noise_coeff_beta", "transmission_product",
                 "intrinsic_visibility_v0", "predictions", "residuals", "message")

    def __init__(self, system_transmission: float, noise_coeff_beta: float,
                 transmission_product: float, intrinsic_visibility_v0: float,
                 predictions: dict[str, float] | None = None,
                 residuals: dict[str, float] | None = None, message: str = "") -> None:
        _setfield(self, "system_transmission", system_transmission)
        _setfield(self, "noise_coeff_beta", noise_coeff_beta)
        _setfield(self, "transmission_product", transmission_product)
        _setfield(self, "intrinsic_visibility_v0", intrinsic_visibility_v0)
        _setfield(self, "predictions", {} if predictions is None else predictions)
        _setfield(self, "residuals", {} if residuals is None else residuals)
        _setfield(self, "message", message)

    @property
    def feasible(self) -> bool:
        """Whether the solve met every target in bounds: no problem named."""
        return not self.message

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
    result whose ``message`` names each problem, carrying the closest
    in-bounds parameters and their residuals, rather than raising. The
    result is feasible exactly when its message is empty.
    """
    targets = targets or CalibrationTargets()
    context = context or CalibrationContext()

    det = context.detector
    dark = det.dark_prob_per_gate
    eta_int = ConverterSpec(context.process, context.eta_nor_per_w, targets.pump_power_w,
                            0.0).internal_conversion_probability
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
        fitted[name] = clipped = _clip(value, lo, hi)
        if not math.isfinite(clipped):  # NaN, or inf that no bound stops
            fitted[name] = lo
            if not problems:  # only a scale factor that underflows gets here
                problems.append(f"{name} is undefined: its scale factor underflows")
        elif abs(value - clipped) > _BOUND_ROUNDING * clipped:
            problems.append(f"{name} = {value:.6g} violates bounds [{lo:g}, {hi:g}]")

    # each problem is a non-empty string, so an empty message is a feasible result
    result = CalibrationResult(**fitted, message="; ".join(problems))
    predictions = _predict(result, targets, context)
    residuals = {
        name: predictions[name] - getattr(targets, name) for name in predictions
    }
    return result.replace(predictions=predictions, residuals=residuals)

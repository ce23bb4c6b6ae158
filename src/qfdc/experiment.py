"""End-to-end scenario engine: the sweep drivers for the pump-power sweep
(``run_fig4a``), the count-rate-vs-mu sweep (``run_fig4b``), the fringe
scan (``run_fig5``) and the visibility-vs-mu sweep (``run_fig6``).

Each driver plans, draws and estimates: it checks its arguments, forms each
point's click probability with the closed form of :mod:`qfdc.model` and
lays out the seeds; ``_draw`` samples the click counts by seeded Monte Carlo;
the figure's ``_estimate_fig*`` reads only the click probabilities and their
sigmas, so it runs as well on the closed form's, with ``_sigma``. fig5 and
fig6 fit each fringe with ``fit_cosine``, one plain tuple per fringe, and
read both visibilities and their sigmas from ``_visibilities``. The train
pipeline that is the closed form's reference is in :mod:`qfdc.reference`.
"""

from __future__ import annotations

import importlib
import math
from typing import TYPE_CHECKING

from .detector import CountSummary, derive_seeds, sample_scan
from .model import (
    DEFAULT_GATES_PER_POINT,
    DEFAULT_N_PHI,
    ChainParams,
    DetectorSpec,
    _ClosedForm,
    _Record,
    _setfield,
    analytic_visibility,  # no driver calls these two; bench/tracer.py patches them here
    expected_rate,
)

if TYPE_CHECKING:
    import numpy as np

#: Names of :mod:`qfdc.reference` that bench/tracer.py patches here, imported
#: on first access (PEP 562) so that a run does not load the reference.
_REFERENCE = ("attenuate", "chain_point_mean", "coherent_train", "convert", "derive_seed",
              "sample_gates", "simulate_point", "transmit_train")


def __getattr__(name: str):
    if name not in _REFERENCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.reference"), name)
    globals()[name] = value
    return value


# --- fitting helpers -------------------------------------------------------


def fit_cosine(phis: np.ndarray, rows: np.ndarray,
               sigma_rows: np.ndarray) -> list[tuple[float, float, float, float, float]]:
    """Fit c0 + c1*cos(phi) to each row by ordinary least squares, giving
    one ``(c0, c1, c0_sigma, c1_sigma, c0c1_cov)`` per row.

    The per-point sigmas enter only the parameter covariance (sandwich
    form), keeping the estimator itself independent of the noise estimates.
    ``rows`` and ``sigma_rows`` hold one fringe per row over the same phases.
    The design matrix [1, cos(phi)] and the inverse of its normal matrix are
    formed once per call, and the products of all fringes are stacked; numpy
    computes each fringe's product as it would for a fit of its own, so its
    bits are the same.
    """
    import numpy as np
    phis, y, sig = (np.asarray(a, dtype=float) for a in (phis, rows, sigma_rows))
    x = np.column_stack([np.ones_like(phis), np.cos(phis)])
    xtx_inv = np.linalg.inv(x.T @ x)
    coefs = xtx_inv @ (x.T @ y[:, :, None])
    middle = (x * (sig**2)[:, :, None]).transpose(0, 2, 1) @ x
    covs = xtx_inv @ middle @ xtx_inv
    return [(c0, c1, math.sqrt(max(var0, 0.0)), math.sqrt(max(var1, 0.0)), cov01)
            for ((c0,), (c1,)), ((var0, cov01), (_, var1))
            in zip(coefs.tolist(), covs.tolist(), strict=True)]


def _visibilities(fit: tuple[float, ...], dark: float) -> tuple[float, float, float, float]:
    """A cosine fit's visibility c1/c0 and dark-subtracted visibility
    c1/(c0 - dark), each with its delta-method sigma: ``(v, v_sigma, v_sub,
    v_sub_sigma)``. v is NaN when c0 is not positive, and v_sub when
    c0 - dark is not resolved from zero, that is when it does not exceed
    ``c0_sigma``."""
    c0, c1, c0_sigma, c1_sigma, c0c1_cov = fit
    out = ()
    for denom, unresolved in ((c0, c0 <= 0.0), (c0 - dark, c0 - dark <= c0_sigma)):
        if unresolved:
            out += (math.nan, math.nan)
            continue
        g0 = -c1 / denom**2
        g1 = 1.0 / denom
        var = g0 * g0 * c0_sigma**2 + 2.0 * g0 * g1 * c0c1_cov + g1 * g1 * c1_sigma**2
        out += (c1 / denom, math.sqrt(max(var, 0.0)))
    return out


def fit_through_origin(x: np.ndarray, y: np.ndarray,
                       sigmas: np.ndarray) -> tuple[float, float]:
    """Weighted least-squares line y = slope*x: the slope and its sigma, both
    NaN when every abscissa is zero, and each NaN when it is not finite."""
    import numpy as np
    x, y, sigmas = (np.asarray(a, dtype=float) for a in (x, y, sigmas))
    # weights relative to a power of two at or below the smallest sigma: they
    # are at most 4, so squaring cannot overflow (a sigma 2**511 times the
    # smallest gets weight 0); the abscissae relative to a power of two at or
    # above the largest |x| are at most 1, so neither can w*x*x. Both scales
    # are undone exactly in slope and sigma
    sigma_exp = math.frexp(float(np.min(sigmas, initial=math.inf)))[1] - 1
    x_exp = math.frexp(float(np.max(np.abs(x), initial=0.0)))[1]
    with np.errstate(over="ignore"):
        w = 1.0 / (sigmas / math.ldexp(1.0, sigma_exp)) ** 2
    x = np.ldexp(x, -x_exp)
    denom = float(np.sum(w * x * x))
    if denom == 0.0:
        return math.nan, math.nan
    return (_finite_ldexp(float(np.sum(w * x * y)) / denom, -x_exp),
            _finite_ldexp(math.sqrt(1.0 / denom), sigma_exp - x_exp))


def _finite_ldexp(value: float, exp: int) -> float:
    """``value * 2**exp``, or NaN when that is not finite."""
    try:
        value = math.ldexp(value, exp)
    except OverflowError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def _both_finite(value: float, sigma: float) -> tuple[float, float]:
    """An estimate and its sigma, both NaN unless both are finite."""
    finite = math.isfinite(value) and math.isfinite(sigma)
    return (value, sigma) if finite else (math.nan, math.nan)


# --- scan results and the draw ---------------------------------------------


class ScanResult(_Record):
    """Tabulated sweep output: ordered columns, one row per scan point.

    The first column is the abscissa, and the leading columns are the CSV in
    CSV order. ``fit`` holds the scalar fit outputs (a new empty dict by
    default) and ``raw`` the per-point signal-run summaries (fig4a, fig4b,
    fig5).
    """

    __slots__ = ("columns", "fit", "raw")

    def __init__(self, columns: dict[str, list[float]], fit: dict[str, float] | None = None,
                 raw: list[CountSummary] | None = None) -> None:
        _setfield(self, "columns", columns)
        _setfield(self, "fit", {} if fit is None else fit)
        _setfield(self, "raw", raw)
        n = len(self.abscissa)
        if self.raw is not None and len(self.raw) != n:
            raise ValueError(f"raw has {len(self.raw)} entries for {n} points")
        for name, col in self.columns.items():
            if len(col) != n:
                raise ValueError(f"column {name!r} has {len(col)} entries for {n} points")
            if name.endswith("sigma") and any(v < 0.0 for v in col):
                raise ValueError(f"column {name!r} contains negative sigmas")

    @property
    def abscissa(self) -> list[float]:
        return next(iter(self.columns.values()))


def _draw(probs: list[float], n_gates: int, seeds: np.ndarray,
          n_cols: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Point k's click count at click probability ``probs[k]`` and seed
    ``seeds.ravel()[k]``, and the click probabilities and sigmas in rows of
    ``n_cols``: a fringe's phases, or a point's signal and signal-off runs."""
    import numpy as np
    clicks = sample_scan(probs, n_gates, seeds.ravel())
    # float64 from the start is exact below 2**53 clicks, and an int64 array
    # would page in numpy's integer division loops (about 0.18 MB of RSS)
    p = np.array(clicks, dtype=float).reshape(-1, n_cols) / int(n_gates)
    return clicks, p, _sigma(p, n_gates)


def _sigma(p: np.ndarray, n_gates: int) -> np.ndarray:
    """:attr:`CountSummary.sigma_p` at click probabilities ``p``, as an array
    expression that rounds every operation as the property does."""
    import numpy as np
    n = int(n_gates)
    return np.maximum(np.sqrt(p * (1.0 - p) / n), 1.0 / n)


def _records(clicks: list[int], n_gates: int) -> list[CountSummary]:
    """The click record of each count, for a driver's ``raw``."""
    return [CountSummary(int(n_gates), c) for c in clicks]


# --- scenario drivers ------------------------------------------------------


def run_fig4a(
    params: ChainParams,
    power_grid_w,
    mu: float = 125.0,
    gates_per_point: int = DEFAULT_GATES_PER_POINT,
    seed: int = 0,
) -> ScanResult:
    """Pump-power sweep: conversion efficiency and pump-induced noise.

    At each power a signal run (large mu for signal-to-noise) and a
    signal-off run are simulated. The efficiency estimator inverts the
    click model, referencing the count excess to the photons entering the
    coupler; the noise estimator references the signal-off counts to the
    waveguide output, where it is linear in pump power.
    """
    import numpy as np
    if params.interferometer is not None:
        raise ValueError("the power sweep runs without the interferometer")
    if mu <= 0.0:
        raise ValueError(f"mu must be > 0, got {mu}")
    det = params.detector
    t_post = params.post_converter_transmission
    powers = [float(p) for p in power_grid_w]
    if not powers:
        raise ValueError("the power grid is empty")
    eff_denom = det.efficiency * mu * t_post
    noise_denom = det.efficiency * t_post
    if eff_denom == 0.0 or noise_denom == 0.0:
        raise ValueError("no signal reaches the detector: its efficiency or the transmission is 0")
    # the signal run at mu, then the signal-off run, at each power
    probs = [p for power in powers
             for p in _ClosedForm(params.at_pump_power(power)).grid([mu, 0.0], [None])]
    # seeds (i, 0) for the signal run and (i, 1) for the signal-off run
    seeds = derive_seeds(seed, np.arange(len(powers))[:, None], np.arange(2))
    clicks, p, sigma = _draw(probs, gates_per_point, seeds, 2)
    columns, fit = _estimate_fig4a(powers, eff_denom, noise_denom, det.dark_prob_per_gate,
                                   p, sigma)
    return ScanResult(columns=columns, fit=fit, raw=_records(clicks[0::2], gates_per_point))


def _estimate_fig4a(powers: list[float], eff_denom: float, noise_denom: float, dark: float,
                    p: np.ndarray, sigma: np.ndarray) -> tuple[dict, dict]:
    """fig4a's columns and fit from each power's click probabilities and
    sigmas, shape (n_powers, 2): the signal run, then the signal-off run."""
    names = ("efficiency", "eff_sigma", "noise_per_gate", "noise_sigma")
    columns = {"power_mw": [power * 1e3 for power in powers], **{name: [] for name in names}}
    for (p_sig, p_bg), (s_sig, s_bg) in zip(p.tolist(), sigma.tolist()):
        # invert p = 1 - (1-p_bg)*exp(-eta*mu_signal) for the signal photons;
        # a saturated run (every gate clicked) cannot be inverted, so the
        # estimators that use it are NaN, as is an estimate that overflows or
        # whose sigma does
        miss_sig = 1.0 - p_sig
        miss_bg = 1.0 - p_bg
        efficiency = eff_sigma = noise = noise_sigma = math.nan
        if miss_bg > 0.0:
            noise = math.log((1.0 - dark) / miss_bg) / noise_denom
            noise_sigma = s_bg / (miss_bg * noise_denom)
            if miss_sig > 0.0:
                efficiency = math.log(miss_bg / miss_sig) / eff_denom
                eff_sigma = math.hypot(s_sig / miss_sig, s_bg / miss_bg) / eff_denom
        estimates = _both_finite(efficiency, eff_sigma) + _both_finite(noise, noise_sigma)
        for name, value in zip(names, estimates):
            columns[name].append(value)
    if not any(power > 0.0 for power in powers):
        return columns, {}
    y, y_sigma = columns["noise_per_gate"], columns["noise_sigma"]
    fitted = [i for i, power in enumerate(powers) if power > 0.0 and not math.isnan(y[i])]
    slope, slope_sigma = fit_through_origin(
        [powers[i] for i in fitted], [y[i] for i in fitted], [y_sigma[i] for i in fitted])
    return columns, {"noise_slope_per_w": slope, "noise_slope_sigma": slope_sigma}


def run_fig4b(
    params: ChainParams,
    mu_grid,
    gates_per_point: int = 100_000_000,
    seed: int = 0,
) -> ScanResult:
    """Count rate per gate versus mean input photon number, with the
    noise floor subtracted and a through-origin line fitted to the
    subtracted points."""
    import numpy as np
    if params.interferometer is not None:
        raise ValueError("the count-rate sweep runs without the interferometer")
    mus = [float(m) for m in mu_grid]
    if not mus:
        raise ValueError("the mu grid is empty")
    floor, *signal = _ClosedForm(params).grid([0.0, *mus], [None])
    probs = [p for sig in signal for p in (sig, floor)]
    seeds = derive_seeds(seed, np.arange(len(mus))[:, None], np.arange(2))
    clicks, p, sigma = _draw(probs, gates_per_point, seeds, 2)
    columns, fit = _estimate_fig4b(mus, p, sigma)
    return ScanResult(columns=columns, fit=fit, raw=_records(clicks[0::2], gates_per_point))


def _estimate_fig4b(mus: list[float], p: np.ndarray, sigma: np.ndarray) -> tuple[dict, dict]:
    """fig4b's columns and fit from each mu's click probabilities and
    sigmas, shape (n_mus, 2): the signal run, then the signal-off run."""
    import numpy as np
    (p_raw, p_bg), (s_raw, s_bg) = p.T.tolist(), sigma.T.tolist()
    # the signal run less the signal-off run, as reference.dark_subtract does for one pair
    columns = {"mu": mus, "p_raw": p_raw, "p_raw_sigma": s_raw,
               "p_subtracted": [p_sig - p_off for p_sig, p_off in zip(p_raw, p_bg)],
               "p_subtracted_sigma": list(map(math.hypot, s_raw, s_bg))}
    slope, slope_sigma = fit_through_origin(
        mus, columns["p_subtracted"], columns["p_subtracted_sigma"])
    columns["fit_line"] = [slope * mu for mu in mus]
    return columns, {"slope": slope, "slope_sigma": slope_sigma,
                     "floor_mean": float(np.mean(p_bg))}


def _phases(n_phi: int) -> np.ndarray:
    """``n_phi`` evenly spaced modulation phases over one full fringe period;
    a cosine fit needs at least 4."""
    import numpy as np
    if n_phi < 4:
        raise ValueError(f"fringe scan needs at least 4 phase points, got {n_phi}")
    return np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)


def run_fig5(
    params: ChainParams,
    mu: float,
    n_phi: int = DEFAULT_N_PHI,
    gates_per_point: int = DEFAULT_GATES_PER_POINT,
    seed: int = 0,
    *,
    workers: int = 1,
) -> ScanResult:
    """Fringe scan: count rate versus the phase-modulation depth phi, at
    ``n_phi`` phases over one period.

    Fits c0 + c1*cos(phi) and reports the visibility c1/c0 with its
    propagated uncertainty, NaN when the fitted c0 is not positive, plus the
    dark-subtracted visibility c1/(c0 - p_dark), which is NaN when
    c0 - p_dark does not exceed the fitted sigma of c0. On a chain without
    the interferometer, the control run, no modulation should remain and
    the fit reports ``control`` 1. ``workers`` is accepted for
    compatibility and has no effect (it must still be >= 1).
    """
    import numpy as np
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    phis = _phases(n_phi)
    probs = _ClosedForm(params).grid([mu], phis.tolist())
    seeds = derive_seeds(seed, np.arange(n_phi))
    clicks, p, sigma = _draw(probs, gates_per_point, seeds, n_phi)
    columns, fit = _estimate_fig5(phis, params.detector, p, sigma)
    fit["control"] = 1.0 if params.interferometer is None else 0.0
    return ScanResult(columns=columns, fit=fit, raw=_records(clicks, gates_per_point))


def _estimate_fig5(phis: np.ndarray, detector: DetectorSpec, p: np.ndarray,
                   sigma: np.ndarray) -> tuple[dict, dict]:
    """fig5's columns and fit from one fringe's click probabilities and
    sigmas, shape (1, n_phi)."""
    fit, = fit_cosine(phis, p, sigma)
    rate_hz = detector.gate_rate_hz
    columns = {"phi_rad": phis.tolist(), "rate_per_s": (p[0] * rate_hz).tolist(),
               "rate_sigma": (sigma[0] * rate_hz).tolist()}
    names = ("c0", "c1", "c0_sigma", "c1_sigma", "visibility", "visibility_sigma",
             "visibility_sub", "visibility_sub_sigma")
    return columns, dict(zip(names, fit[:4] + _visibilities(fit, detector.dark_prob_per_gate)))


def run_fig6(
    params: ChainParams,
    mu_grid,
    n_phi: int = DEFAULT_N_PHI,
    gates_per_point: int = DEFAULT_GATES_PER_POINT,
    seed: int = 0,
) -> ScanResult:
    """Fringe visibility versus mu, Monte Carlo against the analytic curve.

    Each mu runs a full fringe scan, seeded as ``run_fig5`` with seed
    ``derive_seed(seed, j)`` for the j-th mu; all mu x phi points are sampled
    as one scan. A point counts as a detected fringe when its raw visibility
    exceeds three times its uncertainty.
    """
    import numpy as np
    if params.interferometer is None:
        raise ValueError("the visibility sweep requires an interferometer in the chain")
    phis = _phases(n_phi)
    mus = [float(m) for m in mu_grid]
    if not mus:
        raise ValueError("the mu grid is empty")
    closed_form = _ClosedForm(params)
    probs = closed_form.grid(mus, phis.tolist())
    seeds = derive_seeds(derive_seeds(seed, np.arange(len(mus)))[:, None], np.arange(n_phi))
    _, p, sigma = _draw(probs, gates_per_point, seeds, n_phi)
    columns, fit = _estimate_fig6(mus, phis, closed_form, params.detector, p, sigma)
    return ScanResult(columns=columns, fit=fit)


def _estimate_fig6(mus: list[float], phis: np.ndarray, closed_form: _ClosedForm,
                   detector: DetectorSpec, p: np.ndarray, sigma: np.ndarray) -> tuple[dict, dict]:
    """fig6's columns and fit from each mu's fringe of click probabilities
    and sigmas, shape (n_mus, n_phi)."""
    dark = detector.dark_prob_per_gate
    rows = [_visibilities(fit, dark) for fit in fit_cosine(phis, p, sigma)]
    analytic = [closed_form.visibility(mu) for mu in mus]
    names = ("v_raw", "v_raw_sigma", "v_sub", "v_sub_sigma")
    columns = {"mu": mus, **{name: [row[k] for row in rows] for k, name in enumerate(names)},
               "v_analytic": [raw for raw, _ in analytic],
               "v_analytic_sub": [sub for _, sub in analytic]}
    columns["detectable"] = [1.0 if v > 3.0 * s else 0.0
                             for v, s in zip(columns["v_raw"], columns["v_raw_sigma"])]
    detected = [mu for mu, flag in zip(mus, columns["detectable"]) if flag > 0.0]
    return columns, {"smallest_detectable_mu": min(detected) if detected else math.nan}

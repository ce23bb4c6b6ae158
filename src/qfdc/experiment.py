"""End-to-end scenario engine.

Evaluates each scenario point with the closed form of :mod:`qfdc.model`,
samples its click record by seeded Monte Carlo at that closed-form mean,
and provides the sweep drivers for the four standard experiments: the
pump-power sweep (``run_fig4a``), the count-rate-vs-mu sweep
(``run_fig4b``), the fringe scan (``run_fig5``), and the visibility-vs-mu
sweep (``run_fig6``). The train pipeline that is the closed form's
reference, ``chain_point_mean``, is in :mod:`qfdc.reference`.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .detector import CountSummary, derive_seeds, sample_scan
from .model import (
    DEFAULT_GATES_PER_POINT,
    DEFAULT_N_PHI,
    ChainParams,
    DetectorSpec,
    _ClosedForm,
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


@dataclass(frozen=True)
class CosineFit:
    """Linear least-squares fit of y ~ c0 + c1*cos(phi)."""

    c0: float
    c1: float
    c0_sigma: float
    c1_sigma: float
    c0c1_cov: float

    @property
    def visibility(self) -> float:
        """c1/c0; NaN when the fitted offset is not positive."""
        if self.c0 <= 0.0:
            return math.nan
        return self.c1 / self.c0

    @property
    def visibility_sigma(self) -> float:
        if self.c0 <= 0.0:
            return math.nan
        return self._ratio_sigma(self.c0)

    def visibility_dark_subtracted(self, dark_prob: float) -> float:
        """c1/(c0 - dark_prob); NaN when the dark-subtracted offset is not
        resolved from zero, that is when it does not exceed ``c0_sigma``."""
        if self.c0 - dark_prob <= self.c0_sigma:
            return math.nan
        return self.c1 / (self.c0 - dark_prob)

    def visibility_dark_subtracted_sigma(self, dark_prob: float) -> float:
        if self.c0 - dark_prob <= self.c0_sigma:
            return math.nan
        return self._ratio_sigma(self.c0 - dark_prob)

    def _ratio_sigma(self, denom: float) -> float:
        # delta method on c1/denom, denom = c0 - const
        g0 = -self.c1 / denom**2
        g1 = 1.0 / denom
        var = (
            g0 * g0 * self.c0_sigma**2
            + 2.0 * g0 * g1 * self.c0c1_cov
            + g1 * g1 * self.c1_sigma**2
        )
        return math.sqrt(max(var, 0.0))


def fit_cosine(
    phis: np.ndarray, values: np.ndarray, sigmas: np.ndarray
) -> CosineFit | list[CosineFit]:
    """Fit c0 + c1*cos(phi) by ordinary least squares.

    The per-point sigmas enter only the parameter covariance (sandwich
    form), keeping the estimator itself independent of the noise estimates.
    A 1-d ``values`` is one fringe and gives one fit; a 2-d ``values`` and
    ``sigmas`` hold one fringe per row over the same phases and give a list
    of fits. The design matrix [1, cos(phi)] and the inverse of its normal
    matrix are formed once per call; each fringe then costs the same
    matrix-vector products as a fit of its own, so its bits are the same.
    """
    import numpy as np
    phis = np.asarray(phis, dtype=float)
    y = np.asarray(values, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    x = np.column_stack([np.ones_like(phis), np.cos(phis)])
    xtx_inv = np.linalg.inv(x.T @ x)
    fits = []
    for y_row, sig_row in zip(np.atleast_2d(y), np.atleast_2d(sig), strict=True):
        coef = xtx_inv @ (x.T @ y_row)
        middle = (x * (sig_row**2)[:, None]).T @ x
        cov = xtx_inv @ middle @ xtx_inv
        fits.append(CosineFit(
            c0=float(coef[0]),
            c1=float(coef[1]),
            c0_sigma=float(math.sqrt(max(cov[0, 0], 0.0))),
            c1_sigma=float(math.sqrt(max(cov[1, 1], 0.0))),
            c0c1_cov=float(cov[0, 1]),
        ))
    return fits if y.ndim == 2 else fits[0]


def fit_through_origin(x: np.ndarray, y: np.ndarray,
                       sigmas: np.ndarray) -> tuple[float, float]:
    """Weighted least-squares line y = slope*x: the slope and its sigma, both
    NaN when every abscissa is zero, and each NaN when it is not finite."""
    import numpy as np
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    # weights relative to a power of two at or below the smallest sigma: they
    # are at most 4, so squaring cannot overflow (a sigma 2**511 times the
    # smallest gets weight 0), and the scale cancels exactly in slope and sigma
    scale = math.ldexp(1.0, math.frexp(float(np.min(sigmas, initial=math.inf)))[1] - 1)
    with np.errstate(over="ignore"):
        w = 1.0 / (sigmas / scale) ** 2
    denom = float(np.sum(w * x * x))
    if denom == 0.0:
        return math.nan, math.nan
    slope = float(np.sum(w * x * y)) / denom
    return _finite_or_nan(slope), _finite_or_nan(math.sqrt(1.0 / denom) * scale)


def _finite_or_nan(value: float) -> float:
    return value if math.isfinite(value) else math.nan


def _estimate(value: float, sigma: float) -> tuple[float, float]:
    """An estimate and its sigma, both NaN unless both are finite."""
    if not (math.isfinite(value) and math.isfinite(sigma)):
        return math.nan, math.nan
    return value, sigma


# --- scan results ----------------------------------------------------------


@dataclass
class ScanResult:
    """Tabulated sweep output: ordered columns, one row per scan point.

    The first column is the abscissa, and the leading columns are the CSV in
    CSV order. ``fit`` holds the scalar fit outputs and ``raw`` the per-point
    signal-run summaries (fig4a, fig4b, fig5).
    """

    columns: dict[str, list[float]]
    fit: dict[str, float] = field(default_factory=dict)
    raw: list[CountSummary] | None = None

    def __post_init__(self) -> None:
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


def _table(names: tuple[str, ...], rows: list[tuple]) -> dict[str, list[float]]:
    """Named columns from per-point rows."""
    return {name: [row[k] for row in rows] for k, name in enumerate(names)}


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
    eff_denom = det.efficiency * mu * t_post
    noise_denom = det.efficiency * t_post
    if eff_denom == 0.0 or noise_denom == 0.0:
        raise ValueError("no signal reaches the detector: its efficiency or the transmission is 0")
    # the signal run at mu, then the signal-off run, at each power
    probs = [p for power in powers
             for p in _ClosedForm(params.at_pump_power(power)).grid([mu, 0.0], [None])]
    # seeds (i, 0) for the signal run and (i, 1) for the signal-off run
    seeds = derive_seeds(seed, np.arange(len(powers))[:, None], np.arange(2)).ravel()
    clicks = sample_scan(probs, gates_per_point, seeds)
    p, sigma = (a.tolist() for a in _click_arrays(clicks, gates_per_point, 2))
    rows: list[tuple] = []
    for power, (p_sig, p_bg), (s_sig, s_bg) in zip(powers, p, sigma):
        # invert p = 1 - (1-p_bg)*exp(-eta*mu_signal) for the signal photons;
        # a saturated run (every gate clicked) cannot be inverted, so the
        # estimators that use it are NaN, as is an estimate that overflows or
        # whose sigma does
        miss_sig = 1.0 - p_sig
        miss_bg = 1.0 - p_bg
        efficiency = eff_sigma = noise = noise_sigma = math.nan
        if miss_bg > 0.0:
            noise = math.log((1.0 - det.dark_prob_per_gate) / miss_bg) / noise_denom
            noise_sigma = s_bg / (miss_bg * noise_denom)
            if miss_sig > 0.0:
                efficiency = math.log(miss_bg / miss_sig) / eff_denom
                eff_sigma = math.hypot(s_sig / miss_sig, s_bg / miss_bg) / eff_denom
        rows.append((power * 1e3, *_estimate(efficiency, eff_sigma),
                     *_estimate(noise, noise_sigma)))
    columns = _table(
        ("power_mw", "efficiency", "eff_sigma", "noise_per_gate", "noise_sigma"), rows
    )
    positive = [i for i, p in enumerate(powers) if p > 0.0]
    fit: dict[str, float] = {}
    if positive:
        fitted = [i for i in positive if not math.isnan(columns["noise_per_gate"][i])]
        slope, slope_sigma = fit_through_origin(
            [powers[i] for i in fitted],
            [columns["noise_per_gate"][i] for i in fitted],
            [columns["noise_sigma"][i] for i in fitted],
        )
        fit = {"noise_slope_per_w": slope, "noise_slope_sigma": slope_sigma}
    return ScanResult(columns=columns, fit=fit,
                      raw=_records(clicks[0::2], gates_per_point, det))


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
    floor, *signal = _ClosedForm(params).grid([0.0, *mus], [None])
    probs = [p for sig in signal for p in (sig, floor)]
    seeds = derive_seeds(seed, np.arange(len(mus))[:, None], np.arange(2)).ravel()
    clicks = sample_scan(probs, gates_per_point, seeds)
    p, sigma = (a.tolist() for a in _click_arrays(clicks, gates_per_point, 2))
    # the signal run less the signal-off run, as reference.dark_subtract does for one pair
    rows = [(mu, p_sig, s_sig, p_sig - p_bg, math.hypot(s_sig, s_bg))
            for mu, (p_sig, p_bg), (s_sig, s_bg) in zip(mus, p, sigma)]
    columns = _table(("mu", "p_raw", "p_raw_sigma", "p_subtracted", "p_subtracted_sigma"), rows)
    slope, slope_sigma = fit_through_origin(
        mus, columns["p_subtracted"], columns["p_subtracted_sigma"])
    columns["fit_line"] = [slope * mu for mu in mus]
    return ScanResult(
        columns=columns,
        fit={
            "slope": slope,
            "slope_sigma": slope_sigma,
            "floor_mean": float(np.mean([p_bg for _, p_bg in p])),
        },
        raw=_records(clicks[0::2], gates_per_point, params.detector),
    )


def default_phi_grid(n_phi: int = DEFAULT_N_PHI) -> np.ndarray:
    """Evenly spaced modulation phases over one full fringe period."""
    import numpy as np
    return np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)


def run_fig5(
    params: ChainParams,
    mu: float,
    phi_grid=None,
    gates_per_point: int = DEFAULT_GATES_PER_POINT,
    seed: int = 0,
    *,
    workers: int = 1,
    control: bool = False,
) -> ScanResult:
    """Fringe scan: count rate versus the phase-modulation depth phi.

    Fits c0 + c1*cos(phi) and reports the visibility c1/c0 with its
    propagated uncertainty, NaN when the fitted c0 is not positive, plus the
    dark-subtracted visibility c1/(c0 - p_dark), which is NaN when
    c0 - p_dark does not exceed the fitted sigma of c0. With
    ``control=True`` the interferometer is removed from the chain, which
    should leave no fitted modulation. ``workers`` is accepted for
    compatibility and has no effect (it must still be >= 1).
    """
    import numpy as np
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    phis = default_phi_grid() if phi_grid is None else np.asarray(phi_grid, dtype=float)
    if phis.size < 4:
        raise ValueError(f"fringe scan needs at least 4 phase points, got {phis.size}")
    if control:
        # modulation is still applied at the source, but without the
        # interferometer it cannot reach the count rate; phi=None gives the
        # identical per-gate mean
        run_params = params.without_interferometer()
    else:
        if params.interferometer is None:
            raise ValueError("fringe scan requires an interferometer in the chain")
        run_params = params
    probs = _ClosedForm(run_params).grid([mu], [None] * phis.size if control else phis.tolist())
    clicks = sample_scan(probs, gates_per_point, derive_seeds(seed, np.arange(phis.size)))
    p, sigma = _click_arrays(clicks, gates_per_point, phis.size)
    fitted, = fit_cosine(phis, p, sigma)
    dark = params.detector.dark_prob_per_gate
    rate_hz = params.detector.gate_rate_hz
    return ScanResult(
        columns={
            "phi_rad": phis.tolist(),
            "rate_per_s": (p[0] * rate_hz).tolist(),
            "rate_sigma": (sigma[0] * rate_hz).tolist(),
        },
        fit={
            "c0": fitted.c0,
            "c1": fitted.c1,
            "c0_sigma": fitted.c0_sigma,
            "c1_sigma": fitted.c1_sigma,
            "visibility": fitted.visibility,
            "visibility_sigma": fitted.visibility_sigma,
            "visibility_sub": fitted.visibility_dark_subtracted(dark),
            "visibility_sub_sigma": fitted.visibility_dark_subtracted_sigma(dark),
            "control": 1.0 if control else 0.0,
        },
        raw=_records(clicks, gates_per_point, params.detector),
    )


def _click_arrays(clicks: list[int], n_gates: int,
                  n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The click probability of each count and its sigma, in rows of
    ``n_cols``: a fringe's phases (fig5, fig6) or a point's signal and
    signal-off runs (fig4a, fig4b). Every driver estimates from these;
    they are :attr:`CountSummary.p_click` and :attr:`CountSummary.sigma_p`
    as array expressions, which round every operation as they do, bit for
    bit, so records are built only for a driver's ``raw``."""
    import numpy as np
    n = int(n_gates)
    # float64 from the start is exact below 2**53 clicks, and an int64 array
    # would page in numpy's integer division loops (about 0.18 MB of RSS)
    p = np.array(clicks, dtype=float).reshape(-1, n_cols) / n
    return p, np.maximum(np.sqrt(p * (1.0 - p) / n), 1.0 / n)


def _records(clicks: list[int], n_gates: int, spec: DetectorSpec) -> list[CountSummary]:
    """The click record of each count, for a driver's ``raw``."""
    n = int(n_gates)
    return [CountSummary(n, c, spec.gate_rate_hz) for c in clicks]


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
    if n_phi < 4:
        raise ValueError(f"fringe scan needs at least 4 phase points, got {n_phi}")
    mus = [float(m) for m in mu_grid]
    phis = default_phi_grid(n_phi)
    closed_form = _ClosedForm(params)
    probs = closed_form.grid(mus, phis.tolist())
    seeds = derive_seeds(derive_seeds(seed, np.arange(len(mus)))[:, None], np.arange(n_phi))
    clicks = sample_scan(probs, gates_per_point, seeds.ravel())
    dark = params.detector.dark_prob_per_gate
    rows: list[tuple] = []
    for mu, fitted in zip(mus, fit_cosine(phis, *_click_arrays(clicks, gates_per_point, n_phi))):
        v, v_sigma = fitted.visibility, fitted.visibility_sigma
        rows.append((mu, v, v_sigma, fitted.visibility_dark_subtracted(dark),
                     fitted.visibility_dark_subtracted_sigma(dark), *closed_form.visibility(mu),
                     1.0 if v > 3.0 * v_sigma else 0.0))
    columns = _table(("mu", "v_raw", "v_raw_sigma", "v_sub", "v_sub_sigma", "v_analytic",
                      "v_analytic_sub", "detectable"), rows)
    detected = [m for m, flag in zip(mus, columns["detectable"]) if flag > 0.0]
    return ScanResult(
        columns=columns,
        fit={"smallest_detectable_mu": min(detected) if detected else math.nan},
    )

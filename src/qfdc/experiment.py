"""End-to-end scenario engine.

Composes source -> converter -> (optional interferometer) -> detector,
evaluates each scenario point in closed form, samples its click record by
seeded Monte Carlo at that closed-form mean, and provides the sweep drivers
for the four standard experiments: the pump-power sweep (``run_fig4a``),
the count-rate-vs-mu sweep (``run_fig4b``), the fringe scan (``run_fig5``),
and the visibility-vs-mu sweep (``run_fig6``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .detector import (
    CountSummary,
    DetectorSpec,
    click_probability,
    dark_subtract,
    derive_seed,  # the per-point definition of derive_seeds; bench/tracer.py patches it here
    derive_seeds,
    sample_gates,
    sample_scan,
)
from .interferometer import (
    InterferometerSpec,
    gate_mean_photons,
    suppress_background,
    transmit_train,
)
from .mixer import ConverterSpec, conversion_efficiency, convert, noise_background
from .optics import PhasePattern, attenuate, coherent_train, transmission_loss_db

DEFAULT_N_SLOTS = 4096
DEFAULT_GATES_PER_POINT = 40_000_000  # 10 s at the 4 MHz gate rate
DEFAULT_N_PHI = 16


@dataclass(frozen=True)
class ChainParams:
    """Everything between the source and the click record.

    ``post_converter_transmission`` is the broadband transmission from the
    waveguide output to the detector (collection lenses, fiber coupling, the
    pump-rejection couplers and the interferometer's insertion loss).
    ``intrinsic_visibility_v0`` is the background-free fringe contrast
    ceiling, lumping source coherence, modulator fidelity and interferometer
    imbalance.
    """

    converter: ConverterSpec
    detector: DetectorSpec
    interferometer: InterferometerSpec | None = None
    post_converter_transmission: float = 1.0
    intrinsic_visibility_v0: float = 1.0

    def __post_init__(self) -> None:
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
        return replace(self, interferometer=None)

    def at_pump_power(self, pump_power_w: float) -> "ChainParams":
        return replace(self, converter=replace(self.converter, pump_power_w=pump_power_w))


@dataclass(frozen=True)
class ExpectedRate:
    """Analytic per-gate means at the detector input, plus the click probability."""

    signal_photons: float
    noise_photons: float
    mean_photons: float
    click_probability: float


class _ClosedForm:
    """The per-chain factors of :func:`expected_rate`; :meth:`rate` does the
    per-point arithmetic, so a scan evaluates the chain once."""

    def __init__(self, params: ChainParams) -> None:
        self.eta = conversion_efficiency(params.converter)
        self.t_post = params.post_converter_transmission
        self.detector = params.detector
        noise = noise_background(params.converter).scaled(self.t_post)
        # fringe contrast, None without an interferometer: slots interfere at
        # phase differences -phi and +phi, so an arm bias theta gives the
        # fringe (1 + V0*cos(theta)*cos(phi))/2
        self.contrast = None
        if params.interferometer is not None:
            noise = suppress_background(noise, params.interferometer)
            self.contrast = params.intrinsic_visibility_v0 * math.cos(
                params.interferometer.phase_bias_theta)
        self.noise = noise.total_photons_per_gate  # background photons per gate

    def rate(self, mu: float, phi: float | None) -> ExpectedRate:
        if mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        if phi is not None and self.contrast is None:
            raise ValueError("phi was given but the chain has no interferometer")
        signal = mu * self.eta * self.t_post
        if self.contrast is not None:
            cos_phi = 0.0 if phi is None else math.cos(phi)
            fringe = (1.0 + self.contrast * cos_phi) / 2.0
            signal *= fringe
        total = signal + self.noise
        return ExpectedRate(signal, self.noise, total, click_probability(total, self.detector))


def expected_rate(mu: float, phi: float | None, params: ChainParams) -> ExpectedRate:
    """Closed-form per-gate signal, background and click probability.

    ``phi`` is the alternating phase-modulation depth; ``None`` means the
    phi-averaged fringe (factor 1/2) when an interferometer is present.
    Detector efficiency is applied exactly once, inside the click model;
    all upstream factors are photon-number transmissions.
    """
    return _ClosedForm(params).rate(mu, phi)


@dataclass(frozen=True)
class VisibilityPair:
    raw: float
    subtracted: float


def analytic_visibility(mu: float, params: ChainParams) -> VisibilityPair:
    """Fringe visibility predicted from the signal-to-background ratio.

    With S the constructive-port signal clicks/gate (fringe peak for a
    perfect fringe) and B the flat background clicks/gate, the fitted
    c1/c0 visibility of the fringe S*(1 + V0*cos(phi))/2 + B is
    S*V0/(S + 2B). The raw value counts dark clicks in B; the subtracted
    value removes them.
    """
    if params.interferometer is None:
        raise ValueError("analytic_visibility requires an interferometer in the chain")
    if mu < 0.0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    det = params.detector
    chain = _ClosedForm(params)
    s_clicks = det.efficiency * mu * chain.eta * chain.t_post
    b_noise = det.efficiency * chain.noise
    if s_clicks == 0.0:
        return VisibilityPair(0.0, 0.0)
    raw = s_clicks * chain.contrast / (s_clicks + 2.0 * (b_noise + det.dark_prob_per_gate))
    sub = s_clicks * chain.contrast / (s_clicks + 2.0 * b_noise)
    return VisibilityPair(raw, sub)


def chain_point_mean(
    mu: float, phi: float | None, params: ChainParams, n_slots: int = DEFAULT_N_SLOTS
) -> float:
    """Mean photons per gate at the detector via the full train pipeline.

    A reference for :func:`expected_rate`, which the Monte Carlo uses: this
    propagates an actual finite train of amplitudes, so it includes the
    non-interfering edge slot of the interferometer (at most 0.2% at the
    default train length, largest at the fringe minimum). The intrinsic
    visibility ceiling enters as a partial-coherence blend of the
    interfering and incoherent port outputs.

    ``phi=None`` means the phi-averaged fringe, as in :func:`expected_rate`;
    a single train cannot represent that average, so it is rejected when the
    chain has an interferometer.
    """
    if phi is None and params.interferometer is not None:
        raise ValueError("phi=None (the phi-averaged fringe) has no single-train equivalent")
    pattern = PhasePattern.alternating(phi) if phi is not None else PhasePattern.uniform(0.0)
    train = coherent_train(params.converter.process.signal, n_slots, mu, pattern)
    converted, _ = convert(train, params.converter)
    converted = attenuate(converted, transmission_loss_db(params.post_converter_transmission))
    noise = noise_background(params.converter).scaled(params.post_converter_transmission)
    if params.interferometer is not None:
        port0 = transmit_train(converted, params.interferometer, port=0)
        port1 = transmit_train(converted, params.interferometer, port=1)
        v0 = params.intrinsic_visibility_v0
        signal = gate_mean_photons(v0 * port0 + (1.0 - v0) * 0.5 * (port0 + port1))
        noise = suppress_background(noise, params.interferometer)
    else:
        signal = converted.mean_photon_number
    return signal + noise.total_photons_per_gate


def simulate_point(
    mu: float, phi: float | None, params: ChainParams, n_gates: int, seed: int
) -> CountSummary:
    """Monte Carlo click record for one scenario point, sampled at the
    closed-form mean of :func:`expected_rate` (``phi=None``: the phi average)."""
    mean = expected_rate(mu, phi, params).mean_photons
    return sample_gates(mean, params.detector, n_gates, seed)


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


def fit_cosine(phis: np.ndarray, values: np.ndarray, sigmas: np.ndarray) -> CosineFit:
    """Fit c0 + c1*cos(phi) by ordinary least squares.

    The per-point sigmas enter only the parameter covariance (sandwich
    form), keeping the estimator itself independent of the noise estimates.
    """
    phis = np.asarray(phis, dtype=float)
    y = np.asarray(values, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    x = np.column_stack([np.ones_like(phis), np.cos(phis)])
    xtx_inv = np.linalg.inv(x.T @ x)
    coef = xtx_inv @ (x.T @ y)
    middle = (x * (sig**2)[:, None]).T @ x
    cov = xtx_inv @ middle @ xtx_inv
    return CosineFit(
        c0=float(coef[0]),
        c1=float(coef[1]),
        c0_sigma=float(math.sqrt(max(cov[0, 0], 0.0))),
        c1_sigma=float(math.sqrt(max(cov[1, 1], 0.0))),
        c0c1_cov=float(cov[0, 1]),
    )


@dataclass(frozen=True)
class LineFit:
    """Weighted least-squares line through the origin, y = slope*x."""

    slope: float
    slope_sigma: float


def fit_through_origin(x: np.ndarray, y: np.ndarray, sigmas: np.ndarray) -> LineFit:
    """Weighted fit; slope and sigma are NaN when every abscissa is zero, and
    each is NaN when it is not finite."""
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
        return LineFit(slope=math.nan, slope_sigma=math.nan)
    slope = float(np.sum(w * x * y)) / denom
    return LineFit(_finite_or_nan(slope), _finite_or_nan(math.sqrt(1.0 / denom) * scale))


def _finite_or_nan(value: float) -> float:
    return value if math.isfinite(value) else math.nan


def _sigma_floor(summary: CountSummary) -> float:
    """Binomial sigma with a one-count floor so zero-click points keep weight."""
    return max(summary.sigma_p, 1.0 / summary.gates)


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
    probs: list[float] = []
    for power in powers:
        rate = _ClosedForm(params.at_pump_power(power)).rate
        probs += [rate(mu, None).click_probability, rate(0.0, None).click_probability]
    # seeds (i, 0) for the signal run and (i, 1) for the signal-off run
    seeds = derive_seeds(seed, np.arange(len(powers))[:, None], np.arange(2)).ravel()
    records = sample_scan(probs, det, gates_per_point, seeds)
    raw = records[0::2]
    rows: list[tuple] = []
    noise_fit_sigma: list[float] = []
    for power, sig, bg in zip(powers, raw, records[1::2]):
        # invert p = 1 - (1-p_bg)*exp(-eta*mu_signal) for the signal photons;
        # a saturated run (every gate clicked) cannot be inverted, so the
        # estimators that use it are NaN, as is an estimate that overflows
        miss_sig = 1.0 - sig.p_click
        miss_bg = 1.0 - bg.p_click
        efficiency = eff_sigma = noise = noise_sigma = fit_sigma = math.nan
        if miss_bg > 0.0:
            noise = math.log((1.0 - det.dark_prob_per_gate) / miss_bg) / noise_denom
            noise_sigma = bg.sigma_p / (miss_bg * noise_denom)
            fit_sigma = _sigma_floor(bg) / (miss_bg * noise_denom)
            if miss_sig > 0.0:
                efficiency = math.log(miss_bg / miss_sig) / eff_denom
                eff_sigma = math.hypot(sig.sigma_p / miss_sig, bg.sigma_p / miss_bg) / eff_denom
        estimates = (efficiency, eff_sigma, noise, noise_sigma)
        rows.append((power * 1e3, *map(_finite_or_nan, estimates)))
        noise_fit_sigma.append(fit_sigma if math.isfinite(noise) else math.nan)
    columns = _table(
        ("power_mw", "efficiency", "eff_sigma", "noise_per_gate", "noise_sigma"), rows
    )
    positive = [i for i, p in enumerate(powers) if p > 0.0]
    fit: dict[str, float] = {}
    if positive:
        fitted = [i for i in positive if not math.isnan(noise_fit_sigma[i])]
        line = fit_through_origin(
            np.array([powers[i] for i in fitted]),
            np.array([columns["noise_per_gate"][i] for i in fitted]),
            np.array([noise_fit_sigma[i] for i in fitted]),
        )
        fit = {"noise_slope_per_w": line.slope, "noise_slope_sigma": line.slope_sigma}
    return ScanResult(columns=columns, fit=fit, raw=raw)


def run_fig4b(
    params: ChainParams,
    mu_grid,
    gates_per_point: int = 100_000_000,
    seed: int = 0,
) -> ScanResult:
    """Count rate per gate versus mean input photon number, with the
    noise floor subtracted and a through-origin line fitted to the
    subtracted points."""
    if params.interferometer is not None:
        raise ValueError("the count-rate sweep runs without the interferometer")
    mus = [float(m) for m in mu_grid]
    rate = _ClosedForm(params).rate
    floor = rate(0.0, None).click_probability
    probs = [p for mu in mus for p in (rate(mu, None).click_probability, floor)]
    seeds = derive_seeds(seed, np.arange(len(mus))[:, None], np.arange(2)).ravel()
    records = sample_scan(probs, params.detector, gates_per_point, seeds)
    raw = records[0::2]
    floors = [bg.p_click for bg in records[1::2]]
    rows: list[tuple] = []
    for mu, sig, bg in zip(mus, raw, records[1::2]):
        corrected = dark_subtract(sig, bg)
        rows.append((mu, sig.p_click, sig.sigma_p, corrected.p, corrected.sigma))
    columns = _table(("mu", "p_raw", "p_raw_sigma", "p_subtracted", "p_subtracted_sigma"), rows)
    line = fit_through_origin(
        np.array(mus),
        np.array(columns["p_subtracted"]),
        np.array([max(s, 1.0 / gates_per_point) for s in columns["p_subtracted_sigma"]]),
    )
    columns["fit_line"] = [line.slope * mu for mu in mus]
    return ScanResult(
        columns=columns,
        fit={
            "slope": line.slope,
            "slope_sigma": line.slope_sigma,
            "floor_mean": float(np.mean(floors)),
        },
        raw=raw,
    )


def default_phi_grid(n_phi: int = DEFAULT_N_PHI) -> np.ndarray:
    """Evenly spaced modulation phases over one full fringe period."""
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
    dark-subtracted visibility c1/(c0 - p_dark), which is NaN when c0 - p_dark
    does not exceed the fitted sigma of c0. With ``control=True`` the interferometer is removed from the
    chain, which should leave no fitted modulation. ``workers`` is accepted
    for compatibility and has no effect (it must still be >= 1).
    """
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
    rate = _ClosedForm(run_params).rate
    probs = [rate(mu, None if control else float(phi)).click_probability for phi in phis]
    seeds = derive_seeds(seed, np.arange(phis.size))
    raw = sample_scan(probs, params.detector, gates_per_point, seeds)
    fit = _fringe_fit(phis, raw, params.detector.dark_prob_per_gate)
    return ScanResult(
        columns={
            "phi_rad": [float(p) for p in phis],
            "rate_per_s": [s.rate_per_s for s in raw],
            "rate_sigma": [s.sigma_p * s.gate_rate_hz for s in raw],
        },
        fit={**fit, "control": 1.0 if control else 0.0},
        raw=raw,
    )


def _fringe_fit(phis: np.ndarray, raw: list[CountSummary], dark: float) -> dict[str, float]:
    """Fit c0 + c1*cos(phi) to the click records of one fringe scan."""
    fitted = fit_cosine(
        phis,
        np.array([s.p_click for s in raw]),
        np.array([_sigma_floor(s) for s in raw]),
    )
    return {
        "c0": fitted.c0,
        "c1": fitted.c1,
        "c0_sigma": fitted.c0_sigma,
        "c1_sigma": fitted.c1_sigma,
        "visibility": fitted.visibility,
        "visibility_sigma": fitted.visibility_sigma,
        "visibility_sub": fitted.visibility_dark_subtracted(dark),
        "visibility_sub_sigma": fitted.visibility_dark_subtracted_sigma(dark),
    }


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
    if params.interferometer is None:
        raise ValueError("the visibility sweep requires an interferometer in the chain")
    if n_phi < 4:
        raise ValueError(f"fringe scan needs at least 4 phase points, got {n_phi}")
    mus = [float(m) for m in mu_grid]
    phis = default_phi_grid(n_phi)
    rate = _ClosedForm(params).rate
    probs = [rate(mu, float(phi)).click_probability for mu in mus for phi in phis]
    seeds = derive_seeds(derive_seeds(seed, np.arange(len(mus)))[:, None], np.arange(n_phi))
    records = sample_scan(probs, params.detector, gates_per_point, seeds.ravel())
    rows: list[tuple] = []
    for j, mu in enumerate(mus):
        fit = _fringe_fit(phis, records[j * n_phi:(j + 1) * n_phi],
                          params.detector.dark_prob_per_gate)
        curve = analytic_visibility(mu, params)
        detectable = fit["visibility"] > 3.0 * fit["visibility_sigma"]
        rows.append((mu, fit["visibility"], fit["visibility_sigma"], fit["visibility_sub"],
                     fit["visibility_sub_sigma"], curve.raw, curve.subtracted,
                     1.0 if detectable else 0.0))
    columns = _table(("mu", "v_raw", "v_raw_sigma", "v_sub", "v_sub_sigma", "v_analytic",
                      "v_analytic_sub", "detectable"), rows)
    detected = [m for m, flag in zip(mus, columns["detectable"]) if flag > 0.0]
    return ScanResult(
        columns=columns,
        fit={"smallest_detectable_mu": min(detected) if detected else math.nan},
    )

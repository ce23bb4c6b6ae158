import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfdc.calibration import (
    CalibrationContext,
    CalibrationResult,
    CalibrationTargets,
    calibrated_chain,
)
from qfdc.cli import load_config, run_scenario
from qfdc.detector import BLOCK_GATES, CountSummary
from qfdc.experiment import (
    ScanResult,
    _estimate,
    _expected,
    _phases,
    _plan_fig4a,
    _plan_fig4b,
    _plan_fig5,
    _plan_fig6,
    _scan,
    _visibilities,
    fit_cosine,
    fit_through_origin,
    run_fig4a,
    run_fig4b,
    run_fig5,
    run_fig6,
)
from qfdc.model import (
    ChainParams,
    DetectorSpec,
    _ClosedForm,
    analytic_visibility,
    click_probability,
    conversion_efficiency,
    expected_rate,
)
from qfdc.reference import chain_point_mean, dark_subtract, derive_seed, simulate_point

from strategies import CHAINS, CONDITION_KEYS, DETECTOR_KEYS


def _signal_photons(mu: float, phi: float | None, params: ChainParams) -> float:
    """The signal part of the closed-form mean: the mean less its background."""
    return expected_rate(mu, phi, params) - expected_rate(0.0, phi, params)


class TestExpectedRate:
    def test_bare_floor(self, bare_chain):
        # frozen from the calibrated parameters: the bare-chain noise floor
        mean = expected_rate(0.0, None, bare_chain)
        assert click_probability(mean, bare_chain.detector) == pytest.approx(
            7.167733268298448e-05, rel=1e-9)
        assert _signal_photons(0.0, None, bare_chain) == 0.0

    def test_interferometer_floor(self, chain):
        mean = expected_rate(0.0, None, chain)
        assert click_probability(mean, chain.detector) == pytest.approx(
            3.287350251512944e-05, rel=1e-9)

    def test_ignores_phi_without_interferometer(self, bare_chain):
        # the modulation cannot reach the count rate without the interferometer
        averaged = expected_rate(0.7, None, bare_chain)
        for phi in (0.0, 1.0, math.pi):
            assert expected_rate(0.7, phi, bare_chain).hex() == averaged.hex()

    def test_signal_linear_in_mu(self, chain):
        base = _signal_photons(1.0, 0.3, chain)
        for mu in (0.01, 0.7, 125.0):
            assert _signal_photons(mu, 0.3, chain) == pytest.approx(mu * base, rel=1e-12)

    def test_phi_average_is_half_of_peak(self, chain):
        peak = _signal_photons(1.0, 0.0, chain)
        averaged = _signal_photons(1.0, None, chain)
        v0 = chain.intrinsic_visibility_v0
        assert averaged == pytest.approx(peak / (1.0 + v0), rel=1e-12)


def _reference_click(mu: float, phi: float | None, params: ChainParams) -> float:
    """The closed form of one point, written out in its fixed arithmetic
    order: mu*eta*t_post, times the fringe, plus the noise, then the click
    model. The noise is beta*P split into pump leakage and Raman light, each
    times t_post; behind the interferometer the leakage sees the rejection
    and the Raman light halves."""
    converter = params.converter
    eta = conversion_efficiency(converter)
    t_post = params.post_converter_transmission
    total = converter.noise_coeff_beta * converter.pump_power_w
    leak = converter.leak_fraction * total
    raman = (total - leak) * t_post
    leak = leak * t_post
    signal = mu * eta * t_post
    if params.interferometer is not None:
        leak = leak * 10.0 ** (-params.interferometer.oob_suppression_db / 10.0)
        raman = raman / 2.0
        contrast = params.intrinsic_visibility_v0 * math.cos(params.interferometer.phase_bias_theta)
        signal *= (1.0 + contrast * (0.0 if phi is None else math.cos(phi))) / 2.0
    return click_probability(signal + (leak + raman), params.detector)


class TestClosedFormGrid:
    """A scan's closed form, evaluated over its grid at once, has the bits
    of every point evaluated alone."""

    @settings(max_examples=100, deadline=None)
    @given(
        mus=st.lists(st.one_of(st.floats(0.0, 1e4), st.sampled_from([0.0, 5e-324, 1e300])),
                     max_size=4),
        phis=st.lists(st.one_of(st.none(), st.floats(-100.0, 100.0)), max_size=5),
        power=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
        interferometer=st.booleans(),
    )
    @example([0.0, 0.7, 143.0], [None, 0.0, math.pi / 2, math.pi], 0.027, True)
    @example([0.0, 125.0], [None], 0.027, False)
    def test_grid_matches_each_point(self, chain, mus, phis, power, interferometer):
        params = chain.at_pump_power(power)
        if not interferometer:
            params = params.without_interferometer()
            phis = [None] * len(phis)
        grid = _ClosedForm(params).grid(mus, phis)
        alone = [click_probability(expected_rate(mu, phi, params), params.detector)
                 for mu in mus for phi in phis]
        reference = [_reference_click(mu, phi, params) for mu in mus for phi in phis]
        assert [p.hex() for p in grid] == [p.hex() for p in alone]
        assert [p.hex() for p in grid] == [p.hex() for p in reference]

    def test_grid_keeps_the_checks(self, chain):
        with pytest.raises(ValueError, match="mu must be >= 0"):
            _ClosedForm(chain).grid([0.7, -1.0], [0.0])
        with pytest.raises(ValueError, match="mean photons must be >= 0"):
            _ClosedForm(chain).grid([math.nan], [0.0])
        # an infinite mu at a fringe factor of 0 gives a NaN total
        with pytest.raises(ValueError, match="mean photons must be >= 0"):
            _ClosedForm(chain.replace(intrinsic_visibility_v0=1.0)).grid([math.inf], [math.pi])


class TestAnalyticVisibility:
    def test_background_free_chain_reaches_v0(self, chain):
        clean = chain.replace(
            converter=chain.converter.replace(noise_coeff_beta=0.0),
            detector=chain.detector.replace(dark_prob_per_gate=0.0),
        )
        for mu in (1e-4, 0.7, 143.0):
            pair = analytic_visibility(mu, clean)
            assert pair[0] == pytest.approx(clean.intrinsic_visibility_v0, rel=1e-12)

    def test_calibrated_fringe_points(self, chain):
        pair = analytic_visibility(0.7, chain)
        assert pair[0] == pytest.approx(0.379, abs=1e-9)
        assert pair[1] == pytest.approx(0.721, abs=1e-9)
        assert analytic_visibility(143.0, chain)[0] == pytest.approx(0.94, abs=1e-9)

    def test_limits(self, chain):
        assert analytic_visibility(0.0, chain)[0] == 0.0
        assert analytic_visibility(1e9, chain)[0] == pytest.approx(
            chain.intrinsic_visibility_v0, rel=1e-4
        )

    def test_monotone_in_mu(self, chain):
        mus = np.logspace(-3, 3, 40)
        values = [analytic_visibility(float(m), chain)[0] for m in mus]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_subtracted_exceeds_raw(self, chain):
        for mu in np.logspace(-2, 2, 20):
            pair = analytic_visibility(float(mu), chain)
            assert pair[1] > pair[0]

    def test_requires_interferometer(self, bare_chain):
        with pytest.raises(ValueError):
            analytic_visibility(0.7, bare_chain)


class TestChainPointMean:
    def test_matches_analytic_without_interferometer(self, bare_chain):
        for mu, phi in itertools.product((0.0, 0.01, 1.0, 125.0), (None, 0.0, 1.0, math.pi)):
            train_mean = chain_point_mean(mu, phi, bare_chain)
            assert train_mean == pytest.approx(expected_rate(mu, phi, bare_chain), rel=1e-12)

    def test_matches_analytic_with_interferometer(self, chain):
        # finite-train edge slot keeps the two within ~1/n_slots
        for mu, phi in [(0.7, 0.0), (0.7, 2.0), (143.0, math.pi / 2), (0.09, 1.0)]:
            train_mean = chain_point_mean(mu, phi, chain, n_slots=4096)
            assert train_mean == pytest.approx(expected_rate(mu, phi, chain), rel=5e-4)

    def test_photon_mean_exactly_linear_in_mu(self, chain):
        base = chain_point_mean(1.0, 1.1, chain) - chain_point_mean(0.0, 1.1, chain)
        for mu in (0.01, 0.7, 10.0):
            signal = chain_point_mean(mu, 1.1, chain) - chain_point_mean(0.0, 1.1, chain)
            assert signal == pytest.approx(mu * base, rel=1e-9)

    def test_phase_bias_enters_fringe(self, chain):
        biased = chain.replace(
            interferometer=chain.interferometer.replace(phase_bias_theta=0.7),
        )
        train_mean = chain_point_mean(0.7, 0.9, biased, n_slots=4096)
        assert train_mean == pytest.approx(expected_rate(0.7, 0.9, biased), rel=5e-4)

    def test_rejects_phi_average_with_interferometer(self, chain):
        # phi=None means the phi-averaged fringe, which no single train carries
        with pytest.raises(ValueError):
            chain_point_mean(0.7, None, chain)


class TestMonteCarloAgainstAnalytic:
    def test_scenario_points_within_5_sigma(self, chain, bare_chain):
        gates = 4_000_000
        points = [
            (chain, 0.7, 0.0),
            (chain, 0.7, math.pi),
            (chain, 143.0, math.pi / 2),
            (chain, 143.0, None),
            (chain, 0.7, None),
            (bare_chain, 1.0, None),
            (bare_chain, 0.0, None),
        ]
        for i, (params, mu, phi) in enumerate(points):
            p = click_probability(expected_rate(mu, phi, params), params.detector)
            summary = simulate_point(mu, phi, params, gates, seed=derive_seed(123, i))
            sigma = math.sqrt(p * (1 - p) / gates)
            assert abs(summary.p_click - p) < 5 * sigma

    def test_seed_population(self, chain):
        # the 5-sigma envelope holds for >= 99% of seeds at a fringe point
        gates = 1_000_000
        p = click_probability(expected_rate(0.7, 1.0, chain), chain.detector)
        sigma = math.sqrt(p * (1 - p) / gates)
        ok = sum(
            abs(simulate_point(0.7, 1.0, chain, gates, seed=s).p_click - p) < 5 * sigma
            for s in range(100)
        )
        assert ok >= 99


def _reference_cosine_fit(phis, values, sigmas) -> tuple[float, float, float, float, float]:
    """One fringe's least-squares cosine fit, its design formed anew:
    (c0, c1, c0_sigma, c1_sigma, c0c1_cov)."""
    phis = np.asarray(phis, dtype=float)
    y = np.asarray(values, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    x = np.column_stack([np.ones_like(phis), np.cos(phis)])
    xtx_inv = np.linalg.inv(x.T @ x)
    coef = xtx_inv @ (x.T @ y)
    cov = xtx_inv @ ((x * (sig**2)[:, None]).T @ x) @ xtx_inv
    return (float(coef[0]), float(coef[1]), float(math.sqrt(max(cov[0, 0], 0.0))),
            float(math.sqrt(max(cov[1, 1], 0.0))), float(cov[0, 1]))


class TestFitHelpers:
    @pytest.mark.parametrize("n_values, n_sigmas", [(2, 3), (3, 2), (1, 2), (2, 1)])
    def test_cosine_fit_rejects_mismatched_rows(self, n_values, n_sigmas):
        phis = _phases(8)
        with pytest.raises(ValueError):
            fit_cosine(phis, np.full((n_values, 8), 1e-4), np.full((n_sigmas, 8), 1e-7))

    def test_cosine_fit_recovers_exact_coefficients(self):
        phis = _phases(16)
        c0, c1 = 3.5e-5, 1.2e-5
        y = c0 + c1 * np.cos(phis)
        fit, = fit_cosine(phis, [y], [np.full_like(y, 1e-7)])
        assert fit[0] == pytest.approx(c0, rel=1e-12)
        assert fit[1] == pytest.approx(c1, rel=1e-12)
        assert _visibilities(fit, 0.0)[0] == pytest.approx(c1 / c0, rel=1e-12)

    def test_cosine_fit_uncertainty_scale(self):
        # white noise of known sigma: parameter sigmas follow the design matrix
        phis = _phases(16)
        sigma = 1e-6
        (_, _, c0_sigma, c1_sigma, _), = fit_cosine(phis, [np.full(16, 1e-4)],
                                                     [np.full(16, sigma)])
        assert c0_sigma == pytest.approx(sigma / 4.0, rel=1e-9)          # sigma/sqrt(n)
        assert c1_sigma == pytest.approx(sigma * math.sqrt(2.0) / 4.0, rel=1e-9)

    def test_dark_subtracted_visibility(self):
        phis = _phases(16)
        c0, c1, dark = 5e-5, 2e-5, 2.6e-5
        fit, = fit_cosine(phis, [c0 + c1 * np.cos(phis)], [np.full(16, 1e-7)])
        _, v_sigma, v_sub, v_sub_sigma = _visibilities(fit, dark)
        assert v_sub == pytest.approx(c1 / (c0 - dark), rel=1e-12)
        assert v_sub_sigma > v_sigma

    @pytest.mark.parametrize("c0", [2.6e-5, 2.0e-5, 2.605e-5])
    def test_dark_subtracted_visibility_undefined_at_or_below_dark(self, c0):
        # a dark-subtracted offset within one c0_sigma of zero (or below it)
        # leaves the ratio undefined: NaN, not a raise
        _, _, v_sub, v_sub_sigma = _visibilities((c0, 1e-6, 1e-7, 1e-7, 0.0), 2.6e-5)
        assert math.isnan(v_sub)
        assert math.isnan(v_sub_sigma)

    def test_dark_subtracted_offset_equal_to_its_sigma(self):
        # binary-exact values put c0 - dark exactly on c0_sigma: an offset that
        # does not exceed its sigma is unresolved, and one ulp less sigma
        # resolves it
        _, _, v_sub, v_sub_sigma = _visibilities((0.5, 0.1, 0.25, 0.01, 0.0), 0.25)
        assert math.isnan(v_sub)
        assert math.isnan(v_sub_sigma)
        below = (0.5, 0.1, math.nextafter(0.25, 0.0), 0.01, 0.0)
        _, _, v_sub, v_sub_sigma = _visibilities(below, 0.25)
        assert math.isfinite(v_sub)
        assert math.isfinite(v_sub_sigma)

    @pytest.mark.parametrize("c0", [0.0, -1e-6])
    def test_visibility_undefined_at_or_below_zero_offset(self, c0):
        v, v_sigma, _, _ = _visibilities((c0, 1e-6, 1e-7, 1e-7, 0.0), 2.6e-5)
        assert math.isnan(v)
        assert math.isnan(v_sigma)

    @settings(max_examples=60, deadline=None)
    @given(
        n_phi=st.integers(4, 33),
        n_fringes=st.integers(0, 6),
        default_grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(16, 32, True, 0)  # one dense_map row
    @example(7, 5, False, 1)  # rows at odd 8-byte offsets
    @example(64, 11, True, 0)
    @example(1024, 3, True, 0)  # the largest n_phi a config allows
    def test_cosine_fits_share_one_design(self, n_phi, n_fringes, default_grid, seed):
        # fringes fitted as rows of one call have the bits of a fresh
        # one-fringe fit, and of the fit written out in full
        rng = np.random.default_rng(seed)
        phis = _phases(n_phi) if default_grid else rng.uniform(-10.0, 10.0, n_phi)
        shape = (n_fringes, n_phi)
        values = np.reshape(rng.uniform(0.0, 1e-2, shape).tolist(), shape)
        sigmas = np.reshape((10.0 ** rng.uniform(-12.0, -3.0, shape)).tolist(), shape)
        shared = fit_cosine(phis, values, sigmas)
        alone = [fit_cosine(phis.tolist(), [y.tolist()], [sig.tolist()])[0]
                 for y, sig in zip(values, sigmas)]
        reference = [_reference_cosine_fit(phis, y.tolist(), sig.tolist())
                     for y, sig in zip(values, sigmas)]
        assert repr(shared) == repr(alone) == repr(reference)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 2**40), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @example(1, [0.0, 1.0])
    @example(1000, [0.0, 0.001, 0.999, 1.0])  # 0, 1, n-1 and n clicks: the floor
    def test_draw_and_sigma_are_the_summaries(self, gates, fractions):
        clicks = [round(f * gates) for f in fractions]
        n = len(clicks)
        rows = []
        plan = ([0.5] * n, lambda seed: np.zeros(n, dtype=np.uint64), n,
                lambda p, sigma: rows.append((p, sigma)) or ({"clicks": clicks}, {}), slice(None))
        # the counts stand in for sample_scan's, so the arrays are checked at
        # 0, 1, n-1 and n clicks without drawing 2**40 gates
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("qfdc.experiment.sample_scan", lambda p, gates, seeds: clicks)
            scan = _scan(plan, gates, 0)
        (p, sigma), = rows
        summaries = [CountSummary(gates, c) for c in clicks]
        assert scan.raw == summaries
        assert [v.hex() for v in p[0].tolist()] == [s.p_click.hex() for s in summaries]
        assert [v.hex() for v in sigma[0].tolist()] == [s.sigma_p.hex() for s in summaries]
        assert p.shape == sigma.shape == (1, n)

    def test_cosine_fit_of_one_fringe_is_one_fit(self):
        phis = _phases(8)
        y = 1e-4 + 3e-5 * np.cos(phis)
        fits = fit_cosine(phis, [y], [np.full(8, 1e-7)])
        assert fits == [_reference_cosine_fit(phis, y, np.full(8, 1e-7))]
        assert all(type(v) is float for v in fits[0])

    def test_through_origin_fit_without_nonzero_abscissa(self):
        slope, slope_sigma = fit_through_origin(np.zeros(3), np.ones(3), np.ones(3))
        assert math.isnan(slope) and math.isnan(slope_sigma)

    def test_through_origin_fit(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        slope = 3.25e-5
        fitted, _ = fit_through_origin(x, slope * x, np.full_like(x, 1e-8))
        assert fitted == pytest.approx(slope, rel=1e-12)

    def test_through_origin_fit_scales_exactly(self):
        # the abscissae are scaled by powers of two, so scaling them by one
        # scales the slope and its sigma by exactly its inverse
        x = np.array([0.3, 1.7, 5.0])
        y = np.array([1.1, 4.9, 16.0])
        sigmas = np.array([0.2, 0.3, 0.5])
        slope, sigma = fit_through_origin(x, y, sigmas)
        for k in (-1000, -300, 1, 300, 1000):
            scaled = fit_through_origin(np.ldexp(x, k), y, sigmas)
            assert scaled == (math.ldexp(slope, -k), math.ldexp(sigma, -k))

    def test_through_origin_weighting(self):
        # an outlier with a huge sigma should barely move the slope
        x = np.array([1.0, 2.0, 4.0])
        y = np.array([1.0, 2.0, 400.0])
        slope, _ = fit_through_origin(x, y, np.array([1e-6, 1e-6, 1e6]))
        assert slope == pytest.approx(1.0, rel=1e-6)


class TestScenarioDrivers:
    def test_fig4a_smoke(self, bare_chain):
        scan = run_fig4a(
            bare_chain, [0.0, 0.0135, 0.027], mu=125.0, gates_per_point=2_000_000, seed=5
        )
        assert scan.abscissa == [0.0, 13.5, 27.0]
        eff = scan.columns["efficiency"]
        # efficiency rises with power and hits ~0.35% at the operating point
        assert eff[0] == pytest.approx(0.0, abs=5 * scan.columns["eff_sigma"][0])
        assert eff[2] == pytest.approx(0.0035, rel=0.05)
        noise = scan.columns["noise_per_gate"]
        assert noise[2] > noise[1] > noise[0] - 3 * scan.columns["noise_sigma"][0]
        assert scan.fit["noise_slope_per_w"] == pytest.approx(
            bare_chain.converter.noise_coeff_beta, rel=0.2
        )

    def test_fig4a_saturated_signal_run(self, bare_chain):
        # every signal gate clicks, the background runs do not: only the
        # efficiency needs the signal run, so only it is NaN
        scan = run_fig4a(bare_chain, [0.0135, 0.027], mu=1e7, gates_per_point=1000, seed=3)
        for name in ("efficiency", "eff_sigma"):
            assert all(math.isnan(v) for v in scan.columns[name])
        for name in ("noise_per_gate", "noise_sigma"):
            assert all(math.isfinite(v) for v in scan.columns[name])
        assert math.isfinite(scan.fit["noise_slope_per_w"])

    def test_fig4a_rejects_interferometer(self, chain):
        with pytest.raises(ValueError):
            run_fig4a(chain, [0.027])

    def test_fig4a_rejects_zero_mu(self, bare_chain):
        # mu = 0 also leaves no signal to invert; the error names mu
        with pytest.raises(ValueError, match="mu must be > 0"):
            run_fig4a(bare_chain, [0.027], mu=0.0)

    def test_fig4a_rejects_an_empty_grid(self, bare_chain):
        with pytest.raises(ValueError, match="power grid is empty"):
            run_fig4a(bare_chain, [], gates_per_point=1000)

    def test_fig4a_fits_no_slope_without_a_positive_power(self, bare_chain):
        assert run_fig4a(bare_chain, [0.0], gates_per_point=1000).fit == {}

    def test_fig4a_fits_the_noise_slope_on_positive_powers_only(self, bare_chain, monkeypatch):
        # a zero power adds nothing to a fit through the origin, but its sigma
        # would set the fit's weight scale
        fitted = []
        monkeypatch.setattr("qfdc.experiment.fit_through_origin",
                            lambda x, y, sigmas: fitted.append(x) or (1.0, 0.5))
        scan = run_fig4a(bare_chain, [0.0, 0.0135, 0.027], gates_per_point=1000)
        assert fitted == [[0.0135, 0.027]]
        assert scan.fit == {"noise_slope_per_w": 1.0, "noise_slope_sigma": 0.5}

    def test_fig6_detects_only_above_three_sigma(self, chain, monkeypatch):
        # run_fig6 fits through the module's fit_cosine, which the bench
        # tracer wraps; a visibility of exactly three sigmas is not detected
        at = (1.0, 0.75, 0.0, 0.25, 0.0)
        above = (1.0, 0.75, 0.0, 0.2499, 0.0)
        v, v_sigma, _, _ = _visibilities(at, 0.0)
        assert v == 3.0 * v_sigma
        monkeypatch.setattr("qfdc.experiment.fit_cosine", lambda phis, p, sigma: [at, above])
        scan = run_fig6(chain, [0.7, 45.0], 4, 1000)
        assert scan.columns["detectable"] == [0.0, 1.0]
        assert scan.fit["smallest_detectable_mu"] == 45.0

    def test_scan_result_admits_zero_sigma_only(self):
        assert ScanResult({"x": [1.0], "x_sigma": [0.0]}).columns["x_sigma"] == [0.0]
        with pytest.raises(ValueError, match="negative sigmas"):
            ScanResult({"x": [1.0], "x_sigma": [-1e-300]})

    def test_scan_result_rejects_a_column_of_another_length(self):
        with pytest.raises(ValueError, match="column 'y' has 1 entries for 2 points"):
            ScanResult({"x": [1.0, 2.0], "y": [1.0]})

    def test_fig4b_rejects_interferometer(self, chain):
        with pytest.raises(ValueError, match="count-rate sweep runs without the interferometer"):
            run_fig4b(chain, [0.7], gates_per_point=1000)

    def test_fig4b_smoke(self, bare_chain):
        scan = run_fig4b(bare_chain, [0.3, 1.0, 10.0], gates_per_point=10_000_000, seed=6)
        cols = scan.columns
        assert len(scan.abscissa) == 3
        for p_sub, sigma, line in zip(
            cols["p_subtracted"], cols["p_subtracted_sigma"], cols["fit_line"]
        ):
            assert abs(p_sub - line) < 4 * sigma
        assert scan.fit["floor_mean"] == pytest.approx(7.17e-5, rel=0.1)

    def test_fig4b_rejects_an_empty_grid(self, bare_chain):
        # an empty grid has no floor to average, where numpy would warn and give NaN
        with pytest.raises(ValueError, match="mu grid is empty"):
            run_fig4b(bare_chain, [], gates_per_point=1000)

    def test_fig4b_slope_matches_chain_efficiency(self, bare_chain):
        # in the linear detector response regime (signal clicks/gate << 1)
        # the subtracted slope is the chain's photon-number efficiency
        scan = run_fig4b(
            bare_chain, [0.1, 0.3, 1.0, 3.0, 10.0], gates_per_point=100_000_000, seed=8
        )
        eta_chain = (
            bare_chain.detector.efficiency
            * conversion_efficiency(bare_chain.converter)
            * bare_chain.post_converter_transmission
        )
        assert abs(scan.fit["slope"] - eta_chain) < 3 * scan.fit["slope_sigma"]

    def test_fig5_determinism(self, chain):
        a = run_fig5(chain, 0.7, gates_per_point=1_000_000, seed=9)
        b = run_fig5(chain, 0.7, gates_per_point=1_000_000, seed=9)
        assert a.fit == b.fit
        assert [s.clicks for s in a.raw] == [s.clicks for s in b.raw]

    def test_fig5_rejects_short_grid(self, chain):
        with pytest.raises(ValueError, match="at least 4 phase points, got 3"):
            run_fig5(chain, 0.7, n_phi=3, gates_per_point=1000, seed=1)

    def test_fig5_offset_below_dark(self, chain):
        # no pump and no signal: the fitted offset is the dark floor plus noise,
        # and at this seed it lands below the dark count probability
        scan = run_fig5(chain.at_pump_power(0.0), 0.0, gates_per_point=1_000_000, seed=2)
        assert scan.fit["c0"] < chain.detector.dark_prob_per_gate
        assert math.isnan(scan.fit["visibility_sub"])
        assert math.isnan(scan.fit["visibility_sub_sigma"])
        assert math.isfinite(scan.fit["visibility"])

    def test_fig5_offset_a_rounding_step_above_dark(self, chain):
        # at this seed the fitted offset lands one rounding step above the
        # dark count probability; the subtracted ratio is not resolved
        scan = run_fig5(chain.at_pump_power(0.0), 0.0, gates_per_point=1_000_000, seed=0)
        assert 0.0 < scan.fit["c0"] - chain.detector.dark_prob_per_gate < scan.fit["c0_sigma"]
        assert math.isnan(scan.fit["visibility_sub"])
        assert math.isnan(scan.fit["visibility_sub_sigma"])

    def test_fig5_rejects_zero_workers(self, chain):
        with pytest.raises(ValueError):
            run_fig5(chain, 0.7, gates_per_point=1000, seed=1, workers=0)

    def test_fig5_control_is_flat(self, chain):
        scan = run_fig5(chain.without_interferometer(), 143.0, gates_per_point=4_000_000,
                        seed=10)
        assert scan.fit["control"] == 1.0
        assert abs(scan.fit["c1"]) < 4 * scan.fit["c1_sigma"]

    def test_fig6_smoke(self, chain):
        scan = run_fig6(chain, [0.09, 0.7, 3.0], n_phi=8, gates_per_point=4_000_000, seed=12)
        for v_mc, v_an, sig in zip(
            scan.columns["v_raw"], scan.columns["v_analytic"], scan.columns["v_raw_sigma"]
        ):
            assert abs(v_mc - v_an) < 5 * sig
        assert scan.fit["smallest_detectable_mu"] <= 0.7

    def test_fig6_requires_interferometer(self, bare_chain):
        with pytest.raises(ValueError):
            run_fig6(bare_chain, [0.7])

    def test_fig6_rejects_an_empty_grid(self, chain):
        with pytest.raises(ValueError, match="mu grid is empty"):
            run_fig6(chain, [], gates_per_point=1000)

    @pytest.mark.parametrize("beta", [None, 1e-200], ids=["calibrated", "faint-noise"])
    def test_huge_abscissae_fit_without_overflow(self, bare_chain, beta):
        # w*x*x overflowed once an abscissa passed about 1e154, which read as
        # a slope of 0 with a sigma of exactly 0; at the calibrated beta every
        # fig4a background gate clicks at 1e200 W, at beta 1e-200 none does
        chain = bare_chain if beta is None else bare_chain.replace(
            converter=bare_chain.converter.replace(noise_coeff_beta=beta))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fig4b = run_fig4b(chain, [0.01, 1e300], gates_per_point=1000, seed=3).fit
            fig4a = run_fig4a(chain, [0.0, 1e200], gates_per_point=1000, seed=3).fit
        assert fig4b["slope_sigma"] != 0.0 and fig4a["noise_slope_sigma"] != 0.0
        assert math.isfinite(fig4b["slope"]) and math.isfinite(fig4b["slope_sigma"])
        assert math.isfinite(fig4a["noise_slope_sigma"]) == (beta is not None)


class TestEstimatorsOnTheClosedForm:
    """Each driver's plan run on its own expected click probabilities with
    the sigmas of the configured gate counts (the "Asimov data set"): no seed
    and no draw, at the scenarios of the repo's config."""

    config = load_config(Path(__file__).resolve().parents[1] / "configs/default.json")
    scenarios = config.scenarios

    def test_fig4a(self, bare_chain):
        cfg = self.scenarios["fig4a"]
        powers = [p * 1e-3 for p in cfg.power_mw]
        columns, fit = _expected(_plan_fig4a(bare_chain, powers, cfg.mu), cfg.gates_per_point)
        beta = bare_chain.converter.noise_coeff_beta
        for power, efficiency, noise in zip(powers, columns["efficiency"],
                                            columns["noise_per_gate"], strict=True):
            # the noise is linear in power, and the efficiency is the converter's
            assert noise == pytest.approx(beta * power, rel=1e-9, abs=0.0)
            if power > 0.0:
                expected = conversion_efficiency(bare_chain.at_pump_power(power).converter)
                assert efficiency == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert fit["noise_slope_per_w"] == pytest.approx(beta, rel=1e-11, abs=0.0)

    def test_fig4b(self, bare_chain):
        cfg = self.scenarios["fig4b"]
        columns, fit = _expected(_plan_fig4b(bare_chain, cfg.mu), cfg.gates_per_point)
        floor, *signal = [click_probability(expected_rate(mu, None, bare_chain),
                                            bare_chain.detector) for mu in (0.0, *cfg.mu)]
        assert fit["floor_mean"] == pytest.approx(floor, rel=1e-12)
        assert fit["floor_mean"] == pytest.approx(7.1677e-5, rel=1e-4)
        assert columns["p_raw"] == signal

    def test_fig5(self, chain):
        cfg = self.scenarios["fig5"]
        _, fit = _expected(_plan_fig5(chain, cfg.mu, cfg.n_phi), cfg.gates_per_point)
        assert round(fit["visibility"], 6) == 0.378988
        assert round(fit["visibility_sub"], 6) == 0.720992

    def test_fig6(self, chain):
        # the expected table: v_expected, v_expected - v_analytic and v/sigma
        table = {0.01: (0.008942, -2.40e-7, 0.92), 0.03: (0.026329, -7.08e-7, 2.74),
                 0.09: (0.074826, -2.04e-6, 8.01), 0.7: (0.378988, -1.198e-5, 52.1),
                 15.0: (0.884874, -1.360e-4, 455.0), 45.0: (0.924945, -3.820e-4, 831.0)}
        cfg = self.scenarios["fig6"]
        assert (cfg.n_phi, cfg.gates_per_point) == (16, 40_000_000)
        columns, fit = _expected(_plan_fig6(chain, cfg.mu, cfg.n_phi), cfg.gates_per_point)
        for mu, (v, gap, v_over_sigma) in table.items():
            j = cfg.mu.index(mu)
            v_raw, v_sigma = columns["v_raw"][j], columns["v_raw_sigma"][j]
            assert round(v_raw, 6) == v
            assert v_raw - columns["v_analytic"][j] == pytest.approx(gap, rel=5e-3)
            assert v_raw / v_sigma == pytest.approx(v_over_sigma, rel=5e-3)
        assert fit["smallest_detectable_mu"] == 0.09

    def test_fig5_and_fig6_read_one_visibility(self, chain):
        # fig5's fringe at its mu is fig6's row at that mu: both estimators
        # read the same four visibilities from the same fit
        cfg = self.scenarios["fig5"]
        _, fit = _expected(_plan_fig5(chain, cfg.mu, cfg.n_phi), cfg.gates_per_point)
        columns, _ = _expected(_plan_fig6(chain, [cfg.mu], cfg.n_phi), cfg.gates_per_point)
        fig5 = [fit[name] for name in ("visibility", "visibility_sigma", "visibility_sub",
                                       "visibility_sub_sigma")]
        fig6 = [columns[name][0] for name in ("v_raw", "v_raw_sigma", "v_sub", "v_sub_sigma")]
        assert all(math.isfinite(v) for v in fig5)
        assert [v.hex() for v in fig5] == [v.hex() for v in fig6]

    def test_work_counts(self, monkeypatch):
        # a default reproduction's points, and its draws of up to BLOCK_GATES
        # gates each, read from the plans the scenarios hand to _scan before
        # any draw: added per-point work moves them
        work = []
        monkeypatch.setattr("qfdc.experiment._scan", lambda plan, gates, seed: work.append(
            (len(plan[0]), len(plan[0]) * -(-gates // BLOCK_GATES))))
        for scenario, control in [("fig4a", False), ("fig4b", False), ("fig5", False),
                                  ("fig5", True), ("fig6", False)]:
            run_scenario(scenario, self.config, 0, control)
        assert work == [(20, 780), (16, 1_536), (16, 624), (16, 624), (176, 6_864)]
        assert sum(draws for _, draws in work) == 10_428


def _space_chain(values: dict) -> tuple[ChainParams, float, float, float]:
    """A :data:`CHAINS` example's chain, its pump power and its two mus."""
    detector = DetectorSpec(**{k: values.pop(k) for k in DETECTOR_KEYS})
    power, mu_low, mu = (values.pop(k) for k in CONDITION_KEYS)
    chain = calibrated_chain(CalibrationResult(**values), CalibrationTargets(pump_power_w=power),
                             CalibrationContext(detector=detector))
    return chain, power, mu_low, mu


class TestEstimatorsOverTheSpace:
    """The plans run on the closed form of random chains, with the sigmas of
    4e7 gates per point."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(CHAINS)
    def test_fig4a_and_fig4b_recover_the_chain(self, values):
        # up to rounding, which is far below the estimates' own sigma
        chain, power, mu_low, mu = _space_chain(values)
        bare = chain.without_interferometer()
        powers = [0.0, 0.5 * power, power]
        columns, fit = _expected(_plan_fig4a(bare, powers, mu), 40_000_000)
        for pw, efficiency, sigma in zip(powers[1:], columns["efficiency"][1:],
                                         columns["eff_sigma"][1:], strict=True):
            if math.isfinite(efficiency):  # NaN where the signal run saturates
                expected = conversion_efficiency(bare.at_pump_power(pw).converter)
                assert abs(efficiency - expected) <= 1e-6 * sigma
        slope, slope_sigma = fit["noise_slope_per_w"], fit["noise_slope_sigma"]
        if math.isfinite(slope):
            assert abs(slope - values["noise_coeff_beta"]) <= 1e-6 * slope_sigma
        _, fit = _expected(_plan_fig4b(bare, [mu_low, mu]), 40_000_000)
        # the mean of two equal floats is exact
        assert fit["floor_mean"] == click_probability(expected_rate(0.0, None, bare), bare.detector)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(CHAINS, st.sampled_from([4, 8, 16, 64]))
    def test_fig6_saturation_stays_under_the_paper_curve(self, values, n_phi):
        # the click model saturates where the paper's curve is linear, so the
        # expected raw visibility falls short of it, by at most v_analytic
        # times max over phi of p/(1-p); max_phi p alone is too tight where
        # dark counts dominate
        chain, _, mu_low, mu = _space_chain(values)
        plan = _plan_fig6(chain, [mu_low, mu], n_phi)
        columns, _ = _expected(plan, 40_000_000)
        for row, v_raw, v_analytic in zip(np.reshape(plan[0], (-1, n_phi)), columns["v_raw"],
                                          columns["v_analytic"], strict=True):
            p = max(row)
            bound = math.inf if p == 1.0 else v_analytic * p / (1.0 - p)
            assert 0.0 <= v_analytic - v_raw <= bound


#: masters at SeedSequence's word boundaries, and one wider than 64 bits
_SEEDS = [0, 2**32, 2**64 - 1, 2**130]


class TestScansMatchPointByPoint:
    """Each scenario samples its scan at once; every record equals the one
    simulate_point gives for that point and its derive_seed seed alone."""

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_fig4a(self, bare_chain, seed):
        powers, gates, mu = [0.0, 0.0135, 0.027], 1_500_000, 125.0
        scan = run_fig4a(bare_chain, powers, mu, gates, seed)
        runs = [simulate_point(run_mu, None, bare_chain.at_pump_power(power), gates,
                               derive_seed(seed, i, run))
                for i, power in enumerate(powers) for run, run_mu in enumerate((mu, 0.0))]
        assert scan.raw == runs[0::2]
        # the estimates are the plan's estimator on those runs
        columns, fit = _estimate(_plan_fig4a(bare_chain, powers, mu),
                                 np.array([s.p_click for s in runs]), gates)
        assert (repr(scan.columns), repr(scan.fit)) == (repr(columns), repr(fit))

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_fig4b(self, bare_chain, seed):
        mus, gates = [0.0, 0.3, 10.0], 1_500_000
        scan = run_fig4b(bare_chain, mus, gates, seed)
        for i, mu in enumerate(mus):
            sig = simulate_point(mu, None, bare_chain, gates, derive_seed(seed, i, 0))
            bg = simulate_point(0.0, None, bare_chain, gates, derive_seed(seed, i, 1))
            assert scan.raw[i] == sig
            assert (scan.columns["p_subtracted"][i],
                    scan.columns["p_subtracted_sigma"][i]) == dark_subtract(sig, bg)

    @pytest.mark.parametrize("seed", _SEEDS)
    @pytest.mark.parametrize("control", [False, True])
    def test_fig5(self, chain, seed, control):
        phis, gates = _phases(8), 2_500_000
        params = chain.without_interferometer() if control else chain
        scan = run_fig5(params, 0.7, 8, gates, seed)
        raw = [
            simulate_point(0.7, None if control else float(phi), params, gates,
                           derive_seed(seed, i))
            for i, phi in enumerate(phis)
        ]
        assert scan.raw == raw
        rate_hz = chain.detector.gate_rate_hz
        assert scan.columns["rate_per_s"] == [s.p_click * rate_hz for s in raw]
        assert scan.columns["rate_sigma"] == [s.sigma_p * rate_hz for s in raw]
        fit, = fit_cosine(phis, [[s.p_click for s in raw]], [[s.sigma_p for s in raw]])
        assert (scan.fit["c0"], scan.fit["c1"], scan.fit["visibility"]) == (
            fit[0], fit[1], _visibilities(fit, chain.detector.dark_prob_per_gate)[0]
        )

    @pytest.mark.parametrize("driver", [run_fig4a, run_fig4b])
    def test_fig4_records_only_the_signal_runs(self, bare_chain, driver, monkeypatch):
        # the estimates come from the click arrays; the signal-off runs get
        # no record, so raw's records are the only ones built
        built = []

        class Counting(CountSummary):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr("qfdc.experiment.CountSummary", Counting)
        grid = [0.0, 0.0135, 0.027] if driver is run_fig4a else [0.0, 0.3, 10.0]
        scan = driver(bare_chain, grid, gates_per_point=100_000)
        assert len(built) == len(grid)
        assert scan.raw == built

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_fig6(self, chain, seed, monkeypatch):
        mus, n_phi, gates = [0.0, 0.7, 45.0], 5, 1_200_000
        # the scan is fitted from its click counts, without a record per point
        with monkeypatch.context() as patch:
            patch.setattr("qfdc.experiment.CountSummary", None)
            scan = run_fig6(chain, mus, n_phi, gates, seed)
        phis = _phases(n_phi)
        dark = chain.detector.dark_prob_per_gate
        for j, mu in enumerate(mus):
            raw = [simulate_point(mu, float(phi), chain, gates,
                                  derive_seed(derive_seed(seed, j), i))
                   for i, phi in enumerate(phis)]
            fit, = fit_cosine(phis, [[s.p_click for s in raw]], [[s.sigma_p for s in raw]])
            names = ("v_raw", "v_raw_sigma", "v_sub", "v_sub_sigma")
            row = tuple(scan.columns[name][j] for name in names)
            assert repr(row) == repr(_visibilities(fit, dark))


#: 2**20 + 5 gates: two blocks per point, the second of 5 gates
_TWO_BLOCKS = 2**20 + 5


class TestFrozenScans:
    """Click counts, and values that rest on them, at fixed seeds, frozen
    from the point-by-point drivers; any change to a draw, a seed, the
    closed form or a fit moves them."""

    @pytest.mark.parametrize("seed, signal, noise", [
        (7, [25, 8284], ["0x1.492b8fbf4140ep-15", "0x1.c3db46b792f8cp-9"]),
        (2**64 - 1, [31, 8221], ["-0x1.d61df53a06410p-17", "0x1.85092d4c5d768p-9"]),
    ])
    def test_fig4a(self, bare_chain, seed, signal, noise):
        scan = run_fig4a(bare_chain, [0.0, 0.027], 125.0, _TWO_BLOCKS, seed)
        assert [s.clicks for s in scan.raw] == signal
        assert [v.hex() for v in scan.columns["noise_per_gate"]] == noise

    @pytest.mark.parametrize("seed, signal, subtracted", [
        (7, [76, 144, 8155],
         ["-0x1.7fff880025800p-19", "0x1.9fff7e00289fep-15", "0x1.f8ff62303150fp-8"]),
        (2**64 - 1, [67, 155, 8219],
         ["-0x1.dfff6a002ee00p-17", "0x1.1fffa6001c1ffp-14", "0x1.fc9f610e31ab9p-8"]),
    ])
    def test_fig4b(self, bare_chain, seed, signal, subtracted):
        scan = run_fig4b(bare_chain, [0.0, 1.0, 125.0], _TWO_BLOCKS, seed)
        assert [s.clicks for s in scan.raw] == signal
        assert [v.hex() for v in scan.columns["p_subtracted"]] == subtracted

    @pytest.mark.parametrize("seed, control, clicks", [
        (7, False, [85, 46, 40, 47]),
        (7, True, [128, 99, 117, 105]),
        (2**64 - 1, False, [88, 52, 34, 58]),
        (2**64 - 1, True, [132, 114, 113, 120]),
    ])
    def test_fig5(self, chain, seed, control, clicks):
        scan = run_fig5(chain.without_interferometer() if control else chain, 0.7, 4,
                        _TWO_BLOCKS, seed)
        assert [s.clicks for s in scan.raw] == clicks

    @pytest.mark.parametrize("seed, v_raw, v_raw_sigma", [
        (7, ["0x1.3dcb08d3dcb09p-2", "0x1.e0d2adb993590p-1"],
         ["0x1.7cf8818a59811p-4", "0x1.c26cf9fc889f2p-7"]),
        (2**64 - 1, ["0x1.c628b3f3257d7p-2", "0x1.d00a0b4cb64d1p-1"],
         ["0x1.7322060b989fdp-4", "0x1.c0813c971d7cap-7"]),
    ])
    def test_fig6(self, chain, seed, v_raw, v_raw_sigma):
        scan = run_fig6(chain, [0.7, 45.0], 4, _TWO_BLOCKS, seed)
        assert [v.hex() for v in scan.columns["v_raw"]] == v_raw
        assert [v.hex() for v in scan.columns["v_raw_sigma"]] == v_raw_sigma


class TestChainParams:
    def test_validation(self, chain):
        with pytest.raises(ValueError):
            chain.replace(post_converter_transmission=1.5)
        with pytest.raises(ValueError):
            chain.replace(intrinsic_visibility_v0=-0.1)

    @pytest.mark.parametrize("name", ["post_converter_transmission", "intrinsic_visibility_v0"])
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_bounds_are_closed(self, chain, name, value):
        assert getattr(chain.replace(**{name: value}), name) == value

    def test_without_interferometer(self, chain):
        bare = chain.without_interferometer()
        assert bare.interferometer is None
        assert bare.converter == chain.converter

    def test_at_pump_power(self, chain):
        moved = chain.at_pump_power(0.01)
        assert moved.converter.pump_power_w == 0.01
        assert chain.converter.pump_power_w == 0.027

import math

import numpy as np
import pytest

from qfdc.detector import click_probability, dark_subtract, derive_seed
from qfdc.experiment import (
    ChainParams,
    CosineFit,
    analytic_visibility,
    chain_point_mean,
    default_phi_grid,
    expected_rate,
    fit_cosine,
    fit_through_origin,
    run_fig4a,
    run_fig4b,
    run_fig5,
    run_fig6,
    simulate_point,
)


class TestExpectedRate:
    def test_bare_floor(self, bare_chain):
        # frozen from the calibrated parameters: the bare-chain noise floor
        rate = expected_rate(0.0, None, bare_chain)
        assert rate.click_probability == pytest.approx(7.167733268298448e-05, rel=1e-9)
        assert rate.signal_photons == 0.0

    def test_interferometer_floor(self, chain):
        rate = expected_rate(0.0, None, chain)
        assert rate.click_probability == pytest.approx(3.287350251512944e-05, rel=1e-9)

    def test_rejects_phi_without_interferometer(self, bare_chain):
        with pytest.raises(ValueError):
            expected_rate(0.7, 0.0, bare_chain)

    def test_signal_linear_in_mu(self, chain):
        base = expected_rate(1.0, 0.3, chain).signal_photons
        for mu in (0.01, 0.7, 125.0):
            assert expected_rate(mu, 0.3, chain).signal_photons == pytest.approx(
                mu * base, rel=1e-12
            )

    def test_phi_average_is_half_of_peak(self, chain):
        peak = expected_rate(1.0, 0.0, chain).signal_photons
        averaged = expected_rate(1.0, None, chain).signal_photons
        v0 = chain.intrinsic_visibility_v0
        assert averaged == pytest.approx(peak / (1.0 + v0), rel=1e-12)


class TestAnalyticVisibility:
    def test_background_free_chain_reaches_v0(self, chain):
        import dataclasses

        clean = dataclasses.replace(
            chain,
            converter=dataclasses.replace(chain.converter, noise_coeff_beta=0.0),
            detector=dataclasses.replace(chain.detector, dark_prob_per_gate=0.0),
        )
        for mu in (1e-4, 0.7, 143.0):
            pair = analytic_visibility(mu, clean)
            assert pair.raw == pytest.approx(clean.intrinsic_visibility_v0, rel=1e-12)

    def test_calibrated_fringe_points(self, chain):
        pair = analytic_visibility(0.7, chain)
        assert pair.raw == pytest.approx(0.379, abs=1e-9)
        assert pair.subtracted == pytest.approx(0.721, abs=1e-9)
        assert analytic_visibility(143.0, chain).raw == pytest.approx(0.94, abs=1e-9)

    def test_limits(self, chain):
        assert analytic_visibility(0.0, chain).raw == 0.0
        assert analytic_visibility(1e9, chain).raw == pytest.approx(
            chain.intrinsic_visibility_v0, rel=1e-4
        )

    def test_monotone_in_mu(self, chain):
        mus = np.logspace(-3, 3, 40)
        values = [analytic_visibility(float(m), chain).raw for m in mus]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_subtracted_exceeds_raw(self, chain):
        for mu in np.logspace(-2, 2, 20):
            pair = analytic_visibility(float(mu), chain)
            assert pair.subtracted > pair.raw

    def test_requires_interferometer(self, bare_chain):
        with pytest.raises(ValueError):
            analytic_visibility(0.7, bare_chain)


class TestChainPointMean:
    def test_matches_analytic_without_interferometer(self, bare_chain):
        for mu in (0.0, 0.01, 1.0, 125.0):
            train_mean = chain_point_mean(mu, None, bare_chain)
            rate = expected_rate(mu, None, bare_chain)
            assert train_mean == pytest.approx(rate.mean_photons, rel=1e-12)

    def test_matches_analytic_with_interferometer(self, chain):
        # finite-train edge slot keeps the two within ~1/n_slots
        for mu, phi in [(0.7, 0.0), (0.7, 2.0), (143.0, math.pi / 2), (0.09, 1.0)]:
            train_mean = chain_point_mean(mu, phi, chain, n_slots=4096)
            rate = expected_rate(mu, phi, chain)
            assert train_mean == pytest.approx(rate.mean_photons, rel=5e-4)

    def test_photon_mean_exactly_linear_in_mu(self, chain):
        base = chain_point_mean(1.0, 1.1, chain) - chain_point_mean(0.0, 1.1, chain)
        for mu in (0.01, 0.7, 10.0):
            signal = chain_point_mean(mu, 1.1, chain) - chain_point_mean(0.0, 1.1, chain)
            assert signal == pytest.approx(mu * base, rel=1e-9)

    def test_phase_bias_enters_fringe(self, chain):
        import dataclasses

        biased = dataclasses.replace(
            chain,
            interferometer=dataclasses.replace(chain.interferometer, phase_bias_theta=0.7),
        )
        train_mean = chain_point_mean(0.7, 0.9, biased, n_slots=4096)
        rate = expected_rate(0.7, 0.9, biased)
        assert train_mean == pytest.approx(rate.mean_photons, rel=5e-4)

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
            p = expected_rate(mu, phi, params).click_probability
            summary = simulate_point(mu, phi, params, gates, seed=derive_seed(123, i))
            sigma = math.sqrt(p * (1 - p) / gates)
            assert abs(summary.p_click - p) < 5 * sigma

    def test_seed_population(self, chain):
        # the 5-sigma envelope holds for >= 99% of seeds at a fringe point
        gates = 1_000_000
        p = expected_rate(0.7, 1.0, chain).click_probability
        sigma = math.sqrt(p * (1 - p) / gates)
        ok = sum(
            abs(simulate_point(0.7, 1.0, chain, gates, seed=s).p_click - p) < 5 * sigma
            for s in range(100)
        )
        assert ok >= 99


class TestFitHelpers:
    def test_cosine_fit_recovers_exact_coefficients(self):
        phis = default_phi_grid(16)
        c0, c1 = 3.5e-5, 1.2e-5
        y = c0 + c1 * np.cos(phis)
        fit = fit_cosine(phis, y, np.full_like(y, 1e-7))
        assert fit.c0 == pytest.approx(c0, rel=1e-12)
        assert fit.c1 == pytest.approx(c1, rel=1e-12)
        assert fit.visibility == pytest.approx(c1 / c0, rel=1e-12)

    def test_cosine_fit_uncertainty_scale(self):
        # white noise of known sigma: parameter sigmas follow the design matrix
        phis = default_phi_grid(16)
        sigma = 1e-6
        fit = fit_cosine(phis, np.full(16, 1e-4), np.full(16, sigma))
        assert fit.c0_sigma == pytest.approx(sigma / 4.0, rel=1e-9)          # sigma/sqrt(n)
        assert fit.c1_sigma == pytest.approx(sigma * math.sqrt(2.0) / 4.0, rel=1e-9)

    def test_dark_subtracted_visibility(self):
        phis = default_phi_grid(16)
        c0, c1, dark = 5e-5, 2e-5, 2.6e-5
        fit = fit_cosine(phis, c0 + c1 * np.cos(phis), np.full(16, 1e-7))
        assert fit.visibility_dark_subtracted(dark) == pytest.approx(
            c1 / (c0 - dark), rel=1e-12
        )
        assert fit.visibility_dark_subtracted_sigma(dark) > fit.visibility_sigma

    @pytest.mark.parametrize("c0", [2.6e-5, 2.0e-5, 2.605e-5])
    def test_dark_subtracted_visibility_undefined_at_or_below_dark(self, c0):
        # a dark-subtracted offset within one c0_sigma of zero (or below it)
        # leaves the ratio undefined: NaN, not a raise
        fit = CosineFit(c0=c0, c1=1e-6, c0_sigma=1e-7, c1_sigma=1e-7, c0c1_cov=0.0)
        assert math.isnan(fit.visibility_dark_subtracted(2.6e-5))
        assert math.isnan(fit.visibility_dark_subtracted_sigma(2.6e-5))

    @pytest.mark.parametrize("c0", [0.0, -1e-6])
    def test_visibility_undefined_at_or_below_zero_offset(self, c0):
        fit = CosineFit(c0=c0, c1=1e-6, c0_sigma=1e-7, c1_sigma=1e-7, c0c1_cov=0.0)
        assert math.isnan(fit.visibility)
        assert math.isnan(fit.visibility_sigma)

    def test_through_origin_fit_without_nonzero_abscissa(self):
        fit = fit_through_origin(np.zeros(3), np.ones(3), np.ones(3))
        assert math.isnan(fit.slope) and math.isnan(fit.slope_sigma)

    def test_through_origin_fit(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        slope = 3.25e-5
        fit = fit_through_origin(x, slope * x, np.full_like(x, 1e-8))
        assert fit.slope == pytest.approx(slope, rel=1e-12)

    def test_through_origin_weighting(self):
        # an outlier with a huge sigma should barely move the slope
        x = np.array([1.0, 2.0, 4.0])
        y = np.array([1.0, 2.0, 400.0])
        fit = fit_through_origin(x, y, np.array([1e-6, 1e-6, 1e6]))
        assert fit.slope == pytest.approx(1.0, rel=1e-6)


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

    def test_fig4a_noise_linear_in_power(self, bare_chain):
        grid = [0.00675, 0.0135, 0.02025, 0.027]
        scan = run_fig4a(bare_chain, grid, gates_per_point=20_000_000, seed=17)
        slope = scan.fit["noise_slope_per_w"]
        for power_mw, noise, sigma in zip(
            scan.abscissa, scan.columns["noise_per_gate"], scan.columns["noise_sigma"]
        ):
            assert abs(noise - slope * power_mw * 1e-3) < 3 * sigma

    def test_fig4a_efficiency_follows_conversion_law(self, bare_chain):
        from qfdc.mixer import conversion_efficiency

        grid = [0.00675, 0.0135, 0.02025, 0.027]
        scan = run_fig4a(bare_chain, grid, gates_per_point=20_000_000, seed=18)
        for power, eff, sigma in zip(
            grid, scan.columns["efficiency"], scan.columns["eff_sigma"]
        ):
            model = conversion_efficiency(bare_chain.at_pump_power(power).converter)
            assert abs(eff - model) < 4 * sigma

    def test_fig4a_rejects_interferometer(self, chain):
        with pytest.raises(ValueError):
            run_fig4a(chain, [0.027])

    def test_fig4b_smoke(self, bare_chain):
        scan = run_fig4b(bare_chain, [0.3, 1.0, 10.0], gates_per_point=10_000_000, seed=6)
        cols = scan.columns
        assert len(scan.abscissa) == 3
        for p_sub, sigma, line in zip(
            cols["p_subtracted"], cols["p_subtracted_sigma"], cols["fit_line"]
        ):
            assert abs(p_sub - line) < 4 * sigma
        assert scan.fit["floor_mean"] == pytest.approx(7.17e-5, rel=0.1)

    def test_fig4b_slope_matches_chain_efficiency(self, bare_chain):
        # in the linear detector response regime (signal clicks/gate << 1)
        # the subtracted slope is the chain's photon-number efficiency
        from qfdc.mixer import conversion_efficiency

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
        with pytest.raises(ValueError):
            run_fig5(chain, 0.7, phi_grid=[0.0, 1.0, 2.0], gates_per_point=1000, seed=1)

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
        scan = run_fig5(chain, 143.0, gates_per_point=4_000_000, seed=10, control=True)
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


#: masters at SeedSequence's word boundaries, and one wider than 64 bits
_SEEDS = [0, 2**32, 2**64 - 1, 2**130]


class TestScansMatchPointByPoint:
    """Each scenario samples its scan at once; every record equals the one
    simulate_point gives for that point and its derive_seed seed alone."""

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_fig4a(self, bare_chain, seed):
        powers, gates, mu = [0.0, 0.0135, 0.027], 1_500_000, 125.0
        scan = run_fig4a(bare_chain, powers, mu, gates, seed)
        det, t_post = bare_chain.detector, bare_chain.post_converter_transmission
        for i, power in enumerate(powers):
            point = bare_chain.at_pump_power(power)
            sig = simulate_point(mu, None, point, gates, derive_seed(seed, i, 0))
            bg = simulate_point(0.0, None, point, gates, derive_seed(seed, i, 1))
            assert scan.raw[i] == sig
            miss_sig, miss_bg = 1.0 - sig.p_click, 1.0 - bg.p_click
            assert scan.columns["efficiency"][i] == (
                math.log(miss_bg / miss_sig) / (det.efficiency * mu * t_post)
            )
            assert scan.columns["noise_per_gate"][i] == (
                math.log((1.0 - det.dark_prob_per_gate) / miss_bg) / (det.efficiency * t_post)
            )

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_fig4b(self, bare_chain, seed):
        mus, gates = [0.0, 0.3, 10.0], 1_500_000
        scan = run_fig4b(bare_chain, mus, gates, seed)
        for i, mu in enumerate(mus):
            sig = simulate_point(mu, None, bare_chain, gates, derive_seed(seed, i, 0))
            bg = simulate_point(0.0, None, bare_chain, gates, derive_seed(seed, i, 1))
            assert scan.raw[i] == sig
            assert scan.columns["p_subtracted"][i] == dark_subtract(sig, bg).p

    @pytest.mark.parametrize("seed", _SEEDS)
    @pytest.mark.parametrize("control", [False, True])
    def test_fig5(self, chain, seed, control):
        phis, gates = default_phi_grid(8), 2_500_000
        scan = run_fig5(chain, 0.7, phis, gates, seed, control=control)
        params = chain.without_interferometer() if control else chain
        raw = [
            simulate_point(0.7, None if control else float(phi), params, gates,
                           derive_seed(seed, i))
            for i, phi in enumerate(phis)
        ]
        assert scan.raw == raw
        fit = fit_cosine(phis, np.array([s.p_click for s in raw]),
                         np.array([max(s.sigma_p, 1.0 / gates) for s in raw]))
        assert (scan.fit["c0"], scan.fit["c1"], scan.fit["visibility"]) == (
            fit.c0, fit.c1, fit.visibility
        )

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_fig6(self, chain, seed):
        mus, n_phi, gates = [0.0, 0.7, 45.0], 5, 1_200_000
        scan = run_fig6(chain, mus, n_phi, gates, seed)
        phis = default_phi_grid(n_phi)
        dark = chain.detector.dark_prob_per_gate
        for j, mu in enumerate(mus):
            raw = [simulate_point(mu, float(phi), chain, gates,
                                  derive_seed(derive_seed(seed, j), i))
                   for i, phi in enumerate(phis)]
            fit = fit_cosine(phis, np.array([s.p_click for s in raw]),
                             np.array([max(s.sigma_p, 1.0 / gates) for s in raw]))
            names = ("v_raw", "v_raw_sigma", "v_sub", "v_sub_sigma")
            row = [scan.columns[name][j] for name in names]
            expected = [fit.visibility, fit.visibility_sigma,
                        fit.visibility_dark_subtracted(dark),
                        fit.visibility_dark_subtracted_sigma(dark)]
            assert repr(row) == repr(expected)


class TestChainParams:
    def test_validation(self, chain):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(chain, post_converter_transmission=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(chain, intrinsic_visibility_v0=-0.1)

    def test_without_interferometer(self, chain):
        bare = chain.without_interferometer()
        assert bare.interferometer is None
        assert bare.converter == chain.converter

    def test_at_pump_power(self, chain):
        moved = chain.at_pump_power(0.01)
        assert moved.converter.pump_power_w == 0.01
        assert chain.converter.pump_power_w == 0.027

import math

import pytest
from hypothesis import example, given, settings

from qfdc.calibration import (
    BOUNDS,
    RESIDUAL_TOLERANCES,
    CalibrationContext,
    CalibrationResult,
    CalibrationTargets,
    _predict,
    calibrate,
    residuals_within_tolerance,
)
from qfdc.model import DetectorSpec

from strategies import CHAINS, CONDITION_KEYS, DETECTOR_KEYS

# Frozen outputs of an independent numeric oracle: the three-visibility
# system solved with scipy.optimize.brentq at 50-digit intermediate
# precision, then mapped onto the chain parameters.
ORACLE_V0 = 0.9468947496217709
ORACLE_S_CLICKS = 4.387832128478872e-05
ORACLE_B_NOISE = 6.873704854681671e-06
ORACLE_PRODUCT = 0.17909518891750498
ORACLE_BETA = 0.0944657251739805
ORACLE_T_SYS = 0.065994190303725956
ORACLE_FLOOR_BARE = 7.167733268298448e-05
ORACLE_FLOOR_IFO = 3.287350251512944e-05


class TestCalibrate:
    def test_matches_numeric_oracle(self, calibration):
        assert calibration.feasible
        assert calibration.system_transmission == pytest.approx(ORACLE_T_SYS, rel=1e-12)
        assert calibration.intrinsic_visibility_v0 == pytest.approx(ORACLE_V0, rel=1e-12)
        assert calibration.transmission_product == pytest.approx(ORACLE_PRODUCT, rel=1e-12)
        assert calibration.noise_coeff_beta == pytest.approx(ORACLE_BETA, rel=1e-9)

    def test_live_root_finder_agrees(self, calibration, targets):
        # recompute the visibility system numerically, independent of the
        # closed-form path: eliminate B_n via the subtracted visibility, root
        # over V0 on the high-mu equation
        brentq = pytest.importorskip("scipy.optimize").brentq
        d = 2.6e-5
        v_raw, v_sub, v143 = 0.379, 0.721, 0.94
        k = targets.mu_high / targets.mu_fringe

        def s_of(v0):
            return brentq(
                lambda s: s * v0 / (s * v0 / v_sub + 2 * d) - v_raw,
                1e-9, 1e-2, xtol=1e-30, rtol=8.9e-16,
            )

        def high_mu_residual(v0):
            s = s_of(v0)
            b_n = (s * v0 / v_sub - s) / 2.0
            return k * s * v0 / (k * s + 2 * (b_n + d)) - v143

        v0 = brentq(high_mu_residual, 0.5, 0.9999, xtol=1e-16, rtol=8.9e-16)
        assert v0 == pytest.approx(calibration.intrinsic_visibility_v0, rel=1e-10)
        assert s_of(v0) == pytest.approx(ORACLE_S_CLICKS, rel=1e-10)

    def test_signal_and_noise_levels(self, calibration, targets):
        det_eff = CalibrationContext().detector.efficiency
        s_clicks = (
            det_eff
            * targets.mu_fringe
            * targets.conversion_efficiency
            * calibration.transmission_product
        )
        assert s_clicks == pytest.approx(ORACLE_S_CLICKS, rel=1e-9)
        b_noise = (
            det_eff
            * calibration.noise_coeff_beta
            * targets.pump_power_w
            * calibration.transmission_product
            * CalibrationContext().noise_suppression_factor
        )
        assert b_noise == pytest.approx(ORACLE_B_NOISE, rel=1e-9)
        # the noise level sits in the window implied by the quoted floors
        assert 0.0 < b_noise < 8.5e-6

    def test_exact_targets(self, calibration):
        assert calibration.residuals["conversion_efficiency"] == pytest.approx(0.0, abs=1e-12)
        assert calibration.residuals["visibility_high_mu"] == pytest.approx(0.0, abs=1e-12)
        assert calibration.residuals["visibility_raw"] == pytest.approx(0.0, abs=1e-12)
        assert calibration.residuals["visibility_subtracted"] == pytest.approx(0.0, abs=1e-12)

    def test_floor_predictions(self, calibration):
        assert calibration.predictions["floor_bare"] == pytest.approx(
            ORACLE_FLOOR_BARE, rel=1e-9
        )
        assert calibration.predictions["floor_interferometer"] == pytest.approx(
            ORACLE_FLOOR_IFO, rel=1e-9
        )
        assert abs(calibration.residuals["floor_bare"]) < 0.15 * 7e-5
        assert abs(calibration.residuals["floor_interferometer"]) < 0.15 * 3e-5

    def test_within_tolerance(self, calibration, targets):
        assert residuals_within_tolerance(calibration, targets)

    def test_residual_equal_to_its_tolerance_is_within(self, calibration, targets):
        residuals = dict.fromkeys(calibration.residuals, 0.0)
        residuals["visibility_high_mu"] = RESIDUAL_TOLERANCES["visibility_high_mu"][1]
        at_edge = calibration.replace(residuals=residuals)
        assert residuals_within_tolerance(at_edge, targets)

    @pytest.mark.parametrize("name", RESIDUAL_TOLERANCES)
    def test_residual_past_its_tolerance_is_outside(self, calibration, targets, name):
        kind, tol = RESIDUAL_TOLERANCES[name]
        residuals = dict.fromkeys(calibration.residuals, 0.0)
        residuals[name] = -1.01 * tol * (getattr(targets, name) if kind == "rel" else 1.0)
        assert not residuals_within_tolerance(calibration.replace(residuals=residuals), targets)

    def test_round_trip(self, calibration, targets):
        # generate targets from the fitted model, re-calibrate, recover exactly
        p = calibration.predictions
        regenerated = CalibrationTargets(
            conversion_efficiency=p["conversion_efficiency"],
            pump_power_w=targets.pump_power_w,
            floor_bare=p["floor_bare"],
            floor_interferometer=p["floor_interferometer"],
            visibility_high_mu=p["visibility_high_mu"],
            mu_high=targets.mu_high,
            visibility_raw=p["visibility_raw"],
            visibility_subtracted=p["visibility_subtracted"],
            mu_fringe=targets.mu_fringe,
        )
        again = calibrate(regenerated)
        assert again.feasible
        for name, value in calibration.fitted().items():
            assert again.fitted()[name] == pytest.approx(value, rel=1e-6)
        for residual in again.residuals.values():
            assert abs(residual) < 1e-12


class TestRoundTripOverTheSpace:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(CHAINS)
    @example({"system_transmission": 1.0, "noise_coeff_beta": 1e2, "transmission_product": 1.0,
              "intrinsic_visibility_v0": 1.0, "efficiency": 1.0, "dark_prob_per_gate": 1e-7,
              "pump_power_w": 0.1, "mu_fringe": 5.0, "mu_high": 20.0})
    def test_calibrate_recovers_the_chain_it_predicts(self, values):
        conditions = {k: values.pop(k) for k in CONDITION_KEYS}
        detector = DetectorSpec(**{k: values.pop(k) for k in DETECTOR_KEYS})
        chain = CalibrationResult(**values)
        context = CalibrationContext(detector=detector)
        observables = _predict(chain, CalibrationTargets(**conditions), context)
        again = calibrate(CalibrationTargets(**conditions, **observables), context)
        assert again.feasible, again.message
        for name in BOUNDS:
            assert getattr(again, name) == pytest.approx(getattr(chain, name), rel=1e-8), name


class TestFeasibleIsTheMessage:
    def test_an_empty_message_is_feasible(self, calibration):
        assert calibration.message == ""
        assert calibration.feasible is True
        failed = calibration.replace(message="mu_high must exceed mu_fringe")
        assert failed.feasible is False
        assert failed.replace(message="").feasible is True

    def test_feasible_is_not_settable(self, calibration):
        # one source for the verdict: no constructor keyword, no field
        with pytest.raises(TypeError):
            CalibrationResult(**calibration.fitted(), feasible=False)
        with pytest.raises(TypeError):
            calibration.replace(feasible=False)
        with pytest.raises(AttributeError):
            calibration.feasible = False


class TestInfeasibility:
    def test_raw_above_subtracted(self):
        bad = CalibrationTargets(visibility_raw=0.8, visibility_subtracted=0.5)
        result = calibrate(bad)
        assert not result.feasible
        assert "raw" in result.message
        assert set(result.residuals) == set(result.predictions)

    def test_contrast_ceiling_violation(self):
        # fringe pair implying V0 > 1 trips the bound check
        bad = CalibrationTargets(
            visibility_raw=0.50, visibility_subtracted=0.60, visibility_high_mu=0.999
        )
        result = calibrate(bad)
        assert not result.feasible
        assert "intrinsic_visibility_v0" in result.message
        assert "violates bounds" in result.message
        # the out-of-range value is clipped to the bound
        assert result.intrinsic_visibility_v0 <= 1.0

    def test_negative_noise_keeps_partial_solution(self):
        # subtracted visibility above the high-mu one needs negative noise;
        # the failure still reports the valid signal-side parameters
        bad = CalibrationTargets(
            visibility_high_mu=0.7, visibility_raw=0.6, visibility_subtracted=0.75
        )
        result = calibrate(bad)
        assert not result.feasible
        assert "noise" in result.message
        assert result.noise_coeff_beta == 0.0
        assert 0.0 < result.transmission_product <= 1.0
        assert result.predictions["conversion_efficiency"] == pytest.approx(0.0035, rel=1e-9)

    def test_zero_noise_is_feasible(self):
        # targets whose solution has exactly zero converter noise: the
        # boundary of the negative-noise check, which zero does not trip
        edge = CalibrationTargets(
            visibility_raw=0.375, visibility_subtracted=0.875, mu_fringe=0.5, mu_high=2.0,
            visibility_high_mu=0.6562500000000001,
        )
        result = calibrate(edge)
        assert result.feasible
        assert result.message == ""
        assert result.noise_coeff_beta == 0.0

    def test_fitted_value_at_its_upper_bound_is_feasible(self):
        # a conversion target equal to the internal conversion pins the system
        # transmission to exactly 1, the closed upper end of its bounds
        eta_int = math.sin(math.sqrt(2.0 * 0.027)) ** 2
        result = calibrate(CalibrationTargets(conversion_efficiency=eta_int))
        assert result.system_transmission == 1.0
        assert result.feasible
        assert result.message == ""

    @pytest.mark.parametrize("name, value", [
        ("transmission_product", math.nextafter(1.0, 0.0)),
        ("intrinsic_visibility_v0", 1.0),
    ])
    def test_chain_at_its_upper_bound_calibrates_back(self, calibration, targets, name, value):
        # the solve rounds the value a few ulps above 1; that is the bound
        chain = calibration.replace(**{name: value})
        again = calibrate(targets.replace(**_predict(chain, targets, CalibrationContext())))
        assert again.feasible, again.message
        assert getattr(again, name) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("name, target, sign", [
        ("transmission_product", "conversion_efficiency", -1.0),  # the product is 1/target
        ("intrinsic_visibility_v0", "visibility_high_mu", 1.0),
    ])
    @pytest.mark.parametrize("excess, feasible", [(5e-10, True), (2e-9, False)])
    def test_solution_past_its_bound(self, calibration, targets, name, target, sign, excess,
                                     feasible):
        # from a chain at the bound, each target moves its parameter about
        # ``excess`` (relative) above 1: rounding up to 1e-9, a violation past it
        at_bound = targets.replace(
            **_predict(calibration.replace(**{name: 1.0}), targets, CalibrationContext()))
        result = calibrate(at_bound.replace(**{target: getattr(at_bound, target)
                                               * (1.0 + sign * excess)}))
        assert result.feasible is feasible
        assert getattr(result, name) == 1.0
        assert (f"{name} = 1 violates bounds [0, 1]" in result.message) is not feasible

    def test_negative_zero_signal_reports_positive_zero(self):
        # a subnormal dark rate: D underflows to 0, so S = -2*dark/(k - 1)
        # rounds to -0.0, which is not a signal level; the report's
        # transmission is the bound, +0.0, never -0.0
        result = calibrate(
            CalibrationTargets(visibility_raw=0.25, visibility_subtracted=0.5, mu_fringe=0.5,
                               mu_high=5e5, visibility_high_mu=0.5),
            CalibrationContext(detector=DetectorSpec(dark_prob_per_gate=5e-324)),
        )
        assert not result.feasible
        assert "too large" in result.message
        assert math.copysign(1.0, result.transmission_product) == 1.0

    @pytest.mark.parametrize(
        "targets, context, message",
        [(CalibrationTargets(visibility_raw=0.5, visibility_subtracted=0.5), None,
          "must exceed the raw visibility"),
         (CalibrationTargets(mu_high=0.7), None, "mu_high must exceed mu_fringe"),
         (None, CalibrationContext(eta_nor_per_w=0.0), "zero internal conversion"),
         # D = 2*dark = 0.25 and k = 2, so S = k*v_sub*D/v_high - D - 2*dark is exactly 0
         (CalibrationTargets(visibility_raw=0.25, visibility_subtracted=0.5, mu_fringe=0.5,
                             mu_high=1.0, visibility_high_mu=0.5),
          CalibrationContext(detector=DetectorSpec(dark_prob_per_gate=0.125)), "too large"),
         # the signal scale, 0.1 * 1e-30 * 1e-300, underflows to 0
         (CalibrationTargets(conversion_efficiency=1e-300, mu_fringe=1e-30), None,
          "its scale factor underflows")],
        ids=["equal-visibility-pair", "equal-mu", "zero-conversion", "zero-signal",
             "zero-signal-scale"],
    )
    def test_boundary_targets_are_infeasible(self, targets, context, message):
        # each case sits exactly on its check's boundary, where the solve
        # past the check would divide by zero
        result = calibrate(targets, context)
        assert not result.feasible
        assert message in result.message

    @pytest.mark.parametrize(
        "targets, context",
        [(CalibrationTargets(pump_power_w=1e-320), None),
         (None, CalibrationContext(leak_fraction=1.0, oob_suppression_db=3200.0))],
        ids=["subnormal-pump-power", "subnormal-noise-scale"],
    )
    def test_overflowing_noise_coefficient_is_infeasible(self, targets, context):
        # a subnormal noise scale divides the noise level into an inf
        # coefficient, which the unbounded range of noise_coeff_beta admits
        result = calibrate(targets, context)
        assert not result.feasible
        assert result.noise_coeff_beta == 0.0

    def test_high_mu_visibility_too_large(self):
        bad = CalibrationTargets(visibility_high_mu=0.99999)
        result = calibrate(bad)
        # nearly-unity high-mu visibility forces V0 above the fringe pair's reach
        assert not result.feasible


class TestCalibratedChain:
    def test_chain_assembly(self, calibration, chain):
        assert chain.interferometer is not None
        assert chain.post_converter_transmission == calibration.transmission_product
        assert chain.converter.system_transmission == calibration.system_transmission
        assert chain.converter.pump_power_w == 0.027

    def test_targets_reproduced_by_chain(self, chain):
        from qfdc.model import analytic_visibility, conversion_efficiency, expected_rate

        assert conversion_efficiency(chain.converter) == pytest.approx(0.0035, rel=1e-12)
        assert analytic_visibility(143.0, chain)[0] == pytest.approx(0.94, abs=1e-12)
        pair = analytic_visibility(0.7, chain)
        assert pair[0] == pytest.approx(0.379, abs=1e-12)
        assert pair[1] == pytest.approx(0.721, abs=1e-12)


class TestContextValidation:
    @pytest.mark.parametrize("detector", [DetectorSpec(efficiency=0.0),
                                          DetectorSpec(dark_prob_per_gate=1.0)],
                             ids=["blind", "always-clicks"])
    def test_rejects_a_detector_with_nothing_to_measure(self, detector):
        with pytest.raises(ValueError, match="efficiency > 0 and dark_prob_per_gate < 1"):
            CalibrationContext(detector=detector)


class TestTargetsValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CalibrationTargets(conversion_efficiency=0.0)

    def test_rejects_unit_visibility(self):
        with pytest.raises(ValueError):
            CalibrationTargets(visibility_high_mu=1.0)

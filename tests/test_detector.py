import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfdc.detector import (
    BLOCK_GATES,
    CountSummary,
    derive_seeds,
    sample_scan,
)
from qfdc.model import DetectorSpec, _click_probabilities, click_probability
from qfdc.reference import dark_subtract, derive_seed, sample_gates

DETECTOR = DetectorSpec()  # 10% efficiency, 2.6e-5 dark, 4 MHz


def _fixed_p(p: float) -> DetectorSpec:
    """A detector that clicks with probability exactly ``p`` at any light level."""
    return DetectorSpec(efficiency=0.0, dark_prob_per_gate=p)


def _reference_clicks(seed: int, n_gates: int, p: float) -> int:
    """The definition of the draws: a fresh Philox(key=(seed, i)) per block i."""
    clicks = 0
    for i, start in enumerate(range(0, n_gates, BLOCK_GATES)):
        key = np.array([seed, i], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        clicks += int(rng.binomial(min(BLOCK_GATES, n_gates - start), p))
    return clicks


class TestClickProbability:
    def test_dark_floor(self):
        assert click_probability(0.0, DETECTOR) == pytest.approx(2.6e-5, rel=1e-12)

    def test_blind_detector(self):
        spec = DetectorSpec(efficiency=0.0, dark_prob_per_gate=0.0)
        for mu in (0.0, 1e-3, 1.0, 1e3):
            assert click_probability(mu, spec) == 0.0

    def test_oracle_value(self):
        # 1 - (1 - 2.6e-5) * exp(-0.1 * 1e-3), frozen from a 50-digit evaluation
        assert click_probability(1e-3, DETECTOR) == pytest.approx(
            1.2599240029665816e-4, rel=1e-12
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            click_probability(-1e-9, DETECTOR)

    def test_error_names_the_first_bad_mean(self):
        with pytest.raises(ValueError, match=r"got -1e-09$"):
            _click_probabilities([0.0, -1e-9, -2.0], DETECTOR)

    @given(st.floats(0.0, 1e4), st.floats(0.0, 1e4))
    @settings(max_examples=300)
    def test_monotone_and_bounded(self, a, b):
        lo, hi = sorted((a, b))
        p_lo = click_probability(lo, DETECTOR)
        p_hi = click_probability(hi, DETECTOR)
        assert 0.0 <= p_lo <= p_hi <= 1.0

    def test_linear_regime(self):
        mu = 1e-6
        p = click_probability(mu, DETECTOR)
        linear = DETECTOR.dark_prob_per_gate + DETECTOR.efficiency * mu
        assert p == pytest.approx(linear, rel=1e-6)


class TestSampleGates:
    def test_zero_probability(self):
        spec = DetectorSpec(efficiency=0.0, dark_prob_per_gate=0.0)
        summary = sample_gates(0.0, spec, 10_000, seed=1)
        assert summary.clicks == 0

    def test_unit_probability(self):
        spec = DetectorSpec(efficiency=1.0, dark_prob_per_gate=1.0)
        summary = sample_gates(100.0, spec, 10_000, seed=1)
        assert summary.clicks == summary.gates == 10_000

    def test_floor_level_counts(self):
        # one second of gates at the bare noise floor
        summary = sample_gates(4.4e-4, DETECTOR, 4_000_000, seed=99)
        expected = click_probability(4.4e-4, DETECTOR) * 4_000_000
        assert abs(summary.clicks - expected) < 5 * math.sqrt(expected)

    def test_deterministic(self):
        a = sample_gates(1e-3, DETECTOR, 3_000_000, seed=42)
        b = sample_gates(1e-3, DETECTOR, 3_000_000, seed=42)
        assert a == b

    def test_seed_sensitivity(self):
        a = sample_gates(1.0, DETECTOR, 1_000_000, seed=1)
        b = sample_gates(1.0, DETECTOR, 1_000_000, seed=2)
        assert a.clicks != b.clicks

    def test_rejects_zero_gates(self):
        with pytest.raises(ValueError):
            sample_gates(1.0, DETECTOR, 0, seed=1)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            sample_gates(1.0, DETECTOR, 10, seed=-1)
        with pytest.raises(ValueError):
            sample_gates(1.0, DETECTOR, 10, seed=2**64)

    def test_consistency_over_seeds(self):
        # |p_hat - p| < 5 sigma in at least 99% of 100 seeds
        p = 7e-5
        mu = -math.log((1.0 - p) / (1.0 - DETECTOR.dark_prob_per_gate)) / DETECTOR.efficiency
        n = 1_000_000
        sigma = math.sqrt(p * (1 - p) / n)
        ok = 0
        for seed in range(100):
            summary = sample_gates(mu, DETECTOR, n, seed=seed)
            if abs(summary.p_click - p) < 5 * sigma:
                ok += 1
        assert ok >= 99

    def test_summary_invariants(self):
        summary = sample_gates(1e-3, DETECTOR, 2_500_000, seed=5)
        assert summary.gates == 2_500_000
        assert summary.rate_per_s == pytest.approx(summary.p_click * 4e6, rel=1e-12)
        assert summary.sigma_p == pytest.approx(
            math.sqrt(summary.p_click * (1 - summary.p_click) / summary.gates), rel=1e-12
        )

    @pytest.mark.parametrize("gates", [1, 2, 3, 4, 10, 1000])
    def test_sigma_floor_of_one_click(self, gates):
        # the binomial sigma falls below one click in its gates only at
        # 0, 1, n-1 or n clicks of n; the floor takes over there alone
        for clicks in range(gates + 1):
            summary = CountSummary(gates, clicks, 4e6)
            p = clicks / gates
            binomial = math.sqrt(p * (1.0 - p) / gates)
            assert summary.sigma_p == max(binomial, 1.0 / gates)
            if clicks in (0, 1, gates - 1, gates):
                assert summary.sigma_p == 1.0 / gates
            else:
                assert summary.sigma_p == binomial


class TestBlockStreams:
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(1, 3 * BLOCK_GATES + 1000),
        st.floats(0.0, 1.0),
    )
    @example(1, 3 * BLOCK_GATES + 12_345, 2.6e-5)  # partial last block, inversion
    @example(2, 2 * BLOCK_GATES + 1, 0.3)  # one-gate last block, BTPE
    @example(3, BLOCK_GATES - 1, 1e-3)  # one partial block
    @example(4, 4 * BLOCK_GATES, 0.5)  # whole blocks only
    @example(5, 2_000_000, 0.0)
    @example(6, 2_000_000, 1.0)
    @example(2**64 - 1, 1_500_000, 28.0 / BLOCK_GATES)  # n*p just under 30
    @example(0, 1_500_000, 31.0 / BLOCK_GATES)  # n*p just over 30
    @settings(max_examples=150, deadline=None)
    def test_matches_fresh_generator_per_block(self, seed, n_gates, p):
        assert sample_gates(0.0, _fixed_p(p), n_gates, seed).clicks == _reference_clicks(
            seed, n_gates, p
        )

    @pytest.mark.parametrize(
        "seed, n_gates, p, clicks",
        [
            (20260810, 3_000_000, 2.6e-5, 71),
            (2**64 - 1, 5 * BLOCK_GATES + 17, 0.3, 1_572_411),
            (7, 123_456_789, 0.01, 1_236_080),
        ],
    )
    def test_golden_click_counts(self, seed, n_gates, p, clicks):
        # frozen from the one-generator-per-block sampler
        assert sample_gates(0.0, _fixed_p(p), n_gates, seed).clicks == clicks

    def test_reentrant(self):
        # calls share no generator: running them concurrently, with threads
        # switching as often as possible, changes no result
        cases = [(seed, 6 * BLOCK_GATES + seed, 0.01 * (seed + 1)) for seed in range(6)]
        alone = [sample_gates(0.0, _fixed_p(p), n, seed) for seed, n, p in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(sample_gates, 0.0, _fixed_p(p), n, seed)
                    for _ in range(4) for seed, n, p in cases
                ]
                together = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert together == alone * 4


class TestSampleScan:
    @given(
        st.lists(st.tuples(st.integers(0, 2**64 - 1), st.floats(0.0, 1.0)), max_size=4),
        st.integers(1, 3 * BLOCK_GATES + 1000),
    )
    @example([(1, 2.6e-5), (5, 0.0), (6, 1.0)], 3 * BLOCK_GATES + 12_345)  # partial last block
    @example([(2, 0.3), (2**64 - 1, 28.0 / BLOCK_GATES), (0, 31.0 / BLOCK_GATES)],
             2 * BLOCK_GATES + 1)  # one-gate last block; n*p just under and over 30
    @example([(3, 1e-3), (4, 0.5)], BLOCK_GATES - 1)  # one partial block
    @example([], 10)
    @settings(max_examples=40, deadline=None)
    def test_each_point_matches_fresh_generator_per_block(self, points, n_gates):
        clicks = sample_scan([p for _, p in points], n_gates, [s for s, _ in points])
        assert clicks == [_reference_clicks(seed, n_gates, p) for seed, p in points]
        assert all(type(c) is int for c in clicks)

    def test_point_is_sample_gates(self):
        points = [(11, 0.2), (12, 5.0), (11, 0.0)]
        probs = [click_probability(mu, DETECTOR) for _, mu in points]
        seeds = np.array([seed for seed, _ in points], dtype=np.uint64)
        scan = sample_scan(probs, 2_500_000, seeds)
        assert scan == [sample_gates(mu, DETECTOR, 2_500_000, seed).clicks for seed, mu in points]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sample_scan([0.1, 0.2], 10, [1])
        with pytest.raises(ValueError):
            sample_scan([0.1], 0, [1])
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                sample_scan([0.1], 10, [seed])


class TestDarkSubtract:
    def test_identical_summaries(self):
        s = sample_gates(1e-3, DETECTOR, 1_000_000, seed=3)
        p, sigma = dark_subtract(s, s)
        assert p == 0.0
        assert sigma == pytest.approx(math.sqrt(2) * s.sigma_p, rel=1e-12)

    def test_quoted_floor_arithmetic(self):
        sig = CountSummary(10_000_000, 700, 4e6)   # p = 7e-5
        bg = CountSummary(10_000_000, 260, 4e6)    # p = 2.6e-5
        p, _ = dark_subtract(sig, bg)
        assert p == pytest.approx(4.4e-5, rel=1e-12)

    def test_zero_background_identity(self):
        # a background run without clicks is not exact: it adds one count
        sig = CountSummary(1_000_000, 123, 4e6)
        bg = CountSummary(1_000_000, 0, 4e6)
        p, sigma = dark_subtract(sig, bg)
        assert p == sig.p_click
        assert sigma == math.hypot(sig.sigma_p, 1.0 / bg.gates)

    def test_negative_flagged(self):
        sig = CountSummary(1_000_000, 10, 4e6)
        bg = CountSummary(1_000_000, 20, 4e6)
        p, _ = dark_subtract(sig, bg)
        assert p < 0.0

    def test_rejects_mismatched_rates(self):
        sig = CountSummary(1_000_000, 10, 4e6)
        bg = CountSummary(1_000_000, 10, 1e6)
        with pytest.raises(ValueError):
            dark_subtract(sig, bg)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"efficiency": 1.5},
            {"efficiency": -0.1},
            {"dark_prob_per_gate": -1e-9},
            {"gate_rate_hz": 0.0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            DetectorSpec(**kwargs)

    def test_count_summary_rejects_inconsistency(self):
        for gates, clicks in [(10, 11), (10, -1), (0, 0)]:
            with pytest.raises(ValueError):
                CountSummary(gates=gates, clicks=clicks, gate_rate_hz=4e6)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(20260810, 3, 1, 0) == derive_seed(20260810, 3, 1, 0)

    def test_path_sensitive(self):
        seeds = {
            derive_seed(11, 0, 0),
            derive_seed(11, 0, 1),
            derive_seed(11, 1, 0),
            derive_seed(12, 0, 0),
        }
        assert len(seeds) == 4

    def test_range(self):
        s = derive_seed(2**63, 5)
        assert 0 <= s < 2**64


#: masters at the word boundaries of SeedSequence's entropy: one uint32 word,
#: two, the largest 64-bit seed, three words, and more words than its pool of 4
_EDGE_MASTERS = [0, 2**32, 2**64 - 1, 2**64 + 1, 2**130]


class TestDeriveSeeds:
    @given(
        st.integers(0, 2**140),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    )
    @example(_EDGE_MASTERS[0], [0, 1, 2**32 - 1])
    @example(_EDGE_MASTERS[1], [0, 5])
    @example(_EDGE_MASTERS[2], [0, 7])
    @example(_EDGE_MASTERS[3], [3])
    @example(_EDGE_MASTERS[4], [0, 1])
    @settings(max_examples=100, deadline=None)
    def test_int_master(self, master, indices):
        # (master, i) seeds fig5 and fig6 points, (master, i, r) fig4a and fig4b runs
        assert derive_seeds(master, indices).tolist() == [derive_seed(master, i) for i in indices]
        assert derive_seeds(master, np.array(indices)[:, None], np.arange(2)).tolist() == [
            [derive_seed(master, i, r) for r in range(2)] for i in indices
        ]

    @given(
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    @example([0, 2**32, 2**64 - 1], 0)
    @settings(max_examples=100, deadline=None)
    def test_uint64_array_master(self, masters, index):
        array = np.array(masters, dtype=np.uint64)
        assert derive_seeds(array, index).tolist() == [derive_seed(m, index) for m in masters]
        assert derive_seeds(array[:, None], [0, index], 1).tolist() == [
            [derive_seed(m, 0, 1), derive_seed(m, index, 1)] for m in masters
        ]

    @pytest.mark.parametrize("master", _EDGE_MASTERS)
    def test_two_levels(self, master):
        # fig6: point i of the j-th fringe scan is seeded derive_seed(derive_seed(seed, j), i)
        rows = derive_seeds(master, np.arange(3))
        assert derive_seeds(rows[:, None], np.arange(4)).tolist() == [
            [derive_seed(derive_seed(master, j), i) for i in range(4)] for j in range(3)
        ]

    @pytest.mark.parametrize("master, index", [
        (-1, [0]), (1, [-1]), (1, [2**32]), (1, [0.5]),
    ])
    def test_rejects_out_of_range(self, master, index):
        with pytest.raises(ValueError):
            derive_seeds(master, index)

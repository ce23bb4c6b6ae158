"""Gated Geiger-mode single-photon detector.

A gate sees a Poissonian light field with some mean photon number and
clicks with probability ``1 - (1 - p_dark) * exp(-efficiency * mu)``.
Monte Carlo sampling is counter-based: gates are split into fixed blocks of
``2**20`` and each block draws its click count from an independent Philox
substream keyed by ``(seed, block_index)``. The keyed blocks, summed
serially, define the draws: a click record depends only on the seed, the
gate count and the click probability.

:func:`sample_gates` builds one Philox generator per call and rekeys it for
each block through its state, about a sixth of the cost of building a new
generator per block (2-4 us against 14-21 us per block on a 2-core Xeon).
It holds no state between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BLOCK_GATES = 1 << 20

_MAX_SEED = 2**64


@dataclass(frozen=True)
class DetectorSpec:
    """Gated detector: efficiency, dark count probability, gate rate."""

    efficiency: float = 0.10
    dark_prob_per_gate: float = 2.6e-5
    gate_rate_hz: float = 4.0e6

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_prob_per_gate <= 1.0:
            raise ValueError(
                f"dark_prob_per_gate must be in [0, 1], got {self.dark_prob_per_gate}"
            )
        if not (math.isfinite(self.gate_rate_hz) and self.gate_rate_hz > 0.0):
            raise ValueError(f"gate_rate_hz must be > 0, got {self.gate_rate_hz}")


@dataclass(frozen=True)
class CountSummary:
    """Aggregated click statistics for a block of gates."""

    gates: int
    clicks: int
    p_click: float
    sigma_p: float
    gate_rate_hz: float
    rate_per_s: float

    def __post_init__(self) -> None:
        if self.gates < 0 or self.clicks < 0 or self.clicks > self.gates:
            raise ValueError(f"need 0 <= clicks <= gates, got {self.clicks}/{self.gates}")
        if not 0.0 <= self.p_click <= 1.0:
            raise ValueError(f"p_click must be in [0, 1], got {self.p_click}")
        if self.sigma_p < 0.0:
            raise ValueError(f"sigma_p must be >= 0, got {self.sigma_p}")
        expected = self.p_click * self.gate_rate_hz
        if abs(self.rate_per_s - expected) > 1e-12 * max(expected, 1.0):
            raise ValueError("rate_per_s must equal p_click * gate_rate_hz")

    @classmethod
    def from_clicks(cls, gates: int, clicks: int, gate_rate_hz: float) -> "CountSummary":
        p = clicks / gates
        sigma = math.sqrt(p * (1.0 - p) / gates)
        return cls(gates=gates, clicks=clicks, p_click=p, sigma_p=sigma,
                   gate_rate_hz=gate_rate_hz, rate_per_s=p * gate_rate_hz)


@dataclass(frozen=True)
class CorrectedRate:
    """Background-subtracted click probability with propagated uncertainty.

    ``p`` may come out negative when the background fluctuates above the
    signal run; it is reported as-is and flagged.
    """

    p: float
    sigma: float
    rate_per_s: float

    @property
    def is_negative(self) -> bool:
        return self.p < 0.0


def click_probability(mean_photons_at_detector: float, spec: DetectorSpec) -> float:
    """Click probability per gate for Poissonian light of the given mean."""
    mu = float(mean_photons_at_detector)
    if math.isnan(mu) or mu < 0.0:
        raise ValueError(f"mean photons must be >= 0, got {mu}")
    d = spec.dark_prob_per_gate
    # 1 - (1-d)*exp(-eta*mu), written via expm1 to keep precision at tiny mu
    return d + (1.0 - d) * (-math.expm1(-spec.efficiency * mu))


def sample_gates(
    mean_photons_at_detector: float,
    spec: DetectorSpec,
    n_gates: int,
    seed: int,
) -> CountSummary:
    """Sample independent gates and aggregate the clicks.

    Deterministic for a fixed ``(seed, n_gates)``; the block decomposition
    defines the draws.
    """
    n_gates = int(n_gates)
    if n_gates < 1:
        raise ValueError(f"n_gates must be >= 1, got {n_gates}")
    seed = int(seed)
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    p = click_probability(mean_photons_at_detector, spec)

    key = np.array([seed, 0], dtype=np.uint64)
    bit_generator = np.random.Philox(key=key)
    rng = np.random.Generator(bit_generator)
    # key (seed, i), counter 0 and an empty buffer give exactly the stream of
    # a fresh Philox(key=(seed, i)), without the entropy-seeded SeedSequence
    # that building one per block would create and throw away
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    n_blocks = (n_gates + BLOCK_GATES - 1) // BLOCK_GATES
    clicks = 0
    for i in range(n_blocks):
        key[1] = i
        bit_generator.state = state
        clicks += int(rng.binomial(min(BLOCK_GATES, n_gates - i * BLOCK_GATES), p))
    return CountSummary.from_clicks(n_gates, clicks, spec.gate_rate_hz)


def dark_subtract(signal: CountSummary, background: CountSummary) -> CorrectedRate:
    """Subtract a background run from a signal run, propagating uncertainty."""
    if not math.isclose(signal.gate_rate_hz, background.gate_rate_hz, rel_tol=1e-12):
        raise ValueError("signal and background summaries must share a gate rate")
    p = signal.p_click - background.p_click
    sigma = math.hypot(signal.sigma_p, background.sigma_p)
    return CorrectedRate(p=p, sigma=sigma, rate_per_s=p * signal.gate_rate_hz)


def derive_seed(master_seed: int, *path: int) -> int:
    """Stable 64-bit substream seed for (master seed, index path).

    Scenario points use this so per-point streams are reproducible for a
    fixed master seed and independent of evaluation order.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])

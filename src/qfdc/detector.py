"""Gated Geiger-mode single-photon detector.

A gate sees a Poissonian light field with some mean photon number and
clicks with probability ``1 - (1 - p_dark) * exp(-efficiency * mu)``.
Monte Carlo sampling is counter-based: gates are split into fixed blocks of
``2**20`` and each block draws its click count from an independent Philox
substream keyed by ``(seed, block_index)``. The keyed blocks, summed
serially, define the draws: a click record depends only on the seed, the
gate count and the click probability.

A scan is seeded through :func:`derive_seeds` (:func:`derive_seed` over
arrays of point indices) and sampled through :func:`sample_scan`, which
rekeys one Philox generator for every ``(seed, block)`` pair of the scan;
:func:`sample_gates` is its one-point case. Neither holds state between
calls. On a 2-core Xeon a 4e6-gate point of a fig6 scan (4 blocks) costs
about 15 us with its seed, closed form and fit, and a 1e9-gate point (954
blocks) 1.5-1.9 ms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

BLOCK_GATES = 1 << 20

_MAX_SEED = 2**64
_MASK32 = 0xFFFFFFFF


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
    gate_rate_hz: float

    def __post_init__(self) -> None:
        if self.gates < 1 or self.clicks < 0 or self.clicks > self.gates:
            raise ValueError(
                f"need 0 <= clicks <= gates and gates >= 1, got {self.clicks}/{self.gates}"
            )

    @property
    def p_click(self) -> float:
        return self.clicks / self.gates

    @property
    def sigma_p(self) -> float:
        """Binomial standard error of ``p_click``."""
        p = self.p_click
        return math.sqrt(p * (1.0 - p) / self.gates)

    @property
    def rate_per_s(self) -> float:
        return self.p_click * self.gate_rate_hz


@dataclass(frozen=True)
class CorrectedRate:
    """Background-subtracted click probability with propagated uncertainty.

    ``p`` may come out negative when the background fluctuates above the
    signal run; it is reported as-is.
    """

    p: float
    sigma: float


def click_probability(mean_photons_at_detector: float, spec: DetectorSpec) -> float:
    """Click probability per gate for Poissonian light of the given mean."""
    mu = float(mean_photons_at_detector)
    if math.isnan(mu) or mu < 0.0:
        raise ValueError(f"mean photons must be >= 0, got {mu}")
    d = spec.dark_prob_per_gate
    # 1 - (1-d)*exp(-eta*mu), written via expm1 to keep precision at tiny mu
    return d + (1.0 - d) * (-math.expm1(-spec.efficiency * mu))


def sample_scan(p, spec: DetectorSpec, n_gates: int, seeds) -> list[CountSummary]:
    """Sample ``n_gates`` gates at each point of a scan.

    Point k clicks with probability ``p[k]`` per gate, and its blocks are
    keyed by ``(seeds[k], block)``, so each record is the one that point
    would get alone. One Philox generator per call is rekeyed for every
    ``(seed, block)`` pair.
    """
    n_gates = int(n_gates)
    if n_gates < 1:
        raise ValueError(f"n_gates must be >= 1, got {n_gates}")
    seeds = [int(s) for s in seeds]
    for seed in seeds:
        if not 0 <= seed < _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")

    bit_generator = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bit_generator)
    # key (seed, i), counter 0 and an empty buffer give exactly the stream of
    # a fresh Philox(key=(seed, i)), without the entropy-seeded SeedSequence
    # that building one per block would create and throw away; the state
    # setter reads plain lists about twice as fast as uint64 arrays
    key = [0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    n_blocks = (n_gates + BLOCK_GATES - 1) // BLOCK_GATES
    block_gates = [BLOCK_GATES] * (n_blocks - 1) + [n_gates - (n_blocks - 1) * BLOCK_GATES]
    records = []
    for seed, p_click in zip(seeds, p, strict=True):
        key[0] = seed
        clicks = 0
        for i, gates in enumerate(block_gates):
            key[1] = i
            bit_generator.state = state
            clicks += int(rng.binomial(gates, p_click))
        records.append(CountSummary(n_gates, clicks, spec.gate_rate_hz))
    return records


def sample_gates(
    mean_photons_at_detector: float,
    spec: DetectorSpec,
    n_gates: int,
    seed: int,
) -> CountSummary:
    """Sample independent gates and aggregate the clicks: the one-point
    :func:`sample_scan` at the click probability of the given mean.

    Deterministic for a fixed ``(seed, n_gates)``; the block decomposition
    defines the draws.
    """
    p = click_probability(mean_photons_at_detector, spec)
    return sample_scan([p], spec, n_gates, [seed])[0]


def dark_subtract(signal: CountSummary, background: CountSummary) -> CorrectedRate:
    """Subtract a background run from a signal run, propagating uncertainty."""
    if not math.isclose(signal.gate_rate_hz, background.gate_rate_hz, rel_tol=1e-12):
        raise ValueError("signal and background summaries must share a gate rate")
    p = signal.p_click - background.p_click
    sigma = math.hypot(signal.sigma_p, background.sigma_p)
    return CorrectedRate(p=p, sigma=sigma)


def derive_seed(master_seed: int, *path: int) -> int:
    """Stable 64-bit substream seed for (master seed, index path).

    The definition of every scenario point's seed, so per-point streams are
    reproducible for a fixed master seed and independent of evaluation
    order; scans compute the same seeds with :func:`derive_seeds`.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def _hasher(const: int, mult: int):
    """SeedSequence's word hash; each call advances the hash constant."""

    def hash_word(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hash_word


def derive_seeds(master, *index_arrays) -> np.ndarray:
    """:func:`derive_seed` over arrays of point indices, broadcast, at least 1-d.

    ``master`` is an int of any size or an array of uint64 seeds (such as a
    previous result); indices are integers in [0, 2**32). SeedSequence's hash
    runs in wrapping uint32 arithmetic: the words are hashmixed into a
    four-word pool, and two output words make ``generate_state(1, uint64)``.
    """
    if isinstance(master, int):
        if master < 0:
            raise ValueError(f"master seed must be >= 0, got {master}")
        words = [np.array([master >> s & _MASK32], dtype=np.uint32)
                 for s in range(0, max(master.bit_length(), 1), 32)]
    else:
        master = np.atleast_1d(np.asarray(master, dtype=np.uint64))
        words = [(master & _MASK32).astype(np.uint32), (master >> 32).astype(np.uint32)]
    # SeedSequence zero-pads the master to its four-word pool before the indices
    words += [np.zeros(1, dtype=np.uint32)] * (4 - len(words))
    for index in map(np.atleast_1d, index_arrays):
        if index.dtype.kind not in "iu" or np.any(index < 0) or np.any(index > _MASK32):
            raise ValueError("indices must be integers in [0, 2**32)")
        words.append(index.astype(np.uint32))

    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = x * 0xCA01F9DD - y * 0x4973F715
        return x ^ x >> 16

    pool = [hashmix(word) for word in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    low, high = map(_hasher(0x8B51F9DD, 0x58F38DED), pool[:2])
    return low.astype(np.uint64) | high.astype(np.uint64) << 32

"""Monte Carlo click records of the gated detector.

The click model is :func:`qfdc.model.click_probability`. Sampling is
counter-based: gates are split into fixed blocks of ``2**20`` and each
block draws its click count from an independent Philox substream keyed by
``(seed, block_index)``. The keyed blocks, summed serially, define the
draws: a click record depends only on the seed, the gate count and the
click probability.

A scan is seeded through :func:`derive_seeds` and sampled through
:func:`sample_scan`, which rekeys one Philox generator for every
``(seed, block)`` pair of the scan and returns each point's click count as
a plain int. Neither holds state between calls. Their one-point
definitions, ``derive_seed`` and ``sample_gates``, are in
:mod:`qfdc.reference`. On a shared 2-core Xeon whose clock speed varies
between runs, a 4e6-gate point of a fig6 scan (4 blocks) costs 11-14 us
with its seed, closed form and fit, of which the 4 rekeys and draws take
9-10 us, and a 1e9-gate point (954 blocks) about 2.2 ms.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from .model import _Record, _setfield

if TYPE_CHECKING:
    import numpy as np

BLOCK_GATES = 1 << 20

_MAX_SEED = 2**64
_MASK32 = 0xFFFFFFFF


class CountSummary(_Record):
    """Aggregated click statistics for a block of gates: the gates and their clicks."""

    __slots__ = ("gates", "clicks")

    def __init__(self, gates: int, clicks: int) -> None:
        _setfield(self, "gates", gates)
        _setfield(self, "clicks", clicks)
        if self.gates < 1 or self.clicks < 0 or self.clicks > self.gates:
            raise ValueError(
                f"need 0 <= clicks <= gates and gates >= 1, got {self.clicks}/{self.gates}"
            )

    @property
    def p_click(self) -> float:
        return self.clicks / self.gates

    @property
    def sigma_p(self) -> float:
        """Binomial standard error of ``p_click``, floored at one click in
        ``gates``; the floor takes over only at 0, 1, n-1 or n clicks of n,
        so no run, not even one without clicks, reads as exact."""
        p = self.p_click
        return max(math.sqrt(p * (1.0 - p) / self.gates), 1.0 / self.gates)


def sample_scan(p, n_gates: int, seeds) -> list[int]:
    """The click count of ``n_gates`` gates at each point of a scan.

    Point k clicks with probability ``p[k]`` per gate, and its blocks are
    keyed by ``(seeds[k], block)``, so each count is the one that point
    would get alone. One Philox generator per call is rekeyed for every
    ``(seed, block)`` pair.
    """
    import numpy as np
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
    blocks = list(enumerate([BLOCK_GATES] * (n_blocks - 1)
                            + [n_gates - (n_blocks - 1) * BLOCK_GATES]))
    binomial = rng.binomial
    counts = []
    for seed, p_click in zip(seeds, p, strict=True):
        key[0] = seed
        clicks = 0
        for i, gates in blocks:
            key[1] = i
            bit_generator.state = state
            clicks += binomial(gates, p_click)
        counts.append(int(clicks))
    return counts


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
    """:func:`qfdc.reference.derive_seed` over arrays of point indices,
    broadcast, at least 1-d.

    ``master`` is an int of any size or an array of uint64 seeds (such as a
    previous result); indices are integers in [0, 2**32). SeedSequence's hash
    runs in wrapping uint32 arithmetic: the words are hashmixed into a
    four-word pool, and two output words make ``generate_state(1, uint64)``.
    """
    import numpy as np
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

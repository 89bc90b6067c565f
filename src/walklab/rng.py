"""Deterministic 64-bit random number generation.

Every randomized component in the package draws from a splitmix-style
generator.  The k-th output of a stream depends only on (seed, k), which
makes scalar and block generation bit-identical and lets Monte Carlo
drivers hand out one independent stream per trial (seed XOR trial index)
without coordination.  Because the k-th output is a pure function of
(seed, k), `splitmix_block` computes the next draws of many streams in one
vector call; `SplitMix64.block_u64` is its one-stream case.  Runs are
therefore reproducible bit-for-bit within this implementation and
statistically across implementations.
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z &= MASK64
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    z ^= z >> 31
    return z


def splitmix_block(seeds: np.ndarray, counter: int, m: int) -> np.ndarray:
    """Outputs counter + 1 .. counter + m of every stream in `seeds`.

    Row i holds the next m draws of the stream seeded with seeds[i] whose
    counter stands at `counter`.  The array is counter-major in memory (its
    transpose is C-contiguous), so a column, one draw of every stream, is
    contiguous.
    """
    ks = np.arange(counter + 1, counter + m + 1, dtype=np.uint64)
    z = ks[:, None] * np.uint64(_GAMMA) + np.asarray(seeds, dtype=np.uint64)[None, :]
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z.T


class SplitMix64:
    """Counter-based splitmix64 stream."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self.counter = 0

    @classmethod
    def stream(cls, seed: int, index: int) -> "SplitMix64":
        """Derived stream for trial `index` of an experiment seeded with `seed`."""
        return cls((seed ^ index) & MASK64)

    def next_u64(self) -> int:
        self.counter += 1
        return _mix(self.seed + self.counter * _GAMMA)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n).  Modulo bias is O(n / 2**64)."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n

    def block_u64(self, m: int) -> np.ndarray:
        """Next m outputs as a uint64 array; continues the scalar stream exactly."""
        z = splitmix_block(np.array([self.seed], dtype=np.uint64), self.counter, m)[0]
        self.counter += m
        return z

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


MAX_BLOCK = 8192


class BufferedDraws:
    """Amortizes per-draw cost in tight simulation loops.

    Pulls blocks from a SplitMix64 stream and serves them one at a time; the
    consumed sequence is identical to calling next_u64 repeatedly.  The first
    block holds `block` draws and each refill doubles it up to MAX_BLOCK, so
    a short run generates few draws it never uses.
    """

    __slots__ = ("_rng", "_block", "_next")

    def __init__(self, rng: SplitMix64, block: int = 64):
        self._rng = rng
        self._block = block
        self._next = iter(()).__next__

    def u64(self) -> int:
        try:
            return self._next()
        except StopIteration:
            self._next = iter(self._rng.block_u64(self._block).tolist()).__next__
            if self._block < MAX_BLOCK:
                self._block = min(2 * self._block, MAX_BLOCK)
            return self._next()

"""Deterministic 64-bit random number generation.

Every randomized component in the package draws from a splitmix-style
generator.  The k-th output of a stream depends only on (seed, k mod 2^64),
which makes scalar and block generation bit-identical and lets Monte Carlo
drivers hand out one independent stream per trial (seed XOR trial index)
without coordination.  Because the k-th output is a pure function of
(seed, k), `splitmix_block` computes the next draws of many streams in one
vector call, from one counter for all of them or from a counter per stream
(a batch of walk trials, each where it left off);
`SplitMix64.block_u64` is its one-stream case.  Runs are
therefore reproducible bit-for-bit within this implementation and
statistically across implementations.

The stream format has one owner: `to_unit` decodes a draw (an int or a
uint64 array) to a uniform, `stream_seeds` derives a batch of trial seeds.
How a walk blocks its draws is decided in `walks`, which draws through
`splitmix_block` alone.
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


def to_unit(z: int | np.ndarray) -> float | np.ndarray:
    """Uniform in [0, 1) from the top 53 bits of a u64 draw, exactly; `z` is an
    int or a uint64 array (numpy >= 2 keeps `uint64 >> 11` unsigned)."""
    return (z >> 11) * 2.0**-53


def stream_seeds(seed: int, indices: np.ndarray) -> np.ndarray:
    """`SplitMix64.stream(seed, i).seed` for each trial index i >= 0, as uint64."""
    return np.uint64(seed & MASK64) ^ np.asarray(indices).astype(np.uint64)


def splitmix_block(seeds: np.ndarray, counter: int | list[int] | np.ndarray, m: int) -> np.ndarray:
    """Outputs counter + 1 .. counter + m of every stream in `seeds`.

    Row i holds the next m draws of the stream seeded with seeds[i] whose
    counter stands at `counter`, one int for every stream or one per stream
    (ints or a uint64 array, broadcast like `seeds`), of any size: output k
    depends on k mod 2^64 only, so each counter is reduced first.  The array is
    counter-major in memory (its transpose is C-contiguous), so a column,
    one draw of every stream, is contiguous.
    """
    if m < 0:
        raise ValueError(f"splitmix_block needs m >= 0, got {m}")
    at = np.asarray(counter & MASK64 if isinstance(counter, int) else [c & MASK64 for c in counter], dtype=np.uint64)
    ks = np.arange(1, m + 1, dtype=np.uint64)[:, None] + at
    z = ks * np.uint64(_GAMMA) + np.asarray(seeds, dtype=np.uint64)[None, :]
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
        return to_unit(self.next_u64())

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n).  Modulo bias is O(n / 2**64)."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n

    def block_u64(self, m: int) -> np.ndarray:
        """Next m outputs as a uint64 array; continues the scalar stream exactly.
        m < 0 raises ValueError (in `splitmix_block`) and leaves the counter."""
        z = splitmix_block(np.array([self.seed], dtype=np.uint64), self.counter, m)[0]
        self.counter += m
        return z

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: for i = n - 1 down to 1, swap items i
        and randrange(i + 1), with the n - 1 draws taken as one block."""
        n = len(items)
        picks = self.block_u64(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            items[i], items[j] = items[j], items[i]


"""Host-speed calibration for timings on a shared host.

On the reference host (2 vCPUs shared with other tenants, x86_64), the same
code runs up to 2x faster or slower from one minute to the next, which is
wider than any useful regression bound.  So every timed invocation is
bracketed by four fixed kernels written here, independent of walklab, that
stand for the kinds of work walklab does:

* `py`: an interpreted walk loop over tuples, ints and a bytearray;
* `small`: numpy calls on 64-element arrays, where per-call overhead rules;
* `dense`: elementwise passes over a 512 x 512 matrix and its transpose;
* `big`: a bitmask pass over 2^20 subsets, bound by memory bandwidth.

`speed()` is the mean, over the kernels, of the time each took divided by its
reference time below.  A timing divided by the mean of the speeds measured
just before and just after it is in reference seconds: seconds on the
reference host when it runs the kernels at their reference times.  Over ten
25 s runs per workload there, normalized pass-time medians spread by 2-8%
(IQR over median) against 15-66% raw.  The raw figures are printed alongside.
"""
from __future__ import annotations

import time

import numpy as np

# Median kernel times on the reference host (2 vCPUs, x86_64, Python 3.11.7,
# numpy 2.4.6).
REFERENCE_S = {"py": 0.0060, "small": 0.0064, "dense": 0.0130, "big": 0.0148}

_MASK = (1 << 64) - 1
_ADJ = tuple(tuple((v + d) % 64 for d in (1, 63, 7)) for v in range(64))
_IDX = np.arange(64) ^ 5


def _py() -> None:
    x, cur, seen = 1, 0, bytearray(64)
    for _ in range(12000):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        nbrs = _ADJ[cur]
        cur = nbrs[(x >> 33) % len(nbrs)]
        if not seen[cur]:
            seen[cur] = 1


def _small() -> None:
    a = np.arange(64.0)
    for _ in range(250):
        b = np.stack([a[_IDX], a, a[::-1]])
        a = b.mean(axis=0) * 0.5 + b.max(axis=0) * 0.5


# The dense and big kernels allocate their arrays on each call, so that
# calibrating between invocations leaves no memory behind in the measured
# process.


def _dense() -> None:
    m = np.linspace(0.0, 1.0, 512 * 512).reshape(512, 512)
    pi = np.linspace(1.0, 2.0, 512)
    for _ in range(2):
        f = pi[:, None] * m
        float(np.max(np.abs(f - f.T)))
        float(np.max(np.abs(m.sum(axis=1) - 1.0)))


def _big() -> None:
    masks = np.arange(1 << 20, dtype=np.uint32)
    acc = np.zeros(1 << 20)
    sel = ((masks >> np.uint32(3)) & np.uint32(1)).astype(bool)
    acc[sel] += 1.0


KERNELS = {"py": _py, "small": _small, "dense": _dense, "big": _big}


def kernel_times() -> dict[str, float]:
    times = {}
    for name, kernel in KERNELS.items():
        start = time.perf_counter()
        kernel()
        times[name] = time.perf_counter() - start
    return times


def speed(log: list | None = None) -> float:
    """Host slowness now: 1.0 at the reference times, 1.3 when 30% slower.

    Appends the kernel times to `log` when one is given."""
    times = kernel_times()
    if log is not None:
        log.append(times)
    return sum(times[name] / REFERENCE_S[name] for name in KERNELS) / len(KERNELS)

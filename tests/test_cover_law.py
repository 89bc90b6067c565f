"""The walk engines against the exact cover-time law.

One backward pass of the event DP on the cover event with horizon T gives,
from a fixed start, p(t) = P(tau_cov <= t) for the simple random walk and
q*(t), the best any eps-biased strategy can reach, for every t <= T.  The
empirical law F_N of N seeded cover times then lies within the
Dvoretzky-Kiefer-Wolfowitz band sqrt(ln(2 / alpha) / (2 N)) (Massart's
constant, Ann. Probab. 18, 1990) of p with probability at least 1 - alpha,
and no eps-biased walk's F_N exceeds q* by more than the band.  alpha and N
are fixed; each seed is a hash of the case's label.
"""

import hashlib
import math

import numpy as np
import pytest

from walklab.graphs import parse_generate_spec
from walklab.oracle import EventKind, EventSpec, _horizon_values
from walklab.walks import WalkSpec, estimate_cover_time

ALPHA = 1e-6
START = 0


def dkw_band(trials: int) -> float:
    return math.sqrt(math.log(2.0 / ALPHA) / (2.0 * trials))


def label_seed(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


def cover_law_deviation(g, kind: str, eps: float, trials: int, label: str) -> float:
    """sup_t |F_N - p| for srw, sup_t (F_N - q*) at eps for a biased kind."""
    est = estimate_cover_time(g, WalkSpec(kind=kind, eps=eps, start=START), trials=trials, seed=label_seed(label))
    steps = np.array(est.steps)
    horizon = int(steps.max())
    empirical = np.cumsum(np.bincount(steps, minlength=horizon + 1)) / trials
    # F_N and the exact law both reach 1 as t grows past T, and the exact law
    # only rises, so the sup over t <= T is the sup over all t
    exact = np.array(_horizon_values(g, START, [EventSpec(EventKind.COVER_ALL, horizon)], (eps,))[0][0])
    if kind == "srw":
        return float(np.max(np.abs(empirical - exact)))
    return float(np.max(empirical - exact))


@pytest.mark.parametrize(
    "spec, kind, eps, trials",
    [
        ("complete:4", "srw", 0.0, 20000),
        ("random-regular:12:3:5", "srw", 0.0, 20000),
        ("cycle:12", "srw", 0.0, 20000),
        ("cycle:12", "sweep", 0.25, 20000),
        ("random-regular:12:3:5", "phase", 0.25, 2000),
    ],
)
def test_cover_times_follow_the_exact_law(spec, kind, eps, trials):
    g = parse_generate_spec(spec)
    deviation = cover_law_deviation(g, kind, eps, trials, f"cover law {spec} {kind} eps={eps}")
    assert deviation <= dkw_band(trials), (deviation, dkw_band(trials))

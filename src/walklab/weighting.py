"""Positive edge weightings and the reversible chains they induce.

A weighting w assigns a positive weight to every edge of its graph
`w.graph`; the induced chain `induced_chain(w)` moves from x to y with
probability w(x,y) / w(x), where w(x) sums the weights at x, and its
stationary law is pi(x) = w(x) / W with W = sum_x w(x).  Every function of a
weighting reads the graph from w, so no second graph can disagree with it.
The smoothness of a weighting is measured by its Lipschitz constant: the
largest ratio between weights of two edges sharing a vertex.  A
beta-Lipschitz weighting distorts stationary mass between vertices at
distance k by at most (d_max beta^2 / d_min)^k, and that bound is what
`stationary_ratio_audit(w, k)` checks, over all pairs at once on the graph's
cached distance matrix.

Per-vertex and per-edge work indexes the graph's slot table: strengths are
one `bincount` over it, `lipschitz_beta` reduces each vertex's slice to
max / min, and `slot_transitions(w)` gives the checked P on every slot in
O(m), for `induced_chain(w)`'s dense matrix (refused above 512 vertices,
before it allocates), the Section 3 flows and the phase walk alike.
`random_lipschitz_weighting` perturbs one edge per move.  Its base and
every accepted move keep each vertex ratio within sigma (1 + RATIO_TOL), so
a move on edge (a, b) is accepted iff the recomputed ratios at a and b are
within it: the global test beta <= sigma (1 + RATIO_TOL) at
O(deg a + deg b) per move instead of O(m).  A move whose new weight is not
positive and finite is rejected like one that breaks the bound.

Two structured constructions appear throughout: `target_decay_weighting`
tilts the walk toward a target set U via w(u,v) = (1-theta)^{max of the two
BFS distances to U}, and `bottleneck_weighting` suppresses flow across the
middle of a diametral pair via w(x,y) = beta^{-dist({x,y}, {u,v})}.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .chains import BALANCE_TOL, ROW_SUM_TOL, SPECTRAL_GUARD, ChainError, ReversibleChain
from .graphs import Graph, GraphFileError, GuardError, WalklabError, content_lines, diameter, distances_from, parse_endpoints
from .rng import SplitMix64

RATIO_TOL = 1e-12

__all__ = [
    "EdgeWeighting",
    "WeightingError",
    "uniform_weighting",
    "target_decay_weighting",
    "bottleneck_weighting",
    "lipschitz_beta",
    "slot_transitions",
    "induced_chain",
    "stationary_ratio_audit",
    "random_lipschitz_weighting",
    "parse_weighting_text",
    "read_weighting_file",
]


class WeightingError(WalklabError):
    """Invalid edge weighting (non-positive weight, wrong edge set, ...)."""


@dataclass(frozen=True)
class EdgeWeighting:
    """Positive weights indexed by the graph's canonical edge order.

    `weights` may also be a (..., m) stack of weightings of one graph, as the
    phase walk builds one per trial: `strengths`, `total`, `pi` and
    `slot_transitions` then hold one result per weighting, each bit for bit
    that of the weighting alone, and every check runs on each.  The other
    functions of this module take a single weighting.
    """

    graph: Graph
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape[-1:] != (self.graph.m,):
            raise WeightingError(f"expected {self.graph.m} weights, got {w.shape}")
        if not np.isfinite(w).all() or (w <= 0.0).any():
            raise WeightingError("edge weights must be positive and finite")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @cached_property
    def strengths(self) -> np.ndarray:
        """Vertex strengths w(x) = sum of incident edge weights, each finite,
        added in canonical edge order."""
        g = self.graph
        s = _vertex_sums(g, self.weights.take(g.slots.edge, axis=-1))
        over = np.flatnonzero(~np.isfinite(s))
        if len(over):
            raise WeightingError(f"strength of vertex {over[0] % g.n} overflows the float range")
        s.setflags(write=False)
        return s

    @property
    def total(self) -> float | np.ndarray:
        """W = sum_x w(x) = twice the total edge weight, finite; one per weighting of a stack."""
        with np.errstate(over="ignore"):
            total = self.strengths.sum(axis=-1)
        if not np.isfinite(total).all():
            raise WeightingError("total edge weight overflows the float range")
        return float(total) if total.ndim == 0 else total

    @cached_property
    def pi(self) -> np.ndarray:
        """Stationary law pi(x) = w(x) / W of the induced chain."""
        pi = self.strengths / np.expand_dims(self.total, -1)
        pi.setflags(write=False)
        return pi


def _vertex_sums(g: Graph, x: np.ndarray) -> np.ndarray:
    """Per-vertex sums of slot values x (..., 2m), as (..., n).

    One `bincount` over the whole stack: each vertex's slots are added in
    slot order, so every member sums bit for bit as it would alone.
    """
    flat = x.reshape(math.prod(x.shape[:-1]), x.shape[-1])
    bins = g.slots.vertex + g.n * np.arange(len(flat))[:, None]
    sums = np.bincount(bins.reshape(-1), weights=flat.reshape(-1), minlength=len(flat) * g.n)
    return sums.reshape(x.shape[:-1] + (g.n,))


def uniform_weighting(g: Graph) -> EdgeWeighting:
    return EdgeWeighting(g, np.ones(g.m))


def _vertex_ratios(w: EdgeWeighting) -> np.ndarray:
    """max / min of the weights incident to each vertex (inf on overflow)."""
    sl = w.graph.slots
    inc = w.weights[sl.edge]
    with np.errstate(over="ignore"):
        return np.maximum.reduceat(inc, sl.offsets[:-1]) / np.minimum.reduceat(inc, sl.offsets[:-1])


def lipschitz_beta(w: EdgeWeighting) -> float:
    """Smallest beta such that w is beta-Lipschitz.

    Equivalently: the largest ratio max/min over the weights incident to a
    single vertex, maximized over vertices, and at least 1.  A weighting is
    beta'-Lipschitz iff beta' >= this value (ratio comparisons carry a 1e-12
    relative tolerance downstream).  A ratio beyond the float range gives
    inf.
    """
    if w.graph.m == 0:
        return 1.0
    return float(_vertex_ratios(w).max(initial=1.0))


def target_decay_weighting(g: Graph, targets: Iterable[int], theta: float) -> EdgeWeighting:
    """w(u,v) = (1-theta)^{max(dist(u,U), dist(v,U))} for a target set U.

    theta = 0 gives the uniform weighting; any theta in [0, 1) yields a
    1/(1-theta)-Lipschitz weighting because adjacent vertices differ in
    distance-to-U by at most one.
    """
    u_set = sorted(set(map(int, targets)))
    if not u_set:
        raise WeightingError("target decay needs a non-empty target set")
    return _target_decay(g, distances_from(g, u_set), theta)


def _target_decay(g: Graph, dist: np.ndarray, theta: float) -> EdgeWeighting:
    """The target-decay weighting from the distances (..., n) of every vertex
    to U; a stack of them for a stack of distance rows."""
    if not (0.0 <= theta < 1.0):
        raise WeightingError("target decay needs theta in [0, 1)")
    powers = [(1.0 - theta) ** k for k in range(int(dist.max()) + 1)]
    if powers[-1] == 0.0:
        raise WeightingError(f"target decay with tilt theta = {theta!r} underflows: its weight (1 - theta)^k "
                             f"is 0 from distance k = {powers.index(0.0)} on")
    sl = g.slots
    return EdgeWeighting(g, np.array(powers)[dist.take(sl.vertex[sl.edge_slots], axis=-1).max(axis=-2)])


def bottleneck_weighting(g: Graph, beta: float) -> tuple[EdgeWeighting, tuple[int, int]]:
    """w(x,y) = beta^{-dist({x,y}, {u,v})} for the diametral pair (u, v).

    dist({x,y}, {u,v}) is the smaller of the two endpoint distances to the
    two-point set {u, v}.  Requires diameter >= 4 and beta > 1; returns the
    weighting together with the pair it is anchored to.
    """
    if beta <= 1.0:
        raise WeightingError("bottleneck weighting needs beta > 1")
    d, (u, v) = diameter(g)
    if d < 4:
        raise WeightingError(f"bottleneck weighting needs diameter >= 4, got {d}")
    dist = np.minimum(g.distance_matrix[u], g.distance_matrix[v])
    powers = np.array([beta ** -float(k) for k in range(int(dist.max()) + 1)])
    sl = g.slots
    return EdgeWeighting(g, powers[dist[sl.vertex[sl.edge_slots]].min(axis=0)]), (u, v)


def slot_transitions(w: EdgeWeighting) -> np.ndarray:
    """P(v, u) = w(v, u) / w(v) of the induced chain on every slot of the graph.

    O(m), and (..., 2m) for a stack.  Raises ChainError unless every row sums
    to 1 and detailed balance pi(v) P(v, u) = pi(u) P(u, v) holds on every
    edge, both within 1e-12.
    """
    sl = w.graph.slots
    p = w.weights.take(sl.edge, axis=-1) / w.strengths.take(sl.vertex, axis=-1)
    if np.max(np.abs(_vertex_sums(w.graph, p) - 1.0)) > ROW_SUM_TOL:
        raise ChainError("rows must sum to 1 within 1e-12")
    # the flow pi(v) P(v, u) of each edge's two slots, gathered one side at a
    # time so no (..., 2m) flow array is held
    a, b = sl.edge_slots
    gap = w.pi.take(sl.vertex[a], axis=-1) * p.take(a, axis=-1)
    gap -= w.pi.take(sl.vertex[b], axis=-1) * p.take(b, axis=-1)
    if np.max(np.abs(gap, out=gap)) > BALANCE_TOL:
        raise ChainError("detailed balance fails at 1e-12")
    return p


def induced_chain(w: EdgeWeighting) -> ReversibleChain:
    """P(x,y) = w(x,y)/w(x) on the edges of w.graph, with stationary law
    pi(x) = w(x)/W, as a dense n x n chain: refused above SPECTRAL_GUARD
    vertices, before anything of that size is allocated."""
    g = w.graph
    if g.n < 2:
        raise WeightingError("induced chain needs n >= 2")
    if g.n > SPECTRAL_GUARD:
        raise GuardError(f"induced_chain is dense; n={g.n} exceeds guard {SPECTRAL_GUARD}")
    sl = g.slots
    p = np.zeros((g.n, g.n))
    p[sl.vertex, sl.neighbor] = slot_transitions(w)
    return ReversibleChain(p, w.pi)


def stationary_ratio_audit(w: EdgeWeighting, k: int, beta: float | None = None) -> bool:
    """Stationary mass distortion over distance.

    Verifies, for every pair x, y with dist(x,y) <= k,
        (d_min / (d_max beta^2))^k <= pi(x)/pi(y) <= (d_max beta^2 / d_min)^k
    with beta = lipschitz_beta(w) by default; passing a claimed beta
    audits against that budget instead.  Comparisons carry a 1e-12 relative
    tolerance.  A bound beyond the float range is inf, which every ratio
    meets.
    """
    if k < 0:
        raise WeightingError("stationary_ratio_audit needs k >= 0")
    g = w.graph
    beta = lipschitz_beta(w) if beta is None else float(beta)
    if math.isnan(beta):
        raise WeightingError("stationary_ratio_audit needs a beta that is not nan")
    d_min = min(g.degrees)
    d_max = max(g.degrees)
    if d_min == 0:
        raise WeightingError("stationary_ratio_audit needs n >= 2")
    try:
        bound = (d_max * beta * beta / d_min) ** k
    except OverflowError:
        bound = math.inf
    pi = w.pi
    if not np.all(pi > 0.0):
        raise WeightingError(f"stationary mass of vertex {int(np.argmin(pi))} underflows to 0")
    with np.errstate(over="ignore"):
        ratio = pi[:, None] / pi[None, :]
    bad = (ratio > bound * (1.0 + RATIO_TOL)) | (ratio < (1.0 - RATIO_TOL) / bound)
    return not bool(np.any(bad & (g.distance_matrix <= k)))


def random_lipschitz_weighting(g: Graph, sigma: float, rng: SplitMix64) -> EdgeWeighting:
    """Random member of the sigma-Lipschitz family used by the audit suites.

    Starts from one of three bases chosen at random: uniform, target decay
    with theta = 1 - 1/sigma toward a random non-empty set, or (when the
    diameter allows it) a bottleneck weighting with ratio capped at sigma.
    A base that cannot be built, or whose vertex ratios round past sigma
    (theta = 1 - 1/sigma loses 1/sigma as sigma nears 2^53), is replaced by
    the uniform base after its draws are taken.  Then applies 3m random
    single-edge multiplicative perturbations with factors in [1/sigma,
    sigma], rejecting any move that would push the Lipschitz constant beyond
    sigma or the weight out of the positive float range.  Every round draws
    an edge and a factor, accepted or not.
    """
    if not (sigma >= 1.0 and math.isfinite(sigma)):
        raise WeightingError("random family needs a finite sigma >= 1")
    n, m = g.n, g.m
    limit = sigma * (1.0 + RATIO_TOL)
    base_kind = rng.randrange(3)
    w = None
    if base_kind == 1 and sigma > 1.0:
        size = 1 + rng.randrange(max(1, n // 2))
        targets = set()
        while len(targets) < size:
            targets.add(rng.randrange(n))
        with contextlib.suppress(WeightingError):
            w = target_decay_weighting(g, targets, 1.0 - 1.0 / sigma)
    elif base_kind == 2 and sigma > 1.0:
        with contextlib.suppress(WeightingError):
            w, _ = bottleneck_weighting(g, sigma)
    if w is None or (m and np.max(_vertex_ratios(w)) > limit):
        w = uniform_weighting(g)
    log_sigma = math.log(sigma) if sigma > 1.0 else 0.0
    if log_sigma == 0.0 or m == 0:
        return w
    incident = [ids.tolist() for ids in np.split(g.slots.edge, g.slots.offsets[1:-1])]
    weights = w.weights.tolist()

    def ratio_at(v: int) -> float:
        inc = [weights[i] for i in incident[v]]
        return max(inc) / min(inc)

    for _ in range(3 * m):
        e = rng.randrange(m)
        factor = math.exp((2.0 * rng.next_float() - 1.0) * log_sigma)
        old = weights[e]
        new = old * factor
        if not 0.0 < new < math.inf:
            continue
        a, b = g.edges[e]
        weights[e] = new
        if ratio_at(a) > limit or ratio_at(b) > limit:
            weights[e] = old
    return EdgeWeighting(g, np.array(weights))


# ---------------------------------------------------------------------------
# file format: one "u v weight" line per edge, read by `graphs.content_lines`


def parse_weighting_text(text: str, g: Graph) -> EdgeWeighting:
    weights = np.full(g.m, np.nan)
    for lineno, body, _ in content_lines(text):
        tok = body.split()
        if len(tok) != 3:
            raise GraphFileError("weight line must be 'u v weight'", lineno)
        u, v = parse_endpoints(tok, lineno)
        try:
            value = float(tok[2])
        except ValueError:
            raise GraphFileError("weight must be a number", lineno) from None
        key = (min(u, v), max(u, v))
        idx = g.edge_index.get(key)
        if idx is None:
            raise GraphFileError(f"edge {key} is not in the graph", lineno)
        if not math.isnan(weights[idx]):
            raise GraphFileError(f"edge {key} weighted twice", lineno)
        if value <= 0 or not math.isfinite(value):
            raise GraphFileError("weights must be positive and finite", lineno)
        weights[idx] = value
    missing = np.flatnonzero(np.isnan(weights))
    if missing.size:
        u, v = g.edges[int(missing[0])]
        raise GraphFileError(f"edge ({u}, {v}) has no weight")
    return EdgeWeighting(g, weights)


def read_weighting_file(path, g: Graph) -> EdgeWeighting:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_weighting_text(fh.read(), g)


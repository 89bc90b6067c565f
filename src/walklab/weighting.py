"""Positive edge weightings and the reversible chains they induce.

A weighting w assigns a positive weight to every edge; the induced chain
moves from x to y with probability w(x,y) / w(x), where w(x) sums the
weights at x, and its stationary law is pi(x) = w(x) / W with
W = sum_x w(x).  The smoothness of a weighting is measured by its Lipschitz
constant: the largest ratio between weights of two edges sharing a vertex.
A beta-Lipschitz weighting distorts stationary mass between vertices at
distance k by at most (d_max beta^2 / d_min)^k, and that bound is what
`stationary_ratio_audit` checks, over all pairs at once on the graph's
cached distance matrix.

`lipschitz_beta` reduces each vertex's slice of the graph's incidence table
to max / min.  `random_lipschitz_weighting` perturbs one edge per move and
keeps the per-vertex ratios and the number of vertices above
sigma (1 + RATIO_TOL): a move on edge (a, b) recomputes only the ratios at a
and b, and is accepted iff no other vertex is above the bound and both new
ratios are within it.  That is the global test beta <= sigma (1 + RATIO_TOL)
at O(deg a + deg b) per move instead of O(m).  A move whose new weight is
not positive and finite is rejected like one that breaks the bound.

Two structured constructions appear throughout: `target_decay_weighting`
tilts the walk toward a target set U via w(u,v) = (1-theta)^{max of the two
BFS distances to U}, and `bottleneck_weighting` suppresses flow across the
middle of a diametral pair via w(x,y) = beta^{-dist({x,y}, {u,v})}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .chains import ReversibleChain
from .graphs import Graph, GraphFileError, diameter, distances_from
from .rng import SplitMix64

RATIO_TOL = 1e-12

__all__ = [
    "EdgeWeighting",
    "WeightingError",
    "uniform_weighting",
    "target_decay_weighting",
    "bottleneck_weighting",
    "lipschitz_beta",
    "induced_chain",
    "stationary_ratio_audit",
    "random_lipschitz_weighting",
    "parse_weighting_text",
    "format_weighting_text",
    "read_weighting_file",
]


class WeightingError(ValueError):
    """Invalid edge weighting (non-positive weight, wrong edge set, ...)."""


@dataclass(frozen=True)
class EdgeWeighting:
    """Positive weights indexed by the graph's canonical edge order."""

    graph: Graph
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.graph.m,):
            raise WeightingError(f"expected {self.graph.m} weights, got {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise WeightingError("edge weights must be positive and finite")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def weight(self, u: int, v: int) -> float:
        key = (min(u, v), max(u, v))
        idx = self.graph.edge_index.get(key)
        if idx is None:
            raise WeightingError(f"no edge {key}")
        return float(self.weights[idx])

    @cached_property
    def strengths(self) -> np.ndarray:
        """Vertex strengths w(x) = sum of incident edge weights, each finite."""
        s = np.zeros(self.graph.n)
        with np.errstate(over="ignore"):
            for idx, (u, v) in enumerate(self.graph.edges):
                s[u] += self.weights[idx]
                s[v] += self.weights[idx]
        over = np.flatnonzero(~np.isfinite(s))
        if len(over):
            raise WeightingError(f"strength of vertex {over[0]} overflows the float range")
        s.setflags(write=False)
        return s

    @property
    def total(self) -> float:
        """W = sum_x w(x) = twice the total edge weight, finite."""
        with np.errstate(over="ignore"):
            total = float(self.strengths.sum())
        if not math.isfinite(total):
            raise WeightingError("total edge weight overflows the float range")
        return total


def uniform_weighting(g: Graph) -> EdgeWeighting:
    return EdgeWeighting(g, np.ones(g.m))


def _vertex_ratios(g: Graph, weights: np.ndarray) -> np.ndarray:
    """max / min of the weights incident to each vertex (inf on overflow)."""
    ids, offsets = g.incidence
    inc = weights[ids]
    with np.errstate(over="ignore"):
        return np.maximum.reduceat(inc, offsets[:-1]) / np.minimum.reduceat(inc, offsets[:-1])


def lipschitz_beta(g: Graph, w: EdgeWeighting) -> float:
    """Smallest beta such that w is beta-Lipschitz.

    Equivalently: the largest ratio max/min over the weights incident to a
    single vertex, maximized over vertices, and at least 1.  A weighting is
    beta'-Lipschitz iff beta' >= this value (ratio comparisons carry a 1e-12
    relative tolerance downstream).  A ratio beyond the float range gives
    inf.
    """
    if w.graph is not g and w.graph != g:
        raise WeightingError("weighting belongs to a different graph")
    if g.m == 0:
        return 1.0
    return float(_vertex_ratios(g, w.weights).max(initial=1.0))


def target_decay_weighting(g: Graph, targets: Iterable[int], theta: float) -> EdgeWeighting:
    """w(u,v) = (1-theta)^{max(dist(u,U), dist(v,U))} for a target set U.

    theta = 0 gives the uniform weighting; any theta in [0, 1) yields a
    1/(1-theta)-Lipschitz weighting because adjacent vertices differ in
    distance-to-U by at most one.
    """
    if not (0.0 <= theta < 1.0):
        raise WeightingError("target decay needs theta in [0, 1)")
    u_set = sorted(set(int(v) for v in targets))
    if not u_set:
        raise WeightingError("target decay needs a non-empty target set")
    dist = distances_from(g, u_set)
    decay = 1.0 - theta
    weights = np.array(
        [decay ** int(max(dist[a], dist[b])) for a, b in g.edges], dtype=float
    )
    return EdgeWeighting(g, weights)


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
    weights = np.array(
        [beta ** (-float(min(dist[a], dist[b]))) for a, b in g.edges], dtype=float
    )
    return EdgeWeighting(g, weights), (u, v)


def induced_chain(g: Graph, w: EdgeWeighting) -> ReversibleChain:
    """P(x,y) = w(x,y)/w(x) with stationary law pi(x) = w(x)/W."""
    n = g.n
    if n < 2:
        raise WeightingError("induced chain needs n >= 2")
    p = np.zeros((n, n))
    s = w.strengths
    for idx, (a, b) in enumerate(g.edges):
        p[a, b] = w.weights[idx] / s[a]
        p[b, a] = w.weights[idx] / s[b]
    pi = s / w.total
    return ReversibleChain(p, pi)


def stationary_ratio_audit(g: Graph, w: EdgeWeighting, k: int, beta: float | None = None) -> bool:
    """Stationary mass distortion over distance.

    Verifies, for every pair x, y with dist(x,y) <= k,
        (d_min / (d_max beta^2))^k <= pi(x)/pi(y) <= (d_max beta^2 / d_min)^k
    with beta = lipschitz_beta(g, w) by default; passing a claimed beta
    audits against that budget instead.  Comparisons carry a 1e-12 relative
    tolerance.  A bound beyond the float range is inf, which every ratio
    meets.
    """
    if k < 0:
        raise WeightingError("stationary_ratio_audit needs k >= 0")
    beta = lipschitz_beta(g, w) if beta is None else float(beta)
    d_min = min(g.degrees)
    d_max = max(g.degrees)
    try:
        bound = (d_max * beta * beta / d_min) ** k
    except OverflowError:
        bound = math.inf
    pi = w.strengths / w.total
    if not np.all(pi > 0.0):
        raise WeightingError(f"stationary mass of vertex {int(np.argmin(pi))} underflows to 0")
    with np.errstate(over="ignore"):
        ratio = pi[:, None] / pi[None, :]
    bad = (ratio > bound * (1.0 + RATIO_TOL)) | (ratio < (1.0 - RATIO_TOL) / bound)
    return not bool(np.any(bad & (g.distance_matrix <= k)))


def random_lipschitz_weighting(
    g: Graph,
    sigma: float,
    rng: SplitMix64,
    rounds: int | None = None,
) -> EdgeWeighting:
    """Random member of the sigma-Lipschitz family used by the audit suites.

    Starts from one of three bases chosen at random: uniform, target decay
    with theta = 1 - 1/sigma toward a random non-empty set, or (when the
    diameter allows it) a bottleneck weighting with ratio capped at sigma.
    Then applies random single-edge multiplicative perturbations with factors
    in [1/sigma, sigma], rejecting any move that would push the Lipschitz
    constant beyond sigma or the weight out of the positive float range.
    Every round draws an edge and a factor, accepted or not.
    """
    if not (sigma >= 1.0 and math.isfinite(sigma)):
        raise WeightingError("random family needs a finite sigma >= 1")
    n, m = g.n, g.m
    base_kind = rng.randrange(3)
    if base_kind == 1 and sigma > 1.0:
        size = 1 + rng.randrange(max(1, n // 2))
        targets = set()
        while len(targets) < size:
            targets.add(rng.randrange(n))
        w = target_decay_weighting(g, targets, 1.0 - 1.0 / sigma)
    elif base_kind == 2 and sigma > 1.0:
        try:
            w, _ = bottleneck_weighting(g, sigma)
        except WeightingError:
            w = uniform_weighting(g)
    else:
        w = uniform_weighting(g)
    if rounds is None:
        rounds = 3 * m
    log_sigma = math.log(sigma) if sigma > 1.0 else 0.0
    if log_sigma == 0.0 or m == 0:
        return w
    limit = sigma * (1.0 + RATIO_TOL)
    ids, offsets = g.incidence
    incident = [ids[offsets[v] : offsets[v + 1]].tolist() for v in range(n)]
    weights = w.weights.tolist()
    ratios = _vertex_ratios(g, w.weights).tolist()
    over = sum(r > limit for r in ratios)

    def ratio_at(v: int) -> float:
        inc = [weights[i] for i in incident[v]]
        return max(inc) / min(inc)

    for _ in range(rounds):
        e = rng.randrange(m)
        factor = math.exp((2.0 * rng.next_float() - 1.0) * log_sigma)
        old = weights[e]
        new = old * factor
        if not 0.0 < new < math.inf:
            continue
        a, b = g.edges[e]
        others = over - (ratios[a] > limit) - (ratios[b] > limit)
        weights[e] = new
        ra, rb = ratio_at(a), ratio_at(b)
        if others == 0 and ra <= limit and rb <= limit:
            ratios[a], ratios[b] = ra, rb
            over = 0
        else:
            weights[e] = old
    return EdgeWeighting(g, np.array(weights))


# ---------------------------------------------------------------------------
# file format: one "u v weight" line per edge; '#' starts a comment


def parse_weighting_text(text: str, g: Graph) -> EdgeWeighting:
    weights = np.full(g.m, np.nan)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tok = body.split()
        if len(tok) != 3:
            raise GraphFileError("weight line must be 'u v weight'", lineno)
        try:
            u, v = int(tok[0]), int(tok[1])
        except ValueError:
            raise GraphFileError("edge endpoints must be integers", lineno) from None
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


def format_weighting_text(w: EdgeWeighting) -> str:
    lines = [f"{u} {v} {float(w.weights[i])!r}" for i, (u, v) in enumerate(w.graph.edges)]
    return "\n".join(lines) + "\n"


def read_weighting_file(path, g: Graph) -> EdgeWeighting:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_weighting_text(fh.read(), g)


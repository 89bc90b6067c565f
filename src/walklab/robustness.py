"""Robustness audits for Lipschitz-weighted chains on expanders.

For a d-regular graph with vertex expansion psi, set

    K = ceil(2 / log(1 + psi)),   sigma = exp(1 / (2 K)).

For any sigma-Lipschitz weighting the stationary law is flat enough that the
following structure exists, and each piece is checked here numerically:

* `bucket_ids` gives every vertex its geometric stationary-mass bucket,
  V_i = { v : pi(v) in (e^-i, e^-(i-1)] }, as one int array.  K-step balls
  never straddle more than the two adjacent buckets.
* `representative_blocks` runs the block/gap recursion on the occupied
  bucket sizes of a set S: a block keeps absorbing the next bucket while it
  is large (more than alpha/2 times the block so far, alpha = ALPHA = e^2),
  the witness bucket that ends a block opens a gap, and a new block starts
  at the next size increase after the witness.  The blocks R_1..R_L are the
  "representatives" R of S; each is a vertex mask.
* `section3_lemma_audit` checks the four quantitative facts about R for
  every set S of one weighting:
  pi(R) >= pi(S)/22, pi(S_{b_l}) >= pi(R_l)/11, |B_2K(R_l) \\ S| >= |R_l|/3,
  and the 2K-step flow Q(R_l, S^c) >= d^-2K pi(R_l)/90 (skipped for
  bipartite graphs, whose 2K-step chain never leaves one side of the
  bipartition, so the flow from that side to its complement is 0).  Sets
  and blocks are vertex masks and masses are sums of w.pi over a mask.
  Every 2K-ball of a call comes from one multi-source BFS (`bfs_columns`,
  a column per block), and the flows from one stack of 2K slot matvecs
  P^2K 1_{S^c}: no n x n matrix is built.
* `theorem31_check` verifies the endpoint bounds: conductance of the
  2K-step chain at least d^-2K/4000 (exhaustively, n <= SUBSET_GUARD, as
  far as exact psi reaches; skipped for bipartite graphs, whose even-step
  chains are reducible and have zero conductance) and spectral gap at least
  1e-8 d^-4K (n <= 512).  Both verdicts compare logarithms, so a bound
  that underflows the float range (printed as 0.0) is still checked.  It
  and `section3_lemma_audit` resolve d, psi, K, sigma and beta the same
  way: a missing psi is `psi_lower_bound` (exact for n <= SUBSET_GUARD,
  the spectral lower bound above that).
* `random_subsets` draws the sets S that `robustness-audit` and
  `robustness-sweep` audit.
* `prop311_check` verifies the matching upper bound: a bottleneck weighting
  across a diametral pair pushes conductance below
  min(d^(floor(D/2)-1), n) * beta^(-floor(D/2)+3), witnessed by a ball
  around one endpoint.  Both endpoint balls are rows of the distance matrix
  the weighting is built from, cut at the radius, as vertex masks; their
  masses read w.pi and the cut Q(S, S^c) sums pi(v) P(v, u) over the slots
  leaving S, O(m): no n x n chain is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .chains import (
    HALF_MASS,
    SPECTRAL_GUARD,
    edge_conductance_exact,
    power_chain,
    spectral_gap,
)
from .graphs import (
    SUBSET_GUARD,
    Graph,
    GraphError,
    bfs_columns,
    is_bipartite,
    vertex_expansion_exact,
)
from .rng import SplitMix64
from .weighting import (
    RATIO_TOL,
    EdgeWeighting,
    _vertex_sums,
    bottleneck_weighting,
    induced_chain,
    lipschitz_beta,
    slot_transitions,
    uniform_weighting,
)

ALPHA = math.e**2
BUCKET_EDGE_TOL = 1e-12

__all__ = [
    "ALPHA",
    "LemmaCheck",
    "Section3Report",
    "Theorem31Report",
    "Prop311Report",
    "section3_K",
    "section3_sigma",
    "bucket_ids",
    "representative_blocks_from_sizes",
    "representative_blocks",
    "section3_lemma_audit",
    "random_subsets",
    "theorem31_check",
    "prop311_check",
]


def section3_K(psi: float) -> int:
    """K = ceil(2 / log(1 + psi)); log is natural."""
    if not (0.0 < psi < math.inf):
        raise GraphError("K needs a finite psi > 0")
    return math.ceil(2.0 / math.log1p(psi))


def section3_sigma(k: int) -> float:
    """Lipschitz budget sigma = exp(1 / (2K))."""
    if k < 1:
        raise GraphError("sigma needs K >= 1")
    return math.exp(1.0 / (2.0 * k))


# ---------------------------------------------------------------------------
# buckets and representative blocks


def bucket_index(pi_value: float) -> int:
    """Bucket of a stationary mass value.

    Mathematically floor(-log pi) + 1; a value within 1e-12 (relative) of a
    bucket edge e^-(i-1) is pushed into bucket i, matching the half-open
    interval convention (the edge belongs to the lower-mass bucket).
    """
    if not (0.0 < pi_value <= 1.0):
        raise GraphError("bucket_index needs pi in (0, 1]")
    x = -math.log(pi_value)
    return int(math.floor(x + BUCKET_EDGE_TOL)) + 1


def bucket_ids(w: EdgeWeighting) -> np.ndarray:
    """Bucket of every vertex: V_i = {v : ids[v] == i} holds pi in (e^-i, e^-(i-1)]."""
    return np.array([bucket_index(float(p)) for p in w.pi], dtype=np.int64)


def representative_blocks_from_sizes(sizes: Mapping[int, int]) -> list[tuple[int, int]]:
    """Block boundaries (a_l, b_l) from occupied bucket sizes.

    a_1 is the first occupied index.  Given a_l, the block ends at the
    smallest b >= a_l whose successor bucket is small:
    |S_{b+1}| <= (ALPHA/2) |S_{a_l} u ... u S_b|.  That successor bucket is
    the witness that closes the block; it always falls into the gap, and the
    next block starts at the first index past it where the size grows again
    (|S_a| > |S_{a-1}|).
    """
    occupied = sorted(i for i, c in sizes.items() if c > 0)
    if not occupied:
        raise GraphError("representative blocks need a non-empty set")
    if min(occupied) < 1:
        raise GraphError("bucket indices start at 1")

    def size(i: int) -> int:
        return int(sizes.get(i, 0))

    imax = occupied[-1]
    pairs: list[tuple[int, int]] = []
    a = occupied[0]
    while True:
        b = a
        csum = size(a)
        while size(b + 1) > (ALPHA / 2.0) * csum:
            b += 1
            csum += size(b)
        pairs.append((a, b))
        nxt = None
        for cand in range(b + 2, imax + 1):
            if size(cand) > size(cand - 1):
                nxt = cand
                break
        if nxt is None:
            break
        a = nxt
    return pairs


def representative_blocks(s: np.ndarray, ids: np.ndarray) -> list[tuple[tuple[int, int], np.ndarray]]:
    """Def-3.5 style blocks of the set with vertex mask `s`.

    The block recursion runs on the sizes |S_i| of S_i = S intersect V_i
    (`bucket_ids`); each block comes back as its bucket run (a_l, b_l) and
    its vertex mask s & (a_l <= ids <= b_l).
    """
    pairs = representative_blocks_from_sizes(dict(enumerate(np.bincount(ids[s]).tolist())))
    return [((a, b), s & (a <= ids) & (ids <= b)) for a, b in pairs]


# ---------------------------------------------------------------------------
# lemma audits


@dataclass
class LemmaCheck:
    """One audited inequality: lhs >= rhs - slack, with margin = lhs - rhs.

    A check that does not apply to the input carries a `skipped` reason,
    records no instances, and adds a "skipped" key to its JSON form.
    """

    name: str
    instances: int = 0
    failures: int = 0
    min_margin: float = math.inf
    skipped: str | None = None

    def record(self, lhs: float, rhs: float, slack: float) -> None:
        self.instances += 1
        margin = lhs - rhs
        self.min_margin = min(self.min_margin, margin)
        if margin < -slack:
            self.failures += 1

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        d = {
            "name": self.name,
            "instances": self.instances,
            "min_margin": None if math.isinf(self.min_margin) else self.min_margin,
            "failures": self.failures,
        }
        if self.skipped is not None:
            d["skipped"] = self.skipped
        return d


@dataclass
class Section3Report:
    checks: list[LemmaCheck] = field(default_factory=list)
    skipped: str | None = None

    @property
    def ok(self) -> bool:
        return self.skipped is None and all(c.ok for c in self.checks)


def _regular_degree_or_raise(g: Graph) -> int:
    d = g.regular_degree
    if d is None:
        raise GraphError("this audit needs a regular graph")
    return d


def _section3_scale(w: EdgeWeighting, psi: float | None) -> tuple[int, int, float, float, bool]:
    """(d, K, sigma, beta, rough) of a weighting, where rough says that beta
    exceeds the budget sigma; psi defaults to `psi_lower_bound`."""
    g = w.graph
    d = _regular_degree_or_raise(g)
    if psi is None:
        psi = psi_lower_bound(g)
    K = section3_K(psi)
    sigma, beta = section3_sigma(K), lipschitz_beta(w)
    return d, K, sigma, beta, beta > sigma * (1.0 + RATIO_TOL)


def section3_lemma_audit(
    w: EdgeWeighting, subsets: Iterable[Iterable[int]], psi: float | None = None
) -> list[Section3Report]:
    """Audit the representative-set lemmas for each set S, one report per set.

    Requires a regular graph and a sigma-Lipschitz weighting for the
    graph's own sigma = exp(1/(2K)); a rougher weighting skips every report,
    once every set is checked to be non-empty and in range.
    Sets with |S| > n/2 are reported as skipped, not failed, since the lemmas
    only speak about small sets.  On a bipartite graph the flow check is
    skipped with a reason: the 2K-step chain stays on one side, so S equal to
    a side has no flow to S^c.  Sets, blocks and buckets are vertex masks
    over `bucket_ids`, masses are sums of w.pi over a mask, every 2K-ball
    comes from one `bfs_columns` call with a column per block, and the flows
    of all sets come from one stack of 2K slot matvecs, O(K m) per set.
    """
    g = w.graph
    d, K, sigma, beta, rough = _section3_scale(w, psi)
    sets = []
    for subset in subsets:  # every set is checked before any skip or mask write
        vs = sorted({int(v) for v in subset})
        if not vs:
            raise GraphError("section3_lemma_audit needs a non-empty set")
        outside = [v for v in vs if not 0 <= v < g.n]
        if outside:  # a mask write of -1 would mark vertex n - 1
            raise GraphError(f"vertex {outside[0]} out of range for n={g.n}")
        sets.append(vs)
    if rough:
        reason = f"weighting is not sigma-Lipschitz (beta={beta:.6g} > sigma={sigma:.6g})"
        return [Section3Report(skipped=reason) for _ in sets]
    ids = bucket_ids(w)
    reports = []
    audited = []  # (report, S, blocks) of every set the lemmas speak about
    for vs in sets:
        report = Section3Report()
        reports.append(report)
        if 2 * len(vs) > g.n:
            report.skipped = f"|S|={len(vs)} exceeds n/2"
            continue
        s = np.zeros(g.n, dtype=bool)
        s[vs] = True
        audited.append((report, s, representative_blocks(s, ids)))
    if not audited:
        return reports
    dist = bfs_columns(g, np.column_stack([block for _, _, blocks in audited for _, block in blocks]))
    balls = iter(((dist >= 0) & (dist <= 2 * K)).T)
    if is_bipartite(g):
        flows = None
    else:
        # row i becomes pi * P^2K 1_{S_i^c}, each row bit for bit as it would be alone
        p, neighbor = slot_transitions(w), g.slots.neighbor
        h = (~np.array([s for _, s, _ in audited])).astype(float)
        for _ in range(2 * K):
            h = _vertex_sums(g, p * h.take(neighbor, axis=-1))
        flows = w.pi * h
    scale = d ** (-2.0 * K) / 90.0
    for i, (report, s, blocks) in enumerate(audited):
        c_mass = LemmaCheck("representative_mass_ge_S_over_22")
        c_top = LemmaCheck("top_bucket_ge_block_over_11")
        c_ball = LemmaCheck("ball_2K_outside_S_ge_block_over_3")
        c_flow = LemmaCheck("flow_2K_to_complement_ge_scaled_mass")
        report.checks = [c_mass, c_top, c_flow, c_ball]
        r = np.logical_or.reduce([block for _, block in blocks])
        c_mass.record(float(w.pi[r].sum()), float(w.pi[s].sum()) / 22.0, slack=1e-12)
        if flows is None:
            c_flow.skipped = (
                "bipartite graph: the 2K-step chain never leaves one side of the bipartition, "
                "so a side has no 2K-step flow to its complement"
            )
        for (_, b), block in blocks:
            mass = float(w.pi[block].sum())
            c_top.record(float(w.pi[block & (ids == b)].sum()), mass / 11.0, slack=1e-12)
            outside = np.count_nonzero(next(balls) & ~s)
            c_ball.record(float(outside), int(np.count_nonzero(block)) / 3.0, slack=1e-9)
            if flows is not None:
                c_flow.record(float(flows[i, block].sum()), scale * mass, slack=1e-15)
    return reports


def random_subsets(g: Graph, count: int, rng: SplitMix64) -> list[frozenset[int]]:
    """`count` random vertex sets for the lemma audit: each draws its size
    1 + randrange(max(1, n // 2)), then keeps a shuffle's prefix."""
    subsets = []
    for _ in range(count):
        size = 1 + rng.randrange(max(1, g.n // 2))
        verts = list(range(g.n))
        rng.shuffle(verts)
        subsets.append(frozenset(verts[:size]))
    return subsets


@dataclass
class Theorem31Report:
    K: int
    beta: float
    phi_bound: float
    gap_bound: float
    log_phi_bound: float
    log_gap_bound: float
    phi_value: float | None = None
    phi_ok: bool | None = None
    phi_skipped: str | None = None
    gap_value: float | None = None
    gap_ok: bool | None = None
    gap_skipped: str | None = None

    @property
    def ok(self) -> bool:
        return self.phi_ok is not False and self.gap_ok is not False


def psi_lower_bound(g: Graph) -> float:
    """A certified lower bound on vertex expansion.

    Exact enumeration when n <= SUBSET_GUARD; otherwise half the spectral
    gap of the simple random walk, via the expansion >= conductance >= gap/2
    chain of inequalities, which needs a regular graph.
    """
    _regular_degree_or_raise(g)
    if g.n <= SUBSET_GUARD:
        psi, _ = vertex_expansion_exact(g)
        return psi
    srw = induced_chain(uniform_weighting(g))
    return spectral_gap(srw).gap / 2.0


def _at_least(value: float, log_bound: float) -> bool:
    """value >= exp(log_bound) up to one part in 1e12, decided on logarithms."""
    return value > 0.0 and math.log(value) >= log_bound - 1e-12


def theorem31_check(w: EdgeWeighting, psi: float | None = None) -> Theorem31Report:
    """Endpoint bounds of the robustness theorem for one weighting.

    psi defaults to a certified lower bound on the vertex expansion.  The
    conductance claim needs the exhaustive enumerator (n <= SUBSET_GUARD)
    and a non-bipartite graph; the gap claim needs n <= 512.  Claims out of
    range are reported as skipped with a reason.
    """
    g = w.graph
    d, K, sigma, beta, rough = _section3_scale(w, psi)
    if rough:
        raise GraphError(f"weighting is not sigma-Lipschitz: beta={beta:.6g} > sigma={sigma:.6g}")
    report = Theorem31Report(
        K=K,
        beta=beta,
        phi_bound=d ** (-2.0 * K) / 4000.0,
        gap_bound=1e-8 * d ** (-4.0 * K),
        log_phi_bound=-2.0 * K * math.log(d) - math.log(4000.0),
        log_gap_bound=math.log(1e-8) - 4.0 * K * math.log(d),
    )
    chain = induced_chain(w) if g.n <= SPECTRAL_GUARD else None
    if g.n > SUBSET_GUARD:
        report.phi_skipped = f"n={g.n} exceeds exhaustive-conductance guard {SUBSET_GUARD}"
    elif is_bipartite(g):
        report.phi_skipped = (
            "bipartite graph: the 2K-step chain is reducible across the bipartition, "
            "so its conductance is exactly 0"
        )
    else:
        p2k = power_chain(chain, 2 * K)
        phi, _ = edge_conductance_exact(p2k)
        report.phi_value = phi
        report.phi_ok = _at_least(phi, report.log_phi_bound)
    if chain is None:
        report.gap_skipped = f"n={g.n} exceeds spectral guard {SPECTRAL_GUARD}"
    else:
        gap = spectral_gap(chain).gap
        report.gap_value = gap
        report.gap_ok = _at_least(gap, report.log_gap_bound)
    return report


@dataclass
class Prop311Report:
    diameter: int
    pair: tuple[int, int]
    radius: int
    bound: float
    witness: frozenset[int]
    witness_mass: float
    conductance_at_witness: float

    @property
    def ok(self) -> bool:
        return self.conductance_at_witness <= self.bound + 1e-15


def prop311_check(g: Graph, beta: float) -> Prop311Report:
    """Bottleneck upper bound on conductance.

    Builds the beta-bottleneck weighting across the diametral pair (u, v),
    takes the ball of radius floor(D/2) - 1 around whichever endpoint gives
    stationary mass <= 1/2, and checks its flow ratio Q(S, S^c) / pi(S)
    against min(d^(floor(D/2)-1), n) * beta^(-floor(D/2)+3).  Needs D >= 4.
    The pair's distance and both balls are read off `g.distance_matrix`,
    which the weighting has just built; masses and the cut come from the
    weighting, O(m).
    """
    d = _regular_degree_or_raise(g)
    w, (u, v) = bottleneck_weighting(g, beta)
    dm = g.distance_matrix
    dd = int(dm[u, v])
    radius = dd // 2 - 1
    candidates = [dm[u] <= radius, dm[v] <= radius]
    masses = [float(w.pi[c].sum()) for c in candidates]
    pick = 0 if masses[0] <= masses[1] else 1
    inside = candidates[pick]
    mass = masses[pick]
    if mass > HALF_MASS:
        raise GraphError("neither endpoint ball has stationary mass <= 1/2")
    bound = min(float(d) ** radius, float(g.n)) * beta ** (-(dd // 2) + 3)
    sl = g.slots
    leaving = inside[sl.vertex] & ~inside[sl.neighbor]
    flow = w.pi[sl.vertex[leaving]] * slot_transitions(w)[leaving]
    return Prop311Report(
        diameter=dd,
        pair=(u, v),
        radius=radius,
        bound=bound,
        witness=frozenset(np.flatnonzero(inside).tolist()),
        witness_mass=mass,
        conductance_at_witness=float(flow.sum()) / mass,
    )

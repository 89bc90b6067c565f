"""Robustness audits for Lipschitz-weighted chains on expanders.

For a d-regular graph with vertex expansion psi, set

    K = ceil(2 / log(1 + psi)),   sigma = exp(1 / (2 K)).

For any sigma-Lipschitz weighting the stationary law is flat enough that the
following structure exists, and each piece is checked here numerically:

* `bucket_partition` slices vertices into geometric stationary-mass buckets
  V_i = { v : pi(v) in (e^-i, e^-(i-1)] }.  K-step balls never straddle more
  than the two adjacent buckets.
* `representative_indices` runs the block/gap recursion on the occupied
  bucket sizes of a set S: a block keeps absorbing the next bucket while it
  is large (more than alpha/2 times the block so far, alpha = ALPHA = e^2),
  the witness bucket that ends a block opens a gap, and a new block starts
  at the next size increase after the witness.  The blocks R_1..R_L are the
  "representatives" R of S.
* `section3_lemma_audit` checks the four quantitative facts about R for
  every set S of one weighting:
  pi(R) >= pi(S)/22, pi(S_{b_l}) >= pi(R_l)/11, |B_2K(R_l) \\ S| >= |R_l|/3,
  and the 2K-step flow Q(R_l, S^c) >= d^-2K pi(R_l)/90 (skipped for
  bipartite graphs, whose 2K-step chain never leaves one side of the
  bipartition, so the flow from that side to its complement is 0).  The
  chain, its buckets and its dense 2K-step power are built once per call,
  not once per set.
* `theorem31_check` verifies the endpoint bounds: conductance of the
  2K-step chain at least d^-2K/4000 (exhaustively, n <= 24, as far as exact
  psi reaches; skipped for bipartite graphs, whose even-step chains are
  reducible and have zero conductance) and spectral gap at least
  1e-8 d^-4K (n <= 512).  It and `section3_lemma_audit` resolve d, psi, K,
  sigma and beta the same way: a missing psi is `psi_lower_bound` (exact
  for n <= 24, the spectral lower bound above that).
* `prop311_check` verifies the matching upper bound: a bottleneck weighting
  across a diametral pair pushes conductance below
  min(d^(floor(D/2)-1), n) * beta^(-floor(D/2)+3), witnessed by a ball
  around one endpoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .chains import (
    CONDUCTANCE_GUARD,
    SPECTRAL_GUARD,
    ReversibleChain,
    candidate_conductance,
    edge_conductance_exact,
    ergodic_flow,
    power_chain,
    spectral_gap,
)
from .graphs import (
    EXPANSION_GUARD,
    Graph,
    GraphError,
    ball,
    diameter,
    is_bipartite,
    vertex_expansion_exact,
)
from .weighting import (
    EdgeWeighting,
    bottleneck_weighting,
    induced_chain,
    lipschitz_beta,
    uniform_weighting,
)

ALPHA = math.e**2
BUCKET_EDGE_TOL = 1e-12

__all__ = [
    "ALPHA",
    "BucketPartition",
    "RepresentativeDecomposition",
    "LemmaCheck",
    "Section3Report",
    "Theorem31Report",
    "Prop311Report",
    "section3_K",
    "section3_sigma",
    "bucket_partition",
    "representative_blocks_from_sizes",
    "representative_indices",
    "section3_lemma_audit",
    "theorem31_check",
    "prop311_check",
]


def section3_K(psi: float) -> int:
    """K = ceil(2 / log(1 + psi)); log is natural."""
    if psi <= 0.0:
        raise GraphError("K needs psi > 0")
    return math.ceil(2.0 / math.log1p(psi))


def section3_sigma(k: int) -> float:
    """Lipschitz budget sigma = exp(1 / (2K))."""
    if k < 1:
        raise GraphError("sigma needs K >= 1")
    return math.exp(1.0 / (2.0 * k))


# ---------------------------------------------------------------------------
# buckets


@dataclass(frozen=True)
class BucketPartition:
    """Geometric stationary-mass buckets; index i holds pi in (e^-i, e^-(i-1)]."""

    index_of: tuple[int, ...]
    buckets: Mapping[int, frozenset[int]]

    def bucket(self, i: int) -> frozenset[int]:
        return self.buckets.get(i, frozenset())


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


def bucket_partition(chain: ReversibleChain) -> BucketPartition:
    idx = tuple(bucket_index(float(p)) for p in chain.pi)
    buckets: dict[int, set[int]] = {}
    for v, i in enumerate(idx):
        buckets.setdefault(i, set()).add(v)
    return BucketPartition(idx, {i: frozenset(s) for i, s in buckets.items()})


# ---------------------------------------------------------------------------
# representative blocks


def representative_blocks_from_sizes(
    sizes: Mapping[int, int], alpha: float = ALPHA
) -> list[tuple[int, int]]:
    """Block boundaries (a_l, b_l) from occupied bucket sizes.

    a_1 is the first occupied index.  Given a_l, the block ends at the
    smallest b >= a_l whose successor bucket is small:
    |S_{b+1}| <= (alpha/2) |S_{a_l} u ... u S_b|.  That successor bucket is
    the witness that closes the block; it always falls into the gap, and the
    next block starts at the first index past it where the size grows again
    (|S_a| > |S_{a-1}|).
    """
    if alpha <= 0.0:
        raise GraphError("alpha must be positive")
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
        while size(b + 1) > (alpha / 2.0) * csum:
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


@dataclass(frozen=True)
class RepresentativeDecomposition:
    """Blocks R_l (bucket runs a_l..b_l of S) and their union R."""

    pairs: tuple[tuple[int, int], ...]
    blocks: tuple[frozenset[int], ...]

    @property
    def representatives(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.blocks:
            out |= b
        return frozenset(out)


def representative_indices(subset, partition: BucketPartition) -> RepresentativeDecomposition:
    """Def-3.5 style decomposition of a vertex set S.

    S is sliced into S_i = S intersect V_i, the block recursion runs on the
    sizes |S_i| with alpha = ALPHA, and the blocks are materialized as vertex
    sets.
    """
    s = frozenset(int(v) for v in subset)
    if not s:
        raise GraphError("representative_indices needs a non-empty set")
    outside = sorted(v for v in s if not 0 <= v < len(partition.index_of))
    if outside:
        raise GraphError(f"vertex {outside[0]} out of range for n={len(partition.index_of)}")
    member: dict[int, set[int]] = {}
    for v in s:
        member.setdefault(partition.index_of[v], set()).add(v)
    sizes = {i: len(vs) for i, vs in member.items()}
    pairs = representative_blocks_from_sizes(sizes, ALPHA)

    def union_range(lo: int, hi: int) -> frozenset[int]:
        out: set[int] = set()
        for i in range(lo, hi + 1):
            out |= member.get(i, set())
        return frozenset(out)

    return RepresentativeDecomposition(tuple(pairs), tuple(union_range(a, b) for a, b in pairs))


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

    def record(self, lhs: float, rhs: float, slack: float = 0.0) -> None:
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
    K: int
    sigma: float
    beta: float
    checks: list[LemmaCheck] = field(default_factory=list)
    skipped: str | None = None

    @property
    def ok(self) -> bool:
        return self.skipped is None and all(c.ok for c in self.checks)

    def __bool__(self) -> bool:
        return self.ok


def _regular_degree_or_raise(g: Graph) -> int:
    d = g.regular_degree
    if d is None:
        raise GraphError("this audit needs a regular graph")
    return d


def _section3_scale(w: EdgeWeighting, psi: float | None) -> tuple[int, float, int, float, float]:
    """(d, psi, K, sigma, beta) of a weighting; psi defaults to `psi_lower_bound`."""
    g = w.graph
    d = _regular_degree_or_raise(g)
    if psi is None:
        psi = psi_lower_bound(g)
    K = section3_K(psi)
    return d, psi, K, section3_sigma(K), lipschitz_beta(w)


def section3_lemma_audit(
    w: EdgeWeighting, subsets: Iterable[Iterable[int]], psi: float | None = None
) -> list[Section3Report]:
    """Audit the representative-set lemmas for each set S, one report per set.

    Requires a regular graph and a sigma-Lipschitz weighting for the
    graph's own sigma = exp(1/(2K)); a rougher weighting skips every report.
    Sets with |S| > n/2 are reported as skipped, not failed, since the lemmas
    only speak about small sets.  On a bipartite graph the flow check is
    skipped with a reason: the 2K-step chain stays on one side, so S equal to
    a side has no flow to S^c.  The chain, its buckets and its 2K-step power
    are built once, when the first set reaches the checks.
    """
    g = w.graph
    d, psi, K, sigma, beta = _section3_scale(w, psi)
    rough = beta > sigma * (1.0 + 1e-12)
    scale = d ** (-2.0 * K) / 90.0
    reports = []
    chain = None

    def mass(vs) -> float:
        return float(sum(chain.pi[v] for v in vs))

    for subset in subsets:
        report = Section3Report(K=K, sigma=sigma, beta=beta)
        reports.append(report)
        if rough:
            report.skipped = f"weighting is not sigma-Lipschitz (beta={beta:.6g} > sigma={sigma:.6g})"
            continue
        s = frozenset(int(v) for v in subset)
        if not s:
            raise GraphError("section3_lemma_audit needs a non-empty set")
        if 2 * len(s) > g.n:
            report.skipped = f"|S|={len(s)} exceeds n/2"
            continue
        if chain is None:
            chain = induced_chain(w)
            partition = bucket_partition(chain)
            bipartite = is_bipartite(g)
            p2k = None if bipartite else power_chain(chain, 2 * K)
        decomp = representative_indices(s, partition)
        c_mass = LemmaCheck("representative_mass_ge_S_over_22")
        c_top = LemmaCheck("top_bucket_ge_block_over_11")
        c_ball = LemmaCheck("ball_2K_outside_S_ge_block_over_3")
        c_flow = LemmaCheck("flow_2K_to_complement_ge_scaled_mass")
        report.checks = [c_mass, c_top, c_flow, c_ball]

        c_mass.record(mass(decomp.representatives), mass(s) / 22.0, slack=1e-12)
        if bipartite:
            c_flow.skipped = (
                "bipartite graph: the 2K-step chain never leaves one side of the bipartition, "
                "so a side has no 2K-step flow to its complement"
            )
        complement = sorted(frozenset(range(g.n)) - s)
        for (a, b), block in zip(decomp.pairs, decomp.blocks):
            top = block & partition.bucket(b)
            c_top.record(mass(top), mass(block) / 11.0, slack=1e-12)
            outside = ball(g, block, 2 * K) - s
            c_ball.record(float(len(outside)), len(block) / 3.0, slack=1e-9)
            if p2k is not None:
                flow = float(p2k.flow_matrix[np.ix_(sorted(block), complement)].sum())
                c_flow.record(flow, scale * mass(block), slack=1e-15)
    return reports


@dataclass
class Theorem31Report:
    K: int
    sigma: float
    beta: float
    psi: float
    phi_bound: float
    gap_bound: float
    phi_value: float | None = None
    phi_ok: bool | None = None
    phi_skipped: str | None = None
    gap_value: float | None = None
    gap_ok: bool | None = None
    gap_skipped: str | None = None

    @property
    def ok(self) -> bool:
        return self.phi_ok is not False and self.gap_ok is not False

    def __bool__(self) -> bool:
        return self.ok


def psi_lower_bound(g: Graph) -> float:
    """A certified lower bound on vertex expansion.

    Exact enumeration when n <= 24; otherwise half the spectral gap of the
    simple random walk, via the expansion >= conductance >= gap/2 chain of
    inequalities, which needs a regular graph.
    """
    _regular_degree_or_raise(g)
    if g.n <= EXPANSION_GUARD:
        psi, _ = vertex_expansion_exact(g)
        return psi
    srw = induced_chain(uniform_weighting(g))
    return spectral_gap(srw).gap / 2.0


def theorem31_check(w: EdgeWeighting, psi: float | None = None) -> Theorem31Report:
    """Endpoint bounds of the robustness theorem for one weighting.

    psi defaults to a certified lower bound on the vertex expansion.  The
    conductance claim needs the exhaustive enumerator (n <= 24) and a
    non-bipartite graph; the gap claim needs n <= 512.  Claims out of range
    are reported as skipped with a reason.
    """
    g = w.graph
    d, psi, K, sigma, beta = _section3_scale(w, psi)
    if beta > sigma * (1.0 + 1e-12):
        raise GraphError(f"weighting is not sigma-Lipschitz: beta={beta:.6g} > sigma={sigma:.6g}")
    report = Theorem31Report(
        K=K,
        sigma=sigma,
        beta=beta,
        psi=psi,
        phi_bound=d ** (-2.0 * K) / 4000.0,
        gap_bound=1e-8 * d ** (-4.0 * K),
    )
    chain = induced_chain(w)
    if g.n > CONDUCTANCE_GUARD:
        report.phi_skipped = f"n={g.n} exceeds exhaustive-conductance guard {CONDUCTANCE_GUARD}"
    elif is_bipartite(g):
        report.phi_skipped = (
            "bipartite graph: the 2K-step chain is reducible across the bipartition, "
            "so its conductance is exactly 0"
        )
    else:
        p2k = power_chain(chain, 2 * K)
        phi, _ = edge_conductance_exact(p2k)
        report.phi_value = phi
        report.phi_ok = phi >= report.phi_bound - 1e-15
    if g.n > SPECTRAL_GUARD:
        report.gap_skipped = f"n={g.n} exceeds spectral guard {SPECTRAL_GUARD}"
    else:
        gap = spectral_gap(chain).gap
        report.gap_value = gap
        report.gap_ok = gap >= report.gap_bound - 1e-15
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

    def __bool__(self) -> bool:
        return self.ok


def prop311_check(g: Graph, beta: float) -> Prop311Report:
    """Bottleneck upper bound on conductance.

    Builds the beta-bottleneck weighting across the diametral pair (u, v),
    takes the ball of radius floor(D/2) - 1 around whichever endpoint gives
    stationary mass <= 1/2, and checks its flow ratio against
    min(d^(floor(D/2)-1), n) * beta^(-floor(D/2)+3).  Needs D >= 4.
    """
    d = _regular_degree_or_raise(g)
    w, (u, v) = bottleneck_weighting(g, beta)
    dd, _ = diameter(g)
    radius = dd // 2 - 1
    chain = induced_chain(w)
    candidates = [ball(g, [u], radius), ball(g, [v], radius)]
    masses = [float(chain.pi[sorted(c)].sum()) for c in candidates]
    pick = 0 if masses[0] <= masses[1] else 1
    witness = candidates[pick]
    mass = masses[pick]
    if mass > 0.5 + 1e-12:
        raise GraphError("neither endpoint ball has stationary mass <= 1/2")
    bound = min(float(d) ** radius, float(g.n)) * beta ** (-(dd // 2) + 3)
    value = candidate_conductance(chain, witness)
    return Prop311Report(
        diameter=dd,
        pair=(u, v),
        radius=radius,
        bound=bound,
        witness=witness,
        witness_mass=mass,
        conductance_at_witness=value,
    )

"""The doubling subset enumerators against their gather/scatter references.

`edge_conductance_exact` and `vertex_expansion_exact` build their per-mask
arrays by doubling over the low SUBSET_CHUNK_BITS vertices and walk the
vertices above them depth-first, one leaf of 2^SUBSET_CHUNK_BITS masks at a
time.  The references below are the earlier O(n^2 2^n) and O(n 2^n)
enumerators: one boolean gather/scatter over all masks per ordered pair with
positive flow, or per vertex.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import chains, graphs
from walklab.chains import ReversibleChain, edge_conductance_exact, power_chain
from walklab.graphs import build_graph, generate, vertex_expansion_exact
from walklab.rng import SplitMix64
from walklab.weighting import EdgeWeighting, induced_chain, random_lipschitz_weighting, uniform_weighting


def gather_scatter_conductance(chain: ReversibleChain) -> tuple[float, frozenset[int]]:
    """Reference: min over 0 < pi(S) <= 1/2 + 1e-12 of Q(S, S^c) / pi(S), first minimum."""
    n = chain.n
    size = 1 << n
    masks = np.arange(size, dtype=np.uint32)
    bit = [((masks >> np.uint32(v)) & np.uint32(1)).astype(bool) for v in range(n)]
    mass = np.zeros(size)
    for v in range(n):
        mass[bit[v]] += chain.pi[v]
    flow = np.zeros(size)
    f = chain.pi[:, None] * chain.matrix
    xs, ys = np.nonzero(chain.matrix > 0.0)
    for x, y in zip(xs.tolist(), ys.tolist()):
        if x == y:
            continue
        flow[bit[x] & ~bit[y]] += f[x, y]
    valid = (mass > 0.0) & (mass <= 0.5 + 1e-12)
    ratio = np.full(size, np.inf)
    ratio[valid] = flow[valid] / mass[valid]
    best = int(np.argmin(ratio))
    return float(ratio[best]), frozenset(v for v in range(n) if best >> v & 1)


def cut_ratio(chain: ReversibleChain, subset) -> float:
    """Q(S, S^c) / pi(S), sliced from the dense flow pi(x) P(x, y)."""
    inside = np.zeros(chain.n, dtype=bool)
    inside[list(subset)] = True
    flow = chain.pi[:, None] * chain.matrix
    return float(flow[np.ix_(inside, ~inside)].sum()) / float(chain.pi[inside].sum())


def gather_scatter_expansion(g) -> tuple[float, frozenset[int]]:
    """Reference: min over 1 <= |S| <= n/2 of |Gamma(S) \\ S| / |S|, first minimum."""
    n = g.n
    size = 1 << n
    masks = np.arange(size, dtype=np.uint32)
    pop = np.bitwise_count(masks).astype(np.int64)
    closed = np.zeros(size, dtype=np.uint32)
    for v in range(n):
        sel = ((masks >> np.uint32(v)) & np.uint32(1)).astype(bool)
        closed[sel] |= np.uint32(sum(1 << u for u in (v, *g.adj[v])))
    outer = np.bitwise_count(closed & ~masks).astype(np.int64)
    valid = (pop >= 1) & (2 * pop <= n)
    ratio = np.full(size, np.inf)
    ratio[valid] = outer[valid] / pop[valid]
    best = int(np.argmin(ratio))
    return float(ratio[best]), frozenset(v for v in range(n) if best >> v & 1)


def random_connected_graph(rng: SplitMix64, n: int):
    """A random spanning tree plus up to 2n random extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randrange(2 * n + 1)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return build_graph(sorted(edges), n)


def bottleneck_chain(rng: SplitMix64, n: int) -> ReversibleChain:
    """Two weighted cliques joined by one to three bridges of weight 1e-7..1e-4,
    with the vertices shuffled, so Phi sits near 1e-6."""
    verts = list(range(n))
    rng.shuffle(verts)
    half = n // 2
    sides = (verts[:half], verts[half:])
    weights = {}
    for side in sides:
        for a, b in itertools.combinations(side, 2):
            weights[min(a, b), max(a, b)] = 1.0 + 2.0 * rng.next_float()
    for _ in range(1 + rng.randrange(3)):
        a, b = sides[0][rng.randrange(len(sides[0]))], sides[1][rng.randrange(len(sides[1]))]
        weights[min(a, b), max(a, b)] = 10.0 ** (-4.0 - 3.0 * rng.next_float())
    g = build_graph(sorted(weights), n)
    return induced_chain(EdgeWeighting(g, [weights[e] for e in g.edges]))


def srw(g):
    return induced_chain(uniform_weighting(g))


def random_circulant(rng: SplitMix64, n: int):
    """A cycle on n >= 3 vertices with chords at random offsets, a connected
    circulant: its symmetry ties many cuts exactly, across the leaves of the
    subset walk."""
    return generate("circulant", n=n, offsets=[1] + [s for s in range(2, n // 2 + 1) if rng.randrange(2)])


def at_leaf_bits(bits: int, enumerate_, *args):
    """`enumerate_(*args)` with leaves of 2^bits masks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chains, "SUBSET_CHUNK_BITS", bits)
        mp.setattr(graphs, "SUBSET_CHUNK_BITS", bits)
        return enumerate_(*args)


# --- conductance ------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(["lipschitz", "bottleneck", "circulant"]))
@settings(max_examples=40, deadline=None)
def test_conductance_matches_gather_scatter_reference(seed, family):
    rng = SplitMix64(seed)
    n = 3 + rng.randrange(12)
    if family == "bottleneck" and n >= 4:
        chain = bottleneck_chain(rng, n)
    elif family == "circulant":
        chain = power_chain(srw(random_circulant(rng, n)), 1 + rng.randrange(3))
    else:
        g = generate("complete", n=n)
        chain = power_chain(induced_chain(random_lipschitz_weighting(g, 3.0, rng)), 1 + rng.randrange(3))
    phi, argmin = edge_conductance_exact(chain)
    # any leaf size gives the same value and witness, bit for bit
    assert at_leaf_bits(1 + rng.randrange(n), edge_conductance_exact, chain) == (phi, argmin)
    ref_phi, _ = gather_scatter_conductance(chain)
    assert phi == pytest.approx(ref_phi, rel=1e-12, abs=0.0)
    assert cut_ratio(chain, argmin) == pytest.approx(phi, rel=1e-12, abs=0.0)
    if n - 1 in argmin:
        # tie rule: a set holding the last vertex wins only if its complement is too heavy
        assert float(np.sum(np.delete(chain.pi, sorted(argmin)))) > 0.5 + 1e-12


def test_bottleneck_conductance_reaches_one_in_a_million():
    rng = SplitMix64(3)
    chain = bottleneck_chain(rng, 14)
    phi, argmin = edge_conductance_exact(chain)
    assert phi < 1e-5
    assert phi == pytest.approx(gather_scatter_conductance(chain)[0], rel=1e-12, abs=0.0)
    assert cut_ratio(chain, argmin) == pytest.approx(phi, rel=1e-12, abs=0.0)


def test_half_mass_tie_reports_the_side_without_the_last_vertex():
    # two pairs {0,1} and {2,3} with uniform pi; Q({2,3}, {0,1}) is 1e-14/4 below
    # Q({0,1}, {2,3}) (inside the 1e-12 balance tolerance), so by value alone the
    # side {2,3} would win the half-mass cut by rounding
    p = np.array(
        [
            [0.5, 0.4, 0.1, 0.0],
            [0.4, 0.5, 0.0, 0.1],
            [0.1 - 1e-14, 0.0, 0.5 + 1e-14, 0.4],
            [0.0, 0.1, 0.4, 0.5],
        ]
    )
    chain = ReversibleChain(p, np.full(4, 0.25))
    assert gather_scatter_conductance(chain)[1] == frozenset({2, 3})
    phi, argmin = edge_conductance_exact(chain)
    assert argmin == frozenset({0, 1})
    assert phi == pytest.approx(0.1, rel=1e-12)


def test_half_mass_tie_rule_on_the_robustness_chain():
    # the 2K-step chain (K = 8) of the benchmark's robustness-audit graph has
    # its best cut at pi exactly 1/2; the reference's rounding picks the side
    # with vertex 19, the tie rule the other side
    g = generate("random_regular", n=20, d=3, seed=2)
    chain = power_chain(srw(g), 16)
    phi, argmin = edge_conductance_exact(chain)
    ref_phi, ref_argmin = gather_scatter_conductance(chain)
    assert len(argmin) == 10 and 19 not in argmin
    assert ref_argmin == frozenset(range(20)) - argmin
    assert phi == pytest.approx(ref_phi, rel=1e-12, abs=0.0)


# --- vertex expansion -----------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=40, deadline=None)
def test_expansion_matches_gather_scatter_reference(seed, circulant):
    rng = SplitMix64(seed)
    if circulant:
        g = random_circulant(rng, 3 + rng.randrange(14))
    else:
        g = random_connected_graph(rng, 2 + rng.randrange(15))
    want = gather_scatter_expansion(g)
    assert vertex_expansion_exact(g) == want
    assert at_leaf_bits(1 + rng.randrange(g.n), vertex_expansion_exact, g) == want


# --- chunking -------------------------------------------------------------------


@pytest.mark.parametrize("bits", [1, 4, 7])
def test_chunked_enumeration_is_bit_identical(monkeypatch, bits):
    # uniform pi on 10 vertices: half-mass cuts whose last vertex sits in the
    # chunk's top bits exercise the tie rule across chunks
    cases = [generate("random_regular", n=10, d=3, seed=4), generate("circulant", n=11, offsets=(1, 3))]
    want = [(edge_conductance_exact(power_chain(srw(g), 3)), vertex_expansion_exact(g)) for g in cases]
    monkeypatch.setattr(chains, "SUBSET_CHUNK_BITS", bits)
    monkeypatch.setattr(graphs, "SUBSET_CHUNK_BITS", bits)
    got = [(edge_conductance_exact(power_chain(srw(g), 3)), vertex_expansion_exact(g)) for g in cases]
    assert got == want


@pytest.mark.parametrize("enumerator", ["conductance", "expansion"])
@pytest.mark.parametrize(
    ("n", "seed", "steps", "mib"),
    # the second instance is the benchmark's robustness-audit chain, P^2K with K = 8
    [(22, 4, 8, 64), (20, 2, 16, 8)],
    ids=["22-vertices-64-mib", "20-vertices-8-mib"],
)
def test_enumerators_stay_under_their_memory_bound(enumerator, n, seed, steps, mib):
    g = generate("random_regular", n=n, d=3, seed=seed)
    chain = power_chain(srw(g), steps)
    tracemalloc.start()
    try:
        if enumerator == "conductance":
            edge_conductance_exact(chain)
        else:
            vertex_expansion_exact(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20

"""Graph construction, generators, distances, and exact vertex expansion."""

import dataclasses
import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walklab import graphs
from walklab.graphs import (
    Graph,
    GraphError,
    GraphFileError,
    GuardError,
    ball,
    bfs_columns,
    build_graph,
    diameter,
    distances_from,
    generate,
    is_bipartite,
    parse_generate_spec,
    parse_graph_text,
    small_regular_catalog,
    vertex_expansion_exact,
)
from walklab.rng import SplitMix64


def brute_expansion(g: Graph):
    """Set-arithmetic reference for the vectorized enumerator."""
    best = (float("inf"), None)
    for size in range(1, g.n // 2 + 1):
        for sub in itertools.combinations(range(g.n), size):
            s = set(sub)
            boundary = {w for v in s for w in g.adj[v]} - s
            ratio = len(boundary) / len(s)
            if ratio < best[0]:
                best = (ratio, frozenset(s))
    return best


# --- construction ---------------------------------------------------------


def test_build_graph_canonicalizes_edges():
    g = build_graph([(1, 0), (2, 1), (0, 2)], 3)
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.adj == ((1, 2), (0, 2), (0, 1))
    assert g.m == 3


def test_build_graph_rejects_self_loop():
    with pytest.raises(GraphError):
        build_graph([(0, 0), (0, 1)], 2)


def test_build_graph_rejects_duplicate_edge():
    with pytest.raises(GraphError):
        build_graph([(0, 1), (1, 0), (1, 2)], 3)


def test_build_graph_rejects_disconnected():
    with pytest.raises(GraphError):
        build_graph([(0, 1), (2, 3)], 4)


@pytest.mark.parametrize("text", ["1000000 0", "4 3\n0 1\n1 2\n0 2"], ids=["too-few-edges", "isolated-vertex"])
def test_disconnected_graph_file_is_refused_without_a_per_vertex_table(text):
    # a 10-byte header promising a million vertices and no edges is refused
    # on its edge count, before n adjacency lists exist
    tracemalloc.start()
    try:
        with pytest.raises(GraphFileError, match="^graph is disconnected"):
            parse_graph_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_build_graph_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph([(0, 5)], 3)


# --- generators -----------------------------------------------------------


def test_cycle_shape():
    g = generate("cycle", n=6)
    assert g.n == 6 and g.m == 6
    assert g.regular_degree == 2
    assert (0, 5) in g.edges


def test_complete_shape():
    g = generate("complete", n=5)
    assert g.m == 10
    assert g.regular_degree == 4


def test_hypercube_shape():
    g = generate("hypercube", dim=3)
    assert g.n == 8 and g.regular_degree == 3
    # neighbours differ in exactly one bit
    for u, v in g.edges:
        assert bin(u ^ v).count("1") == 1


def test_circulant_shape():
    g = generate("circulant", n=10, offsets=(1, 3))
    assert g.regular_degree == 4
    assert (0, 3) in g.edges and (0, 1) in g.edges


def test_circulant_rejects_bad_offsets():
    with pytest.raises(GraphError):
        generate("circulant", n=8, offsets=(0,))
    with pytest.raises(GraphError):
        generate("circulant", n=8, offsets=(4, 4))


def test_random_regular_is_regular_connected_and_seeded():
    g = generate("random_regular", n=24, d=3, seed=5)
    assert g.regular_degree == 3
    h = generate("random_regular", n=24, d=3, seed=5)
    assert g.edges == h.edges
    other = generate("random_regular", n=24, d=3, seed=6)
    assert g.edges != other.edges


# SHA-256 of repr(g.edges) for seeded generator outputs: any change to a
# generator's sampling, its draws or its edges changes the digest.
GENERATOR_EDGE_DIGESTS = {
    "random-regular:512:3:11": "3bc9f8a9d6de307590e873e78dffed8903e05be1af720327e447ef68ec61914f",
    "random-regular:20:3:2": "eafd154977d1a0d6538970413a11b37383a14f3b79bceb018b6ad73a81d6daf0",
    "random-regular:96:3:5": "cb4ec36b80a39ab2e23f28dd50878308f9a2f90cd6397a904534361641bebc8b",
    "random-regular:32:3:7": "d347ad6285564375ed389527c6af21ec1ef90f07f66ca2d2fbcd6de88d313d00",
    "random-regular:64:4:3": "bedc538d4cdb33d34bdecad3f64d7d71554cda5f0b9a3a3d45d7b13687c0ab53",
    "random-regular:30:5:1": "e4e69c18bad5486312aa8592efb31af5b062e7714044ad0be4d2297358d4a45f",
    "circulant:8:1,4": "10d3748f6284cfd84f1630a985bd64f6240220f40dfffdbc96feac8eb896685c",
    "circulant:12:1,6": "5c7b00e4dbafc0c1249b3609f26d0caa2b7579e6727ee585ffe10318ec286e9a",
    "circulant:20:1,5,10": "e6193b6939d0f70db4114bca69842565b97fbb13a17970cb1eb0626408f4a03a",
    "hypercube:4": "83433c710d0f4c7355a7517a53cb64ca989379fd622c24beb8df1fdf957c6f38",
}


def test_generators_reproduce_their_pinned_edge_lists():
    got = {
        spec: hashlib.sha256(repr(parse_generate_spec(spec).edges).encode()).hexdigest()
        for spec in GENERATOR_EDGE_DIGESTS
    }
    assert got == GENERATOR_EDGE_DIGESTS


def test_random_regular_rejects_odd_product():
    with pytest.raises(GraphError):
        generate("random_regular", n=5, d=3, seed=1)


def test_generate_unknown_kind():
    with pytest.raises(GraphError):
        generate("torus", n=4)


@pytest.mark.parametrize("kind, params", [
    ("cycle", {}),
    ("cycle", {"n": 5, "d": 3}),
    ("circulant", {"n": 8}),
    ("hypercube", {"n": 8}),
    ("random_regular", {"n": 8, "d": 3}),
])
def test_generate_needs_exactly_the_family_parameters(kind, params):
    with pytest.raises(GraphError, match=f"^{kind} needs exactly "):
        generate(kind, **params)


def test_parse_generate_spec_builds_each_family():
    assert parse_generate_spec("cycle:7") == generate("cycle", n=7)
    assert parse_generate_spec("Complete:5") == generate("complete", n=5)
    assert parse_generate_spec("hypercube:3") == generate("hypercube", dim=3)
    assert parse_generate_spec("circulant:9:1,3") == generate("circulant", n=9, offsets=(1, 3))
    assert parse_generate_spec("random-regular:16:3:7") == generate("random_regular", n=16, d=3, seed=7)
    assert parse_generate_spec("random_regular:16:3:7") == parse_generate_spec("random-regular:16:3:7")


# every generator family: its parameter names and valid values, in spec order
FAMILY_PARAMS = {
    "cycle": (("n",), st.tuples(st.integers(3, 40))),
    "complete": (("n",), st.tuples(st.integers(2, 12))),
    "hypercube": (("dim",), st.tuples(st.integers(1, 5))),
    "circulant": (("n", "offsets"), st.integers(3, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n // 2), max_size=3).map(lambda o: (1, *o)))
    )),
    "random_regular": (("n", "d", "seed"), st.sampled_from([(8, 3), (10, 4), (12, 3)]).flatmap(
        lambda nd: st.tuples(st.just(nd[0]), st.just(nd[1]), st.integers(-5, 2**64))
    )),
}


@pytest.mark.parametrize("spec", ["cycle:12", "complete:7", "hypercube:5", "circulant:12:1,6", "random-regular:10:4:3"])
def test_each_family_counts_its_edges_against_the_limit(monkeypatch, spec):
    # each family's count is its graph's m (offset n/2 of a circulant
    # included): at a limit of m it builds, one edge under it refuses
    m = parse_generate_spec(spec).m
    monkeypatch.setattr(graphs, "GENERATE_EDGES", m)
    assert parse_generate_spec(spec).m == m
    monkeypatch.setattr(graphs, "GENERATE_EDGES", m - 1)
    with pytest.raises(GuardError, match=f"more than {m - 1} edges"):
        parse_generate_spec(spec)


def test_family_params_cover_every_family():
    assert {kind: names for kind, (names, _) in FAMILY_PARAMS.items()} == {
        kind: names for kind, (_, names) in graphs._FAMILIES.items()
    }


@given(st.sampled_from(sorted(FAMILY_PARAMS)).flatmap(lambda kind: st.tuples(st.just(kind), FAMILY_PARAMS[kind][1])))
@settings(max_examples=60, deadline=None)
def test_generator_spec_text_round_trips(case):
    kind, values = case
    parts = [",".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in values]
    want = generate(kind, **dict(zip(FAMILY_PARAMS[kind][0], values)))
    assert parse_generate_spec(":".join([kind.replace("_", "-"), *parts])) == want


@pytest.mark.parametrize(
    "spec, message",
    [
        ("torus:4", "unknown generator kind"),
        ("cycle", "malformed generator spec"),
        ("cycle:x", "malformed generator spec"),
        ("circulant:9", "malformed generator spec"),
        ("random-regular:16:3", "random-regular:<n>:<d>:<seed>"),
        ("random-regular:15:3:1", "n*d even"),
    ],
)
def test_parse_generate_spec_rejects_bad_specs(spec, message):
    with pytest.raises(GraphError, match=message.replace("*", r"\*")):
        parse_generate_spec(spec)


def test_catalog_members_are_connected_and_regular():
    for name, g in small_regular_catalog().items():
        assert g.regular_degree is not None, name
        assert g.n <= 6


# --- file format ----------------------------------------------------------


def test_graph_text_round_trip():
    g = generate("circulant", n=9, offsets=(1, 2))
    text = f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)
    assert parse_graph_text(text).edges == g.edges


def test_parse_reports_line_numbers():
    bad = "3 2\n0 1\n0 x\n"
    with pytest.raises(GraphFileError) as err:
        parse_graph_text(bad)
    assert "3" in str(err.value)


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(GraphFileError):
        parse_graph_text("3 3\n0 1\n1 2\n")


def test_parse_skips_comments_and_blanks():
    g = parse_graph_text("# triangle\n3 3\n\n0 1\n1 2\n0 2  # closing edge\n")
    assert g.m == 3


# --- metrics --------------------------------------------------------------


def test_distances_from_single_source():
    g = generate("cycle", n=8)
    dist = distances_from(g, [0])
    assert dist[4] == 4 and dist[1] == 1 and dist[0] == 0


def test_distances_multi_source():
    g = generate("cycle", n=8)
    dist = distances_from(g, [0, 4])
    assert max(dist) == 2


def test_ball_is_closed():
    g = generate("cycle", n=8)
    assert ball(g, [0], 0) == frozenset({0})
    assert ball(g, [0], 2) == frozenset({6, 7, 0, 1, 2})


def test_diameter_and_lexicographic_pair():
    g = generate("cycle", n=8)
    d, pair = diameter(g)
    assert d == 4
    assert pair == (0, 4)


def test_bipartite_detection():
    assert is_bipartite(generate("cycle", n=8))
    assert not is_bipartite(generate("cycle", n=7))
    assert not is_bipartite(generate("complete", n=4))
    assert is_bipartite(generate("hypercube", dim=3))


def reference_is_bipartite(g: Graph) -> bool:
    """BFS 2-colouring from vertex 0, the loop `is_bipartite` replaced."""
    color = np.full(g.n, -1, dtype=np.int64)
    color[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if color[w] < 0:
                    color[w] = color[v] ^ 1
                    nxt.append(w)
                elif color[w] == color[v]:
                    return False
        frontier = nxt
    return True


@st.composite
def connected_graphs(draw, max_n=14):
    """A random spanning tree plus random chords, randomly relabelled:
    irregular graphs of every shape, trees (bipartite) included."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    parents = [draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    label = draw(st.permutations(range(n)))
    edges = {tuple(sorted((label[v], label[p]))) for v, p in enumerate(parents, start=1)}
    edges |= {tuple(sorted((label[a], label[b]))) for a, b in chords if a != b}
    return build_graph(sorted(edges), n)


SLOT_GRAPHS = st.one_of(
    connected_graphs(),
    st.sampled_from(list(small_regular_catalog().values())),
    st.integers(min_value=3, max_value=12).map(lambda n: generate("cycle", n=n)),
    st.integers(min_value=1, max_value=4).map(lambda dim: generate("hypercube", dim=dim)),
)


@given(SLOT_GRAPHS)
@settings(max_examples=150, deadline=None)
def test_slot_table_and_bipartite_test_match_the_adjacency(g):
    sl = g.slots
    pairs = [(v, u) for v in range(g.n) for u in g.adj[v]]
    assert list(zip(sl.vertex.tolist(), sl.neighbor.tolist())) == pairs
    assert sl.edge.tolist() == [g.edge_index[(min(v, u), max(v, u))] for v, u in pairs]
    assert sl.offsets.tolist() == [0, *itertools.accumulate(g.degrees)]
    assert sl.edge_slots.shape == (2, g.m)
    for e, (a, b) in enumerate(g.edges):
        assert pairs[sl.edge_slots[0, e]] == (a, b) and pairs[sl.edge_slots[1, e]] == (b, a)
    assert is_bipartite(g) == reference_is_bipartite(g)


def reference_distances(g: Graph, sources) -> np.ndarray:
    """Element-wise BFS on an int64 array: the list-backed BFS's oracle."""
    src = sorted(set(map(int, sources)))
    if not src:
        raise GraphError("distances_from needs a non-empty source set")
    for v in src:
        if not (0 <= v < g.n):
            raise GraphError(f"source vertex {v} out of range")
    dist = np.full(g.n, -1, dtype=np.int64)
    frontier = src
    for v in frontier:
        dist[v] = 0
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if dist[w] < 0:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist


def two_components() -> Graph:
    """A path 0-1-2 beside an edge 3-4, built without build_graph's connectivity check."""
    return Graph(n=5, edges=((0, 1), (1, 2), (3, 4)), adj=((1,), (0, 2), (1,), (4,), (3,)))


BFS_GRAPHS = st.one_of(
    st.integers(min_value=3, max_value=300).map(lambda n: generate("cycle", n=n)),
    st.integers(min_value=1, max_value=7).map(lambda dim: generate("hypercube", dim=dim)),
    connected_graphs(max_n=40),
    st.just(two_components()),
)


@given(BFS_GRAPHS, st.data())
@settings(max_examples=200, deadline=None)
def test_distances_from_matches_the_elementwise_bfs(g, data):
    how = data.draw(st.sampled_from(["one", "several", "all"]))
    if how == "one":
        sources = [data.draw(st.integers(0, g.n - 1))]
    elif how == "several":
        sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=6))
    else:
        sources = list(range(g.n))[::-1]
    got = distances_from(g, iter(sources))
    assert got.dtype == np.int64 and got.shape == (g.n,)
    assert got.tolist() == reference_distances(g, sources).tolist()
    for bad in ([], [g.n], [0, -1]):
        with pytest.raises(GraphError) as want:
            reference_distances(g, bad)
        with pytest.raises(GraphError, match=f"^{re.escape(str(want.value))}$"):
            distances_from(g, bad)


def broom(hub: int, handle: int) -> Graph:
    """Vertex 0 joined to `hub` leaves, the last of them the start of a path of
    `handle` more vertices: a star when `handle` is 0."""
    edges = [(0, v) for v in range(1, hub + 1)] + [(v, v + 1) for v in range(hub, hub + handle)]
    return build_graph(edges, hub + handle + 1)


COLUMN_GRAPHS = st.one_of(
    st.integers(min_value=3, max_value=300).map(lambda n: generate("cycle", n=n)),
    st.tuples(st.integers(20, 80), st.integers(0, 200)).map(lambda p: broom(*p)),
    st.just(generate("cycle", n=2048)),
    st.integers(min_value=1, max_value=7).map(lambda dim: generate("hypercube", dim=dim)),
    st.sampled_from([(16, 3, 9), (64, 4, 2), (512, 3, 11)]).map(
        lambda p: generate("random_regular", n=p[0], d=p[1], seed=p[2])
    ),
    connected_graphs(max_n=40),
    st.just(two_components()),
)


@given(COLUMN_GRAPHS, st.sampled_from([1, 63, 64, 65, 129]), st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=120, deadline=None)
def test_bfs_columns_match_the_scalar_bfs_column_by_column(g, width, seed):
    # source sets of one vertex, a few, or up to all of them; one stream per case
    rng = SplitMix64(seed)
    sources = np.zeros((g.n, width), dtype=bool)
    for j in range(width):
        size = (1, 1 + rng.randrange(4), 1 + rng.randrange(g.n))[rng.randrange(3)]
        sources[[rng.randrange(g.n) for _ in range(size)], j] = True
    dist = bfs_columns(g, sources)
    assert dist.dtype == np.int64 and dist.shape == (g.n, width)
    for j in range(width):
        assert dist[:, j].tolist() == graphs._bfs(g.adj, np.flatnonzero(sources[:, j]).tolist()), j


def test_bfs_columns_need_one_nonempty_set_per_column():
    g = generate("cycle", n=6)
    sources = np.zeros((6, 3), dtype=bool)
    sources[0, 0] = sources[4, 2] = True
    with pytest.raises(GraphError, match="non-empty source set in every column"):
        bfs_columns(g, sources)
    with pytest.raises(GraphError, match="n x B"):
        bfs_columns(g, np.ones((5, 2), dtype=bool))
    with pytest.raises(GraphError, match="n x B"):
        bfs_columns(g, np.ones(6, dtype=bool))


@given(st.one_of(
    st.integers(min_value=3, max_value=80).map(lambda n: generate("cycle", n=n)),
    st.integers(min_value=1, max_value=6).map(lambda dim: generate("hypercube", dim=dim)),
    connected_graphs(max_n=40),
    st.just(two_components()),
    st.just(build_graph([], 1)),
))
@example(generate("random_regular", n=1024, d=3, seed=1))  # levels that gain bits in over 4096 words
@settings(max_examples=60, deadline=None)
def test_distance_matrix_matches_the_stacked_reference(g):
    dm = g.distance_matrix
    assert dm.dtype == np.int64 and dm.shape == (g.n, g.n) and not dm.flags.writeable
    assert np.array_equal(dm, np.stack([reference_distances(g, [v]) for v in range(g.n)]))


def test_distance_matrix_is_one_bfs_columns_call(monkeypatch):
    g = generate("random_regular", n=64, d=3, seed=2)
    calls = []

    def counted(name):
        real = getattr(graphs, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("bfs_columns", "distances_from", "_bfs"):
        monkeypatch.setattr(graphs, name, counted(name))
    g.distance_matrix
    assert calls == ["bfs_columns"]


def test_cached_graph_arrays_are_read_only():
    for g in (generate("random_regular", n=16, d=3, seed=7), build_graph([], 1)):
        arrays = [g.distance_matrix] + [getattr(g.slots, f.name) for f in dataclasses.fields(g.slots)]
        for a in arrays:
            assert isinstance(a, np.ndarray) and not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


# --- expansion ------------------------------------------------------------


def test_expansion_complete_graph():
    psi, argmin = vertex_expansion_exact(generate("complete", n=4))
    assert psi == 1.0
    assert argmin == frozenset({0, 1})


def test_expansion_cycle():
    g = generate("cycle", n=12)
    psi, argmin = vertex_expansion_exact(g)
    assert psi == pytest.approx(2 / 6)
    # a contiguous arc of length n/2 attains the minimum
    assert len(argmin) == 6


def test_expansion_guard():
    with pytest.raises(GuardError):
        vertex_expansion_exact(generate("cycle", n=25))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_expansion_matches_brute_force(seed):
    rng = SplitMix64(seed)
    n = 4 + rng.randrange(5)
    while True:
        edges = [e for e in itertools.combinations(range(n), 2) if rng.next_float() < 0.5]
        try:
            g = build_graph(edges, n)
            break
        except GraphError:
            continue
    psi, argmin = vertex_expansion_exact(g)
    ref_psi, _ = brute_expansion(g)
    assert psi == pytest.approx(ref_psi, abs=1e-12)
    boundary = {w for v in argmin for w in g.adj[v]} - set(argmin)
    assert len(boundary) / len(argmin) == pytest.approx(psi, abs=1e-12)


def test_expansion_tie_break_smallest_mask():
    # C4: every singleton attains psi = 2; vertex 0 is the smallest mask
    psi, argmin = vertex_expansion_exact(generate("cycle", n=4))
    assert psi == 1.0
    assert argmin == frozenset({0, 1})

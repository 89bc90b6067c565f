"""Edge weightings: Lipschitz constants, induced chains, ratio bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walklab.weighting as weighting_module
from walklab.chains import ChainError, ReversibleChain
from walklab.graphs import GraphError, GraphFileError, build_graph, diameter, distances_from, generate
from walklab.rng import SplitMix64
from walklab.weighting import (
    RATIO_TOL,
    EdgeWeighting,
    WeightingError,
    bottleneck_weighting,
    induced_chain,
    lipschitz_beta,
    parse_weighting_text,
    random_lipschitz_weighting,
    slot_transitions,
    stationary_ratio_audit,
    target_decay_weighting,
    uniform_weighting,
)


def weight(w, u, v):
    """w's weight on edge {u, v}, found through the graph's edge index."""
    return float(w.weights[w.graph.edge_index[min(u, v), max(u, v)]])


# --- construction ---------------------------------------------------------


def test_uniform_strengths_and_total():
    k4 = generate("complete", n=4)
    w = uniform_weighting(k4)
    assert list(w.strengths) == [3.0] * 4
    c6 = generate("cycle", n=6)
    assert uniform_weighting(c6).total == pytest.approx(12.0)


def test_rejects_nonpositive_weights():
    g = generate("cycle", n=4)
    with pytest.raises(WeightingError):
        EdgeWeighting(g, np.array([1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(WeightingError):
        EdgeWeighting(g, np.array([1.0, -2.0, 1.0, 1.0]))
    with pytest.raises(WeightingError):
        EdgeWeighting(g, np.array([1.0, np.inf, 1.0, 1.0]))


def test_weight_lookup_is_symmetric():
    g = generate("cycle", n=4)
    # canonical edge order (0,1),(0,3),(1,2),(2,3)
    w = EdgeWeighting(g, np.array([1.0, 2.0, 3.0, 4.0]))
    assert weight(w, 1, 2) == weight(w, 2, 1) == 3.0
    assert weight(w, 3, 0) == 2.0


# --- Lipschitz constant ---------------------------------------------------


def test_beta_uniform_is_one():
    g = generate("complete", n=5)
    assert lipschitz_beta(uniform_weighting(g)) == 1.0


def test_beta_alternating_cycle():
    g = generate("cycle", n=6)
    # canonical edge order (0,1),(0,5),(1,2),(2,3),(3,4),(4,5)
    weights = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 4): 2, (4, 5): 1, (0, 5): 2}
    w = EdgeWeighting(g, np.array([weights[e] for e in g.edges], dtype=float))
    assert lipschitz_beta(w) == 2.0


def test_beta_only_constrains_shared_vertex_edges():
    # weights far apart on disjoint edges do not inflate beta
    g = generate("cycle", n=8)
    values = {e: 1.0 for e in g.edges}
    values[(0, 1)] = 100.0
    values[(1, 2)] = 100.0
    values[(2, 3)] = 100.0
    w = EdgeWeighting(g, np.array([values[e] for e in g.edges]))
    assert lipschitz_beta(w) == 100.0


# --- target decay ---------------------------------------------------------


def test_target_decay_theta_zero_is_uniform():
    g = generate("cycle", n=6)
    w = target_decay_weighting(g, [0], 0.0)
    assert np.allclose(w.weights, 1.0)


def test_target_decay_cycle_values():
    g = generate("cycle", n=6)
    w = target_decay_weighting(g, [0], 0.5)
    assert weight(w, 0, 1) == pytest.approx(0.5)
    assert weight(w, 2, 3) == pytest.approx(0.125)
    assert weight(w, 0, 5) == pytest.approx(0.5)
    assert weight(w, 3, 4) == pytest.approx(0.125)


def test_target_decay_beta_bound():
    rng = SplitMix64(3)
    for theta in (0.1, 0.3, 0.6):
        for g in (generate("cycle", n=9), generate("hypercube", dim=3), generate("complete", n=5)):
            targets = [rng.randrange(g.n)]
            w = target_decay_weighting(g, targets, theta)
            assert lipschitz_beta(w) <= 1.0 / (1.0 - theta) + 1e-12


def test_target_decay_rejects_bad_theta():
    g = generate("cycle", n=4)
    with pytest.raises(WeightingError):
        target_decay_weighting(g, [0], 1.0)
    with pytest.raises(WeightingError):
        target_decay_weighting(g, [0], -0.1)


# --- bottleneck -----------------------------------------------------------


def test_bottleneck_cycle12_values():
    g = generate("cycle", n=12)
    w, pair = bottleneck_weighting(g, 2.0)
    assert pair == (0, 6)
    assert weight(w, 0, 1) == pytest.approx(1.0)
    assert weight(w, 2, 3) == pytest.approx(0.25)
    assert lipschitz_beta(w) <= 2.0 + 1e-12


def test_bottleneck_needs_diameter_four():
    with pytest.raises(WeightingError):
        bottleneck_weighting(generate("complete", n=4), 2.0)


def test_bottleneck_needs_beta_above_one():
    with pytest.raises(WeightingError):
        bottleneck_weighting(generate("cycle", n=12), 1.0)


# --- induced chain --------------------------------------------------------


def test_induced_chain_uniform_is_srw():
    g = generate("complete", n=4)
    ch = induced_chain(uniform_weighting(g))
    assert np.allclose(ch.pi, 0.25)
    assert ch.matrix[0, 1] == pytest.approx(1 / 3)
    assert ch.matrix[0, 0] == 0.0


def test_induced_chain_c4_alternating():
    g = generate("cycle", n=4)
    # edges in canonical order: (0,1),(0,3),(1,2),(2,3) -> weights 1,2,2,1
    w = EdgeWeighting(g, np.array([1.0, 2.0, 2.0, 1.0]))
    ch = induced_chain(w)
    assert np.allclose(ch.pi, 0.25)
    assert ch.matrix[0, 1] == pytest.approx(1 / 3)
    assert ch.matrix[0, 3] == pytest.approx(2 / 3)


def test_induced_chain_moves_on_the_weightings_own_edges():
    # the path 0-1-2-3-4-5 plus the chord (1, 4): same size as cycle:6, other edges
    path_plus = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)], 6)
    w = uniform_weighting(path_plus)
    ch = induced_chain(w)
    support = {(int(x), int(y)) for x, y in zip(*np.nonzero(ch.matrix))}
    assert support == {(u, v) for u, v in path_plus.edges} | {(v, u) for u, v in path_plus.edges}
    assert np.array_equal(ch.pi, w.strengths / w.total)


def test_induced_chain_rows_sum_to_one():
    rng = SplitMix64(17)
    g = generate("hypercube", dim=3)
    w = random_lipschitz_weighting(g, 2.5, rng)
    ch = induced_chain(w)
    assert np.max(np.abs(ch.matrix.sum(axis=1) - 1.0)) < 1e-12


# --- stationary ratio audit -----------------------------------------------


def test_ratio_audit_uniform_all_k():
    g = generate("cycle", n=8)
    w = uniform_weighting(g)
    for k in range(1, 5):
        assert stationary_ratio_audit(w, k)


def test_ratio_audit_target_decay_cycle():
    g = generate("cycle", n=6)
    w = target_decay_weighting(g, [0], 0.5)
    for k in range(1, 4):
        assert stationary_ratio_audit(w, k)


def test_ratio_audit_flags_violations():
    # beta reported as 1 for a non-uniform weighting must fail at k=1
    g = generate("cycle", n=6)
    w = target_decay_weighting(g, [0], 0.5)
    assert not stationary_ratio_audit(w, 1, beta=1.0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_ratio_audit_random_weightings(seed):
    rng = SplitMix64(seed)
    g = generate("random_regular", n=10, d=3, seed=seed % 7)
    w = random_lipschitz_weighting(g, 2.0, rng)
    assert lipschitz_beta(w) <= 2.0 * (1 + 1e-12)
    dia, _ = diameter(g)
    for k in range(1, dia + 1):
        assert stationary_ratio_audit(w, k)


# --- random weighting generator -------------------------------------------


def test_random_weighting_respects_sigma_and_seed():
    g = generate("random_regular", n=16, d=3, seed=2)
    a = random_lipschitz_weighting(g, 1.5, SplitMix64(5))
    b = random_lipschitz_weighting(g, 1.5, SplitMix64(5))
    assert np.array_equal(a.weights, b.weights)
    assert lipschitz_beta(a) <= 1.5 * (1 + 1e-12)


def test_random_weighting_sigma_one_is_uniform_ratio():
    g = generate("cycle", n=6)
    w = random_lipschitz_weighting(g, 1.0, SplitMix64(11))
    assert lipschitz_beta(w) == pytest.approx(1.0)


# --- file format ----------------------------------------------------------


def test_weighting_text_round_trip():
    g = generate("cycle", n=5)
    w = EdgeWeighting(g, np.array([0.5, 1.25, 2.0, 0.125, 3.0]))
    text = "".join(f"{u} {v} {float(w.weights[i])!r}\n" for i, (u, v) in enumerate(g.edges))
    again = parse_weighting_text(text, g)
    assert np.array_equal(again.weights, w.weights)


def test_weighting_parse_reports_line_number():
    g = generate("cycle", n=4)
    text = "0 1 1.0\n0 3 2.0\n1 2 zebra\n2 3 1.0\n"
    with pytest.raises(GraphFileError) as err:
        parse_weighting_text(text, g)
    assert "3" in str(err.value)


def test_weighting_parse_rejects_unknown_edge():
    g = generate("cycle", n=4)
    with pytest.raises(GraphFileError):
        parse_weighting_text("0 2 1.0\n", g)


def test_weighting_parse_rejects_duplicate_and_missing():
    g = generate("cycle", n=4)
    with pytest.raises(GraphFileError):
        parse_weighting_text("0 1 1.0\n1 0 2.0\n", g)
    with pytest.raises(GraphFileError):
        parse_weighting_text("0 1 1.0\n1 2 1.0\n2 3 1.0\n", g)


# --- reference loops ------------------------------------------------------
# The per-vertex and per-pair loops that the vectorized layer replaced,
# kept as oracles: every seeded weighting, beta, audit answer and diameter
# witness must match them exactly.


def reference_beta(g, w):
    beta = 1.0
    for v in range(g.n):
        inc = [w.weights[g.edge_index[(min(v, u), max(v, u))]] for u in g.adj[v]]
        beta = max(beta, max(inc) / min(inc))
    return float(beta)


def reference_diameter(g):
    best, pair = -1, (0, 0)
    dm = np.stack([distances_from(g, [v]) for v in range(g.n)])
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if dm[u, v] > best:
                best, pair = int(dm[u, v]), (u, v)
    return best, pair


def reference_audit(g, w, k, beta=None):
    if beta is None:
        beta = reference_beta(g, w)
    bound = (max(g.degrees) * beta * beta / min(g.degrees)) ** k
    pi = w.strengths / w.total
    for x in range(g.n):
        dist = distances_from(g, [x])
        for y in range(g.n):
            if 0 <= dist[y] <= k:
                ratio = pi[x] / pi[y]
                if ratio > bound * (1.0 + RATIO_TOL) or ratio < (1.0 - RATIO_TOL) / bound:
                    return False
    return True


def reference_random_weighting(g, sigma, rng, rounds=None):
    """Copy, re-validate and recompute the global beta on every move."""
    n, m = g.n, g.m
    base_kind = rng.randrange(3)
    if base_kind == 1 and sigma > 1.0:
        size = 1 + rng.randrange(max(1, n // 2))
        targets = set()
        while len(targets) < size:
            targets.add(rng.randrange(n))
        w = target_decay_weighting(g, targets, 1.0 - 1.0 / sigma)
    elif base_kind == 2 and sigma > 1.0:
        d, (u, v) = reference_diameter(g)
        dist = distances_from(g, [u, v])
        if d >= 4:
            w = EdgeWeighting(g, np.array([sigma ** (-float(min(dist[a], dist[b]))) for a, b in g.edges]))
        else:
            w = uniform_weighting(g)
    else:
        w = uniform_weighting(g)
    weights = w.weights.copy()
    if rounds is None:
        rounds = 3 * m
    log_sigma = math.log(sigma) if sigma > 1.0 else 0.0
    for _ in range(rounds):
        if log_sigma == 0.0:
            break
        e = rng.randrange(m)
        factor = math.exp((2.0 * rng.next_float() - 1.0) * log_sigma)
        candidate = weights.copy()
        candidate[e] *= factor
        cw = EdgeWeighting(g, candidate)
        if reference_beta(g, cw) <= sigma * (1.0 + RATIO_TOL):
            weights = candidate
    return EdgeWeighting(g, weights)


# degrees 1 to 3, diameter 7, so the bottleneck base applies
IRREGULAR = build_graph(
    [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7), (7, 8), (8, 9)], 10
)
ORACLE_GRAPHS = st.one_of(
    st.integers(min_value=3, max_value=13).map(lambda n: generate("cycle", n=n)),
    st.just(generate("hypercube", dim=4)),
    st.tuples(st.sampled_from([8, 12, 16, 24]), st.integers(min_value=0, max_value=30)).map(
        lambda t: generate("random_regular", n=t[0], d=3, seed=t[1])
    ),
    st.just(IRREGULAR),
)


@given(
    ORACLE_GRAPHS,
    st.sampled_from([1.0, 1.3, 2.0, 6.0]),
    st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=80, deadline=None)
def test_lipschitz_layer_matches_reference_loops(g, sigma, seed):
    rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
    w = random_lipschitz_weighting(g, sigma, rng)
    ref = reference_random_weighting(g, sigma, ref_rng)
    assert w.weights.tobytes() == ref.weights.tobytes()
    assert rng.next_u64() == ref_rng.next_u64()  # the same draws were consumed
    beta = lipschitz_beta(w)
    assert beta == reference_beta(g, w)
    spread = EdgeWeighting(g, np.exp(np.random.default_rng(seed).uniform(-20.0, 20.0, g.m)))
    assert lipschitz_beta(spread) == reference_beta(g, spread)
    dia, pair = diameter(g)
    assert (dia, pair) == reference_diameter(g)
    for k in range(dia + 2):
        for claimed in (None, 1.0, sigma):
            assert stationary_ratio_audit(w, k, claimed) == reference_audit(g, w, k, claimed), (k, claimed)
        assert stationary_ratio_audit(spread, k) == reference_audit(g, spread, k)


def reference_strengths(w):
    """Per-edge accumulation in canonical edge order, the loop `strengths` replaced."""
    g = w.graph
    s = np.zeros(g.n)
    with np.errstate(over="ignore"):
        for idx, (u, v) in enumerate(g.edges):
            s[u] += w.weights[idx]
            s[v] += w.weights[idx]
    over = np.flatnonzero(~np.isfinite(s))
    if len(over):
        raise WeightingError(f"strength of vertex {over[0]} overflows the float range")
    return s


def reference_induced_chain(w):
    g = w.graph
    p = np.zeros((g.n, g.n))
    s = reference_strengths(w)
    for idx, (a, b) in enumerate(g.edges):
        p[a, b] = w.weights[idx] / s[a]
        p[b, a] = w.weights[idx] / s[b]
    return ReversibleChain(p, s / w.total)


def reference_target_decay(g, targets, theta):
    dist = distances_from(g, targets)
    return EdgeWeighting(g, np.array([(1.0 - theta) ** int(max(dist[a], dist[b])) for a, b in g.edges]))


def reference_bottleneck(g, beta):
    _, (u, v) = reference_diameter(g)
    dist = np.minimum(distances_from(g, [u]), distances_from(g, [v]))
    return EdgeWeighting(g, np.array([beta ** (-float(min(dist[a], dist[b]))) for a, b in g.edges])), (u, v)


def outcome(f):
    """f()'s items with arrays and weightings as bytes, or the type and
    message of the error it raises."""
    try:
        result = f()
    except (WeightingError, ChainError) as exc:
        return type(exc), str(exc)
    as_array = lambda x: x.weights if isinstance(x, EdgeWeighting) else x
    return [x.tobytes() if isinstance(x, np.ndarray) else x for x in map(as_array, result)]


# weights of every scale: moderate, spread over the float range, subnormal,
# and large enough that two of them at one vertex overflow its strength
WEIGHTS = st.one_of(
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=1e-300, max_value=1e300),
    st.sampled_from([5e-324, 1e-320, 1e308, 1.5e308]),
)


@st.composite
def connected_graphs(draw, max_n=12):
    """A random spanning tree plus random chords, randomly relabelled (the
    strategy of the same name in test_graphs.py)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    parents = [draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    label = draw(st.permutations(range(n)))
    edges = {tuple(sorted((label[v], label[p]))) for v, p in enumerate(parents, start=1)}
    edges |= {tuple(sorted((label[a], label[b]))) for a, b in chords if a != b}
    return build_graph(sorted(edges), n)


@given(st.one_of(ORACLE_GRAPHS, connected_graphs()), st.data())
@settings(max_examples=150, deadline=None)
def test_slot_layer_matches_reference_loops(g, data):
    weights = data.draw(st.lists(WEIGHTS, min_size=g.m, max_size=g.m), label="weights")
    w = EdgeWeighting(g, np.array(weights))
    assert outcome(lambda: [w.strengths]) == outcome(lambda: [reference_strengths(w)])
    if g.n >= 2:
        chain = outcome(lambda: [(c := induced_chain(w)).matrix, c.pi, w.pi])
        ref = outcome(lambda: [(c := reference_induced_chain(w)).matrix, c.pi, c.pi])
        assert chain == ref
    targets = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1), label="targets")
    theta = data.draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), label="theta")
    decay = outcome(lambda: [target_decay_weighting(g, targets, theta)])
    assert decay == outcome(lambda: [reference_target_decay(g, targets, theta)])
    if g.n >= 2 and diameter(g)[0] >= 4:
        beta = data.draw(st.floats(min_value=1.0, max_value=1e200, exclude_min=True), label="beta")
        assert outcome(lambda: bottleneck_weighting(g, beta)) == outcome(lambda: reference_bottleneck(g, beta))


def test_strength_overflow_names_the_first_vertex():
    # on the path 0-1-2-3 vertices 1 and 2 both overflow; the message names 1
    w = EdgeWeighting(build_graph([(0, 1), (1, 2), (2, 3)], 4), np.array([1e308, 1e308, 1e308]))
    for strengths in (lambda: w.strengths, lambda: reference_strengths(w)):
        with pytest.raises(WeightingError, match="strength of vertex 1 overflows"):
            strengths()


def test_slot_transitions_check_rows_and_detailed_balance():
    # both checks guard the slot table's bookkeeping: strengths that do not
    # match the slots' edges break the row sums, and slots paired with the
    # wrong reverse break detailed balance
    g = generate("cycle", n=6)
    w = target_decay_weighting(g, [0], 0.5)
    sl, s = g.slots, w.strengths
    g.__dict__["slots"] = dataclasses.replace(sl, edge=np.roll(sl.edge, 1))
    with pytest.raises(ChainError, match="rows must sum to 1"):
        slot_transitions(w)
    g.__dict__["slots"] = dataclasses.replace(sl, edge_slots=np.stack([sl.edge_slots[0], np.roll(sl.edge_slots[1], 1)]))
    with pytest.raises(ChainError, match="detailed balance"):
        slot_transitions(w)
    assert s is w.strengths


def test_weighting_arrays_are_read_only():
    g = generate("random_regular", n=16, d=3, seed=7)
    w = target_decay_weighting(g, [0, 5], 0.3)
    for a in (w.weights, w.strengths, w.pi):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 1.0


def test_random_weighting_does_no_global_work_per_move(monkeypatch):
    calls = {"beta": 0, "weighting": 0}
    real_beta, real_check = weighting_module.lipschitz_beta, EdgeWeighting.__post_init__

    def counted_beta(w):
        calls["beta"] += 1
        return real_beta(w)

    def counted_check(self):
        calls["weighting"] += 1
        real_check(self)

    monkeypatch.setattr(weighting_module, "lipschitz_beta", counted_beta)
    monkeypatch.setattr(EdgeWeighting, "__post_init__", counted_check)
    g = generate("random_regular", n=64, d=3, seed=5)
    for index in range(6):
        random_lipschitz_weighting(g, 2.0, SplitMix64.stream(9, index))  # 3m = 288 moves each
    # one base weighting and the result per call, never one per move
    assert calls == {"beta": 0, "weighting": 12}


def test_lipschitz_beta_without_edges_is_one():
    g = build_graph([], 1)
    assert lipschitz_beta(uniform_weighting(g)) == 1.0


def test_random_weighting_on_one_vertex_is_empty():
    # the bottleneck base (drawn at s = 1, 5 and 6) reads diameter 0 and
    # gives way to the uniform base, as below diameter 4 on any graph
    g = build_graph([], 1)
    assert diameter(g) == (0, (0, 0))
    for s in range(12):
        assert random_lipschitz_weighting(g, 2.0, SplitMix64(s)).weights.shape == (0,)


@pytest.mark.parametrize("sigma", [1e100, 1e200, 1.7e308])
def test_random_weighting_rejects_moves_that_leave_the_float_range(sigma):
    # a bottleneck base on the 12-cycle, then moves by factors up to sigma:
    # products that overflow or underflow are rejected like out-of-bound ones;
    # 112 weightings of 3m = 36 moves each make over 4000 moves
    g = generate("cycle", n=12)
    for index in range(112):
        w = random_lipschitz_weighting(g, sigma, SplitMix64.stream(4, index))
        assert np.all(np.isfinite(w.weights)) and np.all(w.weights > 0.0)
        assert lipschitz_beta(w) <= sigma * (1.0 + RATIO_TOL)


@pytest.mark.parametrize("sigma", [1e15, 1e100])
def test_random_weighting_base_past_sigma_starts_uniform(sigma, monkeypatch):
    # theta = 1 - 1/sigma rounds: at 1e15 the target-decay base's ratio
    # 1/(1 - theta) is 1.0008e15, above sigma, and at 1e100 theta is 1 and
    # the base cannot be built.  The uniform base replaces it after the
    # base's draws, so the stream continues where a sigma = 3 base leaves it
    # (the moves after the base take two draws each at any sigma).
    uniform_bases = []

    def recorded(g):
        uniform_bases.append(g)
        return uniform_weighting(g)

    monkeypatch.setattr(weighting_module, "uniform_weighting", recorded)
    replaced = 0
    for g in (generate("cycle", n=8), generate("cycle", n=12)):
        for index in range(12):
            huge, moderate = SplitMix64.stream(1, index), SplitMix64.stream(1, index)
            uniform_bases.clear()
            w = random_lipschitz_weighting(g, sigma, huge)
            assert lipschitz_beta(w) <= sigma * (1.0 + RATIO_TOL)
            huge_uniform = bool(uniform_bases)
            uniform_bases.clear()
            random_lipschitz_weighting(g, 3.0, moderate)
            assert huge.next_float() == moderate.next_float()
            replaced += huge_uniform and not uniform_bases
    assert replaced > 0


def test_ratio_audit_overflowing_bound_passes():
    # (d_max beta^2 / d_min)^k beyond the float range is an infinite budget
    g = generate("cycle", n=8)
    w = target_decay_weighting(g, [0], 0.5)
    assert stationary_ratio_audit(w, 3, beta=1e100)
    assert not stationary_ratio_audit(w, 3, beta=1.0)


@pytest.mark.parametrize("k", [0, 1, 5])
def test_ratio_audit_on_one_vertex_is_a_weighting_error(k):
    # d_min is 0 there: the bound's division must not raise ZeroDivisionError
    w = uniform_weighting(build_graph([], 1))
    with pytest.raises(WeightingError, match="needs n >= 2"):
        stationary_ratio_audit(w, k)
    with pytest.raises(WeightingError, match="needs n >= 2"):
        stationary_ratio_audit(w, k, beta=2.0)

"""Edge weightings: Lipschitz constants, induced chains, ratio bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walklab.weighting as weighting_module
from walklab.graphs import GraphError, GraphFileError, build_graph, diameter, distances_from, generate
from walklab.rng import SplitMix64
from walklab.weighting import (
    RATIO_TOL,
    EdgeWeighting,
    WeightingError,
    bottleneck_weighting,
    format_weighting_text,
    induced_chain,
    lipschitz_beta,
    parse_weighting_text,
    random_lipschitz_weighting,
    stationary_ratio_audit,
    target_decay_weighting,
    uniform_weighting,
)


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
    assert w.weight(1, 2) == w.weight(2, 1) == 3.0
    assert w.weight(3, 0) == 2.0


# --- Lipschitz constant ---------------------------------------------------


def test_beta_uniform_is_one():
    g = generate("complete", n=5)
    assert lipschitz_beta(g, uniform_weighting(g)) == 1.0


def test_beta_alternating_cycle():
    g = generate("cycle", n=6)
    # canonical edge order (0,1),(0,5),(1,2),(2,3),(3,4),(4,5)
    weights = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 4): 2, (4, 5): 1, (0, 5): 2}
    w = EdgeWeighting(g, np.array([weights[e] for e in g.edges], dtype=float))
    assert lipschitz_beta(g, w) == 2.0


def test_beta_only_constrains_shared_vertex_edges():
    # weights far apart on disjoint edges do not inflate beta
    g = generate("cycle", n=8)
    values = {e: 1.0 for e in g.edges}
    values[(0, 1)] = 100.0
    values[(1, 2)] = 100.0
    values[(2, 3)] = 100.0
    w = EdgeWeighting(g, np.array([values[e] for e in g.edges]))
    assert lipschitz_beta(g, w) == 100.0


# --- target decay ---------------------------------------------------------


def test_target_decay_theta_zero_is_uniform():
    g = generate("cycle", n=6)
    w = target_decay_weighting(g, [0], 0.0)
    assert np.allclose(w.weights, 1.0)


def test_target_decay_cycle_values():
    g = generate("cycle", n=6)
    w = target_decay_weighting(g, [0], 0.5)
    assert w.weight(0, 1) == pytest.approx(0.5)
    assert w.weight(2, 3) == pytest.approx(0.125)
    assert w.weight(0, 5) == pytest.approx(0.5)
    assert w.weight(3, 4) == pytest.approx(0.125)


def test_target_decay_beta_bound():
    rng = SplitMix64(3)
    for theta in (0.1, 0.3, 0.6):
        for g in (generate("cycle", n=9), generate("hypercube", dim=3), generate("complete", n=5)):
            targets = [rng.randrange(g.n)]
            w = target_decay_weighting(g, targets, theta)
            assert lipschitz_beta(g, w) <= 1.0 / (1.0 - theta) + 1e-12


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
    assert w.weight(0, 1) == pytest.approx(1.0)
    assert w.weight(2, 3) == pytest.approx(0.25)
    assert lipschitz_beta(g, w) <= 2.0 + 1e-12


def test_bottleneck_needs_diameter_four():
    with pytest.raises(WeightingError):
        bottleneck_weighting(generate("complete", n=4), 2.0)


def test_bottleneck_needs_beta_above_one():
    with pytest.raises(WeightingError):
        bottleneck_weighting(generate("cycle", n=12), 1.0)


# --- induced chain --------------------------------------------------------


def test_induced_chain_uniform_is_srw():
    g = generate("complete", n=4)
    ch = induced_chain(g, uniform_weighting(g))
    assert np.allclose(ch.pi, 0.25)
    assert ch.matrix[0, 1] == pytest.approx(1 / 3)
    assert ch.matrix[0, 0] == 0.0


def test_induced_chain_c4_alternating():
    g = generate("cycle", n=4)
    # edges in canonical order: (0,1),(0,3),(1,2),(2,3) -> weights 1,2,2,1
    w = EdgeWeighting(g, np.array([1.0, 2.0, 2.0, 1.0]))
    ch = induced_chain(g, w)
    assert np.allclose(ch.pi, 0.25)
    assert ch.matrix[0, 1] == pytest.approx(1 / 3)
    assert ch.matrix[0, 3] == pytest.approx(2 / 3)


def test_induced_chain_rows_sum_to_one():
    rng = SplitMix64(17)
    g = generate("hypercube", dim=3)
    w = random_lipschitz_weighting(g, 2.5, rng)
    ch = induced_chain(g, w)
    assert np.max(np.abs(ch.matrix.sum(axis=1) - 1.0)) < 1e-12


# --- stationary ratio audit -----------------------------------------------


def test_ratio_audit_uniform_all_k():
    g = generate("cycle", n=8)
    w = uniform_weighting(g)
    for k in range(1, 5):
        assert stationary_ratio_audit(g, w, k)


def test_ratio_audit_target_decay_cycle():
    g = generate("cycle", n=6)
    w = target_decay_weighting(g, [0], 0.5)
    for k in range(1, 4):
        assert stationary_ratio_audit(g, w, k)


def test_ratio_audit_flags_violations():
    # beta reported as 1 for a non-uniform weighting must fail at k=1
    g = generate("cycle", n=6)
    w = target_decay_weighting(g, [0], 0.5)
    assert not stationary_ratio_audit(g, w, 1, beta=1.0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_ratio_audit_random_weightings(seed):
    rng = SplitMix64(seed)
    g = generate("random_regular", n=10, d=3, seed=seed % 7)
    w = random_lipschitz_weighting(g, 2.0, rng)
    assert lipschitz_beta(g, w) <= 2.0 * (1 + 1e-12)
    dia, _ = diameter(g)
    for k in range(1, dia + 1):
        assert stationary_ratio_audit(g, w, k)


# --- random weighting generator -------------------------------------------


def test_random_weighting_respects_sigma_and_seed():
    g = generate("random_regular", n=16, d=3, seed=2)
    a = random_lipschitz_weighting(g, 1.5, SplitMix64(5))
    b = random_lipschitz_weighting(g, 1.5, SplitMix64(5))
    assert np.array_equal(a.weights, b.weights)
    assert lipschitz_beta(g, a) <= 1.5 * (1 + 1e-12)


def test_random_weighting_sigma_one_is_uniform_ratio():
    g = generate("cycle", n=6)
    w = random_lipschitz_weighting(g, 1.0, SplitMix64(11))
    assert lipschitz_beta(g, w) == pytest.approx(1.0)


# --- file format ----------------------------------------------------------


def test_weighting_text_round_trip():
    g = generate("cycle", n=5)
    w = EdgeWeighting(g, np.array([0.5, 1.25, 2.0, 0.125, 3.0]))
    again = parse_weighting_text(format_weighting_text(w), g)
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
    st.none() | st.integers(min_value=0, max_value=80),
)
@settings(max_examples=80, deadline=None)
def test_lipschitz_layer_matches_reference_loops(g, sigma, seed, rounds):
    rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
    w = random_lipschitz_weighting(g, sigma, rng, rounds)
    ref = reference_random_weighting(g, sigma, ref_rng, rounds)
    assert w.weights.tobytes() == ref.weights.tobytes()
    assert rng.next_u64() == ref_rng.next_u64()  # the same draws were consumed
    beta = lipschitz_beta(g, w)
    assert beta == reference_beta(g, w)
    spread = EdgeWeighting(g, np.exp(np.random.default_rng(seed).uniform(-20.0, 20.0, g.m)))
    assert lipschitz_beta(g, spread) == reference_beta(g, spread)
    dia, pair = diameter(g)
    assert (dia, pair) == reference_diameter(g)
    for k in range(dia + 2):
        for claimed in (None, 1.0, sigma):
            assert stationary_ratio_audit(g, w, k, claimed) == reference_audit(g, w, k, claimed), (k, claimed)
        assert stationary_ratio_audit(g, spread, k) == reference_audit(g, spread, k)


def test_random_weighting_does_no_global_work_per_move(monkeypatch):
    calls = {"beta": 0, "weighting": 0}
    real_beta, real_check = weighting_module.lipschitz_beta, EdgeWeighting.__post_init__

    def counted_beta(g, w):
        calls["beta"] += 1
        return real_beta(g, w)

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
    assert lipschitz_beta(g, uniform_weighting(g)) == 1.0


@pytest.mark.parametrize("sigma", [1e100, 1e200, 1.7e308])
def test_random_weighting_rejects_moves_that_leave_the_float_range(sigma):
    # a bottleneck base on the 12-cycle, then moves by factors up to sigma:
    # products that overflow or underflow are rejected like out-of-bound ones
    g = generate("cycle", n=12)
    built = 0
    for index in range(20):
        rng = SplitMix64.stream(4, index)
        try:
            w = random_lipschitz_weighting(g, sigma, rng, rounds=200)
        except WeightingError as exc:
            assert "theta" in str(exc)  # 1 - 1/sigma rounds to 1: no target-decay base
            continue
        assert np.all(np.isfinite(w.weights)) and np.all(w.weights > 0.0)
        assert lipschitz_beta(g, w) <= sigma * (1.0 + RATIO_TOL)
        built += 1
    assert built > 0


def test_ratio_audit_overflowing_bound_passes():
    # (d_max beta^2 / d_min)^k beyond the float range is an infinite budget
    g = generate("cycle", n=8)
    w = target_decay_weighting(g, [0], 0.5)
    assert stationary_ratio_audit(g, w, 3, beta=1e100)
    assert not stationary_ratio_audit(g, w, 3, beta=1.0)

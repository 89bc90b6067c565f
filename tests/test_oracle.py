"""Trajectory oracle: event DPs, boost bounds, power means, majorization."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from walklab import oracle
from walklab.graphs import GuardError, build_graph, generate, small_regular_catalog
from walklab.oracle import (
    BoostReport,
    EventKind,
    EventSpec,
    OracleError,
    biased_operator,
    boost_bound_audit,
    boost_bound_grid,
    conv_lemma_audit,
    eta_grid,
    event_prob_exact,
    majorizes,
    optimal_tbrw_event_prob,
    parse_event_text,
    power_mean,
    robin_hood_pair,
    schur_audit,
    srw_event_prob,
    srw_expected_cover_exact,
)
from walklab.oracle import STACK_CELLS, _encode, _horizon_values, _satisfied
from walklab.rng import SplitMix64


RAW_TREE_GUARD = 8


def raw_tree_event_prob(g, u, event, eps=0.0):
    """Reference recursion over explicit trajectories, no state collapsing.

    Exponential in the horizon; guarded to horizon <= 8.  Exists purely to
    certify that the mask DP computes the same numbers.
    """
    if event.horizon > RAW_TREE_GUARD:
        raise GuardError(f"raw tree horizon {event.horizon} exceeds guard {RAW_TREE_GUARD}")
    if not (0.0 <= eps <= 1.0):
        raise OracleError("eps must lie in [0, 1]")
    if event.kind is EventKind.COVER_ALL:
        targets = frozenset(range(g.n))
    elif event.kind is EventKind.RETURN_TO_START:
        targets = frozenset({u})
    else:
        targets = event.targets

    def satisfied(traj):
        seen = set(traj[1:]) if event.kind is EventKind.RETURN_TO_START else set(traj)
        if event.kind is EventKind.HIT_ANY:
            return bool(seen & targets)
        if event.kind is EventKind.RETURN_TO_START:
            return u in seen
        return targets <= seen

    def value(traj):
        if satisfied(traj):
            return 1.0
        if len(traj) - 1 == event.horizon:
            return 0.0
        kids = [value(traj + (w,)) for w in g.adj[traj[-1]]]
        mean = sum(kids) / len(kids)
        return mean if eps == 0.0 else (1.0 - eps) * mean + eps * max(kids)

    return value((u,))


def probe_graph():
    """Six vertices: a degree-3 hub (0) whose neighbours reach vertex 5 along
    two routes of different value, plus one dead-end branch."""
    return build_graph([(0, 1), (0, 4), (0, 2), (2, 3), (2, 5), (1, 3), (5, 4)], 6)


def hit(v, t):
    return EventSpec(EventKind.HIT_ANY, t, frozenset({v}))


# --- event specs and parsing ---------------------------------------------------


def test_event_spec_validation():
    with pytest.raises(OracleError):
        EventSpec(EventKind.HIT_ANY, -1, frozenset({0}))
    with pytest.raises(OracleError):
        EventSpec(EventKind.HIT_ALL, 2)
    with pytest.raises(OracleError):
        EventSpec(EventKind.COVER_ALL, 2, frozenset({0}))
    with pytest.raises(OracleError):
        EventSpec(EventKind.RETURN_TO_START, 2, frozenset({1}))


def test_event_describe_and_parse_round_trip():
    assert hit(3, 2).describe() == "hit:3"
    assert EventSpec(EventKind.HIT_ALL, 4, frozenset({2, 1})).describe() == "hitall:1,2"
    assert EventSpec(EventKind.COVER_ALL, 4).describe() == "cover"
    assert EventSpec(EventKind.RETURN_TO_START, 4).describe() == "return"
    assert parse_event_text("hit:3", 2) == hit(3, 2)
    assert parse_event_text("hitall:1,2", 4) == EventSpec(EventKind.HIT_ALL, 4, frozenset({1, 2}))
    assert parse_event_text("hitany:0,5", 1) == EventSpec(EventKind.HIT_ANY, 1, frozenset({0, 5}))
    assert parse_event_text("cover", 3) == EventSpec(EventKind.COVER_ALL, 3)
    assert parse_event_text("return", 3) == EventSpec(EventKind.RETURN_TO_START, 3)
    with pytest.raises(OracleError):
        parse_event_text("hit:abc", 2)
    with pytest.raises(OracleError):
        parse_event_text("survive", 2)


@st.composite
def events(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    kind = draw(st.sampled_from(EventKind))
    horizon = draw(st.integers(min_value=0, max_value=12))
    targets = frozenset()
    if kind in (EventKind.HIT_ALL, EventKind.HIT_ANY):
        targets = draw(st.frozensets(st.integers(min_value=0, max_value=n - 1), min_size=1))
    return EventSpec(kind, horizon, targets)


@given(events())
@settings(max_examples=200)
def test_event_text_round_trips(event):
    assert parse_event_text(event.describe(), event.horizon) == event


# --- exact anchors on the probe graph -------------------------------------------


def test_probe_graph_plain_walk_anchor():
    g = probe_graph()
    assert event_prob_exact(g, 0, hit(5, 2)) == Fraction(5, 18)
    assert abs(srw_event_prob(g, 0, hit(5, 2)) - 5 / 18) < 1e-15


def test_probe_graph_biased_child_values():
    g = probe_graph()
    third = Fraction(1, 3)
    assert event_prob_exact(g, 4, hit(5, 1), third) == Fraction(2, 3)
    assert event_prob_exact(g, 2, hit(5, 1), third) == Fraction(5, 9)
    assert event_prob_exact(g, 1, hit(5, 1), third) == 0


def test_probe_graph_biased_root_value():
    g = probe_graph()
    assert event_prob_exact(g, 0, hit(5, 2), Fraction(1, 3)) == Fraction(40, 81)
    assert abs(optimal_tbrw_event_prob(g, 0, hit(5, 2), 1 / 3) - 40 / 81) < 1e-14


def test_complete_graph_hit_probability():
    g = generate("complete", n=4)
    assert event_prob_exact(g, 0, hit(3, 2)) == Fraction(5, 9)


def test_zero_horizon_is_membership_indicator():
    g = generate("complete", n=4)
    assert srw_event_prob(g, 0, hit(0, 0)) == 1.0
    assert srw_event_prob(g, 1, hit(0, 0)) == 0.0
    assert srw_event_prob(g, 0, EventSpec(EventKind.RETURN_TO_START, 0)) == 0.0
    two = generate("complete", n=2)
    assert srw_event_prob(two, 0, EventSpec(EventKind.COVER_ALL, 0)) == 0.0
    assert srw_event_prob(two, 0, EventSpec(EventKind.COVER_ALL, 1)) == 1.0


def test_return_to_start_needs_a_round_trip():
    g = generate("cycle", n=4)
    ret = EventSpec(EventKind.RETURN_TO_START, 1)
    assert srw_event_prob(g, 0, ret) == 0.0
    assert srw_event_prob(g, 0, EventSpec(EventKind.RETURN_TO_START, 2)) == 0.5
    assert optimal_tbrw_event_prob(g, 0, EventSpec(EventKind.RETURN_TO_START, 2), 1.0) == 1.0


def test_full_control_reaches_iff_within_distance():
    g = generate("cycle", n=6)
    assert optimal_tbrw_event_prob(g, 0, hit(3, 2), 1.0) == 0.0
    assert optimal_tbrw_event_prob(g, 0, hit(3, 3), 1.0) == 1.0


def test_biased_value_monotone_in_eps_and_dominates_plain():
    g = probe_graph()
    event = hit(5, 3)
    p = srw_event_prob(g, 0, event)
    prev = -1.0
    for eps in (0.0, 0.1, 0.3, 0.6, 1.0):
        q = optimal_tbrw_event_prob(g, 0, event, eps)
        assert q >= p - 1e-15
        assert q >= prev - 1e-15
        prev = q
    assert optimal_tbrw_event_prob(g, 0, event, 0.0) == p


# --- cross-validation: mask DP vs raw tree vs rationals --------------------------


def test_dp_agrees_with_raw_tree_and_rationals():
    cases = [probe_graph(), generate("complete", n=4), generate("cycle", n=5)]
    for g in cases:
        events = [
            hit(g.n - 1, 3),
            EventSpec(EventKind.HIT_ALL, 4, frozenset({1, g.n - 1})),
            EventSpec(EventKind.COVER_ALL, 4),
            EventSpec(EventKind.RETURN_TO_START, 3),
        ]
        for event in events:
            for eps in (0.0, 0.3, 1.0):
                dp = optimal_tbrw_event_prob(g, 0, event, eps)
                tree = raw_tree_event_prob(g, 0, event, eps)
                exact = event_prob_exact(g, 0, event, Fraction(3, 10) if eps == 0.3 else Fraction(int(eps)))
                assert abs(dp - tree) < 1e-12, (event, eps)
                assert abs(dp - float(exact)) < 1e-12, (event, eps)


# --- one DP pass over an eps grid --------------------------------------------------


def one_eps_horizon_values(g, u, event, eps):
    """The DP pass for a single eps that the eps-grid pass replaced, kept as
    its reference: value[mask, v], one stacked gather per vertex, and the
    plain-walk mean alone when eps is 0."""
    bits, (full,), (start,) = _encode(g, u, [event])
    masks = np.arange(full + 1)
    kid_rows = [masks | bits[w] for w in range(g.n)]
    value = np.where(_satisfied(event, masks, full), 1.0, 0.0)
    value = np.repeat(value[:, None], g.n, axis=1)
    out = [float(value[start, u])]
    for _ in range(event.horizon):
        nxt = np.empty_like(value)
        for v in range(g.n):
            kids = np.stack([value[kid_rows[w], w] for w in g.adj[v]])
            mean = kids.mean(axis=0)
            nxt[:, v] = mean if eps == 0.0 else (1.0 - eps) * mean + eps * kids.max(axis=0)
        value = nxt
        out.append(float(value[start, u]))
    return out


DP_GRAPHS = {
    **small_regular_catalog(),
    **{f"cycle:{n}": generate("cycle", n=n) for n in range(3, 9)},
    "hypercube:3": generate("hypercube", dim=3),
}


@st.composite
def eps_grid_queries(draw):
    g = DP_GRAPHS[draw(st.sampled_from(sorted(DP_GRAPHS)))]
    kind = draw(st.sampled_from(EventKind))
    targets = frozenset()
    if kind in (EventKind.HIT_ALL, EventKind.HIT_ANY):
        targets = draw(st.frozensets(st.integers(min_value=0, max_value=g.n - 1), min_size=1, max_size=4))
    event = EventSpec(kind, draw(st.integers(min_value=0, max_value=5)), targets)
    u = draw(st.integers(min_value=0, max_value=g.n - 1))
    grid = draw(st.permutations([0.0, 1.0, *draw(st.lists(st.floats(0.0, 1.0), max_size=4))]))
    return g, u, event, grid


@given(eps_grid_queries())
@settings(max_examples=150, deadline=None)
def test_eps_grid_pass_equals_one_eps_passes(query):
    g, u, event, grid = query
    [rows] = _horizon_values(g, u, [event], grid)
    assert len(rows) == len(grid)
    for eps, row in zip(grid, rows):
        assert len(row) == event.horizon + 1
        assert row == _horizon_values(g, u, [event], [eps])[0][0] == one_eps_horizon_values(g, u, event, eps), eps


@st.composite
def stacked_queries(draw):
    g = DP_GRAPHS[draw(st.sampled_from(sorted(DP_GRAPHS)))]
    events = []
    for kind in draw(st.lists(st.sampled_from(EventKind), min_size=1, max_size=12)):
        targets = frozenset()
        if kind in (EventKind.HIT_ALL, EventKind.HIT_ANY):
            targets = draw(st.frozensets(st.integers(min_value=0, max_value=g.n - 1), min_size=1, max_size=4))
        events.append(EventSpec(kind, draw(st.integers(min_value=0, max_value=5)), targets))
    u = draw(st.integers(min_value=0, max_value=g.n - 1))
    grid = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    return g, u, events, grid


@given(stacked_queries())
@settings(max_examples=150, deadline=None)
def test_stacked_pass_equals_per_event_passes(query):
    # events of every kind share passes up to STACK_CELLS; each event's rows
    # are its pass alone and the single-eps reference, bit for bit
    g, u, events, grid = query
    tables = _horizon_values(g, u, events, grid)
    assert len(tables) == len(events)
    for event, table in zip(events, tables):
        assert table == _horizon_values(g, u, [event], grid)[0]
        assert table == [one_eps_horizon_values(g, u, event, eps) for eps in grid], event


def test_stacked_passes_keep_within_the_cell_budget(monkeypatch):
    # cover on hypercube:4 is 2^20 cells alone and runs alone; the 120 pair
    # events stack only while their shared table stays within STACK_CELLS
    g = generate("hypercube", dim=4)
    pairs = [EventSpec(EventKind.HIT_ALL, 3, frozenset({a, b})) for a in range(16) for b in range(a + 1, 16)]
    passes = []
    real = oracle._dp_pass
    monkeypatch.setattr(oracle, "_dp_pass", lambda *args: passes.append(args) or real(*args))

    def peak_of(events):
        passes.clear()
        tracemalloc.start()
        try:
            _horizon_values(g, 0, events, [0.0, 0.05])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak = peak_of(pairs)
    assert all(g.n * len(keys) * 2 << len(set().union(*(e.targets for e in keys))) <= STACK_CELLS
               for _, _, keys, _ in passes)
    assert 1 < len(passes) < len(pairs)
    # two value tables of STACK_CELLS float64 cells, the gathered children
    # and the index rows; measured 0.72 MiB
    assert peak < 4 * 8 * STACK_CELLS, peak
    # the cover pass peaks alone, as the pairs' tables are freed before it
    cover = EventSpec(EventKind.COVER_ALL, 3)
    alone = peak_of([cover])
    assert alone > 16 * 2**20 and peak_of([cover, *pairs]) < alone + 2**20
    assert len(passes[0][2]) == 1


def test_dp_pass_memory_does_not_grow_with_the_horizon():
    # A cover event on hypercube:4 has 2^16 masks, so one value table is
    # 16 * 2^16 * 8 bytes = 8 MiB.  The pass needs two; keeping a table
    # alive per step would pass 100 MiB at horizon 12.
    g = generate("hypercube", dim=4)
    tracemalloc.start()
    try:
        _horizon_values(g, 0, [EventSpec(EventKind.COVER_ALL, 12)], [0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, peak


def test_dp_values_stay_in_unit_interval():
    for g in small_regular_catalog().values():
        q = optimal_tbrw_event_prob(g, 0, EventSpec(EventKind.COVER_ALL, 6), 0.4)
        assert 0.0 <= q <= 1.0


def test_event_horizons_stop_at_the_guard():
    assert EventSpec(EventKind.COVER_ALL, oracle.HORIZON_GUARD).horizon == oracle.HORIZON_GUARD
    with pytest.raises(GuardError, match="event horizon"):
        EventSpec(EventKind.COVER_ALL, oracle.HORIZON_GUARD + 1)
    with pytest.raises(GuardError, match="event horizon"):
        parse_event_text("hit:1", 10**20)


def test_oracle_guards():
    with pytest.raises(GuardError):
        raw_tree_event_prob(generate("complete", n=3), 0, hit(1, 9))
    with pytest.raises(GuardError):
        srw_event_prob(generate("cycle", n=24), 0, EventSpec(EventKind.COVER_ALL, 3))
    with pytest.raises(OracleError):
        srw_event_prob(generate("cycle", n=4), 9, hit(1, 2))
    with pytest.raises(OracleError):
        srw_event_prob(generate("cycle", n=4), 0, hit(7, 2))
    with pytest.raises(OracleError):
        optimal_tbrw_event_prob(generate("cycle", n=4), 0, hit(1, 2), 1.5)
    with pytest.raises(OracleError):
        event_prob_exact(generate("cycle", n=4), 0, hit(1, 2), Fraction(3, 2))


@pytest.mark.parametrize("u", [-1, 5])
@pytest.mark.parametrize("event", ["hit:4", "hitall:1,2", "hitany:1,2", "cover", "return"])
def test_event_dps_reject_a_start_out_of_range(event, u):
    # a negative start must not index the mask table from its end
    g = generate("cycle", n=5)
    spec = parse_event_text(event, 3)
    for query in (srw_event_prob, event_prob_exact):
        with pytest.raises(OracleError, match="start vertex out of range"):
            query(g, u, spec)


@pytest.mark.parametrize("t", [0, 2])
@pytest.mark.parametrize("event", ["cover", "return", "hit:0"])
def test_event_dp_needs_two_vertices(event, t):
    # a one-vertex graph has no step to take: the float DP and its rational
    # twin both reject it, at every horizon
    g = build_graph([], 1)
    spec = parse_event_text(event, t)
    for query in (
        lambda: srw_event_prob(g, 0, spec),
        lambda: optimal_tbrw_event_prob(g, 0, spec, 0.5),
        lambda: event_prob_exact(g, 0, spec),
        lambda: boost_bound_grid(g, 0, [spec], [0.0], [1.0]),
    ):
        with pytest.raises(OracleError, match="n >= 2"):
            query()


# --- one-step operator and power means -------------------------------------------


def test_biased_operator_identities():
    v = (0.2, 0.8, 0.5)
    assert abs(biased_operator(0.0, (1 / 3, 1 / 3, 1 / 3), v) - 0.5) < 1e-15
    assert abs(biased_operator(1.0, (0, 1, 0), v) - 0.8) < 1e-15


def test_biased_operator_hub_anchor():
    got = biased_operator(1 / 3, (1.0, 0.0, 0.0), (0.0, 2 / 3, 5 / 9))
    assert abs(got - 22 / 81) < 1e-15


def test_biased_operator_validation():
    with pytest.raises(OracleError):
        biased_operator(0.5, (0.5, 0.5), (1.0, 2.0, 3.0))
    with pytest.raises(OracleError):
        biased_operator(0.5, (0.9, 0.3), (1.0, 2.0))
    with pytest.raises(OracleError):
        biased_operator(0.5, (0.5, 0.5), (-1.0, 2.0))
    with pytest.raises(OracleError):
        biased_operator(1.5, (0.5, 0.5), (1.0, 2.0))


def test_power_mean_values():
    assert power_mean(1, (1.0, 2.0, 3.0)) == 2.0
    assert power_mean(math.inf, (1.0, 7.0, 3.0)) == 7.0
    assert abs(power_mean(2, (3.0, 4.0)) - math.sqrt(12.5)) < 1e-15
    with pytest.raises(OracleError):
        power_mean(0.5, (1.0, 2.0))
    with pytest.raises(OracleError):
        power_mean(2, (-1.0, 2.0))
    with pytest.raises(OracleError):
        power_mean(2, ())


def test_power_mean_overflow_is_inf():
    # x**r past the float range: inf, as numpy's power gave, not OverflowError
    assert power_mean(4, (1e100, 1.0)) == math.inf
    assert conv_lemma_audit(2, 0.0, 0.25, (1e100, 1.0), (0.5, 0.5))


def test_power_mean_monotone_in_r():
    rng = SplitMix64(91)
    for _ in range(50):
        v = [rng.next_float() for _ in range(5)]
        ms = [power_mean(r, v) for r in (1, 1.5, 2, 4, math.inf)]
        assert all(a <= b + 1e-12 for a, b in zip(ms, ms[1:]))


# --- the one-step audit on one vector vs its numpy reference ----------------------


def numpy_biased_operator(eps, b, v):
    """The numpy body `biased_operator` replaced, kept as its reference."""
    b = np.asarray(b, dtype=float)
    v = np.asarray(v, dtype=float)
    if b.shape != v.shape or b.ndim != 1:
        raise OracleError("bias and value vectors must have equal length")
    if not (0.0 <= eps <= 1.0):
        raise OracleError("eps must lie in [0, 1]")
    if b.min() < -1e-12 or abs(float(b.sum()) - 1.0) > 1e-9:
        raise OracleError("bias must be a probability vector")
    if v.min() < 0:
        raise OracleError("value entries must be nonnegative")
    d = len(v)
    return float(np.dot((1.0 - eps) / d + eps * b, v))


def numpy_power_mean(r, v):
    """The numpy body `power_mean` replaced, kept as its reference."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or len(v) == 0:
        raise OracleError("power mean needs a non-empty vector")
    if v.min() < 0:
        raise OracleError("power mean entries must be nonnegative")
    if math.isinf(r):
        return float(v.max())
    if r < 1:
        raise OracleError("power mean implemented for r >= 1 only")
    if r == 1:
        return float(v.mean())
    return float((np.power(v, r).mean()) ** (1.0 / r))


def numpy_conv_lemma_audit(d, eps, eta, v, b):
    """The numpy body `conv_lemma_audit` replaced, kept as its reference."""
    v = np.asarray(v, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(v) != d or len(b) != d:
        raise OracleError("vectors must have length d")
    lhs = numpy_biased_operator(eps, b, v)
    rhs = (1.0 + eps * (d - 1)) * numpy_power_mean(1, v)
    if not lhs <= rhs + 1e-12 * max(1.0, abs(rhs)):
        return False
    if 0.0 < eta <= 1.0 and eps <= 1.0 / d ** (2.0 * eta):
        rhs = math.exp(4.0 / d**eta) * numpy_power_mean((1.0 + eta) / eta, v)
        if not lhs <= rhs + 1e-12 * max(1.0, abs(rhs)):
            return False
    return True


def within_ulps(a, b, n=4):
    # np.dot (BLAS) and numpy's pairwise mean may add in another order
    return a == b or abs(a - b) <= n * math.ulp(max(abs(a), abs(b)))


@st.composite
def audit_vectors(draw, top=1.0):
    """(d, b, v): a bias distribution b and values v in [0, top], 1 <= d <= 8."""
    d = draw(st.integers(min_value=1, max_value=8))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    raw = draw(st.lists(weight, min_size=d, max_size=d).filter(any))
    total = sum(raw)
    v = draw(st.lists(st.floats(0.0, top), min_size=d, max_size=d))
    return d, [x / total for x in raw], v


@given(
    audit_vectors(top=1e3),
    st.floats(0.0, 1.0),
    st.one_of(st.sampled_from([1, 2, math.inf]), st.floats(1.0, 8.0)),
)
@settings(max_examples=300)
def test_float_operator_and_power_mean_match_numpy(vectors, eps, r):
    _, b, v = vectors
    assert within_ulps(biased_operator(eps, b, v), numpy_biased_operator(eps, b, v))
    assert within_ulps(power_mean(r, v), numpy_power_mean(r, v))


@given(audit_vectors(), st.floats(0.0, 1.0), st.floats(0.05, 1.5))
@settings(max_examples=300)
def test_float_conv_audit_verdict_matches_numpy(vectors, eps, eta):
    d, b, v = vectors
    assert conv_lemma_audit(d, eps, eta, v, b) == numpy_conv_lemma_audit(d, eps, eta, v, b)


BAD_AUDIT_INPUTS = {
    "operator-length": (biased_operator, numpy_biased_operator, (0.5, (0.5, 0.5), (1.0, 2.0, 3.0))),
    "operator-eps-high": (biased_operator, numpy_biased_operator, (1.5, (0.5, 0.5), (1.0, 2.0))),
    "operator-eps-low": (biased_operator, numpy_biased_operator, (-0.1, (0.5, 0.5), (1.0, 2.0))),
    "operator-bias-sum": (biased_operator, numpy_biased_operator, (0.5, (0.9, 0.3), (1.0, 2.0))),
    "operator-bias-negative": (biased_operator, numpy_biased_operator, (0.5, (-0.5, 1.5), (1.0, 2.0))),
    "operator-value-negative": (biased_operator, numpy_biased_operator, (0.5, (0.5, 0.5), (-1.0, 2.0))),
    "mean-r-below-1": (power_mean, numpy_power_mean, (0.5, (1.0, 2.0))),
    "mean-negative": (power_mean, numpy_power_mean, (2, (-1.0, 2.0))),
    "mean-empty": (power_mean, numpy_power_mean, (2, ())),
    "audit-length": (conv_lemma_audit, numpy_conv_lemma_audit, (3, 0.1, 1.0, (1.0, 2.0), (0.5, 0.5))),
    "audit-eps-high": (conv_lemma_audit, numpy_conv_lemma_audit, (2, 1.5, 1.0, (1.0, 2.0), (0.5, 0.5))),
}


@pytest.mark.parametrize("case", sorted(BAD_AUDIT_INPUTS))
def test_float_audit_rejects_what_numpy_rejected(case):
    audit, reference, args = BAD_AUDIT_INPUTS[case]
    with pytest.raises(OracleError) as expected:
        reference(*args)
    with pytest.raises(OracleError) as got:
        audit(*args)
    assert str(got.value) == str(expected.value)


# --- stacks of vectors along the last axis ----------------------------------------


@st.composite
def audit_stacks(draw):
    """(d, eps, eta, v, b) rows of one degree, eps and eta per row."""
    d = draw(st.integers(min_value=1, max_value=8))
    size = draw(st.integers(min_value=0, max_value=12))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    raw = np.array(draw(st.lists(st.lists(weight, min_size=d, max_size=d).filter(any), min_size=size, max_size=size)))
    b = raw / raw.sum(axis=-1, keepdims=True) if size else np.empty((0, d))
    v = np.array(draw(st.lists(st.lists(st.floats(0.0, 1e3), min_size=d, max_size=d), min_size=size, max_size=size)))
    eps = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    eta = np.array(draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 0.05, 1.5]), min_size=size, max_size=size)))
    return d, eps, eta, v.reshape(size, d), b


def scalar_rows(d, eps, eta, v, b):
    return [(d, float(e), float(h), list(vr), list(br)) for e, h, vr, br in zip(eps, eta, v.tolist(), b.tolist())]


@given(audit_stacks(), st.one_of(st.sampled_from([1, 2, math.inf]), st.floats(1.0, 8.0)))
@settings(max_examples=200)
def test_a_stack_of_vectors_gives_the_row_by_row_results(stack, r):
    d, eps, eta, v, b = stack
    rows = scalar_rows(d, eps, eta, v, b)
    assert conv_lemma_audit(d, eps, eta, v, b).tolist() == [conv_lemma_audit(*row) for row in rows]
    # one vector is evaluated as a stack of one: the same numpy operations
    assert biased_operator(eps, b, v).tolist() == [biased_operator(e, br, vr) for _, e, _, vr, br in rows]
    means = power_mean(r, v)
    assert means.shape == (len(rows),)
    assert means.tolist() == [power_mean(r, vr) for _, _, _, vr, _ in rows]
    # a leading shape of two axes
    assert conv_lemma_audit(d, eps[None], eta[None], v[None], b[None]).shape == (1, len(rows))


@given(audit_stacks(), st.one_of(st.sampled_from([1, 2, math.inf]), st.floats(1.0, 8.0)), st.data())
@settings(max_examples=300)
def test_one_vector_is_bit_for_bit_its_row_in_a_stack(stack, r, data):
    # one vector used to be computed on Python floats, whose powers are
    # libm's: power_mean differed from its stack row in the last ulp
    d, eps, eta, v, b = stack
    assume(len(v))
    i = data.draw(st.integers(0, len(v) - 1))
    e, h, vi, bi = float(eps[i]), float(eta[i]), v[i].tolist(), b[i].tolist()
    got = (biased_operator(e, bi, vi), power_mean(r, vi), conv_lemma_audit(d, e, h, vi, bi))
    assert list(map(type, got)) == [float, float, bool]
    assert got == (biased_operator(eps, b, v)[i], power_mean(r, v)[i], conv_lemma_audit(d, eps, eta, v, b)[i])


def test_verdicts_inside_the_slack_agree_row_by_row():
    # equality cases of the first claim: b one-hot on the argmax of v, and v
    # concentrated on one entry.  B(v) falls short of the bound by
    # eps * (sum v - max v), so the small entries beside the top one put it
    # inside the 1e-12 slack of the bound or just outside it
    cases = []
    for d in range(1, 9):
        for eta in (0.25, 0.5, 1.0):
            for eps in (0.0, 0.01, 1.0 / d ** (2.0 * eta), 0.5, 1.0):
                for rest in (0.0, 1e-13, 3e-13, 1e-12, 4e-12, 1e-9):
                    for top in (1.0, 3e-5, 7e4):
                        v = [top] + [rest * top] * (d - 1)
                        b = [1.0] + [0.0] * (d - 1)
                        cases.append((d, eps, eta, v, b))
                        cases.append((d, eps, eta, v[::-1], b[::-1]))
    for d in range(1, 9):
        chosen = [case for case in cases if case[0] == d]
        eps, eta, v, b = (np.array([case[i] for case in chosen]) for i in range(1, 5))
        assert conv_lemma_audit(d, eps, eta, v, b).tolist() == [conv_lemma_audit(*case) for case in chosen]
    assert all(conv_lemma_audit(*case) for case in cases)


@pytest.mark.parametrize(
    "call",
    [
        lambda: biased_operator(0.5, [[0.5, 0.5], [1.0]], [[1.0, 2.0], [3.0]]),
        lambda: biased_operator(0.5, 0.5, 1.0),
        lambda: power_mean(2, [[1.0, 2.0], [1.0]]),
        lambda: power_mean(2, 3.0),
        lambda: power_mean(2, np.empty((3, 0))),
        lambda: conv_lemma_audit(2, 0.1, 1.0, [[1.0, 2.0], [1.0]], [[0.5, 0.5], [1.0]]),
        lambda: conv_lemma_audit(2, 0.1, 1.0, np.ones((3, 2)), np.full((3, 3), 1 / 3)),
        lambda: conv_lemma_audit(2, np.array([0.1, 1.5]), 1.0, np.ones((2, 2)), np.full((2, 2), 0.5)),
        lambda: conv_lemma_audit(2, 0.1, 1.0, np.ones((2, 2)), np.array([[0.5, 0.5], [0.9, 0.3]])),
        lambda: conv_lemma_audit(2, 0.1, 1.0, np.array([[1.0, 1.0], [1.0, -1.0]]), np.full((2, 2), 0.5)),
    ],
    ids=["operator-ragged", "operator-number", "mean-ragged", "mean-number", "mean-empty-vectors",
         "audit-ragged", "audit-length", "audit-eps-row", "audit-bias-row", "audit-value-row"],
)
def test_a_stack_is_checked_as_every_vector_is(call):
    with pytest.raises(OracleError):
        call()


# --- one-step convexity bounds ---------------------------------------------------


def test_conv_lemma_constant_vector_equality_case():
    assert conv_lemma_audit(3, 0.2, 1.0, (0.7, 0.7, 0.7), (1.0, 0.0, 0.0))


def test_conv_lemma_full_bias_tight_direction():
    # eps=1 and all value on the preferred child makes the first bound tight
    assert conv_lemma_audit(4, 1.0, 1.0, (3.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))


def test_conv_lemma_randomized_sweep():
    rng = SplitMix64(17)
    for _ in range(2000):
        v = np.array([rng.next_float() for _ in range(3)])
        b = np.array([rng.next_float() for _ in range(3)])
        b = b / b.sum()
        assert conv_lemma_audit(3, 1.0 / 9.0, 1.0, v, b)


def test_conv_lemma_second_claim_skipped_off_precondition():
    # eps far above 1/d^(2 eta): only the always-valid claim is checked
    v = (1.0, 0.0, 0.0)
    b = (1.0, 0.0, 0.0)
    assert conv_lemma_audit(3, 0.9, 1.0, v, b)


def test_conv_lemma_length_mismatch():
    with pytest.raises(OracleError):
        conv_lemma_audit(3, 0.1, 1.0, (1.0, 2.0), (0.5, 0.5))


def test_conv_lemma_fails_each_claim_against_a_low_power_mean(monkeypatch):
    # constant v, uniform b: B(v) = 1 meets both claims with equality up to
    # the exp factor; a power mean read low breaks the claim that uses it
    v, b = (1.0, 1.0, 1.0), (1 / 3, 1 / 3, 1 / 3)
    real = oracle.power_mean
    assert conv_lemma_audit(3, 0.0, 1.0, v, b)
    monkeypatch.setattr(oracle, "power_mean", lambda r, x: 0.5 * real(r, x))
    assert not conv_lemma_audit(3, 0.0, 1.0, v, b)
    monkeypatch.setattr(oracle, "power_mean", lambda r, x: real(r, x) if r == 1 else 0.0)
    assert not conv_lemma_audit(3, 0.0, 1.0, v, b)
    # off the second claim's precondition only the first is read
    assert conv_lemma_audit(3, 0.5, 1.0, v, b)


def test_eta_grid_contents():
    grid = eta_grid(3)
    assert 0.25 in grid and 0.5 in grid and 1.0 in grid
    extra = math.log(math.log(3)) / math.log(3)
    assert any(abs(x - extra) < 1e-15 for x in grid)
    assert grid == tuple(sorted(grid))
    assert eta_grid(2) == (0.25, 0.5, 1.0)


# --- boost bounds ----------------------------------------------------------------


def test_boost_bound_probe_graph_report():
    g = probe_graph()
    report = boost_bound_audit(g, 0, hit(5, 2), 1 / 3, 0.5)
    assert abs(report.p - 5 / 18) < 1e-14
    assert abs(report.q_star - 40 / 81) < 1e-14
    assert abs(report.bound1 - 125 / 162) < 1e-13
    assert report.bound2 is not None  # eps = 1/3 = 1/d_max^(2*0.5) exactly
    assert report.ok
    assert report.margin1 > 0 and report.margin2 > 0
    row = report.to_json_dict("probe")
    assert row["graph_id"] == "probe" and row["event"] == "hit:5" and row["t"] == 2


def test_boost_bound_unbiased_collapses():
    g = generate("complete", n=4)
    report = boost_bound_audit(g, 0, hit(3, 2), 0.0, 1.0)
    assert report.q_star == report.p
    assert report.ok


def test_boost_bound_second_bound_gated_by_eps():
    g = generate("complete", n=4)
    assert boost_bound_audit(g, 0, hit(3, 2), 0.5, 1.0).bound2 is None
    assert boost_bound_audit(g, 0, hit(3, 2), 1.0 / 9.0, 1.0).bound2 is not None
    with pytest.raises(OracleError):
        boost_bound_audit(g, 0, hit(3, 2), 0.1, 0.0)


def test_boost_bounds_hold_on_catalog_spot_checks():
    for name, g in small_regular_catalog().items():
        d = max(g.degrees)
        for eps in (0.05, 1.0 / d**2):
            report = boost_bound_audit(g, 0, hit(g.n - 1, 4), eps, 0.5)
            assert report.ok, (name, eps)


def boost_report(p=0.25, q_star=0.5, bound1=0.75, bound2=None):
    return BoostReport("hit:1", 2, 0.1, 0.5, p, q_star, bound1, bound2)


def test_boost_report_fails_each_of_its_three_checks():
    assert boost_report().ok
    assert boost_report(bound2=0.5).ok  # margin2 = 0
    assert not boost_report(q_star=0.25 - 1e-6).ok  # q* below p
    assert not boost_report(bound1=0.5 - 1e-6).ok  # margin1 < 0
    assert not boost_report(bound2=0.5 - 1e-6).ok  # margin2 < 0
    # within the 1e-9 slack each check still passes
    assert boost_report(q_star=0.5, p=0.5 + 1e-10, bound1=0.5 - 1e-10, bound2=0.5 - 1e-10).ok
    # a bound past the float range is None, with a None margin, and met
    assert boost_report(bound1=None).margin1 is None and boost_report(bound1=None).ok
    assert not boost_report(q_star=0.25 - 1e-6, bound1=None).ok


@pytest.mark.parametrize("p, bound1, bound2", [
    (math.exp(-600.0), math.exp(1000 * math.log1p(0.7 * 2) - 600.0), None),  # e^275, and e^(3039 - 120)
    (1.0, None, None),
    (0.0, 0.0, 0.0),  # not 0 * inf
])
def test_boost_bounds_past_a_float_power_come_from_logarithms(monkeypatch, p, bound1, bound2):
    # on complete:4 (degree 3) at t = 1000, 2.4^1000 = e^875 and
    # exp(4000 / 3^0.25) = e^3039 overflow; p decides whether each bound is
    # in the float range
    monkeypatch.setattr(oracle, "_horizon_values",
                        lambda g, u, events, grid: [[[p] * (e.horizon + 1) for _ in grid] for e in events])
    (values,) = boost_bound_grid(generate("complete", n=4), 0, [hit(1, 1000)], (0.7,), (0.25,))
    assert values.bound1s == [bound1 if bound1 is None else pytest.approx(bound1, rel=1e-12, abs=0.0)]
    assert values.bound2s == [bound2]
    assert values.report(0, 0).ok


def test_boost_bound_grid_equals_per_query_audits():
    # mixed kinds and horizons out of order, on a non-regular graph from a
    # start other than 0: every report matches its own one-query audit, and
    # its p and q* the single-eps DP passes
    g = probe_graph()
    events = [
        hit(5, 3),
        EventSpec(EventKind.RETURN_TO_START, 4),
        hit(5, 1),
        EventSpec(EventKind.HIT_ALL, 2, frozenset({3, 4})),
        EventSpec(EventKind.COVER_ALL, 5),
        EventSpec(EventKind.RETURN_TO_START, 2),
    ]
    eps_values, etas = (0.05, 0.0, 1 / 3), (0.5, 1.0)
    grid = boost_bound_grid(g, 2, events, eps_values, etas)
    expected = [
        boost_bound_audit(g, 2, event, eps, eta) for event in events for eps in eps_values for eta in etas
    ]
    cells = [(e, h) for e in range(len(eps_values)) for h in range(len(etas))]
    grid = [values.report(e, h) for values in grid for e, h in cells]
    assert grid == expected
    singles = [
        (srw_event_prob(g, 2, event), optimal_tbrw_event_prob(g, 2, event, eps))
        for event in events for eps in eps_values for eta in etas
    ]
    assert [(report.p, report.q_star) for report in grid] == singles


def test_boost_bound_grid_rejects_bad_parameters():
    g = generate("complete", n=4)
    for eps, eta in ((1.5, 0.5), (0.1, 0.0), (0.1, 1.5)):
        with pytest.raises(OracleError):
            boost_bound_grid(g, 0, [hit(3, 2)], (0.0, eps), (0.5, eta))


# --- exact cover expectations ------------------------------------------------------


def test_exact_cover_complete_graph():
    g = generate("complete", n=4)
    assert np.allclose(srw_expected_cover_exact(g), 5.5, rtol=0.0, atol=1e-9)


def test_exact_cover_cycle():
    cover = srw_expected_cover_exact(generate("cycle", n=8))
    assert abs(cover[0] - 28.0) < 1e-9
    assert abs(cover[5] - 28.0) < 1e-9


# An irregular graph: a 4-cycle with a pendant path, joined back by a chord.
IRREGULAR7 = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (2, 5)], 7)


@pytest.mark.parametrize(
    "g",
    [
        generate("cycle", n=6),
        generate("complete", n=5),
        small_regular_catalog()["prism"],
        generate("random_regular", n=10, d=3, seed=4),
        IRREGULAR7,
    ],
    ids=["cycle:6", "complete:5", "prism", "rr(10,3,4)", "irregular7"],
)
def test_exact_cover_equals_the_tail_sum_of_the_cover_law(g):
    # E[T] = sum over t >= 0 of P(T > t), with P(T <= t) from the event DP,
    # a second engine; at t = 60 E[T], P(T > t) is down to rounding (~1e-15).
    u = g.n - 1
    expect = srw_expected_cover_exact(g)[u]
    law = _horizon_values(g, u, [EventSpec(EventKind.COVER_ALL, math.ceil(60 * expect))], [0.0])[0][0]
    assert sum(1.0 - f for f in law) == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_exact_cover_at_the_guard_from_every_start():
    # all 16 starts from one call per graph, within the memory bound
    cycle, cube = generate("cycle", n=16), generate("hypercube", dim=4)
    assert np.all(np.abs(srw_expected_cover_exact(cycle) - 120.0) < 1e-9)
    tracemalloc.start()
    try:
        cover = srw_expected_cover_exact(cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.abs(cover - 59.4973359156472) < 1e-9)
    assert peak < 48 * 2**20, peak


def test_exact_cover_of_one_vertex_is_zero():
    assert srw_expected_cover_exact(build_graph([], 1)).tolist() == [0.0]


def test_exact_cover_guard_and_range():
    # refused past COVER_GUARD; below it, one value for each start in range(n)
    with pytest.raises(GuardError):
        srw_expected_cover_exact(generate("cycle", n=18))
    for n in (3, 8, 16):
        assert srw_expected_cover_exact(generate("cycle", n=n)).shape == (n,)


# --- majorization -----------------------------------------------------------------


def test_majorizes_basics():
    assert majorizes((2.0, 0.0), (1.0, 1.0))
    assert not majorizes((1.0, 1.0), (2.0, 0.0))
    assert majorizes((1.0, 2.0, 3.0), (3.0, 2.0, 1.0))  # order-free
    assert not majorizes((2.0, 0.0), (1.0, 0.5))  # unequal totals
    with pytest.raises(OracleError):
        majorizes((1.0, 2.0), (1.0, 2.0, 3.0))


def test_schur_inequality_on_constructed_pairs():
    rng = SplitMix64(23)
    for _ in range(300):
        x, y = robin_hood_pair(rng, 6)
        assert majorizes(x, y)
        for r in (1, 1.5, 2, 4, math.inf):
            assert schur_audit(r, x, y)


def test_schur_audit_vacuous_on_incomparable():
    assert schur_audit(2, (1.0, 1.0), (2.0, 0.5))


def test_bias_mixture_majorization_step():
    # the extreme mixture (1-eps+d*eps, 1-eps, ..., 1-eps) majorizes the
    # mixture produced by any bias distribution b
    rng = SplitMix64(37)
    for _ in range(200):
        d = 2 + rng.randrange(5)
        eps = rng.next_float()
        raw = np.array([rng.next_float() for _ in range(d)]) + 1e-9
        b = raw / raw.sum()
        x = np.full(d, 1.0 - eps)
        x[0] += d * eps
        y = (1.0 - eps) + d * eps * b
        assert majorizes(x, y)


def test_robin_hood_pair_validation():
    with pytest.raises(OracleError):
        robin_hood_pair(SplitMix64(1), 1)

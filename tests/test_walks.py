"""Walk engine: biased steps, bias extraction, cover runs."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.graphs import build_graph, generate
from walklab.rng import BufferedDraws, SplitMix64
from walklab import walks
from walklab.walks import (
    CoverEstimate,
    WalkError,
    WalkSpec,
    WalkState,
    cover_run,
    estimate_cover_time,
    extract_bias_matrix,
    stationary_boost_audit,
    step,
)
from walklab.weighting import WeightingError, induced_chain, target_decay_weighting, uniform_weighting


class ScriptedRng:
    """Replays fixed u64 values; floats are derived the same way SplitMix64
    derives them, so scripted and real draws are interchangeable."""

    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        return self.values.pop(0)

    def next_float(self):
        return (self.next_u64() >> 11) * 2.0**-53


def point_mass_on(z):
    def policy(g, visited, current, steps, _z=z):
        nbrs = g.adj[current]
        vec = np.zeros(len(nbrs))
        vec[nbrs.index(_z)] = 1.0
        return vec

    return policy


def float_as_u64(x: float) -> int:
    return int(x * 2.0**53) << 11


# --- single-step marginals ----------------------------------------------------


def test_step_rejects_bad_eps_and_missing_policy():
    g = generate("complete", n=4)
    state = WalkState.fresh(0)
    with pytest.raises(WalkError):
        step(g, state, 1.5, None, SplitMix64(1))
    with pytest.raises(WalkError):
        step(g, state, 0.5, None, SplitMix64(1))


def test_step_consumes_exactly_two_draws_each_branch():
    g = generate("complete", n=4)
    for coin in (0.0, 0.9):
        rng = ScriptedRng([float_as_u64(coin), float_as_u64(0.4)])
        state = WalkState.fresh(0)
        step(g, state, 0.5, point_mass_on(1), rng)
        assert rng.draws == 2
        assert state.steps == 1
        assert state.current in state.visited


def test_step_eps_one_follows_policy_exactly():
    g = generate("complete", n=4)
    rng = SplitMix64(7)
    state = WalkState.fresh(0)
    for _ in range(50):
        prev = state.current
        target = (prev + 1) % 4
        nxt = step(g, state, 1.0, point_mass_on(target), rng)
        assert nxt == target


def test_step_biased_marginal_on_complete_graph():
    # point mass on one neighbour at eps = 1/2: that neighbour should come up
    # with frequency 1/2 * 1/3 + 1/2 = 2/3, checked against a 3-sigma
    # binomial band over a million single-step draws
    g = generate("complete", n=4)
    rng = SplitMix64(2026)
    trials = 1_000_000
    hits = 0
    state = WalkState.fresh(0)
    policy = point_mass_on(1)
    for _ in range(trials):
        state.current = 0
        if step(g, state, 0.5, policy, rng) == 1:
            hits += 1
    p = 2.0 / 3.0
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * sigma


def test_step_unbiased_marginal_is_uniform():
    g = generate("complete", n=4)
    rng = SplitMix64(11)
    trials = 60_000
    counts = {1: 0, 2: 0, 3: 0}
    state = WalkState.fresh(0)
    for _ in range(trials):
        state.current = 0
        counts[step(g, state, 0.0, None, rng)] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / trials)
    for v in (1, 2, 3):
        assert abs(counts[v] / trials - 1 / 3) <= 4 * sigma


# --- bias extraction -----------------------------------------------------------


def srw_chain(g):
    return induced_chain(g, uniform_weighting(g))


def test_extract_bias_matrix_identity_when_unbiased():
    g = generate("complete", n=4)
    p = extract_bias_matrix(srw_chain(g), g, 0.0)
    assert np.allclose(p[0], [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_extract_bias_matrix_zero_eps_requires_exact_srw():
    # the cube has diameter 3, so a decay weighting genuinely tilts the chain
    g = generate("hypercube", dim=3)
    tilted = induced_chain(g, target_decay_weighting(g, [0], 0.25))
    with pytest.raises(WalkError):
        extract_bias_matrix(tilted, g, 0.0)


def test_extract_bias_matrix_reconstructs_decay_chain():
    # on a complete graph every vertex is one step from the target, so the
    # decay chain is the plain walk and the extracted bias equals it
    g = generate("complete", n=4)
    eps = 0.25
    q = induced_chain(g, target_decay_weighting(g, [3], eps))
    b = extract_bias_matrix(q, g, eps)
    assert float(b.min()) >= -1e-12
    assert np.allclose(b.sum(axis=1), 1.0, atol=1e-12)
    p = extract_bias_matrix(srw_chain(g), g, 0.0)
    assert float(np.max(np.abs((1 - eps) * p + eps * b - q.matrix))) <= 1e-12

    cube = generate("hypercube", dim=3)
    qc = induced_chain(cube, target_decay_weighting(cube, [0], eps))
    bc = extract_bias_matrix(qc, cube, eps)
    pc = extract_bias_matrix(srw_chain(cube), cube, 0.0)
    assert float(bc.min()) >= -1e-12
    assert float(np.max(np.abs(bc - pc))) > 0.01  # genuinely tilted
    assert float(np.max(np.abs((1 - eps) * pc + eps * bc - qc.matrix))) <= 1e-12


def test_extract_bias_matrix_rejects_eps_below_tilt():
    cube = generate("hypercube", dim=3)
    theta = 0.25
    q = induced_chain(cube, target_decay_weighting(cube, [0], theta))
    with pytest.raises(WalkError):
        extract_bias_matrix(q, cube, theta / 2)


def test_extract_bias_matrix_validates_shapes_and_range():
    g = generate("complete", n=4)
    other = generate("cycle", n=6)
    with pytest.raises(WalkError):
        extract_bias_matrix(srw_chain(other), g, 0.1)
    with pytest.raises(WalkError):
        extract_bias_matrix(srw_chain(g), g, -0.1)


def dense_bias_rows(g, targets, theta, eps):
    b = extract_bias_matrix(induced_chain(g, target_decay_weighting(g, targets, theta)), g, eps)
    return [b[v, list(g.adj[v])].tolist() for v in range(g.n)]


@pytest.mark.parametrize(
    "g",
    [
        generate("complete", n=4),
        generate("complete", n=6),
        generate("hypercube", dim=4),
        generate("random_regular", n=512, d=3, seed=11),
    ],
    ids=["K4", "K6", "cube4", "rr512"],
)
def test_decay_bias_rows_bit_identical_to_dense_extraction(g):
    rng = SplitMix64(4242)
    bias = walks._DecayBias(g)
    for eps in (0.05, 0.25, 1.0):
        for theta in (min(eps, 1.0 - math.exp(-2.0 / 32.0)), eps / 2):
            for _ in range(3):
                targets = sorted({rng.randrange(g.n) for _ in range(1 + rng.randrange(g.n))})
                rows = bias.rows(targets, theta, eps)
                assert rows == dense_bias_rows(g, targets, theta, eps), (eps, theta, targets)


def test_decay_bias_rows_keep_the_dense_checks():
    cube = generate("hypercube", dim=3)
    bias = walks._DecayBias(cube)
    with pytest.raises(WalkError):
        bias.rows([0], 0.25, 0.125)  # eps below the tilt: negative bias entries
    with pytest.raises(WalkError):
        bias.rows([0], 0.1, 0.0)
    with pytest.raises(WalkError):
        bias.rows([0], 0.1, 1.5)
    with pytest.raises(WeightingError):
        bias.rows([0], 1.0, 1.0)


# --- the biased walk loop ------------------------------------------------------


def visited_bytes(n, seen):
    visited = bytearray(n)
    for v in seen:
        visited[v] = 1
    return visited


def test_sweep_policy_prefers_forward_frontier():
    g = generate("cycle", n=8)
    vec = walks._sweep_bias(g, visited_bytes(8, {0}))(0)
    assert vec[g.adj[0].index(1)] == 1.0
    # forward blocked and backward fresh: turn around
    vec = walks._sweep_bias(g, visited_bytes(8, {1, 2}))(1)
    assert vec[g.adj[1].index(0)] == 1.0
    # both sides seen: keep pushing forward
    vec = walks._sweep_bias(g, visited_bytes(8, {0, 1, 2}))(1)
    assert vec[g.adj[1].index(2)] == 1.0


def sweep_rule(g, visited, current, steps):
    """The sweep walk's rule as a `step` policy: forward unless only backward is fresh."""
    fwd, bwd = (current + 1) % g.n, (current - 1) % g.n
    target = fwd if fwd not in visited or bwd in visited else bwd
    return point_mass_on(target)(g, visited, current, steps)


class RecordingAdj(list):
    """Adjacency that records each vertex the walk looks up, i.e. its trajectory."""

    def __init__(self, adj):
        super().__init__(adj)
        self.path = []

    def __getitem__(self, v):
        self.path.append(v)
        return super().__getitem__(v)


def stepped_path(g, start, eps, policy, rng, stop):
    """Trajectory of repeated `step` calls until at most `stop` vertices are unvisited."""
    state = WalkState.fresh(start)
    path = [start]
    while g.n - len(state.visited) > stop:
        path.append(step(g, state, eps, policy, rng))
    return path, state.visited


@pytest.mark.parametrize("eps", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("seed", [3, 2**64 + 9])
def test_biased_walk_replays_step_draw_for_draw(eps, seed):
    # phase rows: one phase toward every vertex but the start on rr64, run
    # until half of them are visited
    g = generate("random_regular", n=64, d=3, seed=5)
    rows = walks._DecayBias(g).rows(list(range(1, g.n)), 0.06, eps) if eps > 0.0 else []
    policy = lambda g_, vis, cur, steps: rows[cur]
    expected, seen = stepped_path(g, 0, eps, policy, SplitMix64(seed), (g.n - 1) // 2)
    adj = RecordingAdj(g.adj)
    visited = visited_bytes(g.n, {0})
    cur, steps, left = walks._biased_walk(
        adj, BufferedDraws(SplitMix64(seed)).u64, visited, 0, 0, g.n - 1, (g.n - 1) // 2, eps, rows.__getitem__
    )
    assert adj.path + [cur] == expected
    assert steps == len(expected) - 1 and left == g.n - len(seen)
    assert visited == visited_bytes(g.n, seen)
    # sweep rule on a cycle, to cover
    cyc = generate("cycle", n=24)
    expected, _ = stepped_path(cyc, 5, eps, sweep_rule, SplitMix64(seed), 0)
    adj = RecordingAdj(cyc.adj)
    visited = visited_bytes(cyc.n, {5})
    cur, steps, left = walks._biased_walk(
        adj, BufferedDraws(SplitMix64(seed)).u64, visited, 5, 0, cyc.n - 1, 0, eps, walks._sweep_bias(cyc, visited)
    )
    assert adj.path + [cur] == expected
    assert (steps, left) == (len(expected) - 1, 0)


# --- cover runs ----------------------------------------------------------------


def test_cover_run_dispatch_and_validation():
    g = generate("complete", n=4)
    rng = SplitMix64(5)
    assert cover_run(g, WalkSpec(kind="srw"), rng, 0) >= 3
    for kind in ("policy", "mystery"):
        with pytest.raises(WalkError, match="unknown walk kind"):
            cover_run(g, WalkSpec(kind=kind, eps=0.2), SplitMix64(5), 0)


@pytest.mark.parametrize("kind", ["policy", "mystery"])
def test_estimate_rejects_unknown_kind_before_any_trial(monkeypatch, kind):
    monkeypatch.setattr(walks, "_trial_runner", lambda *args: pytest.fail("a trial ran"))
    monkeypatch.setattr(walks, "_cover_lockstep", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises(WalkError, match="unknown walk kind"):
        estimate_cover_time(generate("complete", n=4), WalkSpec(kind=kind), trials=2, seed=1)
    with pytest.raises(WalkError, match="unknown walk kind"):
        estimate_cover_time(generate("complete", n=4), WalkSpec(kind=kind), trials=64, seed=1)


def phase(eps, psi=None):
    return WalkSpec(kind="phase", eps=eps, psi=psi)


def test_phase_cover_validation():
    irregular = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4)
    with pytest.raises(WalkError):
        cover_run(irregular, phase(0.2), SplitMix64(1), 0)
    cyc = generate("cycle", n=8)
    with pytest.raises(WalkError):
        cover_run(cyc, phase(0.2), SplitMix64(1), 0)  # degree 2 cannot support extraction
    k4 = generate("complete", n=4)
    with pytest.raises(WalkError):
        cover_run(k4, phase(0.2), SplitMix64(1), 9)
    for eps in (-0.1, 1.5):
        with pytest.raises(WalkError):
            cover_run(k4, phase(eps), SplitMix64(1), 0)


def test_phase_cover_unbiased_matches_plain_cover_law():
    # eps = 0 makes every phase a plain random-walk segment, so the mean
    # cover time must agree with the direct estimate (exact mean on K4: 5.5)
    g = generate("complete", n=4)
    trials = 1500
    phase_mean = np.mean(
        [cover_run(g, phase(0.0), SplitMix64.stream(31, t), 0) for t in range(trials)]
    )
    assert abs(phase_mean - 5.5) / 5.5 < 0.08


def test_phase_cover_terminates_with_bias_and_counts_steps():
    g = generate("random_regular", n=16, d=3, seed=9)
    steps = cover_run(g, phase(0.25), SplitMix64(1234), 0)
    assert steps >= g.n - 1
    again = cover_run(g, phase(0.25), SplitMix64(1234), 0)
    assert steps == again


def test_phase_cover_step_counts_are_pinned_on_rr512():
    # captured from the dense induced_chain -> extract_bias_matrix path; the
    # O(m) bias rows must reproduce every trajectory exactly
    g = generate("random_regular", n=512, d=3, seed=11)
    steps = [cover_run(g, phase(0.25), SplitMix64.stream(20260818, t), 0) for t in range(6)]
    assert steps == [4323, 4451, 4309, 4668, 8421, 5160]


def test_phase_estimate_computes_expansion_once(monkeypatch):
    g = generate("random_regular", n=16, d=3, seed=9)
    per_trial = [cover_run(g, phase(0.25), SplitMix64.stream(77, t), t % g.n) for t in range(5)]
    calls = []
    exact = walks.vertex_expansion_exact
    monkeypatch.setattr(walks, "vertex_expansion_exact", lambda h: calls.append(h) or exact(h))
    est = estimate_cover_time(g, phase(0.25), trials=5, seed=77)
    assert [r.steps for r in est.rows] == per_trial
    assert len(calls) == 1
    with pytest.raises(WalkError):  # rejected before the expansion is enumerated
        estimate_cover_time(generate("cycle", n=8), phase(0.25), trials=2, seed=1)
    assert len(calls) == 1


def test_phase_estimate_builds_bias_rows_once(monkeypatch):
    # one _DecayBias, with its O(m) slot index arrays, serves every trial
    g = generate("random_regular", n=16, d=3, seed=9)
    built = []
    decay = walks._DecayBias
    monkeypatch.setattr(walks, "_DecayBias", lambda h: built.append(h) or decay(h))
    est = estimate_cover_time(g, phase(0.25), trials=5, seed=77)
    assert len(built) == 1 and len(est.rows) == 5


def test_phase_cover_accepts_configured_expansion():
    g = generate("random_regular", n=16, d=3, seed=9)
    assert cover_run(g, phase(0.25, psi=0.5), SplitMix64(7), 0) >= g.n - 1


@pytest.mark.parametrize("psi", [math.nan, math.inf, -1.0])
def test_phase_rejects_psi_that_is_not_finite_and_nonnegative(psi):
    # nan and inf used to leave theta = eps silently: min(eps, nan) is eps
    # and 1 - exp(-inf) is 1
    g = generate("random_regular", n=16, d=3, seed=9)
    with pytest.raises(WalkError, match="psi"):
        cover_run(g, phase(0.25, psi=psi), SplitMix64(7), 0)
    with pytest.raises(WalkError, match="psi"):
        estimate_cover_time(g, phase(0.25, psi=psi), trials=2, seed=1)


def test_sweep_cover_meets_linear_bound_on_cycle():
    # directional bias covers a cycle in about n/eps steps; the acceptance
    # bound of 3n/eps leaves wide slack
    g = generate("cycle", n=256)
    est = estimate_cover_time(g, WalkSpec(kind="sweep", eps=0.5), trials=40, seed=99)
    assert est.mean <= 3 * g.n / 0.5


def test_estimate_cover_time_deterministic_and_round_robin():
    g = generate("complete", n=4)
    spec = WalkSpec(kind="srw")
    a = estimate_cover_time(g, spec, trials=64, seed=42)
    b = estimate_cover_time(g, spec, trials=64, seed=42)
    assert a.mean == b.mean and a.stddev == b.stddev
    c = estimate_cover_time(g, spec, trials=64, seed=43)
    assert c.mean != a.mean
    assert [r.start_vertex for r in a.rows] == [t % 4 for t in range(64)]
    assert all(r.steps >= 3 for r in a.rows)
    lo, hi = a.ci95
    assert lo <= a.mean <= hi


def test_estimate_cover_time_fixed_start_and_large_n_default():
    g = generate("complete", n=4)
    est = estimate_cover_time(g, WalkSpec(kind="srw", start=2), trials=8, seed=1)
    assert all(r.start_vertex == 2 for r in est.rows)
    big = generate("random_regular", n=66, d=3, seed=2)
    est = estimate_cover_time(big, WalkSpec(kind="srw"), trials=3, seed=1)
    assert all(r.start_vertex == 0 for r in est.rows)
    with pytest.raises(WalkError):
        estimate_cover_time(g, WalkSpec(kind="srw"), trials=1, seed=1)


def test_cover_mean_matches_complete_graph_exact_value():
    # coupon-collector style exact mean for K4 is 1.5 * (1 + 1/2 + 1/3) = 5.5
    g = generate("complete", n=4)
    est = estimate_cover_time(g, WalkSpec(kind="srw"), trials=4000, seed=7)
    assert abs(est.mean - 5.5) / 5.5 < 0.05


# --- lockstep engine -------------------------------------------------------------

LOCKSTEP_GRAPHS = {
    "complete:4": generate("complete", n=4),
    "cycle:5": generate("cycle", n=5),
    "cycle:12": generate("cycle", n=12),
    "irregular": build_graph(
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5), (5, 6), (6, 4), (2, 7)], 8
    ),
    "random-regular:20:3:4": generate("random_regular", n=20, d=3, seed=4),
}


def scalar_steps(g, spec, trials, seed):
    """Per-trial steps of the scalar loops alone, with estimate_cover_time's starts."""
    starts = [spec.start if spec.start is not None else (t % g.n if g.n <= 64 else 0) for t in range(trials)]
    return [cover_run(g, spec, SplitMix64.stream(seed, t), s) for t, s in enumerate(starts)]


@st.composite
def lockstep_cases(draw):
    name = draw(st.sampled_from(sorted(LOCKSTEP_GRAPHS)))
    g = LOCKSTEP_GRAPHS[name]
    if name.startswith("cycle") and draw(st.booleans()):
        spec = WalkSpec(kind="sweep", eps=draw(st.sampled_from([0.0, 0.25, 1.0])))
    else:
        spec = WalkSpec(kind="srw")
    start = draw(st.none() | st.integers(min_value=0, max_value=g.n - 1))
    return g, replace(spec, start=start)


@given(
    lockstep_cases(),
    st.integers(min_value=2, max_value=90),
    st.sampled_from([0, 1, -1, -(2**70) + 5, 2**64, 2**64 + 12345, 2**80 + 7]) | st.integers(-(2**66), 2**66),
)
@settings(max_examples=60, deadline=None)
def test_lockstep_steps_equal_scalar_steps(case, trials, seed):
    # widths below and above the lockstep threshold, with the scalar tail
    g, spec = case
    est = estimate_cover_time(g, spec, trials=trials, seed=seed)
    assert [r.steps for r in est.rows] == scalar_steps(g, spec, trials, seed)


def recording(calls, fn):
    """fn, with each call's arguments appended to calls."""

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


def test_lockstep_runs_only_wide_srw_and_sweep_batches(monkeypatch):
    calls = []
    monkeypatch.setattr(walks, "_cover_lockstep", recording(calls, walks._cover_lockstep))
    cyc = generate("cycle", n=16)
    estimate_cover_time(cyc, WalkSpec(kind="srw"), trials=walks._LOCKSTEP_MIN - 1, seed=3)
    rr = generate("random_regular", n=16, d=3, seed=9)
    estimate_cover_time(rr, WalkSpec(kind="phase", eps=0.25), trials=40, seed=3)
    assert calls == []
    estimate_cover_time(cyc, WalkSpec(kind="srw"), trials=walks._LOCKSTEP_MIN, seed=3)
    estimate_cover_time(cyc, WalkSpec(kind="sweep", eps=0.5), trials=100, seed=3)
    assert [len(starts) for *_, starts in calls] == [walks._LOCKSTEP_MIN, 100]


@pytest.mark.parametrize(
    "g, spec",
    [
        (generate("cycle", n=16), WalkSpec(kind="srw")),
        (generate("cycle", n=16), WalkSpec(kind="sweep", eps=0.25)),
        (generate("complete", n=4), WalkSpec(kind="srw", start=1)),
    ],
)
def test_cover_rows_are_a_prefix_of_longer_runs(g, spec):
    longer = estimate_cover_time(g, spec, trials=300, seed=-5).rows
    for trials in (20, 40, 299):
        assert estimate_cover_time(g, spec, trials=trials, seed=-5).rows == longer[:trials]


def test_cover_rows_do_not_depend_on_the_batch_width(monkeypatch):
    g = generate("cycle", n=64)
    for spec in (WalkSpec(kind="srw"), WalkSpec(kind="sweep", eps=0.25)):
        whole = estimate_cover_time(g, spec, trials=150, seed=2024).rows
        monkeypatch.setattr(walks, "_LOCKSTEP_CELLS", 40 * g.n)  # batches of 40, 40, 40, 30
        assert estimate_cover_time(g, spec, trials=150, seed=2024).rows == whole
        monkeypatch.undo()


def test_lockstep_batches_and_refills_stay_bounded(monkeypatch):
    for n in (4, 64, 512, 20_000, 1 << 21):
        for kind, dps in (("srw", 1), ("sweep", 2)):
            width = walks._lockstep_width(n, kind)
            assert width * n <= walks._LOCKSTEP_CELLS
            assert width * dps <= walks._REFILL_DRAWS
    assert walks._lockstep_width(1 << 21, "srw") < walks._LOCKSTEP_MIN  # scalar only
    assert walks._lockstep_width(64, "phase") == 0
    # a large cycle is cut into batches of at most _LOCKSTEP_CELLS // n trials;
    # the engine is stubbed out, so nothing walks
    calls = []
    big = generate("cycle", n=20_000)
    stub = recording(calls, lambda g, spec, seed, first, starts: [g.n - 1] * len(starts))
    monkeypatch.setattr(walks, "_cover_lockstep", stub)
    est = estimate_cover_time(big, WalkSpec(kind="srw"), trials=200, seed=1)
    width = walks._LOCKSTEP_CELLS // big.n
    batches = [(first, len(starts)) for _, _, _, first, starts in calls]
    assert batches == [(0, width), (width, width), (2 * width, width), (3 * width, 200 - 3 * width)]
    assert est.trials == 200
    # one refill holds at most _REFILL_DRAWS draws, however wide the batch
    monkeypatch.undo()
    calls = []
    monkeypatch.setattr(walks, "splitmix_block", recording(calls, walks.splitmix_block))
    estimate_cover_time(generate("complete", n=4), WalkSpec(kind="srw"), trials=5000, seed=8)
    assert calls and max(len(seeds) * m for seeds, _, m in calls) <= walks._REFILL_DRAWS


# --- stationary boost audit ----------------------------------------------------


def test_stationary_boost_theta_zero_uniform_passes():
    g = generate("complete", n=4)
    report = stationary_boost_audit(g, [0, 1], 0.0)
    assert report.ok and bool(report)
    assert report.bound_exponent == 1.0
    # uniform pi = 1/4 against 1/(2*3*2) * (2/4) = 1/24
    assert abs(report.min_margin - (0.25 - 1 / 24)) < 1e-12


def test_stationary_boost_single_target_with_tilt():
    g = generate("complete", n=4)
    report = stationary_boost_audit(g, [0], 0.25)
    assert report.ok
    assert report.min_margin > 0.15
    expected_exp = 1.0 + math.log(0.75) / math.log(3)
    assert abs(report.bound_exponent - expected_exp) < 1e-12


def test_stationary_boost_random_regular_instance():
    g = generate("random_regular", n=64, d=3, seed=6)
    targets = list(range(0, 64, 4))
    report = stationary_boost_audit(g, targets, 0.2)
    assert report.ok


def test_stationary_boost_validates_inputs():
    g = generate("complete", n=4)
    with pytest.raises(WalkError):
        stationary_boost_audit(g, [0], 0.5)
    with pytest.raises(WalkError):
        stationary_boost_audit(g, [], 0.1)
    cyc = generate("cycle", n=8)
    with pytest.raises(WalkError):
        stationary_boost_audit(cyc, [0], 0.1)

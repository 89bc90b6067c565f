"""Walk engine: biased steps, bias extraction, cover runs."""

import functools
import math
import tracemalloc
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.chains import ChainError, ReversibleChain
from walklab.graphs import Graph, build_graph, generate
from walklab.rng import SplitMix64, stream_seeds
from walklab import walks
from walklab.walks import (
    CoverEstimate,
    WalkError,
    WalkSpec,
    cover_run,
    estimate_cover_time,
    extract_bias_matrix,
    stationary_boost_audit,
    step,
)
from walklab.weighting import (
    WeightingError,
    induced_chain,
    slot_transitions,
    target_decay_weighting,
    uniform_weighting,
)


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


def point_mass_on(g, current, z):
    """The bias row at `current` that puts all its mass on neighbour z."""
    vec = np.zeros(len(g.adj[current]))
    vec[g.adj[current].index(z)] = 1.0
    return vec


def float_as_u64(x: float) -> int:
    return int(x * 2.0**53) << 11


# --- single-step marginals ----------------------------------------------------


def test_step_rejects_bad_eps_and_missing_policy():
    g = generate("complete", n=4)
    with pytest.raises(WalkError, match="eps must lie in"):
        step(g, 0, 1.5, None, SplitMix64(1))
    with pytest.raises(WalkError, match="needs a bias row"):
        step(g, 0, 0.5, None, SplitMix64(1))
    # a row must have one entry per neighbour of cur (3 on complete:4)
    for row in ([0.2] * 5, [0.5]):
        with pytest.raises(WalkError, match=f"bias row has {len(row)} entries, vertex 0 has 3 neighbours"):
            step(g, 0, 1.0, row, SplitMix64(1))


def test_step_consumes_exactly_two_draws_each_branch():
    g = generate("complete", n=4)
    for coin in (0.0, 0.9):
        rng = ScriptedRng([float_as_u64(coin), float_as_u64(0.4)])
        step(g, 0, 0.5, point_mass_on(g, 0, 1), rng)
        assert rng.draws == 2


def test_step_eps_one_follows_policy_exactly():
    g = generate("complete", n=4)
    rng = SplitMix64(7)
    cur = 0
    for _ in range(50):
        target = (cur + 1) % 4
        cur = step(g, cur, 1.0, point_mass_on(g, cur, target), rng)
        assert cur == target


def test_step_biased_marginal_on_complete_graph():
    # point mass on one neighbour at eps = 1/2: that neighbour should come up
    # with frequency 1/2 * 1/3 + 1/2 = 2/3, checked against a 3-sigma
    # binomial band over a million single-step draws
    g = generate("complete", n=4)
    rng = SplitMix64(2026)
    trials = 1_000_000
    hits = 0
    bias = point_mass_on(g, 0, 1)
    for _ in range(trials):
        if step(g, 0, 0.5, bias, rng) == 1:
            hits += 1
    p = 2.0 / 3.0
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * sigma


def test_step_unbiased_marginal_is_uniform():
    g = generate("complete", n=4)
    rng = SplitMix64(11)
    trials = 60_000
    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(trials):
        counts[step(g, 0, 0.0, None, rng)] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / trials)
    for v in (1, 2, 3):
        assert abs(counts[v] / trials - 1 / 3) <= 4 * sigma


# --- bias extraction -----------------------------------------------------------


def srw_chain(g):
    return induced_chain(uniform_weighting(g))


def test_extract_bias_matrix_identity_when_unbiased():
    g = generate("complete", n=4)
    p = extract_bias_matrix(srw_chain(g), g, 0.0)
    assert np.allclose(p[0], [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_extract_bias_matrix_zero_eps_requires_exact_srw():
    # the cube has diameter 3, so a decay weighting genuinely tilts the chain
    g = generate("hypercube", dim=3)
    tilted = induced_chain(target_decay_weighting(g, [0], 0.25))
    with pytest.raises(WalkError):
        extract_bias_matrix(tilted, g, 0.0)


def test_extract_bias_matrix_reconstructs_decay_chain():
    # on a complete graph every vertex is one step from the target, so the
    # decay chain is the plain walk and the extracted bias equals it
    g = generate("complete", n=4)
    eps = 0.25
    q = induced_chain(target_decay_weighting(g, [3], eps))
    b = extract_bias_matrix(q, g, eps)
    assert float(b.min()) >= -1e-12
    assert np.allclose(b.sum(axis=1), 1.0, atol=1e-12)
    p = extract_bias_matrix(srw_chain(g), g, 0.0)
    assert float(np.max(np.abs((1 - eps) * p + eps * b - q.matrix))) <= 1e-12

    cube = generate("hypercube", dim=3)
    qc = induced_chain(target_decay_weighting(cube, [0], eps))
    bc = extract_bias_matrix(qc, cube, eps)
    pc = extract_bias_matrix(srw_chain(cube), cube, 0.0)
    assert float(bc.min()) >= -1e-12
    assert float(np.max(np.abs(bc - pc))) > 0.01  # genuinely tilted
    assert float(np.max(np.abs((1 - eps) * pc + eps * bc - qc.matrix))) <= 1e-12


@pytest.mark.parametrize(
    "g",
    [
        generate("complete", n=5),
        generate("hypercube", dim=3),
        generate("random_regular", n=64, d=3, seed=5),
        build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)], 5),
    ],
    ids=["K5", "cube3", "rr64", "irregular"],
)
def test_extract_bias_matrix_matches_the_per_vertex_loop(g):
    # P as the per-vertex loop built it before the slot table, and B by the
    # formula written out
    p = np.zeros((g.n, g.n))
    for v in range(g.n):
        p[v, list(g.adj[v])] = 1.0 / len(g.adj[v])
    assert extract_bias_matrix(srw_chain(g), g, 0.0).tobytes() == p.tobytes()
    q = induced_chain(target_decay_weighting(g, [0], 0.1))
    for eps in (0.25, 0.5, 1.0) if g.regular_degree else (1.0,):
        b = extract_bias_matrix(q, g, eps)
        assert b.tobytes() == ((q.matrix - (1.0 - eps) * p) / eps).tobytes()


def test_extract_bias_matrix_rejects_eps_below_tilt():
    cube = generate("hypercube", dim=3)
    theta = 0.25
    q = induced_chain(target_decay_weighting(cube, [0], theta))
    with pytest.raises(WalkError):
        extract_bias_matrix(q, cube, theta / 2)


def test_extract_bias_matrix_validates_shapes_and_range():
    g = generate("complete", n=4)
    other = generate("cycle", n=6)
    with pytest.raises(WalkError):
        extract_bias_matrix(srw_chain(other), g, 0.1)
    with pytest.raises(WalkError):
        extract_bias_matrix(srw_chain(g), g, -0.1)
    # the walk on complete:4 puts 2/3 of B's row 0 on (0, 2), which cycle:4 lacks
    with pytest.raises(WalkError, match="off the edges"):
        extract_bias_matrix(srw_chain(g), generate("cycle", n=4), 0.5)
    # a lone vertex has no walk to perturb (this used to divide by its degree 0)
    with pytest.raises(ChainError, match="rows must sum to 1"):
        extract_bias_matrix(ReversibleChain(np.ones((1, 1)), np.ones(1)), build_graph([], 1), 0.5)


def dense_bias_rows(g, targets, theta, eps):
    b = extract_bias_matrix(induced_chain(target_decay_weighting(g, targets, theta)), g, eps)
    return [b[v, list(g.adj[v])].tolist() for v in range(g.n)]


def target_rows(n, sets):
    """The B x n boolean stack of target sets `_decay_rows` takes."""
    targets = np.zeros((len(sets), n), dtype=bool)
    for j, u in enumerate(sets):
        targets[j, u] = True
    return targets


def decay_rows(g, targets, theta, eps):
    """`_decay_rows` with the simple random walk's slot transitions it is given."""
    return walks._decay_rows(g, targets, theta, eps, slot_transitions(uniform_weighting(g)))


@pytest.mark.parametrize(
    "g",
    [
        generate("complete", n=4),
        generate("complete", n=6),
        generate("hypercube", dim=4),
        generate("random_regular", n=512, d=3, seed=11),
        generate("circulant", n=60, offsets=[1, 3, 7, 12, 20, 30]),
    ],
    ids=["K4", "K6", "cube4", "rr512", "circulant60-d11"],
)
def test_decay_bias_rows_bit_identical_to_dense_extraction(g):
    # every row of a batch of three target sets; at d >= 8 a pairwise sum of
    # the strengths would round differently from the dense path's bincount
    rng = SplitMix64(4242)
    for eps in (0.05, 0.25, 1.0):
        for theta in (min(eps, 1.0 - math.exp(-2.0 / 32.0)), eps / 2):
            sets = [sorted({rng.randrange(g.n) for _ in range(1 + rng.randrange(g.n))}) for _ in range(3)]
            rows = decay_rows(g, target_rows(g.n, sets), theta, eps)
            assert rows.shape == (3, g.n, g.regular_degree)
            for j, targets in enumerate(sets):
                assert rows[j].tolist() == dense_bias_rows(g, targets, theta, eps), (eps, theta, targets)


def test_decay_bias_rows_keep_the_dense_checks():
    cube = generate("hypercube", dim=3)
    one = target_rows(cube.n, [[0]])
    with pytest.raises(WalkError):
        decay_rows(cube, one, 0.25, 0.125)  # eps below the tilt: negative bias entries
    with pytest.raises(WalkError):  # only the second row of the batch has them
        decay_rows(cube, target_rows(cube.n, [range(cube.n), [0]]), 0.25, 0.125)
    with pytest.raises(WalkError):
        decay_rows(cube, one, 0.1, 0.0)
    with pytest.raises(WalkError):
        decay_rows(cube, one, 0.1, 1.5)
    with pytest.raises(WeightingError):
        decay_rows(cube, one, 1.0, 1.0)


# --- the biased walk loop ------------------------------------------------------


def visited_bytes(n, seen):
    visited = bytearray(n)
    for v in seen:
        visited[v] = 1
    return visited


# r at both ends of [0, 1) and in between
UNIT_ENDS = (0.0, 0.5, 1.0 - 2.0**-53)


def sweep_targets(g, seen, v):
    """The vertices the sweep's biased step from v reaches over UNIT_ENDS."""
    pick = walks._sweep_picks(g)(visited_bytes(g.n, seen))
    return {g.adj[v][pick(v, r)] for r in UNIT_ENDS}


def test_sweep_policy_prefers_forward_frontier():
    g = generate("cycle", n=8)
    assert sweep_targets(g, {0}, 0) == {1}
    # forward blocked and backward fresh: turn around
    assert sweep_targets(g, {1, 2}, 1) == {0}
    # both sides seen: keep pushing forward
    assert sweep_targets(g, {0, 1, 2}, 1) == {2}


def sweep_rule(g, visited, current):
    """The sweep walk's bias row at `current`: forward unless only backward is fresh."""
    fwd, bwd = (current + 1) % g.n, (current - 1) % g.n
    target = fwd if fwd not in visited or bwd in visited else bwd
    return point_mass_on(g, current, target)


class RecordingAdj(list):
    """Adjacency that records each vertex the walk looks up, i.e. its trajectory."""

    def __init__(self, adj):
        super().__init__(adj)
        self.path = []

    def __getitem__(self, v):
        self.path.append(v)
        return super().__getitem__(v)


def stepped_path(g, start, eps, rule, rng, stop):
    """Trajectory of repeated `step` calls, each with the bias row
    rule(g, visited, current), until at most `stop` vertices are unvisited."""
    visited = {start}
    path = [start]
    while g.n - len(visited) > stop:
        path.append(step(g, path[-1], eps, rule(g, visited, path[-1]), rng))
        visited.add(path[-1])
    return path, visited


class RecordingPick:
    """A `pick` that records each (vertex, r) it is asked for."""

    def __init__(self, pick):
        self.pick, self.calls = pick, []

    def __call__(self, v, r):
        self.calls.append((v, r))
        return self.pick(v, r)


def biased_steps(path, eps, seed):
    """The (vertex, r) of each biased step `step` took along `path` on seed's stream."""
    rng = SplitMix64(seed)
    calls = []
    for v in path[:-1]:
        coin, r = rng.next_float(), rng.next_float()
        if coin < eps:
            calls.append((v, r))
    return calls


@pytest.mark.parametrize("eps", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("seed", [3, 2**64 + 9])
def test_biased_walk_replays_step_draw_for_draw(eps, seed):
    # phase rows: one phase toward every vertex but the start on rr64, run
    # until half of them are visited, reading choices that `_play` decodes
    # from a block sized to the phase and then the trial's own blocks, each
    # biased step's r from the queue, and picking biased steps through the
    # flat thresholds, as `_phase_trials` does
    g = generate("random_regular", n=64, d=3, seed=5)
    built = decay_rows(g, target_rows(g.n, [range(1, g.n)]), 0.06, eps)[0] if eps > 0.0 else None
    rows = built.tolist() if eps > 0.0 else []
    rule = lambda g_, vis, cur: rows[cur] if rows else None
    expected, seen = stepped_path(g, 0, eps, rule, SplitMix64(seed), (g.n - 1) // 2)
    adj = RecordingAdj(g.adj)
    visited = visited_bytes(g.n, {0})
    left, stop = g.n - 1, (g.n - 1) // 2
    seeds = stream_seeds(seed, np.array([0]))  # SplitMix64(seed)'s stream
    pick = RecordingPick(walks._bisector(walks._thresholds(built).reshape(-1).tolist(), 2) if eps > 0.0 else None)
    (cur, steps, left), = walks._play(adj, lambda z: walks._decode_pairs(z, 3, eps), 2, seeds, [0],
                                      2 * (left - stop), [(0, 0, visited, left, stop, pick)])
    assert adj.path + [cur] == expected
    assert steps == len(expected) - 1 and left == g.n - len(seen)
    assert visited == visited_bytes(g.n, seen)
    assert pick.calls == biased_steps(expected, eps, seed)  # one pick per biased step, at its r
    # sweep rule on a cycle, to cover
    cyc = generate("cycle", n=24)
    expected, _ = stepped_path(cyc, 5, eps, sweep_rule, SplitMix64(seed), 0)
    adj = RecordingAdj(cyc.adj)
    visited = visited_bytes(cyc.n, {5})
    pick = RecordingPick(walks._sweep_picks(cyc)(visited))
    (cur, steps, left), = walks._play(adj, lambda z: walks._decode_pairs(z, 2, eps), 2, seeds, [0],
                                      2 * (cyc.n - 1), [(5, 0, visited, cyc.n - 1, 0, pick)])
    assert adj.path + [cur] == expected
    assert (steps, left) == (len(expected) - 1, 0)
    assert pick.calls == biased_steps(expected, eps, seed)


dust = st.sampled_from([0.0, -1e-12, -5e-13, -1e-13, 1e-12, 1e-16])


@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda d: st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1.0) | dust, min_size=d, max_size=d), min_size=1, max_size=4
        )
    ),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_bisected_thresholds_sample_as_the_row_does(rows, normalize):
    # the flat thresholds of a stack of rows, bisected between the lo/hi
    # bounds of row v, equal `_sample_from_vector` of row v at every
    # threshold, one ulp either side of it, and the ends of [0, 1), also
    # where dust makes the sums dip
    if normalize:  # rows whose sum is too small to divide by stay as drawn
        scaled = [[x / sum(row) for x in row] if sum(row) > 0.0 else row for row in rows]
        rows = [new if all(map(math.isfinite, new)) else row for row, new in zip(rows, scaled)]
    d = len(rows[0])
    thresholds = walks._thresholds(np.array([rows, rows]))  # a batch of two stacks, as `_phase_trials` builds
    assert thresholds.shape == (2, len(rows), d - 1)
    pick = walks._bisector(thresholds[1].reshape(-1).tolist(), d - 1)
    for v, row in enumerate(rows):
        sums = np.cumsum(row).tolist()
        for r in set(UNIT_ENDS) | {x for t in sums for x in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf))}:
            assert pick(v, r) == walks._sample_from_vector(row, r), (row, r)


IRREGULAR = build_graph([(v, (v + 1) % 10) for v in range(10)] + [(0, 5), (2, 7)], 10)  # degrees 2 and 3


@pytest.mark.parametrize("trials, lockstep, padded", [(12, False, True), (40, True, True), (12, False, False)],
                         ids=["scalar", "lockstep-hand-over", "unpadded"])
def test_srw_cover_replays_modulo_degree_stepping_on_an_irregular_graph(monkeypatch, trials, lockstep, padded):
    # choices u % 6 through the padded table, played scalar, handed over by
    # the lockstep engine, or read modulo each degree when the table is too
    # wide, equal stepping to adj[v][next_u64() % deg v]
    assert walks._slot_span(IRREGULAR) == 6
    if not padded:
        monkeypatch.setattr(walks, "_LOCKSTEP_CELLS", 6 * IRREGULAR.n - 1)
    assert (walks._srw_table(IRREGULAR)[1] is None) is not padded
    handed = []
    engine = walks._cover_lockstep

    def spy(*args):
        out, rest = engine(*args)
        handed.append(rest)
        return out, rest

    monkeypatch.setattr(walks, "_cover_lockstep", spy)
    steps = estimate_cover_time(IRREGULAR, WalkSpec(kind="srw"), trials=trials, seed=-31).steps
    want = [stepped_cover_steps(IRREGULAR, WalkSpec(kind="srw"), SplitMix64.stream(-31, t), t % 10)
            for t in range(trials)]
    assert steps == want
    assert bool(handed) is lockstep and all(handed)  # the lockstep engine left trials to the scalar loop


def test_every_walk_kind_steps_through_the_one_loop(monkeypatch):
    # srw played scalar (a 12-trial batch) and handed over by the lockstep
    # engine (a 40-trial batch), the sweep and the phase walk: `_walk` takes
    # every step the lockstep engine does not, and the spied runs give the
    # steps of unspied ones
    cases = [(IRREGULAR, WalkSpec(kind="srw"), 12), (IRREGULAR, WalkSpec(kind="srw"), 40),
             (generate("cycle", n=24), WalkSpec(kind="sweep", eps=0.25), 12),
             (generate("random_regular", n=64, d=3, seed=5), WalkSpec(kind="phase", eps=0.25, psi=2.0), 4)]
    want = [estimate_cover_time(g, spec, trials=trials, seed=9).steps for g, spec, trials in cases]
    loop, engine = walks._walk, walks._cover_lockstep
    walked, handed = [], []

    def spy_loop(adj, choices, rs, visited, cur, steps, left, stop, pick):
        out = loop(adj, choices, rs, visited, cur, steps, left, stop, pick)
        walked.append((steps, out[1]))
        return out

    def spy_engine(*args):
        out, rest = engine(*args)
        handed.extend((i, steps) for i, _, steps, _ in rest)
        return out, rest

    monkeypatch.setattr(walks, "_walk", spy_loop)
    monkeypatch.setattr(walks, "_cover_lockstep", spy_engine)
    for (g, spec, trials), steps in zip(cases, want):
        walked.clear()
        handed.clear()
        assert estimate_cover_time(g, spec, trials=trials, seed=9).steps == steps
        if trials == 40:  # the lockstep tail: one loop call per trial handed over, finishing it
            assert 0 < len(handed) < walks._LOCKSTEP_MIN
            assert walked == [(before, steps[i]) for i, before in handed]
        else:  # every step of every trial, in one loop call per trial (per phase for phase trials)
            assert not handed
            assert len(walked) == trials * (6 if spec.kind == "phase" else 1)
            assert sum(after - before for before, after in walked) == sum(steps)


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
    for engine in ("_cover_trials", "_cover_lockstep", "_phase_trials"):
        monkeypatch.setattr(walks, engine, lambda *args: pytest.fail("a trial ran"))
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


def stepped_phase_steps(g, eps, psi, rng, start):
    """Cover steps of the phase strategy played with `step`, each phase's
    rows from the dense extraction: the reference for `cover_run`."""
    theta = min(eps, 1.0 - math.exp(-psi / 32.0))
    rows, visited, cur, steps = None, {start}, start, 0
    while len(visited) < g.n:
        unvisited = [v for v in range(g.n) if v not in visited]
        rows = dense_bias_rows(g, unvisited, theta, eps)
        while g.n - len(visited) > len(unvisited) // 2:
            cur = step(g, cur, eps, rows[cur], rng)
            steps += 1
            visited.add(cur)
    return steps


# one case per walk kind, and the draws each of its steps takes
COUNTER_CASES = {
    "srw": (generate("random_regular", n=16, d=3, seed=9), WalkSpec(kind="srw")),
    "sweep": (generate("cycle", n=12), WalkSpec(kind="sweep", eps=0.25)),
    "phase": (generate("random_regular", n=16, d=3, seed=9), phase(0.25, psi=2.0)),
}
DRAWS_PER_STEP = {"srw": 1, "sweep": 2, "phase": 2}


def stepped_cover_steps(g, spec, rng, start):
    """Cover steps of `spec` played one draw at a time: srw moves to
    adj[cur][next_u64() % d], the sweep and phase walks take `step`."""
    if spec.kind == "phase":
        return stepped_phase_steps(g, spec.eps, spec.psi, rng, start)
    if spec.kind == "sweep":
        return len(stepped_path(g, start, spec.eps, sweep_rule, rng, 0)[0]) - 1
    visited, cur, steps = {start}, start, 0
    while len(visited) < g.n:
        cur = g.adj[cur][rng.next_u64() % len(g.adj[cur])]
        steps += 1
        visited.add(cur)
    return steps


@pytest.mark.parametrize("skip", [0, 1, 6, 99])
@pytest.mark.parametrize("kind", sorted(COUNTER_CASES))
def test_cover_run_plays_the_trial_from_the_rng_counter(kind, skip):
    # the trial draws from the counter the rng held on entry, wherever it
    # started (each phase resumes there plus two draws per step taken), and
    # leaves the rng just past its last draw
    g, spec = COUNTER_CASES[kind]
    rng, reference = SplitMix64(55), SplitMix64(55)
    for _ in range(skip):
        rng.next_u64()
    reference.counter = skip
    assert cover_run(g, spec, rng, 3) == stepped_cover_steps(g, spec, reference, 3)
    assert rng.counter == reference.counter


def test_cover_run_plays_from_a_counter_past_two_to_the_64():
    # draw k depends on k mod 2^64 only, so a counter of 2^64 + 3 replays
    # the trial from counter 3, and the rng's counter goes on from 2^64 + 3
    cases = [(generate("cycle", n=8), WalkSpec(kind="srw"))] + list(COUNTER_CASES.values())
    for g, spec in cases:
        rng, reference = SplitMix64(7), SplitMix64(7)
        rng.counter, reference.counter = 2**64 + 3, 3
        steps = cover_run(g, spec, rng, 0)
        assert steps == cover_run(g, spec, reference, 0)
        assert rng.counter - 2**64 == reference.counter


@pytest.mark.parametrize("kind", sorted(COUNTER_CASES))
def test_successive_cover_runs_on_one_rng_play_from_consecutive_counters(kind):
    # the second call starts where the first one's last draw left the
    # counter, not where a draw block of the iterators happened to end
    g, spec = COUNTER_CASES[kind]
    rng = SplitMix64(2024)
    first, second = cover_run(g, spec, rng, 0), cover_run(g, spec, rng, 1)
    resumed = SplitMix64(2024)
    resumed.counter = DRAWS_PER_STEP[kind] * first
    assert first == cover_run(g, spec, SplitMix64(2024), 0)
    assert second == cover_run(g, spec, resumed, 1)
    assert rng.counter == resumed.counter == DRAWS_PER_STEP[kind] * (first + second)


@pytest.mark.parametrize("trials", [65, 130])
def test_phase_rows_equal_per_trial_cover_runs(monkeypatch, trials):
    # one batch, then batches of 64 with a short last one
    g = generate("random_regular", n=16, d=3, seed=9)
    spec = phase(0.25, psi=2.0)
    want = scalar_steps(g, spec, trials, 404)
    assert estimate_cover_time(g, spec, trials=trials, seed=404).steps == want
    monkeypatch.setattr(walks, "_LOCKSTEP_CELLS", 64 * 2 * g.m)
    assert estimate_cover_time(g, spec, trials=trials, seed=404).steps == want


# eps 0.25, eps 1.0, and a psi whose tilt reaches eps: theta = min(0.25, 1 - e^(-10/32)) = 0.25
WIDTH_SPECS = {"eps0.25": (0.25, 2.0), "eps1": (1.0, 2.0), "theta-eq-eps": (0.25, 10.0)}
WIDTH_SEEDS = stream_seeds(606, np.arange(40))


@functools.lru_cache(maxsize=None)
def alone_steps(eps, psi):
    """Each of 40 phase trials on rr(64, 3) played by its own `cover_run`, from counter 3."""
    g = generate("random_regular", n=64, d=3, seed=5)
    steps = []
    for t, seed in enumerate(WIDTH_SEEDS.tolist()):
        rng = SplitMix64(seed)
        rng.counter = 3
        steps.append(cover_run(g, phase(eps, psi), rng, 7 * t % g.n))
    return steps


@pytest.mark.parametrize("width", [1, 12, 40])
@pytest.mark.parametrize("case", sorted(WIDTH_SPECS))
def test_phase_batches_of_any_width_play_each_trial_alone(width, case):
    # one block per phase serves the batch, each trial's columns drawn from
    # its own counter: at any width every trial takes the steps of its own
    # cover_run, so no trial reads another's draws, and the first two take
    # those of `step` played with the dense rows
    eps, psi = WIDTH_SPECS[case]
    assert (min(eps, 1.0 - math.exp(-psi / 32.0)) == eps) is (case == "theta-eq-eps")
    g = generate("random_regular", n=64, d=3, seed=5)
    spec = walks._checked(g, phase(eps, psi))
    starts = [7 * t % g.n for t in range(width)]
    assert walks._phase_trials(g, spec, WIDTH_SEEDS[:width], 3, starts) == alone_steps(eps, psi)[:width]
    for t in range(min(width, 2)):
        rng = SplitMix64(int(WIDTH_SEEDS[t]))
        rng.counter = 3
        assert alone_steps(eps, psi)[t] == stepped_phase_steps(g, eps, psi, rng, starts[t])


def block_calls(monkeypatch):
    """Spy on `walks.splitmix_block`: each call's (streams, first seed, draws)."""
    calls, batch = [], walks.splitmix_block
    monkeypatch.setattr(walks, "splitmix_block",
                        lambda seeds, at, m: calls.append((len(seeds), int(seeds[0]), m)) or batch(seeds, at, m))
    return calls


def test_phase_draw_blocks_start_at_the_phase_length(monkeypatch):
    # each phase draws one block for the whole batch, each trial's from its
    # own counter: the phase's shortest length, 2 (left - stop) draws, or
    # the previous phase's median draws if more, within [MIN_BLOCK,
    # MAX_BLOCK].  A trial that runs past it draws blocks of its own, in
    # turn, of the same size doubling up to MAX_BLOCK
    g = generate("random_regular", n=512, d=3, seed=11)
    calls = block_calls(monkeypatch)
    estimate_cover_time(g, phase(0.25), trials=32, seed=1)
    batches = [i for i, (streams, _, _) in enumerate(calls) if streams > 1]
    assert len(batches) == 9 and {calls[i][0] for i in batches} == {32}
    assert calls[batches[0]][2] == 2 * (g.n - 1 - (g.n - 1) // 2)  # 512 draws, the first phase's 256 steps
    doubled = 0
    for i, left, end in zip(batches, [511, 255, 127, 63, 31, 15, 7, 3, 1], batches[1:] + [len(calls)]):
        size = calls[i][2]
        assert max(2 * (left - left // 2), walks.MIN_BLOCK) <= size <= walks.MAX_BLOCK and size % 2 == 0
        own = calls[i + 1:end]
        assert all(streams == 1 for streams, _, _ in own)
        trials = [seed for k, (_, seed, _) in enumerate(own) if k == 0 or own[k - 1][1] != seed]
        assert len(trials) == len(set(trials))  # a trial draws all its blocks before the next one walks
        for seed in trials:
            sizes = [m for _, t, m in own if t == seed]
            assert sizes == [min(size << j, walks.MAX_BLOCK) for j in range(len(sizes))]
            doubled += len(sizes) > 1
    assert doubled > 0


@pytest.mark.parametrize("g, spec, trials, cells", [
    (generate("cycle", n=16), WalkSpec(kind="srw"), 20, 160),
    (generate("random_regular", n=64, d=3, seed=5), phase(0.25, psi=2.0), 20, 8 * 192),
], ids=["srw", "phase"])
def test_a_batch_block_holds_at_most_the_lockstep_cells(monkeypatch, g, spec, trials, cells):
    # with _LOCKSTEP_CELLS small, batches of all-scalar srw trials (10 to a
    # batch, so 16 draws each, below MIN_BLOCK) and of phase trials (8 to a
    # batch, whose median draws pass 192) draw batch blocks of at most that
    # many draws, an even number per trial for the phase walk, and every
    # trial takes the steps it takes with the constant as it is
    want = estimate_cover_time(g, spec, trials=trials, seed=3).steps
    monkeypatch.setattr(walks, "_LOCKSTEP_CELLS", cells)
    calls = block_calls(monkeypatch)
    assert estimate_cover_time(g, spec, trials=trials, seed=3).steps == want
    batches = [(streams, m) for streams, _, m in calls if streams > 1]
    assert len(batches) > 1 and all(streams * m <= cells for streams, m in batches)
    dps = walks._DRAWS_PER_STEP[spec.kind]
    assert all(m % dps == 0 for _, m in batches)
    assert any(m == cells // streams // dps * dps for streams, m in batches)  # the cap binds


def test_phase_threshold_build_peaks_no_higher_than_its_rows():
    # one full-width batch of rows on rr(8192, 3), 32 sets, turned into
    # thresholds in place, and each set's flat list built in turn as
    # `_phase_trials` reads them: the tracemalloc peak (23.0 MiB) stays within
    # the 25.1 MiB that building the rows alone took when the walk sampled
    # the rows themselves
    g = generate("random_regular", n=8192, d=3, seed=11)
    rng = SplitMix64(5)
    targets = np.array([rng.block_u64(g.n) % np.uint64(2) == 0 for _ in range(32)])
    theta = 1.0 - math.exp(-2.0 / 32.0)
    srw = slot_transitions(uniform_weighting(g))
    g.slots  # the graph's cached tables and the walk's transitions are not part of the build
    tracemalloc.start()
    try:
        for thresholds in walks._thresholds(walks._decay_rows(g, targets, theta, 0.25, srw)):
            assert len(thresholds.reshape(-1).tolist()) == 2 * g.n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25.1 * 2**20, peak / 2**20


def test_phase_estimate_computes_expansion_once(monkeypatch):
    g = generate("random_regular", n=16, d=3, seed=9)
    per_trial = [cover_run(g, phase(0.25), SplitMix64.stream(77, t), t % g.n) for t in range(5)]
    calls = []
    exact = walks.vertex_expansion_exact
    monkeypatch.setattr(walks, "vertex_expansion_exact", lambda h: calls.append(h) or exact(h))
    est = estimate_cover_time(g, phase(0.25), trials=5, seed=77)
    assert est.steps == per_trial
    assert len(calls) == 1
    with pytest.raises(WalkError):  # rejected before the expansion is enumerated
        estimate_cover_time(generate("cycle", n=8), phase(0.25), trials=2, seed=1)
    assert len(calls) == 1
    # at eps = 0 theta is 0 whatever psi is, so none is enumerated
    calls.clear()
    rr24 = generate("random_regular", n=24, d=3, seed=1)
    unbiased = estimate_cover_time(rr24, phase(0.0), trials=4, seed=77)
    assert calls == []
    tilted = estimate_cover_time(rr24, phase(0.0, psi=1.0), trials=4, seed=77)
    assert (unbiased.starts, unbiased.steps) == (tilted.starts, tilted.steps)


def test_phase_estimate_builds_bias_rows_once(monkeypatch):
    # the graph's slot table is built once and every phase of every trial
    # reads it; no phase rebuilds slot index arrays
    build = Graph.__dict__["slots"].func
    built = []
    counted = cached_property(lambda h: built.append(h) or build(h))
    counted.__set_name__(Graph, "slots")
    monkeypatch.setattr(Graph, "slots", counted)
    g = generate("random_regular", n=16, d=3, seed=9)
    est = estimate_cover_time(g, phase(0.25), trials=5, seed=77)
    assert len(built) == 1 and len(est.steps) == 5


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
    with pytest.raises(WalkError, match="psi"):  # a given psi is checked at eps = 0 too
        estimate_cover_time(g, phase(0.0, psi=psi), trials=2, seed=1)


@pytest.mark.parametrize("spec", [WalkSpec(kind="srw", psi=5.0), WalkSpec(kind="sweep", eps=0.25, psi=0.0)],
                         ids=["srw", "sweep"])
def test_only_the_phase_walk_takes_psi(spec):
    # a psi no walk reads used to be ignored
    g = generate("cycle", n=8)
    with pytest.raises(WalkError, match=f"only the phase walk takes psi, got psi {spec.psi} for the {spec.kind} walk"):
        cover_run(g, spec, SplitMix64(7), 0)
    with pytest.raises(WalkError, match="only the phase walk takes psi"):
        estimate_cover_time(g, spec, trials=2, seed=1)


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
    assert a.starts == [t % 4 for t in range(64)]
    assert all(steps >= 3 for steps in a.steps)
    lo, hi = a.ci95
    assert lo <= a.mean <= hi


def test_estimate_cover_time_fixed_start_and_large_n_default():
    g = generate("complete", n=4)
    est = estimate_cover_time(g, WalkSpec(kind="srw", start=2), trials=8, seed=1)
    assert all(start == 2 for start in est.starts)
    big = generate("random_regular", n=66, d=3, seed=2)
    est = estimate_cover_time(big, WalkSpec(kind="srw"), trials=3, seed=1)
    assert all(start == 0 for start in est.starts)
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
    "one-vertex": build_graph([], 1),
    "path:2": build_graph([(0, 1)], 2),
}
SWEEP_GRAPHS = {"cycle:5", "cycle:12", "path:2"}  # v adjacent to exactly v - 1 and v + 1 mod n


def scalar_steps(g, spec, trials, seed):
    """Per-trial steps of the scalar loops alone, with estimate_cover_time's starts."""
    starts = [spec.start if spec.start is not None else (t % g.n if g.n <= 64 else 0) for t in range(trials)]
    return [cover_run(g, spec, SplitMix64.stream(seed, t), s) for t, s in enumerate(starts)]


@st.composite
def lockstep_cases(draw):
    name = draw(st.sampled_from(sorted(LOCKSTEP_GRAPHS)))
    g = LOCKSTEP_GRAPHS[name]
    if name in SWEEP_GRAPHS and draw(st.booleans()):
        spec = WalkSpec(kind="sweep", eps=draw(st.sampled_from([0.0, 0.25, 1.0])))
    else:
        spec = WalkSpec(kind="srw")
    start = draw(st.none() | st.integers(min_value=0, max_value=g.n - 1))
    return g, replace(spec, start=start)


@given(
    lockstep_cases(),
    st.integers(min_value=2, max_value=90),
    st.sampled_from([0, 1, -1, -(2**70) + 5, 2**64, 2**64 + 12345, 2**80 + 7]) | st.integers(-(2**66), 2**66),
    st.none() | st.integers(min_value=1, max_value=4),
)
@settings(max_examples=80, deadline=None)
def test_lockstep_steps_equal_scalar_steps(case, trials, seed, block_steps):
    # widths below and above the lockstep threshold, with the scalar tail;
    # refills of 1-4 steps put finishes, compaction and the hand-over to the
    # scalar loop both on block edges and inside blocks
    g, spec = case
    with pytest.MonkeyPatch.context() as mp:
        if block_steps is not None:
            mp.setattr(walks, "_REFILL_DRAWS", block_steps * walks._DRAWS_PER_STEP[spec.kind] * trials)
        est = estimate_cover_time(g, spec, trials=trials, seed=seed)
    assert est.steps == scalar_steps(g, spec, trials, seed)


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


@pytest.mark.parametrize("spec", [WalkSpec(kind="srw"), WalkSpec(kind="sweep", eps=0.25)], ids=["srw", "sweep"])
def test_lockstep_batch_from_a_counter_equals_its_scalar_runs(monkeypatch, spec):
    # the lockstep refills and the hand-over of its tail to the scalar loop
    # both count from the batch's counter
    g = generate("cycle", n=16)
    seeds = stream_seeds(41, np.arange(60))
    starts = [t % g.n for t in range(60)]
    handed = []
    lockstep = walks._cover_lockstep

    def spy(*args):
        out, rest = lockstep(*args)
        handed.extend(rest)
        return out, rest

    monkeypatch.setattr(walks, "_cover_lockstep", spy)
    steps = walks._cover_trials(g, spec, seeds, 17, starts)
    assert handed  # the scalar loop finished some of the batch
    want = []
    for seed, start in zip(seeds.tolist(), starts):
        rng = SplitMix64(seed)
        rng.counter = 17
        want.append(cover_run(g, spec, rng, start))
    assert steps == want


def test_lockstep_leaves_a_graph_with_an_oversized_padded_table_scalar(monkeypatch):
    # degrees 7, 5, 4, 3, 2 and 1: the padded neighbour table needs 8 * 420 cells
    g = build_graph([(0, v) for v in range(1, 8)] + [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)], 8)
    assert walks._slot_span(g) == 420
    calls = []
    monkeypatch.setattr(walks, "_cover_lockstep", recording(calls, walks._cover_lockstep))
    monkeypatch.setattr(walks, "_LOCKSTEP_CELLS", 8 * 420 - 1)  # still room for 419 trials
    scalar = estimate_cover_time(g, WalkSpec(kind="srw"), trials=40, seed=5)
    assert calls == []
    monkeypatch.setattr(walks, "_LOCKSTEP_CELLS", 8 * 420)
    lockstep = estimate_cover_time(g, WalkSpec(kind="srw"), trials=40, seed=5)
    assert (lockstep.starts, lockstep.steps) == (scalar.starts, scalar.steps)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "g, spec",
    [
        (generate("cycle", n=16), WalkSpec(kind="srw")),
        (generate("cycle", n=16), WalkSpec(kind="sweep", eps=0.25)),
        (generate("complete", n=4), WalkSpec(kind="srw", start=1)),
    ],
)
def test_cover_rows_are_a_prefix_of_longer_runs(g, spec):
    longer = estimate_cover_time(g, spec, trials=300, seed=-5)
    for trials in (20, 40, 299):
        est = estimate_cover_time(g, spec, trials=trials, seed=-5)
        assert (est.starts, est.steps) == (longer.starts[:trials], longer.steps[:trials])


def test_cover_rows_do_not_depend_on_the_batch_width(monkeypatch):
    g = generate("cycle", n=64)
    for spec in (WalkSpec(kind="srw"), WalkSpec(kind="sweep", eps=0.25)):
        whole = estimate_cover_time(g, spec, trials=150, seed=2024)
        monkeypatch.setattr(walks, "_LOCKSTEP_CELLS", 40 * g.n)  # batches of 40, 40, 40, 30
        batched = estimate_cover_time(g, spec, trials=150, seed=2024)
        assert (batched.starts, batched.steps) == (whole.starts, whole.steps)
        monkeypatch.undo()


def batch_sizes(monkeypatch, g, spec, trials):
    """Trials per `_cover_trials` call of one estimate; the engine is stubbed
    out, so nothing walks."""
    sizes = []
    with monkeypatch.context() as m:
        m.setattr(walks, "_cover_trials", lambda g, spec, seeds, counter, starts: sizes.append(len(starts))
                  or [g.n - 1] * len(starts))
        estimate_cover_time(g, spec, trials=trials, seed=1)
    return sizes


def test_lockstep_batches_and_refills_stay_bounded(monkeypatch):
    for n in (4, 64, 512, 20_000):
        g = generate("cycle", n=n)
        for spec, dps in ((WalkSpec(kind="srw"), 1), (WalkSpec(kind="sweep", eps=0.25), 2)):
            sizes = batch_sizes(monkeypatch, g, spec, 20_000)
            assert sum(sizes) == 20_000
            assert max(sizes) * n <= walks._LOCKSTEP_CELLS
            assert max(sizes) * dps <= walks._REFILL_DRAWS
    rr = generate("random_regular", n=512, d=3, seed=11)
    sizes = batch_sizes(monkeypatch, rr, WalkSpec(kind="phase", eps=0.25, psi=0.05), 2000)
    assert max(sizes) * 2 * rr.m <= walks._LOCKSTEP_CELLS
    with monkeypatch.context() as m:  # a graph past the cell budget plays its trials one at a time
        m.setattr(walks, "_LOCKSTEP_CELLS", 10_000)
        assert batch_sizes(monkeypatch, generate("cycle", n=20_000), WalkSpec(kind="srw"), 40) == [1] * 40
    # a large cycle is cut into batches of at most _LOCKSTEP_CELLS // n trials;
    # the engine is stubbed out, so nothing walks
    calls = []
    big = generate("cycle", n=20_000)
    stub = recording(calls, lambda g, spec, seeds, counter, starts: ([g.n - 1] * len(starts), []))
    monkeypatch.setattr(walks, "_cover_lockstep", stub)
    est = estimate_cover_time(big, WalkSpec(kind="srw"), trials=200, seed=1)
    width = walks._LOCKSTEP_CELLS // big.n
    firsts = [0, width, 2 * width, 3 * width, 200]
    batches = [(seeds.tolist(), counter, len(starts)) for _, _, seeds, counter, starts in calls]
    assert batches == [(stream_seeds(1, np.arange(a, b)).tolist(), 0, b - a) for a, b in zip(firsts, firsts[1:])]
    assert len(est.steps) == 200
    # one refill holds at most _REFILL_DRAWS draws, however wide the batch
    monkeypatch.undo()
    calls = []
    monkeypatch.setattr(walks, "splitmix_block", recording(calls, walks.splitmix_block))
    estimate_cover_time(generate("complete", n=4), WalkSpec(kind="srw"), trials=5000, seed=8)
    assert calls and max(len(seeds) * m for seeds, _, m in calls) <= walks._REFILL_DRAWS


@pytest.mark.parametrize(
    "g, spec, trials",
    [
        (generate("cycle", n=64), WalkSpec(kind="srw"), 300),
        (generate("cycle", n=64), WalkSpec(kind="sweep", eps=0.25), 300),
        (generate("complete", n=4), WalkSpec(kind="srw"), 5000),
    ],
)
def test_lockstep_batch_memory_stays_bounded(monkeypatch, g, spec, trials):
    # One full-width batch holds its visited array and, per refill, the block
    # (srw decodes it and writes its positions in place), the sorted first
    # visits and per-row arrays: each at most _REFILL_DRAWS * 8 bytes, a few
    # alive at once.  Nothing may grow with the number of steps.
    assert batch_sizes(monkeypatch, g, spec, trials) == [trials]
    seeds = stream_seeds(17, np.arange(trials))
    tracemalloc.start()
    try:
        walks._cover_trials(g, spec, seeds, 0, [t % g.n for t in range(trials)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= trials * g.n + 8 * walks._REFILL_DRAWS * 8, peak


# --- stationary boost audit ----------------------------------------------------


def test_stationary_boost_theta_zero_uniform_passes():
    g = generate("complete", n=4)
    report = stationary_boost_audit(g, [0, 1], 0.0)
    assert report.ok
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

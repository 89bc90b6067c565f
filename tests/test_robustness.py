"""Bucket ids, representative blocks, and the robustness endpoint checks."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from walklab import graphs, oracle, robustness
from walklab.chains import power_chain
from walklab.graphs import (
    GraphError,
    ball,
    generate,
    is_bipartite,
    small_regular_catalog,
    vertex_expansion_exact,
)
from walklab.robustness import (
    ALPHA,
    LemmaCheck,
    Section3Report,
    bucket_ids,
    bucket_index,
    prop311_check,
    psi_lower_bound,
    random_subsets,
    representative_blocks,
    representative_blocks_from_sizes,
    section3_K,
    section3_lemma_audit,
    section3_sigma,
    theorem31_check,
)
from walklab.rng import SplitMix64
from walklab.weighting import (
    WeightingError,
    _vertex_sums,
    bottleneck_weighting,
    induced_chain,
    random_lipschitz_weighting,
    slot_transitions,
    stationary_ratio_audit,
    target_decay_weighting,
    uniform_weighting,
)


# --- scale constants -------------------------------------------------------


def test_step_count_formula():
    assert section3_K(1.0) == math.ceil(2 / math.log(2))
    assert section3_K(0.5) == math.ceil(2 / math.log(1.5))
    assert section3_K(3.0) == 2


CYCLE8 = generate("cycle", n=8)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: section3_K(math.nan), GraphError),
        (lambda: section3_K(math.inf), GraphError),
        (lambda: theorem31_check(uniform_weighting(CYCLE8), psi=math.nan), GraphError),
        (lambda: section3_lemma_audit(uniform_weighting(CYCLE8), [[0]], psi=math.nan), GraphError),
        (lambda: stationary_ratio_audit(uniform_weighting(CYCLE8), 2, beta=math.nan), WeightingError),
        (lambda: oracle.power_mean(math.nan, (1.0, 2.0)), oracle.OracleError),
        (lambda: oracle.power_mean(-math.inf, (1.0, 2.0)), oracle.OracleError),
    ],
    ids=[
        "K-nan",
        "K-inf",
        "theorem31-psi-nan",
        "lemma-audit-psi-nan",
        "stationary-beta-nan",
        "power-mean-r-nan",
        "power-mean-r-minus-inf",
    ],
)
def test_non_finite_scale_parameters_are_refused_with_the_module_error(call, error):
    with pytest.raises(error):
        call()


def test_sigma_formula():
    assert section3_sigma(3) == pytest.approx(math.exp(1 / 6))
    assert section3_sigma(1) == pytest.approx(math.exp(0.5))


def test_alpha_is_e_squared():
    assert ALPHA == pytest.approx(math.e**2)


# --- buckets ----------------------------------------------------------------


def test_bucket_index_half_open_intervals():
    assert bucket_index(1.0) == 1
    assert bucket_index(0.9) == 1
    assert bucket_index(math.exp(-1)) == 2
    assert bucket_index(0.25) == 2
    assert bucket_index(math.exp(-2)) == 3
    assert bucket_index(1e-6) == 14


def test_bucket_partition_covers_all_vertices():
    g = generate("cycle", n=6)
    w = target_decay_weighting(g, [0], 0.5)
    ids = bucket_ids(w)
    buckets = {int(i): np.flatnonzero(ids == i) for i in np.unique(ids)}
    assert sorted(v for vs in buckets.values() for v in vs) == list(range(6))
    for i, vs in buckets.items():
        assert all(bucket_index(float(w.pi[v])) == i for v in vs)


def test_bucket_partition_uniform_single_bucket():
    g = generate("cycle", n=6)
    assert len(np.unique(bucket_ids(uniform_weighting(g)))) == 1


# --- representative blocks --------------------------------------------------


def test_block_recursion_on_reference_size_profile():
    # size profile with a hump, a dip, and a second rise (buckets 2..10); the
    # recursion keeps the first run while successors stay large, closes at the
    # small successor, skips the witness bucket, and restarts at the next
    # strict increase
    sizes = dict(zip(range(2, 11), (2, 12, 52, 70, 8, 5, 6, 32, 68)))
    assert representative_blocks_from_sizes(sizes) == [(2, 4), (8, 9)]


def test_block_recursion_single_growing_run():
    sizes = {1: 1, 2: 10, 3: 100}
    assert representative_blocks_from_sizes(sizes) == [(1, 3)]


def test_block_recursion_flat_profile_stops_after_first():
    sizes = {1: 8, 2: 8, 3: 8, 4: 8}
    # |S_2| <= (alpha/2)|S_1| immediately: the block is the single bucket 1,
    # bucket 2 is the witness, and no later bucket grows strictly
    assert representative_blocks_from_sizes(sizes) == [(1, 1)]


def test_block_recursion_respects_alpha_threshold():
    # alpha/2 = e^2/2 ~ 3.69: bucket 2 (4 > 3.69 * 1) extends the run, bucket 3
    # (2 <= 3.69 * 5) is the witness that closes it
    sizes = {1: 1, 2: 4, 3: 2}
    assert representative_blocks_from_sizes(sizes) == [(1, 2)]


def test_representative_blocks_on_chain():
    g = generate("cycle", n=16)
    w = target_decay_weighting(g, [0], 0.6)
    subset = np.arange(16) < 8
    blocks = representative_blocks(subset, bucket_ids(w))
    for (a, b), _ in blocks:
        assert a <= b
    assert all(not np.any(block & ~subset) for _, block in blocks)
    assert not np.any(np.logical_or.reduce([block for _, block in blocks]) & ~subset)


def test_subset_vertices_out_of_range_are_rejected():
    # 16 used to raise IndexError from the bucket lookup, and -1 silently
    # read the last vertex's bucket and came back inside a block; an
    # oversized set holding 99 used to come back skipped as |S| > n/2
    g = generate("random_regular", n=16, d=3, seed=7)
    w = uniform_weighting(g)
    for subset, vertex in [({16}, 16), ({-1, 2}, -1), (set(range(9)) | {99}, 99), (set(range(9)) | {-1}, -1)]:
        with pytest.raises(GraphError, match=f"vertex {vertex} out of range"):
            section3_lemma_audit(w, [{0, 1}, subset])


# --- lemma audits -----------------------------------------------------------


def test_lemma_check_counts_each_instance_past_its_slack():
    check = LemmaCheck("mass")
    check.record(1.0, 1.0 + 1e-10, slack=1e-9)
    assert check.ok and check.instances == 1 and check.failures == 0
    check.record(1.0, 1.5, slack=1e-9)
    check.record(2.0, 1.0, slack=1e-9)
    check.record(0.0, 1.0, slack=1e-9)
    assert not check.ok
    assert check.to_json_dict() == {"name": "mass", "instances": 4, "min_margin": -1.0, "failures": 2}
    assert not Section3Report(checks=[LemmaCheck("flow"), check]).ok


def test_lemma_audit_uniform_regular_16():
    g = generate("random_regular", n=16, d=3, seed=4)
    w = uniform_weighting(g)
    rng = SplitMix64(21)
    subsets = []
    for _ in range(25):
        size = 1 + rng.randrange(8)
        verts = list(range(16))
        rng.shuffle(verts)
        subsets.append(frozenset(verts[:size]))
    for report in section3_lemma_audit(w, subsets):
        assert report.ok, report


def test_lemma_audit_sigma_lipschitz_16():
    g = generate("random_regular", n=16, d=3, seed=9)
    psi, _ = vertex_expansion_exact(g)
    sigma = section3_sigma(section3_K(psi))
    rng = SplitMix64(77)
    for _ in range(10):
        w = random_lipschitz_weighting(g, sigma, rng)
        size = 1 + rng.randrange(8)
        verts = list(range(16))
        rng.shuffle(verts)
        [report] = section3_lemma_audit(w, [frozenset(verts[:size])])
        assert report.ok, report


def test_lemma_audit_skips_oversize_subset():
    g = generate("cycle", n=8)
    [report] = section3_lemma_audit(uniform_weighting(g), [frozenset(range(5))])
    assert report.skipped is not None
    assert not report.ok


def test_lemma_audit_skips_rough_weighting():
    g = generate("random_regular", n=16, d=3, seed=4)
    w = target_decay_weighting(g, [0], 0.9)  # beta up to 10, far beyond sigma
    [report] = section3_lemma_audit(w, [frozenset({0, 1})])
    assert report.skipped is not None


@pytest.mark.parametrize("rough", [False, True], ids=["sigma-lipschitz", "rough"])
@pytest.mark.parametrize("subsets, match", [([{99}, set()], "vertex 99 out of range"), ([{0, 1}, set()], "non-empty")],
                         ids=["out-of-range", "empty"])
def test_lemma_audit_checks_every_set_before_skipping_a_rough_weighting(rough, subsets, match):
    # a rough weighting used to come back as one skipped report per set
    # before any set was looked at
    g = generate("random_regular", n=16, d=3, seed=4)
    w = target_decay_weighting(g, [0], 0.9) if rough else uniform_weighting(g)
    with pytest.raises(GraphError, match=match):
        section3_lemma_audit(w, subsets)


SECTION3_CASES = {
    "uniform": (
        lambda: uniform_weighting(generate("random_regular", n=16, d=3, seed=4)),
        [{0}, {1, 5, 9}, set(range(8)), {3, 12}],
    ),
    "rough": (
        lambda: target_decay_weighting(generate("random_regular", n=16, d=3, seed=4), [0], 0.9),
        [{0, 1}, set(range(8)), set(range(12))],
    ),
    "oversize": (lambda: uniform_weighting(generate("cycle", n=8)), [set(range(5)), {0, 1}, set(range(8)), {2, 6}]),
    "bipartite": (
        lambda: uniform_weighting(generate("hypercube", dim=3)),
        [{1, 2, 4, 7}, {0, 3}, {0, 5}, {0, 1, 2, 3}],
    ),
}


@pytest.mark.parametrize("case", sorted(SECTION3_CASES))
def test_lemma_audit_of_many_sets_matches_one_set_calls(case):
    make, subsets = SECTION3_CASES[case]
    w = make()
    reports = section3_lemma_audit(w, subsets)
    assert reports == [section3_lemma_audit(w, [s])[0] for s in subsets]
    assert any(r.skipped for r in reports) == (case in {"rough", "oversize"})


def test_lemma_audit_defaults_psi_to_the_endpoint_lower_bound(monkeypatch):
    # above the 24-vertex expansion guard a missing psi is the spectral lower
    # bound, as in theorem31_check, not an exhaustive enumeration that refuses
    w = uniform_weighting(generate("random_regular", n=32, d=3, seed=7))
    calls = []
    monkeypatch.setattr(robustness, "psi_lower_bound", lambda g: calls.append(g) or psi_lower_bound(g))
    [report] = section3_lemma_audit(w, [frozenset(range(4))])
    assert calls == [w.graph]
    assert report.ok
    section3_lemma_audit(w, [frozenset(range(4))], psi=0.5)
    assert calls == [w.graph]


def test_lemma_audit_requires_regular_graph():
    from walklab.graphs import build_graph

    path_plus = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4)
    with pytest.raises(GraphError):
        section3_lemma_audit(uniform_weighting(path_plus), [frozenset({0})])


def dense_flow_margins(w, subsets, psi):
    """Each set's flow-check min_margin, from the dense P^2K flow matrix."""
    g = w.graph
    K = section3_K(psi)
    p2k = power_chain(induced_chain(w), 2 * K)
    flow = p2k.pi[:, None] * p2k.matrix
    ids = bucket_ids(w)
    scale = g.regular_degree ** (-2.0 * K) / 90.0
    margins = []
    for s in subsets:
        mask = np.isin(np.arange(g.n), sorted(s))
        margins.append(min(
            float(flow[np.ix_(block, ~mask)].sum()) - scale * float(w.pi[block].sum())
            for _, block in representative_blocks(mask, ids)
        ))
    return margins


def flow_cases():
    """(weighting, psi) pairs: the catalog, uniform and at the budget sigma;
    a sigma-Lipschitz rr(16, 3, 9), where P and its transpose differ; rr512."""
    rng = SplitMix64.stream(11, 0)
    for g in small_regular_catalog().values():
        psi = psi_lower_bound(g)
        yield uniform_weighting(g), psi
        yield random_lipschitz_weighting(g, section3_sigma(section3_K(psi)), rng), psi
    g = generate("random_regular", n=16, d=3, seed=9)
    psi = psi_lower_bound(g)
    for _ in range(3):
        yield random_lipschitz_weighting(g, section3_sigma(section3_K(psi)), rng), psi
    g = generate("random_regular", n=512, d=3, seed=11)
    yield uniform_weighting(g), psi_lower_bound(g)


def test_flow_margins_match_the_dense_2K_step_chain():
    rng = SplitMix64.stream(12, 0)
    audited = 0
    for w, psi in flow_cases():
        subsets = random_subsets(w.graph, 10, rng)
        reports = section3_lemma_audit(w, subsets, psi=psi)
        flows = [next(c for c in r.checks if c.name == "flow_2K_to_complement_ge_scaled_mass") for r in reports]
        if flows[0].skipped:  # bipartite
            continue
        audited += 1
        for check, dense in zip(flows, dense_flow_margins(w, subsets, psi)):
            assert abs(check.min_margin - dense) <= 1e-13 * abs(dense), (w.graph.n, check.min_margin, dense)
    assert audited == 18


def reference_section3_audit(w, subsets, psi=None):
    """The set-valued audit the mask audit replaced: frozensets per bucket and
    block, one `graphs.ball` search per block, masses summed over each set,
    and the same stack of 2K slot matvecs for the flows."""
    g = w.graph
    d, K, sigma, beta, rough = robustness._section3_scale(w, psi)
    if rough:
        reason = f"weighting is not sigma-Lipschitz (beta={beta:.6g} > sigma={sigma:.6g})"
        return [Section3Report(skipped=reason) for _ in subsets]
    index_of = [bucket_index(float(p)) for p in w.pi]
    buckets = {}
    for v, i in enumerate(index_of):
        buckets.setdefault(i, set()).add(v)
    buckets = {i: frozenset(vs) for i, vs in buckets.items()}
    bipartite = is_bipartite(g)
    scale = d ** (-2.0 * K) / 90.0
    reports, flows = [], []

    def mass(vs):
        return float(sum(w.pi[v] for v in vs))

    def union(sets):
        out = set()
        for vs in sets:
            out |= vs
        return frozenset(out)

    for subset in subsets:
        report = Section3Report()
        reports.append(report)
        s = frozenset(int(v) for v in subset)
        if 2 * len(s) > g.n:
            report.skipped = f"|S|={len(s)} exceeds n/2"
            continue
        member = {}
        for v in s:
            member.setdefault(index_of[v], set()).add(v)
        pairs = representative_blocks_from_sizes({i: len(vs) for i, vs in member.items()})
        blocks = [union(member.get(i, set()) for i in range(a, b + 1)) for a, b in pairs]
        c_mass = LemmaCheck("representative_mass_ge_S_over_22")
        c_top = LemmaCheck("top_bucket_ge_block_over_11")
        c_ball = LemmaCheck("ball_2K_outside_S_ge_block_over_3")
        c_flow = LemmaCheck("flow_2K_to_complement_ge_scaled_mass")
        report.checks = [c_mass, c_top, c_flow, c_ball]
        c_mass.record(mass(union(blocks)), mass(s) / 22.0, slack=1e-12)
        if bipartite:
            c_flow.skipped = (
                "bipartite graph: the 2K-step chain never leaves one side of the bipartition, "
                "so a side has no 2K-step flow to its complement"
            )
        else:
            flows.append((c_flow, s, blocks))
        for (_, b), block in zip(pairs, blocks):
            c_top.record(mass(block & buckets[b]), mass(block) / 11.0, slack=1e-12)
            c_ball.record(float(len(ball(g, block, 2 * K) - s)), len(block) / 3.0, slack=1e-9)
    if flows:
        p, neighbor = slot_transitions(w), g.slots.neighbor
        h = np.ones((len(flows), g.n))
        for row, (_, s, _) in zip(h, flows):
            row[sorted(s)] = 0.0
        for _ in range(2 * K):
            h = _vertex_sums(g, p * h.take(neighbor, axis=-1))
        for row, (c_flow, _, blocks) in zip(w.pi * h, flows):
            for block in blocks:
                c_flow.record(float(row[sorted(block)].sum()), scale * mass(block), slack=1e-15)
    return reports


def reference_cases():
    """(weighting, sets, psi): SECTION3_CASES, flow_cases() with ten random
    sets each, and target decay on cycle:40 at K = 1, whose sets span up to
    five blocks."""
    for make, subsets in SECTION3_CASES.values():
        yield make(), subsets, None
    rng = SplitMix64.stream(13, 0)
    for w, psi in flow_cases():
        yield w, random_subsets(w.graph, 10, rng), psi
    g = generate("cycle", n=40)
    yield target_decay_weighting(g, [0], 1.0 - math.exp(-0.5)), random_subsets(g, 40, rng), 100.0


def test_lemma_audit_matches_the_set_valued_reference():
    most_blocks = 0
    for w, subsets, psi in reference_cases():
        reports = section3_lemma_audit(w, subsets, psi=psi)
        expected = reference_section3_audit(w, subsets, psi=psi)
        for got, want in zip(reports, expected, strict=True):
            assert got.skipped == want.skipped
            assert [c.name for c in got.checks] == [c.name for c in want.checks]
            for c, r in zip(got.checks, want.checks):
                assert (c.instances, c.failures, c.skipped) == (r.instances, r.failures, r.skipped)
                assert type(c.min_margin) is float
                assert c.min_margin == r.min_margin or abs(c.min_margin - r.min_margin) <= 1e-15 * abs(r.min_margin)
            if got.checks:
                most_blocks = max(most_blocks, got.checks[1].instances)
    assert most_blocks >= 3


def test_lemma_audit_searches_every_ball_in_one_bfs(monkeypatch):
    g = generate("random_regular", n=64, d=3, seed=5)
    subsets = random_subsets(g, 12, SplitMix64.stream(2, 0))
    columns, searches = [], []
    real_columns, real_from = graphs.bfs_columns, graphs.distances_from
    monkeypatch.setattr(robustness, "bfs_columns", lambda g, src: columns.append(src.shape) or real_columns(g, src))
    monkeypatch.setattr(graphs, "distances_from", lambda g, src: searches.append(src) or real_from(g, src))
    reports = section3_lemma_audit(uniform_weighting(g), subsets, psi=0.1)
    # one column per block; the one single-source search is is_bipartite's
    assert columns == [(64, sum(r.checks[1].instances for r in reports))]
    assert searches == [[0]]


def test_theorem31_builds_no_chain_above_the_spectral_guard(monkeypatch):
    built = []
    monkeypatch.setattr(robustness, "induced_chain", lambda w: built.append(w))
    report = theorem31_check(uniform_weighting(generate("random_regular", n=1024, d=3, seed=5)), psi=0.0287)
    assert built == []
    assert report.phi_skipped == "n=1024 exceeds exhaustive-conductance guard 24"
    assert report.gap_skipped == "n=1024 exceeds spectral guard 512"


def test_lemma_audit_holds_no_dense_matrix():
    # measured peak 1.74 MiB at n = 1024 (the dense 2K-step path took 40 MiB);
    # the bound, 6 MiB, is below one 1024 x 1024 float matrix (8 MiB)
    g = generate("random_regular", n=1024, d=3, seed=5)
    w = uniform_weighting(g)
    subsets = random_subsets(g, 20, SplitMix64.stream(1, 0))
    tracemalloc.start()
    try:
        reports = section3_lemma_audit(w, subsets, psi=0.0287)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.ok for r in reports)
    assert peak <= 6 << 20, peak


# --- endpoint checks ---------------------------------------------------------


def test_endpoint_complete_graph_passes_both_claims():
    g = generate("complete", n=4)
    report = theorem31_check(uniform_weighting(g))
    assert report.phi_skipped is None
    assert report.phi_ok and report.gap_ok
    assert report.ok
    assert report.phi_bound == pytest.approx(3.0 ** (-2 * report.K) / 4000.0)


def test_endpoint_bipartite_skips_conductance_claim():
    g = generate("cycle", n=4)
    report = theorem31_check(uniform_weighting(g))
    assert report.phi_skipped is not None
    assert "bipartite" in report.phi_skipped
    assert report.gap_ok
    assert report.ok


def test_endpoint_large_graph_skips_exhaustive_claim():
    g = generate("random_regular", n=64, d=3, seed=12)
    report = theorem31_check(uniform_weighting(g))
    assert report.phi_skipped is not None
    assert report.gap_ok


def test_random_subsets_draw_size_then_shuffle_prefix():
    # each set: a size 1 + randrange(max(1, n // 2)), then a shuffle's prefix
    for n, count in ((3, 3), (7, 5), (20, 9)):
        g = generate("cycle", n=n)
        rng, replay = SplitMix64.stream(5, 0), SplitMix64.stream(5, 0)
        expected = []
        for _ in range(count):
            size = 1 + replay.randrange(max(1, n // 2))
            verts = list(range(n))
            replay.shuffle(verts)
            expected.append(frozenset(verts[:size]))
        assert random_subsets(g, count, rng) == expected
        assert rng.counter == replay.counter


def test_endpoint_checks_exhaustive_conductance_up_to_its_guard():
    # n = 22 is beyond the old 20-vertex limit but within exact psi's reach
    g = generate("random_regular", n=22, d=3, seed=4)
    report = theorem31_check(uniform_weighting(g))
    assert report.phi_skipped is None
    assert report.phi_ok and report.phi_value >= report.phi_bound


def test_lemma_audit_skips_flow_check_on_bipartite_graph():
    # the odd side of the 3-cube: its 2K-step chain never reaches the even side
    g = generate("hypercube", dim=3)
    [report] = section3_lemma_audit(uniform_weighting(g), [frozenset({1, 2, 4, 7})])
    flow = next(c for c in report.checks if c.name == "flow_2K_to_complement_ge_scaled_mass")
    assert "bipartite" in flow.skipped and flow.instances == 0
    assert flow.to_json_dict()["skipped"] == flow.skipped
    assert report.ok
    assert all(c.instances > 0 for c in report.checks if c is not flow)


def test_endpoint_rejects_rough_weighting():
    # on a cycle the decay weighting halves per distance step, so adjacent
    # edges differ by a factor 2, far rougher than sigma allows
    g = generate("cycle", n=6)
    w = target_decay_weighting(g, [0], 0.5)
    with pytest.raises(GraphError):
        theorem31_check(w)


@pytest.mark.parametrize("claim", ["phi", "gap"])
@pytest.mark.parametrize("factor, ok", [(1 - 1e-9, False), (1.0, True), (1 + 1e-9, True)])
def test_endpoint_verdict_is_relative_to_its_bound(monkeypatch, claim, factor, ok):
    # rr(20, 3, 2) has phi_bound 5.8e-12 and gap_bound 5.4e-24; an absolute
    # slack of 1e-15 passed any value above bound - 1e-15, a gap of 0 included
    w = uniform_weighting(generate("random_regular", n=20, d=3, seed=2))
    value = getattr(theorem31_check(w), f"{claim}_bound") * factor
    if claim == "phi":
        monkeypatch.setattr(robustness, "edge_conductance_exact", lambda chain: (value, frozenset({0})))
    else:
        monkeypatch.setattr(robustness, "spectral_gap", lambda chain: SimpleNamespace(gap=value))
    report = theorem31_check(w)
    assert getattr(report, f"{claim}_ok") is ok and report.ok is ok


def test_endpoint_gap_bound_below_the_float_range_is_still_checked(monkeypatch):
    g = generate("cycle", n=40)
    psi = psi_lower_bound(g)
    report = theorem31_check(uniform_weighting(g), psi=psi)
    assert report.K == 326 and report.gap_bound == 0.0
    assert report.log_gap_bound == pytest.approx(math.log(1e-8) - 4 * 326 * math.log(2), rel=1e-15)
    assert report.gap_ok and report.gap_value > 0.01
    monkeypatch.setattr(robustness, "spectral_gap", lambda chain: SimpleNamespace(gap=0.0))
    assert theorem31_check(uniform_weighting(g), psi=psi).gap_ok is False


def test_psi_lower_bound_exact_and_spectral():
    g = generate("complete", n=4)
    assert psi_lower_bound(g) == 1.0
    big = generate("random_regular", n=64, d=3, seed=3)
    lb = psi_lower_bound(big)
    psi_true, _ = vertex_expansion_exact(generate("random_regular", n=20, d=3, seed=3))
    assert 0 < lb < 3


def test_psi_lower_bound_needs_a_regular_graph():
    # gap/2 bounds the vertex expansion of regular graphs only
    from walklab.graphs import build_graph

    chorded = build_graph([(i, (i + 1) % 30) for i in range(30)] + [(0, 15)], 30)
    with pytest.raises(GraphError):
        psi_lower_bound(chorded)


# --- distance-weighted bottleneck witness ------------------------------------


def test_bottleneck_witness_cycle40_beta2():
    g = generate("cycle", n=40)
    report = prop311_check(g, 2.0)
    assert report.diameter == 20
    assert report.bound == pytest.approx(40 * 2.0**-7)
    assert report.bound == pytest.approx(0.3125)
    assert report.conductance_at_witness <= report.bound + 1e-15
    assert report.ok


def test_bottleneck_witness_cycle40_beta4():
    g = generate("cycle", n=40)
    report = prop311_check(g, 4.0)
    assert report.bound == pytest.approx(40 * 4.0**-7)
    assert report.conductance_at_witness <= report.bound + 1e-15
    assert report.ok


def test_bottleneck_witness_requires_long_diameter():
    with pytest.raises(WeightingError, match="diameter >= 4"):
        prop311_check(generate("complete", n=5), 2.0)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("cycle", dict(n=40)),
        ("cycle", dict(n=200)),
        ("random_regular", dict(n=64, d=3, seed=5)),
        ("random_regular", dict(n=256, d=3, seed=5)),
        ("random_regular", dict(n=512, d=3, seed=5)),
        ("hypercube", dict(dim=8)),
        ("circulant", dict(n=60, offsets=(1, 7))),
    ],
)
def test_bottleneck_witness_matches_the_dense_flow(kind, params):
    # the slot sum adds the same products pi(x) P(x, y) as the dense slice, in another order
    g = generate(kind, **params)
    for beta in (1.5, 2.0, 4.0, 6.0):
        report = prop311_check(g, beta)
        chain = induced_chain(bottleneck_weighting(g, beta)[0])
        inside = np.zeros(g.n, dtype=bool)
        inside[list(report.witness)] = True
        flow = chain.pi[:, None] * chain.matrix
        dense = float(flow[np.ix_(inside, ~inside)].sum()) / float(chain.pi[inside].sum())
        assert abs(report.conductance_at_witness - dense) <= 1e-13 * dense, (g.n, beta)


def test_bottleneck_witness_reads_the_distance_matrix(monkeypatch):
    g = generate("cycle", n=40)
    assert g.distance_matrix.shape == (40, 40)
    searches = []
    real = graphs.distances_from
    monkeypatch.setattr(graphs, "distances_from", lambda *args: searches.append(args) or real(*args))
    report = prop311_check(g, 2.0)
    assert searches == []
    # the witness is the BFS ball of its endpoint
    assert report.witness == ball(g, [report.pair[0]], report.radius) == frozenset(range(10)) | set(range(31, 40))


def test_bottleneck_witness_builds_no_chain_above_the_spectral_guard(monkeypatch):
    built = []
    monkeypatch.setattr(robustness, "induced_chain", lambda w: built.append(w))
    report = prop311_check(generate("random_regular", n=1024, d=3, seed=5), 6.0)
    assert built == []
    assert report.ok

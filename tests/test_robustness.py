"""Bucket partition, representative blocks, and the robustness endpoint checks."""

import math

import pytest

from walklab.graphs import GraphError, generate, vertex_expansion_exact
from walklab.robustness import (
    ALPHA,
    bucket_index,
    bucket_partition,
    prop311_check,
    psi_lower_bound,
    representative_blocks_from_sizes,
    representative_indices,
    section3_K,
    section3_lemma_audit,
    section3_sigma,
    theorem31_check,
)
from walklab.rng import SplitMix64
from walklab.weighting import (
    induced_chain,
    random_lipschitz_weighting,
    target_decay_weighting,
    uniform_weighting,
)


# --- scale constants -------------------------------------------------------


def test_step_count_formula():
    assert section3_K(1.0) == math.ceil(2 / math.log(2))
    assert section3_K(0.5) == math.ceil(2 / math.log(1.5))
    assert section3_K(3.0) == 2


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
    part = bucket_partition(induced_chain(w))
    assert sorted(v for vs in part.buckets.values() for v in vs) == list(range(6))
    for i, vs in part.buckets.items():
        assert all(part.index_of[v] == i for v in vs)


def test_bucket_partition_uniform_single_bucket():
    g = generate("cycle", n=6)
    part = bucket_partition(induced_chain(uniform_weighting(g)))
    assert len(part.buckets) == 1


# --- representative blocks --------------------------------------------------


def test_block_recursion_on_reference_size_profile():
    # size profile with a hump, a dip, and a second rise (buckets 2..10); the
    # recursion keeps the first run while successors stay large, closes at the
    # small successor, skips the witness bucket, and restarts at the next
    # strict increase
    sizes = dict(zip(range(2, 11), (2, 12, 52, 70, 8, 5, 6, 32, 68)))
    assert representative_blocks_from_sizes(sizes, ALPHA) == [(2, 4), (8, 9)]


def test_block_recursion_single_growing_run():
    sizes = {1: 1, 2: 10, 3: 100}
    assert representative_blocks_from_sizes(sizes, ALPHA) == [(1, 3)]


def test_block_recursion_flat_profile_stops_after_first():
    sizes = {1: 8, 2: 8, 3: 8, 4: 8}
    # |S_2| <= (alpha/2)|S_1| immediately: the block is the single bucket 1,
    # bucket 2 is the witness, and no later bucket grows strictly
    assert representative_blocks_from_sizes(sizes, ALPHA) == [(1, 1)]


def test_block_recursion_respects_alpha_threshold():
    # with alpha/2 = 1 the run keeps extending while sizes strictly grow
    sizes = {1: 1, 2: 3, 3: 2}
    assert representative_blocks_from_sizes(sizes, 2.0) == [(1, 2)]


def test_representative_indices_on_chain():
    g = generate("cycle", n=16)
    w = target_decay_weighting(g, [0], 0.6)
    chain = induced_chain(w)
    part = bucket_partition(chain)
    subset = frozenset(range(8))
    decomp = representative_indices(subset, part)
    for a, b in decomp.pairs:
        assert a <= b
    assert all(v in subset for block in decomp.blocks for v in block)
    assert decomp.representatives <= subset


def test_subset_vertices_out_of_range_are_rejected():
    # 16 used to raise IndexError from the bucket lookup, and -1 silently
    # read the last vertex's bucket and came back inside a block
    g = generate("random_regular", n=16, d=3, seed=7)
    w = uniform_weighting(g)
    with pytest.raises(GraphError, match="vertex 16 out of range"):
        section3_lemma_audit(w, [{16}])
    part = bucket_partition(induced_chain(w))
    with pytest.raises(GraphError, match="vertex -1 out of range"):
        representative_indices({-1, 2}, part)


# --- lemma audits -----------------------------------------------------------


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


def test_lemma_audit_defaults_psi_to_the_endpoint_lower_bound():
    # above the 24-vertex expansion guard a missing psi is the spectral lower
    # bound, as in theorem31_check, not an exhaustive enumeration that refuses
    w = uniform_weighting(generate("random_regular", n=32, d=3, seed=7))
    [report] = section3_lemma_audit(w, [frozenset(range(4))])
    assert report.K == theorem31_check(w).K
    assert report.ok


def test_lemma_audit_requires_regular_graph():
    from walklab.graphs import build_graph

    path_plus = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4)
    with pytest.raises(GraphError):
        section3_lemma_audit(uniform_weighting(path_plus), [frozenset({0})])


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
    with pytest.raises(Exception):
        prop311_check(generate("complete", n=5), 2.0)

"""Acceptance suite: one test per criterion, exact tolerances as stated.

Each test prints a single PASS line with its measured numbers once its
assertions hold, so `pytest -v -rA` reads as a checklist.
"""

import math
import time
from fractions import Fraction

import numpy as np

from walklab.chains import CONDUCTANCE_GUARD, cheeger_audit, edge_conductance_exact
from walklab.cli import main as cli_main
from walklab.graphs import (
    build_graph,
    diameter,
    generate,
    is_bipartite,
    small_regular_catalog,
    vertex_expansion_exact,
)
from walklab.oracle import (
    EventKind,
    EventSpec,
    boost_bound_audit,
    conv_lemma_audit,
    eta_grid,
    event_prob_exact,
    majorizes,
    power_mean,
    robin_hood_pair,
    schur_audit,
)
from walklab.rng import SplitMix64
from walklab.robustness import (
    prop311_check,
    psi_lower_bound,
    section3_K,
    section3_lemma_audit,
    section3_sigma,
    theorem31_check,
)
from walklab.walks import WalkSpec, estimate_cover_time, extract_bias_matrix, stationary_boost_audit
from walklab.weighting import (
    bottleneck_weighting,
    induced_chain,
    lipschitz_beta,
    random_lipschitz_weighting,
    target_decay_weighting,
    uniform_weighting,
)


def generator_suite_14():
    """Every generator family, capped at 14 vertices."""
    out = {}
    for n in (4, 7, 10, 13, 14):
        out[f"cycle:{n}"] = generate("cycle", n=n)
    for n in (4, 8, 14):
        out[f"complete:{n}"] = generate("complete", n=n)
    for dim in (2, 3):
        out[f"hypercube:{dim}"] = generate("hypercube", dim=dim)
    out["circulant:8:1,2"] = generate("circulant", n=8, offsets=(1, 2))
    out["circulant:12:1,4"] = generate("circulant", n=12, offsets=(1, 4))
    out["random-regular:14:3:1"] = generate("random_regular", n=14, d=3, seed=1)
    out["random-regular:12:4:2"] = generate("random_regular", n=12, d=4, seed=2)
    out["random-regular:10:3:3"] = generate("random_regular", n=10, d=3, seed=3)
    return out


def weighting_family(g, seed):
    """The weighting families exercised by the audit criteria."""
    ws = {"uniform": uniform_weighting(g)}
    for i in (0, 1):
        ws[f"random-lipschitz-{i}"] = random_lipschitz_weighting(g, 2.0, SplitMix64.stream(seed, i))
    ws["target-decay"] = target_decay_weighting(g, [0], 0.3)
    if diameter(g)[0] >= 4:
        ws["bottleneck"], _ = bottleneck_weighting(g, 2.0)
    return ws


def test_criterion_01_cheeger_sandwich():
    start = time.time()
    checked = 0
    for name, g in generator_suite_14().items():
        for wname, w in weighting_family(g, seed=101).items():
            assert cheeger_audit(induced_chain(w), slack=1e-9), (name, wname)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"PASS criterion 1: Cheeger sandwich on {checked} (graph, weighting) pairs in {elapsed:.1f}s")


def test_criterion_02_expansion_sandwich():
    suite = {name: g for name, g in small_regular_catalog().items()}
    for n in (8, 10, 12):
        suite[f"cycle:{n}"] = generate("cycle", n=n)
    for n in (8, 12):
        suite[f"complete:{n}"] = generate("complete", n=n)
    suite["hypercube:3"] = generate("hypercube", dim=3)
    suite["circulant:10:1,2"] = generate("circulant", n=10, offsets=(1, 2))
    suite["circulant:12:1,5"] = generate("circulant", n=12, offsets=(1, 5))
    suite["random-regular:12:3:4"] = generate("random_regular", n=12, d=3, seed=4)
    suite["random-regular:10:4:5"] = generate("random_regular", n=10, d=4, seed=5)
    suite["random-regular:12:5:6"] = generate("random_regular", n=12, d=5, seed=6)
    count = 0
    for name, g in suite.items():
        if g.n > 12:
            continue
        d = g.regular_degree
        assert d is not None, name
        psi, _ = vertex_expansion_exact(g)
        phi, _ = edge_conductance_exact(induced_chain(uniform_weighting(g)))
        assert psi / d - 1e-12 <= phi <= psi + 1e-12, (name, psi, phi)
        count += 1
    print(f"PASS criterion 2: expansion sandwich on {count} regular graphs, zero violations")


def test_criterion_03_stationary_ratio_bound():
    from walklab.weighting import stationary_ratio_audit

    g = generate("random_regular", n=16, d=3, seed=7)
    dia = diameter(g)[0]
    for index in range(200):
        w = random_lipschitz_weighting(g, 2.0, SplitMix64.stream(300, index))
        for k in range(1, dia + 1):
            assert stationary_ratio_audit(w, k), (index, k)
    print(f"PASS criterion 3: stationary ratio bound, 200 weightings x k<=D={dia}, zero violations")


def test_criterion_04_bias_decomposition():
    rng = SplitMix64(404)
    worst_recon = 0.0
    worst_entry = 0.0
    for index in range(100):
        n = (8, 12, 16, 20, 24)[rng.randrange(5)]
        d = 3 + rng.randrange(2)
        g = generate("random_regular", n=n, d=d, seed=1000 + index)
        size = 1 + rng.randrange(n // 2)
        verts = list(range(n))
        rng.shuffle(verts)
        targets = verts[:size]
        eps = 0.02 + 0.96 * rng.next_float()
        q = induced_chain(target_decay_weighting(g, targets, eps))
        b = extract_bias_matrix(q, g, eps)
        worst_entry = min(worst_entry, float(b.min()))
        p = np.zeros((n, n))
        for v in range(n):
            p[v, list(g.adj[v])] = 1.0 / len(g.adj[v])
        recon = float(np.max(np.abs((1 - eps) * p + eps * b - q.matrix)))
        worst_recon = max(worst_recon, recon)
        assert float(b.min()) >= -1e-12 and recon <= 1e-12, index
    print(
        "PASS criterion 4: bias decomposition on 100 instances, "
        f"min entry {worst_entry:.2e} >= -1e-12, max reconstruction error {worst_recon:.2e} <= 1e-12"
    )


def test_criterion_05_stationary_boost():
    audits = 0
    for n, gseed in ((64, 11), (256, 12)):
        g = generate("random_regular", n=n, d=3, seed=gseed)
        for usize in (1, 4, 16):
            for theta in (0.0, 0.1, 0.2, 1.0 / 3.0):
                for rep in range(2):
                    rng = SplitMix64.stream(500 + n, usize * 100 + rep)
                    verts = list(range(n))
                    rng.shuffle(verts)
                    report = stationary_boost_audit(g, verts[:usize], theta)
                    assert report.failures == 0, (n, usize, theta, rep)
                    audits += 1
    print(f"PASS criterion 5: stationary boost bound, {audits} (n, U, theta) audits, every target passed")


def test_criterion_06_representative_lemma_audits():
    g = generate("random_regular", n=16, d=3, seed=7)
    psi, _ = vertex_expansion_exact(g)
    K = section3_K(psi)
    sigma = section3_sigma(K)
    theta = 1.0 - math.exp(-1.0 / (2.0 * K))
    weightings = [
        random_lipschitz_weighting(g, sigma, SplitMix64.stream(600, i)) for i in range(2)
    ] + [target_decay_weighting(g, [0, 5], theta)]
    rng = SplitMix64(601)
    audited = 0
    for w in weightings:
        assert lipschitz_beta(w) <= sigma * (1 + 1e-12)
        subsets = []
        for _ in range(34):
            size = 1 + rng.randrange(8)
            verts = list(range(16))
            rng.shuffle(verts)
            subsets.append(frozenset(verts[:size]))
        for subset, report in zip(subsets, section3_lemma_audit(w, subsets, psi=psi)):
            assert report.skipped is None
            assert report.ok, sorted(subset)
            audited += 1
    print(f"PASS criterion 6: representative-set lemma audits, {audited} random subsets, zero failures")


def test_criterion_07_gap_endpoint():
    cases = [
        ("octahedron", small_regular_catalog()["octahedron"]),
        ("complete:6", generate("complete", n=6)),
        ("random-regular:16:3:7", generate("random_regular", n=16, d=3, seed=7)),
        ("random-regular:20:3:2", generate("random_regular", n=20, d=3, seed=2)),
        ("random-regular:64:3:5", generate("random_regular", n=64, d=3, seed=5)),
        ("random-regular:256:3:5", generate("random_regular", n=256, d=3, seed=5)),
    ]
    phi_checked = 0
    gap_checked = 0
    for name, g in cases:
        psi = psi_lower_bound(g)
        sigma = section3_sigma(section3_K(psi))
        count = 1 if g.n > 64 else 2
        weightings = [uniform_weighting(g)] + [
            random_lipschitz_weighting(g, sigma, SplitMix64.stream(700, i)) for i in range(count)
        ]
        for w in weightings:
            report = theorem31_check(w, psi=psi)
            assert report.ok, name
            if report.phi_ok is not None:
                assert report.phi_ok and report.phi_value >= report.phi_bound
                phi_checked += 1
            if report.gap_ok is not None:
                assert report.gap_ok and report.gap_value >= report.gap_bound
                gap_checked += 1
            if g.n <= CONDUCTANCE_GUARD and not is_bipartite(g):
                assert report.phi_skipped is None
    assert phi_checked > 0 and gap_checked > 0
    print(
        f"PASS criterion 7: endpoint bounds, {phi_checked} exhaustive conductance checks and "
        f"{gap_checked} gap checks, zero failures"
    )


def test_criterion_08_bottleneck_witness():
    g = generate("cycle", n=40)
    report2 = prop311_check(g, 2.0)
    assert abs(report2.bound - 0.3125) < 1e-12
    assert report2.conductance_at_witness <= report2.bound + 1e-15
    report4 = prop311_check(g, 4.0)
    assert abs(report4.bound - 40.0 * 4.0**-7) < 1e-12
    assert report4.conductance_at_witness <= report4.bound + 1e-15
    print(
        "PASS criterion 8: bottleneck witness on the 40-cycle, "
        f"beta=2: {report2.conductance_at_witness:.3e} <= 0.3125, "
        f"beta=4: {report4.conductance_at_witness:.3e} <= {report4.bound:.3e}"
    )


def test_criterion_09_boost_bound_sweep(capsys):
    start = time.time()
    code = cli_main(["lemma-sweep", "--nmax", "6", "--tmax", "5", "--draws", "10000", "--seed", "900"])
    out = capsys.readouterr().out
    assert code == 0
    import json

    payload = json.loads(out)
    assert payload["failures"] == 0 and payload["conv_failures"] == 0
    # generator outputs beyond the stored catalog
    extra_checked = 0
    for g in (generate("hypercube", dim=2), generate("circulant", n=6, offsets=(1, 2))):
        d = g.regular_degree
        for t in (1, 3, 5):
            for eps in (0.0, 0.05, 1.0 / d**2):
                for eta in eta_grid(d):
                    event = EventSpec(EventKind.COVER_ALL, t)
                    assert boost_bound_audit(g, 0, event, eps, eta).ok
                    extra_checked += 1
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(
        f"PASS criterion 9: boost-bound sweep, {payload['queries']} catalog queries + "
        f"{extra_checked} generator queries + 10000 one-step draws, zero violations, {elapsed:.1f}s"
    )


def test_criterion_10_exact_figure_anchors():
    g = build_graph([(0, 1), (0, 4), (0, 2), (2, 3), (2, 5), (1, 3), (5, 4)], 6)
    hit_far = lambda t: EventSpec(EventKind.HIT_ANY, t, frozenset({5}))
    assert event_prob_exact(g, 0, hit_far(2)) == Fraction(5, 18)
    third = Fraction(1, 3)
    assert event_prob_exact(g, 4, hit_far(1), third) == Fraction(2, 3)
    assert event_prob_exact(g, 2, hit_far(1), third) == Fraction(5, 9)
    root = event_prob_exact(g, 0, hit_far(2), third)
    assert root == Fraction(40, 81)  # regression pin of the DP root value
    print("PASS criterion 10: figure anchors exact: p=5/18, children 2/3 and 5/9, root pinned 40/81")


def test_criterion_11_cover_time_anchors():
    c64 = estimate_cover_time(generate("cycle", n=64), WalkSpec(kind="srw"), trials=10_000, seed=1107)
    assert abs(c64.mean - 2016.0) / 2016.0 < 0.05
    k4 = estimate_cover_time(generate("complete", n=4), WalkSpec(kind="srw"), trials=10_000, seed=1104)
    assert abs(k4.mean - 5.5) / 5.5 < 0.05
    big = generate("random_regular", n=512, d=3, seed=11)
    srw = estimate_cover_time(big, WalkSpec(kind="srw"), trials=200, seed=20260818)
    phase = estimate_cover_time(big, WalkSpec(kind="phase", eps=0.25), trials=200, seed=20260818)
    assert phase.mean < srw.mean
    assert phase.ci95[1] < srw.ci95[0], (phase.ci95, srw.ci95)
    print(
        "PASS criterion 11: cover anchors: cycle-64 mean "
        f"{c64.mean:.1f} (within 5% of 2016), complete-4 mean {k4.mean:.3f} (within 5% of 5.5), "
        f"phase CI ({phase.ci95[0]:.0f}, {phase.ci95[1]:.0f}) below plain-walk CI "
        f"({srw.ci95[0]:.0f}, {srw.ci95[1]:.0f})"
    )


def test_criterion_12_schur_convexity():
    rng = SplitMix64(1212)
    rs = (1, 1.5, 2, 4, math.inf)
    for index in range(10_000):
        length = 2 + rng.randrange(9)
        x, y = robin_hood_pair(rng, length)
        assert majorizes(x, y), index
        for r in rs:
            assert power_mean(r, x) >= power_mean(r, y) - 1e-9 * max(1.0, power_mean(r, y)), (index, r)
            assert schur_audit(r, x, y)
    print("PASS criterion 12: Schur convexity on 10000 constructed pairs x 5 exponents, zero violations")

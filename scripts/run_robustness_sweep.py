#!/usr/bin/env python3
"""Sweep random Lipschitz weightings and report how much slack each bound has.

For one regular graph this draws weightings at the graph's own smoothness
budget sigma = exp(1/(2K)), runs the endpoint check (conductance of the
2K-step power and the spectral gap) on each, and audits the representative
set lemmas on random subsets.  Weighting i draws from the stream
SplitMix64.stream(seed, i); the subset sampler draws from the stream at index
2**64 - 1 (SUBSET_STREAM), which no weighting index reaches, so the subsets
are independent of every weighting.  Example:

    PYTHONPATH=src python3 scripts/run_robustness_sweep.py --generate random-regular:16:3:7 \
        --weightings 20 --subsets 50 --seed 42
"""

import argparse

from walklab.graphs import parse_generate_spec, read_graph_file
from walklab.rng import MASK64, SplitMix64
from walklab.robustness import (
    psi_lower_bound,
    section3_K,
    section3_lemma_audit,
    section3_sigma,
    theorem31_check,
)
from walklab.weighting import random_lipschitz_weighting

SUBSET_STREAM = MASK64


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="edge-list file")
    src.add_argument("--generate", help="generator spec, e.g. random-regular:16:3:7")
    ap.add_argument("--weightings", type=int, default=20)
    ap.add_argument("--subsets", type=int, default=50, help="random subsets per weighting for the lemma audit")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    g = read_graph_file(args.graph) if args.graph else parse_generate_spec(args.generate)
    psi = psi_lower_bound(g)
    K = section3_K(psi)
    sigma = section3_sigma(K)
    print(f"graph: n={g.n} d={g.regular_degree} psi={psi:.4f} K={K} sigma={sigma:.6f}")

    rng = SplitMix64.stream(args.seed, SUBSET_STREAM)
    failures = 0
    audited = 0
    for i in range(args.weightings):
        w = random_lipschitz_weighting(g, sigma, SplitMix64.stream(args.seed, i))
        report = theorem31_check(w, psi=psi)
        gap_margin = report.gap_value / report.gap_bound if report.gap_ok is not None else float("nan")
        phi_note = (
            f"phi {report.phi_value:.4f} >= {report.phi_bound:.3e}"
            if report.phi_ok is not None
            else f"phi skipped ({report.phi_skipped})"
        )
        print(
            f"weighting {i:>3}: beta={report.beta:.6f} ok={report.ok} "
            f"gap={report.gap_value:.4f} (x{gap_margin:.2e} above bound), {phi_note}"
        )
        failures += 0 if report.ok else 1
        subsets = []
        for _ in range(args.subsets):
            size = 1 + rng.randrange(max(1, g.n // 2))
            verts = list(range(g.n))
            rng.shuffle(verts)
            subsets.append(frozenset(verts[:size]))
        for subset, sub in zip(subsets, section3_lemma_audit(w, subsets, psi=psi)):
            if sub.skipped is None:
                audited += 1
                if not sub.ok:
                    failures += 1
                    worst = min(sub.checks, key=lambda c: c.min_margin)
                    print(f"  subset audit FAILED: {sorted(subset)} worst check {worst.name}")
    print(f"done: {args.weightings} weightings, {audited} subset audits, {failures} failures")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

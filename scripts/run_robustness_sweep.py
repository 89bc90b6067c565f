#!/usr/bin/env python3
"""Sweep random Lipschitz weightings and report how much slack each bound has.

For one regular graph this draws weightings at the graph's own smoothness
budget sigma = exp(1/(2K)), runs the endpoint check (conductance of the
2K-step power and the spectral gap) on each, and audits the representative
set lemmas on random subsets.  Weighting i draws from the stream
SplitMix64.stream(seed, i); the subset sampler draws from the stream at index
2**64 - 1 (SUBSET_STREAM), which no weighting index reaches, so the subsets
are independent of every weighting.  The exit code is 0 when every check
passes, 1 when one fails, and 2 on bad input, which prints one `error:` line.
Example:

    PYTHONPATH=src python3 scripts/run_robustness_sweep.py --generate random-regular:16:3:7 \
        --weightings 20 --subsets 50 --seed 42
"""

import argparse
import math
import sys

from walklab.graphs import WalklabError, parse_generate_spec, read_graph_file
from walklab.rng import SplitMix64
from walklab.robustness import (
    psi_lower_bound,
    random_subsets,
    section3_K,
    section3_lemma_audit,
    section3_sigma,
    theorem31_check,
)
from walklab.weighting import random_lipschitz_weighting

SUBSET_STREAM = 2**64 - 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="edge-list file")
    src.add_argument("--generate", help="generator spec, e.g. random-regular:16:3:7")
    ap.add_argument("--weightings", type=int, default=20)
    ap.add_argument("--subsets", type=int, default=50, help="random subsets per weighting for the lemma audit")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    try:
        return sweep(args)
    except WalklabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def sweep(args) -> int:
    """Print one line per weighting and a closing count; 1 if any check failed."""
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
        # the margin in decades, from logarithms: on long cycles gap_bound underflows to 0.0
        gap_margin = math.nan
        if report.gap_value:
            gap_margin = (math.log(report.gap_value) - report.log_gap_bound) / math.log(10)
        phi_note = (
            f"phi {report.phi_value:.4f} >= {report.phi_bound:.3e}"
            if report.phi_ok is not None
            else f"phi skipped ({report.phi_skipped})"
        )
        print(
            f"weighting {i:>3}: beta={report.beta:.6f} ok={report.ok} "
            f"gap={report.gap_value:.4f} (10^{gap_margin:.1f} x bound), {phi_note}"
        )
        failures += 0 if report.ok else 1
        subsets = random_subsets(g, args.subsets, rng)
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

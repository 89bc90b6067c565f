#!/usr/bin/env python3
"""Compare cover times of the plain walk against biased strategies.

Runs paired Monte Carlo estimates (same per-trial seed streams) for each
requested walk kind on one graph and prints a small table with 95%
confidence intervals.  Bad input prints one `error:` line and exits 2.
Example:

    PYTHONPATH=src python3 scripts/run_cover_experiment.py --generate random-regular:512:3:11 \
        --kinds srw,phase --eps 0.25 --trials 200 --seed 20260818
"""

import argparse
import sys

from walklab.graphs import WalklabError, parse_generate_spec, read_graph_file
from walklab.walks import WALK_KINDS, WalkSpec, estimate_cover_time


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="edge-list file")
    src.add_argument("--generate", help="generator spec, e.g. cycle:64 or random-regular:512:3:11")
    ap.add_argument("--kinds", default="srw,phase", help=f"comma-separated walk kinds: {', '.join(WALK_KINDS)}")
    ap.add_argument("--eps", type=float, default=0.25, help="bias strength for non-srw kinds")
    ap.add_argument("--psi", type=float, default=None, help="expansion estimate for the phase schedule")
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    kinds = [kind.strip() for kind in args.kinds.split(",")]
    unknown = [kind for kind in kinds if kind not in WALK_KINDS]
    if unknown:
        ap.error(f"unknown walk kinds {', '.join(map(repr, unknown))}; choose from {', '.join(WALK_KINDS)}")
    try:
        return compare(args, kinds)
    except WalklabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def compare(args, kinds: list[str]) -> int:
    """Print the cover-time table of `kinds` and each kind's ratio to srw."""
    g = read_graph_file(args.graph) if args.graph else parse_generate_spec(args.generate)
    print(f"graph: n={g.n} m={g.m} regular_degree={g.regular_degree}")
    print(f"{'kind':<8} {'eps':>6} {'mean':>10} {'stddev':>10} {'ci95':>24}")
    results = {}
    for kind in kinds:
        eps = 0.0 if kind == "srw" else args.eps
        spec = WalkSpec(kind=kind, eps=eps, psi=args.psi)
        est = estimate_cover_time(g, spec, trials=args.trials, seed=args.seed)
        results[kind] = est
        lo, hi = est.ci95
        print(f"{kind:<8} {eps:>6.3f} {est.mean:>10.1f} {est.stddev:>10.1f} {f'({lo:.1f}, {hi:.1f})':>24}")
    if "srw" in results and len(results) > 1:
        base = results["srw"]
        for kind, est in results.items():
            if kind == "srw":
                continue
            sep = "separated" if est.ci95[1] < base.ci95[0] or base.ci95[1] < est.ci95[0] else "overlapping"
            print(f"{kind} vs srw: mean ratio {est.mean / base.mean:.3f}, CIs {sep}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

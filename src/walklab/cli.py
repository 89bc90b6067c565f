"""Batch experiment front-end.

One process per invocation, one subcommand per run:

    spectral          eigenvalue/gap/conductance report for a weighted graph
    lipschitz-audit   stationary ratio bounds over random Lipschitz weightings
    robustness-audit  bucket/representative lemma checks plus the gap endpoint
    cover-sim         Monte Carlo cover times (results.csv + summary.json)
    boost-audit       exact DP bounds for one biased-walk event query
    lemma-sweep       grid audit of the boost bounds over the small catalog

Exit codes: 0 success, 1 an audit found a violation, 2 bad input (malformed
flags, config, graph, or weighting files).  Every randomized subcommand
requires --seed; identical configuration and seed give byte-identical output
files once --no-timestamp is passed.

Flags can also come from a key=value config file (--config); explicit flags
win over file values.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import graphs as graphmod
from .chains import CONDUCTANCE_GUARD, ChainError, SpectralReport, edge_conductance_exact, spectral_gap
from .graphs import Graph, GraphError, GuardError
from .oracle import (
    EventKind,
    EventSpec,
    OracleError,
    boost_bound_audit,
    boost_bound_grid,
    conv_lemma_audit,
    eta_grid,
    parse_event_text,
)
from .rng import SplitMix64
from .robustness import psi_lower_bound, section3_lemma_audit, theorem31_check
from .walks import WALK_KINDS, WalkError, WalkSpec, estimate_cover_time
from .weighting import (
    EdgeWeighting,
    WeightingError,
    induced_chain,
    lipschitz_beta,
    random_lipschitz_weighting,
    read_weighting_file,
    stationary_ratio_audit,
    uniform_weighting,
)

__all__ = ["main"]


class InputError(ValueError):
    """Anything wrong with flags, config files, or input files."""


# ---------------------------------------------------------------------------
# config plumbing


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _coerce(text: str, kind: type) -> object:
    if kind is bool:
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise InputError(f"expected a boolean, got {text!r}")
    try:
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
    except ValueError as exc:
        raise InputError(f"expected {kind.__name__}, got {text!r}") from exc
    return text


def _merge_config(
    args: argparse.Namespace,
    defaults: dict[str, object],
    types: dict[str, type] | None = None,
) -> argparse.Namespace:
    """Fill unset flags from the config file, then from defaults.

    `types` pins the coercion for keys whose default is None; other keys
    coerce to their default's type.
    """
    config = _read_config_file(args.config) if getattr(args, "config", None) else {}
    types = types or {}
    for key, default in defaults.items():
        if getattr(args, key, None) is not None:
            continue
        if key in config:
            kind = types.get(key, type(default) if default is not None else str)
            setattr(args, key, _coerce(config[key], kind))
        else:
            setattr(args, key, default)
    unknown = set(config) - set(defaults) - {"config"}
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return args


def _require_nonnegative(args: argparse.Namespace, *names: str) -> None:
    """Work counts (weightings, subsets, draws, horizons) must not be negative."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 0:
            raise InputError(f"--{name.replace('_', '-')} must be >= 0, got {value}")


# ---------------------------------------------------------------------------
# input loading


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "graph", None) and getattr(args, "generate", None):
        raise InputError("give either --graph or --generate, not both")
    if getattr(args, "graph", None):
        return graphmod.read_graph_file(args.graph)
    if getattr(args, "generate", None):
        return graphmod.parse_generate_spec(args.generate)
    raise InputError("a graph is required: pass --graph FILE or --generate SPEC")


def _load_weighting(g: Graph, args: argparse.Namespace) -> EdgeWeighting:
    if getattr(args, "weights", None):
        return read_weighting_file(args.weights, g)
    return uniform_weighting(g)


# ---------------------------------------------------------------------------
# output plumbing


def _timestamp_line() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_json(path: Path, payload: dict, stamp: bool) -> None:
    if stamp:
        payload = {"timestamp": _timestamp_line(), **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_jsonl(path: Path, rows: list[dict], stamp: bool) -> None:
    with path.open("w") as fh:
        if stamp:
            fh.write(json.dumps({"timestamp": _timestamp_line()}) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _out_dir(args: argparse.Namespace) -> Path | None:
    if getattr(args, "out", None) is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit_summary(args: argparse.Namespace, payload: dict) -> None:
    out = _out_dir(args)
    stamp = not bool(getattr(args, "no_timestamp", False))
    if out is not None:
        _write_json(out / "summary.json", payload, stamp)
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectral(args: argparse.Namespace) -> int:
    args = _merge_config(args, {"graph": None, "generate": None, "weights": None, "out": None, "no_timestamp": False})
    g = _load_graph(args)
    w = _load_weighting(g, args)
    chain = induced_chain(g, w)
    report: SpectralReport = spectral_gap(chain)
    if g.n <= CONDUCTANCE_GUARD:
        phi, argmin = edge_conductance_exact(chain)
        payload = report.to_json_dict(phi=phi, phi_argmin=sorted(argmin))
    else:
        payload = report.to_json_dict(phi=None, phi_argmin=None)
    _emit_summary(args, payload)
    return 0


def _cmd_lipschitz_audit(args: argparse.Namespace) -> int:
    args = _merge_config(
        args,
        {
            "graph": None,
            "generate": None,
            "sigma": 2.0,
            "count": 50,
            "kmax": None,
            "assert_beta_max": None,
            "seed": None,
            "out": None,
            "no_timestamp": False,
        },
        types={"kmax": int, "assert_beta_max": float, "seed": int},
    )
    if args.seed is None:
        raise InputError("--seed is required")
    if not (args.sigma >= 1.0 and math.isfinite(args.sigma)):
        raise InputError("--sigma must be finite and >= 1")
    _require_nonnegative(args, "count", "kmax")
    g = _load_graph(args)
    dia, _ = graphmod.diameter(g)
    kmax = args.kmax if args.kmax is not None else dia
    rows = []
    failures = 0
    max_beta = 0.0
    for index in range(args.count):
        rng = SplitMix64.stream(args.seed, index)
        w = random_lipschitz_weighting(g, args.sigma, rng)
        beta = lipschitz_beta(g, w)
        max_beta = max(max_beta, beta)
        ok = all(stationary_ratio_audit(g, w, k) for k in range(1, kmax + 1))
        if args.assert_beta_max is not None and beta > args.assert_beta_max:
            ok = False
        if not ok:
            failures += 1
        rows.append({"weighting_index": index, "beta": beta, "ok": ok})
    out = _out_dir(args)
    stamp = not args.no_timestamp
    if out is not None:
        _write_jsonl(out / "audit.jsonl", rows, stamp)
    payload = {
        "count": args.count,
        "failures": failures,
        "max_beta": max_beta,
        "sigma": args.sigma,
        "kmax": kmax,
        "seed": args.seed,
    }
    _emit_summary(args, payload)
    return 1 if failures else 0


def _cmd_robustness_audit(args: argparse.Namespace) -> int:
    args = _merge_config(
        args,
        {
            "graph": None,
            "generate": None,
            "sigma": None,
            "subsets": 50,
            "seed": None,
            "out": None,
            "no_timestamp": False,
        },
        types={"sigma": float, "seed": int},
    )
    if args.seed is None:
        raise InputError("--seed is required")
    _require_nonnegative(args, "subsets")
    g = _load_graph(args)
    rng = SplitMix64.stream(args.seed, 0)
    if args.sigma is None:
        w = uniform_weighting(g)
    else:
        w = random_lipschitz_weighting(g, args.sigma, rng)
    psi = psi_lower_bound(g)
    rows = []
    failures = 0
    for index in range(args.subsets):
        size = 1 + rng.randrange(max(1, g.n // 2))
        verts = list(range(g.n))
        rng.shuffle(verts)
        subset = frozenset(verts[:size])
        report = section3_lemma_audit(g, w, subset, psi=psi)
        ok = bool(report)
        if not ok:
            failures += 1
        rows.append(
            {
                "subset_index": index,
                "subset": sorted(subset),
                "skipped": report.skipped,
                "checks": [c.to_json_dict() for c in report.checks],
                "ok": ok,
            }
        )
    endpoint = theorem31_check(g, w, psi=psi)
    if not endpoint.ok:
        failures += 1
    out = _out_dir(args)
    stamp = not args.no_timestamp
    if out is not None:
        _write_jsonl(out / "audit.jsonl", rows, stamp)
    payload = {
        "subsets": args.subsets,
        "failures": failures,
        "K": endpoint.K,
        "beta": endpoint.beta,
        "phi_bound": endpoint.phi_bound,
        "phi_value": endpoint.phi_value,
        "phi_skipped": endpoint.phi_skipped,
        "gap_bound": endpoint.gap_bound,
        "gap_value": endpoint.gap_value,
        "gap_skipped": endpoint.gap_skipped,
        "seed": args.seed,
    }
    _emit_summary(args, payload)
    return 1 if failures else 0


def _cmd_cover_sim(args: argparse.Namespace) -> int:
    args = _merge_config(
        args,
        {
            "graph": None,
            "generate": None,
            "walk": "srw",
            "eps": 0.0,
            "psi": None,
            "start": None,
            "trials": 100,
            "seed": None,
            "out": None,
            "no_timestamp": False,
        },
        types={"psi": float, "start": int, "seed": int},
    )
    if args.seed is None:
        raise InputError("--seed is required")
    if args.walk not in WALK_KINDS:
        raise InputError(f"unknown walk kind {args.walk!r}")
    if args.trials < 2:
        raise InputError("--trials must be at least 2")
    g = _load_graph(args)
    spec = WalkSpec(kind=args.walk, eps=args.eps, start=args.start, psi=args.psi)
    estimate = estimate_cover_time(g, spec, trials=args.trials, seed=args.seed)
    out = _out_dir(args)
    stamp = not args.no_timestamp
    if out is not None:
        with (out / "results.csv").open("w", newline="") as fh:
            if stamp:
                fh.write(f"# generated {_timestamp_line()}\n")
            writer = csv.writer(fh)
            writer.writerow(["trial", "start_vertex", "steps", "walk_kind", "eps", "seed"])
            for row in estimate.rows:
                writer.writerow([row.trial, row.start_vertex, row.steps, args.walk, args.eps, args.seed])
    payload = {
        "mean": estimate.mean,
        "stddev": estimate.stddev,
        "ci95_lo": estimate.ci95[0],
        "ci95_hi": estimate.ci95[1],
        "trials": estimate.trials,
        "walk_kind": args.walk,
        "eps": args.eps,
        "seed": args.seed,
    }
    _emit_summary(args, payload)
    return 0


def _cmd_boost_audit(args: argparse.Namespace) -> int:
    args = _merge_config(
        args,
        {
            "graph": None,
            "generate": None,
            "event": None,
            "t": None,
            "eps": 0.0,
            "eta": 1.0,
            "start": 0,
            "out": None,
            "no_timestamp": False,
        },
        types={"t": int},
    )
    if args.event is None or args.t is None:
        raise InputError("--event and --t are required")
    g = _load_graph(args)
    event = parse_event_text(args.event, args.t)
    report = boost_bound_audit(g, args.start, event, args.eps, args.eta)
    payload = report.to_json_dict(graph_id=args.generate or args.graph)
    payload["ok"] = report.ok
    _emit_summary(args, payload)
    return 0 if report.ok else 1


def _sweep_events(g: Graph, tmax: int) -> list[EventSpec]:
    events = []
    verts = range(g.n)
    for t in range(1, tmax + 1):
        for a in verts:
            events.append(EventSpec(EventKind.HIT_ALL, t, frozenset({a})))
            for b in verts:
                if b > a:
                    events.append(EventSpec(EventKind.HIT_ALL, t, frozenset({a, b})))
        events.append(EventSpec(EventKind.COVER_ALL, t))
    return events


def _cmd_lemma_sweep(args: argparse.Namespace) -> int:
    args = _merge_config(
        args,
        {
            "nmax": 6,
            "tmax": 5,
            "draws": 10000,
            "seed": None,
            "out": None,
            "no_timestamp": False,
        },
        types={"seed": int},
    )
    if args.seed is None:
        raise InputError("--seed is required")
    _require_nonnegative(args, "nmax", "tmax", "draws")
    catalog = {name: g for name, g in graphmod.small_regular_catalog().items() if g.n <= args.nmax}
    rows: list[dict] = []
    failures = 0
    for name, g in sorted(catalog.items()):
        d = g.regular_degree
        reports = boost_bound_grid(g, 0, _sweep_events(g, args.tmax), (0.0, 0.05, 1.0 / d**2), eta_grid(d))
        for report in reports:
            rows.append(report.to_json_dict(graph_id=name))
            if not report.ok:
                failures += 1

    conv_failures = 0
    rng = SplitMix64.stream(args.seed, 0)
    for _ in range(args.draws):
        d = 3 + rng.randrange(4)
        raw = [rng.next_float() for _ in range(d)]
        total = sum(raw)
        b = [x / total for x in raw]
        v = [rng.next_float() for _ in range(d)]
        eta = (0.25, 0.5, 1.0)[rng.randrange(3)]
        eps = rng.next_float() / d ** (2.0 * eta)
        if not conv_lemma_audit(d, eps, eta, v, b):
            conv_failures += 1
    failures += conv_failures

    out = _out_dir(args)
    stamp = not args.no_timestamp
    if out is not None:
        _write_jsonl(out / "audit.jsonl", rows, stamp)
    payload = {
        "queries": len(rows),
        "failures": failures - conv_failures,
        "conv_draws": args.draws,
        "conv_failures": conv_failures,
        "seed": args.seed,
    }
    _emit_summary(args, payload)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser, *, graph: bool = True) -> None:
    if graph:
        parser.add_argument("--graph", help="graph file (header 'n m', then one 'u v' per line)")
        parser.add_argument(
            "--generate",
            help="generator spec: cycle:N, complete:N, hypercube:DIM, "
            "circulant:N:O1,O2, random-regular:N:D:SEED",
        )
    parser.add_argument("--config", help="key=value config file; explicit flags win")
    parser.add_argument("--out", help="directory for results.csv / summary.json / audit.jsonl")
    parser.add_argument(
        "--no-timestamp",
        dest="no_timestamp",
        action="store_const",
        const=True,
        help="omit timestamps so identical runs are byte-identical",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="walklab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectral", help="eigenvalues, gap, conductance of a weighted graph")
    _add_common(p)
    p.add_argument("--weights", help="weighting file ('u v weight' per edge)")
    p.set_defaults(handler=_cmd_spectral)

    p = sub.add_parser("lipschitz-audit", help="stationary ratio bounds for random weightings")
    _add_common(p)
    p.add_argument("--sigma", type=float, help="Lipschitz budget (>= 1)")
    p.add_argument("--count", type=int, help="number of random weightings")
    p.add_argument("--kmax", type=int, help="largest distance to audit (default: diameter)")
    p.add_argument("--assert-beta-max", dest="assert_beta_max", type=float,
                   help="fail any weighting whose Lipschitz constant exceeds this")
    p.add_argument("--seed", type=int, help="stream seed (required)")
    p.set_defaults(handler=_cmd_lipschitz_audit)

    p = sub.add_parser("robustness-audit", help="bucket/representative lemma checks + gap endpoint")
    _add_common(p)
    p.add_argument("--sigma", type=float, help="random weighting budget; omit for uniform weights")
    p.add_argument("--subsets", type=int, help="number of random subsets to audit")
    p.add_argument("--seed", type=int, help="stream seed (required)")
    p.set_defaults(handler=_cmd_robustness_audit)

    p = sub.add_parser("cover-sim", help="Monte Carlo cover-time estimation")
    _add_common(p)
    p.add_argument("--walk", help=" | ".join(WALK_KINDS))
    p.add_argument("--eps", type=float, help="bias probability per step")
    p.add_argument("--psi", type=float, help="expansion value for the phase strategy")
    p.add_argument("--start", type=int, help="fixed start vertex (default: round-robin when n <= 64)")
    p.add_argument("--trials", type=int, help="number of independent trials")
    p.add_argument("--seed", type=int, help="stream seed (required)")
    p.set_defaults(handler=_cmd_cover_sim)

    p = sub.add_parser("boost-audit", help="exact DP check of the event-boost bounds")
    _add_common(p)
    p.add_argument("--event", help="hit:V | hitall:V1,V2 | hitany:V1,V2 | cover | return")
    p.add_argument("--t", type=int, help="event horizon")
    p.add_argument("--eps", type=float, help="bias probability")
    p.add_argument("--eta", type=float, help="exponent for the root bound (0 < eta <= 1)")
    p.add_argument("--start", type=int, help="start vertex")
    p.set_defaults(handler=_cmd_boost_audit)

    p = sub.add_parser("lemma-sweep", help="boost-bound grid over the small graph catalog")
    _add_common(p, graph=False)
    p.add_argument("--nmax", type=int, help="largest catalog graph to include")
    p.add_argument("--tmax", type=int, help="largest horizon")
    p.add_argument("--draws", type=int, help="randomized one-step audit draws")
    p.add_argument("--seed", type=int, help="stream seed (required)")
    p.set_defaults(handler=_cmd_lemma_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, GraphError, WeightingError, ChainError, OracleError, WalkError, GuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

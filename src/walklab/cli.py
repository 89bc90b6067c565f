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

Flags can also come from a key=value config file (--config): a key is a flag
name (dashes or underscores), its value is typed like the flag, and explicit
flags win over file values.  `build_parser` is the one declaration of every
flag: its type, default, help, and whether it is required or a work count.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import NoReturn

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
from .rng import SplitMix64, draws
from .robustness import psi_lower_bound, section3_lemma_audit, theorem31_check
from .walks import WALK_KINDS, WalkError, WalkSpec, estimate_cover_time
from .weighting import (
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
# flags and config files


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose flags also declare the checks `_parse` makes.

    `needed=True` marks a flag that must be set, on the command line or in
    the config file; `work=True` marks a work count (weightings, subsets,
    draws, horizons) that must not be negative.  A malformed flag raises
    InputError, so `main` reports it like any other bad input (exit 2).
    """

    commands: dict[str, _Parser]

    def add_argument(self, *args, needed: bool = False, work: bool = False, **kwargs) -> argparse.Action:
        action = super().add_argument(*args, **kwargs)
        action.needed, action.work = needed, work
        return action

    def error(self, message: str) -> NoReturn:
        raise InputError(message)


def _switch(flag: str, text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise InputError(f"{flag}: expected a boolean, got {text!r}")


def _config_defaults(command: _Parser, path: str) -> dict[str, str]:
    """The key=value lines of a config file, as defaults for `command`'s flags.

    A value stays text until it is used, that is, until the command line
    leaves its flag out: argparse then converts it with the flag's own type,
    and `_parse` reads a switch (--no-timestamp) from a word such as true
    or off.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, text = line.partition("=")
        values[key.strip().replace("-", "_")] = text.strip()
    unknown = set(values) - {action.dest for action in command._actions if action.dest != "help"}
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return values


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Every flag resolved: the command line, then the config file, then the
    defaults of `build_parser`; required flags and work counts checked."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = parser.commands[args.command]
    if args.config is not None:
        command.set_defaults(**_config_defaults(command, args.config))
        args = parser.parse_args(argv)
    for action in command._actions:
        flag, value = action.option_strings[0], getattr(args, action.dest, None)
        if action.nargs == 0 and isinstance(value, str):
            value = _switch(flag, value)
            setattr(args, action.dest, value)
        if action.needed and value is None:
            raise InputError(f"{flag} is required")
        if action.work and value is not None and value < 0:
            raise InputError(f"{flag} must be >= 0, got {value}")
    return args


# ---------------------------------------------------------------------------
# input and output


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.graph and args.generate:
        raise InputError("give either --graph or --generate, not both")
    if args.graph:
        return graphmod.read_graph_file(args.graph)
    if args.generate:
        return graphmod.parse_generate_spec(args.generate)
    raise InputError("a graph is required: pass --graph FILE or --generate SPEC")


def _report(
    args: argparse.Namespace,
    payload: dict,
    *,
    audit: list[dict] | None = None,
    results: list[list] | None = None,
) -> None:
    """Print `payload` as the JSON summary.

    With --out, first write `audit` rows to audit.jsonl, `results` rows
    (header first) to results.csv and `payload` to summary.json; each file
    starts with a timestamp unless --no-timestamp is given.
    """
    if args.out is not None:
        encode = json.JSONEncoder(sort_keys=True).encode
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat(timespec="seconds")
        if audit is not None:
            with (out / "audit.jsonl").open("w") as fh:
                if stamp:
                    fh.write(json.dumps({"timestamp": stamp}) + "\n")
                for row in audit:
                    fh.write(encode(row) + "\n")
        if results is not None:
            with (out / "results.csv").open("w", newline="") as fh:
                if stamp:
                    fh.write(f"# generated {stamp}\n")
                csv.writer(fh).writerows(results)
        summary = payload if stamp is None else {"timestamp": stamp, **payload}
        (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectral(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    w = read_weighting_file(args.weights, g) if args.weights else uniform_weighting(g)
    chain = induced_chain(w)
    report: SpectralReport = spectral_gap(chain)
    if g.n <= CONDUCTANCE_GUARD:
        phi, argmin = edge_conductance_exact(chain)
        payload = report.to_json_dict(phi=phi, phi_argmin=sorted(argmin))
    else:
        payload = report.to_json_dict(phi=None, phi_argmin=None)
    _report(args, payload)
    return 0


def _cmd_lipschitz_audit(args: argparse.Namespace) -> int:
    if not (args.sigma >= 1.0 and math.isfinite(args.sigma)):
        raise InputError("--sigma must be finite and >= 1")
    if args.assert_beta_max is not None and math.isnan(args.assert_beta_max):
        raise InputError("--assert-beta-max must be a number, got nan")
    g = _load_graph(args)
    dia, _ = graphmod.diameter(g)
    kmax = args.kmax if args.kmax is not None else dia
    rows = []
    failures = 0
    max_beta = 0.0
    for index in range(args.count):
        rng = SplitMix64.stream(args.seed, index)
        w = random_lipschitz_weighting(g, args.sigma, rng)
        beta = lipschitz_beta(w)
        if not math.isfinite(beta):
            raise InputError(f"weighting {index}: its Lipschitz constant overflows the float range")
        max_beta = max(max_beta, beta)
        ok = all(stationary_ratio_audit(w, k) for k in range(1, kmax + 1))
        if args.assert_beta_max is not None and beta > args.assert_beta_max:
            ok = False
        if not ok:
            failures += 1
        rows.append({"weighting_index": index, "beta": beta, "ok": ok})
    payload = {
        "count": args.count,
        "failures": failures,
        "max_beta": max_beta,
        "sigma": args.sigma,
        "kmax": kmax,
        "seed": args.seed,
    }
    _report(args, payload, audit=rows)
    return 1 if failures else 0


def _cmd_robustness_audit(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    rng = SplitMix64.stream(args.seed, 0)
    if args.sigma is None:
        w = uniform_weighting(g)
    else:
        w = random_lipschitz_weighting(g, args.sigma, rng)
    psi = psi_lower_bound(g)
    subsets = []
    for _ in range(args.subsets):
        size = 1 + rng.randrange(max(1, g.n // 2))
        verts = list(range(g.n))
        rng.shuffle(verts)
        subsets.append(frozenset(verts[:size]))
    reports = section3_lemma_audit(w, subsets, psi=psi)
    rows = [
        {
            "subset_index": index,
            "subset": sorted(subset),
            "skipped": report.skipped,
            "checks": [c.to_json_dict() for c in report.checks],
            "ok": report.ok,
        }
        for index, (subset, report) in enumerate(zip(subsets, reports))
    ]
    endpoint = theorem31_check(w, psi=psi)
    failures = sum(not report.ok for report in reports) + (not endpoint.ok)
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
    _report(args, payload, audit=rows)
    return 1 if failures else 0


def _cmd_cover_sim(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    spec = WalkSpec(kind=args.walk, eps=args.eps, start=args.start, psi=args.psi)
    estimate = estimate_cover_time(g, spec, trials=args.trials, seed=args.seed)
    results = [["trial", "start_vertex", "steps", "walk_kind", "eps", "seed"]]
    results += [[row.trial, row.start_vertex, row.steps, args.walk, args.eps, args.seed] for row in estimate.rows]
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
    _report(args, payload, results=results)
    return 0


def _cmd_boost_audit(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    event = parse_event_text(args.event, args.t)
    report = boost_bound_audit(g, args.start, event, args.eps, args.eta)
    payload = report.to_json_dict(graph_id=args.generate or args.graph)
    payload["ok"] = report.ok
    _report(args, payload)
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

    # u64() % k and (u64() >> 11) * 2**-53 are the stream's randrange(k) and
    # next_float(), read through block draws
    conv_failures = 0
    u64 = draws(SplitMix64.stream(args.seed, 0))
    for _ in range(args.draws):
        d = 3 + u64() % 4
        raw = [(u64() >> 11) * 2.0**-53 for _ in range(d)]
        total = sum(raw)
        b = [x / total for x in raw]
        v = [(u64() >> 11) * 2.0**-53 for _ in range(d)]
        eta = (0.25, 0.5, 1.0)[u64() % 3]
        eps = (u64() >> 11) * 2.0**-53 / d ** (2.0 * eta)
        if not conv_lemma_audit(d, eps, eta, v, b):
            conv_failures += 1
    failures += conv_failures

    payload = {
        "queries": len(rows),
        "failures": failures - conv_failures,
        "conv_draws": args.draws,
        "conv_failures": conv_failures,
        "seed": args.seed,
    }
    _report(args, payload, audit=rows)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: _Parser, *, graph: bool = True) -> None:
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
        action="store_true",
        help="omit timestamps so identical runs are byte-identical",
    )


def _add_seed(parser: _Parser) -> None:
    parser.add_argument("--seed", type=int, needed=True, help="stream seed (required)")


def build_parser() -> _Parser:
    parser = _Parser(prog="walklab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("spectral", help="eigenvalues, gap, conductance of a weighted graph")
    _add_common(p)
    p.add_argument("--weights", help="weighting file ('u v weight' per edge)")
    p.set_defaults(handler=_cmd_spectral)

    p = sub.add_parser("lipschitz-audit", help="stationary ratio bounds for random weightings")
    _add_common(p)
    p.add_argument("--sigma", type=float, default=2.0, help="Lipschitz budget (>= 1)")
    p.add_argument("--count", type=int, default=50, work=True, help="number of random weightings")
    p.add_argument("--kmax", type=int, work=True, help="largest distance to audit (default: diameter)")
    p.add_argument("--assert-beta-max", type=float,
                   help="fail any weighting whose Lipschitz constant exceeds this")
    _add_seed(p)
    p.set_defaults(handler=_cmd_lipschitz_audit)

    p = sub.add_parser("robustness-audit", help="bucket/representative lemma checks + gap endpoint")
    _add_common(p)
    p.add_argument("--sigma", type=float, help="random weighting budget; omit for uniform weights")
    p.add_argument("--subsets", type=int, default=50, work=True, help="number of random subsets to audit")
    _add_seed(p)
    p.set_defaults(handler=_cmd_robustness_audit)

    p = sub.add_parser("cover-sim", help="Monte Carlo cover-time estimation")
    _add_common(p)
    p.add_argument("--walk", default="srw", help=" | ".join(WALK_KINDS))
    p.add_argument("--eps", type=float, default=0.0, help="bias probability per step (0 for srw)")
    p.add_argument("--psi", type=float, help="expansion value for the phase strategy")
    p.add_argument("--start", type=int, help="fixed start vertex (default: round-robin when n <= 64)")
    p.add_argument("--trials", type=int, default=100, help="number of independent trials (>= 2)")
    _add_seed(p)
    p.set_defaults(handler=_cmd_cover_sim)

    p = sub.add_parser("boost-audit", help="exact DP check of the event-boost bounds")
    _add_common(p)
    p.add_argument("--event", needed=True, help="hit:V | hitall:V1,V2 | hitany:V1,V2 | cover | return")
    p.add_argument("--t", type=int, needed=True, help="event horizon")
    p.add_argument("--eps", type=float, default=0.0, help="bias probability")
    p.add_argument("--eta", type=float, default=1.0, help="exponent for the root bound (0 < eta <= 1)")
    p.add_argument("--start", type=int, default=0, help="start vertex")
    p.set_defaults(handler=_cmd_boost_audit)

    p = sub.add_parser("lemma-sweep", help="boost-bound grid over the small graph catalog")
    _add_common(p, graph=False)
    p.add_argument("--nmax", type=int, default=6, work=True, help="largest catalog graph to include")
    p.add_argument("--tmax", type=int, default=5, work=True, help="largest horizon")
    p.add_argument("--draws", type=int, default=10000, work=True, help="randomized one-step audit draws")
    _add_seed(p)
    p.set_defaults(handler=_cmd_lemma_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(argv)
        return args.handler(args)
    except (InputError, GraphError, WeightingError, ChainError, OracleError, WalkError, GuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

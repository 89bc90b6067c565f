"""Batch experiment front-end.

One process per invocation, one subcommand per run:

    spectral          eigenvalue/gap/conductance report for a weighted graph
    lipschitz-audit   stationary ratio bounds over random Lipschitz weightings
    robustness-audit  bucket/representative lemma checks plus the gap endpoint
    robustness-sweep  robustness-audit over random weightings at the budget sigma
    cover-sim         Monte Carlo cover times (results.csv + summary.json)
    cover-compare     cover-sim for several walk kinds, each mean against srw's
    boost-audit       exact DP bounds for one biased-walk event query
    lemma-sweep       grid audit of the boost bounds over the small catalog

Exit codes: 0 success, 1 an audit found a violation, 2 bad input (malformed
flags, config, graph, or weighting files): a `graphs.WalklabError`, the root
of every error the package raises, or an OSError.  Every randomized subcommand
requires --seed; identical configuration and seed give byte-identical output
files once --no-timestamp is passed.

Flags can also come from a key=value config file (--config): a key is a flag
name (dashes or underscores), its value is typed like the flag, and explicit
flags win over file values.  `build_parser` is the one declaration of every
flag: its type, default, help, and whether it is required or a work count.
A run builds the root parser and its own subcommand only; `--help` and an
unknown subcommand see all of them.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, NoReturn, TextIO

import numpy as np

from . import graphs as graphmod
from .chains import SpectralReport, edge_conductance_exact, spectral_gap
from .graphs import SUBSET_GUARD, Graph, WalklabError
from .oracle import (
    BOOST_SLACK,
    HORIZON_GUARD,
    BoostValues,
    EventKind,
    EventSpec,
    boost_bound_audit,
    boost_bound_grid,
    conv_lemma_audit,
    eta_grid,
    parse_event_text,
)
from .rng import SplitMix64, splitmix_block, stream_seeds, to_unit
from .robustness import (
    Theorem31Report, psi_lower_bound, random_subsets, section3_K, section3_lemma_audit, section3_sigma,
    theorem31_check,
)
from .walks import WALK_KINDS, WalkSpec, estimate_cover_time
from .weighting import (
    EdgeWeighting,
    induced_chain,
    lipschitz_beta,
    random_lipschitz_weighting,
    read_weighting_file,
    stationary_ratio_audit,
    uniform_weighting,
)

__all__ = ["main"]


class InputError(WalklabError):
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
        source = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line, raw in graphmod.content_lines(source):
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in lines:
            raise InputError(f"{path}: config key {key} given twice, on lines {lines[key]} and {lineno}")
        values[key], lines[key] = text.strip(), lineno
    unknown = set(values) - {action.dest for action in command._actions if action.dest != "help"}
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return values


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Every flag resolved: the command line, then the config file, then the
    defaults of `build_parser`; required flags and work counts checked."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    if not parser.commands:  # no subcommand first: help or an error, which list them all
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


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextlib.contextmanager
def _audit_file(args: argparse.Namespace) -> Iterator[TextIO | None]:
    """audit.jsonl under --out, open for lines as they are made, after the
    run's timestamp line unless --no-timestamp; None without --out."""
    if args.out is None:
        yield None
        return
    with (_out_dir(args) / "audit.jsonl").open("w") as fh:
        if args.stamp:
            fh.write(json.dumps({"timestamp": args.stamp}) + "\n")
        yield fh


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
    starts with the run's timestamp unless --no-timestamp is given.
    """
    if args.out is not None:
        encode = json.JSONEncoder(sort_keys=True).encode
        out, stamp = _out_dir(args), args.stamp
        if audit is not None:
            with _audit_file(args) as fh:
                fh.writelines(encode(row) + "\n" for row in audit)
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
    if g.n <= SUBSET_GUARD:
        phi, argmin = edge_conductance_exact(chain)
        payload = report.to_json_dict(phi=phi, phi_argmin=argmin)
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
    for index in range(args.count):
        rng = SplitMix64.stream(args.seed, index)
        w = random_lipschitz_weighting(g, args.sigma, rng)
        beta = lipschitz_beta(w)
        if not math.isfinite(beta):
            raise InputError(f"weighting {index}: its Lipschitz constant overflows the float range")
        # past the diameter every pair is already in range and the bound only grows
        ok = all(stationary_ratio_audit(w, k, beta) for k in range(1, min(kmax, dia) + 1))
        if args.assert_beta_max is not None and beta > args.assert_beta_max:
            ok = False
        if not ok:
            failures += 1
        rows.append({"weighting_index": index, "beta": beta, "ok": ok})
    payload = {
        "count": args.count,
        "failures": failures,
        "max_beta": max((row["beta"] for row in rows), default=None),
        "sigma": args.sigma,
        "kmax": kmax,
        "seed": args.seed,
    }
    _report(args, payload, audit=rows)
    return 1 if failures else 0


def _section3_audit(w: EdgeWeighting, psi: float, count: int, rng: SplitMix64) -> tuple[list[dict], Theorem31Report, int]:
    """The subset rows and the endpoint report of one weighting, and its
    failure count: `count` subsets drawn from `rng`, audited in one call."""
    subsets = random_subsets(w.graph, count, rng)
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
    return rows, endpoint, sum(not report.ok for report in reports) + (not endpoint.ok)


def _endpoint_fields(endpoint: Theorem31Report) -> dict:
    names = ("K", "beta", "phi_bound", "phi_value", "phi_skipped", "gap_bound", "gap_value", "gap_skipped")
    return {name: getattr(endpoint, name) for name in names}


def _cmd_robustness_audit(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    psi = psi_lower_bound(g)
    rng = SplitMix64.stream(args.seed, 0)
    if args.sigma is None:
        w = uniform_weighting(g)
    else:
        budget = section3_sigma(section3_K(psi))
        if not 1.0 <= args.sigma <= budget:
            raise InputError(f"--sigma must be >= 1 and <= the budget exp(1/(2K)) = {budget:.6g}; got {args.sigma}")
        w = random_lipschitz_weighting(g, args.sigma, rng)
    rows, endpoint, failures = _section3_audit(w, psi, args.subsets, rng)
    payload = {"subsets": args.subsets, "failures": failures, **_endpoint_fields(endpoint), "seed": args.seed}
    _report(args, payload, audit=rows)
    return 1 if failures else 0


def _cmd_robustness_sweep(args: argparse.Namespace) -> int:
    """Row i is `robustness-audit --sigma <budget> --seed (seed ^ i)`: the
    weighting and then its subsets draw from stream(seed, i)."""
    g = _load_graph(args)
    psi = psi_lower_bound(g)
    K = section3_K(psi)
    sigma = section3_sigma(K)
    rows = []
    for index in range(args.weightings):
        rng = SplitMix64.stream(args.seed, index)
        w = random_lipschitz_weighting(g, sigma, rng)
        subset_rows, endpoint, failures = _section3_audit(w, psi, args.subsets, rng)
        # in decades, from logarithms: on long cycles gap_bound underflows to 0.0
        gap = endpoint.gap_value or 0.0
        margin = (math.log(gap) - endpoint.log_gap_bound) / math.log(10) if gap > 0.0 else None
        rows.append({"weighting_index": index, **_endpoint_fields(endpoint), "failures": failures,
                     "gap_margin_decades": margin, "subset_rows": subset_rows})
    audited = sum(row["skipped"] is None for weighting in rows for row in weighting["subset_rows"])
    payload = {"weightings": args.weightings, "subsets": args.subsets, "subset_audits": audited,
               "failures": sum(row["failures"] for row in rows), "psi": psi, "K": K, "sigma": sigma, "seed": args.seed}
    _report(args, payload, audit=rows)
    return 1 if payload["failures"] else 0


_COVER_HEADER = ["trial", "start_vertex", "steps", "walk_kind", "eps", "seed"]


def _cover_estimate(g: Graph, args: argparse.Namespace, spec: WalkSpec):
    """One `estimate_cover_time` call: its summary stats and its results.csv rows."""
    estimate = estimate_cover_time(g, spec, trials=args.trials, seed=args.seed)
    (lo, hi), mean, sd = estimate.ci95, estimate.mean, estimate.stddev
    stats = {"walk_kind": spec.kind, "eps": spec.eps, "mean": mean, "stddev": sd, "ci95_lo": lo, "ci95_hi": hi}
    trials = enumerate(zip(estimate.starts, estimate.steps))
    return stats, [[t, start, steps, spec.kind, spec.eps, args.seed] for t, (start, steps) in trials]


def _cmd_cover_sim(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    stats, rows = _cover_estimate(g, args, WalkSpec(args.walk, args.eps, args.start, args.psi))
    _report(args, {**stats, "trials": args.trials, "seed": args.seed}, results=[_COVER_HEADER, *rows])
    return 0


def _cmd_cover_compare(args: argparse.Namespace) -> int:
    """cover-sim once per kind (srw at eps 0, --psi to phase alone), every
    estimate before any output."""
    kinds = [kind.strip() for kind in args.kinds.split(",")]
    unknown = [kind for kind in kinds if kind not in WALK_KINDS]
    if unknown:
        raise InputError(f"unknown walk kinds {', '.join(map(repr, unknown))}; choose from {', '.join(WALK_KINDS)}")
    repeated = sorted({kind for kind in kinds if kinds.count(kind) > 1})
    if repeated:
        raise InputError(f"walk kinds given more than once: {', '.join(map(repr, repeated))}")
    if args.psi is not None and "phase" not in kinds:
        raise InputError("--psi sets the phase walk's expansion, and --kinds has no phase")
    g = _load_graph(args)
    per_kind, results = [], [_COVER_HEADER]
    for kind in kinds:
        spec = WalkSpec(kind, 0.0 if kind == "srw" else args.eps, psi=args.psi if kind == "phase" else None)
        stats, rows = _cover_estimate(g, args, spec)
        per_kind.append(stats)
        results += rows
    base = next((stats for stats in per_kind if stats["walk_kind"] == "srw"), None)
    for stats in per_kind:
        if base is not None and stats["walk_kind"] != "srw":
            # a one-vertex graph is covered at step 0 by every kind
            stats["mean_ratio_to_srw"] = stats["mean"] / base["mean"] if base["mean"] else None
            stats["ci_separated_from_srw"] = stats["ci95_hi"] < base["ci95_lo"] or base["ci95_hi"] < stats["ci95_lo"]
    payload = {"n": g.n, "m": g.m, "regular_degree": g.regular_degree, "trials": args.trials, "seed": args.seed,
               "kinds": per_kind}
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


CONV_CHUNK = 2048  # convexity audits per draw block (15 draws each), whatever --draws is
# Most audit rows one lemma-sweep may make: memory grows with the rows of the
# largest graph's grid.  At the default --nmax this is --tmax 546, which took
# 5.7 s, a 53 MiB peak and a 246 MiB audit.jsonl on a 2-core x86 box.
SWEEP_ROWS = 1 << 20


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


def _sweep_grid(g: Graph) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The eps and the eta values lemma-sweep audits on catalog graph g."""
    d = g.regular_degree
    return (0.0, 0.05, 1.0 / d**2), eta_grid(d)


def _conv_audits(seed: int, count: int) -> Iterator[np.ndarray]:
    """Verdicts of `count` one-step convexity audits drawn from stream
    (seed, 0), a batch per degree for every CONV_CHUNK audits.

    Audit i reads the fixed record of draws 15i + 1 .. 15i + 15, z0 .. z14:
    d = 3 + z0 % 4, the d bias weights from z1, the d values from z7, the
    eta pick z13 % 3 and the eps draw z14.  So a chunk is one block whose
    rows are its audits' records."""
    seeds, etas = stream_seeds(seed, [0]), (0.25, 0.5, 1.0)
    for first in range(0, count, CONV_CHUNK):
        z = splitmix_block(seeds, 15 * first, 15 * min(CONV_CHUNK, count - first))[0].reshape(-1, 15)
        for d in range(3, 7):
            rec = z[z[:, 0] % 4 == d - 3]
            raw, v, eps = to_unit(rec[:, 1 : d + 1]), to_unit(rec[:, 7 : d + 7]), to_unit(rec[:, 14])
            pick = rec[:, 13] % 3
            eps /= np.array([d ** (2.0 * e) for e in etas])[pick]
            # sum() adds the columns left to right, as it adds a list of floats
            yield conv_lemma_audit(d, eps, np.array(etas)[pick], v, raw / sum(raw.T)[:, None])


def _sweep_failures(grid: list[BoostValues]) -> int:
    """The grid cells whose `BoostReport.ok` is false, by its rule taken a
    level at a time: q* against p and bound1 per (event, eps), bound2 per cell."""
    failures = 0
    for values in grid:
        floor = values.p - BOOST_SLACK
        for q_star, bound1, applies in zip(values.q_stars, values.bound1s, values.applies):
            if q_star < floor or (bound1 is not None and bound1 - q_star < -BOOST_SLACK):
                failures += len(applies)
                continue
            for at, bound2 in zip(applies, values.bound2s):
                if at and bound2 is not None and bound2 - q_star < -BOOST_SLACK:
                    failures += 1
    return failures


def _number(x: float | None) -> str:
    """x as JSON: repr is the encoder's text for a finite float."""
    return "null" if x is None else repr(x)


def _write_sweep_rows(fh: TextIO, name: str, grid: list[BoostValues]) -> None:
    """Write one graph's audit.jsonl lines, an event's at a time.

    A cell's line is the text JSONEncoder(sort_keys=True) writes for its
    report's `to_json_dict`, keys in sorted order.  Each piece is made once
    at its own level, per event, (event, eps) or (event, eta); only margin2
    is made per cell."""
    if not grid:
        return
    pairs = [[f', "eps": {json.dumps(eps)}, "eta": {json.dumps(eta)}, "event": ' for eta in grid[0].etas]
             for eps in grid[0].eps_values]
    graph_id = f', "graph_id": {json.dumps(name)}, "margin1": '
    for values in grid:
        event, p, t = json.dumps(values.event) + graph_id, f', "p": {values.p!r}, "q_star": ', f', "t": {values.t}}}\n'
        bound2s = [_number(bound2) for bound2 in values.bound2s]
        lines = []
        for q_star, bound1, applies, row_pairs in zip(values.q_stars, values.bound1s, values.applies, pairs):
            head = f'{{"bound1": {_number(bound1)}, "bound2": '
            mid = f'{event}{_number(None if bound1 is None else bound1 - q_star)}, "margin2": '
            tail = f"{p}{q_star!r}{t}"
            for at, bound2, text, pair in zip(applies, values.bound2s, bound2s, row_pairs):
                if at and bound2 is not None:
                    lines.append(f"{head}{text}{pair}{mid}{bound2 - q_star!r}{tail}")
                else:
                    lines.append(f"{head}null{pair}{mid}null{tail}")
        fh.writelines(lines)


def _cmd_lemma_sweep(args: argparse.Namespace) -> int:
    if args.tmax > HORIZON_GUARD:
        raise InputError(f"--tmax {args.tmax} exceeds the event horizon guard {HORIZON_GUARD}")
    catalog = sorted((name, g) for name, g in graphmod.small_regular_catalog().items() if g.n <= args.nmax)
    # every horizon has the same events, and each event a row per (eps, eta)
    rows = sum(args.tmax * len(_sweep_events(g, 1)) * math.prod(map(len, _sweep_grid(g))) for _, g in catalog)
    if rows > SWEEP_ROWS:
        raise InputError(f"--nmax {args.nmax} --tmax {args.tmax} make {rows} audit rows, past the limit {SWEEP_ROWS}")
    failures = 0
    with _audit_file(args) as fh:
        for name, g in catalog:
            grid = boost_bound_grid(g, 0, _sweep_events(g, args.tmax), *_sweep_grid(g))
            failures += _sweep_failures(grid)
            if fh is not None:
                _write_sweep_rows(fh, name, grid)

    conv_failures = sum(int(np.count_nonzero(~ok)) for ok in _conv_audits(args.seed, args.draws))
    payload = {
        "queries": rows,
        "failures": failures,
        "conv_draws": args.draws,
        "conv_failures": conv_failures,
        "seed": args.seed,
    }
    _report(args, payload)
    return 1 if failures or conv_failures else 0


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: _Parser, *, graph: bool = True) -> None:
    if graph:
        parser.add_argument("--graph", help="graph file (header 'n m', then one 'u v' per line)")
        parser.add_argument("--generate", help="generator spec: " + ", ".join(graphmod.spec_forms().values()))
    parser.add_argument("--config", help="key=value config file; explicit flags win")
    parser.add_argument("--out", help="directory for results.csv / summary.json / audit.jsonl")
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamps so identical runs are byte-identical",
    )


def _add_seed(parser: _Parser) -> None:
    parser.add_argument("--seed", type=int, needed=True, help="stream seed (required)")


def build_parser(command: str | None = None) -> _Parser:
    """The root parser and every subcommand, or only `command`: a run declares
    its own subcommand alone."""
    parser = _Parser(prog="walklab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add(name: str, help_line: str) -> _Parser | None:
        return sub.add_parser(name, help=help_line) if command in (None, name) else None

    if p := add("spectral", "eigenvalues, gap, conductance of a weighted graph"):
        _add_common(p)
        p.add_argument("--weights", help="weighting file ('u v weight' per edge)")
        p.set_defaults(handler=_cmd_spectral)

    if p := add("lipschitz-audit", "stationary ratio bounds for random weightings"):
        _add_common(p)
        p.add_argument("--sigma", type=float, default=2.0, help="Lipschitz budget (>= 1)")
        p.add_argument("--count", type=int, default=50, work=True, help="number of random weightings")
        p.add_argument("--kmax", type=int, work=True, help="largest distance to audit (default: diameter)")
        p.add_argument("--assert-beta-max", type=float,
                       help="fail any weighting whose Lipschitz constant exceeds this")
        _add_seed(p)
        p.set_defaults(handler=_cmd_lipschitz_audit)

    if p := add("robustness-audit", "bucket/representative lemma checks + gap endpoint"):
        _add_common(p)
        p.add_argument("--sigma", type=float, help="random weighting budget in [1, exp(1/(2K))]; omit for uniform weights")
        p.add_argument("--subsets", type=int, default=50, work=True, help="number of random subsets to audit")
        _add_seed(p)
        p.set_defaults(handler=_cmd_robustness_audit)

    if p := add("robustness-sweep", "robustness-audit over random weightings at the budget sigma"):
        _add_common(p)
        p.add_argument("--weightings", type=int, default=20, work=True, help="number of random weightings")
        p.add_argument("--subsets", type=int, default=50, work=True, help="random subsets to audit per weighting")
        _add_seed(p)
        p.set_defaults(handler=_cmd_robustness_sweep)

    if p := add("cover-sim", "Monte Carlo cover-time estimation"):
        _add_common(p)
        p.add_argument("--walk", default="srw", help=" | ".join(WALK_KINDS))
        p.add_argument("--eps", type=float, default=0.0, help="bias probability per step (0 for srw)")
        p.add_argument("--psi", type=float, help="expansion value for the phase strategy")
        p.add_argument("--start", type=int, help="fixed start vertex (default: round-robin when n <= 64)")
        p.add_argument("--trials", type=int, default=100, help="number of independent trials (>= 2)")
        _add_seed(p)
        p.set_defaults(handler=_cmd_cover_sim)

    if p := add("cover-compare", "cover-sim per walk kind, each mean against srw's"):
        _add_common(p)
        p.add_argument("--kinds", default="srw,phase", help="comma-separated walk kinds: " + ", ".join(WALK_KINDS))
        p.add_argument("--eps", type=float, default=0.25, help="bias probability of every kind but srw (eps 0)")
        p.add_argument("--psi", type=float, help="expansion value for the phase strategy")
        p.add_argument("--trials", type=int, default=200, help="number of independent trials per kind (>= 2)")
        _add_seed(p)
        p.set_defaults(handler=_cmd_cover_compare)

    if p := add("boost-audit", "exact DP check of the event-boost bounds"):
        _add_common(p)
        p.add_argument("--event", needed=True, help="hit:V | hitall:V1,V2 | hitany:V1,V2 | cover | return")
        p.add_argument("--t", type=int, needed=True, help="event horizon")
        p.add_argument("--eps", type=float, default=0.0, help="bias probability")
        p.add_argument("--eta", type=float, default=1.0, help="exponent for the root bound (0 < eta <= 1)")
        p.add_argument("--start", type=int, default=0, help="start vertex")
        p.set_defaults(handler=_cmd_boost_audit)

    if p := add("lemma-sweep", "boost-bound grid over the small graph catalog"):
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
        # one clock reading stamps every file of the run
        args.stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat(timespec="seconds")
        return args.handler(args)
    except (WalklabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Correctness gate: every invocation's outputs are read back and checked.

Two kinds of check:

* invariants, for any seed: exit code 0, no traceback, zero audit failures,
  every verdict true, cover runs of at least n - 1 steps, row counts and
  summaries that agree with the rows;
* the reference, for the gate pass (reference seed, pass 0): exit codes,
  integers, strings, verdicts and skip reasons must match exactly; floats must
  match within ATOL + RTOL * |reference|.

The tolerance admits the 6.6e-14 eigenvalue difference between LAPACK and the
Jacobi solver (plus the 1e-12 rounding step of the spectral report) and stays
far below every non-zero audited margin in the reference.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import Slot, generator_kwargs

ATOL = 2e-12
RTOL = 1e-9
# Slack of the boost-bound verdict (walklab.oracle.BoostReport.ok).
BOOST_SLACK = 1e-9

CSV_COLUMNS = ["trial", "start_vertex", "steps", "walk_kind", "eps", "seed"]


def read_outputs(out_dir: Path) -> dict:
    """Summary and rows an invocation wrote, in the form reference.json keeps.

    Rows are stored column-wise ({"columns": [...], "values": [[...], ...]});
    cover-sim rows keep (trial, start_vertex, steps) and the constant columns
    are checked separately against the command line.
    """
    outputs: dict = {}
    summary = out_dir / "summary.json"
    if summary.exists():
        outputs["summary"] = json.loads(summary.read_text())
    results = out_dir / "results.csv"
    audit = out_dir / "audit.jsonl"
    if results.exists():
        with results.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = list(reader)
        outputs["csv_header"] = header
        outputs["csv_constants"] = sorted({tuple(r[3:]) for r in body})
        outputs["rows"] = {
            "columns": header[:3],
            "values": [[int(r[0]), int(r[1]), int(r[2])] for r in body],
        }
    elif audit.exists():
        lines = [json.loads(line) for line in audit.read_text().splitlines() if line.strip()]
        columns = sorted(lines[0]) if lines else []
        if any(sorted(row) != columns for row in lines):
            raise ValueError("audit.jsonl rows do not share one set of keys")
        outputs["rows"] = {"columns": columns, "values": [[row[c] for c in columns] for row in lines]}
    return outputs


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def _argv_value(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _rows_as_dicts(outputs: dict) -> list[dict]:
    rows = outputs.get("rows", {"columns": [], "values": []})
    return [dict(zip(rows["columns"], values)) for values in rows["values"]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _cover_problems(argv: list[str], outputs: dict) -> list[str]:
    problems = []
    n = generator_kwargs(_argv_value(argv, "--generate"))[1]["n"]
    trials = int(_argv_value(argv, "--trials"))
    walk = _argv_value(argv, "--walk")
    eps = float(_argv_value(argv, "--eps") or 0.0)
    seed = int(_argv_value(argv, "--seed"))
    if outputs.get("csv_header") != CSV_COLUMNS:
        return [f"results.csv header is {outputs.get('csv_header')}"]
    if outputs["csv_constants"] != [(walk, str(eps), str(seed))]:
        problems.append(f"results.csv walk/eps/seed columns are {outputs['csv_constants']}")
    rows = outputs["rows"]["values"]
    if len(rows) != trials:
        problems.append(f"{len(rows)} rows for {trials} trials")
    for i, (trial, start, steps) in enumerate(rows):
        want_start = i % n if n <= 64 else 0
        if trial != i or start != want_start:
            problems.append(f"row {i}: trial {trial}, start {start}; expected {i}, {want_start}")
            break
        if steps < n - 1:
            problems.append(f"trial {trial}: {steps} steps < n - 1 = {n - 1}")
            break
    summary = outputs.get("summary", {})
    if rows and summary.get("trials") == len(rows):
        mean = sum(r[2] for r in rows) / len(rows)
        if not _close(summary.get("mean", math.nan), mean):
            problems.append(f"summary mean {summary.get('mean')} != row mean {mean}")
    else:
        problems.append(f"summary trials {summary.get('trials')} != {len(rows)} rows")
    return problems


def _boost_row_ok(row: dict) -> bool:
    if row["q_star"] < row["p"] - BOOST_SLACK or row["margin1"] < -BOOST_SLACK:
        return False
    return row["margin2"] is None or row["margin2"] >= -BOOST_SLACK


def invariant_problems(slot: Slot, argv: list[str], rc: int | None, error: str | None, outputs: dict) -> list[str]:
    """Checks that hold for every seed."""
    if error is not None:
        return [f"raised: {error.strip().splitlines()[-1]}"]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    summary = outputs.get("summary")
    if summary is None:
        return problems + ["no summary.json"]
    for key in ("failures", "conv_failures"):
        if summary.get(key, 0) != 0:
            problems.append(f"summary {key} = {summary[key]}")
    if summary.get("ok", True) is not True:
        problems.append("summary verdict ok is false")
    rows = _rows_as_dicts(outputs)
    bad = [i for i, row in enumerate(rows) if row.get("ok", True) is not True]
    if bad:
        problems.append(f"{len(bad)} rows with ok false, first at row {bad[0]}")
    command = slot.command
    if command == "cover-sim":
        problems += _cover_problems(argv, outputs)
    elif command == "lemma-sweep":
        if summary.get("queries") != len(rows):
            problems.append(f"summary queries {summary.get('queries')} != {len(rows)} rows")
        failed = [i for i, row in enumerate(rows) if not _boost_row_ok(row)]
        if failed:
            problems.append(f"{len(failed)} boost rows violate a bound, first at row {failed[0]}")
    elif command == "robustness-audit":
        if len(rows) != int(_argv_value(argv, "--subsets")):
            problems.append(f"{len(rows)} audit rows for {_argv_value(argv, '--subsets')} subsets")
        for kind in ("phi", "gap"):
            if summary.get(f"{kind}_skipped") is None and not summary[f"{kind}_value"] >= summary[f"{kind}_bound"]:
                problems.append(f"{kind} {summary[f'{kind}_value']} below bound {summary[f'{kind}_bound']}")
    elif command == "lipschitz-audit":
        if len(rows) != int(_argv_value(argv, "--count")):
            problems.append(f"{len(rows)} audit rows for {_argv_value(argv, '--count')} weightings")
    elif command == "spectral":
        n = generator_kwargs(_argv_value(argv, "--generate"))[1]["n"]
        eig = summary.get("eigenvalues", [])
        if len(eig) != n:
            problems.append(f"{len(eig)} eigenvalues for n = {n}")
        elif not (_close(eig[0], 1.0) and abs(summary["gap"] - (1.0 - eig[1])) <= 1e-11):
            problems.append(f"spectrum starts {eig[:2]} but gap is {summary['gap']}")
    return problems


# ---------------------------------------------------------------------------
# reference comparison


def compare(observed, expected, path: str = "") -> list[str]:
    """Differences between observed outputs and the reference.

    Floats match within the tolerance; everything else (ints, strings, None,
    booleans, list lengths, keys) must be equal.
    """
    if isinstance(expected, float) or (isinstance(observed, float) and isinstance(expected, int)):
        if isinstance(observed, bool) or not isinstance(observed, (int, float)):
            return [f"{path}: {observed!r} != {expected!r}"]
        return [] if _close(float(observed), float(expected)) else [f"{path}: {observed!r} != {expected!r}"]
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(observed) != set(expected):
            return [f"{path}: keys differ"]
        return [d for k in sorted(expected) for d in compare(observed[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, (list, tuple)):
        if not isinstance(observed, (list, tuple)) or len(observed) != len(expected):
            return [f"{path}: length {len(observed) if isinstance(observed, (list, tuple)) else '-'} != {len(expected)}"]
        return [d for i, (o, e) in enumerate(zip(observed, expected)) for d in compare(o, e, f"{path}[{i}]")]
    if type(observed) is not type(expected) or observed != expected:
        return [f"{path}: {observed!r} != {expected!r}"]
    return []


def rounded(value):
    """Floats cut to 12 significant digits, for a compact reference file."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded(v) for v in value]
    return value


def _exact_only(value):
    if isinstance(value, float):
        return "float"
    if isinstance(value, dict):
        return {k: _exact_only(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact_only(v) for v in value]
    return value


def digests(records: dict) -> dict[str, str]:
    """sha256 of the gate pass outputs: all fields, and non-float fields only.

    The exact digest must agree between any two correct versions; the full
    digest also changes when a float moves in its last bits.
    """
    def h(obj) -> str:
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]

    return {"full": h(records), "exact": h(_exact_only(records))}

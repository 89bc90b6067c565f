"""Command-line front-end: subcommands, exit codes, files, reproducibility."""

import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import cli, graphs, oracle, robustness, weighting
from walklab.cli import _parse, _sweep_events, build_parser, main
from walklab.graphs import generate, small_regular_catalog
from walklab.oracle import EventKind, boost_bound_audit, eta_grid, optimal_tbrw_event_prob, srw_event_prob
from walklab.rng import SplitMix64


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_summary(out_text):
    return json.loads(out_text)


# --- spectral --------------------------------------------------------------------

K4_TEXT = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def test_spectral_complete_graph_from_file(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    code, out, err = run(capsys, "spectral", "--graph", str(path))
    assert code == 0 and err == ""
    payload = read_summary(out)
    assert abs(payload["gap"] - 4 / 3) < 1e-9
    assert abs(payload["phi"] - 2 / 3) < 1e-12
    assert len(payload["eigenvalues"]) == 4


def test_spectral_writes_summary_file(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code, out, _ = run(
        capsys,
        "spectral",
        "--generate",
        "cycle:6",
        "--out",
        str(out_dir),
        "--no-timestamp",
    )
    assert code == 0
    on_disk = json.loads((out_dir / "summary.json").read_text())
    assert on_disk == read_summary(out)
    assert "timestamp" not in on_disk


@pytest.mark.parametrize("argv", [["spectral"], ["robustness-audit", "--seed", "1"]], ids=lambda a: a[0])
def test_dense_commands_refuse_a_large_graph_before_allocating(capsys, argv):
    # measured peak 2.2 MiB on rr(4096, 3, 1), where the dense chain used to
    # take 514 MiB before the refusal; the bound, 16 MiB, is an eighth of one
    # 4096 x 4096 float matrix
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "--generate", "random-regular:4096:3:1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert peak <= 16 << 20, peak
    assert err == "error: induced_chain is dense; n=4096 exceeds guard 512\n"


@pytest.mark.parametrize("spec", ["cycle:1048577", "complete:1449", "hypercube:17", "circulant:1048577:1",
                                  "random-regular:699052:3:1", "complete:100000", "hypercube:64"])
def test_generator_spec_past_the_edge_limit_is_refused_before_building(capsys, spec):
    # one edge past GENERATE_EDGES = 2^20 (or far past it): exit 2 before any
    # edge list is built; at the limit cycle:1048576 takes 3.5 s and 485 MiB
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "spectral", "--generate", spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert peak <= 1 << 20, peak
    kind = spec.split(":")[0].replace("-", "_")
    assert err == f"error: {kind} graph has more than {graphs.GENERATE_EDGES} edges, the generator limit\n"


def test_spectral_rejects_graph_and_generate_together(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    code, _, err = run(capsys, "spectral", "--graph", str(path), "--generate", "cycle:4")
    assert code == 2
    assert "error:" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectral_overflowing_weights_is_input_error(tmp_path, capsys):
    # three 1e308 weights at vertex 0 overflow its strength to inf: bad
    # input named as such, with no numpy overflow warning on the way
    path = tmp_path / "w.txt"
    g = generate("complete", n=4)
    path.write_text("".join(f"{u} {v} {1e308 if u == 0 else 1.0}\n" for u, v in g.edges))
    code, out, err = run(capsys, "spectral", "--generate", "complete:4", "--weights", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: strength of vertex 0 overflows") and "Traceback" not in err
    # every strength finite, their sum not
    path.write_text("".join(f"{u} {v} 5e307\n" for u, v in g.edges))
    code, out, err = run(capsys, "spectral", "--generate", "complete:4", "--weights", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: total edge weight overflows")


def test_malformed_graph_file_reports_line_number(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("4 3\n0 1\n1 2 7\n2 3\n")
    code, _, err = run(capsys, "spectral", "--graph", str(path))
    assert code == 2
    assert "line 3" in err


def test_unknown_generator_spec_is_input_error(capsys):
    code, _, err = run(capsys, "spectral", "--generate", "moebius:7")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "spectral", "--generate", "cycle")
    assert code == 2
    code, out, err = run(capsys, "cover-sim", "--generate", "random-regular:16:3", "--trials", "4", "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: malformed generator spec") and "Traceback" not in err


# one valid spec of every generator family
FAMILY_SPECS = ["cycle:12", "complete:4", "hypercube:3", "circulant:12:1,4", "random-regular:16:3:1"]


def test_family_specs_cover_every_family():
    assert {spec.split(":")[0].replace("-", "_") for spec in FAMILY_SPECS} == set(graphs._FAMILIES)
    for spec in FAMILY_SPECS:
        graphs.parse_generate_spec(spec)  # valid until a part is added


@pytest.mark.parametrize(
    "flag, text",
    [("--generate", f"{spec}:{extra}") for spec in FAMILY_SPECS for extra in ("5", "junk")]
    + [("--event", "cover:5"), ("--event", "return:x")],
)
def test_spec_with_extra_parts_is_input_error(capsys, flag, text):
    argv = {"--generate": ["spectral"], "--event": ["boost-audit", "--generate", "complete:4", "--t", "2"]}[flag]
    code, out, err = run(capsys, *argv, flag, text)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_spec_help_lists_every_family_and_event_word():
    commands = build_parser().commands
    generate_help = commands["spectral"]._option_string_actions["--generate"].help
    event_help = commands["boost-audit"]._option_string_actions["--event"].help
    assert [part.split(":")[0] for part in generate_help.split(": ", 1)[1].split(", ")] == [
        kind.replace("_", "-") for kind in graphs._FAMILIES
    ]
    assert [part.split(":")[0].strip() for part in event_help.split("|")] == [
        "hit", *(kind.value for kind in EventKind)
    ]


def test_generate_help_and_spec_error_read_the_family_table(monkeypatch):
    monkeypatch.setitem(graphs._FAMILIES, "wheel_graph", (lambda n: generate("complete", n=n), ("n",)))
    generate_help = build_parser().commands["spectral"]._option_string_actions["--generate"].help
    assert generate_help.endswith(", random-regular:<n>:<d>:<seed>, wheel-graph:<n>")
    with pytest.raises(graphs.GraphError, match="expected wheel-graph:<n>$"):
        graphs.parse_generate_spec("wheel-graph")


class AdvancingClock:
    """A `datetime` stand-in whose clock advances one second per reading."""

    def __init__(self):
        self.reads = 0

    def now(self, tz):
        self.reads += 1
        return datetime(2026, 1, 1, 12, 0, self.reads, tzinfo=tz)


def file_stamps(out_dir):
    """The timestamp each file of a run's --out directory starts with."""
    stamps = {}
    for path in sorted(out_dir.iterdir()):
        text = path.read_text()
        if path.name == "audit.jsonl":
            stamps[path.name] = json.loads(text.splitlines()[0])["timestamp"]
        elif path.name == "results.csv":
            stamps[path.name] = text.splitlines()[0].removeprefix("# generated ")
        else:
            stamps[path.name] = json.loads(text)["timestamp"]
    return stamps


@pytest.mark.parametrize("argv, files", [
    (["lemma-sweep", "--nmax", "2", "--tmax", "1", "--draws", "1", "--seed", "1"], ["audit.jsonl", "summary.json"]),
    (["cover-sim", "--generate", "cycle:8", "--trials", "4", "--seed", "1"], ["results.csv", "summary.json"]),
    (["lipschitz-audit", "--generate", "cycle:8", "--count", "2", "--seed", "1"], ["audit.jsonl", "summary.json"]),
], ids=["lemma-sweep", "cover-sim", "lipschitz-audit"])
def test_every_file_of_a_run_carries_the_same_stamp(monkeypatch, tmp_path, capsys, argv, files):
    # a clock that moves between readings: one reading per run stamps every file
    clock = AdvancingClock()
    monkeypatch.setattr(cli, "datetime", clock)
    code, _, err = run(capsys, *argv, "--out", str(tmp_path))
    assert (code, err) == (0, "")
    stamps = file_stamps(tmp_path)
    assert sorted(stamps) == files
    assert set(stamps.values()) == {"2026-01-01T12:00:01+00:00"} and clock.reads == 1


# --- cover-sim -------------------------------------------------------------------


def test_cover_sim_reproducible_outputs(tmp_path, capsys):
    argv = [
        "cover-sim",
        "--generate",
        "cycle:16",
        "--walk",
        "srw",
        "--trials",
        "40",
        "--seed",
        "7",
        "--no-timestamp",
    ]
    code, out_a, _ = run(capsys, *argv, "--out", str(tmp_path / "a"))
    assert code == 0
    code, out_b, _ = run(capsys, *argv, "--out", str(tmp_path / "b"))
    assert code == 0
    assert out_a == out_b
    assert (tmp_path / "a" / "results.csv").read_bytes() == (tmp_path / "b" / "results.csv").read_bytes()
    assert (tmp_path / "a" / "summary.json").read_bytes() == (tmp_path / "b" / "summary.json").read_bytes()
    lines = (tmp_path / "a" / "results.csv").read_text().splitlines()
    assert lines[0] == "trial,start_vertex,steps,walk_kind,eps,seed"
    assert len(lines) == 41
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "srw" and first[5] == "7"


def test_cover_sim_summary_fields(capsys):
    code, out, _ = run(
        capsys, "cover-sim", "--generate", "complete:4", "--trials", "200", "--seed", "3"
    )
    assert code == 0
    payload = read_summary(out)
    assert payload["trials"] == 200 and payload["walk_kind"] == "srw"
    assert payload["ci95_lo"] <= payload["mean"] <= payload["ci95_hi"]
    assert 4.0 < payload["mean"] < 7.5


def test_cover_sim_requires_seed(capsys):
    code, _, err = run(capsys, "cover-sim", "--generate", "cycle:8", "--trials", "4")
    assert code == 2
    assert "--seed" in err


def test_cover_sim_validates_walk_kind_and_trials(capsys):
    code, _, err = run(
        capsys, "cover-sim", "--generate", "cycle:8", "--walk", "moonwalk", "--seed", "1"
    )
    assert code == 2
    code, _, err = run(
        capsys, "cover-sim", "--generate", "cycle:8", "--trials", "1", "--seed", "1"
    )
    assert code == 2


@pytest.mark.parametrize(
    "extra",
    [
        ("--start", "99"),
        ("--start", "-1"),
        ("--walk", "srw", "--eps", "1.5"),
        # the plain walk used to ignore a bias and still write it to
        # summary.json and every results.csv row
        ("--walk", "srw", "--eps", "0.5"),
        ("--eps", "0.25"),
        ("--walk", "sweep", "--eps", "1.5"),
        ("--walk", "sweep", "--eps", "-0.5"),
        # a psi that no walk but phase reads used to be ignored
        ("--walk", "srw", "--psi", "5"),
        ("--walk", "sweep", "--psi", "0"),
    ],
)
def test_cover_sim_rejects_start_and_eps_out_of_range(capsys, extra):
    code, out, err = run(
        capsys, "cover-sim", "--generate", "cycle:8", "--trials", "4", "--seed", "1", *extra
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("psi", ["nan", "inf", "-1"])
def test_cover_sim_rejects_bad_psi(capsys, psi):
    # nan and inf used to run with theta = eps and exit 0
    code, out, err = run(
        capsys, "cover-sim", "--generate", "random-regular:16:3:1", "--walk", "phase", "--eps", "0.25",
        "--psi", psi, "--trials", "4", "--seed", "1",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: psi must be finite and >= 0") and "Traceback" not in err


@pytest.mark.parametrize("psi, code", [("1200", 2), ("1100", 0)])
def test_cover_sim_refuses_a_phase_tilt_that_rounds_to_one(capsys, tmp_path, psi, code):
    # 1 - e^(-psi/32) rounds to 1.0 from psi = 1197.8 on, so theta = min(1, it)
    # is 1, which the target decay cannot take; the error names the flags
    got, out, err = run(
        capsys, "cover-sim", "--generate", "random-regular:8:3:1", "--walk", "phase", "--eps", "1",
        "--psi", psi, "--trials", "2", "--seed", "1", "--out", str(tmp_path), "--no-timestamp",
    )
    assert got == code and "Traceback" not in err
    if code:
        assert out == "" and err.startswith("error: the phase tilt") and "--psi" in err and "--eps" in err


def test_cover_sim_names_the_distance_where_the_tilt_underflows(capsys, tmp_path):
    # theta = 1 - e^(-1000/32) is below 1, but (1 - theta)^k underflows to 0
    # at distance 24, within the diameter 50 of circulant:200:1,2
    code, out, err = run(
        capsys, "cover-sim", "--generate", "circulant:200:1,2", "--walk", "phase", "--eps", "1",
        "--psi", "1000", "--trials", "2", "--seed", "1", "--out", str(tmp_path), "--no-timestamp",
    )
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: target decay with tilt theta = 0.9999999999999732 underflows")
    assert "distance k = 24" in err


@pytest.mark.parametrize("spec", ["random-regular:16:3:1", "complete:5"])
def test_cover_sim_sweep_needs_a_cycle(capsys, spec):
    code, out, err = run(
        capsys, "cover-sim", "--generate", spec, "--walk", "sweep", "--eps", "0.25",
        "--trials", "4", "--seed", "1",
    )
    assert code == 2 and out == ""
    assert "cycle" in err


def test_cover_sim_phase_walk_runs(capsys):
    code, out, _ = run(
        capsys,
        "cover-sim",
        "--generate",
        "random-regular:16:3:5",
        "--walk",
        "phase",
        "--eps",
        "0.25",
        "--trials",
        "10",
        "--seed",
        "11",
    )
    assert code == 0
    assert read_summary(out)["mean"] >= 15.0


# --- cover-compare ---------------------------------------------------------------


def csv_rows(path):
    return path.read_text().splitlines()[1:]


@pytest.mark.parametrize("spec, kinds", [("cycle:12", "srw,sweep"), ("random-regular:16:3:5", "phase,srw")])
def test_cover_compare_equals_cover_sim_per_kind(tmp_path, capsys, spec, kinds):
    common = ["--generate", spec, "--trials", "30", "--seed", "-7", "--no-timestamp"]
    code, out, err = run(
        capsys, "cover-compare", *common, "--kinds", kinds, "--eps", "0.3", "--out", str(tmp_path / "c")
    )
    assert code == 0 and err == ""
    payload = read_summary(out)
    assert (payload["n"], payload["trials"], payload["seed"]) == (int(spec.split(":")[1]), 30, -7)
    compared = csv_rows(tmp_path / "c" / "results.csv")
    assert len(compared) == 2 * 30
    for stats in payload["kinds"]:
        kind = stats["walk_kind"]
        eps = "0.0" if kind == "srw" else "0.3"
        code, out, _ = run(capsys, "cover-sim", *common, "--walk", kind, "--eps", eps, "--out", str(tmp_path / kind))
        assert code == 0
        single = read_summary(out)
        assert {key: single[key] for key in stats if key in single} == {
            key: value for key, value in stats.items() if key in single
        }
        assert [row for row in compared if row.split(",")[3] == kind] == csv_rows(tmp_path / kind / "results.csv")
    srw, other = sorted(payload["kinds"], key=lambda stats: stats["walk_kind"] != "srw")
    assert "mean_ratio_to_srw" not in srw
    assert other["mean_ratio_to_srw"] == other["mean"] / srw["mean"]
    assert other["ci_separated_from_srw"] == (other["ci95_hi"] < srw["ci95_lo"] or srw["ci95_hi"] < other["ci95_lo"])


@pytest.mark.parametrize(
    "argv, message",
    [
        # an unknown kind is named before the graph (here a malformed spec) loads
        (["--generate", "cycle", "--kinds", "srw,mystery"], "error: unknown walk kinds 'mystery'"),
        (["--generate", "cycle:12", "--kinds", "srw,policy"], "error: unknown walk kinds 'policy'"),
        # srw runs first; the phase walk needs degree >= 3, and nothing prints
        (["--generate", "cycle:12", "--kinds", "srw,phase"], "error: bias extraction needs degree >= 3"),
        (["--generate", "complete:5", "--kinds", "srw,sweep"], "error: "),
        (["--generate", "cycle:12", "--trials", "-5"], "error: a cover-time estimate needs at least 2 trials"),
        # a repeated kind would write two sets of rows with the same (walk_kind, trial)
        (["--generate", "cycle", "--kinds", "srw,sweep, srw"], "error: walk kinds given more than once: 'srw'"),
        # a psi no kind reads used to be ignored
        (["--generate", "cycle", "--kinds", "srw,sweep", "--psi", "5"],
         "error: --psi sets the phase walk's expansion, and --kinds has no phase"),
    ],
    ids=["unknown-kind-before-graph", "unknown-kind", "phase-off-degree-3", "sweep-off-a-cycle", "negative-trials",
         "repeated-kind-before-graph", "psi-without-phase-before-graph"],
)
def test_cover_compare_bad_input_prints_nothing_but_one_error(capsys, argv, message):
    code, out, err = run(capsys, "cover-compare", "--trials", "4", "--seed", "5", *argv)
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_cover_compare_on_one_vertex_has_no_ratio(tmp_path, capsys):
    # every kind covers a one-vertex graph at step 0; the ratio 0/0 used to
    # end in a ZeroDivisionError traceback
    (tmp_path / "g1.txt").write_text("1 0\n")
    code, out, err = run(capsys, "cover-compare", "--graph", str(tmp_path / "g1.txt"), "--kinds", "srw,phase",
                         "--eps", "0", "--psi", "0", "--trials", "2", "--seed", "0")
    assert code == 0 and err == ""
    srw, phase = read_summary(out)["kinds"]
    assert srw["mean"] == phase["mean"] == 0.0
    assert phase["mean_ratio_to_srw"] is None and phase["ci_separated_from_srw"] is False


def test_cover_compare_files_are_reproducible(tmp_path, capsys):
    argv = ["cover-compare", "--generate", "cycle:10", "--kinds", "sweep,srw", "--trials", "8", "--seed", "3",
            "--no-timestamp"]
    for name in ("a", "b"):
        assert run(capsys, *argv, "--out", str(tmp_path / name))[0] == 0
    for name in ("results.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# --- lipschitz-audit ---------------------------------------------------------------


def test_lipschitz_audit_passes_and_writes_rows(tmp_path, capsys):
    out_dir = tmp_path / "audit"
    code, out, _ = run(
        capsys,
        "lipschitz-audit",
        "--generate",
        "cycle:8",
        "--sigma",
        "2.0",
        "--count",
        "10",
        "--seed",
        "5",
        "--out",
        str(out_dir),
        "--no-timestamp",
    )
    assert code == 0
    payload = read_summary(out)
    assert payload["failures"] == 0 and payload["count"] == 10
    assert 1.0 <= payload["max_beta"] <= 2.0
    rows = [json.loads(line) for line in (out_dir / "audit.jsonl").read_text().splitlines()]
    assert len(rows) == 10
    assert all(row["ok"] for row in rows)


def test_lipschitz_audit_beta_assertion_fails(capsys):
    # sigma 2 weightings on a cycle essentially always exceed beta 1.01
    code, out, _ = run(
        capsys,
        "lipschitz-audit",
        "--generate",
        "cycle:8",
        "--sigma",
        "2.0",
        "--count",
        "5",
        "--assert-beta-max",
        "1.01",
        "--seed",
        "5",
    )
    assert code == 1
    assert read_summary(out)["failures"] > 0


def test_lipschitz_audit_rejects_bad_sigma(capsys):
    code, _, err = run(
        capsys, "lipschitz-audit", "--generate", "cycle:8", "--sigma", "0.5", "--seed", "1"
    )
    assert code == 2


def test_lipschitz_audit_rejects_a_nan_beta_bound(capsys):
    # beta > nan is always false, so a NaN bound used to assert nothing
    code, out, err = run(
        capsys, "lipschitz-audit", "--generate", "cycle:8", "--count", "2", "--assert-beta-max", "nan", "--seed", "1"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: --assert-beta-max")


@pytest.mark.parametrize("sigma", ["1e15", "1e100"])
def test_lipschitz_audit_base_past_sigma_starts_uniform(capsys, sigma):
    # theta = 1 - 1/sigma rounds: at 1e100 it is 1 and the run used to exit 2
    # naming theta, a parameter never given; at 1e15 the target-decay base's
    # ratio 1/(1 - theta) is 1.0008e15 and max_beta came out above sigma
    code, out, err = run(
        capsys, "lipschitz-audit", "--generate", "cycle:8", "--sigma", sigma, "--count", "2", "--seed", "1"
    )
    assert code == 0 and err == ""
    assert 1.0 <= json.loads(out, parse_constant=reject_constant)["max_beta"] <= float(sigma)


@pytest.mark.parametrize("sigma", ["nan", "inf"])
@pytest.mark.parametrize(
    "command, count",
    [("lipschitz-audit", "--count"), ("robustness-audit", "--subsets")],
    ids=["lipschitz", "robustness"],
)
def test_sigma_that_is_not_finite_is_input_error(capsys, command, count, sigma):
    # nan used to run uniform weights with exit 0; with no weightings to
    # draw, lipschitz-audit also printed "sigma": NaN or Infinity, not JSON
    code, out, err = run(
        capsys, command, "--generate", "cycle:8", "--sigma", sigma, count, "0", "--seed", "1"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "sigma" in err and ">= 1" in err


def test_lipschitz_audit_of_no_weightings_has_no_max_beta(capsys):
    # 0.0 used to print here, below every Lipschitz constant (beta >= 1)
    code, out, err = run(capsys, "lipschitz-audit", "--generate", "cycle:8", "--count", "0", "--seed", "1")
    assert code == 0 and err == ""
    payload = json.loads(out, parse_constant=reject_constant)
    assert (payload["count"], payload["failures"], payload["max_beta"]) == (0, 0, None)


def test_lipschitz_audit_overflowing_bound_passes(capsys):
    # (d_max beta^2 / d_min)^k past the float range used to end in an
    # OverflowError traceback; an infinite bound is met by every ratio
    code, out, err = run(
        capsys, "lipschitz-audit", "--generate", "cycle:8", "--sigma", "1e100", "--count", "1", "--seed", "1"
    )
    assert code in (0, 1) and err == ""
    payload = json.loads(out, parse_constant=reject_constant)
    assert payload["count"] == 1 and payload["max_beta"] <= 1e100


@pytest.mark.parametrize("sigma", ["1e100", "1e200", "1.7976931348623157e308"])
@pytest.mark.parametrize("seed", ["1", "2", "5"])
def test_lipschitz_audit_huge_sigma_keeps_the_exit_code_contract(capsys, sigma, seed):
    # moves past the float range are rejected, not reported as bad weights,
    # and no overflow warning is printed (RuntimeWarning is an error here)
    code, out, err = run(
        capsys, "lipschitz-audit", "--generate", "cycle:8", "--sigma", sigma, "--count", "2", "--seed", seed
    )
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error:") and "positive and finite" not in err
    else:
        json.loads(out, parse_constant=reject_constant)


@pytest.mark.parametrize(
    "sigma, seed, message",
    [
        # at the largest float sigma the move bound itself is inf, so a vertex
        # ratio can overflow; printing that beta would put Infinity in the JSON
        ("1.7976931348623157e308", "1", "weighting 0: its Lipschitz constant overflows"),
        # a stationary mass of 0 would turn the audit's ratios into 0/0
        ("1.7e308", "11", "stationary mass of vertex 1 underflows to 0"),
    ],
)
def test_lipschitz_audit_past_the_float_range_is_input_error(capsys, sigma, seed, message):
    code, out, err = run(
        capsys, "lipschitz-audit", "--generate", "cycle:8", "--sigma", sigma, "--count", "1", "--seed", seed
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


def test_lipschitz_audit_computes_distances_once(monkeypatch, capsys):
    matrices, bfs = [], []
    real_columns, real_bfs = graphs.bfs_columns, graphs.distances_from

    def counted_columns(g, sources):
        if np.array_equal(sources, np.eye(g.n, dtype=bool)):
            matrices.append(g.n)
        return real_columns(g, sources)

    def counted_bfs(g, sources):
        bfs.append(g.n)
        return real_bfs(g, sources)

    monkeypatch.setattr(graphs, "bfs_columns", counted_columns)
    monkeypatch.setattr(graphs, "distances_from", counted_bfs)
    monkeypatch.setattr(weighting, "distances_from", counted_bfs)
    code, _, _ = run(
        capsys, "lipschitz-audit", "--generate", "random-regular:32:3:7", "--count", "8", "--seed", "1"
    )
    assert code == 0
    # the kmax default, every bottleneck base and every audit share one
    # matrix; the other searches are generator connectivity checks and one
    # multi-source search per target-decay base
    assert matrices == [32]
    assert len(bfs) < 2 * 32


def test_lipschitz_audit_stops_at_the_diameter(monkeypatch, tmp_path, capsys):
    # cycle:5 has diameter 2: every k past it audits the same pairs against
    # a larger bound, so --kmax 1000000 gives the verdicts of --kmax 2
    ks = []
    real = cli.stationary_ratio_audit
    monkeypatch.setattr(cli, "stationary_ratio_audit", lambda w, k, beta: ks.append(k) or real(w, k, beta))
    outputs = []
    for kmax in ("1000000", "2"):
        out_dir = tmp_path / kmax
        code, out, _ = run(capsys, "lipschitz-audit", "--generate", "cycle:5", "--kmax", kmax, "--count", "1",
                           "--seed", "1", "--out", str(out_dir), "--no-timestamp")
        assert code == 0
        payload = read_summary(out)
        assert payload["kmax"] == int(kmax)
        outputs.append((payload["failures"], payload["max_beta"], (out_dir / "audit.jsonl").read_text()))
    assert ks == [1, 2, 1, 2]
    assert outputs[0] == outputs[1]


# --- robustness-audit ---------------------------------------------------------------


def test_robustness_audit_uniform_complete_graph(tmp_path, capsys):
    out_dir = tmp_path / "rob"
    code, out, _ = run(
        capsys,
        "robustness-audit",
        "--generate",
        "complete:6",
        "--subsets",
        "8",
        "--seed",
        "2",
        "--out",
        str(out_dir),
        "--no-timestamp",
    )
    assert code == 0
    payload = read_summary(out)
    assert payload["failures"] == 0
    assert payload["phi_skipped"] is None and payload["gap_skipped"] is None
    assert payload["phi_value"] >= payload["phi_bound"]
    rows = [json.loads(line) for line in (out_dir / "audit.jsonl").read_text().splitlines()]
    assert len(rows) == 8


def test_robustness_audit_enumerates_expansion_once(monkeypatch, capsys):
    calls = []
    exact = graphs.vertex_expansion_exact
    counting = lambda h: calls.append(h) or exact(h)  # noqa: E731
    monkeypatch.setattr(graphs, "vertex_expansion_exact", counting)
    monkeypatch.setattr(robustness, "vertex_expansion_exact", counting)
    built = []

    def count_builds(name):
        real = getattr(robustness, name)
        monkeypatch.setattr(robustness, name, lambda *args: built.append(name) or real(*args))

    for name in ("induced_chain", "is_bipartite", "power_chain"):
        count_builds(name)
    code, out, _ = run(capsys, "robustness-audit", "--generate", "complete:6", "--subsets", "6", "--seed", "2")
    assert code == 0 and read_summary(out)["failures"] == 0
    assert len(calls) == 1
    # the Section-3 audit of all six subsets reads the slot table and builds no
    # chain; the endpoint check builds the chain and its 2K-step power once
    assert sorted(built) == ["induced_chain"] + ["is_bipartite"] * 2 + ["power_chain"]


def test_robustness_audit_skips_the_flow_check_on_a_bipartite_graph(tmp_path, capsys):
    # the odd side {1, 2, 4, 7} of the 3-cube has no 2K-step flow to the even
    # side; the flow lemma does not apply there and used to fail with exit 1
    out_dir = tmp_path / "rob"
    code, out, err = run(
        capsys, "robustness-audit", "--generate", "hypercube:3", "--seed=-5", "--out", str(out_dir), "--no-timestamp"
    )
    assert code == 0, err
    assert read_summary(out)["failures"] == 0
    rows = [json.loads(line) for line in (out_dir / "audit.jsonl").read_text().splitlines()]
    flows = [c for row in rows for c in row["checks"] if c["name"] == "flow_2K_to_complement_ge_scaled_mass"]
    assert flows and all("bipartite" in c["skipped"] and c["instances"] == 0 for c in flows)
    assert any(row["subset"] == [1, 2, 4, 7] for row in rows)


@pytest.mark.parametrize("sigma", ["2", "1.1814", "0.5", "nan", "inf"])
def test_robustness_audit_rejects_sigma_outside_the_budget_before_any_draw(monkeypatch, capsys, sigma):
    # complete:6 has K = 3 and budget exp(1/6) = 1.18136; the range is checked
    # before the weighting or the lemma audit draws anything
    called = []
    monkeypatch.setattr(cli, "random_lipschitz_weighting", lambda *a: called.append(a))
    monkeypatch.setattr(cli, "section3_lemma_audit", lambda *a, **k: called.append(a))
    code, out, err = run(capsys, "robustness-audit", "--generate", "complete:6", f"--sigma={sigma}", "--seed", "1")
    assert code == 2 and out == "" and called == []
    assert err.startswith("error: --sigma must be >= 1 and <= the budget exp(1/(2K)) = 1.18136;")
    assert err.rstrip().endswith(f"got {float(sigma)}")


def test_robustness_audit_accepts_sigma_at_the_budget(capsys):
    g = generate("complete", n=6)
    budget = robustness.section3_sigma(robustness.section3_K(robustness.psi_lower_bound(g)))
    for sigma in ("1", repr(budget)):
        code, out, err = run(capsys, "robustness-audit", "--generate", "complete:6", "--sigma", sigma, "--seed", "1")
        assert code == 0 and err == ""
        assert read_summary(out)["beta"] <= budget * (1.0 + 1e-12)


def test_robustness_audit_runs_above_the_expansion_guard(tmp_path, capsys):
    out_dir = tmp_path / "rob"
    code, out, err = run(
        capsys,
        "robustness-audit",
        "--generate",
        "random-regular:32:3:7",
        "--subsets",
        "20",
        "--seed",
        "3",
        "--out",
        str(out_dir),
        "--no-timestamp",
    )
    assert code == 0, err
    payload = read_summary(out)
    assert payload["failures"] == 0
    assert payload["phi_skipped"] is not None and payload["gap_skipped"] is None
    # byte-for-byte pins: how the subsets are batched must not change a row or the summary
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ("audit.jsonl", "summary.json")
    }
    assert digests == {
        "audit.jsonl": "bf3b692a0eb407da3b1a5680997309bee7dbdcecd41d43f10e88b9b0bfc66866",
        "summary.json": "377f5295db29230ab90c875d671acca8a7231ed68ab8f483a4daf64ddcab440b",
    }


def test_robustness_audit_checks_a_gap_bound_below_the_float_range(tmp_path, capsys):
    # cycle:40 has K = 326: 1e-8 * 2**(-4K) prints as 0.0 but is still compared, in logarithms
    out_dir = tmp_path / "rob"
    code, out, err = run(
        capsys, "robustness-audit", "--generate", "cycle:40", "--subsets", "5", "--seed", "1",
        "--out", str(out_dir), "--no-timestamp",
    )
    assert code == 0 and err == ""
    payload = read_summary(out)
    assert (payload["K"], payload["gap_bound"], payload["failures"]) == (326, 0.0, 0)
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ("audit.jsonl", "summary.json")
    }
    assert digests == {
        "audit.jsonl": "20ce99a00f66ee9434a1acd803c1d476683d02250d84d651ad79618453220fd2",
        "summary.json": "e7a0715c96e14c1e72de5c12a281063fde18f349681a40858aa7777728d2e32e",
    }


def test_robustness_audit_counts_each_failing_subset_and_exits_1(monkeypatch, tmp_path, capsys):
    # every recorded instance falls one unit short of its bound
    real = robustness.LemmaCheck.record
    monkeypatch.setattr(robustness.LemmaCheck, "record", lambda self, lhs, rhs, slack: real(self, rhs - 1.0, rhs, slack))
    code, out, _ = run(capsys, "robustness-audit", "--generate", "random-regular:20:3:2", "--subsets", "5",
                       "--seed", "6", "--out", str(tmp_path), "--no-timestamp")
    assert code == 1
    payload = read_summary(out)
    rows = [json.loads(line) for line in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert payload["failures"] == 5 == len(rows)
    assert all(not row["ok"] and any(check["failures"] for check in row["checks"]) for row in rows)


# --- robustness-sweep ----------------------------------------------------------------


def audit_rows(path):
    return [json.loads(line) for line in (path / "audit.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("spec, seed", [("complete:6", 42), ("hypercube:3", -3), ("random-regular:10:3:4", 0)])
def test_robustness_sweep_row_i_is_a_robustness_audit(tmp_path, capsys, spec, seed):
    code, out, err = run(
        capsys, "robustness-sweep", "--generate", spec, "--weightings", "3", "--subsets", "4", "--seed", str(seed),
        "--out", str(tmp_path / "sweep"), "--no-timestamp",
    )
    assert code == 0 and err == ""
    payload = read_summary(out)
    rows = audit_rows(tmp_path / "sweep")
    assert [row["weighting_index"] for row in rows] == [0, 1, 2]
    for index, row in enumerate(rows):
        code, out, _ = run(
            capsys, "robustness-audit", "--generate", spec, "--sigma", repr(payload["sigma"]), "--subsets", "4",
            "--seed", str(seed ^ index), "--out", str(tmp_path / str(index)), "--no-timestamp",
        )
        assert code == 0
        single = read_summary(out)
        assert {key: row[key] for key in single if key not in ("subsets", "seed")} == {
            key: value for key, value in single.items() if key not in ("subsets", "seed")
        }
        assert row["subset_rows"] == audit_rows(tmp_path / str(index))
    assert payload["failures"] == 0 and payload["subset_audits"] <= 3 * 4


def test_robustness_sweep_reports_the_margin_where_the_gap_bound_underflows(tmp_path, capsys):
    # cycle:40 has K = 326: gap_bound prints as 0.0, the margin comes from logarithms
    code, out, err = run(
        capsys, "robustness-sweep", "--generate", "cycle:40", "--weightings", "1", "--subsets", "1", "--seed", "1",
        "--out", str(tmp_path), "--no-timestamp",
    )
    assert code == 0 and err == ""
    assert read_summary(out)["K"] == 326
    (row,) = audit_rows(tmp_path)
    assert row["gap_bound"] == 0.0 and round(row["gap_margin_decades"], 1) == 398.6


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--generate", "random-regular:600:3:1"], "error: induced_chain is dense; n=600 exceeds guard 512"),
        (["--generate", "cycle"], "error: malformed generator spec"),
        (["--generate", "cycle:8", "--weightings", "-3"], "error: --weightings must be >= 0, got -3"),
        (["--generate", "cycle:8", "--subsets", "-2"], "error: --subsets must be >= 0, got -2"),
    ],
    ids=["spectral-guard", "malformed-spec", "negative-weightings", "negative-subsets"],
)
def test_robustness_sweep_bad_input_prints_one_error(capsys, argv, message):
    code, out, err = run(capsys, "robustness-sweep", "--weightings", "1", "--subsets", "1", "--seed", "1", *argv)
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_robustness_sweep_files_are_reproducible(tmp_path, capsys):
    argv = ["robustness-sweep", "--generate", "complete:5", "--weightings", "2", "--subsets", "3", "--seed", "9",
            "--no-timestamp"]
    for name in ("a", "b"):
        assert run(capsys, *argv, "--out", str(tmp_path / name))[0] == 0
    for name in ("audit.jsonl", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_robustness_sweep_readme_example(tmp_path, capsys):
    code, out, _ = run(
        capsys, "robustness-sweep", "--generate", "random-regular:16:3:7", "--weightings", "20", "--subsets", "50",
        "--seed", "42", "--out", str(tmp_path), "--no-timestamp",
    )
    assert code == 0
    payload = read_summary(out)
    assert (payload["K"], payload["subset_audits"], payload["failures"]) == (5, 1000, 0)
    first = audit_rows(tmp_path)[0]
    # weighting 0 as README quotes it
    assert f"{first['beta']:.6f} {first['gap_value']:.4f} {first['gap_margin_decades']:.1f}" == "1.105171 0.2026 16.8"


# --- boost-audit ---------------------------------------------------------------------


def test_boost_audit_complete_graph_event(capsys):
    code, out, _ = run(
        capsys,
        "boost-audit",
        "--generate",
        "complete:4",
        "--event",
        "hit:3",
        "--t",
        "2",
        "--eps",
        "0.3333",
    )
    assert code == 0
    payload = read_summary(out)
    assert abs(payload["p"] - 5 / 9) < 1e-12
    assert payload["ok"] is True
    assert payload["q_star"] >= payload["p"]
    assert payload["graph_id"] == "complete:4"


def test_boost_audit_requires_event_and_horizon(capsys):
    code, _, err = run(capsys, "boost-audit", "--generate", "complete:4", "--event", "hit:3")
    assert code == 2
    code, _, err = run(capsys, "boost-audit", "--generate", "complete:4", "--t", "2")
    assert code == 2


def test_boost_audit_bad_event_text(capsys):
    code, _, err = run(
        capsys, "boost-audit", "--generate", "complete:4", "--event", "jump:3", "--t", "2"
    )
    assert code == 2


@pytest.mark.parametrize("t", ["0", "2"])
@pytest.mark.parametrize("event", ["cover", "return", "hit:0"])
def test_boost_audit_on_one_vertex_is_input_error(tmp_path, capsys, event, t):
    path = tmp_path / "g1.txt"
    path.write_text("1 0\n")
    code, out, err = run(capsys, "boost-audit", "--graph", str(path), "--event", event, "--t", t)
    assert code == 2
    assert out == "" and err == "error: event DP needs n >= 2\n"


def test_boost_audit_takes_p_and_q_star_from_one_dp_pass(monkeypatch, capsys):
    passes = []
    real = oracle._dp_pass
    monkeypatch.setattr(oracle, "_dp_pass", lambda *args: passes.append(args[3]) or real(*args))
    code, out, _ = run(capsys, "boost-audit", "--generate", "complete:6", "--event", "cover", "--t", "6",
                       "--eps", "0.05")
    assert code == 0 and read_summary(out)["ok"] is True
    assert passes == [(0.0, 0.05)]


def test_boost_audit_exits_1_on_a_violation(monkeypatch, capsys):
    real = cli.boost_bound_audit
    monkeypatch.setattr(cli, "boost_bound_audit", lambda *args: replace(real(*args), q_star=-1.0))
    code, out, _ = run(capsys, "boost-audit", "--generate", "complete:4", "--event", "hit:3", "--t", "2")
    assert code == 1 and read_summary(out)["ok"] is False


@pytest.mark.parametrize("t", ["1000000000000", "100000000000000000000"])
def test_boost_audit_past_the_horizon_guard_is_bad_input(capsys, t):
    # past the guard, a pass's t + 1 values per event and eps fit neither in
    # memory (10^12) nor in a numpy dimension (10^20)
    code, out, err = run(capsys, "boost-audit", "--generate", "complete:4", "--event", "cover", "--t", t)
    assert code == 2 and out == ""
    assert err == f"error: event horizon {t} exceeds guard {oracle.HORIZON_GUARD}\n"


@pytest.mark.parametrize("argv, bound", [
    # exp(4t / d_min^eta) = exp(841): bound2 always applies at eps 0
    (["--generate", "cycle:8", "--event", "hit:4", "--t", "250", "--eps", "0", "--eta", "0.25"], "bound2"),
    # (1 + 0.7 (d_max - 1))^t = 2.4^1000
    (["--generate", "complete:4", "--event", "hit:1", "--t", "1000", "--eps", "0.7", "--eta", "1"], "bound1"),
])
def test_boost_audit_bound_past_the_float_range_is_null_and_met(capsys, argv, bound):
    code, out, err = run(capsys, "boost-audit", *argv)
    assert code == 0 and err == ""
    payload = json.loads(out, parse_constant=reject_constant)
    margin = bound.replace("bound", "margin")
    assert payload[bound] is None and payload[margin] is None and payload["ok"] is True
    assert payload["p"] > 0.99


def test_boost_audit_p_zero_bound_is_zero_where_its_power_overflows(tmp_path, capsys):
    # a path 0..160 and 100 leaves on vertex 0: vertex 160 is out of reach in
    # 159 steps, so p = q* = 0, while (1 + (d_max - 1))^159 = 101^159 overflows
    edges = [(v, v + 1) for v in range(160)] + [(0, leaf) for leaf in range(161, 261)]
    path = tmp_path / "broom.txt"
    path.write_text(f"261 {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges))
    code, out, err = run(capsys, "boost-audit", "--graph", str(path), "--event", "hit:160", "--t", "159", "--eps", "1")
    assert code == 0 and err == ""
    payload = read_summary(out)
    assert (payload["p"], payload["q_star"], payload["bound1"], payload["margin1"]) == (0.0, 0.0, 0.0, 0.0)
    assert payload["bound2"] is None and payload["ok"] is True


# --- lemma-sweep -----------------------------------------------------------------------


def test_lemma_sweep_small_grid(capsys):
    code, out, _ = run(
        capsys,
        "lemma-sweep",
        "--nmax",
        "4",
        "--tmax",
        "2",
        "--draws",
        "200",
        "--seed",
        "9",
    )
    assert code == 0
    payload = read_summary(out)
    assert payload["failures"] == 0 and payload["conv_failures"] == 0
    assert payload["queries"] > 0 and payload["conv_draws"] == 200


def test_lemma_sweep_rows_match_per_query_audits(tmp_path, capsys):
    # each row is its own one-query audit, and its p and q* are the
    # single-eps DP passes bit for bit (JSON floats round-trip exactly).
    # --nmax 5 --tmax 4 is the certify slot; at --nmax 6, complete:6 has no
    # bound2 at eps 0.05 and eta 1 (1/25 < 0.05); at --tmax 200, complete:2
    # (degree 1) has exp(4t) past the float range at every eps, checked at
    # t = 200 only
    cases = ((5, 4, range(1, 5), set()), (6, 2, range(1, 3), {0.05}), (2, 200, [200], {0.0, 0.05, 1.0}))
    for nmax, tmax, horizons, null_eps in cases:
        out = tmp_path / f"{nmax}-{tmax}"
        code, _, _ = run(
            capsys, "lemma-sweep", "--nmax", str(nmax), "--tmax", str(tmax), "--draws", "0", "--seed", "9",
            "--out", str(out), "--no-timestamp",
        )
        assert code == 0
        expected, singles = [], []
        for name, g in sorted(small_regular_catalog().items()):
            if g.n > nmax:
                continue
            d = g.regular_degree
            for event in _sweep_events(g, tmax):
                if event.horizon not in horizons:
                    continue
                p = srw_event_prob(g, 0, event)
                for eps in (0.0, 0.05, 1.0 / d**2):
                    q_star = optimal_tbrw_event_prob(g, 0, event, eps)
                    for eta in eta_grid(d):
                        row = boost_bound_audit(g, 0, event, eps, eta).to_json_dict(graph_id=name)
                        expected.append(json.dumps(row, sort_keys=True) + "\n")
                        singles.append((p, q_star))
        lines = (out / "audit.jsonl").read_text().splitlines(keepends=True)
        got = [line for line in lines if json.loads(line)["t"] in horizons]
        # report the first differing row only: a full diff of ~2700 rows takes minutes
        mismatch = next(((i, a, b) for i, (a, b) in enumerate(zip(got, expected)) if a != b), None)
        assert len(got) == len(expected) and mismatch is None, (nmax, tmax, mismatch)
        rows = list(map(json.loads, got))
        assert [(row["p"], row["q_star"]) for row in rows] == singles
        assert {row["eps"] for row in rows if row["bound2"] is None} == null_eps


def test_lemma_sweep_files_are_pinned(tmp_path, capsys):
    # the certify benchmark's lemma-sweep slot, convexity draws included
    code, _, _ = run(
        capsys, "lemma-sweep", "--nmax", "5", "--tmax", "4", "--draws", "2000", "--seed", "5",
        "--no-timestamp", "--out", str(tmp_path),
    )
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("audit.jsonl", "summary.json")
    }
    assert digests == {
        "audit.jsonl": "cc93e560b3b95861e0a35dc0bebd22f294708641452399a1cd19cfb7f66abe19",
        "summary.json": "fb430082b46b924c0d9f2f06cfe77da277d06b06aafa99260d99310ccef82faf",
    }


def test_lemma_sweep_makes_one_dp_pass_per_graph(monkeypatch, capsys):
    # the certify slot's six catalog graphs, every event of a graph stacked
    passes = []
    real = oracle._dp_pass
    monkeypatch.setattr(oracle, "_dp_pass", lambda *args: passes.append(len(args[2])) or real(*args))
    code, out, _ = run(capsys, "lemma-sweep", "--nmax", "5", "--tmax", "4", "--draws", "0", "--seed", "5")
    assert code == 0 and read_summary(out)["queries"] == 2664
    # complete:2, complete:4, complete:5, cycle:3, cycle:4, cycle:5: n hit
    # events, n(n - 1)/2 pair events and cover each
    assert passes == [4, 11, 16, 7, 11, 16]


def test_lemma_sweep_criterion_9_files_are_pinned(tmp_path, capsys):
    # acceptance criterion 9's full grid: the 6-vertex graphs (prism, k33,
    # octahedron), horizon 5 and 10000 convexity draws
    code, _, _ = run(
        capsys, "lemma-sweep", "--nmax", "6", "--tmax", "5", "--draws", "10000", "--seed", "900",
        "--no-timestamp", "--out", str(tmp_path),
    )
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("audit.jsonl", "summary.json")
    }
    assert digests == {
        "audit.jsonl": "fc7cfc5680f5ad9153d284b3e3b9b04c22097fedaa169f38009d03880ef027d1",
        "summary.json": "ba65618da3b8f75f4b1cb19fd74f20d3ec0d1ec5e07d44d598d0d9f92f6c97b7",
    }


@pytest.mark.parametrize(
    "argv, queries, draws",
    [(["--tmax", "0"], 0, 10), (["--draws", "0"], 2664, 0), (["--nmax", "0"], 0, 10), (["--draws", "1"], 2664, 1)],
)
def test_lemma_sweep_with_no_events_or_no_draws_succeeds(capsys, argv, queries, draws):
    base = {"--nmax": "5", "--tmax": "4", "--draws": "10"}
    base.update(zip(argv[::2], argv[1::2]))
    code, out, _ = run(capsys, "lemma-sweep", *[x for item in base.items() for x in item], "--seed", "3")
    payload = read_summary(out)
    assert code == 0
    assert (payload["queries"], payload["conv_draws"], payload["failures"], payload["conv_failures"]) == (
        queries, draws, 0, 0)


def test_lemma_sweep_checks_tmax_before_it_builds_an_event(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "_sweep_events", lambda *args: built.append(args) or [])
    code, out, err = run(capsys, "lemma-sweep", "--tmax", "1000000000000", "--draws", "0", "--seed", "1")
    assert code == 2 and out == "" and err.startswith("error:")
    assert built == []


def test_lemma_sweep_past_the_float_range_writes_null_and_meets_the_bound(tmp_path, capsys):
    # complete:2 has degree 1, so exp(4t / d_min^eta) overflows from t = 178 on
    code, out, err = run(capsys, "lemma-sweep", "--nmax", "4", "--tmax", "200", "--draws", "0", "--seed", "1",
                         "--out", str(tmp_path), "--no-timestamp")
    assert code == 0 and err == ""
    assert read_summary(out)["failures"] == 0
    past = [row for row in audit_rows(tmp_path) if row["graph_id"] == "complete:2" and row["t"] >= 178]
    assert len(past) == 23 * 4 * 3 * 3
    assert all(row["bound2"] is None and row["margin2"] is None for row in past if row["eps"] == 0.0)


def test_lemma_sweep_counts_the_cells_whose_report_fails(monkeypatch, capsys):
    # each of BoostReport.ok's three checks fails on its own in some cells:
    # q* below p, margin1 below the slack, and margin2 at some eta only
    real, grids = cli.boost_bound_grid, []

    def perturbed(*args):
        grid = []
        for k, values in enumerate(real(*args)):
            if k % 3 == 0:
                values = replace(values, q_stars=[values.p - 1e-6] * len(values.q_stars))
            elif k % 3 == 1:
                values = replace(values, bound1s=[q_star - 2e-9 for q_star in values.q_stars])
            else:
                values = replace(values, bound2s=[values.q_stars[-1] - 2e-9 * (h % 2) for h in range(len(values.etas))])
            grid.append(values)
        grids.append(grid)
        return grid

    monkeypatch.setattr(cli, "boost_bound_grid", perturbed)
    code, out, _ = run(capsys, "lemma-sweep", "--nmax", "4", "--tmax", "3", "--draws", "0", "--seed", "5")
    payload = read_summary(out)
    cells = [
        values.report(e, h) for grid in grids for values in grid
        for e in range(len(values.eps_values)) for h in range(len(values.etas))
    ]
    expected = sum(not report.ok for report in cells)
    assert code == 1 and payload["queries"] == len(cells)
    assert payload["failures"] == expected
    # the third kind of event fails in only some of its cells
    assert 2 * len(cells) / 3 < expected < len(cells)


def test_lemma_sweep_checks_its_row_count_before_any_dp_pass(monkeypatch, capsys):
    # 1920 rows per horizon at the default --nmax: 546 horizons fit in
    # SWEEP_ROWS = 2^20, 547 do not
    calls = []
    monkeypatch.setattr(cli, "boost_bound_grid", lambda *args: calls.append(args) or [])
    code, out, _ = run(capsys, "lemma-sweep", "--tmax", "546", "--draws", "0", "--seed", "1")
    assert code == 0 and read_summary(out)["queries"] == 546 * 1920 <= cli.SWEEP_ROWS
    assert len(calls) == len(small_regular_catalog())
    calls.clear()
    code, out, err = run(capsys, "lemma-sweep", "--tmax", "547", "--draws", "0", "--seed", "1")
    assert code == 2 and out == "" and calls == []
    assert err == f"error: --nmax 6 --tmax 547 make {547 * 1920} audit rows, past the limit {cli.SWEEP_ROWS}\n"


def test_lemma_sweep_convexity_draws_follow_the_scalar_stream(monkeypatch, capsys):
    # audit i decodes the record of scalar draws 15i + 1 .. 15i + 15; the
    # batches carry the audits in stream order within each degree, in one
    # chunk and across chunk ends (300 = 42 * 7 + 6)
    rng = SplitMix64.stream(5, 0)
    expected = {d: [] for d in range(3, 7)}
    for _ in range(300):
        z = [rng.next_u64() for _ in range(15)]
        unit = [(x >> 11) / 2.0**53 for x in z]
        d = 3 + z[0] % 4
        raw = unit[1 : d + 1]
        total = sum(raw)
        b = [x / total for x in raw]
        v = unit[7 : d + 7]
        eta = (0.25, 0.5, 1.0)[z[13] % 3]
        expected[d].append((d, unit[14] / d ** (2.0 * eta), eta, v, b))

    def audit(d, eps, eta, v, b):
        seen[d] += zip([d] * len(v), eps.tolist(), eta.tolist(), v.tolist(), b.tolist())
        return np.ones(len(v), dtype=bool)

    monkeypatch.setattr(cli, "conv_lemma_audit", audit)
    for chunk in (cli.CONV_CHUNK, 7):
        seen = {d: [] for d in range(3, 7)}
        monkeypatch.setattr(cli, "CONV_CHUNK", chunk)
        code, _, _ = run(capsys, "lemma-sweep", "--nmax", "2", "--tmax", "1", "--draws", "300", "--seed", "5")
        assert code == 0 and seen == expected, chunk


def test_lemma_sweep_convexity_memory_does_not_grow_with_draws():
    # draws and records of a chunk at a time (the next chunk's block is made
    # before the last one is freed): measured 1.2 MiB for 3 and for 20 chunks
    peaks = []
    for count in (3 * cli.CONV_CHUNK, 20 * cli.CONV_CHUNK):
        tracemalloc.start()
        try:
            failures = sum(int(np.count_nonzero(~ok)) for ok in cli._conv_audits(5, count))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert failures == 0
    assert peaks[1] < 2 * 2**20 and peaks[1] < 1.05 * peaks[0], peaks


@pytest.mark.parametrize("failing", ["boost", "conv"])
def test_lemma_sweep_counts_each_violation_and_exits_1(monkeypatch, capsys, failing):
    if failing == "boost":
        real = cli.boost_bound_grid
        # q* below p: every report of the grid fails
        monkeypatch.setattr(cli, "boost_bound_grid",
                            lambda *args: [replace(v, q_stars=[v.p - 1.0] * len(v.q_stars)) for v in real(*args)])
    else:
        monkeypatch.setattr(cli, "conv_lemma_audit", lambda d, eps, eta, v, b: np.zeros(len(v), dtype=bool))
    code, out, _ = run(capsys, "lemma-sweep", "--nmax", "3", "--tmax", "2", "--draws", "40", "--seed", "5")
    payload = read_summary(out)
    assert code == 1
    assert payload["queries"] > 0
    assert payload["failures"] == (payload["queries"] if failing == "boost" else 0)
    assert payload["conv_failures"] == (40 if failing == "conv" else 0)


# --- config files -----------------------------------------------------------------------


def test_config_file_supplies_values_and_flags_win(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# cover experiment defaults\n"
        "generate = complete:4\n"
        "trials = 50\n"
        "seed = 21\n"
        "no-timestamp = true\n"
    )
    code, out_a, _ = run(capsys, "cover-sim", "--config", str(config))
    assert code == 0
    payload = read_summary(out_a)
    assert payload["trials"] == 50 and payload["seed"] == 21

    code, out_b, _ = run(capsys, "cover-sim", "--config", str(config), "--trials", "60")
    assert code == 0
    assert read_summary(out_b)["trials"] == 60


def test_config_file_unknown_key_is_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("generate = complete:4\nseed = 1\nwarp_speed = 9\n")
    code, _, err = run(capsys, "cover-sim", "--config", str(config))
    assert code == 2
    assert "warp_speed" in err


def test_config_file_malformed_line(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("generate complete:4\n")
    code, _, err = run(capsys, "cover-sim", "--config", str(config))
    assert code == 2
    assert "line 1" in err or ":1:" in err


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "cover-sim", "--config", "/nonexistent/nope.cfg")
    assert code == 2


@pytest.mark.parametrize(
    "command, lines, key",
    [
        (["lipschitz-audit", "--generate", "cycle:8", "--seed", "1"], "count = 3\n# again\ncount = 4\n", "count"),
        (["cover-sim", "--generate", "cycle:8", "--trials", "2", "--seed", "1"],
         "no_timestamp = yes\n\nno-timestamp = no\n", "no_timestamp"),
    ],
    ids=["count", "no-timestamp"],
)
def test_config_key_given_twice_is_refused(tmp_path, capsys, command, lines, key):
    # the last value used to win silently: 4 weightings, or a stamp on every file
    config = tmp_path / "run.cfg"
    config.write_text(lines)
    code, out, err = run(capsys, *command, "--out", str(tmp_path / "out"), "--config", str(config))
    assert code == 2 and out == "" and not (tmp_path / "out").exists()
    assert err == f"error: {config}: config key {key} given twice, on lines 1 and 3\n"


def every_flag():
    for name, command in build_parser().commands.items():
        for action in command._actions:
            if action.dest not in ("help", "config"):
                yield name, action


NEEDED = {"--seed": "1", "--event": "cover", "--t": "2"}


def needed_argv(command, skip):
    """`command` with valid values for its required flags, `skip` left out."""
    argv = [command]
    for action in build_parser().commands[command]._actions:
        flag = action.option_strings[0]
        if action.needed and flag != skip:
            argv += [flag, NEEDED[flag]]
    return argv


@pytest.mark.parametrize(
    "command, action", list(every_flag()), ids=[f"{c}{a.option_strings[0]}" for c, a in every_flag()]
)
def test_config_keys_resolve_like_their_flags(tmp_path, command, action):
    flag, key = action.option_strings[0], action.dest
    config = tmp_path / "run.cfg"

    def resolved(*argv, config_lines=None):
        if config_lines is not None:
            config.write_text(config_lines)
            argv = ("--config", str(config), *argv)
        args = vars(_parse([*needed_argv(command, flag), *argv]))
        del args["config"]
        return args

    if action.nargs == 0:  # the --no-timestamp switch
        assert resolved(config_lines=f"{key} = true\n") == resolved(flag)
        assert resolved(config_lines=f"{key.replace('_', '-')} = off\n") == resolved()
        assert resolved(flag, config_lines=f"{key} = no\n") == resolved(flag)
        return
    first, second = {int: ("3", "4"), float: ("0.5", "0.75"), None: ("a:1", "b:2")}[action.type]
    for spelling in (key, key.replace("_", "-")):
        args = resolved(config_lines=f"{spelling} = {first}\n")
        assert args == resolved(flag, first)
        assert args[key] == (action.type or str)(first) != action.default
        assert resolved(flag, second, config_lines=f"{spelling} = {first}\n") == resolved(flag, second)


# --- malformed flags and the README ----------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["cover-sim", "--generate", "cycle:8", "--trials", "abc", "--seed", "1"],
        ["cover-sim", "--generate", "cycle:8", "--seed", "1", "--warp-speed", "9"],
        ["cover-sim", "--generate", "cycle:8", "--seed"],
        ["warp"],
        [],
        ["cover-compare", "--generate", "cycle:8", "--trials", "abc", "--seed", "1"],
        ["robustness-sweep", "--generate", "cycle:8", "--weightings", "x", "--seed", "1"],
    ],
    ids=["non-numeric", "unknown-flag", "missing-value", "unknown-command", "no-command", "compare-trials",
         "sweep-weightings"],
)
def test_malformed_flags_exit_2_in_process(capsys, argv):
    # these used to print argparse's usage text and raise SystemExit(2)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "usage:" not in err and err.count("\n") == 1


def test_readme_cli_lines_parse():
    # a renamed or retyped flag fails here, not in a reader's shell
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("walklab ")]
    for line in lines:
        argv = shlex.split(line)[1:]
        assert _parse(argv).command == argv[0], line
    assert {shlex.split(line)[1] for line in lines} == set(build_parser().commands)


# --- process-level smoke ------------------------------------------------------------------


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "walklab.cli", "boost-audit", "--generate", "complete:4",
         "--event", "hit:3", "--t", "2", "--eps", "0.25"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


# --- exit-code contract under arbitrary flag values ------------------------------------


def good_or_bad(good, bad):
    """Half the draws from in-range values, half from out-of-range ones."""
    return st.sampled_from(good) | st.sampled_from(bad)


SPECS = good_or_bad(
    ["cycle:8", "complete:5", "hypercube:3", "circulant:8:1,2", "random-regular:8:3:1",
     "random-regular:10:3:4"],
    ["cycle:2", "complete:1", "hypercube:0", "random-regular:5:3:1", "random-regular:4:5:1",
     "moebius:7", "cycle", "complete:100000", "hypercube:64"],
)
# values that no int or float flag parses
MALFORMED = ["abc", "1e", ""]
FLOATS = good_or_bad(
    ["0", "0.25", "1", "2"], ["1.5", "-1", "nan", "inf", "-inf", "1e100", "1e308", "1e-300", *MALFORMED]
)
SMALL_INTS = good_or_bad(["0", "1", "3"], ["-1", "99", "2.5", *MALFORMED])
WORK = st.sampled_from(["-1", "0", "2", "two"])
SEEDS = st.sampled_from(["0", "1", "-5", str(2**64 + 3)])


def flags(draw, **options):
    """Each flag with its drawn value, or left out; `--flag=value`, so "-inf" reads as a value."""
    argv = []
    for name, values in options.items():
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"--{name.replace('_', '-')}={value}")
    return argv


# graphs below every generator's range: one vertex, and one edge
TINY_GRAPHS = {"g1.txt": "1 0\n", "g2.txt": "2 1\n0 1\n"}


@pytest.fixture(scope="module")
def tiny_graphs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tiny")
    for name, text in TINY_GRAPHS.items():
        (directory / name).write_text(text)
    return directory


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(sorted(build_parser().commands)))
    argv = [command]
    if command != "lemma-sweep":
        # a graph file is named relative to the `tiny_graphs` directory
        source = draw(st.sampled_from(["generate", "graph"]))
        argv.append(f"--graph={draw(st.sampled_from(sorted(TINY_GRAPHS)))}" if source == "graph"
                    else f"--generate={draw(SPECS)}")
    if command not in ("spectral", "boost-audit"):
        argv.append(f"--seed={draw(SEEDS)}")
    # work-size flags are always given, since their defaults take seconds
    if command == "lipschitz-audit":
        argv.append(f"--count={draw(WORK)}")
        argv += flags(draw, sigma=FLOATS, kmax=SMALL_INTS, assert_beta_max=FLOATS)
    elif command == "robustness-audit":
        argv += flags(draw, sigma=FLOATS, subsets=WORK)
    elif command == "robustness-sweep":
        argv += [f"--weightings={draw(WORK)}", f"--subsets={draw(WORK)}"]
    elif command == "cover-sim":
        argv += flags(draw, walk=good_or_bad(["srw", "phase", "sweep"], ["policy"]), eps=FLOATS, psi=FLOATS,
                      start=SMALL_INTS, trials=good_or_bad(["2", "40"], ["-1", "1", "forty"]))
    elif command == "cover-compare":
        argv.append(f"--trials={draw(good_or_bad(['2', '40'], ['-1', '1', 'forty']))}")
        argv += flags(draw, kinds=good_or_bad(["srw", "srw,phase", "sweep,srw", "phase,sweep"], ["srw,policy", ""]),
                      eps=FLOATS, psi=FLOATS)
    elif command == "boost-audit":
        event = good_or_bad(["hit:0", "hit:1", "hitall:0,1", "hitany:1,2", "cover", "return"],
                            ["hit:99", "hit:x", "bogus"])
        argv.append(f"--event={draw(event)}")
        # horizons of 200 and 1000 with eta 0.25 and eps 0.7 take both bounds past the float range
        argv.append(f"--t={draw(good_or_bad(['1', '3', '200', '1000'], ['-1', '0', 'x', '1000000000000']))}")
        argv += flags(draw, eps=FLOATS | st.just("0.7"), eta=FLOATS, start=SMALL_INTS)
    elif command == "lemma-sweep":
        argv.append(f"--nmax={draw(st.sampled_from(['-1', '0', '4', 'four']))}")
        argv.append(f"--tmax={draw(st.sampled_from(['-1', '0', '2', '200', '2.0', '1000000000000']))}")
        argv.append(f"--draws={draw(st.sampled_from(['-1', '0', '10', '']))}")
    # one flag no subcommand owns, in about one call of ten
    argv += draw(st.sampled_from([[]] * 9 + [["--warp-speed=9"]]))
    return argv


def parses(kind, text):
    try:
        (kind or str)(text)
    except ValueError:
        return False
    return True


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@given(cli_calls())
@settings(max_examples=600, deadline=None)
def test_every_flag_value_keeps_the_exit_code_contract(tiny_graphs, argv):
    # 0 success, 1 audit violation, 2 bad input, never a traceback; a
    # summary is strict JSON (no NaN or Infinity) and exit 1 names a failure
    argv = [f"--graph={tiny_graphs / arg[8:]}" if arg.startswith("--graph=") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    work_flags = ("--count=", "--kmax=", "--subsets=", "--weightings=", "--nmax=", "--tmax=", "--draws=")
    if any(arg.startswith(work_flags) and arg.endswith("=-1") for arg in argv):
        assert code == 2, argv  # a negative work count is bad input
    owned = build_parser().commands[argv[0]]._option_string_actions
    for arg in argv[1:]:
        flag, _, value = arg.partition("=")
        if flag not in owned or not parses(owned[flag].type, value):
            assert code == 2, argv  # an unknown flag, or a value its flag's type rejects
    if "--assert-beta-max=nan" in argv:
        assert code == 2, argv  # beta > nan is always false: the bound would assert nothing
    if code == 2:
        assert err.getvalue().startswith("error:"), argv
        return
    payload = json.loads(out.getvalue(), parse_constant=reject_constant)
    if code == 1:
        assert payload.get("failures", 0) + payload.get("conv_failures", 0) > 0 or payload.get("ok") is False

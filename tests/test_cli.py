"""Command-line front-end: subcommands, exit codes, files, reproducibility."""

import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import cli, graphs, robustness, weighting
from walklab.cli import _parse, _sweep_events, build_parser, main
from walklab.graphs import generate, small_regular_catalog, write_graph_file
from walklab.oracle import EventKind, boost_bound_audit, eta_grid
from walklab.rng import SplitMix64


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_summary(out_text):
    return json.loads(out_text)


# --- spectral --------------------------------------------------------------------


def test_spectral_complete_graph_from_file(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    write_graph_file(generate("complete", n=4), path)
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


def test_spectral_rejects_graph_and_generate_together(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    write_graph_file(generate("complete", n=4), path)
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
    real_matrix, real_bfs = graphs.all_pairs_distances, graphs.distances_from

    def counted_matrix(g):
        matrices.append(g.n)
        return real_matrix(g)

    def counted_bfs(g, sources):
        bfs.append(g.n)
        return real_bfs(g, sources)

    monkeypatch.setattr(graphs, "all_pairs_distances", counted_matrix)
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
    # one build for the Section-3 audit of all six subsets, one for the endpoint check
    assert sorted(built) == ["induced_chain"] * 2 + ["is_bipartite"] * 2 + ["power_chain"] * 2


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
        "audit.jsonl": "a3ef710bbac054d0938840443cbb4aceb9190f5d8ddc35109fff989a2e20a126",
        "summary.json": "377f5295db29230ab90c875d671acca8a7231ed68ab8f483a4daf64ddcab440b",
    }


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
    code, _, _ = run(
        capsys, "lemma-sweep", "--nmax", "5", "--tmax", "4", "--draws", "0", "--seed", "9",
        "--out", str(tmp_path), "--no-timestamp",
    )
    assert code == 0
    expected = []
    for name, g in sorted(small_regular_catalog().items()):
        if g.n > 5:
            continue
        d = g.regular_degree
        for event in _sweep_events(g, 4):
            for eps in (0.0, 0.05, 1.0 / d**2):
                for eta in eta_grid(d):
                    row = boost_bound_audit(g, 0, event, eps, eta).to_json_dict(graph_id=name)
                    expected.append(json.dumps(row, sort_keys=True) + "\n")
    got = (tmp_path / "audit.jsonl").read_text().splitlines(keepends=True)
    # report the first differing row only: a full diff of ~2700 rows takes minutes
    mismatch = next(((i, a, b) for i, (a, b) in enumerate(zip(got, expected)) if a != b), None)
    assert len(got) == len(expected) and mismatch is None, mismatch


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


def test_lemma_sweep_convexity_draws_follow_the_scalar_stream(monkeypatch, capsys):
    # the block-draw loop passes the audit what randrange/next_float give
    seen = []
    monkeypatch.setattr(cli, "conv_lemma_audit", lambda *args: seen.append(args) or True)
    code, _, _ = run(capsys, "lemma-sweep", "--nmax", "2", "--tmax", "1", "--draws", "300", "--seed", "5")
    assert code == 0
    rng = SplitMix64.stream(5, 0)
    expected = []
    for _ in range(300):
        d = 3 + rng.randrange(4)
        raw = [rng.next_float() for _ in range(d)]
        total = sum(raw)
        b = [x / total for x in raw]
        v = [rng.next_float() for _ in range(d)]
        eta = (0.25, 0.5, 1.0)[rng.randrange(3)]
        expected.append((d, rng.next_float() / d ** (2.0 * eta), eta, v, b))
    assert seen == expected


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
    ],
    ids=["non-numeric", "unknown-flag", "missing-value", "unknown-command", "no-command"],
)
def test_malformed_flags_exit_2_in_process(capsys, argv):
    # these used to print argparse's usage text and raise SystemExit(2)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "usage:" not in err


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
     "moebius:7", "cycle"],
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
    command = draw(st.sampled_from(
        ["spectral", "lipschitz-audit", "robustness-audit", "cover-sim", "boost-audit", "lemma-sweep"]
    ))
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
    elif command == "cover-sim":
        argv += flags(draw, walk=good_or_bad(["srw", "phase", "sweep"], ["policy"]), eps=FLOATS, psi=FLOATS,
                      start=SMALL_INTS, trials=good_or_bad(["2", "40"], ["-1", "1", "forty"]))
    elif command == "boost-audit":
        event = good_or_bad(["hit:0", "hit:1", "hitall:0,1", "hitany:1,2", "cover", "return"],
                            ["hit:99", "hit:x", "bogus"])
        argv.append(f"--event={draw(event)}")
        argv.append(f"--t={draw(good_or_bad(['1', '3'], ['-1', '0', 'x']))}")
        argv += flags(draw, eps=FLOATS, eta=FLOATS, start=SMALL_INTS)
    elif command == "lemma-sweep":
        argv.append(f"--nmax={draw(st.sampled_from(['-1', '0', '4', 'four']))}")
        argv.append(f"--tmax={draw(st.sampled_from(['-1', '0', '2', '2.0']))}")
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
    work_flags = ("--count=", "--kmax=", "--subsets=", "--nmax=", "--tmax=", "--draws=")
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

"""The benchmark's own tests.

    python3 -m pytest -q perfbench/tests

They run the benchmark at --seconds 1 (gate pass plus one or two timed
passes), check the gate against deliberately altered outputs and programs,
and check that the traced run reaches every wrapped entry point on the
workload that exercises it.  One to two minutes on two cores.
"""
from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
from workloads import WORKLOADS, derive_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def run_bench(root: Path, workload: str, trace: int, seed: int = 3) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def spans(root: Path, workload: str, seed: int = 3) -> list[list]:
    path = root / ".bench_work" / f"spans-{workload}-seed{seed}.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


# --- smoke ---------------------------------------------------------------------


def test_smoke_prints_every_end_to_end_metric_with_unit():
    rc, lines = run_bench(ROOT, "mc-wide", trace=0)
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines[:-1])


TRACE_EXPECT = {
    # workload -> span names that must appear, span module prefixes that must not
    "mc-wide": (
        {"cli.main", "graphs.generate", "rng.block_u64", "walks.estimate_cover_time"},
        {"oracle", "chains", "robustness", "weighting"},
    ),
    "mc-phase": (
        {"cli.main", "rng.block_u64", "walks.estimate_cover_time", "walks.extract_bias_matrix",
         "weighting.induced_chain", "weighting.target_decay_weighting", "chains.validate"},
        {"oracle", "robustness"},
    ),
    "certify": (
        {"cli.main", "graphs.generate", "graphs.vertex_expansion_exact", "weighting.induced_chain",
         "weighting.random_lipschitz_weighting", "weighting.stationary_ratio_audit",
         "weighting.lipschitz_beta", "chains.validate", "chains.spectral_gap",
         "chains.edge_conductance_exact", "chains.power_chain", "robustness.section3_lemma_audit",
         "robustness.theorem31_check", "oracle.srw_event_prob", "oracle.optimal_tbrw_event_prob",
         "oracle.boost_bound_audit", "oracle.conv_lemma_audit"},
        {"walks", "rng"},
    ),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reaches_every_wrapped_function(workload):
    rc, lines = run_bench(ROOT, workload, trace=1)
    assert rc == 0, lines[-5:]
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}

    timed = [s for s in spans(ROOT, workload) if s[4] != "setup"]
    names = {s[0] for s in timed}
    must, must_not = TRACE_EXPECT[workload]
    assert must <= names, must - names
    assert not {n for n in names if n.split(".")[0] in must_not}
    assert metrics["trace.overhead"] > 0

    if workload == "mc-phase":
        assert 0 < metrics["walks.phases_per_trial"] <= math.log2(512) + 1
        assert metrics["trace.bias_share"] >= 0.7
    if workload == "certify":
        assert metrics["oracle.dp_runs"] > 0 and metrics["graphs.expansion_calls"] > 0
        assert metrics["trace.exact_share"] >= 0.9
    if workload.startswith("mc-"):
        assert 0 < metrics["rng.draws_used_ratio"] <= 1


# --- gate ----------------------------------------------------------------------


def test_reference_matches_itself_and_rejects_one_altered_step_count():
    expected = REFERENCE["mc-wide"]["srw-k4"]
    assert gate.compare(copy.deepcopy(expected), expected) == []
    altered = copy.deepcopy(expected)
    altered["outputs"]["rows"]["values"][17][2] += 1
    diffs = gate.compare(altered, expected)
    assert len(diffs) == 1 and "[17][2]" in diffs[0]


def test_reference_rejects_one_flipped_verdict():
    expected = REFERENCE["certify"]["robustness-audit"]
    altered = copy.deepcopy(expected)
    rows = altered["outputs"]["rows"]
    rows["values"][2][rows["columns"].index("ok")] = False
    assert gate.compare(altered, expected)
    slot = next(s for s in WORKLOADS["certify"] if s.name == "robustness-audit")
    argv = list(slot.argv) + ["--seed", "1"]
    assert gate.invariant_problems(slot, argv, 0, None, expected["outputs"]) == []
    assert gate.invariant_problems(slot, argv, 0, None, altered["outputs"])


def test_float_tolerance_admits_solver_noise_only():
    expected = REFERENCE["certify"]["spectral"]
    noisy = copy.deepcopy(expected)
    noisy["outputs"]["summary"]["gap"] += 6.6e-14
    assert gate.compare(noisy, expected) == []
    noisy["outputs"]["summary"]["gap"] *= 1 + 1e-6
    assert gate.compare(noisy, expected)


def _patched_checkout(tmp_path: Path, module: str, old: str, new: str) -> Path:
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    path = tmp_path / "src" / "walklab" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return tmp_path


def test_altered_step_count_fails_the_run(tmp_path):
    root = _patched_checkout(
        tmp_path, "walks.py",
        "rows.append(CoverRow(trial=trial, start_vertex=start, steps=steps))",
        "rows.append(CoverRow(trial=trial, start_vertex=start, steps=steps + (trial == 5)))",
    )
    rc, lines = run_bench(root, "mc-wide", trace=0)
    result = json.loads(lines[-1])
    assert rc != 0 and result["correct"] is False and result["failed"] >= 3
    assert any(line.startswith("GATE FAIL") and "reference" in line for line in lines)


def test_flipped_verdict_fails_the_run(tmp_path):
    root = _patched_checkout(
        tmp_path, "cli.py",
        'rows.append({"weighting_index": index, "beta": beta, "ok": ok})',
        'rows.append({"weighting_index": index, "beta": beta, "ok": ok if index != 2 else not ok})',
    )
    rc, lines = run_bench(root, "certify", trace=0)
    result = json.loads(lines[-1])
    assert rc != 0 and result["correct"] is False and result["failed"] >= 2
    assert any("rows with ok false" in line for line in lines)


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    rc, lines = run_bench(tmp_path, "mc-wide", trace=0)
    assert rc != 0 and lines == []


# --- seeds ---------------------------------------------------------------------


def test_invocation_seeds_are_mixed_not_offset():
    seeds = {derive_seed(s, p, key) for s in (6, 7) for p in range(4) for key in ("a", "b")}
    assert len(seeds) == 16
    # walklab's trial streams are seed ^ trial: offsets would alias streams.
    assert all((a ^ b) >= 1 << 20 for a in seeds for b in seeds if a != b)
    # Only the paired srw/phase runs of mc-phase share a seed.
    keys = [s.seed_key for slots in WORKLOADS.values() for s in slots if s.seed_key is not None]
    assert {s.seed_key for s in WORKLOADS["mc-phase"]} == {"pair"}
    assert len(keys) - len(set(keys)) == 1

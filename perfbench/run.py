"""walklab benchmark: one workload, one run, metrics on the last stdout line.

    python3 perfbench/run.py --workload mc-wide --seed 7 --seconds 20 --trace 0

Run from the root of a walklab checkout.  The benchmark builds nothing: it
starts fresh single-threaded Python processes on the checkout's `src/`.
Set-up (import walklab, build the workload's graphs) is timed in several
probe processes and reported as the median.  One more process then runs the
gate pass and timed passes of the workload through `walklab.cli.main`, one
invocation at a time (closed loop, one caller).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
same metrics by name and unit, sample counts, output digests and provenance.
The exit code is 0 only when every invocation passed the correctness gate.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": ("s", "fresh process to ready: import walklab, build the workload's graphs"),
    "run_s": ("s", "wall time of one pass over the workload's invocations"),
    "cpu_s": ("s", "process CPU time of one pass"),
    "peak_rss_mb": ("MiB", "peak resident memory of the run process over set-up and the gate pass"),
}
SETUP_PROBES = 10
DEADLINE_S = 170.0
NOT_MEASURED = [
    "hardware counters (cycles, instructions, cache misses)",
    "memory bandwidth and bytes moved",
    "thread or core scaling: every process is single-threaded",
    "first-call cost within a process: the gate pass runs before timing",
]


def single_threaded_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, work: Path, env, probe: bool) -> tuple[float, subprocess.Popen]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", str(work),
    ] + (["--probe"] if probe else [])
    spawned = time.monotonic()
    return spawned, subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen, deadline: float) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise


def probe_times(stdout: str) -> tuple[float, float]:
    """(monotonic time the probe was ready, host speed it measured)."""
    values = dict(line.split() for line in stdout.splitlines() if line.startswith(("READY ", "SPEED ")))
    return float(values["READY"]), float(values["SPEED"])


def provenance(root: Path, args, report: dict) -> dict:
    revision = "unknown: not a git checkout"
    if (root / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or revision
        except (OSError, subprocess.TimeoutExpired):
            revision = "unknown: git unavailable"
    src = hashlib.sha256()
    for path in sorted((root / "src" / "walklab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision,
        "src_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **report["versions"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": report["passes"],
        "samples": report["samples"],
        "not_measured": NOT_MEASURED,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "walklab" / "cli.py").is_file():
        print(f"error: {root} is not a walklab checkout (no src/walklab/cli.py)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = single_threaded_env(root)
    try:
        # The first probe is not counted: it writes the bytecode cache that
        # every later process reads.
        setups, raw_setups = [], []
        for i in range(SETUP_PROBES + 1):
            spawned, proc = start_worker(args, work, env, probe=True)
            out, err = finish(proc, deadline)
            if proc.returncode != 0:
                print(err, file=sys.stderr)
                return 1
            if i:
                ready, speed = probe_times(out)
                raw_setups.append(ready - spawned)
                setups.append(raw_setups[-1] / speed)
        _, proc = start_worker(args, work, env, probe=False)
        out, err = finish(proc, deadline)
        if err:
            print(err, file=sys.stderr, end="")
        if proc.returncode != 0:
            print(f"error: benchmark process exited {proc.returncode}", file=sys.stderr)
            return 1
        report = json.loads(out.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        catalog = PER_LAYER
        metrics = report["metrics"]
    else:
        catalog = END_TO_END
        metrics = {"setup_s": statistics.median(setups), **report["metrics"]}
        report["samples"]["setup_s"] = len(setups)
        report["raw"]["setup_s"] = statistics.median(raw_setups)
    correct = report["failed"] == 0 and not report["problems"]
    for problem in report["problems"]:
        print(f"GATE FAIL {problem}")
    for name, (unit, meaning) in catalog.items():
        print(f"{name:32s} {metrics[name]:16.6g} {unit:6s} n={report['samples'].get(name, 0):<3d} {meaning}")
    print(f"attempted {report['attempted']} failed {report['failed']} "
          f"fail_ratio {report['failed'] / report['attempted']:.6g}")
    print("pass_s " + json.dumps(report["pass_s"]))
    print("slot_s " + json.dumps(report["slot_s"]))
    print("raw " + json.dumps(report["raw"]))
    print("digest " + json.dumps({"workload": args.workload, **report["digests"]}))
    print("provenance " + json.dumps(provenance(root, args, report), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in catalog.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up, then run passes of a workload through
`walklab.cli.main` in this single process, one invocation at a time.

Started by run.py with PYTHONPATH pointing at the checkout's `src/`.  It
prints `READY <monotonic time>` once walklab is imported and the workload's
graphs are built; with --probe it stops there (run.py times set-up from
several probes).  Otherwise it runs the gate pass, then timed passes until
--seconds have elapsed, and prints one JSON report as its last line.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
from walklab import cli, graphs

import calibrate
import gate
import layers
from workloads import REFERENCE_SEED, WORKLOADS, Slot, generator_kwargs, pass_argv

HERE = Path(__file__).resolve().parent


def peak_rss_kib() -> int:
    """High-water resident set of this process image.

    getrusage's ru_maxrss would do, except that Linux carries it across
    exec, so it would start at the parent's size."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def set_up(slots: tuple[Slot, ...]) -> None:
    """The set-up a user pays per process: walklab is imported above; build
    the workload's graphs."""
    for spec in sorted({spec for slot in slots for spec in slot.graphs}):
        kind, kwargs = generator_kwargs(spec)
        graphs.generate(kind, **kwargs)
    if any(slot.catalog for slot in slots):
        graphs.small_regular_catalog()


def run_invocation(slot: Slot, argv: list[str], out_dir: Path, pass_index: int) -> dict:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # any traceback is a failed invocation, recorded below
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    try:
        outputs = gate.read_outputs(out_dir)
        problems = gate.invariant_problems(slot, argv, rc, error, outputs)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        outputs, problems = {}, [f"unreadable outputs: {exc!r}"]
    steps = sum(r[2] for r in outputs["rows"]["values"]) if slot.command == "cover-sim" and "rows" in outputs else 0
    walk = argv[argv.index("--walk") + 1] if "--walk" in argv else None
    return {
        "pass": pass_index,
        "slot": slot.name,
        "invocation": f"p{pass_index}/{slot.name}",
        "command": slot.command,
        "walk": walk,
        "rc": rc,
        "wall": wall,
        "cpu": cpu,
        "trials": int(argv[argv.index("--trials") + 1]) if walk else 0,
        "steps": steps,
        "draws_used": steps * (1 if walk == "srw" else 2),
        "out_bytes": gate.output_bytes(out_dir) + len(stdout.getvalue().encode()),
        "problems": problems + ([f"stderr: {stderr.getvalue().strip()[:200]}"] if stderr.getvalue() else []),
        "outputs": outputs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--probe", action="store_true", help="exit once set-up is done")
    args = parser.parse_args()
    slots = WORKLOADS[args.workload]

    tracer = None
    if args.trace and not args.probe:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    set_up(slots)
    if tracer is not None:
        tracer.uninstall()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.probe:
        # Host speed right after set-up, for run.py to normalize by; the
        # first call pays one-off costs and is not used.
        calibrate.speed()
        print(f"SPEED {calibrate.speed()!r}")
        return 0

    work = Path(args.work_dir)
    # Gate pass: reference seed, pass 0, untraced, compared with reference.json.
    gate_records = [
        run_invocation(slot, pass_argv(slot, REFERENCE_SEED, 0, str(work / slot.name)), work / slot.name, 0)
        for slot in slots
    ]
    # Peak memory of set-up plus one pass of every invocation, read before
    # the reference is parsed and the calibration kernels first run.
    peak_rss_mb = peak_rss_kib() / 1024.0

    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    for record in gate_records:
        expected = reference[record["slot"]]
        observed = {"rc": record["rc"], "outputs": record["outputs"]}
        diffs = gate.compare(observed, expected)
        if diffs:
            record["problems"].append(f"{len(diffs)} differences from reference.json, first: {diffs[0]}")

    timed: list[dict] = []
    kernel_log: list[dict] = []
    start = time.perf_counter()
    pass_index = 0
    level = calibrate.speed(kernel_log)
    while True:
        pass_index += 1
        traced = tracer is not None and pass_index % 2 == 0
        if traced:
            tracer.install()
        for slot in slots:
            record_argv = pass_argv(slot, args.seed, pass_index, str(work / slot.name))
            if tracer is not None:
                tracer.invocation = f"p{pass_index}/{slot.name}"
            record = run_invocation(slot, record_argv, work / slot.name, pass_index)
            after = calibrate.speed(kernel_log)
            record["speed"] = (level + after) / 2
            level = after
            record["raw_wall"], record["raw_cpu"] = record["wall"], record["cpu"]
            record["wall"] /= record["speed"]
            record["cpu"] /= record["speed"]
            record["traced"] = traced
            record.pop("outputs")
            timed.append(record)
        if traced:
            tracer.uninstall()
        enough_passes = pass_index >= (2 if tracer is not None else 1)
        if enough_passes and time.perf_counter() - start >= args.seconds:
            break

    untraced = [r for r in timed if not r["traced"]]
    records = gate_records + timed
    problems = [f"{r['invocation']}: {p}" for r in records for p in r["problems"]]
    wall_passes = layers.pass_times(untraced)
    samples = {"run_s": len(wall_passes), "cpu_s": len(wall_passes), "peak_rss_mb": 1}
    if tracer is None:
        metrics = {
            "run_s": statistics.median(wall_passes),
            "cpu_s": statistics.median(layers.pass_times(untraced, "cpu")),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        traced_records = [r for r in timed if r["traced"]]
        metrics = layers.per_layer_metrics(tracer.spans, traced_records, untraced)
        n_traced = len({r["pass"] for r in traced_records})
        samples = {name: n_traced for name in metrics}
        samples.update({name: len(wall_passes) for name in layers.COMMAND_METRICS.values()})
        samples["trials_per_s"] = len(wall_passes)
        samples["graphs.generate_s"] = 1
        spans_path = work.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with spans_path.open("w") as fh:
            for name, s, e, parent, inv, attr in tracer.spans:
                fh.write(json.dumps([name, s, e, parent, inv, attr if isinstance(attr, (int, str)) else None]) + "\n")
        missing = sorted(name for name, count in tracer.bindings.items() if count == 0)
        problems += [f"traced function has no binding: {name}" for name in missing]

    report = {
        "attempted": len(records),
        "failed": sum(1 for r in records if r["problems"]),
        "problems": problems,
        "metrics": metrics,
        "samples": samples,
        "passes": {"untraced": len(wall_passes), "traced": len({r["pass"] for r in timed if r["traced"]})},
        "pass_s": [round(t, 6) for t in layers.pass_times(timed)],
        "slot_s": {
            slot.name: statistics.median(r["wall"] for r in untraced if r["slot"] == slot.name) for slot in slots
        },
        "raw": {
            "run_s": statistics.median(layers.pass_times(untraced, "raw_wall")),
            "cpu_s": statistics.median(layers.pass_times(untraced, "raw_cpu")),
            "speed": statistics.median(r["speed"] for r in timed),
            "kernels": {k: statistics.median(t[k] for t in kernel_log) for k in calibrate.KERNELS},
        },
        "digests": gate.digests({r["slot"]: {"rc": r["rc"], "outputs": r["outputs"]} for r in gate_records}),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

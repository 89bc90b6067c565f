"""Write reference.json: the gate pass outputs of every workload.

    PYTHONPATH=src python3 perfbench/make_reference.py

The reference pins the program's answers, not the benchmark's: regenerate it
only when a workload's invocations change, never to make a failing gate pass.
Floats are kept to 12 significant digits, well inside the gate's tolerance.
"""
from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import gate
from worker import run_invocation
from workloads import REFERENCE_SEED, WORKLOADS, pass_argv

HERE = Path(__file__).resolve().parent


def main() -> None:
    reference = {}
    work = Path(tempfile.mkdtemp(prefix="bench-ref-", dir=Path.cwd()))
    try:
        for workload, slots in WORKLOADS.items():
            reference[workload] = {}
            for slot in slots:
                out = work / workload / slot.name
                record = run_invocation(slot, pass_argv(slot, REFERENCE_SEED, 0, str(out)), out, 0)
                if record["problems"]:
                    raise SystemExit(f"{workload}/{slot.name}: {record['problems']}")
                reference[workload][slot.name] = gate.rounded({"rc": record["rc"], "outputs": record["outputs"]})
    finally:
        shutil.rmtree(work)
    text = json.dumps(reference, separators=(",", ":"), sort_keys=True)
    (HERE / "reference.json").write_text(text + "\n")
    print(f"wrote {HERE / 'reference.json'} ({len(text)} bytes)")


if __name__ == "__main__":
    main()

"""Golden outputs: every subcommand's stdout, stderr, exit code and files, pinned.

`tests/golden.json` maps each invocation below to the SHA-256 of its stdout
and stderr, its exit code, and the SHA-256 of every file it writes under
`--out DIR --no-timestamp`.  A change that moves any printed digit fails
here.  A change that moves seeded output on purpose rewrites the manifest
with

    PYTHONPATH=src python tests/test_golden.py --write

which prints the name of every entry whose record it changed, added or
dropped; CHANGES.md lists each of them, and why it moved.

Values that pass through LAPACK (`spectral`'s eigenvalues) are pinned for
numpy 2.4.6 on x86-64; a mismatch on another platform is a reproducibility
finding, not a reason to skip.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from walklab.cli import main

MANIFEST = Path(__file__).with_name("golden.json")
RR512 = "random-regular:512:3:11"

# input files an argv names by placeholder, so no path reaches the hashed
# output: one vertex, a 10-cycle with chords 0-5 and 2-7 (degrees 2 and 3,
# so the srw neighbour table is padded to 6 choices), a weighting of that
# graph, and a config file
INPUT_FILES = {
    "{one_vertex}": "1 0\n",
    "{irregular}": "10 12\n" + "".join(f"{v} {(v + 1) % 10}\n" for v in range(10)) + "0 5\n2 7\n",
    "{irregular_weights}": "".join(f"{v} {(v + 1) % 10} {1 + v % 3}\n" for v in range(10)) + "0 5 0.5\n2 7 4\n",
    "{config}": "# a comment line\ngenerate = cycle:8\ncount = 3\nsigma = 1.5\n",
}

# name -> argv
CASES: dict[str, list[str]] = {
    # the benchmark's slot shapes, at fixed seeds
    "srw-k4": ["cover-sim", "--generate", "complete:4", "--walk", "srw", "--trials", "1000", "--seed", "1"],
    "srw-c64": ["cover-sim", "--generate", "cycle:64", "--walk", "srw", "--trials", "300", "--seed", "2"],
    "sweep-c64": ["cover-sim", "--generate", "cycle:64", "--walk", "sweep", "--trials", "300", "--eps", "0.25",
                  "--seed", "3"],
    "srw-rr512": ["cover-sim", "--generate", RR512, "--walk", "srw", "--trials", "12", "--seed", "4"],
    "phase-rr512": ["cover-sim", "--generate", RR512, "--walk", "phase", "--trials", "12", "--eps", "0.25",
                    "--seed", "4"],
    "lemma-sweep": ["lemma-sweep", "--nmax", "5", "--tmax", "4", "--draws", "2000", "--seed", "5"],
    "robustness-audit": ["robustness-audit", "--generate", "random-regular:20:3:2", "--subsets", "5", "--seed", "6"],
    "spectral": ["spectral", "--generate", "random-regular:96:3:5"],
    "lipschitz-audit": ["lipschitz-audit", "--generate", "random-regular:32:3:7", "--count", "5", "--seed", "7"],
    "boost-audit": ["boost-audit", "--generate", "complete:6", "--event", "cover", "--t", "6", "--eps", "0.05"],
    # exit 1: an audit violation
    "lipschitz-audit-beta-max": ["lipschitz-audit", "--generate", "random-regular:32:3:7", "--count", "5",
                                 "--seed", "7", "--assert-beta-max", "1.0"],
    # exit 2: bad input
    "spectral-guard": ["spectral", "--generate", "random-regular:600:3:1"],
    "malformed-spec": ["spectral", "--generate", "cycle"],
    "negative-count": ["lipschitz-audit", "--generate", "cycle:8", "--count", "-1", "--seed", "1"],
    # edge cases
    "sweep-underflowing-gap-bound": ["robustness-sweep", "--generate", "cycle:40", "--weightings", "1",
                                     "--subsets", "1", "--seed", "1"],
    "sweep-rr16": ["robustness-sweep", "--generate", "random-regular:16:3:7", "--weightings", "3", "--subsets", "10",
                   "--seed", "42"],
    "compare-one-vertex": ["cover-compare", "--graph", "{one_vertex}", "--kinds", "srw,phase", "--eps", "0",
                           "--psi", "0", "--trials", "2", "--seed", "0"],
    "phase-eps0-rr24": ["cover-sim", "--generate", "random-regular:24:3:1", "--walk", "phase", "--eps", "0",
                        "--trials", "4", "--seed", "1"],
    "audit-rr32": ["robustness-audit", "--generate", "random-regular:32:3:7", "--subsets", "20", "--seed", "3"],
    "audit-hypercube3": ["robustness-audit", "--generate", "hypercube:3", "--seed=-5"],
    # walk paths the benchmark does not reach: every step biased, degree 6,
    # a sweep whose last trials finish in the scalar loop, and srw on an
    # irregular graph played scalar (12 trials) and in lockstep (40)
    "phase-eps1-rr64": ["cover-sim", "--generate", "random-regular:64:3:5", "--walk", "phase", "--eps", "1.0",
                        "--trials", "8", "--seed", "8"],
    "phase-hypercube6": ["cover-sim", "--generate", "hypercube:6", "--walk", "phase", "--eps", "0.25",
                         "--trials", "6", "--seed", "9"],
    "sweep-c2048": ["cover-sim", "--generate", "cycle:2048", "--walk", "sweep", "--eps", "0.5", "--trials", "40",
                    "--seed", "10"],
    "srw-irregular-12": ["cover-sim", "--graph", "{irregular}", "--walk", "srw", "--trials", "12", "--seed", "11"],
    "srw-irregular-40": ["cover-sim", "--graph", "{irregular}", "--walk", "srw", "--trials", "40", "--seed", "12"],
    # front-end paths the cases above do not reach: the exact conductance
    # and its argmin (n <= 24), a random weighting under the audit, a
    # weights file, a config file, and a --kmax far past the diameter
    "spectral-c8": ["spectral", "--generate", "cycle:8"],
    "audit-sigma-rr20": ["robustness-audit", "--generate", "random-regular:20:3:2", "--sigma", "1.05",
                         "--subsets", "5", "--seed", "6"],
    "spectral-weights": ["spectral", "--graph", "{irregular}", "--weights", "{irregular_weights}"],
    "config-lipschitz": ["lipschitz-audit", "--config", "{config}", "--seed", "2"],
    "lipschitz-kmax-1e6": ["lipschitz-audit", "--generate", "cycle:5", "--kmax", "1000000", "--count", "1",
                           "--seed", "1"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observe(argv: list[str]) -> dict:
    """Run one invocation in process; its argv, exit code and digests."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = {}
        for j, (key, text) in enumerate(INPUT_FILES.items()):
            paths[key] = root / f"g{j}.txt"
            paths[key].write_text(text)
        full = [str(paths[arg]) if arg in paths else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(full + ["--out", str(root / "out"), "--no-timestamp"])
        files = {
            str(path.relative_to(root / "out")): _sha(path.read_bytes())
            for path in sorted((root / "out").rglob("*"))
            if path.is_file()
        }
    return {"argv": argv, "exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files}


def test_manifest_names_every_case():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert observe(CASES[name]) == json.loads(MANIFEST.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    manifest = {name: observe(argv) for name, argv in CASES.items()}
    for name in sorted(old.keys() | manifest.keys()):
        if old.get(name) != manifest.get(name):
            print(name)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")

"""The three benchmark workloads and how each invocation gets its seed.

A workload is a fixed list of CLI invocations ("slots").  One pass runs every
slot once, in order, through `walklab.cli.main`.  Pass 0 of the reference seed
is the gate pass whose outputs are compared with `reference.json`; timed passes
1, 2, ... take their seeds from the workload seed given on the command line.
README.md explains why each workload exists and which layers it exercises.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

# Workload seed whose pass 0 is committed in reference.json.
REFERENCE_SEED = 1

RR512 = "random-regular:512:3:11"


@dataclass(frozen=True)
class Slot:
    """One CLI invocation of a pass.

    `seed_key` names the seed the slot draws; slots that share a key get the
    same seed (the paired srw/phase runs of mc-phase).  None means the
    subcommand takes no seed.  `graphs` lists the generator specs the slot
    uses, which set-up builds ahead of the first pass.
    """

    name: str
    argv: tuple[str, ...]
    seed_key: str | None
    graphs: tuple[str, ...] = ()
    catalog: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


def _cover(name: str, spec: str, walk: str, trials: int, seed_key: str, eps: float | None = None) -> Slot:
    argv = ["cover-sim", "--generate", spec, "--walk", walk, "--trials", str(trials)]
    if eps is not None:
        argv += ["--eps", repr(eps)]
    return Slot(name, tuple(argv), seed_key, graphs=(spec,))


WORKLOADS: dict[str, tuple[Slot, ...]] = {
    "mc-wide": (
        _cover("srw-k4", "complete:4", "srw", 1000, "srw-k4"),
        _cover("srw-c64", "cycle:64", "srw", 300, "srw-c64"),
        _cover("sweep-c64", "cycle:64", "sweep", 300, "sweep-c64", eps=0.25),
    ),
    "mc-phase": (
        _cover("srw-rr512", RR512, "srw", 12, "pair"),
        _cover("phase-rr512", RR512, "phase", 12, "pair", eps=0.25),
    ),
    "certify": (
        Slot(
            "lemma-sweep",
            ("lemma-sweep", "--nmax", "5", "--tmax", "4", "--draws", "2000"),
            "lemma-sweep",
            catalog=True,
        ),
        Slot(
            "robustness-audit",
            ("robustness-audit", "--generate", "random-regular:20:3:2", "--subsets", "5"),
            "robustness-audit",
            graphs=("random-regular:20:3:2",),
        ),
        Slot(
            "spectral",
            ("spectral", "--generate", "random-regular:96:3:5"),
            None,
            graphs=("random-regular:96:3:5",),
        ),
        Slot(
            "lipschitz-audit",
            ("lipschitz-audit", "--generate", "random-regular:32:3:7", "--count", "5"),
            "lipschitz-audit",
            graphs=("random-regular:32:3:7",),
        ),
        Slot(
            "boost-audit",
            ("boost-audit", "--generate", "complete:6", "--event", "cover", "--t", "6", "--eps", "0.05"),
            None,
            graphs=("complete:6",),
        ),
    ),
}


def derive_seed(workload_seed: int, pass_index: int, seed_key: str) -> int:
    """Invocation seed mixed from (workload seed, pass, slot).

    walklab derives trial streams as `seed ^ trial`, so seeds that differ by a
    small offset share trial streams (stream(6, 1) == stream(7, 0)).  Hashing
    keeps the seeds of different passes and slots unrelated.
    """
    text = f"walklab-bench/{workload_seed}/{pass_index}/{seed_key}".encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big") >> 1


def pass_argv(slot: Slot, workload_seed: int, pass_index: int, out_dir: str) -> list[str]:
    argv = list(slot.argv)
    if slot.seed_key is not None:
        argv += ["--seed", str(derive_seed(workload_seed, pass_index, slot.seed_key))]
    return argv + ["--out", out_dir, "--no-timestamp"]


def generator_kwargs(spec: str) -> tuple[str, dict]:
    """`walklab.graphs.generate` arguments for the generator specs used above."""
    kind, *parts = spec.split(":")
    if kind in ("cycle", "complete"):
        return kind, {"n": int(parts[0])}
    if kind == "random-regular":
        return "random_regular", {"n": int(parts[0]), "d": int(parts[1]), "seed": int(parts[2])}
    raise ValueError(f"no generator mapping for {spec!r}")

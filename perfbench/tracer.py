"""Spans around walklab's public entry points, recorded from outside `src/`.

walklab imports by name (`from .weighting import induced_chain`), so one
function has a binding in every module that imported it.  `Tracer.install`
replaces every binding of each traced function across the loaded walklab
modules and `uninstall` puts the originals back, so untraced passes run the
unmodified program.  Class-level methods (chain validation, RNG blocks) are
patched on the class, which every caller reaches.

Only entry points that the planned engine and exact-layer rewrites keep are
wrapped; the inner kernels (`jacobi_eigh`, `cover_run`, `BufferedDraws.u64`)
are not, so the step loop runs at full speed and later rewrites of those
kernels do not break the tracer.

A span is (name, start, end, parent span index, invocation id, attribute).
Spans stay in memory until the run ends.
"""
from __future__ import annotations

import sys
import time

from walklab import chains, cli, graphs, oracle, rng, robustness, walks, weighting


def _dp_attr(args, eps_index):
    g, u, event = args[0], args[1], args[2]
    eps = float(args[eps_index]) if eps_index is not None else 0.0
    if event.kind is oracle.EventKind.COVER_ALL:
        k = g.n
    elif event.kind is oracle.EventKind.RETURN_TO_START:
        k = 1
    else:
        k = len(event.targets)
    states = g.n * (1 << k) * event.horizon
    return (g.n, g.edges, u, event, eps), states


# (span name, owner, attribute name, function of the positional arguments
# giving the span's attribute, or None)
TRACED = [
    ("cli.main", cli, "main", None),
    ("rng.block_u64", rng.SplitMix64, "block_u64", lambda a: int(a[1])),
    ("graphs.generate", graphs, "generate", None),
    ("graphs.vertex_expansion_exact", graphs, "vertex_expansion_exact", lambda a: (a[0].n, a[0].edges)),
    ("weighting.induced_chain", weighting, "induced_chain", None),
    ("weighting.target_decay_weighting", weighting, "target_decay_weighting", None),
    ("weighting.random_lipschitz_weighting", weighting, "random_lipschitz_weighting", None),
    ("weighting.stationary_ratio_audit", weighting, "stationary_ratio_audit", None),
    ("weighting.lipschitz_beta", weighting, "lipschitz_beta", None),
    ("chains.validate", chains.ReversibleChain, "__post_init__", None),
    ("chains.spectral_gap", chains, "spectral_gap", None),
    ("chains.edge_conductance_exact", chains, "edge_conductance_exact", lambda a: 1 << a[0].n),
    ("chains.power_chain", chains, "power_chain", None),
    ("robustness.section3_lemma_audit", robustness, "section3_lemma_audit", None),
    ("robustness.theorem31_check", robustness, "theorem31_check", None),
    ("walks.estimate_cover_time", walks, "estimate_cover_time", lambda a: a[1].kind),
    ("walks.extract_bias_matrix", walks, "extract_bias_matrix", None),
    ("oracle.srw_event_prob", oracle, "srw_event_prob", lambda a: _dp_attr(a, None)),
    ("oracle.optimal_tbrw_event_prob", oracle, "optimal_tbrw_event_prob", lambda a: _dp_attr(a, 3)),
    ("oracle.boost_bound_audit", oracle, "boost_bound_audit", None),
    ("oracle.conv_lemma_audit", oracle, "conv_lemma_audit", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.invocation = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # traced name -> number of bindings patched; 0 means the entry point
        # is gone and TRACED must follow the rename.
        self.bindings: dict[str, int] = {}

    def _wrap(self, name, fn, attr):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    name, start, end, parent, tracer.invocation,
                    attr(args) if attr is not None else None,
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key == "walklab" or key.startswith("walklab.")]
        for name, owner, attr_name, attr in TRACED:
            original = owner.__dict__[attr_name]
            wrapper = self._wrap(name, original, attr)
            if isinstance(owner, type):
                targets = [owner]
            else:
                targets = [m for m in modules if m.__dict__.get(attr_name) is original]
            self.bindings[name] = len(targets)
            for target in targets:
                self._patches.append((target, attr_name, original))
                setattr(target, attr_name, wrapper)

    def uninstall(self) -> None:
        for target, attr_name, original in reversed(self._patches):
            setattr(target, attr_name, original)
        self._patches.clear()

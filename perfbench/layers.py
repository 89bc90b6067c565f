"""Per-layer metrics from the spans of the traced passes.

Times and counts are per traced pass (totals divided by the number of traced
passes); rates and ratios are taken over the totals.  A layer's self time is
its spans' duration minus the part its direct child spans cover.  Step
counts, trial counts and RNG draws consumed come from the invocations'
outputs (results.csv), not from inside the step loop.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# name -> (unit, description); the order is the report order.
PER_LAYER = {
    "rng.draws_generated": ("count", "outputs produced by SplitMix64.block_u64"),
    "rng.draws_used_ratio": ("ratio", "draws consumed (1 per SRW step, 2 per biased step) over draws generated"),
    "rng.block_s": ("s", "time in SplitMix64.block_u64"),
    "walks.steps": ("count", "walk steps, summed from results.csv"),
    "walks.steps_per_s": ("1/s", "steps over estimate_cover_time self time"),
    "walks.phases": ("count", "phase re-targetings (target_decay_weighting calls of phase walks)"),
    "walks.phases_per_trial": ("count", "phases per phase-walk trial"),
    "walks.bias_s": ("s", "time in extract_bias_matrix"),
    "weighting.induced_chain_s": ("s", "induced_chain self time, validation excluded"),
    "weighting.target_decay_s": ("s", "time in target_decay_weighting"),
    "weighting.lipschitz_s": ("s", "random_lipschitz_weighting, stationary_ratio_audit, lipschitz_beta"),
    "chains.validate_s": ("s", "ReversibleChain construction checks"),
    "chains.eig_calls": ("count", "spectral_gap calls"),
    "chains.eig_s": ("s", "time in spectral_gap"),
    "chains.conductance_subsets": ("count", "subsets enumerated by edge_conductance_exact (2^n per call)"),
    "chains.conductance_s": ("s", "time in edge_conductance_exact"),
    "chains.power_s": ("s", "time in power_chain"),
    "graphs.expansion_calls": ("count", "vertex_expansion_exact calls"),
    "graphs.expansion_distinct_ratio": ("ratio", "distinct graphs over vertex_expansion_exact calls"),
    "graphs.expansion_s": ("s", "time in vertex_expansion_exact"),
    "graphs.generate_s": ("s", "time in graphs.generate during set-up"),
    "robustness.self_s": ("s", "section3_lemma_audit + theorem31_check minus their child spans"),
    "oracle.dp_runs": ("count", "srw_event_prob + optimal_tbrw_event_prob calls"),
    "oracle.dp_distinct_ratio": ("ratio", "distinct (graph, start, event, eps) over DP runs"),
    "oracle.dp_states": ("count", "sum of n * 2^k * horizon over DP runs"),
    "oracle.states_per_s": ("1/s", "DP states over DP time"),
    "oracle.dp_s": ("s", "time in the two DP entry points"),
    "cli.self_s": ("s", "cli.main time not covered by library spans"),
    "cli.out_bytes": ("B", "bytes written to --out plus the JSON printed to stdout"),
    "trials_per_s": ("1/s", "cover trials per second of cover-sim wall time (untraced passes)"),
    "lemma_sweep_s": ("s", "lemma-sweep wall time (untraced passes)"),
    "robustness_audit_s": ("s", "robustness-audit wall time (untraced passes)"),
    "spectral_s": ("s", "spectral wall time (untraced passes)"),
    "lipschitz_audit_s": ("s", "lipschitz-audit wall time (untraced passes)"),
    "trace.overhead": ("ratio", "traced pass time over untraced pass time"),
    "trace.bias_share": ("ratio", "bias-construction spans over phase cover-sim time"),
    "trace.exact_share": ("ratio", "oracle, chains and graphs spans over pass time"),
}

BIAS_SPANS = {
    "weighting.target_decay_weighting",
    "weighting.induced_chain",
    "chains.validate",
    "walks.extract_bias_matrix",
}
LIPSCHITZ_SPANS = {
    "weighting.random_lipschitz_weighting",
    "weighting.stationary_ratio_audit",
    "weighting.lipschitz_beta",
}
DP_SPANS = {"oracle.srw_event_prob", "oracle.optimal_tbrw_event_prob"}
COMMAND_METRICS = {
    "lemma-sweep": "lemma_sweep_s",
    "robustness-audit": "robustness_audit_s",
    "spectral": "spectral_s",
    "lipschitz-audit": "lipschitz_audit_s",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class SpanIndex:
    """Spans with durations and direct-child time, for self-time queries.

    Durations are divided by the host speed measured around their
    invocation (see calibrate.py), like the end-to-end times."""

    def __init__(self, spans: list[tuple], speed: dict[str, float]):
        self.spans = spans
        self.duration = [(end - start) / speed.get(inv, 1.0) for _, start, end, _, inv, _ in spans]
        self.child_time = defaultdict(float)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.child_time[span[3]] += self.duration[i]

    def select(self, names, invocations=None):
        for i, (name, _, _, _, inv, attr) in enumerate(self.spans):
            if name in names and (invocations is None or inv in invocations):
                yield i, self.duration[i], attr

    def total(self, names, invocations) -> float:
        return sum(d for _, d, _ in self.select(names, invocations))

    def count(self, names, invocations) -> int:
        return sum(1 for _ in self.select(names, invocations))

    def self_time(self, names, invocations) -> float:
        return sum(d - self.child_time[i] for i, d, _ in self.select(names, invocations))

    def ancestors(self, i: int):
        parent = self.spans[i][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def outermost(self, names, invocations, within=None) -> float:
        """Time covered by spans in `names`, nested ones counted once.

        `within(span_index)` optionally restricts to spans under a given
        ancestor."""
        covered = 0.0
        for i, d, _ in self.select(names, invocations):
            ancestors = list(self.ancestors(i))
            if any(self.spans[a][0] in names for a in ancestors):
                continue
            if within is not None and not any(within(a) for a in ancestors):
                continue
            covered += d
        return covered


def per_layer_metrics(spans, traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """`traced`/`untraced` are invocation records of the timed passes."""
    index = SpanIndex(spans, {r["invocation"]: r["speed"] for r in traced})
    invs = {r["invocation"] for r in traced}
    passes = max(1, len({r["pass"] for r in traced}))
    m: dict[str, float] = {}

    generated = sum(attr for _, _, attr in index.select({"rng.block_u64"}, invs))
    used = sum(r["draws_used"] for r in traced)
    m["rng.draws_generated"] = generated / passes
    m["rng.draws_used_ratio"] = _ratio(used, generated)
    m["rng.block_s"] = index.total({"rng.block_u64"}, invs) / passes

    steps = sum(r["steps"] for r in traced)
    walk_self = index.self_time({"walks.estimate_cover_time"}, invs)
    phase_spans = {i for i, _, attr in index.select({"walks.estimate_cover_time"}, invs) if attr == "phase"}
    phases = sum(
        1 for i, _, _ in index.select({"weighting.target_decay_weighting"}, invs)
        if index.spans[i][3] in phase_spans
    )
    phase_trials = sum(r["trials"] for r in traced if r["walk"] == "phase")
    m["walks.steps"] = steps / passes
    m["walks.steps_per_s"] = _ratio(steps, walk_self)
    m["walks.phases"] = phases / passes
    m["walks.phases_per_trial"] = _ratio(phases, phase_trials)
    m["walks.bias_s"] = index.total({"walks.extract_bias_matrix"}, invs) / passes

    m["weighting.induced_chain_s"] = index.self_time({"weighting.induced_chain"}, invs) / passes
    m["weighting.target_decay_s"] = index.total({"weighting.target_decay_weighting"}, invs) / passes
    m["weighting.lipschitz_s"] = index.outermost(LIPSCHITZ_SPANS, invs) / passes

    m["chains.validate_s"] = index.total({"chains.validate"}, invs) / passes
    m["chains.eig_calls"] = index.count({"chains.spectral_gap"}, invs) / passes
    m["chains.eig_s"] = index.total({"chains.spectral_gap"}, invs) / passes
    m["chains.conductance_subsets"] = (
        sum(attr for _, _, attr in index.select({"chains.edge_conductance_exact"}, invs)) / passes
    )
    m["chains.conductance_s"] = index.total({"chains.edge_conductance_exact"}, invs) / passes
    m["chains.power_s"] = index.total({"chains.power_chain"}, invs) / passes

    expansion_calls = 0
    expansion_distinct = 0
    dp_runs = 0
    dp_distinct = 0
    dp_states = 0
    for p in {r["pass"] for r in traced}:
        pass_invs = {r["invocation"] for r in traced if r["pass"] == p}
        graphs_seen = [attr for _, _, attr in index.select({"graphs.vertex_expansion_exact"}, pass_invs)]
        expansion_calls += len(graphs_seen)
        expansion_distinct += len(set(graphs_seen))
        dp = [attr for _, _, attr in index.select(DP_SPANS, pass_invs)]
        dp_runs += len(dp)
        dp_distinct += len({key for key, _ in dp})
        dp_states += sum(states for _, states in dp)
    dp_time = index.total(DP_SPANS, invs)
    m["graphs.expansion_calls"] = expansion_calls / passes
    m["graphs.expansion_distinct_ratio"] = _ratio(expansion_distinct, expansion_calls)
    m["graphs.expansion_s"] = index.total({"graphs.vertex_expansion_exact"}, invs) / passes
    m["graphs.generate_s"] = index.total({"graphs.generate"}, {"setup"})

    m["robustness.self_s"] = (
        index.self_time({"robustness.section3_lemma_audit", "robustness.theorem31_check"}, invs) / passes
    )

    m["oracle.dp_runs"] = dp_runs / passes
    m["oracle.dp_distinct_ratio"] = _ratio(dp_distinct, dp_runs)
    m["oracle.dp_states"] = dp_states / passes
    m["oracle.states_per_s"] = _ratio(dp_states, dp_time)
    m["oracle.dp_s"] = dp_time / passes

    m["cli.self_s"] = index.self_time({"cli.main"}, invs) / passes
    m["cli.out_bytes"] = sum(r["out_bytes"] for r in traced) / passes

    m.update(command_metrics(untraced))

    traced_time = pass_times(traced)
    m["trace.overhead"] = _ratio(statistics.median(traced_time), statistics.median(pass_times(untraced)))
    phase_time = sum(index.duration[i] for i in phase_spans)
    m["trace.bias_share"] = _ratio(index.outermost(BIAS_SPANS, invs, within=phase_spans.__contains__), phase_time)
    exact = {name for name, *_ in spans if name.split(".")[0] in ("oracle", "chains", "graphs")}
    m["trace.exact_share"] = _ratio(index.outermost(exact, invs), sum(traced_time))
    return m


def pass_times(records: list[dict], key: str = "wall") -> list[float]:
    by_pass = defaultdict(float)
    for r in records:
        by_pass[r["pass"]] += r[key]
    return [by_pass[p] for p in sorted(by_pass)]


def command_metrics(records: list[dict]) -> dict[str, float]:
    """Per-subcommand wall times and cover-sim throughput, medians over passes."""
    m = {}
    for command, name in COMMAND_METRICS.items():
        times = pass_times([r for r in records if r["command"] == command])
        m[name] = statistics.median(times) if times else 0.0
    per_pass = defaultdict(lambda: [0, 0.0])
    for r in records:
        if r["command"] == "cover-sim":
            per_pass[r["pass"]][0] += r["trials"]
            per_pass[r["pass"]][1] += r["wall"]
    rates = [trials / wall for trials, wall in per_pass.values()]
    m["trials_per_s"] = statistics.median(rates) if rates else 0.0
    return m

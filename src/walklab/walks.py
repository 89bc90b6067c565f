"""Biased random walk simulation and the bias-extraction machinery.

The central walk is the epsilon-biased step: with probability 1 - epsilon
move to a uniform neighbour, otherwise sample from a bias vector over the
neighbours.  `step` is the single-step reference, taking the vector from a
policy (graph, visited set, current vertex, step count) -> neighbour
distribution.  The cover runs play that step in one loop, `_biased_walk`,
whose bias is a function of the current vertex: the phase walk's rows of
the target-decay bias, or the sweep walk's one-hot rows toward the forward
or backward neighbour of a cycle.

`extract_bias_matrix` inverts the mixture: given a reversible chain Q
supported on the graph's edges with Q >= (1 - eps)/d entrywise on edges,
it recovers the row-stochastic bias B with (1-eps) P + eps B = Q.  The
target-decay chains of `weighting` satisfy that entrywise condition
whenever theta <= eps and the degree is at least 3, which is exactly how
the phase walk turns a weighting into a playable strategy: each phase
re-targets the unvisited set U, tilts by theta = min(eps, 1 - e^(-psi/32)),
and walks with B until half of U is gone.  The phase walk needs only the d
entries of B on each vertex's edges, so `_DecayBias` builds those rows in
O(m) from the BFS distances to U; the float operations are those of the
dense `induced_chain` -> `extract_bias_matrix` path, so the rows are
bit-identical to it.

`cover_run` plays one trial and `estimate_cover_time` many; both check the
spec once, in `_checked`, and play scalar trials through `_trial_runner`.

Monte Carlo estimation is deterministic: trial i draws from the splitmix
stream seed XOR i, so results are bit-identical across runs and across
worker counts.  Wide srw and sweep batches advance all their trials together
in numpy, one counter block of draws per refill for every stream; each
trial's step count equals that of the scalar loop, which also finishes the
last few trials of a batch from where the lockstep engine left them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .chains import BALANCE_TOL, ROW_SUM_TOL, ReversibleChain
from .graphs import Graph, GraphError, distances_from, vertex_expansion_exact
from .rng import MASK64, BufferedDraws, SplitMix64, splitmix_block
from .weighting import WeightingError, induced_chain, target_decay_weighting

# Configured expansion value used by the phase strategy when the graph is too
# large for exact enumeration.  The tilt theta = min(eps, 1 - e^(-psi/32)) is
# deliberately conservative in its exponent, so a timid psi makes the bias
# statistically invisible at simulation scales; 2.0 keeps theta around 6% for
# moderate eps, which is where the cover-time advantage becomes measurable
# while staying a feasible expansion value for degree >= 3.
DEFAULT_PSI_CONFIG = 2.0

WALK_KINDS = ("srw", "phase", "sweep")

__all__ = [
    "WalkState",
    "WalkSpec",
    "WalkError",
    "WALK_KINDS",
    "step",
    "extract_bias_matrix",
    "cover_run",
    "estimate_cover_time",
    "CoverEstimate",
    "stationary_boost_audit",
    "StationaryBoostReport",
]


class WalkError(ValueError):
    """Invalid walk parameters or policy output."""


@dataclass
class WalkState:
    """Mutable trajectory state: current vertex, step count, visited set."""

    current: int
    steps: int
    visited: set[int]

    @classmethod
    def fresh(cls, start: int) -> "WalkState":
        return cls(current=start, steps=0, visited={start})


def _sample_from_vector(vec: Sequence[float], r: float) -> int:
    acc = 0.0
    last = 0
    for i, p in enumerate(vec):
        acc += p
        last = i
        if r < acc:
            return i
    return last


def step(g: Graph, state: WalkState, eps: float, policy: Callable[..., Sequence[float]] | None, rng) -> int:
    """One epsilon-biased step; mutates and returns the new vertex.

    policy(g, visited, current, steps) is the bias vector aligned with
    g.adj[current], and may be None when eps = 0.  Consumes exactly two
    draws (coin, choice) regardless of the branch, so trajectories are
    replayable from the stream alone.
    """
    if not (0.0 <= eps <= 1.0):
        raise WalkError("eps must lie in [0, 1]")
    if eps > 0.0 and policy is None:
        raise WalkError("eps > 0 needs a policy")
    nbrs = g.adj[state.current]
    coin = rng.next_float()
    r = rng.next_float()
    if coin < eps:
        vec = policy(g, state.visited, state.current, state.steps)
        idx = _sample_from_vector(vec, r)
    else:
        idx = int(r * len(nbrs))
        if idx == len(nbrs):
            idx -= 1
    nxt = nbrs[idx]
    state.current = nxt
    state.steps += 1
    state.visited.add(nxt)
    return nxt


# ---------------------------------------------------------------------------
# bias extraction


def extract_bias_matrix(q: ReversibleChain, g: Graph, eps: float) -> np.ndarray:
    """Solve (1 - eps) P + eps B = Q for the bias matrix B.

    P is the simple random walk on g.  B must come out entrywise
    nonnegative (dust down to -1e-12 is tolerated and kept, not clamped, so
    the reconstruction identity stays exact).  eps = 0 degenerates: Q must
    equal P and B is P itself.
    """
    if not (0.0 <= eps <= 1.0):
        raise WalkError("eps must lie in [0, 1]")
    n = g.n
    if q.n != n:
        raise WalkError("chain and graph size mismatch")
    p = np.zeros((n, n))
    for v in range(n):
        p[v, list(g.adj[v])] = 1.0 / len(g.adj[v])
    if eps == 0.0:
        if float(np.max(np.abs(q.matrix - p))) > 1e-12:
            raise WalkError("eps = 0 requires Q to equal the simple random walk")
        return p
    b = (q.matrix - (1.0 - eps) * p) / eps
    if float(b.min()) < -1e-12:
        raise WalkError(
            f"chain is not an eps-biased perturbation of the walk (min entry {b.min():.3e})"
        )
    return b


# ---------------------------------------------------------------------------
# cover-time simulation


def _cover_run_srw(
    adj: Sequence[Sequence[int]], u64: Callable[[], int], visited: bytearray, cur: int, steps: int
) -> int:
    """Simple random walk until every vertex is visited; one draw per step."""
    left = visited.count(0)
    while left:
        nb = adj[cur]
        cur = nb[u64() % len(nb)]
        steps += 1
        if not visited[cur]:
            visited[cur] = 1
            left -= 1
    return steps


def _biased_walk(
    adj: Sequence[Sequence[int]],
    u64: Callable[[], int],
    visited: bytearray,
    cur: int,
    steps: int,
    left: int,
    stop: int,
    eps: float,
    bias: Callable[[int], Sequence[float]],
) -> tuple[int, int, int]:
    """Epsilon-biased walk until at most `stop` of the `left` unvisited vertices remain.

    Two draws per step, coin then r, as in `step`: coin < eps samples the
    vector bias(cur) at r, otherwise r picks a uniform neighbour.  Marks
    `visited` in place and returns (cur, steps, left).
    """
    scale = 2.0**-53
    while left > stop:
        nbrs = adj[cur]
        coin = (u64() >> 11) * scale
        r = (u64() >> 11) * scale
        if coin < eps:
            idx = _sample_from_vector(bias(cur), r)
        else:
            idx = int(r * len(nbrs))
            if idx == len(nbrs):
                idx -= 1
        cur = nbrs[idx]
        steps += 1
        if not visited[cur]:
            visited[cur] = 1
            left -= 1
    return cur, steps, left


def _sweep_bias(g: Graph, visited: bytearray) -> Callable[[int], list[float]]:
    """Directional bias for cycles, read against `visited` at each call.

    Vertex v prefers its +1 neighbour while that is unvisited or the -1
    neighbour is visited, and its -1 neighbour otherwise: a pure function
    of (visited, current), so the walk is replayable.  Both one-hot rows of
    every vertex are picked once from the two rows of length d = 2 (the lone
    neighbour of a 2-cycle is slot 0); sampling a one-hot row returns its
    target for every r in [0, 1).
    """
    n = g.n
    fwd = [(v + 1) % n for v in range(n)]
    bwd = [(v - 1) % n for v in range(n)]
    hot = ([1.0, 0.0], [0.0, 1.0])
    ahead = [hot[nbrs.index(t)] for nbrs, t in zip(g.adj, fwd)]
    back = [hot[nbrs.index(t)] for nbrs, t in zip(g.adj, bwd)]

    def bias(v: int) -> list[float]:
        return back[v] if visited[fwd[v]] and not visited[bwd[v]] else ahead[v]

    return bias


# Lockstep engine bounds: batches, and tails of batches, narrower than
# _LOCKSTEP_MIN trials run the scalar loops; the visited array of one batch
# holds at most _LOCKSTEP_CELLS booleans and one refill at most _REFILL_DRAWS
# draws (128 KiB).
_LOCKSTEP_MIN = 32
_LOCKSTEP_CELLS = 1 << 20
_REFILL_DRAWS = 1 << 14
_DRAWS_PER_STEP = {"srw": 1, "sweep": 2}


def _lockstep_width(n: int, kind: str) -> int:
    """Most trials one lockstep batch advances together; 0 for scalar-only kinds."""
    if kind not in _DRAWS_PER_STEP:
        return 0
    return min(_LOCKSTEP_CELLS // n, _REFILL_DRAWS // _DRAWS_PER_STEP[kind])


def _cover_lockstep(g: Graph, spec: WalkSpec, seed: int, first: int, starts: Sequence[int]) -> list[int]:
    """Cover steps of trials first, first + 1, ... advanced together in numpy.

    Every live trial has taken the same number of steps, so every stream's
    counter stands at steps * (draws per step) and one `splitmix_block`
    refill serves all rows.  Row i replays the scalar loop of its trial
    draw for draw: srw takes neighbour u64 % d, sweep takes the sweep
    target when coin < eps and neighbour int(r * d) otherwise.  Finished
    rows stop counting at once and are dropped once they make up a quarter
    of the batch.  When fewer than _LOCKSTEP_MIN rows are live, each resumes
    in the scalar loop from its vertex, visited set and stream counter.
    """
    n = g.n
    sweep = spec.kind == "sweep"
    dps = _DRAWS_PER_STEP[spec.kind]
    deg = np.array(g.degrees, dtype=np.intp)
    off = np.concatenate(([0], np.cumsum(deg)[:-1])).astype(np.intp)
    nbr = np.array([w for nbrs in g.adj for w in nbrs], dtype=np.intp)
    deg_u = deg.astype(np.uint64)
    trial = np.arange(first, first + len(starts))
    seeds = np.uint64(seed & MASK64) ^ trial.astype(np.uint64)
    cur = np.array(starts, dtype=np.intp)
    vis = np.zeros((len(starts), n), dtype=bool)
    flat = vis.reshape(-1)
    row = np.arange(len(starts)) * n
    flat[row + cur] = True
    left = np.full(len(starts), n - 1, dtype=np.intp)  # -1 marks a finished row
    out = np.zeros(len(starts), dtype=np.int64)
    scale = 2.0**-53
    steps = dead = j = 0
    block = None
    while True:
        if not left.all():
            done = np.flatnonzero(left == 0)
            out[trial[done] - first] = steps
            left[done] = -1
            dead += len(done)
            if len(left) - dead < _LOCKSTEP_MIN:
                break
            if 4 * dead >= len(left):
                keep = left > 0
                trial, seeds, cur, left, vis = trial[keep], seeds[keep], cur[keep], left[keep], vis[keep]
                flat = vis.reshape(-1)
                row = np.arange(len(trial)) * n
                dead = 0
                block = None
        if block is None:
            block = splitmix_block(seeds, steps * dps, dps * max(1, _REFILL_DRAWS // (dps * len(seeds))))
            j = 0
        if sweep:
            coin = (block[:, j] >> np.uint64(11)) * scale
            r = (block[:, j + 1] >> np.uint64(11)) * scale
            d = deg[cur]
            uniform = nbr[off[cur] + np.minimum((r * d).astype(np.intp), d - 1)]
            fwd = (cur + 1) % n
            bwd = (cur - 1) % n
            target = np.where(~flat[row + fwd] | flat[row + bwd], fwd, bwd)
            cur = np.where(coin < spec.eps, target, uniform)
        else:
            cur = nbr[off[cur] + (block[:, j] % deg_u[cur]).astype(np.intp)]
        j += dps
        if j == block.shape[1]:
            block = None  # freed before the next refill is allocated
        steps += 1
        at = row + cur
        new = ~flat[at]
        flat[at] = True
        left -= new
    for i in np.flatnonzero(left > 0):
        rng = SplitMix64.stream(seed, int(trial[i]))
        rng.counter = steps * dps
        out[trial[i] - first] = _resume(g, spec, rng, int(cur[i]), steps, bytearray(vis[i].tobytes()))
    return out.tolist()


class _DecayBias:
    """Bias rows of the target-decay chain in O(m) per target set.

    `rows(U, theta, eps)[v]` equals
    `extract_bias_matrix(induced_chain(g, target_decay_weighting(g, U, theta)), g, eps)[v, adj[v]]`
    bit for bit: edge weights come from the same Python powers of 1 - theta,
    strengths accumulate in canonical edge order, and each adjacency slot
    evaluates w / s(v) and (Q - (1 - eps)(1/d)) / eps as the dense path does.
    The dense checks keep O(m) counterparts: eps in (0, 1], rows of Q
    summing to 1 and detailed balance over edges within 1e-12, B >= -1e-12.
    The slot index arrays are built once per instance, not once per phase.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.d = g.regular_degree
        self.ends = np.array(g.edges, dtype=np.intp)
        slot = {(v, u): v * self.d + i for v, nbrs in enumerate(g.adj) for i, u in enumerate(nbrs)}
        self.slot_vertex = np.repeat(np.arange(g.n), self.d)
        self.slot_edge = np.array([g.edge_index[(min(v, u), max(v, u))] for v, u in slot], dtype=np.intp)
        self.forward = np.array([slot[a, b] for a, b in g.edges], dtype=np.intp)
        self.backward = np.array([slot[b, a] for a, b in g.edges], dtype=np.intp)

    def rows(self, targets: Sequence[int], theta: float, eps: float) -> list[list[float]]:
        if not (0.0 < eps <= 1.0):
            raise WalkError("bias rows need eps in (0, 1]")
        if not (0.0 <= theta < 1.0):
            raise WeightingError("target decay needs theta in [0, 1)")
        dist = distances_from(self.g, targets)
        decay = 1.0 - theta
        powers = np.array([decay**k for k in range(int(dist.max()) + 1)])
        w = powers[dist[self.ends].max(axis=1)]
        if not w.min() > 0.0:
            raise WeightingError("edge weights must be positive and finite")
        # a0 b0 a1 b1 ...: each vertex sums its weights in canonical edge order
        s = np.bincount(self.ends.ravel(), weights=np.repeat(w, 2), minlength=self.g.n)
        q = w[self.slot_edge] / s[self.slot_vertex]
        if np.max(np.abs(q.reshape(-1, self.d).sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise WalkError("decay chain rows must sum to 1 within 1e-12")
        flow = (s / s.sum())[self.slot_vertex] * q
        if np.max(np.abs(flow[self.forward] - flow[self.backward])) > BALANCE_TOL:
            raise WalkError("decay chain fails detailed balance at 1e-12")
        b = (q - (1.0 - eps) * (1.0 / self.d)) / eps
        if float(b.min()) < -1e-12:
            raise WalkError(
                f"chain is not an eps-biased perturbation of the walk (min entry {b.min():.3e})"
            )
        return b.reshape(-1, self.d).tolist()


@dataclass(frozen=True)
class WalkSpec:
    """What to simulate: kind in WALK_KINDS, plus knobs.

    `start` fixes the starting vertex; None means round-robin over all
    starts when n <= 64 (trial i starts at i mod n) and vertex 0 otherwise.
    """

    kind: str
    eps: float = 0.0
    start: int | None = None
    psi: float | None = None


@dataclass
class CoverRow:
    trial: int
    start_vertex: int
    steps: int


@dataclass
class CoverEstimate:
    mean: float
    stddev: float
    ci95: tuple[float, float]
    trials: int
    rows: list[CoverRow] = field(default_factory=list)


def _checked(g: Graph, spec: WalkSpec) -> WalkSpec:
    """`spec` with every precondition checked and, for phase, psi resolved.

    psi is the given value, else the exact vertex expansion when n <= 24,
    else DEFAULT_PSI_CONFIG: any lower bound on the true expansion keeps
    theta inside the regime where the tilted chain provably mixes.
    """
    if spec.kind not in WALK_KINDS:
        raise WalkError(f"unknown walk kind {spec.kind!r}")
    if not (0.0 <= spec.eps <= 1.0):
        raise WalkError("eps must lie in [0, 1]")
    if spec.start is not None and not (0 <= spec.start < g.n):
        raise WalkError(f"start vertex {spec.start} out of range for n={g.n}")
    if spec.kind == "sweep" and any(
        set(nbrs) != {(v - 1) % g.n, (v + 1) % g.n} for v, nbrs in enumerate(g.adj)
    ):
        raise WalkError("sweep walk needs a cycle: vertex v adjacent to exactly v - 1 and v + 1 mod n")
    if spec.kind != "phase":
        return spec
    d = g.regular_degree
    if d is None:
        raise WalkError("phase cover strategy needs a regular graph")
    if spec.eps > 0.0 and d < 3:
        raise WalkError("bias extraction needs degree >= 3")
    psi = spec.psi
    if psi is None:
        psi = vertex_expansion_exact(g)[0] if g.n <= 24 else DEFAULT_PSI_CONFIG
    if not (math.isfinite(psi) and psi >= 0.0):
        raise WalkError(f"psi must be finite and >= 0, got {psi}")
    return replace(spec, psi=psi)


def _trial_runner(g: Graph, spec: WalkSpec) -> Callable[[SplitMix64, int], int]:
    """Scalar cover walk of a checked spec, as a function (rng, start) -> steps.

    Each phase of the phase walk fixes U = the unvisited vertices and plays
    the bias rows of Q(U, theta) (see `_DecayBias`) until half of U is
    visited: at most log2(n) + 1 phases.  theta and the `_DecayBias` are
    built once here and shared by every trial the runner plays.
    """
    n = g.n
    if spec.kind != "phase":

        def cover(rng: SplitMix64, start: int) -> int:
            visited = bytearray(n)
            visited[start] = 1
            return _resume(g, spec, rng, start, 0, visited)

        return cover
    eps = spec.eps
    theta = min(eps, 1.0 - math.exp(-spec.psi / 32.0))
    decay = _DecayBias(g) if eps > 0.0 else None

    def phase_cover(rng: SplitMix64, start: int) -> int:
        u64 = BufferedDraws(rng).u64
        visited = bytearray(n)
        visited[start] = 1
        left = n - 1
        cur = start
        steps = 0
        while left:
            # U is every unvisited vertex, so the phase ends when left <= |U| // 2
            unvisited = [v for v in range(n) if not visited[v]]
            rows = decay.rows(unvisited, theta, eps) if decay is not None else []
            stop = len(unvisited) // 2
            cur, steps, left = _biased_walk(g.adj, u64, visited, cur, steps, left, stop, eps, rows.__getitem__)
        return steps

    return phase_cover


def cover_run(g: Graph, spec: WalkSpec, rng: SplitMix64, start: int) -> int:
    """Steps of one cover walk of `spec` from `start`, drawing from `rng`.

    Checks the spec as `estimate_cover_time` does and plays the same trial.
    """
    return _trial_runner(g, _checked(g, replace(spec, start=start)))(rng, start)


def _resume(g: Graph, spec: WalkSpec, rng: SplitMix64, cur: int, steps: int, visited: bytearray) -> int:
    """Scalar srw or sweep walk from `cur`; draws continue from `rng`'s counter."""
    u64 = BufferedDraws(rng).u64
    if spec.kind == "srw":
        return _cover_run_srw(g.adj, u64, visited, cur, steps)
    left = visited.count(0)
    return _biased_walk(g.adj, u64, visited, cur, steps, left, 0, spec.eps, _sweep_bias(g, visited))[1]


def estimate_cover_time(g: Graph, spec: WalkSpec, trials: int, seed: int) -> CoverEstimate:
    """Monte Carlo cover-time estimate with per-trial derived streams.

    Trial i uses the stream seed XOR i, so the estimate is a pure function
    of (graph, spec, trials, seed).  Every run takes at least n - 1 steps;
    that invariant is asserted on each trial.  The spec is checked, and the
    phase strategy's psi resolved, once here, not once per trial.

    srw and sweep trials run in lockstep batches of up to `_lockstep_width`
    trials (see `_cover_lockstep`); each trial's steps equal those of its
    scalar run, so the rows do not depend on how trials are batched.
    """
    if trials < 2:
        raise WalkError("estimate_cover_time needs at least 2 trials")
    spec = _checked(g, spec)
    if spec.start is not None:
        starts = [spec.start] * trials
    else:
        starts = [trial % g.n if g.n <= 64 else 0 for trial in range(trials)]
    width = max(1, _lockstep_width(g.n, spec.kind))  # 1: every trial scalar
    run = _trial_runner(g, spec)
    counts: list[int] = []
    for first in range(0, trials, width):
        batch = starts[first:first + width]
        if len(batch) >= _LOCKSTEP_MIN:
            counts += _cover_lockstep(g, spec, seed, first, batch)
        else:
            counts += [run(SplitMix64.stream(seed, first + i), s) for i, s in enumerate(batch)]
    rows: list[CoverRow] = []
    for trial, (start, steps) in enumerate(zip(starts, counts)):
        if steps < g.n - 1:
            raise WalkError("cover run shorter than n - 1 steps; engine is corrupt")
        rows.append(CoverRow(trial=trial, start_vertex=start, steps=steps))
    data = np.array([r.steps for r in rows], dtype=float)
    mean = float(data.mean())
    sd = float(data.std(ddof=1))
    half = 1.96 * sd / math.sqrt(trials)
    return CoverEstimate(mean=mean, stddev=sd, ci95=(mean - half, mean + half), trials=trials, rows=rows)


# ---------------------------------------------------------------------------
# stationary boost audit


@dataclass
class StationaryBoostReport:
    min_margin: float
    failures: int
    bound_exponent: float

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def __bool__(self) -> bool:
        return self.ok


def stationary_boost_audit(g: Graph, targets, theta: float) -> StationaryBoostReport:
    """Checks the stationary lower bound on a target set under decay tilt.

    For a d-regular graph (d >= 3), 0 <= theta <= 1/3, and the chain induced
    by the target-decay weighting toward U, every u in U satisfies

        pi(u) >= (1 / (2 d |U|)) * (|U| / n)^(1 + log(1-theta)/log d).
    """
    d = g.regular_degree
    if d is None or d < 3:
        raise WalkError("stationary boost bound needs a regular graph of degree >= 3")
    if not (0.0 <= theta <= 1.0 / 3.0 + 1e-15):
        raise WalkError("stationary boost bound needs theta in [0, 1/3]")
    u_set = sorted(set(int(v) for v in targets))
    if not u_set:
        raise WalkError("stationary boost bound needs a non-empty target set")
    chain = induced_chain(g, target_decay_weighting(g, u_set, theta))
    exponent = 1.0 + (math.log1p(-theta) / math.log(d) if theta > 0.0 else 0.0)
    bound = (1.0 / (2.0 * d * len(u_set))) * (len(u_set) / g.n) ** exponent
    margins = [float(chain.pi[u]) - bound for u in u_set]
    failures = sum(1 for m in margins if m < -1e-15)
    return StationaryBoostReport(min_margin=min(margins), failures=failures, bound_exponent=exponent)

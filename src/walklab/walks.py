"""Biased random walk simulation and the bias-extraction machinery.

The central walk is the epsilon-biased step: with probability 1 - epsilon
move to a uniform neighbour, otherwise sample from a bias vector over the
neighbours.  `step` is the single-step reference: one step from a vertex,
given the bias row aligned with its neighbours.  Every walk kind plays
that step in one loop, `_walk`, which asks a `pick(v, r) -> slot` for the
bias row's sample at each biased step (srw takes none): the phase walk's
pick bisects vertex v's `_thresholds`, the running maxima of the cumulative
sums of its row of the target-decay bias, in one flat list (`_bisector`),
which picks what `step`'s scan picks for every r; the sweep walk's returns
the slot of the forward or backward neighbour of a cycle (`_sweep_picks`).

`extract_bias_matrix` inverts the mixture: given a reversible chain Q
supported on the graph's edges with Q >= (1 - eps)/d entrywise on edges,
it recovers the row-stochastic bias B with (1-eps) P + eps B = Q.  The
target-decay chains of `weighting` satisfy that entrywise condition
whenever theta <= eps and the degree is at least 3, which is exactly how
the phase walk turns a weighting into a playable strategy: each phase
re-targets the unvisited set U, tilts by theta = min(eps, 1 - e^(-psi/32)),
and walks with B until half of U is gone.  The phase walk needs only the d
entries of B on each vertex's edges: `_decay_rows` solves for them with the
dense path's `_bias` on the slot probabilities of `weighting`, for a batch
of U sets at once (one `bfs_columns` call, O(m) array work per set), bit for
bit as `induced_chain(w)` -> `extract_bias_matrix`.  Every phase trial runs
phases of the same sizes, so a batch plays one phase per round: one row
build and one draw block for every trial, then each trial's phase in the
loop.

`cover_run` plays one trial and `estimate_cover_time` many; both check the
spec once, in `_checked`, and make one call (a batch of one for `cover_run`)
to `_cover_trials(g, spec, seeds, counter, starts) -> steps`, the one driver
of every walk kind: trial i plays the stream seeded seeds[i] from `counter`
on, in rounds of `_play`, one to cover for srw and sweep, one per phase for
the phase walk.  A trial that has taken `steps` steps resumes at counter +
(draws per step) * steps: 1 draw per srw step, 2 per sweep or phase step.
Apart from the reference `step`, this module draws through `splitmix_block`
alone, every scalar walk in `_play`: one block for a batch, then blocks of
each trial's own stream.  `_walk` reads one int choice per step from
blocks decoded as the lockstep engine decodes them: srw's u % span, a
column of `_srw_table`, or `_decode_pairs`' uniform neighbour, -1 where the
coin says biased, with the r of each biased step queued beside the choices.

Monte Carlo estimation is deterministic: trial i draws from the splitmix
stream seed XOR i, so results are bit-identical across runs and across
worker counts.  Wide srw and sweep batches advance all their trials together
in numpy (`_cover_lockstep`), one counter block of draws per refill for
every stream, decoded once per block; an srw step is then one add and one
gather through a neighbour table padded to the lcm of the degrees, and first
visits are counted once per block.  Each trial's step count equals that of
the scalar loop, which also finishes the last few trials of a batch from
where the lockstep engine left them.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .chains import ReversibleChain
from .graphs import SUBSET_GUARD, Graph, WalklabError, bfs_columns, vertex_expansion_exact
from .rng import SplitMix64, splitmix_block, stream_seeds, to_unit
from .weighting import _target_decay, slot_transitions, target_decay_weighting, uniform_weighting

# psi used by the phase strategy when the graph is too large for exact
# enumeration.  It is a configured tilt, not a feasible expansion value:
# above SUBSET_GUARD = 24 vertices the expansion is at most
# ceil(n/2)/floor(n/2) <= 13/12.  The tilt theta = min(eps, 1 - e^(-psi/32))
# is conservative in its exponent, so a timid psi makes the bias
# statistically invisible at simulation scales; 2.0 keeps theta around 6% for
# moderate eps, where the cover-time advantage becomes measurable.
DEFAULT_PSI_CONFIG = 2.0

WALK_KINDS = ("srw", "phase", "sweep")

__all__ = [
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


class WalkError(WalklabError):
    """Invalid walk parameters or bias."""


def _check_eps(eps: float) -> None:
    if not (0.0 <= eps <= 1.0):
        raise WalkError("eps must lie in [0, 1]")


def _sample_from_vector(vec: Sequence[float], r: float) -> int:
    acc = 0.0
    last = 0
    for i, p in enumerate(vec):
        acc += p
        last = i
        if r < acc:
            return i
    return last


def step(g: Graph, cur: int, eps: float, bias: Sequence[float] | None, rng) -> int:
    """One epsilon-biased step from `cur`; returns the next vertex.

    `bias` is the row aligned with g.adj[cur], one entry per neighbour, and
    may be None when eps = 0.  Consumes exactly two draws (coin, then r)
    regardless of the branch, so trajectories are replayable from the
    stream alone.
    """
    _check_eps(eps)
    if eps > 0.0 and bias is None:
        raise WalkError("eps > 0 needs a bias row")
    nbrs = g.adj[cur]
    if bias is not None and len(bias) != len(nbrs):
        raise WalkError(f"bias row has {len(bias)} entries, vertex {cur} has {len(nbrs)} neighbours")
    coin = rng.next_float()
    r = rng.next_float()
    if coin < eps:
        idx = _sample_from_vector(bias, r)
    else:
        idx = min(int(r * len(nbrs)), len(nbrs) - 1)
    return nbrs[idx]


# ---------------------------------------------------------------------------
# bias extraction


def extract_bias_matrix(q: ReversibleChain, g: Graph, eps: float) -> np.ndarray:
    """Solve (1 - eps) P + eps B = Q for the bias matrix B.

    P is the simple random walk on g.  B must come out entrywise
    nonnegative and zero off g's edges, diagonal included (dust within 1e-12
    is tolerated and kept, not clamped, so the reconstruction identity stays
    exact).  eps = 0 degenerates: Q must equal P and B is P itself.
    """
    _check_eps(eps)
    n = g.n
    if q.n != n:
        raise WalkError("chain and graph size mismatch")
    sl = g.slots
    p = np.zeros((n, n))
    p[sl.vertex, sl.neighbor] = slot_transitions(uniform_weighting(g))
    if eps == 0.0:
        if float(np.max(np.abs(q.matrix - p))) > 1e-12:
            raise WalkError("eps = 0 requires Q to equal the simple random walk")
        return p
    b = _bias(q.matrix, p, eps)
    off_edges = float(b[p == 0.0].max(initial=0.0))
    if off_edges > 1e-12:
        raise WalkError(f"chain moves off the edges of the graph (B entry {off_edges:.3e})")
    return b


def _bias(q: np.ndarray, p: np.ndarray, eps: float) -> np.ndarray:
    """B = (Q - (1 - eps) P) / eps entrywise, for eps in (0, 1], as a new
    array (q and p are only read)."""
    b = q - (1.0 - eps) * p
    b /= eps
    if float(b.min()) < -1e-12:
        raise WalkError(
            f"chain is not an eps-biased perturbation of the walk (min entry {b.min():.3e})"
        )
    return b


def _decay_rows(g: Graph, targets: np.ndarray, theta: float, eps: float, srw: np.ndarray) -> np.ndarray:
    """Row j of the B x n boolean `targets` is a target set U; entry [j, v] of
    the B x n x d result is B over adj[v] for the chain Q(U, theta) of the
    d-regular graph g, given `srw = slot_transitions(uniform_weighting(g))`.
    One `bfs_columns` call and O(B m) array work: bit for bit the entries of
    `extract_bias_matrix(induced_chain(target_decay_weighting(g, U, theta)), g, eps)`."""
    if not (0.0 < eps <= 1.0):
        raise WalkError("bias rows need eps in (0, 1]")
    q = slot_transitions(_target_decay(g, bfs_columns(g, targets.T).T, theta))
    return _bias(q, srw, eps).reshape(len(targets), g.n, -1)


# ---------------------------------------------------------------------------
# cover-time simulation


def _thresholds(rows: np.ndarray) -> np.ndarray:
    """Bias rows (..., d) as the thresholds `_bisector` reads: the running
    maximum of each row's cumulative sum, its last entry dropped.  Built in
    place on `rows`, a column at a time (a cumsum, then a running max, over
    a tiny last axis), and returned as a view.

    bisect_right(t, r) over a row's d - 1 thresholds t is
    `_sample_from_vector(row, r)`: the first i with r < row[0] + ... +
    row[i], summed in the same order, else d - 1; the running maximum keeps
    that exact when dust down to -1e-12 makes the sums dip."""
    t = rows[..., :-1]
    for j in range(1, t.shape[-1]):
        np.add(t[..., j - 1], t[..., j], out=t[..., j])
    for j in range(1, t.shape[-1]):
        np.maximum(t[..., j - 1], t[..., j], out=t[..., j])
    return t


def _bisector(t: list[float], k: int) -> Callable[[int, float], int]:
    """The phase walk's `pick`: vertex v's row is t[k v : k v + k] of the
    flat list t, the k = d - 1 `_thresholds` of every vertex in turn, and
    its sample at r is bisected within those bounds."""

    def pick(v: int, r: float) -> int:
        lo = k * v
        return bisect_right(t, r, lo, lo + k) - lo

    return pick


def _decode_pairs(z: np.ndarray, d: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(coin, r) draw pairs along the first axis of `z`, decoded as `step`
    reads them on a d-regular graph: the choice -1 when coin < eps (sample
    the bias at r), else the uniform neighbour min(int(r * d), d - 1); and r."""
    biased = to_unit(z[0::2]) < eps
    r = to_unit(z[1::2])
    choice = np.minimum((r * d).astype(np.intp), d - 1)
    choice[biased] = -1
    return choice, r


class _Ring(tuple):
    """A neighbour tuple read at any choice c as nbrs[c % deg]."""

    def __getitem__(self, c: int) -> int:
        return tuple.__getitem__(self, c % len(self))


def _srw_table(g: Graph) -> tuple[list[Sequence[int]], int | None]:
    """(table, span) for the srw walk: table[v][c] = adj[v][c % deg v] for c
    in range(span), span = `_slot_span(g)`, so draw u moves to
    table[v][u % span].  Rows of degree span are adj's own.  A table wider
    than _LOCKSTEP_CELLS cells and 2m has `_Ring` rows and span None."""
    span = _slot_span(g)
    if g.n * span > max(_LOCKSTEP_CELLS, 2 * g.m):
        return [_Ring(nbrs) for nbrs in g.adj], None
    return [nbrs if len(nbrs) == span else tuple(nbrs[c % len(nbrs)] for c in range(span)) for nbrs in g.adj], span


def _walk(adj: Sequence[Sequence[int]], choices: Iterator[int], rs: deque[float] | None, visited: bytearray, cur: int,
          steps: int, left: int, stop: int, pick: Callable[[int, float], int] | None) -> tuple[int, int, int]:
    """Walk until at most `stop` of the `left` unvisited vertices remain.

    One choice per step: -1, a biased step, takes the slot pick(cur, r) for
    the next r of the queue `rs`, the bias row's sample at r; any other
    choice c moves to adj[cur][c].  `_play` serves the choices and fills the
    queue; srw, reading its `_srw_table`, has neither queue nor pick.  Marks
    `visited` in place and returns (cur, steps, left).
    """
    if left <= stop:
        return cur, steps, left
    pop = rs.popleft if rs is not None else None
    for c in choices:
        if c < 0:
            c = pick(cur, pop())
        cur = adj[cur][c]
        steps += 1
        if not visited[cur]:
            visited[cur] = 1
            left -= 1
            if left == stop:
                break
    return cur, steps, left


def _sweep_picks(g: Graph) -> Callable[[bytearray], Callable[[int, float], int]]:
    """Directional bias for cycles: `_sweep_picks(g)(visited)` is the sweep's
    `pick`, read against `visited` at each call.

    Vertex v prefers its +1 neighbour while that is unvisited or the -1
    neighbour is visited, and its -1 neighbour otherwise: a pure function
    of (visited, current), so the walk is replayable.  The bias row is
    one-hot, so its sample is that neighbour's slot for every r in [0, 1);
    both slots of every vertex are found once, here (the lone neighbour of
    a 2-cycle is slot 0).
    """
    n = g.n
    fwd = [(v + 1) % n for v in range(n)]
    bwd = [(v - 1) % n for v in range(n)]
    ahead = [nbrs.index(t) for nbrs, t in zip(g.adj, fwd)]
    back = [nbrs.index(t) for nbrs, t in zip(g.adj, bwd)]

    def against(visited: bytearray) -> Callable[[int, float], int]:
        def pick(v: int, r: float) -> int:
            return back[v] if visited[fwd[v]] and not visited[bwd[v]] else ahead[v]

        return pick

    return against


# Lockstep engine bounds: batches, and tails of batches, narrower than
# _LOCKSTEP_MIN trials run the scalar loop; the visited array of one batch,
# and the padded neighbour table, hold at most _LOCKSTEP_CELLS cells, and one
# refill at most _REFILL_DRAWS draws (128 KiB).
_LOCKSTEP_MIN = 32
_LOCKSTEP_CELLS = 1 << 20
_REFILL_DRAWS = 1 << 14
_DRAWS_PER_STEP = {"srw": 1, "sweep": 2, "phase": 2}
# Draws per trial in a scalar walk's block (see `_play`).
MIN_BLOCK = 64
MAX_BLOCK = 8192


def _play(adj: Sequence[Sequence[int]], decode: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]],
          dps: int, seeds: np.ndarray, at: list[int], size: int, runs: Iterable[tuple]) -> list[tuple[int, int, int]]:
    """What `_walk` returns for each of `runs`, its (cur, steps, visited,
    left, stop, pick), walked in turn on the stream seeded seeds[i] from
    counter at[i].  Every scalar walk draws here.

    One `splitmix_block` call gives each trial its first `size` draws,
    clipped to [MIN_BLOCK, MAX_BLOCK] and to _LOCKSTEP_CELLS for the batch,
    in whole steps of `dps` draws; `decode` maps draws (first axis) to one
    choice per step and the r of each step (None for srw).  A trial that
    runs past its column goes on from blocks of its own stream of the same
    size, doubling up to MAX_BLOCK.  A block's biased r's join the queue
    before its first choice is served.
    """
    size = min(max(size, MIN_BLOCK), MAX_BLOCK, _LOCKSTEP_CELLS // max(len(at), 1))
    size = max(dps, size - size % dps)
    choice, r = decode(splitmix_block(seeds, at, size).T)

    def served(i: int, rs: deque[float] | None) -> Iterator[list[int]]:
        c, rc, k, m = choice[:, i], None if r is None else r[:, i], at[i] + size, size
        while True:
            if rs is not None:
                rs.extend(rc[c < 0].tolist())
            yield c.tolist()
            c, rc = decode(splitmix_block(seeds[i:i + 1], k, m)[0])
            k, m = k + m, min(2 * m, MAX_BLOCK)

    played = []
    for i, (cur, steps, visited, left, stop, pick) in enumerate(runs):
        rs = None if r is None else deque()
        played.append(_walk(adj, chain.from_iterable(served(i, rs)), rs, visited, cur, steps, left, stop, pick))
    return played


def _slot_span(g: Graph) -> int:
    """Choices per vertex of the lockstep neighbour table: the lcm of the
    distinct degrees, so (u % span) % deg(v) = u % deg(v) for every draw u."""
    return math.lcm(*set(g.degrees))


def _cover_lockstep(
    g: Graph, spec: WalkSpec, seeds: np.ndarray, counter: int, starts: Sequence[int]
) -> tuple[list[int], list[tuple[int, int, int, bytearray]]]:
    """Cover steps of srw or sweep trials advanced together in numpy, trial i
    on the stream seeded seeds[i] from `counter` on.

    Every live trial has taken the same number of steps, so every stream
    stands at counter + steps * (draws per step) and one `splitmix_block`
    refill of m steps serves them all.  Each refill is decoded once, as the
    scalar loop decodes its blocks: srw's choice u % span, the sweep's
    `_decode_pairs`.  A position is
    v * width, and nbr[v * width + c] is the position one step from v on
    choice c: srw's adj[v][c % deg v], or the sweep's uniform choice c in
    columns 2c and 2c + 1, then its forward and backward targets.  An srw
    step is one add and one gather.  A sweep step also reads the visited
    flags of its vertex and both neighbours, and takes the backward column
    when the forward neighbour is visited and the backward one is not; it
    marks its vertex one step late, which no read of that vertex's
    neighbours can see.

    Each block reports every (trial, vertex) pair's first visit: the flags
    the sweep read, or, for srw, the earliest of the block's cells that
    were unvisited before it.  These update `left`, and each trial's result
    holds the step of its latest first visit, its cover time once `left`
    is 0.  Blocks start at n - 1 steps, which no trial covers in fewer, and
    double up to the refill cap.  Finished trials are dropped once they
    make up a quarter of the batch.  When fewer than _LOCKSTEP_MIN trials
    are live, it returns every trial's steps (0 if unfinished) and the
    unfinished trials' (index, vertex, steps, visited) for the scalar loop.
    """
    n = g.n
    dps = _DRAWS_PER_STEP[spec.kind]
    span = _slot_span(g)

    def srw_block(block: np.ndarray, pos: np.ndarray, flat: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Walk the block's m steps: the new positions, and the row and the
        step (1..m) of each first visit, marked in `flat`."""
        m = len(block)
        walk = np.remainder(block, span, out=block).view(np.intp)  # choices, then positions
        for c in walk:
            np.add(c, pos, out=c)
            pos = nbr.take(c, out=c, mode="clip")
        pos = pos.copy()
        # The cells unvisited before the block as cell * m + step: sorted,
        # each cell's first entry is its first visit.
        np.floor_divide(walk, width, out=walk)
        walk += rows
        fresh = ~flat.take(walk)
        walk *= m
        walk += np.arange(m)[:, None]
        pairs = walk[fresh]
        pairs.sort()
        cells = np.floor_divide(pairs, m, out=walk.reshape(-1)[: len(pairs)])
        lead = np.ones(len(pairs), dtype=bool)
        np.not_equal(cells[1:], cells[:-1], out=lead[1:])
        cells, j = np.divmod(pairs[lead], m)
        flat[cells] = True
        return pos, cells // n, j + 1

    def sweep_block(block: np.ndarray, pos: np.ndarray, flat: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """As `srw_block`, with steps 0..m - 1: step 0 reads the vertex the
        block starts from.  Every vertex of a sweep graph has degree span."""
        choice = _decode_pairs(block, span, spec.eps)[0]
        walk = np.where(choice < 0, 2 * span, 2 * choice)  # choices, then positions
        del block, choice  # freed before the walk
        reads = np.empty(walk.shape + (3,), dtype=bool)
        at = np.empty((len(pos), 3), dtype=np.intp)
        here = at[:, 1]
        rows = np.repeat(rows, 3).reshape(-1, 3)
        for c, r in zip(walk, reads):
            near.take(pos, axis=0, out=at, mode="clip")
            np.add(at, rows, out=at)
            flat.take(at, out=r, mode="clip")  # forward, own and backward flags
            flat[here] = True
            np.add(c, pos, out=c)
            np.add(c, r[:, 0] > r[:, 2], out=c)
            pos = nbr.take(c, out=c, mode="clip")
        j, i = np.divmod(np.flatnonzero(~reads[:, :, 1]), len(pos))
        return pos.copy(), i, j

    if spec.kind == "sweep":
        width = 2 * span + 2
        ring = [((v + 1) % n, v, (v - 1) % n) for v in range(n)]
        cols = [[u for u in adj for _ in range(2)] + [f, b] for adj, (f, _, b) in zip(g.adj, ring)]
        near = np.repeat(np.array(ring, dtype=np.intp), width, axis=0)  # by position
        advance = sweep_block
    else:
        width = span
        cols = _srw_table(g)[0]
        advance = srw_block
    nbr = np.array(cols, dtype=np.intp).reshape(-1) * width
    index = np.arange(len(starts))  # each row's trial
    pos = np.array(starts, dtype=np.intp) * width
    vis = np.zeros((len(starts), n), dtype=bool)
    vis[index, starts] = True
    left = np.full(len(starts), n - 1, dtype=np.intp)
    out = np.zeros(len(starts), dtype=np.int64)  # step of each trial's latest first visit
    steps = 0
    m = max(1, n - 1)
    while True:
        live = np.count_nonzero(left)
        if live < _LOCKSTEP_MIN:
            break
        if 4 * live <= 3 * len(left):
            keep = left > 0
            index, pos, left, vis = index[keep], pos[keep], left[keep], vis[keep]
        m = min(m, max(1, _REFILL_DRAWS // (dps * len(left))))
        rows = np.arange(len(left)) * n
        # the refill, (dps * m, rows) in C order, is held by advance() alone
        pos, i, j = advance(splitmix_block(seeds[index], counter + steps * dps, dps * m).T, pos, vis.reshape(-1), rows)
        np.maximum.at(out, index[i], j + steps)
        left -= np.bincount(i, minlength=len(left))
        del i, j  # freed before the next refill
        steps += m
        m *= 2
    rest = [(int(index[r]), int(pos[r]) // width, steps, bytearray(vis[r].tobytes())) for r in np.flatnonzero(left)]
    return out.tolist(), rest


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
class CoverEstimate:
    mean: float
    stddev: float
    ci95: tuple[float, float]
    starts: list[int]
    steps: list[int]


def _checked(g: Graph, spec: WalkSpec) -> WalkSpec:
    """`spec` with every precondition checked and, for phase, psi resolved.

    psi is the given value, else the exact vertex expansion when eps > 0
    and n <= SUBSET_GUARD, else DEFAULT_PSI_CONFIG (at eps = 0 theta is 0
    whatever psi is).  A lower bound on the true expansion keeps theta
    inside the regime where the tilted chain provably mixes; the default is
    not one (psi <= 13/12 above SUBSET_GUARD), but a configured tilt outside
    the theorem's hypothesis.
    """
    if spec.kind not in WALK_KINDS:
        raise WalkError(f"unknown walk kind {spec.kind!r}")
    _check_eps(spec.eps)
    if spec.kind == "srw" and spec.eps != 0.0:
        raise WalkError(f"the simple random walk takes no bias: eps must be 0, got {spec.eps}")
    if spec.kind != "phase" and spec.psi is not None:
        raise WalkError(f"only the phase walk takes psi, got psi {spec.psi} for the {spec.kind} walk")
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
        psi = vertex_expansion_exact(g)[0] if spec.eps > 0.0 and g.n <= SUBSET_GUARD else DEFAULT_PSI_CONFIG
    if not (math.isfinite(psi) and psi >= 0.0):
        raise WalkError(f"psi must be finite and >= 0, got {psi}")
    if _tilt(spec.eps, psi) == 1.0:
        raise WalkError(f"the phase tilt min(eps, 1 - e^(-psi/32)) rounds to 1 at eps {spec.eps}, psi {psi}: "
                        "lower --psi or --eps")
    return replace(spec, psi=psi)


def _tilt(eps: float, psi: float) -> float:
    """The phase walk's tilt theta = min(eps, 1 - e^(-psi/32))."""
    return min(eps, 1.0 - math.exp(-psi / 32.0))


def _cover_trials(g: Graph, spec: WalkSpec, seeds: np.ndarray, counter: int, starts: Sequence[int]) -> list[int]:
    """Cover steps of a batch of trials of a checked spec: trial i starts at
    starts[i] and plays the stream seeded seeds[i] from `counter` on.

    An srw or sweep batch of at least _LOCKSTEP_MIN trials whose padded
    neighbour table fits in _LOCKSTEP_CELLS runs in `_cover_lockstep`.
    Every other trial, and every trial the lockstep engine leaves
    unfinished, plays rounds of `_play` from its vertex, visited set and
    steps, at counter + (draws per step) * steps.  An srw or sweep trial
    plays one round, to cover (stop 0).  A phase trial plays one round per
    halving of its unvisited set U: the round retargets U, tilts by theta =
    min(eps, 1 - e^(-psi/32)) and walks with the bias rows of Q(U, theta)
    until half of U is visited.  `left` drops by one per first visit, so
    every phase trial plays rounds of the same sizes, n - 1, (n - 1) // 2,
    ..., 1: at most log2(n) + 1 of them.  Each round builds the rows of
    every trial in one `_decay_rows` call (none when eps = 0) and turns
    them into `_thresholds` in place; each trial then reads its own as one
    flat list, through `_bisector`, made just before it walks.

    A round's batch block starts at the draws of its shortest length,
    (draws per step) * (left - stop) for the fewest `left`, or the median
    draws the batch's trials used in the previous round if more.  No draws
    are held across rounds.
    """
    n, dps, eps, span = g.n, _DRAWS_PER_STEP[spec.kind], spec.eps, _slot_span(g)
    if spec.kind != "phase" and len(starts) >= _LOCKSTEP_MIN and n * span <= _LOCKSTEP_CELLS:
        out, rest = _cover_lockstep(g, spec, seeds, counter, starts)
    else:
        out, rest = [0] * len(starts), [(i, s, 0, bytearray(n)) for i, s in enumerate(starts)]
    adj, decode, picks = g.adj, lambda z: _decode_pairs(z, span, eps), lambda visited: repeat(None)
    if spec.kind == "srw":
        adj, span = _srw_table(g)
        decode = lambda z: (z % span if span else z, None)  # span None: `_Ring` rows
    elif spec.kind == "sweep":
        picks = partial(map, _sweep_picks(g))
    elif eps > 0.0:
        theta, srw = _tilt(eps, spec.psi), slot_transitions(uniform_weighting(g))

        def picks(visited: Sequence[bytearray]) -> Iterator[Callable[[int, float], int]]:
            unvisited = np.frombuffer(b"".join(visited), dtype=np.uint8).reshape(-1, n) == 0
            return (_bisector(t.reshape(-1).tolist(), span - 1)
                    for t in _thresholds(_decay_rows(g, unvisited, theta, eps, srw)))

    index, cur, steps, visited = map(list, zip(*rest)) if rest else ([], [], [], [])
    for c, vis in zip(cur, visited):
        vis[c] = 1  # the start, or the vertex the lockstep sweep marks late
    left, size = [vis.count(0) for vis in visited], 0
    while any(left):
        stop = min(left) // 2 if spec.kind == "phase" else 0  # every phase trial has the same `left`
        at = [counter + dps * s for s in steps]
        # the rows are held by this round's picks alone, so the next round frees them before its build
        played = _play(adj, decode, dps, seeds[index], at, max(dps * (min(left) - stop), size),
                       zip(cur, steps, visited, left, repeat(stop), picks(visited)))
        cur, steps, left = map(list, zip(*played))
        size = sorted(counter + dps * s - a for s, a in zip(steps, at))[len(at) // 2]  # the median draws used
    for i, s in zip(index, steps):
        out[i] = s
    return out


def cover_run(g: Graph, spec: WalkSpec, rng: SplitMix64, start: int) -> int:
    """Steps of one cover walk of `spec` from `start`, drawing from `rng`
    from its counter on; `rng` is left just past the trial's last draw.

    Checks the spec as `estimate_cover_time` does and plays the same trial,
    as a batch of one.
    """
    spec = _checked(g, replace(spec, start=start))
    steps = _cover_trials(g, spec, np.array([rng.seed], dtype=np.uint64), rng.counter, [start])[0]
    rng.counter += _DRAWS_PER_STEP[spec.kind] * steps
    return steps


def estimate_cover_time(g: Graph, spec: WalkSpec, trials: int, seed: int) -> CoverEstimate:
    """Monte Carlo cover-time estimate with per-trial derived streams.

    Trial i uses the stream seed XOR i, so the estimate is a pure function
    of (graph, spec, trials, seed), and trial t starts at starts[t] and takes
    steps[t] steps.  Every run takes at least n - 1 steps, asserted on the
    shortest.  The spec is checked, and the phase strategy's psi resolved,
    once here, not once per trial.

    Trials play in batches: as many srw or sweep trials as hold their
    visited arrays in _LOCKSTEP_CELLS and one step's draws in _REFILL_DRAWS
    (see `_cover_lockstep`), or as many phase trials as hold their bias
    rows in _LOCKSTEP_CELLS; each trial's steps equal those of its scalar
    run, so the estimate does not depend on how trials are batched.
    """
    if trials < 2:
        raise WalkError(f"a cover-time estimate needs at least 2 trials, got {trials}")
    spec = _checked(g, spec)
    if spec.start is not None:
        starts = [spec.start] * trials
    else:
        starts = [trial % g.n if g.n <= 64 else 0 for trial in range(trials)]
    width = max(1, _LOCKSTEP_CELLS // max(1, 2 * g.m) if spec.kind == "phase"
                else min(_LOCKSTEP_CELLS // g.n, _REFILL_DRAWS // _DRAWS_PER_STEP[spec.kind]))
    steps: list[int] = []
    for first in range(0, trials, width):
        batch = starts[first:first + width]
        steps += _cover_trials(g, spec, stream_seeds(seed, np.arange(first, first + len(batch))), 0, batch)
    if min(steps) < g.n - 1:
        raise WalkError("cover run shorter than n - 1 steps; engine is corrupt")
    data = np.array(steps, dtype=float)
    mean = float(data.mean())
    sd = float(data.std(ddof=1))
    half = 1.96 * sd / math.sqrt(trials)
    return CoverEstimate(mean=mean, stddev=sd, ci95=(mean - half, mean + half), starts=starts, steps=steps)


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
    pi = target_decay_weighting(g, u_set, theta).pi
    exponent = 1.0 + (math.log1p(-theta) / math.log(d) if theta > 0.0 else 0.0)
    bound = (1.0 / (2.0 * d * len(u_set))) * (len(u_set) / g.n) ** exponent
    margins = [float(pi[u]) - bound for u in u_set]
    failures = sum(1 for m in margins if m < -1e-15)
    return StationaryBoostReport(min_margin=min(margins), failures=failures, bound_exponent=exponent)

"""Exact finite-horizon event probabilities and the boost-bound machinery.

Events here are visited-set measurable: whether a length-t trajectory
satisfies the event depends only on which target vertices it has touched.
That collapses the d^t trajectory tree onto DP states
(current vertex, visited-target mask, steps remaining), which is what makes
exact cover probabilities feasible up to n = MASK_GUARD and horizons up to
HORIZON_GUARD.  `_encode` is the one encoder of those masks, for a pass and
its rational twin `event_prob_exact` alike.  The plain walk's exact expected
cover time, from every start at once, takes one stacked linear solve per
popcount layer of visited sets, up to n = COVER_GUARD.

Two walks are evaluated on the same DP: the simple random walk (value =
mean of child values) and the optimal epsilon-biased walk
(value = (1-eps) * mean + eps * max).  The max-child rule attains the
optimum because the biased one-step operator is linear in the bias vector,
so some extreme point of the simplex is maximizing.  `boost_bound_grid`
evaluates every eps of a query on one pass, whose eps = 0 row is the plain
walk's p, and stacks the queries' events on shared passes as long as one
value table stays within STACK_CELLS cells; `srw_event_prob` and
`optimal_tbrw_event_prob` are the single-eps passes of one event it is
checked against.  The one-step operator, power means and convexity audit
take a stack of vectors along the last axis, as the sweep audits them; one
vector is evaluated as a stack of one, so its value is bit for bit its row
in any stack.

Everything is cross-checkable: the float DP against an exact rational DP,
and both against a raw trajectory-tree recursion over small horizons that
the oracle tests keep as their reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import Graph, GuardError, WalklabError
from .rng import SplitMix64

MASK_GUARD = 20
COVER_GUARD = 16
# Largest event horizon: a pass keeps 8 bytes per event, eps and step, 8 MiB
# each at the guard; the longest horizon the tests use is 1975.
HORIZON_GUARD = 1 << 20
# Cells (vertex x event x eps x mask) of one value table that events may
# share: stacking small events saves numpy calls, but each one is computed
# over every mask of the union of the tracked sets.
STACK_CELLS = 1 << 15
# How far q* may fall below p, or below a boost bound, in a met report.
BOOST_SLACK = 1e-9

__all__ = [
    "EventKind",
    "EventSpec",
    "OracleError",
    "parse_event_text",
    "srw_event_prob",
    "optimal_tbrw_event_prob",
    "event_prob_exact",
    "biased_operator",
    "power_mean",
    "conv_lemma_audit",
    "boost_bound_audit",
    "boost_bound_grid",
    "BoostReport",
    "BoostValues",
    "eta_grid",
    "srw_expected_cover_exact",
    "majorizes",
    "schur_audit",
    "robin_hood_pair",
]


class OracleError(WalklabError):
    """Invalid event, parameters, or guard violation."""


def _check_eps(eps: float | Fraction | np.ndarray) -> None:
    """The eps range check, of a number or of each entry of an array; a
    Fraction compares with the float bounds exactly."""
    if not all(0.0 <= eps <= 1.0 for eps in np.ravel(eps).tolist()):
        raise OracleError("eps must lie in [0, 1]")


class EventKind(Enum):
    """Event kinds; each value is the kind's word in event text."""

    HIT_ALL = "hitall"
    HIT_ANY = "hitany"
    COVER_ALL = "cover"
    RETURN_TO_START = "return"


@dataclass(frozen=True)
class EventSpec:
    """A monotone trajectory event: horizon plus the vertices that matter.

    HIT_ANY / HIT_ALL fire once any / all of `targets` have been visited
    (the starting vertex counts as visited at time 0).  COVER_ALL targets
    the whole vertex set.  RETURN_TO_START fires when the walk re-enters
    its starting vertex at some step >= 1.
    """

    kind: EventKind
    horizon: int
    targets: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.horizon < 0:
            raise OracleError("event horizon must be >= 0")
        if self.horizon > HORIZON_GUARD:
            raise GuardError(f"event horizon {self.horizon} exceeds guard {HORIZON_GUARD}")
        if self.kind in (EventKind.HIT_ALL, EventKind.HIT_ANY) and not self.targets:
            raise OracleError("hit events need at least one target")
        if self.kind in (EventKind.COVER_ALL, EventKind.RETURN_TO_START) and self.targets:
            raise OracleError(f"{self.kind.value} takes no explicit targets")

    def describe(self) -> str:
        if self.kind is EventKind.HIT_ANY and len(self.targets) == 1:
            return f"hit:{next(iter(self.targets))}"
        if self.targets:
            return f"{self.kind.value}:{','.join(str(v) for v in sorted(self.targets))}"
        return self.kind.value


def parse_event_text(text: str, horizon: int) -> EventSpec:
    """Parse "hit:3", "hitall:1,2", "hitany:0,5", "cover", "return"; "hit"
    is short for "hitany"."""
    head, colon, tail = text.partition(":")
    head = head.strip().lower()
    try:
        kind = EventKind("hitany" if head == "hit" else head)
    except ValueError:
        raise OracleError(f"unknown event {text!r}") from None
    try:
        targets = frozenset(int(part) for part in tail.split(",")) if colon else frozenset()
    except ValueError as exc:
        raise OracleError(f"bad target list in event {text!r}") from exc
    return EventSpec(kind, horizon, targets)


# ---------------------------------------------------------------------------
# DP core


def _targets(g: Graph, u: int, event: EventSpec) -> list[int]:
    """The vertices the event tracks from start u, sorted.  Checks every
    precondition the DPs share."""
    if g.n < 2:
        raise OracleError("event DP needs n >= 2")
    if not (0 <= u < g.n):
        raise OracleError("start vertex out of range")
    if event.kind is EventKind.RETURN_TO_START:
        targets = [u]
    elif event.kind is EventKind.COVER_ALL:
        targets = list(range(g.n))
    else:
        targets = sorted(event.targets)
    if any(not (0 <= v < g.n) for v in targets):
        raise OracleError("event target out of range")
    if len(targets) > MASK_GUARD:
        raise GuardError(f"event tracks {len(targets)} vertices, guard is {MASK_GUARD}")
    return targets


def _encode(g: Graph, u: int, events: Sequence[EventSpec]) -> tuple[list[int], list[int], list[int]]:
    """The events as DP masks from start u, over the union of their tracked
    vertices: each vertex's mask bit (0 when no event tracks it), and each
    event's want mask (its tracked vertices) and mask at time 0."""
    tracked = [_targets(g, u, event) for event in events]
    bits = [0] * g.n
    for i, v in enumerate(sorted(set().union(*tracked))):
        bits[v] = 1 << i
    wants = [sum(bits[v] for v in targets) for targets in tracked]
    # A return event does not count time 0 as a visit to the start.
    starts = [0 if event.kind is EventKind.RETURN_TO_START else bits[u] for event in events]
    return bits, wants, starts


def _satisfied(event: EventSpec, mask: np.ndarray | int, want: int):
    """Whether the visited `mask` satisfies the event whose tracked
    vertices are the bits of `want`."""
    if event.kind in (EventKind.HIT_ALL, EventKind.COVER_ALL):
        return (mask & want) == want
    return (mask & want) != 0


def _horizon_values(
    g: Graph, u: int, events: Sequence[EventSpec], eps_values: Sequence[float]
) -> list[list[list[float]]]:
    """Value at the start for every event, eps and horizon: entry [k][e][t]
    is the horizon-t value of the eps_values[e]-biased walk for events[k],
    t = 0..events[k].horizon.  Events share a pass, in order, while its
    value table stays within STACK_CELLS; one over it alone runs alone."""
    groups: list[list[EventSpec]] = []
    union: set[int] = set()
    for event in events:
        tracked = set(_targets(g, u, event))
        if groups and g.n * (len(groups[-1]) + 1) * len(eps_values) << len(union | tracked) <= STACK_CELLS:
            groups[-1].append(event)
            union |= tracked
        else:
            groups.append([event])
            union = tracked
    return [row for group in groups for row in _dp_pass(g, u, group, eps_values)]


def _dp_pass(g: Graph, u: int, events: Sequence[EventSpec], eps_values: Sequence[float]) -> list[list[list[float]]]:
    """One backward pass for several events, stacked as value[v, key, e, mask]
    over the masks `_encode` lays out on the union of their tracked vertices.

    After t steps the table holds the horizon-t values, so the pass to the
    largest horizon yields every shorter one unchanged.  A key's value at
    mask M depends only on M's bits among its own targets, and every key
    takes the same operations, so each key's rows equal its pass alone bit
    for bit.  The eps = 0 row is the plain walk bit for bit: for values in
    [0, 1], 1.0 * mean + 0.0 * max is mean."""
    bits, wants, starts = _encode(g, u, events)
    masks = np.arange(1 << (g.n - bits.count(0)))
    eps = np.array(eps_values, dtype=float)[:, None]
    keep = 1.0 - eps
    kid_rows = [masks | bits[w] for w in range(g.n)]
    nbrs = [np.array(adj) for adj in g.adj]
    # Horizon-0 values are the terminal indicator; monotonicity (children
    # masks are supersets) then keeps satisfied masks at value 1 through
    # every backward step without special casing.
    terminal = [_satisfied(event, masks, want) for event, want in zip(events, wants)]
    value = np.tile(np.where(terminal, 1.0, 0.0)[:, None, :], (g.n, 1, len(eps), 1))
    # kid[w, key, e, mask]: the value of stepping to w from `mask`.  Each
    # step reads only kid, so it overwrites value in place: two tables in all.
    kid = np.empty_like(value)
    keys = np.arange(len(events))
    out = np.empty((len(events), len(eps), max(event.horizon for event in events) + 1))
    out[:, :, 0] = value[u, keys, :, starts]
    for step in range(1, out.shape[2]):
        for w, rows in enumerate(kid_rows):
            np.take(value[w], rows, axis=2, out=kid[w])
        for v, adj in enumerate(nbrs):
            kids = kid[adj]
            mean = np.add.reduce(kids) / len(adj)
            value[v] = keep * mean + eps * np.maximum.reduce(kids)
        out[:, :, step] = value[u, keys, :, starts]
    return [out[k, :, : event.horizon + 1].tolist() for k, event in enumerate(events)]


def srw_event_prob(g: Graph, u: int, event: EventSpec) -> float:
    """Exact probability that the simple random walk from u satisfies the
    event within its horizon."""
    return _horizon_values(g, u, [event], (0.0,))[0][0][-1]


def optimal_tbrw_event_prob(g: Graph, u: int, event: EventSpec, eps: float) -> float:
    """Value of the best epsilon-biased strategy for the event.

    Backward recursion q = (1-eps) * mean(children) + eps * max(children);
    among maximizing children the lower vertex id is the canonical pick.
    eps=0 reduces to the plain walk, eps=1 to full control.
    """
    _check_eps(eps)
    return _horizon_values(g, u, [event], (eps,))[0][0][-1]


def event_prob_exact(g: Graph, u: int, event: EventSpec, eps: Fraction = Fraction(0)) -> Fraction:
    """Rational-arithmetic twin of the DP, for float cross-validation."""
    _check_eps(eps)
    bits, (want,), (start,) = _encode(g, u, [event])
    memo: dict[tuple[int, int, int], Fraction] = {}

    def value(v: int, mask: int, left: int) -> Fraction:
        if _satisfied(event, mask, want):
            return Fraction(1)
        if left == 0:
            return Fraction(0)
        key = (v, mask, left)
        got = memo.get(key)
        if got is None:
            kids = [value(w, mask | bits[w], left - 1) for w in g.adj[v]]
            # exact arithmetic: at eps = 0 this is the mean itself
            got = (1 - eps) * Fraction(sum(kids), len(kids)) + eps * max(kids)
            memo[key] = got
        return got

    return value(u, start, event.horizon)


# ---------------------------------------------------------------------------
# one-step operator, power means


def _vectors(x: Sequence | np.ndarray, message: str) -> np.ndarray:
    """x as a float array whose last axis holds the vectors; OracleError(message)
    for a number or a ragged nest."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise OracleError(message) from None
    if x.ndim == 0:
        raise OracleError(message)
    return x


def biased_operator(eps: float | np.ndarray, b: Sequence | np.ndarray, v: Sequence | np.ndarray) -> float | np.ndarray:
    """sum_i ((1-eps)/d + eps * b_i) * v_i for a bias distribution b.

    b and v hold their vectors along the last axis: one pair gives a float,
    a stack of pairs an array of the leading shape, with eps a number or an
    array of that shape."""
    b = _vectors(b, "bias and value vectors must have equal length")
    v = _vectors(v, "bias and value vectors must have equal length")
    if b.shape != v.shape:
        raise OracleError("bias and value vectors must have equal length")
    _check_eps(eps)
    bs, vs = np.moveaxis(np.atleast_2d(b), -1, 0), np.moveaxis(np.atleast_2d(v), -1, 0)
    if np.any(abs(sum(bs) - 1.0) > 1e-9) or (b < -1e-12).any():
        raise OracleError("bias must be a probability vector")
    if (v < 0).any():
        raise OracleError("value entries must be nonnegative")
    uniform = (1.0 - eps) / len(vs)
    out = sum((uniform + eps * bi) * vi for bi, vi in zip(bs, vs))
    return out.item() if v.ndim == 1 else out


def power_mean(r: float, v: Sequence | np.ndarray) -> float | np.ndarray:
    """M_r(v) = ((v_1^r + ... + v_d^r) / d)^(1/r); r = inf gives max.

    v holds its vectors along the last axis: one vector gives a float, a
    stack of them an array of the leading shape."""
    v = _vectors(v, "power mean needs a non-empty vector")
    if not v.shape[-1]:
        raise OracleError("power mean needs a non-empty vector")
    if (v < 0).any():
        raise OracleError("power mean entries must be nonnegative")
    if not r >= 1:
        raise OracleError("power mean implemented for r >= 1 only")
    xs = np.atleast_2d(v)
    if math.isinf(r):
        out = xs.max(axis=-1)
    else:
        with np.errstate(over="ignore"):  # a power past the float range is inf
            total = sum(x**r for x in np.moveaxis(xs, -1, 0))
        out = (total / xs.shape[-1]) ** (1.0 / r)
    return out.item() if v.ndim == 1 else out


def _leq_with_slack(lhs: float | np.ndarray, rhs: float | np.ndarray) -> bool | np.ndarray:
    return lhs <= rhs + 1e-12 * np.maximum(1.0, abs(rhs))


def conv_lemma_audit(
    d: int, eps: float | np.ndarray, eta: float | np.ndarray, v: Sequence | np.ndarray, b: Sequence | np.ndarray
) -> bool | np.ndarray:
    """One-step convexity bounds on the biased operator.

    Always: B_{eps,b}(v) <= (1 + eps(d-1)) * M_1(v).
    When eps <= 1/d^(2 eta) and 0 < eta <= 1, additionally:
    B_{eps,b}(v) <= exp(4/d^eta) * M_{(1+eta)/eta}(v).
    The second check is skipped (not failed) off its precondition.  v and b
    hold their vectors along the last axis: one pair gives a bool, a stack
    of pairs a bool array of the leading shape, with eps and eta numbers or
    arrays of that shape.
    """
    v = _vectors(v, "vectors must have length d")
    b = _vectors(b, "vectors must have length d")
    if v.shape[-1] != d or b.shape[-1] != d:
        raise OracleError("vectors must have length d")
    lhs = biased_operator(eps, b, v)
    ok = _leq_with_slack(lhs, (1.0 + eps * (d - 1)) * power_mean(1, v))
    # the second claim's constants are Python floats, one pair per distinct eta
    for e in set(np.ravel(eta).tolist()):
        if 0.0 < e <= 1.0:
            at = (eta == e) & (eps <= 1.0 / d ** (2.0 * e))
            if np.any(at):
                rhs = math.exp(4.0 / d**e) * power_mean((1.0 + e) / e, v)
                ok &= _leq_with_slack(lhs, rhs) | np.logical_not(at)
    return bool(ok) if np.ndim(ok) == 0 else ok


def eta_grid(d: int) -> tuple[float, ...]:
    """Exponent grid for the second-claim audits; includes the
    log log d / log d point whenever it is defined and positive."""
    grid = [0.25, 0.5, 1.0]
    if d >= 3:
        grid.append(math.log(math.log(d)) / math.log(d))
    return tuple(sorted(set(grid)))


# ---------------------------------------------------------------------------
# boost bounds


@dataclass(frozen=True)
class BoostReport:
    """Optimal biased value against the two multiplicative/root bounds.

    bound1 = (1 + eps(d_max - 1))^t * p  always applies;
    bound2 = exp(4 t / d_min^eta) * p^(eta/(1+eta))  applies when
    eps <= 1/d_max^(2 eta); it is None otherwise.  A bound past the float
    range is None too, with a None margin, and is met, since q* <= 1.
    """

    event: str
    t: int
    eps: float
    eta: float
    p: float
    q_star: float
    bound1: float | None
    bound2: float | None

    @property
    def margin1(self) -> float | None:
        return None if self.bound1 is None else self.bound1 - self.q_star

    @property
    def margin2(self) -> float | None:
        return None if self.bound2 is None else self.bound2 - self.q_star

    @property
    def ok(self) -> bool:
        if self.q_star < self.p - BOOST_SLACK:
            return False
        return not any(margin is not None and margin < -BOOST_SLACK for margin in (self.margin1, self.margin2))

    def to_json_dict(self, graph_id: str) -> dict:
        return {
            "graph_id": graph_id,
            "event": self.event,
            "t": self.t,
            "eps": self.eps,
            "eta": self.eta,
            "p": self.p,
            "q_star": self.q_star,
            "bound1": self.bound1,
            "bound2": self.bound2,
            "margin1": self.margin1,
            "margin2": self.margin2,
        }


@dataclass(frozen=True)
class BoostValues:
    """One event's values over an eps x eta grid, each computed once at its
    own level: p per event, q* and bound1 per eps, bound2 per eta.

    bound2s[h] is bound2 at etas[h]; it applies at eps_values[e] where
    applies[e][h].  A bound past the float range is None.
    """

    event: str
    t: int
    p: float
    eps_values: tuple[float, ...]
    etas: tuple[float, ...]
    applies: tuple[tuple[bool, ...], ...]
    q_stars: list[float]
    bound1s: list[float | None]
    bound2s: list[float | None]

    def report(self, e: int, h: int) -> BoostReport:
        """The report at (eps_values[e], etas[h])."""
        bound2 = self.bound2s[h] if self.applies[e][h] else None
        return BoostReport(
            self.event, self.t, self.eps_values[e], self.etas[h], self.p, self.q_stars[e], self.bound1s[e], bound2
        )


def boost_bound_audit(g: Graph, u: int, event: EventSpec, eps: float, eta: float) -> BoostReport:
    """Evaluate p, q*, and the boost bounds for one (graph, event) query.

    q* dominates every eps-biased strategy, so q* within the bound proves
    the bound for all of them.
    """
    return boost_bound_grid(g, u, [event], [eps], [eta])[0].report(0, 0)


def _from_log(log_scale: float, p: float, power: float = 1.0) -> float | None:
    """scale * p^power for a scale past the float range, from its logarithm:
    0 at p = 0 (not 0 * inf), None where the bound is past the range too."""
    if p == 0.0:
        return 0.0
    try:
        return math.exp(log_scale + power * math.log(p))
    except OverflowError:
        return None


def boost_bound_grid(
    g: Graph, u: int, events: Sequence[EventSpec], eps_values: Sequence[float], etas: Sequence[float]
) -> list[BoostValues]:
    """The boost values of every event over the eps x eta grid, in order.

    Events that differ only in horizon are one DP key, run to their largest
    horizon over the distinct values of (0, *eps_values); the keys are
    stacked on the passes of `_horizon_values`, and the eps = 0 row is the
    plain walk and supplies p.  Each p and q* equals the single-eps pass of
    `srw_event_prob` and `optimal_tbrw_event_prob` bit for bit.  A bound is
    its float expression wherever that is finite; where a power or an
    exponential would overflow, it is taken from its logarithm, as
    `robustness._at_least` decides Theorem 3.1's.
    """
    for eps in eps_values:
        _check_eps(eps)
    if not all(0.0 < eta <= 1.0 for eta in etas):
        raise OracleError("eta must lie in (0, 1]")
    tmax: dict[tuple, int] = {}
    for event in events:
        key = (event.kind, event.targets)
        tmax[key] = max(tmax.get(key, 0), event.horizon)
    grid = tuple(dict.fromkeys((0.0, *eps_values)))
    keyed = [EventSpec(kind, t, targets) for (kind, targets), t in tmax.items()]
    values = dict(zip(tmax, _horizon_values(g, u, keyed, grid)))
    d_max = max(g.degrees)
    d_min = min(g.degrees)
    eps_values, etas = tuple(eps_values), tuple(etas)
    rows = [grid.index(eps) for eps in eps_values]
    growths = [(1.0 + eps * (d_max - 1), math.log1p(eps * (d_max - 1))) for eps in eps_values]
    roots = [(d_min**eta, eta / (1.0 + eta)) for eta in etas]
    applies = tuple(tuple(eps <= 1.0 / d_max ** (2.0 * eta) for eta in etas) for eps in eps_values)
    out = []
    for event in events:
        table = values[event.kind, event.targets]
        t = event.horizon
        p = table[0][t]
        bound1s: list[float | None] = []
        for base, log_base in growths:
            try:
                bound1s.append(base**t * p)
            except OverflowError:
                bound1s.append(_from_log(t * log_base, p))
        bound2s: list[float | None] = []
        for root, power in roots:
            try:
                bound2s.append(math.exp(4.0 * t / root) * p**power if p > 0 else 0.0)
            except OverflowError:
                bound2s.append(_from_log(4.0 * t / root, p, power))
        q_stars = [table[row][t] for row in rows]
        out.append(BoostValues(event.describe(), t, p, eps_values, etas, applies, q_stars, bound1s, bound2s))
    return out


# ---------------------------------------------------------------------------
# exact cover expectations


def srw_expected_cover_exact(g: Graph) -> np.ndarray:
    """Expected SRW cover time from every start, by absorption on the
    (vertex, visited) chain: entry u is the value from u.  Guarded at
    COVER_GUARD; a one-vertex graph gives [0.0].

    E(v, mask), the expected steps to cover from v having visited mask, is
    1 + sum_w P(v, w) E(w, mask | bit w) for every mask holding v: one
    stacked solve per popcount layer from n - 1 down, where a step out of
    the mask reads the layer above and a step inside it reads 0 from the
    unwritten table and moves into the matrix I - P on the mask's vertices.
    Start u reads E(u, {u}).
    """
    n = g.n
    if n > COVER_GUARD:
        raise GuardError(f"exact cover expectation guard is n <= {COVER_GUARD}")
    p = np.zeros((n, n))
    p[g.slots.vertex, g.slots.neighbor] = 1.0 / np.repeat(g.degrees, g.degrees)
    vs = np.arange(n)
    masks = np.arange(1 << n)
    expect = np.zeros((1 << n, n))
    for k in range(n - 1, 0, -1):
        layer = masks[np.bitwise_count(masks) == k, None]
        verts = np.nonzero(layer >> vs & 1)[1].reshape(-1, k)
        rhs = 1.0 + p[verts] @ expect[layer | 1 << vs, vs][:, :, None]
        a = np.eye(k) - p[verts[:, :, None], verts[:, None, :]]
        expect[layer, verts] = np.linalg.solve(a, rhs)[:, :, 0]
    return expect[1 << vs, vs]


# ---------------------------------------------------------------------------
# majorization and Schur convexity


def majorizes(x: Sequence[float], y: Sequence[float]) -> bool:
    """Sorted prefix sums of x dominate those of y, with equal totals."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise OracleError("majorization needs equal-length vectors")
    cx = np.cumsum(np.sort(x)[::-1])
    cy = np.cumsum(np.sort(y)[::-1])
    scale = max(1.0, float(np.abs(cx[-1])))
    if abs(float(cx[-1] - cy[-1])) > 1e-9 * scale:
        return False
    return bool(np.all(cx >= cy - 1e-9 * scale))


def schur_audit(r: float, x: Sequence[float], y: Sequence[float]) -> bool:
    """majorizes(x, y) implies M_r(x) >= M_r(y); vacuous when incomparable."""
    if not majorizes(x, y):
        return True
    return power_mean(r, x) >= power_mean(r, y) - 1e-9 * max(1.0, power_mean(r, y))


def robin_hood_pair(rng: SplitMix64, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Random (x, y) with x majorizing y by construction.

    y is x after a chain of 8 rich-to-poor transfers, each moving at most
    half the gap, which preserves the sum and only ever levels the vector.
    """
    if length < 2:
        raise OracleError("need length >= 2")
    x = np.array([rng.next_float() for _ in range(length)])
    y = x.copy()
    for _ in range(8):
        i = rng.randrange(length)
        j = rng.randrange(length)
        if y[i] == y[j]:
            continue
        if y[i] < y[j]:
            i, j = j, i
        delta = rng.next_float() * (y[i] - y[j]) / 2.0
        y[i] -= delta
        y[j] += delta
    return x, y

"""Exact finite-horizon event probabilities and the boost-bound machinery.

Events here are visited-set measurable: whether a length-t trajectory
satisfies the event depends only on which target vertices it has touched.
That collapses the d^t trajectory tree onto DP states
(current vertex, visited-target mask, steps remaining), which is what makes
exact cover probabilities feasible up to n = MASK_GUARD.  The plain walk's
exact expected cover time, from every start at once, takes one stacked
linear solve per popcount layer of visited sets, up to n = COVER_GUARD.

Two walks are evaluated on the same DP: the simple random walk (value =
mean of child values) and the optimal epsilon-biased walk
(value = (1-eps) * mean + eps * max).  The max-child rule attains the
optimum because the biased one-step operator is linear in the bias vector,
so some extreme point of the simplex is maximizing.  `boost_bound_grid`
evaluates every eps of a query on one pass, whose eps = 0 row is the plain
walk's p; `srw_event_prob` and `optimal_tbrw_event_prob` are the single-eps
passes it is checked against.

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
    "eta_grid",
    "srw_expected_cover_exact",
    "majorizes",
    "schur_audit",
    "robin_hood_pair",
]


class OracleError(WalklabError):
    """Invalid event, parameters, or guard violation."""


def _check_eps(eps: float | Fraction) -> None:
    """The eps range check; a Fraction compares with the float bounds exactly."""
    if not (0.0 <= eps <= 1.0):
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


def _encode(g: Graph, u: int, event: EventSpec) -> tuple[list[int], int, int]:
    """The event as DP masks from start u: each vertex's mask bit (0 when
    inert), the mask of every tracked vertex, and the mask at time 0.
    Checks every precondition the DPs share."""
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
    bits = [0] * g.n
    for i, v in enumerate(targets):
        bits[v] = 1 << i
    # A return event does not count time 0 as a visit to the start.
    start = 0 if event.kind is EventKind.RETURN_TO_START else bits[u]
    return bits, (1 << len(targets)) - 1, start


def _satisfied(event: EventSpec, mask: np.ndarray | int, full: int):
    if event.kind in (EventKind.HIT_ALL, EventKind.COVER_ALL):
        return mask == full
    return mask != 0


def _horizon_values(g: Graph, u: int, event: EventSpec, eps_values: Sequence[float]) -> list[list[float]]:
    """Value at the start for every eps and every horizon 0..event.horizon,
    from one backward pass: row e, column t is the horizon-t value of the
    eps_values[e]-biased walk.  After t steps the table holds the horizon-t
    values, so the pass to the largest horizon yields every shorter one
    unchanged.  The eps = 0 row is the plain walk bit for bit: for values
    in [0, 1], 1.0 * mean + 0.0 * max is mean."""
    bits, full, start = _encode(g, u, event)
    eps = np.array(eps_values, dtype=float)[:, None]
    keep = 1.0 - eps
    masks = np.arange(full + 1)
    kid_rows = [masks | bits[w] for w in range(g.n)]
    nbrs = [np.array(adj) for adj in g.adj]
    # Horizon-0 values are the terminal indicator; monotonicity (children
    # masks are supersets) then keeps satisfied masks at value 1 through
    # every backward step without special casing.  value[v, e, mask].
    value = np.where(_satisfied(event, masks, full), 1.0, 0.0)
    value = np.tile(value, (g.n, len(eps), 1))
    # kid[w, e, mask]: the value of stepping to w from `mask`.  Each step
    # reads only kid, so it overwrites value in place: two tables in all.
    kid = np.empty_like(value)
    out = np.empty((len(eps), event.horizon + 1))
    out[:, 0] = value[u, :, start]
    for step in range(1, event.horizon + 1):
        for w, rows in enumerate(kid_rows):
            np.take(value[w], rows, axis=1, out=kid[w])
        for v, adj in enumerate(nbrs):
            kids = kid[adj]
            mean = np.add.reduce(kids) / len(adj)
            value[v] = keep * mean + eps * np.maximum.reduce(kids)
        out[:, step] = value[u, :, start]
    return out.tolist()


def srw_event_prob(g: Graph, u: int, event: EventSpec) -> float:
    """Exact probability that the simple random walk from u satisfies the
    event within its horizon."""
    return _horizon_values(g, u, event, (0.0,))[0][-1]


def optimal_tbrw_event_prob(g: Graph, u: int, event: EventSpec, eps: float) -> float:
    """Value of the best epsilon-biased strategy for the event.

    Backward recursion q = (1-eps) * mean(children) + eps * max(children);
    among maximizing children the lower vertex id is the canonical pick.
    eps=0 reduces to the plain walk, eps=1 to full control.
    """
    _check_eps(eps)
    return _horizon_values(g, u, event, (eps,))[0][-1]


def event_prob_exact(g: Graph, u: int, event: EventSpec, eps: Fraction = Fraction(0)) -> Fraction:
    """Rational-arithmetic twin of the DP, for float cross-validation."""
    _check_eps(eps)
    bits, full, start = _encode(g, u, event)
    memo: dict[tuple[int, int, int], Fraction] = {}

    def value(v: int, mask: int, left: int) -> Fraction:
        if _satisfied(event, mask, full):
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


def _floats(x: Sequence[float], message: str) -> list[float]:
    """x as a list of floats; OracleError(message) unless x is one flat
    sequence of numbers."""
    try:
        return [float(e) for e in x]
    except TypeError:
        raise OracleError(message) from None


def biased_operator(eps: float, b: Sequence[float], v: Sequence[float]) -> float:
    """sum_i ((1-eps)/d + eps * b_i) * v_i for a bias distribution b."""
    b = _floats(b, "bias and value vectors must have equal length")
    v = _floats(v, "bias and value vectors must have equal length")
    if len(b) != len(v):
        raise OracleError("bias and value vectors must have equal length")
    _check_eps(eps)
    if abs(sum(b) - 1.0) > 1e-9 or min(b) < -1e-12:
        raise OracleError("bias must be a probability vector")
    if min(v) < 0:
        raise OracleError("value entries must be nonnegative")
    uniform = (1.0 - eps) / len(v)
    return sum((uniform + eps * bi) * vi for bi, vi in zip(b, v))


def power_mean(r: float, v: Sequence[float]) -> float:
    """M_r(v) = ((v_1^r + ... + v_d^r) / d)^(1/r); r = inf gives max."""
    v = _floats(v, "power mean needs a non-empty vector")
    if not v:
        raise OracleError("power mean needs a non-empty vector")
    if min(v) < 0:
        raise OracleError("power mean entries must be nonnegative")
    if not r >= 1:
        raise OracleError("power mean implemented for r >= 1 only")
    if math.isinf(r):
        return max(v)
    if r == 1:
        return sum(v) / len(v)
    try:
        total = sum(x**r for x in v)
    except OverflowError:  # a float power raises where numpy's gives inf
        return math.inf
    return (total / len(v)) ** (1.0 / r)


def _leq_with_slack(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def conv_lemma_audit(d: int, eps: float, eta: float, v: Sequence[float], b: Sequence[float]) -> bool:
    """One-step convexity bounds on the biased operator.

    Always: B_{eps,b}(v) <= (1 + eps(d-1)) * M_1(v).
    When eps <= 1/d^(2 eta) and 0 < eta <= 1, additionally:
    B_{eps,b}(v) <= exp(4/d^eta) * M_{(1+eta)/eta}(v).
    The second check is skipped (not failed) off its precondition.
    """
    if len(v) != d or len(b) != d:
        raise OracleError("vectors must have length d")
    lhs = biased_operator(eps, b, v)
    if not _leq_with_slack(lhs, (1.0 + eps * (d - 1)) * power_mean(1, v)):
        return False
    if 0.0 < eta <= 1.0 and eps <= 1.0 / d ** (2.0 * eta):
        rhs = math.exp(4.0 / d**eta) * power_mean((1.0 + eta) / eta, v)
        if not _leq_with_slack(lhs, rhs):
            return False
    return True


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
    eps <= 1/d_max^(2 eta); it is None otherwise.
    """

    event: str
    t: int
    eps: float
    eta: float
    p: float
    q_star: float
    bound1: float
    bound2: float | None

    @property
    def margin1(self) -> float:
        return self.bound1 - self.q_star

    @property
    def margin2(self) -> float | None:
        return None if self.bound2 is None else self.bound2 - self.q_star

    @property
    def ok(self) -> bool:
        if self.q_star < self.p - 1e-9:
            return False
        if self.margin1 < -1e-9:
            return False
        return self.margin2 is None or self.margin2 >= -1e-9

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


def boost_bound_audit(g: Graph, u: int, event: EventSpec, eps: float, eta: float) -> BoostReport:
    """Evaluate p, q*, and the boost bounds for one (graph, event) query.

    q* dominates every eps-biased strategy, so q* within the bound proves
    the bound for all of them.
    """
    return boost_bound_grid(g, u, [event], [eps], [eta])[0]


def boost_bound_grid(
    g: Graph, u: int, events: Sequence[EventSpec], eps_values: Sequence[float], etas: Sequence[float]
) -> list[BoostReport]:
    """The boost report of every (event, eps, eta), in that nesting order.

    Events that differ only in horizon share one DP pass over the distinct
    values of (0, *eps_values), run to their largest horizon; its eps = 0
    row is the plain walk and supplies p.  Each p and q* equals the
    single-eps pass of `srw_event_prob` and `optimal_tbrw_event_prob` bit
    for bit.
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
    values = {key: _horizon_values(g, u, EventSpec(key[0], t, key[1]), grid) for key, t in tmax.items()}
    d_max = max(g.degrees)
    d_min = min(g.degrees)
    reports = []
    for event in events:
        table = values[event.kind, event.targets]
        text, t = event.describe(), event.horizon
        p = table[0][t]
        for eps in eps_values:
            q_star = table[grid.index(eps)][t]
            bound1 = (1.0 + eps * (d_max - 1)) ** t * p
            for eta in etas:
                bound2 = None
                if eps <= 1.0 / d_max ** (2.0 * eta):
                    bound2 = math.exp(4.0 * t / d_min**eta) * p ** (eta / (1.0 + eta)) if p > 0 else 0.0
                reports.append(BoostReport(text, t, eps, eta, p, q_star, bound1, bound2))
    return reports


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

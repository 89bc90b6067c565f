"""Exact finite-horizon event probabilities and the boost-bound machinery.

Events here are visited-set measurable: whether a length-t trajectory
satisfies the event depends only on which target vertices it has touched.
That collapses the d^t trajectory tree onto DP states
(current vertex, visited-target mask, steps remaining), which is what makes
exact cover probabilities feasible up to n = 14.

Two walks are evaluated on the same DP: the simple random walk (value =
mean of child values) and the optimal epsilon-biased walk
(value = (1-eps) * mean + eps * max).  The max-child rule attains the
optimum because the biased one-step operator is linear in the bias vector,
so some extreme point of the simplex is maximizing.

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

from .graphs import Graph, GuardError
from .rng import SplitMix64

MASK_GUARD = 20
COVER_GUARD = 16
DEMO_GUARD = 14

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
    "cover_lower_demo",
    "CoverLowerReport",
    "majorizes",
    "schur_audit",
    "robin_hood_pair",
]


class OracleError(ValueError):
    """Invalid event, parameters, or guard violation."""


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
    in [0, 1], 1.0 * mean + 0.0 * max is mean, which a grid of zeros alone
    takes without the max."""
    bits, full, start = _encode(g, u, event)
    eps = np.array(eps_values, dtype=float)[:, None]
    keep = 1.0 - eps
    plain = not eps.any()
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
            value[v] = mean if plain else keep * mean + eps * np.maximum.reduce(kids)
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
    if not (0.0 <= eps <= 1.0):
        raise OracleError("eps must lie in [0, 1]")
    return _horizon_values(g, u, event, (eps,))[0][-1]


def event_prob_exact(g: Graph, u: int, event: EventSpec, eps: Fraction = Fraction(0)) -> Fraction:
    """Rational-arithmetic twin of the DP, for float cross-validation."""
    if not (Fraction(0) <= eps <= Fraction(1)):
        raise OracleError("eps must lie in [0, 1]")
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
            got = Fraction(sum(kids), len(kids))
            if eps != 0:
                got = (1 - eps) * got + eps * max(kids)
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
    if not (0.0 <= eps <= 1.0):
        raise OracleError("eps must lie in [0, 1]")
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
    if math.isinf(r):
        return max(v)
    if r < 1:
        raise OracleError("power mean implemented for r >= 1 only")
    if r == 1:
        return sum(v) / len(v)
    try:
        total = sum(x**r for x in v)
    except OverflowError:  # a float power raises where numpy's gives inf
        return math.inf
    return (total / len(v)) ** (1.0 / r)


def _leq_with_slack(lhs: float, rhs: float, slack: float = 1e-12) -> bool:
    return lhs <= rhs + slack * max(1.0, abs(rhs))


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

    def __bool__(self) -> bool:
        return self.ok

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


def _check_boost_params(eps: float, eta: float) -> None:
    if not (0.0 <= eps <= 1.0):
        raise OracleError("eps must lie in [0, 1]")
    if not (0.0 < eta <= 1.0):
        raise OracleError("eta must lie in (0, 1]")


def _boost_reports(
    g: Graph, event: EventSpec, eps_values: Sequence[float], etas: Sequence[float], p: float, q_stars: Sequence[float]
) -> list[BoostReport]:
    """The reports of one event for every (eps, eta), given p and the q* of each eps."""
    text, t = event.describe(), event.horizon
    d_max = max(g.degrees)
    d_min = min(g.degrees)
    reports = []
    for eps, q_star in zip(eps_values, q_stars):
        bound1 = (1.0 + eps * (d_max - 1)) ** t * p
        for eta in etas:
            bound2 = None
            if eps <= 1.0 / d_max ** (2.0 * eta):
                bound2 = math.exp(4.0 * t / d_min**eta) * p ** (eta / (1.0 + eta)) if p > 0 else 0.0
            reports.append(BoostReport(text, t, eps, eta, p, q_star, bound1, bound2))
    return reports


def boost_bound_audit(g: Graph, u: int, event: EventSpec, eps: float, eta: float) -> BoostReport:
    """Evaluate p, q*, and the boost bounds for one (graph, event) query.

    q* dominates every eps-biased strategy, so q* within the bound proves
    the bound for all of them.
    """
    _check_boost_params(eps, eta)
    p = srw_event_prob(g, u, event)
    q_star = optimal_tbrw_event_prob(g, u, event, eps)
    return _boost_reports(g, event, [eps], [eta], p, [q_star])[0]


def boost_bound_grid(
    g: Graph, u: int, events: Sequence[EventSpec], eps_values: Sequence[float], etas: Sequence[float]
) -> list[BoostReport]:
    """`boost_bound_audit` for every (event, eps, eta), in that nesting order.

    Events that differ only in horizon share one DP pass over the distinct
    values of (0, *eps_values), run to their largest horizon; its eps = 0
    row is the plain walk and supplies p.  The reports equal the per-query
    ones bit for bit.
    """
    for eps in eps_values:
        for eta in etas:
            _check_boost_params(eps, eta)
    tmax: dict[tuple, int] = {}
    for event in events:
        key = (event.kind, event.targets)
        tmax[key] = max(tmax.get(key, 0), event.horizon)
    grid = tuple(dict.fromkeys((0.0, *eps_values)))
    eps_rows = [grid.index(eps) for eps in eps_values]
    values = {key: _horizon_values(g, u, EventSpec(key[0], t, key[1]), grid) for key, t in tmax.items()}
    reports = []
    for event in events:
        table = values[event.kind, event.targets]
        p = table[0][event.horizon]
        q_stars = [table[r][event.horizon] for r in eps_rows]
        reports += _boost_reports(g, event, eps_values, etas, p, q_stars)
    return reports


# ---------------------------------------------------------------------------
# exact cover expectations and the lower-bound demo


def srw_expected_cover_exact(g: Graph, start: int) -> float:
    """Expected SRW cover time by absorption on the (vertex, visited) chain.

    Masks are processed in decreasing popcount order; within one mask the
    only unknowns are the already-visited current vertices, so each mask is
    an independent linear solve.
    """
    n = g.n
    if n > COVER_GUARD:
        raise GuardError(f"exact cover expectation guard is n <= {COVER_GUARD}")
    if not (0 <= start < n):
        raise OracleError("start vertex out of range")
    full = (1 << n) - 1
    expect = np.zeros((1 << n, n))
    order = sorted(range(1 << n), key=lambda m: -bin(m).count("1"))
    for mask in order:
        if mask == full or mask == 0:
            continue
        verts = [v for v in range(n) if mask >> v & 1]
        pos = {v: i for i, v in enumerate(verts)}
        m = len(verts)
        a = np.zeros((m, m))
        rhs = np.ones(m)
        for v in verts:
            dv = len(g.adj[v])
            for w in g.adj[v]:
                if mask >> w & 1:
                    a[pos[v], pos[w]] += 1.0 / dv
                else:
                    rhs[pos[v]] += expect[mask | (1 << w), w] / dv
        sol = np.linalg.solve(np.eye(m) - a, rhs)
        expect[mask, verts] = sol
    return float(expect[1 << start, start])


@dataclass(frozen=True)
class CoverLowerReport:
    """Horizon-t cover probabilities and the lower bound they imply.

    implied_bound = t * (1 - q_star) is a valid lower bound on the expected
    cover time of ANY eps-biased strategy (and in particular the plain
    walk), because the time to cover exceeds t whenever the horizon-t cover
    event fails.
    """

    n: int
    t: int
    eps: float
    p: float
    q_star: float
    implied_bound: float
    exact_cover: float

    @property
    def ok(self) -> bool:
        return self.implied_bound <= self.exact_cover + 1e-9

    def __bool__(self) -> bool:
        return self.ok


def cover_lower_demo(g: Graph, c: float, eps: float, start: int = 0) -> CoverLowerReport:
    """Cover-time lower bound at horizon t = 3 c n, checked against the
    exact SRW expectation."""
    if g.n > DEMO_GUARD:
        raise GuardError(f"cover lower demo guard is n <= {DEMO_GUARD}")
    if c <= 0:
        raise OracleError("c must be positive")
    t = int(math.ceil(3.0 * c * g.n - 1e-9))
    event = EventSpec(EventKind.COVER_ALL, t)
    p = srw_event_prob(g, start, event)
    q_star = optimal_tbrw_event_prob(g, start, event, eps)
    return CoverLowerReport(
        n=g.n,
        t=t,
        eps=eps,
        p=p,
        q_star=q_star,
        implied_bound=t * (1.0 - q_star),
        exact_cover=srw_expected_cover_exact(g, start),
    )


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


def robin_hood_pair(rng: SplitMix64, length: int, transfers: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Random (x, y) with x majorizing y by construction.

    y is x after a chain of rich-to-poor transfers, each moving at most
    half the gap, which preserves the sum and only ever levels the vector.
    """
    if length < 2:
        raise OracleError("need length >= 2")
    x = np.array([rng.next_float() for _ in range(length)])
    y = x.copy()
    for _ in range(transfers):
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

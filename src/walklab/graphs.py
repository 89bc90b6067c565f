"""Immutable simple graphs with the combinatorial machinery the rest of the
package builds on: generators, multi-source BFS, balls, diameter, and exact
vertex expansion by exhaustive subset enumeration.

Graphs are connected, undirected, and loop-free by construction; every
constructor validates this and refuses anything else.  Vertex sets are plain
frozensets at the API boundary; the exhaustive enumerations work on bitmask
arrays internally so that the n <= 24 guard is actually usable.

The subset-enumeration kernel (`subset_fold`, `first_subset_minimum`) is
shared with `chains.edge_conductance_exact`.  Per-mask arrays are built by
doubling: the array for vertices 0..k is the array for 0..k-1 followed by a
copy of it that adds vertex k, so a fold over all 2^n masks costs O(2^n).
Above 2^SUBSET_CHUNK_BITS masks the enumerators run over chunks that share
the top n - SUBSET_CHUNK_BITS bits, so no array holds more than
2^SUBSET_CHUNK_BITS entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .rng import SplitMix64

EXPANSION_GUARD = 24
SUBSET_CHUNK_BITS = 20

__all__ = [
    "Graph",
    "GraphError",
    "GraphFileError",
    "GuardError",
    "build_graph",
    "generate",
    "parse_generate_spec",
    "parse_graph_text",
    "format_graph_text",
    "read_graph_file",
    "write_graph_file",
    "distances_from",
    "all_pairs_distances",
    "ball",
    "diameter",
    "is_bipartite",
    "subset_fold",
    "first_subset_minimum",
    "vertex_expansion_exact",
    "ball_growth_audit",
    "small_regular_catalog",
]


class GraphError(ValueError):
    """Invalid graph data (self-loop, duplicate edge, disconnected, ...)."""


class GraphFileError(GraphError):
    """Malformed graph or weighting file; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class GuardError(ValueError):
    """An exhaustive or dense computation was asked to exceed its size guard."""


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph on vertices 0..n-1.

    `edges` is the canonical sorted tuple of (u, v) pairs with u < v; `adj`
    holds sorted neighbour tuples.  Instances are immutable and hashable;
    derived tables (degrees, edge index, incidence, distance matrix) are
    computed on first use and cached on the instance.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.adj)

    @cached_property
    def regular_degree(self) -> int | None:
        """Common degree if the graph is regular, else None."""
        ds = set(self.degrees)
        return ds.pop() if len(ds) == 1 else None

    @cached_property
    def edge_index(self) -> Mapping[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Incident edge ids per vertex, in `adj` order, as a flat id array
        and n + 1 offsets: vertex v owns ids[offsets[v]:offsets[v + 1]]."""
        ids = np.fromiter(
            (self.edge_index[(min(v, u), max(v, u))] for v in range(self.n) for u in self.adj[v]),
            dtype=np.int64,
            count=2 * self.m,
        )
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=offsets[1:])
        ids.setflags(write=False)
        offsets.setflags(write=False)
        return ids, offsets

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs BFS distances, computed on first use and kept (n^2 int64)."""
        dm = all_pairs_distances(self)
        dm.setflags(write=False)
        return dm

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbourhood bitmasks (closed: vertex bit included)."""
        masks = []
        for v in range(self.n):
            m = 1 << v
            for w in self.adj[v]:
                m |= 1 << w
            masks.append(m)
        return tuple(masks)


def build_graph(edges: Iterable[Sequence[int]], n: int) -> Graph:
    """Validate and freeze an edge list into a Graph.

    Rejects out-of-range indices, self-loops, duplicate edges, and
    disconnected graphs.
    """
    if n < 1:
        raise GraphError("graph needs at least one vertex")
    canon: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
        canon.append(key)
    canon.sort()
    adj_sets: list[list[int]] = [[] for _ in range(n)]
    for u, v in canon:
        adj_sets[u].append(v)
        adj_sets[v].append(u)
    adj = tuple(tuple(sorted(nb)) for nb in adj_sets)
    g = Graph(n=n, edges=tuple(canon), adj=adj)
    if n > 1:
        dist = distances_from(g, [0])
        if int(dist.min()) < 0:
            missing = int(np.argmin(dist))
            raise GraphError(f"graph is disconnected (vertex {missing} unreachable)")
    return g


# ---------------------------------------------------------------------------
# generators


def _cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


def _complete(n: int) -> Graph:
    if n < 2:
        raise GraphError("complete graph needs n >= 2")
    return build_graph(list(combinations(range(n), 2)), n)


def _hypercube(dim: int) -> Graph:
    if dim < 1:
        raise GraphError("hypercube needs dim >= 1")
    n = 1 << dim
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    return build_graph(edges, n)


def _circulant(n: int, offsets: Sequence[int]) -> Graph:
    if n < 3:
        raise GraphError("circulant needs n >= 3")
    offs = sorted(set(int(s) for s in offsets))
    if not offs:
        raise GraphError("circulant needs at least one offset")
    if any(s < 1 or s > n // 2 for s in offs):
        raise GraphError("circulant offsets must lie in [1, n//2]")
    edges = set()
    for v in range(n):
        for s in offs:
            edges.add((min(v, (v + s) % n), max(v, (v + s) % n)))
    return build_graph(sorted(edges), n)


def _random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform-ish d-regular graph via the configuration model.

    Pairs stubs after a seeded shuffle; any self-loop, repeated edge, or
    disconnected outcome throws the whole matching away and the attempt is
    resampled from the same stream, so the result is a deterministic
    function of (n, d, seed).
    """
    if n * d % 2 != 0:
        raise GraphError("random_regular needs n*d even")
    if not (1 <= d < n):
        raise GraphError("random_regular needs 1 <= d < n")
    rng = SplitMix64(seed)
    stubs_template = [v for v in range(n) for _ in range(d)]
    for _ in range(100000):
        stubs = stubs_template.copy()
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (min(u, v), max(u, v))
            if key in edges:
                ok = False
                break
            edges.add(key)
        if not ok:
            continue
        try:
            return build_graph(sorted(edges), n)
        except GraphError:
            continue  # disconnected; resample
    raise GraphError(f"random_regular({n}, {d}) failed to produce a simple connected graph")


def generate(
    kind: str,
    *,
    n: int | None = None,
    d: int | None = None,
    dim: int | None = None,
    offsets: Sequence[int] | None = None,
    seed: int | None = None,
) -> Graph:
    """Named graph families.  Deterministic given all parameters.

    kinds: cycle(n), complete(n), hypercube(dim), circulant(n, offsets),
    random_regular(n, d, seed).
    """
    if kind == "cycle":
        if n is None:
            raise GraphError("cycle needs n")
        return _cycle(n)
    if kind == "complete":
        if n is None:
            raise GraphError("complete needs n")
        return _complete(n)
    if kind == "hypercube":
        if dim is None:
            raise GraphError("hypercube needs dim")
        return _hypercube(dim)
    if kind == "circulant":
        if n is None or offsets is None:
            raise GraphError("circulant needs n and offsets")
        return _circulant(n, offsets)
    if kind == "random_regular":
        if n is None or d is None or seed is None:
            raise GraphError("random_regular needs n, d, seed")
        return _random_regular(n, d, seed)
    raise GraphError(f"unknown graph kind {kind!r}")


def parse_generate_spec(spec: str) -> Graph:
    """Graph from a generator spec: cycle:<n>, complete:<n>, hypercube:<dim>,
    circulant:<n>:<o1,o2,...> or random-regular:<n>:<d>:<seed>."""
    parts = spec.split(":")
    kind = parts[0].strip().lower().replace("-", "_")
    try:
        if kind == "cycle":
            return generate("cycle", n=int(parts[1]))
        if kind == "complete":
            return generate("complete", n=int(parts[1]))
        if kind == "hypercube":
            return generate("hypercube", dim=int(parts[1]))
        if kind == "circulant":
            offsets = tuple(int(x) for x in parts[2].split(","))
            return generate("circulant", n=int(parts[1]), offsets=offsets)
        if kind == "random_regular":
            if len(parts) != 4:
                raise GraphError("random-regular spec is random-regular:<n>:<d>:<seed>")
            return generate("random_regular", n=int(parts[1]), d=int(parts[2]), seed=int(parts[3]))
    except (IndexError, ValueError) as exc:
        raise GraphError(f"malformed generator spec {spec!r}: {exc}") from exc
    raise GraphError(f"unknown generator kind {parts[0]!r}")


# ---------------------------------------------------------------------------
# file format: header "n m", then m lines "u v"; '#' starts a comment


def parse_graph_text(text: str) -> Graph:
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    if not rows:
        raise GraphFileError("empty graph file")
    head_line, head = rows[0]
    if len(head) != 2:
        raise GraphFileError("header must be 'n m'", head_line)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFileError("header must hold two integers", head_line) from None
    if len(rows) - 1 != m:
        raise GraphFileError(f"header promises {m} edges, file has {len(rows) - 1}", head_line)
    edges = []
    for lineno, tok in rows[1:]:
        if len(tok) != 2:
            raise GraphFileError("edge line must be 'u v'", lineno)
        try:
            u, v = int(tok[0]), int(tok[1])
        except ValueError:
            raise GraphFileError("edge endpoints must be integers", lineno) from None
        edges.append((u, v))
    try:
        return build_graph(edges, n)
    except GraphFileError:
        raise
    except GraphError as exc:
        raise GraphFileError(str(exc)) from exc


def format_graph_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_graph_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def write_graph_file(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph_text(g))


# ---------------------------------------------------------------------------
# BFS machinery


def distances_from(g: Graph, sources: Iterable[int]) -> np.ndarray:
    """Multi-source BFS distances; -1 marks unreachable vertices."""
    src = sorted(set(int(v) for v in sources))
    if not src:
        raise GraphError("distances_from needs a non-empty source set")
    for v in src:
        if not (0 <= v < g.n):
            raise GraphError(f"source vertex {v} out of range")
    dist = np.full(g.n, -1, dtype=np.int64)
    frontier = src
    for v in frontier:
        dist[v] = 0
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if dist[w] < 0:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist


def all_pairs_distances(g: Graph) -> np.ndarray:
    return np.stack([distances_from(g, [v]) for v in range(g.n)])


def ball(g: Graph, center: Iterable[int], radius: int) -> frozenset[int]:
    """Closed ball: vertices within BFS distance `radius` of the set."""
    if radius < 0:
        raise GraphError("ball needs radius >= 0")
    dist = distances_from(g, center)
    return frozenset(int(v) for v in np.flatnonzero((dist >= 0) & (dist <= radius)))


def diameter(g: Graph) -> tuple[int, tuple[int, int]]:
    """Diameter and its lexicographically smallest witness pair (u, v), u < v."""
    if g.n < 2:
        raise GraphError("diameter needs n >= 2")
    dm = g.distance_matrix
    # The first maximum in row-major order lies above the diagonal: the
    # matrix is symmetric, so a maximum at (u, v) with v < u would put an
    # earlier one at (v, u).
    u, v = divmod(int(np.argmax(dm)), g.n)
    return int(dm[u, v]), (u, v)


def is_bipartite(g: Graph) -> bool:
    color = np.full(g.n, -1, dtype=np.int64)
    color[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if color[w] < 0:
                    color[w] = color[v] ^ 1
                    nxt.append(w)
                elif color[w] == color[v]:
                    return False
        frontier = nxt
    return True


# ---------------------------------------------------------------------------
# vertex expansion


def _subset_bits(mask: int) -> frozenset[int]:
    out = set()
    v = 0
    while mask:
        if mask & 1:
            out.add(v)
        mask >>= 1
        v += 1
    return frozenset(out)


def subset_fold(op: np.ufunc, values, dtype) -> np.ndarray:
    """Array `out` of length 2^len(values) with out[m] = 0 op values[j0] op
    values[j1] op ... over the set bits j0 < j1 < ... of m, built by doubling.

    The fold order is fixed (increasing j), so a float sum of a mask's
    values is the same however the mask's bits are split into chunks.
    """
    out = np.zeros(1 << len(values), dtype=dtype)
    for j, v in enumerate(values):
        h = 1 << j
        op(out[:h], v, out=out[h : 2 * h])
    return out


def first_subset_minimum(n: int, low: int, chunk_ratio) -> tuple[float, frozenset[int]]:
    """First minimum of a per-mask ratio over all 2^n masks, chunk by chunk.

    `chunk_ratio(top)` returns the ratios of the 2^low masks whose bits from
    `low` up equal `top`, with np.inf for masks that are not candidates.
    Chunks run in increasing `top` and a later chunk wins only on a strictly
    smaller value, so ties resolve to the smallest bitmask overall.
    """
    best, best_mask = np.inf, 0
    for top in range(1 << (n - low)):
        ratio = chunk_ratio(top)
        i = int(np.argmin(ratio))
        if ratio[i] < best:
            best, best_mask = float(ratio[i]), top << low | i
    return best, _subset_bits(best_mask)


def vertex_expansion_exact(g: Graph) -> tuple[float, frozenset[int]]:
    """min over non-empty S with |S| <= n/2 of |Gamma(S) \\ S| / |S|.

    Exhaustive over all subsets: closed neighbourhoods are OR-folded over
    the masks by doubling, O(2^n), in chunks of at most 2^20 masks; guarded
    at n <= 24.  Ties resolve to the smallest subset bitmask.
    """
    n = g.n
    if n > EXPANSION_GUARD:
        raise GuardError(f"vertex_expansion_exact is exhaustive; n={n} exceeds guard {EXPANSION_GUARD}")
    if n < 2:
        raise GraphError("vertex expansion needs n >= 2")
    low = min(n, SUBSET_CHUNK_BITS)
    nbr = g.neighbor_masks
    masks = np.arange(1 << low, dtype=np.uint32)
    pop_low = np.bitwise_count(masks)
    closed_low = subset_fold(np.bitwise_or, nbr[:low], np.uint32)

    def chunk_ratio(top: int) -> np.ndarray:
        closed = closed_low
        for k in range(low, n):
            if top >> (k - low) & 1:
                closed = closed | nbr[k]
        pop = pop_low + top.bit_count()
        # closed neighbourhoods contain S, so Gamma(S) \ S = closed ^ S
        outer = np.bitwise_count(closed ^ (masks | top << low))
        valid = (pop >= 1) & (2 * pop <= n)
        return np.divide(outer, pop, out=np.full(masks.size, np.inf), where=valid)

    return first_subset_minimum(n, low, chunk_ratio)


def ball_growth_audit(g: Graph, seed_set: Iterable[int], k: int, psi: float | None = None) -> bool:
    """Checks |B_k(S)| >= min((1 + psi)^k * |S|, n/2) with 1e-9 slack."""
    s = frozenset(int(v) for v in seed_set)
    if not s:
        raise GraphError("ball_growth_audit needs a non-empty set")
    if psi is None:
        psi, _ = vertex_expansion_exact(g)
    grown = len(ball(g, s, k))
    bound = min((1.0 + psi) ** k * len(s), g.n / 2.0)
    return grown >= bound - 1e-9


# ---------------------------------------------------------------------------
# small named graphs used by sweep drivers and tests


def small_regular_catalog() -> dict[str, Graph]:
    """Named connected regular graphs on at most 6 vertices."""
    prism = build_graph(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)], 6
    )
    k33 = build_graph([(a, b) for a in range(3) for b in range(3, 6)], 6)
    octahedron = build_graph(
        [(u, v) for u, v in combinations(range(6), 2) if (u, v) not in {(0, 3), (1, 4), (2, 5)}], 6
    )
    return {
        "complete:2": _complete(2),
        "cycle:3": _cycle(3),
        "cycle:4": _cycle(4),
        "complete:4": _complete(4),
        "cycle:5": _cycle(5),
        "complete:5": _complete(5),
        "cycle:6": _cycle(6),
        "prism": prism,
        "k33": k33,
        "octahedron": octahedron,
        "complete:6": _complete(6),
    }

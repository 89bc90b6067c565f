"""Immutable simple graphs with the combinatorial machinery the rest of the
package builds on: generators, multi-source BFS, balls, diameter, and exact
vertex expansion by exhaustive subset enumeration.  `bfs_columns` runs many
multi-source BFS at once, one bit per source set, on the slot table, and
`Graph.distance_matrix` is one call of it; `distances_from` is the BFS of one set.

Graphs are connected, undirected, and loop-free by construction:
`build_graph` is the one check of an edge list (range, self-loops, repeated
pairs, connectivity) and the one canonicalisation, and every generator and
file reader hands it its raw pairs.  Vertex sets are plain
frozensets at the API boundary; the exhaustive enumerations work on bitmask
arrays internally so that the n <= SUBSET_GUARD limit is actually usable.

`Graph.slots` is the package's one flat adjacency layout (see `Slots`),
built once per graph and indexed by every O(m) computation on it.

The subset-enumeration kernel (`subset_fold`, `first_subset_minimum`) is
shared with `chains.edge_conductance_exact`.  SUBSET_GUARD is the one limit
on the vertices it takes, read by every enumeration and every caller that
falls back above it.  Per-mask arrays are built by doubling: the array for
vertices 0..k is the array for 0..k-1 followed by a copy of it that adds
vertex k, so a fold over all 2^n masks costs O(2^n).
Above 2^SUBSET_CHUNK_BITS masks the enumerators run over chunks that share
the top n - SUBSET_CHUNK_BITS bits, so no array holds more than
2^SUBSET_CHUNK_BITS entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .rng import SplitMix64

SUBSET_GUARD = 24
SUBSET_CHUNK_BITS = 20
# the most edges a generator builds; each family refuses more before it builds any list
GENERATE_EDGES = 1 << 20

__all__ = [
    "Graph",
    "Slots",
    "GraphError",
    "GraphFileError",
    "GuardError",
    "WalklabError",
    "build_graph",
    "generate",
    "spec_forms",
    "parse_generate_spec",
    "content_lines",
    "parse_endpoints",
    "parse_graph_text",
    "read_graph_file",
    "distances_from",
    "bfs_columns",
    "ball",
    "diameter",
    "is_bipartite",
    "subset_fold",
    "first_subset_minimum",
    "vertex_expansion_exact",
    "small_regular_catalog",
]


class WalklabError(ValueError):
    """Root of every error the package raises on bad input; the CLI's exit 2."""


class GraphError(WalklabError):
    """Invalid graph data (self-loop, duplicate edge, disconnected, ...)."""


class GraphFileError(GraphError):
    """Malformed graph or weighting file; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class GuardError(WalklabError):
    """An exhaustive or dense computation was asked to exceed its size guard."""


@dataclass(frozen=True)
class Slots:
    """A graph's adjacency as 2m slots, one per (vertex, neighbour) pair.

    Vertex v owns slots offsets[v]:offsets[v + 1], its i-th pointing at
    adj[v][i]; per vertex that is also the canonical order of its edges.
    Column e of `edge_slots` (2 x m) holds the slots of edge e = (a, b): a's
    toward b, then the reverse.  Every array is int64 and read-only.
    """

    vertex: np.ndarray
    neighbor: np.ndarray
    edge: np.ndarray
    offsets: np.ndarray
    edge_slots: np.ndarray


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph on vertices 0..n-1.

    `edges` is the canonical sorted tuple of (u, v) pairs with u < v; `adj`
    holds sorted neighbour tuples.  Instances are immutable and hashable;
    derived tables (degrees, edge index, slot table, BFS gathers, distance
    matrix) are computed on first use and cached on the instance, arrays
    read-only.
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
    def slots(self) -> Slots:
        """The adjacency as 2m slots in `adj` order; see `Slots`."""
        offsets = np.cumsum((0,) + self.degrees)
        vertex = np.repeat(np.arange(self.n), self.degrees)
        neighbor = np.array([u for nbrs in self.adj for u in nbrs], dtype=np.int64)
        pairs = zip(vertex.tolist(), neighbor.tolist())
        edge = np.array([self.edge_index[min(v, u), max(v, u)] for v, u in pairs], dtype=np.int64)
        # the stable sort puts the slot at each edge's lower endpoint first
        table = Slots(vertex, neighbor, edge, offsets, np.argsort(edge, kind="stable").reshape(-1, 2).T.copy())
        for a in vars(table).values():
            a.setflags(write=False)
        return table

    @cached_property
    def _level_gathers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """`bfs_columns`' level tables: a neighbour row per rank that over half
        the vertices have (a vertex past its degree names itself), then the
        `reduceat` vertices, neighbours and segment starts of the other slots."""
        sl = self.slots
        rank = np.arange(2 * self.m) - sl.offsets[sl.vertex]  # each slot's place among its vertex's slots
        wide = max(1, int(np.count_nonzero(2 * np.bincount(rank) > self.n)))
        ranks = np.tile(np.arange(self.n), (wide, 1))
        low = rank < wide
        ranks[rank[low], sl.vertex[low]] = sl.neighbor[low]
        starts = np.flatnonzero(rank[~low] == wide)
        tables = (ranks, sl.vertex[~low][starts], sl.neighbor[~low], starts)
        for a in tables:
            a.setflags(write=False)
        return tables

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs BFS distances from one `bfs_columns` call, a column per source (n^2 int64, kept)."""
        dm = bfs_columns(self, np.eye(self.n, dtype=bool))
        dm.setflags(write=False)
        return dm


def build_graph(edges: Iterable[Sequence[int]], n: int) -> Graph:
    """Validate and freeze an edge list into a Graph.

    Rejects out-of-range indices, self-loops, duplicate edges, and
    disconnected graphs.
    """
    if n < 1:
        raise GraphError("graph needs at least one vertex")
    seen: set[tuple[int, int]] = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
    # too few edges to connect n vertices: refused before n lists are allocated
    if len(seen) < n - 1:
        raise GraphError(f"graph is disconnected ({len(seen)} edges cannot connect {n} vertices)")
    canon = sorted(seen)
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


def _check_edges(kind: str, m: int) -> None:
    """Refuse a `kind` graph of m edges, past GENERATE_EDGES, before it is built."""
    if m > GENERATE_EDGES:
        raise GuardError(f"{kind} graph has more than {GENERATE_EDGES} edges, the generator limit")


def _cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    _check_edges("cycle", n)
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


def _complete(n: int) -> Graph:
    if n < 2:
        raise GraphError("complete graph needs n >= 2")
    _check_edges("complete", n * (n - 1) // 2)
    return build_graph(list(combinations(range(n), 2)), n)


def _hypercube(dim: int) -> Graph:
    if dim < 1:
        raise GraphError("hypercube needs dim >= 1")
    _check_edges("hypercube", dim << min(dim - 1, 64))  # dim 2^(dim - 1), and no huge int for a huge dim
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
    # each edge once: offset n/2 joins v to v + n/2 for the lower half only
    counts = [n // 2 if 2 * s == n else n for s in offs]
    _check_edges("circulant", sum(counts))
    return build_graph([(v, (v + s) % n) for s, count in zip(offs, counts) for v in range(count)], n)


def _random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform-ish d-regular graph via the configuration model.

    Pairs stubs after a seeded shuffle; when `build_graph` rejects the
    matching (a self-loop, a repeated edge, or a disconnected outcome) it is
    thrown away whole and the attempt is resampled from the same stream, so
    the result is a deterministic function of (n, d, seed).
    """
    if n * d % 2 != 0:
        raise GraphError("random_regular needs n*d even")
    if not (1 <= d < n):
        raise GraphError("random_regular needs 1 <= d < n")
    _check_edges("random_regular", n * d // 2)
    rng = SplitMix64(seed)
    stubs_template = [v for v in range(n) for _ in range(d)]
    for _ in range(100000):
        stubs = stubs_template.copy()
        rng.shuffle(stubs)
        try:
            return build_graph(zip(stubs[0::2], stubs[1::2]), n)
        except GraphError:
            continue  # self-loop, repeated edge or disconnected; resample
    raise GraphError(f"random_regular({n}, {d}) failed to produce a simple connected graph")


# family -> (builder, its parameter names in spec order)
_FAMILIES: dict[str, tuple[Callable[..., Graph], tuple[str, ...]]] = {
    "cycle": (_cycle, ("n",)),
    "complete": (_complete, ("n",)),
    "hypercube": (_hypercube, ("dim",)),
    "circulant": (_circulant, ("n", "offsets")),
    "random_regular": (_random_regular, ("n", "d", "seed")),
}


def generate(kind: str, **params) -> Graph:
    """Named graph families.  Deterministic given all parameters.

    kinds: cycle(n), complete(n), hypercube(dim), circulant(n, offsets),
    random_regular(n, d, seed); none of more than GENERATE_EDGES edges.
    """
    if kind not in _FAMILIES:
        raise GraphError(f"unknown graph kind {kind!r}")
    build, names = _FAMILIES[kind]
    if set(params) != set(names):
        raise GraphError(f"{kind} needs exactly {', '.join(names)}")
    return build(**params)


def spec_forms() -> dict[str, str]:
    """Each generator family's spec form, such as random-regular:<n>:<d>:<seed>."""
    return {
        kind: ":".join([kind.replace("_", "-")] + [f"<{name}>" for name in names])
        for kind, (_, names) in _FAMILIES.items()
    }


def parse_generate_spec(spec: str) -> Graph:
    """Graph from a generator spec in one of the `spec_forms`; circulant
    offsets are comma-separated, as in circulant:8:1,3."""
    head, *parts = spec.split(":")
    kind = head.strip().lower().replace("-", "_")
    if kind not in _FAMILIES:
        raise GraphError(f"unknown generator kind {head!r}")
    names = _FAMILIES[kind][1]
    if len(parts) != len(names):
        raise GraphError(f"malformed generator spec {spec!r}: expected {spec_forms()[kind]}")
    try:
        params = {
            name: tuple(int(x) for x in part.split(",")) if name == "offsets" else int(part)
            for name, part in zip(names, parts)
        }
    except ValueError as exc:
        raise GraphError(f"malformed generator spec {spec!r}: {exc}") from exc
    return generate(kind, **params)


# ---------------------------------------------------------------------------
# text inputs (graph, weighting and config files): '#' starts a comment,
# blank lines are skipped, lines number from 1; a graph file is the header
# "n m", then m lines "u v"


def content_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, content, raw line) of each line that has content once
    its comment is cut; the content is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body, raw


def parse_endpoints(tok: Sequence[str], lineno: int) -> tuple[int, int]:
    """The edge endpoints u, v in a file line's first two tokens."""
    try:
        return int(tok[0]), int(tok[1])
    except ValueError:
        raise GraphFileError("edge endpoints must be integers", lineno) from None


def parse_graph_text(text: str) -> Graph:
    rows = [(lineno, body.split()) for lineno, body, _ in content_lines(text)]
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
        edges.append(parse_endpoints(tok, lineno))
    try:
        return build_graph(edges, n)
    except GraphError as exc:
        raise GraphFileError(str(exc)) from exc


def read_graph_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


# ---------------------------------------------------------------------------
# BFS machinery


def distances_from(g: Graph, sources: Iterable[int]) -> np.ndarray:
    """Multi-source BFS distances; -1 marks unreachable vertices.

    The walk runs on a Python list and converts to int64 once at the end:
    element access on a numpy array costs several times a list's.
    """
    src = sorted(set(map(int, sources)))
    if not src:
        raise GraphError("distances_from needs a non-empty source set")
    for v in src:
        if not (0 <= v < g.n):
            raise GraphError(f"source vertex {v} out of range")
    return np.array(_bfs(g.adj, src), dtype=np.int64)


def _bfs(adj: Sequence[Sequence[int]], src: list[int]) -> list[int]:
    dist = [-1] * len(adj)
    for v in src:
        dist[v] = 0
    frontier = src
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist


def bfs_columns(g: Graph, sources: np.ndarray) -> np.ndarray:
    """BFS distances from many source sets at once, bit-parallel on the slot table.

    Column j of the n x B boolean `sources` is one non-empty source set;
    column j of the n x B int64 result is `distances_from` that set.  The
    frontier and the unreached set hold one bit per (vertex, column), packed
    into n x ceil(B/64) uint64 words.  A level ORs the frontier words of each
    vertex's neighbours: one row gather per neighbour rank that most vertices
    have, then one `reduceat` over the other slots, so the index tables hold
    O(m) entries whatever the degrees.  Only the words that gained bits are
    decoded, 4096 at a time, which keeps long diameters and the decode cheap.
    """
    src = np.asarray(sources, dtype=bool)
    if src.ndim != 2 or len(src) != g.n:
        raise GraphError(f"bfs_columns needs an n x B source array with n = {g.n}")
    if not src.any(axis=0).all():
        raise GraphError("bfs_columns needs a non-empty source set in every column")
    n, b = src.shape
    words = -(-b // 64)
    ranks, tail, tail_neighbor, starts = g._level_gathers
    front = np.zeros((n, words), dtype="<u8")
    front.view(np.uint8)[:, : -(-b // 8)] = np.packbits(src, axis=1, bitorder="little")
    dist = np.where(src, 0, -1)
    # buffers reused across levels, as a fresh array this size faults in every
    # page; `take` writes `out` unbuffered only in "clip" mode (no index clips)
    unreached, nxt, gathered, depth = ~front, np.empty_like(front), np.empty_like(front), 0
    while True:
        np.take(front, ranks[0], axis=0, out=nxt, mode="clip")
        for r in ranks[1:]:
            nxt |= np.take(front, r, axis=0, out=gathered, mode="clip")
        if len(tail):
            nxt[tail] |= np.bitwise_or.reduceat(front[tail_neighbor], starts, axis=0)
        nxt &= unreached
        front, nxt = nxt, front
        hit = np.flatnonzero(front != 0)  # the words that gained bits; faster than on uint64
        if not len(hit):
            return dist
        depth += 1
        unreached ^= front
        for start in range(0, len(hit), 4096):
            h = hit[start : start + 4096]
            bits = np.unpackbits(front.reshape(-1)[h, None].view(np.uint8), axis=1, bitorder="little")
            i, k = np.divmod(np.flatnonzero(bits.view(bool)), 64)  # a flat search: 2-D nonzero is far slower
            v, w = np.divmod(h[i], words)
            dist[v, 64 * w + k] = depth


def ball(g: Graph, center: Iterable[int], radius: int) -> frozenset[int]:
    """Closed ball: vertices within BFS distance `radius` of the set."""
    if radius < 0:
        raise GraphError("ball needs radius >= 0")
    dist = distances_from(g, center)
    return frozenset(int(v) for v in np.flatnonzero((dist >= 0) & (dist <= radius)))


def diameter(g: Graph) -> tuple[int, tuple[int, int]]:
    """Diameter and its lexicographically smallest witness pair (u, v), u <= v; (0, (0, 0)) on one vertex."""
    dm = g.distance_matrix
    # The first maximum in row-major order lies above the diagonal, as dm is
    # symmetric.  argmax runs on the row maxima, then on one row: on the whole
    # read-only matrix numpy would first copy it.
    u = int(np.argmax(dm.max(axis=1)))
    v = int(np.argmax(dm[u]))
    return int(dm[u, v]), (u, v)


def is_bipartite(g: Graph) -> bool:
    """True iff no edge joins two vertices at the same BFS depth from vertex 0:
    such an edge closes an odd cycle, and without one depth parity 2-colours g."""
    dist = distances_from(g, [0])
    sl = g.slots
    return not bool(np.any(dist[sl.vertex] == dist[sl.neighbor]))


# ---------------------------------------------------------------------------
# vertex expansion


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
    return best, frozenset(v for v in range(n) if best_mask >> v & 1)


def vertex_expansion_exact(g: Graph) -> tuple[float, frozenset[int]]:
    """min over non-empty S with |S| <= n/2 of |Gamma(S) \\ S| / |S|.

    Exhaustive over all subsets: closed neighbourhoods are OR-folded over
    the masks by doubling, O(2^n), in chunks of at most 2^20 masks; guarded
    at n <= SUBSET_GUARD.  Ties resolve to the smallest subset bitmask.
    """
    n = g.n
    if n > SUBSET_GUARD:
        raise GuardError(f"vertex_expansion_exact is exhaustive; n={n} exceeds guard {SUBSET_GUARD}")
    if n < 2:
        raise GraphError("vertex expansion needs n >= 2")
    low = min(n, SUBSET_CHUNK_BITS)
    sl = g.slots
    # closed neighbourhood bitmasks; n <= SUBSET_GUARD bits fit in uint32
    bits = np.uint32(1) << np.arange(n, dtype=np.uint32)
    nbr = np.bitwise_or.reduceat(bits[sl.neighbor], sl.offsets[:-1]) | bits
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

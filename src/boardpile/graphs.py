"""Finite simple undirected graphs on dense integer vertices 0..n-1."""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, pairwise
from typing import Iterable, Sequence

Edge = tuple[int, int]


class Graph:
    """Immutable simple graph.

    Vertices are the integers 0..n-1.  Edges are unordered pairs of distinct
    vertices, stored canonically as (u, v) with u < v.  Per-vertex neighbour
    lists are precomputed and sorted so iteration order is deterministic.

    `missing_pairs` picks how diffusion fires the graph.  On a dense graph,
    where C(n,2) - m + 3n < m for m edges, it holds the C(n,2) - m pairs
    (u, v), u < v, that are not edges, in ascending order: a step then costs
    O(n log n + C(n,2) - m), a K_n step by stack rank corrected on those
    pairs.  Otherwise it is None and a step visits every edge, O(m).  The
    rule reads n and m alone, and both paths give identical results.
    """

    __slots__ = ("n", "edges", "neighbors", "missing_pairs")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canonical: list[Edge] = []
        for pair in edges:
            try:
                u, v = pair
            except ValueError:
                raise ValueError(f"edge entry {pair!r}: expected exactly two endpoints") from None
            u, v = int(u), int(v)
            for endpoint in (u, v):
                if not 0 <= endpoint < n:
                    raise ValueError(
                        f"edge ({u}, {v}): endpoint {endpoint} out of range for {n} vertices"
                    )
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            canonical.append((u, v))
        canonical.sort()
        # once sorted, copies of an edge sit side by side
        for edge, following in pairwise(canonical):
            if edge == following:
                raise ValueError(f"duplicate edge {edge}")
        # The sorted edges give each vertex x its neighbours in ascending order
        # without a sort per list: first every (u, x) by u, then every (x, v) by v.
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in canonical:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.n = n
        self.edges = tuple(canonical)
        self.neighbors = tuple(map(tuple, nbrs))
        self.missing_pairs = None
        m = len(canonical)
        if n * (n - 1) // 2 - m + 3 * n < m:
            # combinations() runs through the pairs in the order of the sorted
            # edge list, so one merge leaves exactly the pairs that are absent
            missing: list[Edge] = []
            present = iter(canonical)
            edge = next(present, None)
            for pair in combinations(range(n), 2):
                if pair == edge:
                    edge = next(present, None)
                else:
                    missing.append(pair)
            self.missing_pairs = tuple(missing)

    def adjacent(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) out of range for {self.n} vertices")
        ns = self.neighbors[u]
        i = bisect_left(ns, v)
        return i < len(ns) and ns[i] == v

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def complete(n: int) -> Graph:
    """K_n: every pair of the n vertices joined, n >= 1."""
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> Graph:
    """P_n: vertices 0..n-1 joined in a line, n >= 1."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """C_n: vertices 0..n-1 joined in a ring, n >= 3."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Star on n vertices: vertex 0 joined to every other vertex, n >= 1."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    return Graph(n, [(0, i) for i in range(1, n)])


_FAMILIES = {"complete": complete, "path": path, "cycle": cycle, "star": star}


def graph_to_document(g: Graph) -> dict:
    """JSON-ready document: {"n": ..., "edges": [[u, v], ...]}."""
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def graph_from_document(doc: dict) -> Graph:
    """Parse a graph document.

    Accepts either an explicit form {"n": int, "edges": [[u, v], ...]} or a
    family form {"family": "complete"|"path"|"cycle"|"star", "n": int}.
    """
    if not isinstance(doc, dict):
        raise ValueError("graph document must be a JSON object")
    if "n" not in doc:
        raise ValueError("graph document missing field 'n'")
    n = doc["n"]
    # bool is a subclass of int, and neither true nor 2.9 nor "3" is a vertex count
    if type(n) is not int:
        raise ValueError("field 'n': expected an integer")
    if "family" in doc:
        family = doc["family"]
        builder = _FAMILIES.get(family)
        if builder is None:
            known = ", ".join(sorted(_FAMILIES))
            raise ValueError(f"field 'family': unknown value {family!r} (expected one of {known})")
        return builder(n)
    if "edges" not in doc:
        raise ValueError("graph document missing field 'edges'")
    edges = doc["edges"]
    if not isinstance(edges, list) or any(
        not isinstance(e, (list, tuple)) or len(e) != 2
        or type(e[0]) is not int or type(e[1]) is not int
        for e in edges
    ):
        raise ValueError("field 'edges': expected a list of [u, v] integer pairs")
    return Graph(n, edges)

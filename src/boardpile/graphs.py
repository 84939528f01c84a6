"""Finite simple undirected graphs on dense integer vertices 0..n-1."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations, pairwise

Edge = tuple[int, int]


class Graph:
    """Immutable simple graph.

    Vertices are the integers 0..n-1.  Edges are unordered pairs of distinct
    vertices, stored canonically as (u, v) with u < v, and the sorted tuple
    `edges` is the graph's only copy of them.

    `missing_pairs` picks how diffusion fires the graph.  On a dense graph,
    where C(n,2) - m + 3n < m for m edges, it holds the C(n,2) - m pairs
    (u, v), u < v, that are not edges, in ascending order: a step then costs
    O(n log n + C(n,2) - m), a K_n step by stack rank corrected on those
    pairs.  Otherwise it is None and a step visits every edge, O(m).  The
    rule reads n and m alone, and both paths give identical results.
    """

    __slots__ = ("n", "edges", "missing_pairs")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canonical: list[Edge] = []
        for pair in edges:
            try:
                u, v = pair
            except (TypeError, ValueError):
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
        missing_pairs = None
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
            missing_pairs = tuple(missing)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canonical))
        object.__setattr__(self, "missing_pairs", missing_pairs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Graph, (self.n, self.edges)

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


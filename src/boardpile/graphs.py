"""Finite simple undirected graphs on dense integer vertices 0..n-1."""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, pairwise
from typing import Iterable, Sequence

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
        self.n = n
        self.edges = tuple(canonical)
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
        edge = (u, v) if u < v else (v, u)
        i = bisect_left(self.edges, edge)
        return i < len(self.edges) and self.edges[i] == edge

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


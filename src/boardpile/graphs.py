"""Finite simple undirected graphs on dense integer vertices 0..n-1."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import chain, combinations, islice, pairwise, repeat
from operator import eq, index

Edge = tuple[int, int]


class Graph:
    """Immutable simple graph.

    Vertices are the integers 0..n-1.  Edges are unordered pairs of distinct
    vertices, stored canonically as (u, v) with u < v, in the sorted tuple
    `edges`.  Built from an edge list, the graph costs O(m log m): each entry
    is checked, the keys u*n + v are sorted and the edge tuples are decoded
    from them in ascending order, all sharing one int object per vertex, so a
    step walks the edges and their endpoints in the order they sit in memory.
    The family constructors build the same layout in O(m), with no check,
    sort or decode: they make the edges in ascending order from one int per
    vertex.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        n = _integer(n, "vertex count")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        keys = _checked_keys(n, edges)
        keys.sort()
        # once sorted, copies of an edge sit side by side
        if any(map(eq, keys, islice(keys, 1, None))):
            key = next(key for key, following in pairwise(keys) if key == following)
            raise ValueError(f"duplicate edge {divmod(key, n)}")
        if n * n <= 1 << 63:
            # 8 bytes a key, against a list slot and an int object: the
            # edges are then made in the memory the ints held.  Loading
            # the module costs 0.1 MB, so only a checked build loads it.
            from array import array

            keys = array("q", keys)
        # past 2m vertices most are isolated: a list of them all would
        # outweigh the edges
        vertices = list(range(n)) if n <= 2 * len(keys) else range(n)
        # through a list: tuple() fed straight from an iterator took 2.8x
        # as long on 10^6 edges, most of it in the cyclic collector
        self._fill(n, tuple([(vertices[u], vertices[v]) for u, v in map(divmod, keys, repeat(n))]))

    def _fill(self, n: int, edges: tuple[Edge, ...]) -> None:
        """Set both fields from n and the canonical, ascending edges."""
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

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


def _integer(value, what: str) -> int:
    """operator.index(value), or a ValueError that names `what` and the value."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _checked_keys(n: int, entries: Iterable) -> list[int]:
    """The key u*n + v, u < v, of each entry, raising on the first entry in
    order that is not a pair of distinct integer endpoints in range."""
    keys = []
    for pair in entries:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise ValueError(f"edge entry {pair!r}: expected exactly two endpoints") from None
        try:
            u, v = index(u), index(v)
        except TypeError:
            for endpoint in (u, v):
                _integer(endpoint, f"edge entry {pair!r}: endpoint")
            raise
        if not (-1 < u < n and -1 < v < n and u != v):
            for endpoint in (u, v):
                if not 0 <= endpoint < n:
                    raise ValueError(
                        f"edge ({u}, {v}): endpoint {endpoint} out of range for {n} vertices"
                    )
            raise ValueError(f"self-loop at vertex {u}")
        keys.append(u * n + v if u < v else v * n + u)
    return keys


def _family(n: int, least: int, too_few: str, pairs: Callable[[list], Iterable[Edge]]) -> Graph:
    """The graph on n >= least vertices whose edges pairs(vertices) gives,
    canonical and ascending, from vertices = [0, ..., n-1]: built with no
    check, sort or decode."""
    n = _integer(n, "vertex count")
    if n < least:
        raise ValueError(too_few)
    vertices = list(range(n))
    graph = Graph.__new__(Graph)
    # through a list, for the reason Graph.__init__ gives
    graph._fill(n, tuple(list(pairs(vertices))))
    return graph


def complete(n: int) -> Graph:
    """K_n: every pair of the n vertices joined, n >= 1."""
    return _family(n, 1, "complete graph needs at least 1 vertex", lambda vs: combinations(vs, 2))


def path(n: int) -> Graph:
    """P_n: vertices 0..n-1 joined in a line, n >= 1."""
    return _family(n, 1, "path needs at least 1 vertex", pairwise)


def cycle(n: int) -> Graph:
    """C_n: vertices 0..n-1 joined in a ring, n >= 3."""
    return _family(
        n,
        3,
        "cycle needs at least 3 vertices",
        lambda vs: chain([(vs[0], vs[1]), (vs[0], vs[-1])], pairwise(vs[1:])),
    )


def star(n: int) -> Graph:
    """Star on n vertices: vertex 0 joined to every other vertex, n >= 1."""
    return _family(n, 1, "star needs at least 1 vertex", lambda vs: zip(repeat(vs[0]), vs[1:]))

"""Finite simple undirected graphs on dense integer vertices 0..n-1."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import cached_property
from itertools import chain, combinations, islice, pairwise, repeat
from operator import eq, index

from . import _integer

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
    vertex.  complete(n) holds n alone, O(1): it leaves `edges` unset, and
    the cached property makes its C(n, 2) edges on their first read, which no
    rank step needs; equality, hashing, copying and pickling never read them.
    """

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
        edges = tuple([(vertices[u], vertices[v]) for u, v in map(divmod, keys, repeat(n))])
        vars(self).update(n=n, edges=edges)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        # __init__ and _family write the fields through vars(), and only
        # complete() leaves `edges` unset: this makes K_n's on their first read
        return _shaped(self.n, lambda vs: combinations(vs, 2))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        if self.n and _is_complete(self):
            return complete, (self.n,)
        return Graph, (self.n, self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        same_size = self.n == other.n and _size(self) == _size(other)
        return same_size and (_is_complete(self) or self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, None if _is_complete(self) else self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={_size(self)})"


def _size(g: Graph) -> int:
    """m, the edge count of g, without making the edges of a K_n that has none yet."""
    edges = vars(g).get("edges")
    return g.n * (g.n - 1) // 2 if edges is None else len(edges)


def _is_complete(g: Graph) -> bool:
    """Whether g is K_n, as any simple graph with C(n, 2) edges is."""
    return _size(g) == g.n * (g.n - 1) // 2


def _checked_keys(n: int, entries: Iterable) -> list[int]:
    """The key u*n + v, u < v, of each entry, raising on the first entry in
    order that is not a pair of distinct integer endpoints in range."""
    try:
        entries = iter(entries)
    except TypeError:
        raise ValueError(f"{entries!r} is not a sequence of edges") from None
    keys = []
    for pair in entries:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise ValueError(f"edge entry {pair!r}: expected exactly two endpoints") from None
        try:
            u, v = index(u), index(v)
        except TypeError:
            u, v = (_integer(w, f"edge entry {pair!r}: endpoint") for w in (u, v))
        if not (-1 < u < n and -1 < v < n and u != v):
            for endpoint in (u, v):
                if not 0 <= endpoint < n:
                    raise ValueError(
                        f"edge ({u}, {v}): endpoint {endpoint} out of range for {n} vertices"
                    )
            raise ValueError(f"self-loop at vertex {u}")
        keys.append(u * n + v if u < v else v * n + u)
    return keys


def _shaped(n: int, pairs: Callable[[list], Iterable[Edge]]) -> tuple[Edge, ...]:
    """The edges pairs(vertices) gives, canonical and ascending, from
    vertices = [0, ..., n-1]: made with no check, sort or decode."""
    # through a list, for the reason Graph.__init__ gives
    return tuple(list(pairs(list(range(n)))))


def _family(
    n: int, least: int, too_few: str, pairs: Callable[[list], Iterable[Edge]] | None
) -> Graph:
    """The graph on n >= least vertices whose edges _shaped(n, pairs) makes,
    or K_n with its edges left to their first read if pairs is None."""
    n = _integer(n, "vertex count")
    if n < least:
        raise ValueError(too_few)
    graph = Graph.__new__(Graph)
    vars(graph)["n"] = n
    if pairs is not None:
        vars(graph)["edges"] = _shaped(n, pairs)
    return graph


def complete(n: int) -> Graph:
    """K_n: every pair of the n vertices joined, n >= 1.  O(1): it holds n
    alone until `edges` is first read, which makes all C(n, 2) of them once."""
    return _family(n, 1, "complete graph needs at least 1 vertex", None)


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

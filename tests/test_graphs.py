import copy
import json
import pickle
import random
import re
import tracemalloc
from itertools import combinations, pairwise
from operator import index

import pytest
from hypothesis import given, settings, strategies as st

import boardpile.graphs as graphs
from boardpile.graphs import Graph, complete, cycle, path, star


def test_complete_edge_counts():
    assert len(complete(1).edges) == 0
    assert len(complete(5).edges) == 10
    assert len(complete(10).edges) == 45


def test_complete_rejects_zero():
    with pytest.raises(ValueError):
        complete(0)


def test_path_edges():
    assert path(5).edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert len(path(1).edges) == 0
    with pytest.raises(ValueError):
        path(0)


def test_cycle_edges():
    assert len(cycle(3).edges) == 3
    assert (0, 3) in cycle(4).edges
    with pytest.raises(ValueError):
        cycle(2)


def test_star_edges():
    g = star(4)
    assert g.edges == ((0, 1), (0, 2), (0, 3))
    assert star(1).edges == ()
    with pytest.raises(ValueError):
        star(0)


def test_family_edge_count_closed_forms():
    for n in range(1, 9):
        assert len(complete(n).edges) == n * (n - 1) // 2
        assert len(path(n).edges) == n - 1
        assert len(star(n).edges) == n - 1
    for n in range(3, 9):
        assert len(cycle(n).edges) == n


def test_from_edge_list_builds_path():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g == path(3)


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(0, 0)])


def test_from_edge_list_rejects_duplicate():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(2, [(0, 1), (1, 0)])


def test_duplicate_edge_is_named_however_far_apart_the_copies_are():
    with pytest.raises(ValueError, match=r"duplicate edge \(2, 3\)"):
        Graph(5, [(2, 3), (0, 1), (1, 2), (3, 4), (3, 2)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Graph(-1)


def test_graph_rejects_entries_that_are_not_pairs():
    with pytest.raises(ValueError, match=r"edge entry \(0, 1, 2\): expected exactly two endpoints"):
        Graph(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match=r"edge entry \(0,\): expected exactly two endpoints"):
        Graph(3, [(0,)])
    with pytest.raises(ValueError, match=r"edge entry 5: expected exactly two endpoints"):
        Graph(3, [5])
    with pytest.raises(ValueError, match=r"edge entry None: expected exactly two endpoints"):
        Graph(3, [None])


def test_graphs_hashable_and_equal_by_structure():
    assert complete(3) == cycle(3)
    assert hash(complete(3)) == hash(cycle(3))
    assert complete(3) != complete(4)


# each family, its least vertex count and its edges listed another way
FAMILIES = [
    (complete, 1, lambda n: [(u, v) for u in range(n) for v in range(u + 1, n)]),
    (path, 1, lambda n: [(i, i + 1) for i in range(n - 1)]),
    (cycle, 3, lambda n: [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]),
    (star, 1, lambda n: [(0, i) for i in range(1, n)]),
]


def fields(g):
    return (g.n, g.edges, hash(g))


def test_family_graphs_equal_their_edge_lists():
    # built from their shape, they equal the checked build of a document's
    # listing: shuffled, half reversed
    rng = random.Random(23)
    for family, least, pairs in FAMILIES:
        for n in range(least, 41):
            rows = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs(n)]
            rng.shuffle(rows)
            g = family(n)
            assert fields(g) == fields(Graph(n, rows))
            assert fields(pickle.loads(pickle.dumps(g))) == fields(g)
            assert len({id(x) for edge in g.edges for x in edge}) <= n


def test_a_family_build_checks_no_entry(monkeypatch):
    def refuse(n, entries):
        raise AssertionError("entries checked")

    monkeypatch.setattr(graphs, "_checked_keys", refuse)
    with pytest.raises(AssertionError, match="entries checked"):
        Graph(2, [(0, 1)])
    for family, least, pairs in FAMILIES:
        assert family(12).edges == tuple(sorted(pairs(12)))


def test_a_family_build_holds_little_beyond_its_graph():
    # K_n makes its edges on their first read, the other families as they are
    # built: either way through nothing that outweighs the edges
    builds = ((lambda: complete(300).edges, 300 * 299 // 2), (lambda: path(10**5), 10**5 - 1))
    for make, m in builds:
        tracemalloc.start()
        try:
            made = make()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(getattr(made, "edges", made)) == m
        assert peak <= 1.3 * retained


# --- K_n by n alone -----------------------------------------------------------


def test_complete_holds_n_alone_until_its_edges_are_read(monkeypatch):
    def refuse(n, pairs):
        raise AssertionError("edges made")

    monkeypatch.setattr(graphs, "_shaped", refuse)
    tracemalloc.start()
    try:
        g = complete(10**6)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 10**6
    assert peak < 1024
    assert repr(complete(10**5)) == "Graph(n=100000, m=4999950000)"
    assert graphs._size(complete(10**5)) == 4999950000
    with pytest.raises(AssertionError, match="edges made"):
        complete(3).edges
    with pytest.raises(AttributeError, match="'Graph' object has no attribute 'degree'"):
        g.degree


def test_complete_makes_its_edges_once_on_the_first_read(monkeypatch):
    made = []
    real = graphs._shaped
    monkeypatch.setattr(graphs, "_shaped", lambda n, pairs: made.append(n) or real(n, pairs))
    g = complete(50)
    assert made == []
    edges = g.edges
    assert made == [50] and len(edges) == 50 * 49 // 2
    assert g.edges is edges
    assert made == [50]
    assert len({id(x) for edge in edges for x in edge}) <= 50


@pytest.mark.parametrize("n", [*range(1, 13), 300])
def test_complete_equals_its_edge_list_hashed_and_pickled_alike(n):
    listed = Graph(n, combinations(range(n), 2))
    assert complete(n) == listed and listed == complete(n)
    assert hash(complete(n)) == hash(listed)
    assert complete(n) != complete(n + 1) and complete(n + 1) != complete(n)
    for g in (complete(n), pickle.loads(pickle.dumps(complete(n)))):
        assert fields(g) == fields(listed)
        assert type(g) is Graph and repr(g) == repr(listed)


def test_complete_compares_hashes_and_pickles_by_n_alone(monkeypatch):
    # K_0 is no family member, and K_1 has no edge to make
    for n in (0, 1):
        copied = pickle.loads(pickle.dumps(Graph(n)))
        assert copied == Graph(n) and copied.edges == ()

    def refuse(n, pairs):
        raise AssertionError("edges made")

    monkeypatch.setattr(graphs, "_shaped", refuse)
    g = complete(10**5)
    assert g == complete(10**5) and hash(g) == hash(complete(10**5))
    sparse = Graph(10**5, [(0, 1)])
    assert g != complete(10**5 + 1) and g != sparse and sparse != g
    for copied in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert type(copied) is Graph and copied == g and hash(copied) == hash(g)


def test_families_take_integer_like_counts_and_refuse_the_rest():
    for family, least, pairs in FAMILIES:
        for count in (3.0, 2.5, "3", None):
            with pytest.raises(ValueError, match=re.escape(f"vertex count {count!r} is not")):
                family(count)
        if least <= 2:
            assert family(Two()).edges == tuple(pairs(2))
    with pytest.raises(ValueError, match="cycle needs at least 3 vertices"):
        cycle(Two())
    assert complete(True) == path(True) == star(True) == Graph(1)


# --- the build against the loop it replaced ----------------------------------


def reference_build(n, edges):
    """The one-entry-at-a-time loop Graph's keyed build replaced, with
    operator.index for its endpoints: (edges, None) or (None, message)."""
    canonical = []
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError):
            return None, f"edge entry {pair!r}: expected exactly two endpoints"
        for endpoint in (u, v):
            try:
                index(endpoint)
            except TypeError:
                return None, f"edge entry {pair!r}: endpoint {endpoint!r} is not an integer"
        u, v = index(u), index(v)
        for endpoint in (u, v):
            if not 0 <= endpoint < n:
                return None, f"edge ({u}, {v}): endpoint {endpoint} out of range for {n} vertices"
        if u == v:
            return None, f"self-loop at vertex {u}"
        canonical.append((min(u, v), max(u, v)))
    canonical.sort()
    for edge, following in pairwise(canonical):
        if edge == following:
            return None, f"duplicate edge {edge}"
    return tuple(canonical), None


def built(n, edges):
    try:
        return Graph(n, edges).edges, None
    except ValueError as exc:
        return None, str(exc)


# n = 4; each fault alone, then first among other faults: arity, range,
# self-loops and non-integers are reported in input order, duplicates only
# once every entry is sound, the first in sorted order
FAULTS = [
    pytest.param(
        [(0, 1), (0, 1, 2)], "edge entry (0, 1, 2): expected exactly two endpoints", id="arity"
    ),
    pytest.param(
        [(0, 1), (2,), (0, 9), (1, 1), (1, 0)],
        "edge entry (2,): expected exactly two endpoints",
        id="arity-first",
    ),
    pytest.param(
        [(0, 1), (1, 5)], "edge (1, 5): endpoint 5 out of range for 4 vertices", id="range"
    ),
    pytest.param(
        [(1, 0), (-1, 2), (0, 1, 2), (2, 2), (0, 1)],
        "edge (-1, 2): endpoint -1 out of range for 4 vertices",
        id="range-first",
    ),
    pytest.param([(0, 1), (2, 2)], "self-loop at vertex 2", id="self-loop"),
    pytest.param(
        [(1, 2), (3, 3), (0, 7), (5,), (2, 1)], "self-loop at vertex 3", id="self-loop-first"
    ),
    pytest.param(
        [(0, 1), (2, 0.5)], "edge entry (2, 0.5): endpoint 0.5 is not an integer", id="non-integer"
    ),
    pytest.param(
        [(0, 1), ("2", 3), (0, 9), (1, 1)],
        "edge entry ('2', 3): endpoint '2' is not an integer",
        id="non-integer-first",
    ),
    pytest.param([(0, 1), (2, 3), (1, 0)], "duplicate edge (0, 1)", id="duplicate"),
    pytest.param(
        [(2, 3), (1, 2), (3, 2), (0, 1), (2, 1), (1, 0)],
        "duplicate edge (0, 1)",
        id="duplicate-first",
    ),
]


@pytest.mark.parametrize(
    "given_as", [list, lambda rows: (row for row in rows)], ids=["list", "generator"]
)
@pytest.mark.parametrize("rows, message", FAULTS)
def test_build_reports_the_first_fault(rows, message, given_as):
    assert reference_build(4, rows) == (None, message)
    assert built(4, given_as(rows)) == (None, message)


endpoint = st.one_of(st.integers(-2, 7), st.booleans(), st.sampled_from([0.0, 1.5, "1", None]))
# mostly sound pairs, so that duplicates and whole graphs come up too
entry = st.one_of(
    st.tuples(st.integers(-1, 6), st.integers(-1, 6)),
    st.lists(st.integers(0, 5), min_size=2, max_size=2),
    st.tuples(endpoint, endpoint),
    st.lists(endpoint, max_size=3),
    endpoint,
)


@settings(deadline=None, max_examples=500)
@given(st.integers(0, 6), st.lists(entry, max_size=12), st.booleans())
def test_build_equals_the_reference_loop(n, rows, as_generator):
    edges, message = built(n, (row for row in rows) if as_generator else rows)
    assert (edges, message) == reference_build(n, rows)
    assert edges is None or all(type(x) is int for edge in edges for x in edge)


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 12), st.data())
def test_build_sorts_any_listing_of_a_sound_edge_set(n, data):
    # ascending, shuffled, some reversed, every pair (the complete graph) or none
    pairs = sorted(data.draw(st.sets(st.sampled_from(list(combinations(range(n), 2))))))
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    rows = [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)]
    assert built(n, data.draw(st.permutations(rows))) == (tuple(pairs), None)


def test_build_reads_each_entry_once():
    # canonical and ascending, but each entry can be read only once
    assert Graph(4, [iter((0, 1)), iter((1, 2)), iter((2, 3))]).edges == ((0, 1), (1, 2), (2, 3))
    assert Graph(3, [iter((0, 1)), iter((0, 2)), iter((1, 2))]).edges == ((0, 1), (0, 2), (1, 2))


# --- non-integers -----------------------------------------------------------


class Two:
    """An integer-like object that is not an int."""

    def __index__(self):
        return 2


def test_build_takes_integer_like_endpoints_and_refuses_the_rest():
    assert Graph(3, [(True, Two())]).edges == ((1, 2),)
    assert all(type(x) is int for x in Graph(3, [(True, Two())]).edges[0])
    with pytest.raises(ValueError, match=r"endpoint 1\.9 is not an integer"):
        Graph(3, [(0, 1.9)])
    with pytest.raises(ValueError, match="endpoint '0' is not an integer"):
        Graph(3, [("0", "2")])
    with pytest.raises(ValueError, match=r"vertex count 3\.0 is not an integer"):
        Graph(3.0)


# --- memory layout ------------------------------------------------------------


def test_edges_share_one_int_per_vertex_and_none_of_the_input():
    # a document's edges: shuffled, half reversed, each endpoint its own int
    rng = random.Random(11)
    n = 1000
    pairs = set()
    while len(pairs) < 2000:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    rows = json.loads(json.dumps([[v, u] if rng.random() < 0.5 else [u, v] for u, v in pairs]))
    rng.shuffle(rows)
    # CPython keeps one int for each value up to 256, whoever makes it
    given_ids = {id(x) for row in rows for x in row if x > 256}
    g = Graph(n, rows)
    assert g.edges == tuple(sorted(pairs))
    for graph in (g, pickle.loads(pickle.dumps(g))):
        assert graph == g
        endpoint_ids = {id(x) for edge in graph.edges for x in edge}
        assert len(endpoint_ids) <= graph.n
        assert not endpoint_ids & given_ids


def test_a_build_costs_the_size_of_its_edges_not_of_its_vertex_count():
    # an int for each of 10^12 vertices would not fit in memory, and the keys
    # u*n + v do not fit in 64 bits
    big = 10**12
    g = Graph(big, [(big - 1, 0), (5, 7)])
    assert g.edges == ((0, big - 1), (5, 7))
    assert pickle.loads(pickle.dumps(g)) == g

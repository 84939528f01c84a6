import random
from itertools import combinations

import pytest

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


def test_dense_graphs_store_their_missing_pairs():
    # C(n,2) - m + 3n < m picks the rank path; K_5 and below keep the edge loop
    assert complete(10).missing_pairs == ()
    assert complete(5).missing_pairs is None
    assert path(100).missing_pairs is None
    assert Graph(0).missing_pairs is None
    rng = random.Random(4)
    pairs = list(combinations(range(40), 2))
    g = Graph(40, [e for e in pairs if rng.random() < 0.9])
    present = set(g.edges)
    assert g.missing_pairs == tuple(e for e in pairs if e not in present)
    assert 0 < len(g.missing_pairs) < 120


def test_graphs_hashable_and_equal_by_structure():
    assert complete(3) == cycle(3)
    assert hash(complete(3)) == hash(cycle(3))
    assert complete(3) != complete(4)


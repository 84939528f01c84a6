import itertools

import pytest
from hypothesis import given, settings, strategies as st

from boardpile.polyomino import (
    BoardPilePolyomino,
    InvalidPolyomino,
    _trusted,
    compositions,
    enumerate_board_pile,
    layout,
    reflect,
    render_ascii,
)

# --- independent oracle: grow all fixed polyominoes cell by cell -----------
#
# Completely separate route to the same objects: build every fixed polyomino
# as a set of cells, keep the ones whose rows are single contiguous runs,
# and read the strip encoding off the cells.


def _canon(cells):
    r0 = min(r for r, _ in cells)
    c0 = min(c for _, c in cells)
    return frozenset((r - r0, c - c0) for r, c in cells)


def all_fixed_polyominoes(n):
    current = {frozenset({(0, 0)})}
    for _ in range(n - 1):
        grown = set()
        for poly in current:
            for r, c in poly:
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    cell = (r + dr, c + dc)
                    if cell not in poly:
                        grown.add(_canon(poly | {cell}))
        current = grown
    return current


def cells_to_strips(cells):
    """Strip encoding of a cell set with one contiguous run per row, or None."""
    rows = {}
    for r, c in cells:
        rows.setdefault(r, []).append(c)
    placements = []
    for r in sorted(rows):
        cols = sorted(rows[r])
        if cols != list(range(cols[0], cols[0] + len(cols))):
            return None
        placements.append((cols[0], len(cols)))
    strips = [(0, placements[0][1])]
    for i in range(1, len(placements)):
        start, length = placements[i]
        strips.append((start + length - placements[i - 1][0], length))
    return tuple(strips)


def layout_to_cells(placed):
    return frozenset(
        (row, col)
        for row, (start, length) in enumerate(placed)
        for col in range(start, start + length)
    )


@st.composite
def board_piles(draw):
    n_strips = draw(st.integers(min_value=1, max_value=5))
    lengths = draw(st.lists(st.integers(1, 5), min_size=n_strips, max_size=n_strips))
    strips = [(0, lengths[0])]
    for i in range(1, n_strips):
        d = draw(st.integers(1, lengths[i - 1] + lengths[i] - 1))
        strips.append((d, lengths[i]))
    return BoardPilePolyomino(tuple(strips))


def assert_valid_twin(x):
    # enumerate_board_pile and reflect skip the constructor's check: they
    # must make the class itself, holding a tuple of (int, int) tuples, whose
    # strips pass the check and build an equal object with the same hash
    assert type(x) is BoardPilePolyomino
    assert type(x.strips) is tuple
    assert all(type(strip) is tuple and len(strip) == 2 for strip in x.strips)
    assert all(type(v) is int for strip in x.strips for v in strip)
    twin = BoardPilePolyomino(x.strips)
    assert twin == x
    assert hash(twin) == hash(x)


# --- validation ------------------------------------------------------------


def test_validate_three_strip_example():
    x = BoardPilePolyomino([(0, 2), (3, 3), (2, 1)])
    assert x.cells == 6
    assert x.height == 3


def test_validate_domino():
    assert BoardPilePolyomino([(0, 1), (1, 1)]).strips == ((0, 1), (1, 1))


def test_validate_detached_strips_rejected():
    # offsets for lengths 2,2 may only run 1..3
    with pytest.raises(InvalidPolyomino, match=r"strips\[1\]: offset 4 outside 1\.\.3"):
        BoardPilePolyomino([(0, 2), (4, 2)])


def test_validate_zero_offset_above_bottom_rejected():
    with pytest.raises(InvalidPolyomino, match=r"strips\[1\]: offset 0 outside 1\.\.3"):
        BoardPilePolyomino([(0, 2), (0, 2)])


def test_validate_empty_rejected():
    with pytest.raises(InvalidPolyomino, match="strip list is empty"):
        BoardPilePolyomino([])


def test_validate_first_offset_must_be_zero():
    with pytest.raises(InvalidPolyomino, match=r"strips\[0\]: offset 1 must be 0"):
        BoardPilePolyomino([(1, 2)])


def test_validate_refuses_what_is_not_an_integer():
    with pytest.raises(InvalidPolyomino, match=r"strips\[1\]: offset 2\.9 is not an integer"):
        BoardPilePolyomino([(0, 2), (2.9, 1)])
    with pytest.raises(InvalidPolyomino, match=r"strips\[0\]: length '1' is not an integer"):
        BoardPilePolyomino([(0, "1")])


def test_validate_accepts_bools_and_index_objects():
    class Two:
        def __index__(self):
            return 2

    x = BoardPilePolyomino([(False, Two()), (True, True)])
    assert x.strips == ((0, 2), (1, 1))
    assert all(type(value) is int for strip in x.strips for value in strip)


def test_validate_nonpositive_length_rejected():
    with pytest.raises(InvalidPolyomino, match=r"strips\[0\]: length 0 must be positive"):
        BoardPilePolyomino([(0, 0)])


# each fault alone, then first among other faults: the strips are checked in
# one pass, bottom first, so the first faulty strip is reported, and within a
# strip its shape, then its integers, its length and its offset
STRIP_FAULTS = [
    pytest.param([5], "strips[0]: 5 is not an (offset, length) pair", id="not-a-pair"),
    pytest.param([None], "strips[0]: None is not an (offset, length) pair", id="none"),
    pytest.param([(0, 1, 2)], "strips[0]: (0, 1, 2) is not an (offset, length) pair", id="triple"),
    pytest.param([(0,)], "strips[0]: (0,) is not an (offset, length) pair", id="single"),
    pytest.param("ab", "strips[0]: 'a' is not an (offset, length) pair", id="string"),
    pytest.param(
        [(0, 2), (4, 2), 5], "strips[1]: offset 4 outside 1..3", id="range-before-pair"
    ),
    pytest.param(
        [(0, 2), (9, 2), (0.5, 1)], "strips[1]: offset 9 outside 1..3", id="range-before-integer"
    ),
    pytest.param([(1, 2), (1, 0)], "strips[0]: offset 1 must be 0", id="bottom-before-length"),
    pytest.param(
        [(0, 0), (1, "x")], "strips[0]: length 0 must be positive", id="length-before-integer"
    ),
    pytest.param([(1, 0)], "strips[0]: length 0 must be positive", id="length-before-offset"),
    pytest.param([(0.5, 0)], "strips[0]: offset 0.5 is not an integer", id="integer-before-length"),
]


@pytest.mark.parametrize(
    "given_as", [list, lambda rows: (row for row in rows)], ids=["list", "generator"]
)
@pytest.mark.parametrize("strips, message", STRIP_FAULTS)
def test_validate_reports_the_first_fault(strips, message, given_as):
    with pytest.raises(InvalidPolyomino) as refused:
        BoardPilePolyomino(given_as(strips))
    assert str(refused.value) == message


# --- enumeration -----------------------------------------------------------


def odometer_board_pile(n):
    """Reference walk, the plain odometer: per composition, the product of the
    offset ranges, each offset tuple zipped with the lengths above the bottom."""
    for lengths in compositions(n):
        bottom = ((0, lengths[0]),)
        above = lengths[1:]
        ranges = [range(1, below + length) for below, length in zip(lengths, above)]
        for offsets in itertools.product(*ranges):
            yield _trusted(bottom + tuple(zip(offsets, above)))


def test_enumerate_matches_the_odometer_stream():
    # the same strips in the same order: compositions in lexicographic
    # order, last offset fastest
    for n in range(1, 12):
        assert [x.strips for x in enumerate_board_pile(n)] == [
            x.strips for x in odometer_board_pile(n)
        ]


def test_enumerate_single_cell():
    assert [x.strips for x in enumerate_board_pile(1)] == [((0, 1),)]


def test_enumerate_streams_past_the_recursion_limit():
    # compositions are made without recursion: the first polyomino of 3,000
    # cells is the one-cell-wide column
    first = next(enumerate_board_pile(3000))
    assert first.strips == ((0, 1),) + ((1, 1),) * 2999


def test_enumerate_two_cells_in_order():
    assert [x.strips for x in enumerate_board_pile(2)] == [
        ((0, 1), (1, 1)),
        ((0, 2),),
    ]


def test_enumerate_three_cells_exact_stream():
    assert [x.strips for x in enumerate_board_pile(3)] == [
        ((0, 1), (1, 1), (1, 1)),
        ((0, 1), (1, 2)),
        ((0, 1), (2, 2)),
        ((0, 2), (1, 1)),
        ((0, 2), (2, 1)),
        ((0, 3),),
    ]


def test_enumerate_four_cells_count():
    assert sum(1 for _ in enumerate_board_pile(4)) == 19


def test_enumerate_counts_small_sizes():
    expected = [1, 2, 6, 19, 61, 196, 629, 2017]
    got = [sum(1 for _ in enumerate_board_pile(n)) for n in range(1, 9)]
    assert got == expected


def test_enumerate_rejects_zero():
    with pytest.raises(ValueError):
        list(enumerate_board_pile(0))


def test_enumerate_no_duplicates_and_all_valid():
    for n in range(1, 10):
        seen = set()
        for x in enumerate_board_pile(n):
            assert_valid_twin(x)
            assert x.cells == n
            assert x.strips not in seen
            seen.add(x.strips)


def test_enumerate_matches_cell_growth_oracle():
    # strip-by-strip enumeration agrees exactly with growing raw cell sets
    # and filtering to one run per row, for every size up to 8
    known_fixed = [1, 2, 6, 19, 63, 216, 760, 2725]
    for n in range(1, 9):
        fixed = all_fixed_polyominoes(n)
        assert len(fixed) == known_fixed[n - 1]
        oracle = {s for s in (cells_to_strips(p) for p in fixed) if s is not None}
        enumerated = {x.strips for x in enumerate_board_pile(n)}
        assert enumerated == oracle


# --- reflect ---------------------------------------------------------------


def test_reflect_two_strip_example():
    assert reflect(BoardPilePolyomino(((0, 2), (4, 5)))).strips == ((0, 5), (3, 2))


def test_reflect_single_strip_identity():
    x = BoardPilePolyomino(((0, 4),))
    assert reflect(x) == x


def test_reflect_is_involution_exhaustively():
    for n in range(1, 10):
        for x in enumerate_board_pile(n):
            assert_valid_twin(reflect(x))
            assert reflect(reflect(x)) == x


def test_reflect_preserves_cells_and_length_multiset():
    for n in range(1, 8):
        for x in enumerate_board_pile(n):
            r = reflect(x)
            assert r.cells == x.cells
            assert sorted(l for _, l in r.strips) == sorted(l for _, l in x.strips)


@settings(deadline=None)
@given(board_piles())
def test_reflect_involution_property(x):
    assert_valid_twin(reflect(x))
    assert reflect(reflect(x)) == x


def test_reflect_mirrors_cells():
    for n in range(1, 8):
        for x in enumerate_board_pile(n):
            cells = layout_to_cells(layout(x))
            mirrored = _canon({(-r, c) for r, c in cells})
            assert layout_to_cells(layout(reflect(x))) == mirrored


# --- layout / render -------------------------------------------------------


def test_layout_three_strip_example():
    x = BoardPilePolyomino(((0, 2), (3, 3), (2, 1)))
    assert layout(x) == ((0, 2), (0, 3), (1, 1))


def test_layout_round_trip():
    for n in range(1, 8):
        for x in enumerate_board_pile(n):
            placed = layout(x)
            assert min(start for start, _ in placed) == 0
            rebuilt = [(0, placed[0][1])]
            for i in range(1, len(placed)):
                start, length = placed[i]
                rebuilt.append((start + length - placed[i - 1][0], length))
            assert tuple(rebuilt) == x.strips


def test_render_single_strip():
    assert render_ascii(BoardPilePolyomino(((0, 3),))) == "###"


def test_render_domino():
    assert render_ascii(BoardPilePolyomino(((0, 1), (1, 1)))) == "#\n#"


def test_render_three_strip_example():
    x = BoardPilePolyomino(((0, 2), (3, 3), (2, 1)))
    assert render_ascii(x) == " #\n###\n##"


def test_render_no_trailing_whitespace_and_right_cell_count():
    for n in range(1, 7):
        for x in enumerate_board_pile(n):
            text = render_ascii(x)
            assert all(line == line.rstrip() for line in text.splitlines())
            assert sum(line.count("#") for line in text.splitlines()) == n


# --- compositions helper ----------------------------------------------------


def test_compositions_order_and_count():
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for n in range(1, 10):
        comps = list(compositions(n))
        assert len(comps) == 2 ** (n - 1)
        assert all(sum(c) == n for c in comps)
        assert comps == sorted(comps)

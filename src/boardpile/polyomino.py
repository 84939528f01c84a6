"""Board-pile polyominoes in strip encoding.

A board-pile polyomino is a polyomino with at most one horizontal strip per
row.  It is encoded bottom strip first as pairs (d, length): length is the
number of cells in the strip, and d is the distance from the left end of the
strip below to the right end of this strip (measured on grid lines).  The
bottom strip carries d = 0 by convention.  Two stacked strips share at least
one cell edge exactly when 1 <= d <= length_below + length - 1, which is the
validity test.  The public constructor applies it, naming the first bad
strip.  enumerate_board_pile() and reflect() build only valid strips of ints
and skip it: the walk builds each composition's strip choices once and lets
itertools assemble every polyomino from them, so its per-item step runs no
check and no Python-level construction.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator
from operator import index

from . import _integer

Strip = tuple[int, int]


class InvalidPolyomino(ValueError):
    """Strip list does not describe a board-pile polyomino."""


def _checked_strips(strips: Iterable[Strip]) -> tuple[Strip, ...]:
    """The strips as pairs of ints, or InvalidPolyomino for the first bad one."""
    checked = []
    below = 0  # the length of the strip below, 0 under the bottom strip
    try:
        strips = enumerate(strips)
    except TypeError:
        raise InvalidPolyomino(f"{strips!r} is not a sequence of strips") from None
    for i, strip in strips:
        try:
            d, length = strip
        except (TypeError, ValueError):
            raise InvalidPolyomino(f"strips[{i}]: {strip!r} is not an (offset, length) pair") from None
        try:
            d, length = index(d), index(length)
        except TypeError:
            try:
                d, length = _integer(d, f"strips[{i}]: offset"), _integer(length, f"strips[{i}]: length")
            except ValueError as named:
                raise InvalidPolyomino(str(named)) from None
        if length < 1:
            raise InvalidPolyomino(f"strips[{i}]: length {length} must be positive")
        if below:
            high = below + length - 1
            if not 1 <= d <= high:
                raise InvalidPolyomino(f"strips[{i}]: offset {d} outside 1..{high}")
        elif d:
            raise InvalidPolyomino(f"strips[0]: offset {d} must be 0")
        checked.append((d, length))
        below = length
    if not checked:
        raise InvalidPolyomino("strip list is empty")
    return tuple(checked)


class BoardPilePolyomino(namedtuple("BoardPilePolyomino", ("strips",))):
    """Validated board-pile polyomino; construction rejects bad strip lists.

    A named tuple with the one field `strips`: equal strips make equal,
    equally hashed polyominoes, each equal to the plain tuple (strips,).
    _make() and _replace() build through the constructor, and so do pickle
    and deepcopy: none of them skips the check.
    """

    __slots__ = ()

    def __new__(cls, strips: Iterable[Strip]):
        return tuple.__new__(cls, (_checked_strips(strips),))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def cells(self) -> int:
        return sum(length for _, length in self.strips)

    @property
    def height(self) -> int:
        return len(self.strips)


def _trusted(strips: tuple[Strip, ...]) -> BoardPilePolyomino:
    # strips known valid and made of ints: bypass __new__'s integer and validity checks
    return tuple.__new__(BoardPilePolyomino, (strips,))


def compositions(total: int) -> Iterator[tuple[int, ...]]:
    """Ordered sequences of positive integers summing to `total`, in
    lexicographic order: (1,1,1) before (1,2) before (2,1) before (3)."""
    # the next in order: take the last part x off, add 1 to the new last, append x - 1 ones
    parts = [1] * total
    yield tuple(parts)
    while len(parts) > 1:
        last = parts.pop()
        parts[-1] += 1
        parts += [1] * (last - 1)
        yield tuple(parts)


def enumerate_board_pile(n: int) -> Iterator[BoardPilePolyomino]:
    """Every board-pile polyomino with n cells, each exactly once.

    Strip lengths run over compositions of n in lexicographic order.  For
    each composition the (d, length) pairs each strip may take are built
    once, the bottom strip's being the single (0, l_0), and the polyominoes
    are their itertools.product, odometer-style, last offset fastest.  Each
    yielded polyomino's strips are the tuple product makes, holding those
    shared pair tuples.  Every offset lies in its valid range by
    construction, so tuple.__new__ makes the objects: no per-item check and
    no Python-level construction runs, and the generator only passes each
    item on.  The stream is lazy since counts grow roughly as 3.2^n.
    """
    n = _integer(n, "cell count", 1)
    for lengths in compositions(n):
        choices = [((0, lengths[0]),)]
        choices += [
            tuple(zip(range(1, below + length), itertools.repeat(length)))
            for below, length in zip(lengths, lengths[1:])
        ]
        yield from map(
            tuple.__new__, itertools.repeat(BoardPilePolyomino), zip(itertools.product(*choices))
        )


def layout(x: BoardPilePolyomino) -> tuple[tuple[int, int], ...]:
    """Absolute placement (x_start, length) per strip, bottom strip first.

    Positions are translated so the smallest x_start is 0.  The offsets can
    be read back off as d_i = x_start_i + length_i - x_start_{i-1}.
    """
    starts = list(itertools.accumulate((d - length for d, length in x.strips[1:]), initial=0))
    shift = min(starts)
    return tuple(
        (start - shift, length) for start, (_, length) in zip(starts, x.strips)
    )


def reflect(x: BoardPilePolyomino) -> BoardPilePolyomino:
    """Mirror about the horizontal axis: row order reverses, columns stay.

    The mirror of a valid strip list is valid, so the result is built
    without the constructor's check.
    """
    strips = x.strips
    # strip k moves above strip k+1; the offsets of two stacked strips,
    # measured from below and from above, sum to l_k + l_{k+1}
    mirrored = [(0, strips[-1][1])]
    for k in range(len(strips) - 2, -1, -1):
        mirrored.append((strips[k][1] + strips[k + 1][1] - strips[k + 1][0], strips[k][1]))
    return _trusted(tuple(mirrored))


def render_ascii(x: BoardPilePolyomino) -> str:
    """Draw the polyomino with '#' cells, top row first, no trailing blanks."""
    placed = layout(x)
    return "\n".join(" " * start + "#" * length for start, length in reversed(placed))


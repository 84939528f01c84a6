"""Board-pile polyominoes in strip encoding.

A board-pile polyomino is a polyomino with at most one horizontal strip per
row.  It is encoded bottom strip first as pairs (d, length): length is the
number of cells in the strip, and d is the distance from the left end of the
strip below to the right end of this strip (measured on grid lines).  The
bottom strip carries d = 0 by convention.  Two stacked strips share at least
one cell edge exactly when 1 <= d <= length_below + length - 1, which is the
validity test.  The public constructor applies it; enumerate_board_pile()
and reflect() build strips that satisfy it by construction and skip it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator
from operator import index

Strip = tuple[int, int]


class InvalidPolyomino(ValueError):
    """Strip list does not describe a board-pile polyomino."""


def _integer_strips(strips: Iterable[Strip]) -> tuple[Strip, ...]:
    # held, so that a one-shot iterable can still name its bad value
    strips = tuple(strips)
    try:
        return tuple((index(d), index(length)) for d, length in strips)
    except TypeError:
        for i, (d, length) in enumerate(strips):
            for what, value in (("offset", d), ("length", length)):
                try:
                    index(value)
                except TypeError:
                    raise InvalidPolyomino(f"strips[{i}]: {what} {value!r} is not an integer") from None
        raise


def _check_strips(strips: tuple[Strip, ...]) -> None:
    if not strips:
        raise InvalidPolyomino("strip list is empty")
    for i, (_, length) in enumerate(strips):
        if length < 1:
            raise InvalidPolyomino(f"strips[{i}]: length {length} must be positive")
    if strips[0][0] != 0:
        raise InvalidPolyomino(f"strips[0]: offset {strips[0][0]} must be 0")
    for i in range(1, len(strips)):
        d = strips[i][0]
        high = strips[i - 1][1] + strips[i][1] - 1
        if not 1 <= d <= high:
            raise InvalidPolyomino(f"strips[{i}]: offset {d} outside 1..{high}")


class BoardPilePolyomino(namedtuple("BoardPilePolyomino", ("strips",))):
    """Validated board-pile polyomino; construction rejects bad strip lists.

    A named tuple with the one field `strips`: equal strips make equal,
    equally hashed polyominoes, each equal to the plain tuple (strips,).
    _make() and _replace() build through the constructor, and so do pickle
    and deepcopy: none of them skips the check.
    """

    __slots__ = ()

    def __new__(cls, strips: Iterable[Strip]):
        strips = _integer_strips(strips)
        _check_strips(strips)
        return tuple.__new__(cls, (strips,))

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

    Strip lengths run over compositions of n in lexicographic order; for each
    composition the offsets sweep their valid ranges odometer-style, last
    offset fastest.  The stream is lazy since counts grow roughly as 3.2^n.
    Every offset lies in its valid range by construction, so the objects are
    built without the constructor's check.
    """
    if n < 1:
        raise ValueError("cell count must be at least 1")
    for lengths in compositions(n):
        bottom = ((0, lengths[0]),)
        above = lengths[1:]
        ranges = [range(1, below + length) for below, length in zip(lengths, above)]
        for offsets in itertools.product(*ranges):
            yield _trusted(bottom + tuple(zip(offsets, above)))


def layout(x: BoardPilePolyomino) -> tuple[tuple[int, int], ...]:
    """Absolute placement (x_start, length) per strip, bottom strip first.

    Positions are translated so the smallest x_start is 0.  The offsets can
    be read back off as d_i = x_start_i + length_i - x_start_{i-1}.
    """
    starts = [0]
    for i in range(1, len(x.strips)):
        d, length = x.strips[i]
        starts.append(starts[i - 1] + d - length)
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


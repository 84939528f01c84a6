"""Board-pile polyominoes in strip encoding.

A board-pile polyomino is a polyomino with at most one horizontal strip per
row.  It is encoded bottom strip first as pairs (d, length): length is the
number of cells in the strip, and d is the distance from the left end of the
strip below to the right end of this strip (measured on grid lines).  The
bottom strip carries d = 0 by convention.  Two stacked strips share at least
one cell edge exactly when 1 <= d <= length_below + length - 1, which is the
validity test applied to every instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Strip = tuple[int, int]


class InvalidPolyomino(ValueError):
    """Strip list does not describe a board-pile polyomino."""


class EmptyStripList(InvalidPolyomino):
    pass


class FirstOffsetNonzero(InvalidPolyomino):
    pass


class StripLengthNonpositive(InvalidPolyomino):
    pass


class OffsetOutOfRange(InvalidPolyomino):
    def __init__(self, index: int, offset: int, high: int):
        self.index = index
        self.offset = offset
        self.high = high
        super().__init__(f"strips[{index}]: offset {offset} outside 1..{high}")


def _check_strips(strips: tuple[Strip, ...]) -> None:
    if not strips:
        raise EmptyStripList("strip list is empty")
    for i, (_, length) in enumerate(strips):
        if length < 1:
            raise StripLengthNonpositive(f"strips[{i}]: length {length} must be positive")
    if strips[0][0] != 0:
        raise FirstOffsetNonzero(f"strips[0]: offset {strips[0][0]} must be 0")
    for i in range(1, len(strips)):
        d = strips[i][0]
        high = strips[i - 1][1] + strips[i][1] - 1
        if not 1 <= d <= high:
            raise OffsetOutOfRange(i, d, high)


@dataclass(frozen=True)
class BoardPilePolyomino:
    """Validated board-pile polyomino; construction rejects bad strip lists."""

    strips: tuple[Strip, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "strips", tuple((int(d), int(length)) for d, length in self.strips)
        )
        _check_strips(self.strips)

    @property
    def cells(self) -> int:
        return sum(length for _, length in self.strips)

    @property
    def height(self) -> int:
        return len(self.strips)


def validate(strips: Iterable[Sequence[int]]) -> BoardPilePolyomino:
    """Check a raw strip list and wrap it; raises InvalidPolyomino subtypes."""
    return BoardPilePolyomino(tuple((d, length) for d, length in strips))


def compositions(total: int) -> Iterator[tuple[int, ...]]:
    """Ordered sequences of positive integers summing to `total`, in
    lexicographic order: (1,1,1) before (1,2) before (2,1) before (3)."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def enumerate_board_pile(n: int) -> Iterator[BoardPilePolyomino]:
    """Every board-pile polyomino with n cells, each exactly once.

    Strip lengths run over compositions of n in lexicographic order; for each
    composition the offsets sweep their valid ranges odometer-style, last
    offset fastest.  The stream is lazy since counts grow roughly as 3.2^n.
    """
    if n < 1:
        raise ValueError("cell count must be at least 1")
    for lengths in compositions(n):
        ranges = [
            range(1, lengths[i - 1] + lengths[i]) for i in range(1, len(lengths))
        ]
        for offsets in itertools.product(*ranges):
            strips = ((0, lengths[0]),) + tuple(zip(offsets, lengths[1:]))
            yield BoardPilePolyomino(strips)


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
    """Mirror about the horizontal axis: row order reverses, columns stay."""
    strips = x.strips
    # strip k moves above strip k+1; the offsets of two stacked strips,
    # measured from below and from above, sum to l_k + l_{k+1}
    mirrored = [(0, strips[-1][1])]
    for k in range(len(strips) - 2, -1, -1):
        mirrored.append((strips[k][1] + strips[k + 1][1] - strips[k + 1][0], strips[k][1]))
    return BoardPilePolyomino(tuple(mirrored))


def render_ascii(x: BoardPilePolyomino) -> str:
    """Draw the polyomino with '#' cells, top row first, no trailing blanks."""
    placed = layout(x)
    return "\n".join(" " * start + "#" * length for start, length in reversed(placed))


def poly_to_document(x: BoardPilePolyomino) -> dict:
    """JSON-ready document: {"strips": [[d, length], ...]}."""
    return {"strips": [[d, length] for d, length in x.strips]}


def poly_from_document(doc: dict) -> BoardPilePolyomino:
    if not isinstance(doc, dict) or "strips" not in doc:
        raise ValueError("polyomino document missing field 'strips'")
    strips = doc["strips"]
    # bool is a subclass of int, but true/false are not offsets or lengths
    if not isinstance(strips, list) or any(
        not isinstance(s, (list, tuple)) or len(s) != 2
        or type(s[0]) is not int or type(s[1]) is not int
        for s in strips
    ):
        raise ValueError("field 'strips': expected a list of [offset, length] integer pairs")
    return validate(strips)

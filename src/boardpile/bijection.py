"""The strip-to-stack correspondence.

A configuration of the complete graph K_n is held as its sorted multiset of
stacks, a tuple of n ints.  Reading a board-pile polyomino bottom-up, give
every cell of strip k the stack value d_1 + ... + d_k.  The resulting
multiset is a periodic configuration of K_n, and every normalized periodic
multiset arises from exactly one polyomino this way: the gaps between
consecutive distinct stack values, paired with their multiplicities, rebuild
the strips.  Firing the image once corresponds to flipping the polyomino
upside down (after renormalizing).
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import groupby

from . import diffusion
from .polyomino import BoardPilePolyomino, reflect


class NotAPeriodConfiguration(ValueError):
    """The multiset is not reproduced by two firings, so it has no preimage."""


class NotNormalized(ValueError):
    """The smallest stack value is not 0; normalize before inverting."""


def poly_to_config(x: BoardPilePolyomino) -> tuple[int, ...]:
    """Map a board-pile polyomino with n cells to a sorted multiset on K_n.

    Each cell of strip k holds the running sum of the first k offsets.
    Offsets above the bottom strip are positive, so the values ascend and
    the tuple comes out sorted.  The image is always periodic.
    """
    stacks: list[int] = []
    running = 0
    for d, length in x.strips:
        running += d
        stacks += [running] * length
    return tuple(stacks)


def config_to_poly(multiset: Iterable[int]) -> BoardPilePolyomino:
    """Invert poly_to_config on a normalized periodic multiset, in any order.

    Strip k gets length = multiplicity of the k-th smallest value and
    offset = gap to the value below (0 for the bottom strip).  Raises
    NotNormalized when the smallest value is not 0, and
    NotAPeriodConfiguration when two firings do not reproduce the multiset,
    since only periodic multisets have preimages.
    """
    ms = tuple(sorted(multiset))
    if not ms:
        raise ValueError("empty multiset")
    if ms[0] != 0:
        raise NotNormalized(f"smallest stack value is {ms[0]}, expected 0")
    if diffusion.fire_complete(diffusion.fire_complete(ms)) != ms:
        raise NotAPeriodConfiguration(f"multiset {ms} is not inside its own cycle")
    strips = []
    below = 0
    for value, run in groupby(ms):
        strips.append((value - below, sum(1 for _ in run)))
        below = value
    return BoardPilePolyomino(tuple(strips))


def check_fire_reflect(x: BoardPilePolyomino) -> bool:
    """True iff firing the image once, then renormalizing, lands on the image
    of the vertically flipped polyomino."""
    # the image is sorted and its stacks are ints, so it is fired as it is
    fired = diffusion._fire_blocks(poly_to_config(x))
    lowest = fired[0]
    return tuple([s - lowest for s in fired]) == poly_to_config(reflect(x))

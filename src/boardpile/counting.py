"""Exact counting of the periodic states of complete graphs.

The number of distinct periodic multisets on n vertices satisfies
a(n) = 5a(n-1) - 7a(n-2) + 4a(n-3) with a(1..4) = 1, 2, 6, 19, has ordinary
generating function x(1-x)^3 / (1 - 5x + 7x^2 - 4x^3), and grows like
C * r^n where r ~ 3.2056 is the one real root of x^3 - 5x^2 + 7x - 4.
A table a(1..n) costs O(n^2) digit operations.  A single a(n) takes
O(log n) multiplications of integers of O(n) digits, either as a power of
the recurrence's companion matrix or as [x^n] of the generating function by
Bostan and Mori's halving, so its cost is that of big-integer multiplication.
Labelled counts come from a transfer-matrix count over the size of the top
block; the same count without the binomial factor is a further, independent
count of the unlabelled states.  Everything integral is computed in exact
big-integer arithmetic; floats appear only on the asymptotic side.
Brute-force scans over small complete graphs act as independent oracles for
both counts.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections.abc import Callable, Iterable, Iterator

import boardpile as bp

from . import _integer

_SEEDS = (1, 2, 6, 19)

# a(1)..a(11), the table every cross-check of the counts is held against
REFERENCE_COUNTS = (1, 2, 6, 19, 61, 196, 629, 2017, 6466, 20727, 66441)


def recurrence_counts(n_max: int) -> list[int]:
    """a(1)..a(n_max) by the three-term recurrence, exact integers."""
    n_max = _integer(n_max, "n_max", 1)
    counts = list(_SEEDS[:n_max])
    while len(counts) < n_max:
        counts.append(5 * counts[-1] - 7 * counts[-2] + 4 * counts[-3])
    return counts


def gf_coefficients(n_max: int) -> list[int]:
    """Coefficients of x^1..x^n_max of x(1-x)^3 / (1 - 5x + 7x^2 - 4x^3).

    Computed by exact polynomial long division: the denominator has constant
    term 1, so each coefficient is the numerator coefficient plus an integer
    combination of the previous three.
    """
    n_max = _integer(n_max, "n_max", 1)
    numerator = {1: 1, 2: -3, 3: 3, 4: -1}  # x(1-x)^3 expanded
    series = [0, 0, 0]  # x^-2, x^-1 and x^0
    for k in range(1, n_max + 1):
        series.append(numerator.get(k, 0) + 5 * series[-1] - 7 * series[-2] + 4 * series[-3])
    return series[3:]


def recurrence_count(n: int) -> int:
    """a(n) alone, by a power of the recurrence's 3x3 companion matrix.

    (a(k+1), a(k), a(k-1)) is the matrix ((5, -7, 4), (1, 0, 0), (0, 1, 0))
    applied to (a(k), a(k-1), a(k-2)), so its (n-4)-th power takes the seeds
    (19, 6, 2) to a(n).  Repeated squaring needs O(log n) matrix products.
    """
    n = _integer(n, "n", 1)
    if n <= 4:
        return _SEEDS[n - 1]
    step = ((5, -7, 4), (1, 0, 0), (0, 1, 0))
    power = step
    # left to right over the exponent's bits: square, then one cheap product by step
    for bit in bin(n - 4)[3:]:
        power = _matrix_product(power, power)
        if bit == "1":
            power = _matrix_product(power, step)
    return sum(m * seed for m, seed in zip(power[0], _SEEDS[:0:-1]))


def _matrix_product(a, b):
    columns = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in columns) for row in a)


def gf_coefficient(n: int) -> int:
    """[x^n] of x(1-x)^3 / (1 - 5x + 7x^2 - 4x^3) alone, by Bostan and Mori's halving.

    [x^n] P(x)/Q(x) equals [x^n] P(x)Q(-x) / Q(x)Q(-x), whose denominator is
    even: keeping the numerator's terms of the parity of n and the
    denominator's even terms, both as series in x^2, leaves the same question
    for n // 2.  Q(0) stays 1, so after O(log n) steps the answer is P(0).
    """
    n = _integer(n, "n", 1)
    numerator = [0, 1, -3, 3, -1]  # x(1-x)^3 expanded
    denominator = [1, -5, 7, -4]
    while True:
        # terms past x^n cannot reach [x^n]; dropping them keeps the last and
        # largest steps from multiplying coefficients that only cancel
        numerator, denominator = numerator[: n + 1], denominator[: n + 1]
        mirrored = [-c if i % 2 else c for i, c in enumerate(denominator)]
        numerator = _product_terms(numerator, mirrored, n % 2)
        n //= 2
        if n == 0:
            return numerator[0]
        denominator = _product_terms(denominator, mirrored, 0)


def _product_terms(a: list[int], b: list[int], parity: int) -> list[int]:
    # the coefficients of x^parity, x^(parity + 2), ... in a(x) * b(x)
    terms = [0] * ((len(a) + len(b) - parity) // 2)
    for i, x in enumerate(a):
        for j in range((parity - i) % 2, len(b), 2):
            terms[(i + j) // 2] += x * b[j]
    return terms


# --- growth rate -----------------------------------------------------------


def characteristic_roots() -> tuple[float, complex, complex]:
    """Roots of x^3 - 5x^2 + 7x - 4 as (dominant, root_2, root_3).

    The dominant root is the one real root and has the largest modulus;
    root_2 and root_3 are a complex-conjugate pair.  Solved in closed form
    (Cardano, then the quadratic).
    """
    # x = y + 5/3 leaves y^3 - (4/3)y - 43/27, whose discriminant
    # (43/54)^2 - (4/9)^3 = 1593/2916 is positive: one real root, and both
    # radicands below are positive
    half_q = 43 / 54
    shift = math.sqrt(1593) / 54
    r = 5 / 3 + (half_q + shift) ** (1 / 3) + (half_q - shift) ** (1 / 3)
    # the other two sum to 5 - r and multiply to 4/r
    mid = (5 - r) / 2
    offset = cmath.sqrt(mid * mid - 4 / r)
    return r, mid + offset, mid - offset


def _closed_form_coefficient(root: complex) -> complex:
    # partial fractions of the GF N/Q, N(x) = x(1-x)^3 and Q(x) = 1 - 5x + 7x^2 - 4x^3:
    # the pole x = 1/r gives -r*N(1/r)/Q'(1/r).  N has degree 1 above Q's, so
    # a(k) = sum of these coefficients times root^k holds from k = 2 on; a(1)
    # is the lone exception it does not reproduce
    x = 1 / root
    return -root * x * (1 - x) ** 3 / (-5 + 14 * x - 12 * x * x)


def asymptotic_constant() -> float:
    """The real multiplier C in the leading-term approximation C * r^k."""
    return _closed_form_coefficient(characteristic_roots()[0])


def asymptotic_estimate(k: float) -> float:
    """Leading-term approximation of a(k), real k >= 1; relative error < 1% for k >= 8."""
    try:
        real = 1 <= k < math.inf  # False for NaN, a TypeError for what is no number
    except TypeError:
        real = False
    if not real:
        raise ValueError(f"k must be a real number at least 1, got {k!r}")
    try:
        return asymptotic_constant() * characteristic_roots()[0] ** float(k)
    except OverflowError:
        raise ValueError(f"k {k!r}: the estimate is past the float range") from None


# --- labelled counting -----------------------------------------------------


def labelled_period_counts(n_max: int) -> list[int]:
    """Periodic stack assignments on n labelled vertices, min 0, for n=1..n_max.

    A transfer-matrix count over the size of the top block.  Let h[m][s] count
    the states on m vertices whose top block (the vertices on the highest
    level) has s of them.  A lone block gives h[m][m] = 1; otherwise the top
    block sits on a state of the other r = m - s vertices with some top block
    of t vertices, with t + s - 1 admissible gaps between the two and C(m, s)
    ways to choose the top block's vertices:

        h[m][s] = C(m, s) * sum_t h[r][t] * (t + s - 1)
                = C(m, s) * (B[r] + s * A[r]),

    where A[r] = sum_t h[r][t] is the count for r vertices and
    B[r] = sum_t (t - 1) * h[r][t].  Only A and B are kept, so the table costs
    O(n_max^2) exact big-integer operations.
    """
    return _top_block_counts(_integer(n_max, "n_max", 1), labelled=True)


def _top_block_counts(n_max: int, labelled: bool) -> list[int]:
    # The DP of labelled_period_counts.  Without the factor C(m, s) it counts
    # the unlabelled states a(1..n_max) straight from the block decomposition,
    # independently of the cubic behind the recurrence and the series.
    # totals[r] is A[r] and weighted[r] is B[r].  r = 0 stands for the empty
    # state below a lone block: A[0] = 0 and B[0] = 1 give h[m][m] = 1.
    totals = [0] * (n_max + 1)
    weighted = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        # C(m, s), carried along the row: a fresh math.comb per cell took
        # nearly all of the labelled table's time
        c = 1
        for s in range(1, m + 1):
            h = weighted[m - s] + s * totals[m - s]
            if labelled:
                c = c * (m - s + 1) // s
                h *= c
            totals[m] += h
            weighted[m] += (s - 1) * h
    return totals[1:]


# --- brute-force oracles ---------------------------------------------------
#
# A normalized periodic multiset has minimum 0 and maximum < 2n (the gaps
# between adjacent distinct values are bounded by the block sizes), so a
# scan over values in [0, 2n] is exhaustive.  "Periodic" is decided purely
# dynamically: firing twice must reproduce the input exactly.  The first
# firing maps many candidates to few images (38,760 multisets at n = 7 to
# 4,606), so each scan fires an image through an LRU cache of its step and a
# repeated image fires once while it stays cached.  Only these two oracles
# fire: they look the engine's steps up as attributes of the package when
# they run, which loads the engine then, so the exact counts load this module
# alone and a step replaced in diffusion is the step they call.

UNLABELLED_CAP = 8
LABELLED_CAP = 5

# The cache's size, bounded for RSS.  Over verify's default scans (multisets
# n <= 7, labelled n <= 5) it cuts the 219,602 firings of a cache-free scan
# to 149,337 (141,005 at 1,024 entries), and brute_force_period_multisets(8)
# fires 303,153 times instead of 490,314.  Unbounded, the cache fires
# 126,802 times but holds 9,950 images of K_5 and takes verify's peak RSS
# from 16.2 to 18.7 MB; at 512 entries it stays within 0.1 MB (Python 3.11).
_SECOND_FIRINGS = 512


def _fired_twice_back(
    first: Callable[[tuple[int, ...]], tuple[int, ...]], candidates: Iterable[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """Each candidate c with first(first(c)) == c, in order; the second firing is cached."""
    second = functools.lru_cache(maxsize=_SECOND_FIRINGS)(first)
    return (c for c in candidates if second(first(c)) == c)


def brute_force_period_multisets(n: int) -> list[tuple[int, ...]]:
    """All sorted periodic multisets on n vertices with minimum 0."""
    n = _integer(n, "n", 1)
    if n > UNLABELLED_CAP:
        raise ValueError(f"n={n} exceeds the brute-force cap {UNLABELLED_CAP}")
    tails = itertools.combinations_with_replacement(range(2 * n + 1), n - 1)
    # each candidate is sorted, and so is each image, so both fire as they are
    return list(_fired_twice_back(bp.diffusion._fire_blocks, ((0,) + tail for tail in tails)))


def brute_force_labelled(n: int) -> int:
    """Count normalized periodic stack vectors on n labelled vertices.

    Scans every vector in [0, 2n]^n with minimum 0 and keeps those that the
    generic engine maps back to themselves after two firings.
    """
    n = _integer(n, "n", 1)
    if n > LABELLED_CAP:
        raise ValueError(f"n={n} exceeds the brute-force cap {LABELLED_CAP}")
    vectors = itertools.product(range(2 * n + 1), repeat=n)
    fire = functools.partial(bp.diffusion._fire_raw, bp.graphs.complete(n))
    return sum(1 for _ in _fired_twice_back(fire, (vec for vec in vectors if 0 in vec)))

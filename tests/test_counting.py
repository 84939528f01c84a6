import itertools
import math
import tracemalloc

import pytest

from boardpile.counting import (
    LABELLED_CAP,
    REFERENCE_COUNTS,
    UNLABELLED_CAP,
    _SECOND_FIRINGS,
    _closed_form_coefficient,
    _top_block_counts,
    asymptotic_constant,
    asymptotic_estimate,
    brute_force_labelled,
    brute_force_period_multisets,
    characteristic_roots,
    gf_coefficient,
    gf_coefficients,
    labelled_period_counts,
    recurrence_count,
    recurrence_counts,
)
import boardpile.diffusion as diffusion
from boardpile.polyomino import compositions


# --- oracles: ordered set partitions and the labelled composition sum --------


def multinomial(n, parts):
    """Ways to split n labelled items into ordered blocks of the given sizes."""
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    out = 1
    remaining = n
    for p in parts:
        out *= math.comb(remaining, p)
        remaining -= p
    return out


def reference_labelled_count(n):
    """The labelled count as a sum over all 2^(n-1) compositions (s_1..s_N) of n.

    Each composition contributes the multinomial count of ways to assign
    vertices to the blocks, times the number of admissible gap choices
    prod_{i>=2} (s_{i-1} + s_i - 1); the bottom block has no gap to choose.
    """
    total = 0
    for parts in compositions(n):
        ways = multinomial(n, parts)
        for i in range(1, len(parts)):
            ways *= parts[i - 1] + parts[i] - 1
        total += ways
    return total


def ordered_bell(n):
    """Number of ordered set partitions of an n-set."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(math.comb(m, k) * counts[m - k] for k in range(1, m + 1)))
    return counts[n]


def ordered_set_partitions(items):
    if not items:
        yield ()
        return
    rest, last = items[:-1], items[-1]
    for part in ordered_set_partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + (block | {last},) + part[i + 1 :]
        for i in range(len(part) + 1):
            yield part[:i] + (frozenset({last}),) + part[i:]


# --- recurrence and generating function -------------------------------------


def test_recurrence_first_eleven():
    assert recurrence_counts(11) == list(REFERENCE_COUNTS)


def test_recurrence_single_values():
    assert recurrence_counts(1) == [1]
    assert recurrence_counts(5)[-1] == 5 * 19 - 7 * 6 + 4 * 2 == 61


def test_recurrence_rejects_zero():
    with pytest.raises(ValueError):
        recurrence_counts(0)
    with pytest.raises(ValueError):
        gf_coefficients(0)


def test_gf_first_eleven():
    assert gf_coefficients(11) == list(REFERENCE_COUNTS)


def test_gf_first_coefficient():
    assert gf_coefficients(1) == [1]


def test_gf_equals_recurrence_far_out():
    assert gf_coefficients(50) == recurrence_counts(50)


# --- single counts in O(log n) multiplications --------------------------------


@pytest.mark.parametrize("single", [recurrence_count, gf_coefficient])
def test_single_counts_match_reference(single):
    assert tuple(single(n) for n in range(1, 12)) == REFERENCE_COUNTS


@pytest.mark.parametrize("single,table", [(recurrence_count, recurrence_counts),
                                          (gf_coefficient, gf_coefficients)])
def test_single_counts_match_tables(single, table):
    # 8,500 sits near the 4,300-digit mark, 20,000 well past it
    full = table(20_000)
    for n in [*range(1, 301), 8_500, 20_000]:
        assert single(n) == full[n - 1], n


@pytest.mark.parametrize("single", [recurrence_count, gf_coefficient])
def test_single_counts_reject_zero(single):
    for n in (0, -1):
        with pytest.raises(ValueError):
            single(n)


def test_top_block_count_without_binomials_matches_recurrence():
    # the labelled DP without C(m, s) counts the unlabelled states
    assert _top_block_counts(300, labelled=False) == recurrence_counts(300)


def test_ratio_converges_to_dominant_root():
    counts = recurrence_counts(31)
    for k in range(15, 31):
        ratio = counts[k] / counts[k - 1]  # a_{k+1}/a_k with 1-based indices
        assert 3.19 <= ratio <= 3.22


# --- characteristic roots and asymptotics ------------------------------------


def test_roots_satisfy_cubic():
    for root in characteristic_roots():
        assert abs(((root - 5) * root + 7) * root - 4) < 1e-10


def test_dominant_root_value():
    dominant = characteristic_roots()[0]
    assert abs(dominant - 3.2056) < 1e-4


def test_root_moduli_ordering():
    dominant, a, b = characteristic_roots()
    assert abs(abs(a) - abs(b)) < 1e-12
    assert dominant > abs(a)
    assert abs(abs(a) - 1.1171) < 1e-3
    assert abs(a.real - 0.8972) < 1e-3
    assert abs(abs(a.imag) - 0.6655) < 1e-3
    assert a == b.conjugate()


def test_asymptotic_constant_value():
    assert abs(asymptotic_constant() - 0.1809) < 5e-4


def test_closed_form_reproduces_counts_from_second_term():
    roots = characteristic_roots()
    coeffs = [_closed_form_coefficient(complex(r)) for r in roots]
    counts = recurrence_counts(20)
    for k in range(2, 21):
        value = sum(c * r**k for c, r in zip(coeffs, roots))
        assert abs(value.imag) < 1e-6
        assert abs(value.real - counts[k - 1]) < 1e-6 * counts[k - 1] + 1e-9


def test_asymptotic_estimate_close_to_exact():
    counts = recurrence_counts(30)
    assert abs(asymptotic_estimate(11) - 66441) / 66441 < 0.01
    for k in range(8, 31):
        assert abs(asymptotic_estimate(k) - counts[k - 1]) / counts[k - 1] < 0.01


def test_asymptotic_estimate_rejects_zero():
    with pytest.raises(ValueError):
        asymptotic_estimate(0)


def test_asymptotic_estimate_takes_one():
    # defined from k = 1 on, although a(1) = 1 is the one count the closed
    # form misses; only its sign and size are pinned there
    estimate = asymptotic_estimate(1)
    assert isinstance(estimate, float) and math.isfinite(estimate)
    assert 0.5 < estimate < 0.6


# --- ordered Bell numbers ----------------------------------------------------


def test_ordered_bell_small_values():
    assert ordered_bell(1) == 1
    assert ordered_bell(2) == 3
    assert ordered_bell(3) == 13


def test_ordered_bell_matches_direct_enumeration():
    for n in range(0, 7):
        parts = set(ordered_set_partitions(tuple(range(n))))
        assert ordered_bell(n) == len(parts)


def test_multinomials_over_compositions_sum_to_ordered_bell():
    for n in range(1, 9):
        total = sum(multinomial(n, parts) for parts in compositions(n))
        assert total == ordered_bell(n)


def test_multinomial_checks_part_sum():
    with pytest.raises(ValueError):
        multinomial(4, (1, 2))


# --- labelled counting --------------------------------------------------------


def test_labelled_count_small_values():
    assert labelled_period_counts(4) == [1, 3, 19, 163]


def test_labelled_count_matches_composition_sum():
    for n, count in enumerate(labelled_period_counts(14), start=1):
        assert count == reference_labelled_count(n)


def test_labelled_table_matches_single_counts():
    table = labelled_period_counts(60)
    assert len(table) == 60
    for k in range(1, 61):
        assert table[k - 1] == labelled_period_counts(k)[-1]


def test_labelled_count_pinned_values():
    # n = 20 also from the composition sum, both from an independent transfer-matrix loop
    table = labelled_period_counts(24)
    assert table[19] == 2967469729812361405273579
    assert table[23] == 15568920295794314572713856804199


def test_labelled_count_rejects_zero():
    with pytest.raises(ValueError):
        labelled_period_counts(0)


def test_labelled_count_matches_brute_force():
    for n, count in enumerate(labelled_period_counts(LABELLED_CAP), start=1):
        assert count == brute_force_labelled(n)


def test_brute_force_labelled_k2_vectors():
    # normalized periodic vectors on two labelled vertices
    from boardpile.diffusion import fire
    from boardpile.graphs import complete

    g = complete(2)
    found = {
        vec
        for vec in itertools.product(range(5), repeat=2)
        if 0 in vec and fire(g, fire(g, vec)) == vec
    }
    assert found == {(0, 0), (0, 1), (1, 0)}
    assert brute_force_labelled(2) == 3


# --- brute-force scans ---------------------------------------------------------


def test_brute_force_multisets_k3():
    assert set(brute_force_period_multisets(3)) == {
        (0, 0, 0),
        (0, 0, 1),
        (0, 0, 2),
        (0, 1, 1),
        (0, 2, 2),
        (0, 1, 2),
    }
    assert len(brute_force_period_multisets(3)) == 6


def test_brute_force_counts_match_recurrence():
    counts = recurrence_counts(6)
    for n in range(1, 7):
        assert len(brute_force_period_multisets(n)) == counts[n - 1]


def test_brute_force_caps(monkeypatch):
    scans = [(brute_force_period_multisets, UNLABELLED_CAP), (brute_force_labelled, LABELLED_CAP)]
    for scan, cap in scans:
        with pytest.raises(ValueError, match="cap"):
            scan(cap + 1)
        with pytest.raises(ValueError, match="at least 1"):
            scan(0)
    # just under the cap the scan runs, and agrees with the recurrence
    below = UNLABELLED_CAP - 1
    assert len(brute_force_period_multisets(below)) == recurrence_counts(below)[-1]
    # at the cap it is taken too; the whole scan of n = 8 takes seconds, so
    # its candidates are left out here (count --mode brute --n 8 runs it)
    monkeypatch.setattr(itertools, "combinations_with_replacement", lambda values, k: iter(()))
    assert brute_force_period_multisets(UNLABELLED_CAP) == []


def test_brute_force_multisets_are_normalized_and_sorted():
    for n in range(1, 6):
        for ms in brute_force_period_multisets(n):
            assert ms[0] == 0
            assert ms == tuple(sorted(ms))
            assert max(ms) <= 2 * n


def _plain_multisets(n):
    """The fire-twice scan over sorted multisets with minimum 0, memo-free."""
    from boardpile.diffusion import fire_complete

    tails = itertools.combinations_with_replacement(range(2 * n + 1), n - 1)
    return [ms for ms in ((0,) + tail for tail in tails) if fire_complete(fire_complete(ms)) == ms]


def _plain_labelled(n):
    """The fire-twice count over vectors in [0, 2n]^n with minimum 0, memo-free."""
    from boardpile.diffusion import fire
    from boardpile.graphs import complete

    g = complete(n)
    vectors = itertools.product(range(2 * n + 1), repeat=n)
    return sum(1 for vec in vectors if 0 in vec and fire(g, fire(g, vec)) == vec)


def test_brute_force_scans_match_plain_fire_twice_scans():
    for n in range(1, 7):
        assert brute_force_period_multisets(n) == _plain_multisets(n)
    for n in range(1, 5):
        assert brute_force_labelled(n) == _plain_labelled(n)


def _counted(monkeypatch, name):
    """Replace diffusion's step `name` by a wrapper that counts its calls."""
    step = getattr(diffusion, name)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(diffusion, name, counted)
    return calls


def test_brute_force_scans_fire_a_repeated_image_once(monkeypatch):
    # every candidate is fired once, and its image again only if the cache
    # does not hold that image, so the scans fire under twice a candidate;
    # the unlabelled scan fires sorted multisets as blocks, the labelled one
    # vectors by the edge loop
    blocks = _counted(monkeypatch, "_fire_blocks")
    ranked = _counted(monkeypatch, "_fire_rank")
    raw = _counted(monkeypatch, "_fire_raw")
    brute_force_period_multisets(6)
    candidates = math.comb(3 * 6 - 1, 6 - 1)
    assert candidates <= blocks[0] < 2 * candidates
    assert ranked[0] == raw[0] == 0
    blocks[0] = 0
    brute_force_labelled(4)
    candidates = 9**4 - 8**4
    assert candidates <= raw[0] < 2 * candidates
    assert ranked[0] == blocks[0] == 0


def test_brute_force_memo_is_bounded():
    # With 512 entries the scan peaked at 370 KB under the fire audit and at
    # 210 KB without it, about 410 bytes an entry (two 5-tuples, the cache's
    # link, key and dict slot, and the scan's own work); an unbounded cache
    # holds all 9,950 first images of K_5 and peaked at 2.4 MB without it.
    brute_force_labelled(2)
    tracemalloc.start()
    try:
        brute_force_labelled(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * _SECOND_FIRINGS

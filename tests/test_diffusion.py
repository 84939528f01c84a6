import random
import sys
import tracemalloc
from collections import namedtuple
from itertools import combinations
from operator import ne

import pytest
from hypothesis import example, given, settings, strategies as st

import boardpile.diffusion as diffusion
from boardpile.diffusion import (
    DEFAULT_MAX_STEPS,
    NoRepeatWithinBudget,
    PeriodNotOneOrTwo,
    PeriodReport,
    detect_period,
    fire,
    fire_complete,
    is_period_config,
    normalize,
    run,
)
from boardpile.graphs import Graph, complete, path, star

# Path on five vertices with a preperiod of 3 and a period of 2; the full
# trajectory is pinned down step by step.
P5 = path(5)
P5_START = (0, 2, 0, 4, 1)
P5_TRAJECTORY = [
    (0, 2, 0, 4, 1),
    (1, 0, 2, 2, 2),
    (0, 2, 1, 2, 2),
    (1, 0, 3, 1, 2),
    (0, 2, 1, 3, 1),
    (1, 0, 3, 1, 2),
    (0, 2, 1, 3, 1),
]


@st.composite
def graph_and_stacks(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    stacks = draw(st.lists(st.integers(-10, 10), min_size=n, max_size=n))
    return Graph(n, edges), tuple(stacks)


# --- fire ------------------------------------------------------------------


def test_fire_path5_first_step():
    assert fire(P5, P5_START) == (1, 0, 2, 2, 2)


def test_fire_size_mismatch():
    with pytest.raises(ValueError, match="stacks"):
        fire(P5, (1, 2, 3))


def test_fire_constant_config_is_fixed():
    for g in (P5, complete(4), star(6)):
        assert fire(g, (3,) * g.n) == (3,) * g.n


def test_fire_complete_graph_multiset():
    # on K_5 a vertex at 3 gains from its 4 richer neighbours; each 4 gains
    # from the two 5s and pays the 3; each 5 pays its three poorer neighbours
    assert fire(complete(5), (3, 4, 4, 5, 5)) == (7, 5, 5, 2, 2)


def reference_fire(g, stacks):
    """One step by visiting every edge, whatever the density of g."""
    out = list(stacks)
    for u, v in g.edges:
        su, sv = stacks[u], stacks[v]
        if su > sv:
            out[u] -= 1
            out[v] += 1
        elif sv > su:
            out[v] -= 1
            out[u] += 1
    return tuple(out)


@st.composite
def any_density_graph_and_stacks(draw):
    # the edge count is drawn first, so every density from empty to K_n is as
    # likely as any other; stacks mix ties, negatives and very large values
    n = draw(st.integers(min_value=0, max_value=14))
    pairs = list(combinations(range(n), 2))
    m = draw(st.integers(0, len(pairs)))
    edges = draw(st.permutations(pairs))[:m]
    stack = st.integers(-4, 4) | st.integers(-(10**30), 10**30)
    stacks = draw(st.lists(stack, min_size=n, max_size=n))
    return Graph(n, edges), tuple(stacks)


@settings(deadline=None, max_examples=400)
@given(any_density_graph_and_stacks())
@example((Graph(0), ()))
@example((Graph(1), (-(10**40),)))
@example((complete(6), (3, -1, 3, 0, 10**30, -2)))
def test_fire_matches_edge_loop_at_every_density(gs):
    g, stacks = gs
    expected = reference_fire(g, stacks)
    assert fire(g, stacks) == expected
    # the rule only picks the fastest kernel: every kernel that applies to a
    # graph of any density fires it the same
    assert diffusion._fire_raw(g, stacks) == expected
    assert diffusion._fire_masks(*diffusion._neighbour_masks(g), stacks) == expected
    if len(g.edges) == g.n * (g.n - 1) // 2:
        assert diffusion._fire_rank(stacks) == expected


def dense_start():
    # a seeded G(120, 0.9) start, the shape of the dense benchmark orbits, with
    # a preperiod of 256
    rng = random.Random(0)
    n = 120
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.9])
    return g, tuple(rng.randint(-5, 5) for _ in range(n))


def kernel_of(g):
    return diffusion._kernel(g.n, len(g.edges))


def test_kernel_is_picked_from_n_and_m():
    # K_n with 3n < m fires by rank; masks only where a step on them beats the
    # edge loop and they hold no more memory than the edge tuples
    assert kernel_of(complete(10)) == "rank"
    assert kernel_of(complete(5)) == "edges"
    assert kernel_of(path(100)) == "edges"
    assert kernel_of(Graph(0)) == "edges"
    assert kernel_of(dense_start()[0]) == "masks"
    assert diffusion._kernel(10**4, 5 * 10**4) == "edges"
    # at n = 4272 the memory bound n^2 <= 256 m is the tighter one, and it
    # holds at equality
    assert diffusion._kernel(4272, 4272**2 // 256) == "masks"
    assert diffusion._kernel(4272, 4272**2 // 256 - 1) == "edges"
    # a dense graph's masks hold each neighbour w of u at bits w and n + w
    rng = random.Random(4)
    g = Graph(40, [e for e in combinations(range(40), 2) if rng.random() < 0.9])
    assert kernel_of(g) == "masks"
    masks, degrees = diffusion._neighbour_masks(g)
    for u in range(40):
        neighbours = [w for edge in g.edges if u in edge for w in edge if w != u]
        low = sum(1 << w for w in neighbours)
        assert (masks[u], degrees[u]) == (low | low << 40, len(neighbours))


def test_dense_trajectory_takes_masks_and_matches_edge_loop():
    # fire() takes the edge loop on any graph but K_n
    g, stacks = dense_start()
    assert kernel_of(g) == "masks"
    assert run(g, stacks, 20) == reference_run(g, stacks, 20)


def test_masks_are_built_once_a_trajectory_and_never_for_a_lone_step(monkeypatch):
    g, stacks = dense_start()
    build = diffusion._neighbour_masks
    builds = []
    monkeypatch.setattr(diffusion, "_neighbour_masks", lambda g: builds.append(g) or build(g))
    report = detect_period(g, stacks)
    assert len(builds) == 1
    assert run(g, stacks, 1_000)[-1] in report.period_configs
    assert len(builds) == 2

    def refuse(g):
        raise AssertionError("masks built for a lone step")

    monkeypatch.setattr(diffusion, "_neighbour_masks", refuse)
    assert fire(g, stacks) == reference_fire(g, stacks)
    assert not is_period_config(g, stacks)
    assert is_period_config(g, report.period_configs[0])


# --- fire_complete ---------------------------------------------------------


def test_fire_complete_two_level_example():
    assert fire_complete((0, 0, 4, 4, 4, 4, 4)) == (2, 2, 2, 2, 2, 5, 5)


def test_fire_complete_all_zero_fixed():
    for n in range(1, 8):
        assert fire_complete((0,) * n) == (0,) * n


def test_fire_complete_three_distinct():
    # 0 gains two, 1 stays, 2 loses two: same multiset back
    assert fire_complete((0, 1, 2)) == (0, 1, 2)


def test_fire_complete_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        fire_complete(())


@settings(deadline=None)
@given(st.lists(st.integers(-10, 10), min_size=1, max_size=12), st.randoms())
def test_fire_complete_matches_labelled_fire(values, rng):
    # against the edge loop: fire() on K_n runs the same rank kernel from n = 8
    shuffled = list(values)
    rng.shuffle(shuffled)
    g = complete(len(values))
    assert fire_complete(values) == tuple(sorted(reference_fire(g, shuffled)))


# few small values, so that blocks of equal stacks are common, beside huge ones
block_values = st.integers(-3, 3) | st.integers(-(10**45), 10**45)


@given(st.lists(block_values, min_size=1, max_size=30))
@example([10**40 + 1, 10**40 + 1, -2, 10**40, 0, 0])
def test_fire_blocks_is_the_rank_step_sorted(values):
    ascending = tuple(sorted(values))
    assert diffusion._fire_blocks(ascending) == tuple(sorted(diffusion._fire_rank(ascending)))


# --- orientation -----------------------------------------------------------

Orientation = namedtuple("Orientation", ("arcs", "flat"))


def orientation_of(g, stacks):
    """Each edge of g directed from its richer endpoint to its poorer one:
    (richer, poorer) arcs, and the canonical (u, v) of edges between equal
    stacks as flat, both frozensets.  Chips flow one along each arc."""
    arcs, flat = set(), set()
    for u, v in g.edges:
        if stacks[u] > stacks[v]:
            arcs.add((u, v))
        elif stacks[v] > stacks[u]:
            arcs.add((v, u))
        else:
            flat.add((u, v))
    return Orientation(frozenset(arcs), frozenset(flat))


def test_orientation_path5():
    o = orientation_of(P5, (15, 9, 8, 2, 12))
    assert o.arcs == frozenset({(0, 1), (1, 2), (2, 3), (4, 3)})
    assert o.flat == frozenset()


def test_orientation_constant_all_flat():
    o = orientation_of(P5, (7, 7, 7, 7, 7))
    assert o.arcs == frozenset()
    assert o.flat == frozenset(P5.edges)


def test_orientation_triangle_distinct_values():
    o = orientation_of(complete(3), (0, 1, 2))
    assert o.arcs == frozenset({(1, 0), (2, 0), (2, 1)})
    assert o.flat == frozenset()


@settings(deadline=None)
@given(graph_and_stacks())
def test_orientation_consistent_with_firing(gs):
    # net change at a vertex is exactly arcs in minus arcs out
    g, stacks = gs
    o = orientation_of(g, stacks)
    fired = fire(g, stacks)
    for v in range(g.n):
        gain = sum(1 for _, poor in o.arcs if poor == v)
        loss = sum(1 for rich, _ in o.arcs if rich == v)
        assert fired[v] - stacks[v] == gain - loss
    assert len(o.arcs) + len(o.flat) == len(g.edges)


# --- run -------------------------------------------------------------------


def test_run_reproduces_p5_trajectory():
    assert run(P5, P5_START, 6) == P5_TRAJECTORY


def test_run_zero_steps():
    assert run(P5, P5_START, 0) == [P5_START]


def test_run_negative_steps_rejected(fire_audit):
    # and so is a step count past sys.maxsize, which no list can hold: both
    # before the first firing
    before = fire_audit.calls
    for steps in (-1, sys.maxsize + 1):
        with pytest.raises(ValueError, match="steps must be"):
            run(P5, P5_START, steps)
    assert fire_audit.calls == before


def test_run_refuses_a_step_count_that_is_not_an_integer(fire_audit):
    # named as every other refused input is, before the first firing; a bool
    # is an integer, as it is for a stack
    before = fire_audit.calls
    for steps, shown in ((2.5, "2.5"), ("3", "'3'"), (None, "None")):
        with pytest.raises(ValueError, match=f"^steps {shown} is not an integer$"):
            run(path(3), (0, 1, 2), steps)
    assert fire_audit.calls == before
    assert run(P5, P5_START, True) == P5_TRAJECTORY[:2]


def test_run_composes():
    whole = run(P5, P5_START, 6)
    first = run(P5, P5_START, 2)
    rest = run(P5, first[-1], 4)
    assert whole == first + rest[1:]


def reference_run(g, start, steps):
    """C_0, ..., C_steps by firing every step, C_{t+1} = fire(C_t)."""
    trajectory = [tuple(start)]
    for _ in range(steps):
        trajectory.append(fire(g, trajectory[-1]))
    return trajectory


@settings(deadline=None, max_examples=300)
@given(graph_and_stacks(), st.integers(-3, 3))
@example((path(2), (0, 2)), 0)  # period 1 after one step
@example((path(2), (0, 2)), 4)
@example((P5, P5_START), -1)  # period 2 after three steps
@example((P5, P5_START), 0)
@example((P5, P5_START), 3)
@example((complete(5), (3, 4, 4, 5, 5)), 1)  # period 2 from the start
@example((Graph(0), ()), 2)
def test_run_matches_firing_every_step(gs, offset):
    # steps below, at and past the step preperiod + period that closes the cycle
    g, stacks = gs
    report = reference_detect_period(g, stacks)
    closes = report.preperiod + report.period
    steps = max(0, closes + offset)
    trajectory = run(g, stacks, steps)
    assert trajectory == reference_run(g, stacks, steps)
    # past the close, the tail repeats the cycle's own tuples
    for t in range(closes, steps + 1):
        assert trajectory[t] is trajectory[t - report.period]


def sparse_start(seed, n=300, m=1500):
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < m:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    return Graph(n, sorted(pairs)), tuple(rng.randint(-3, 3) for _ in range(n))


RUN_CASES = [
    (P5, P5_START, 100_000),
    (path(2), (0, 2), 100_000),
    (*sparse_start(0), 1_000),
    (*dense_start(), 1_000),
    (complete(12), (0, 9, 30, 2, 2, 17, 5, 30, 11, 0, 8, 24), 1_000),
]


def test_run_cases_take_every_kernel():
    kernels = [kernel_of(g) for g, _, _ in RUN_CASES]
    assert kernels == ["edges", "edges", "edges", "masks", "rank"]


@pytest.mark.parametrize("g, stacks, steps", RUN_CASES)
def test_run_stops_firing_once_the_cycle_closes(fire_audit, g, stacks, steps):
    # whichever kernel fires it, a trajectory step is one audited call
    report = detect_period(g, stacks)
    closes = report.preperiod + report.period
    assert closes < steps
    before = fire_audit.calls
    trajectory = run(g, stacks, steps)
    assert fire_audit.calls - before == closes
    assert len(trajectory) == steps + 1
    assert trajectory[-1] == report.period_configs[(steps - report.preperiod) % report.period]


@pytest.mark.parametrize("g, stacks, steps", RUN_CASES)
def test_a_budget_short_of_the_close_fires_exactly_that_many_steps(fire_audit, g, stacks, steps):
    # an off-by-one in the budget would fire one step more and drop it, which
    # only the audit sees.  Every k costs k steps, so past 64 steps only both
    # ends and the middle are run: every k of the dense row's 258 took 5.4 s
    # under the audit on a 2-core host, these 0.4 s.
    report = detect_period(g, stacks)
    closes = report.preperiod + report.period
    trajectory = run(g, stacks, closes)
    for k in range(closes) if closes <= 64 else [*range(32), closes // 2, *range(closes - 4, closes)]:
        before = fire_audit.calls
        assert run(g, stacks, k) == trajectory[: k + 1]
        assert fire_audit.calls - before == k
    assert detect_period(g, stacks, closes) == report
    budget = closes - 1
    signal = "no configuration two steps before C_1"
    if budget > 1:
        changed = sum(map(ne, trajectory[budget], trajectory[budget - 2]))
        signal = f"C_{budget} differs from C_{budget - 2} at {changed} vertices"
    exhausted = (
        f"no repeated configuration within {budget} steps "
        f"(n = {g.n}, m = {len(g.edges)}, {budget} steps fired; {signal})"
    )
    before = fire_audit.calls
    with pytest.raises(NoRepeatWithinBudget) as refused:
        detect_period(g, stacks, budget)
    assert str(refused.value) == exhausted
    assert fire_audit.calls - before == budget


@st.composite
def graph_and_two_configs(draw):
    # b keeps some of a's stacks and redraws the rest, so anything from no
    # change to a change at every vertex is drawn
    g, a = draw(graph_and_stacks())
    b = draw(st.tuples(*(st.just(x) | st.integers(-10, 10) for x in a)))
    return g, a, b


@settings(deadline=None, max_examples=400)
@given(graph_and_two_configs())
@example((path(3), (0, 2, 1), (0, 2, 1)))  # nothing changed
@example((P5, P5_START, (1, 0, 2, 2, 2)))  # every vertex changed
@example((path(3), (0, 0, 0), (2, 1, 0)))  # both ends of (0, 1) changed
@example((Graph(3, [(0, 1)]), (0, 5, 9), (4, 5, 1)))  # isolated vertex 2 changed
@example((Graph(1), (10**40,), (-(10**40),)))
def test_fire_delta_corrects_the_earlier_step(gab):
    g, a, b = gab
    neighbours = diffusion._neighbour_lists(g)
    fired_a = diffusion._fire_raw(g, a)
    assert diffusion._fire_delta(g, neighbours, a, fired_a, b) == diffusion._fire_raw(g, b)


def test_sparse_trajectory_fires_by_correction(monkeypatch):
    g, stacks = sparse_start(0)
    report = detect_period(g, stacks)
    closes = report.preperiod + report.period
    corrected = []
    step = diffusion._fire_delta
    monkeypatch.setattr(diffusion, "_fire_delta", lambda *args: corrected.append(1) or step(*args))
    assert run(g, stacks, closes) == reference_run(g, stacks, closes)
    # the first steps change most vertices and are fired in full; the
    # corrections take over as the trajectory settles
    assert 0 < len(corrected) <= closes - 2


def test_a_step_with_a_third_of_the_vertices_changed_is_a_correction(monkeypatch):
    # C_t is a correction exactly when C_{t-1} differs from C_{t-3} at no
    # more than a third of the vertices, a third included
    g, stacks = path(6), (3, 3, -3, -3, -1, -3)
    report = detect_period(g, stacks)
    closes = report.preperiod + report.period
    configs = run(g, stacks, closes)
    changed = [sum(map(ne, configs[t - 1], configs[t - 3])) for t in range(3, closes + 1)]
    assert 2 in changed
    corrected = []
    step = diffusion._fire_delta
    monkeypatch.setattr(diffusion, "_fire_delta", lambda *args: corrected.append(1) or step(*args))
    assert run(g, stacks, closes) == configs
    assert len(corrected) == sum(3 * k <= g.n for k in changed)


def test_dense_trajectory_fires_by_masks(monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense graph fired by correction")

    monkeypatch.setattr(diffusion, "_fire_delta", refuse)
    g, stacks = dense_start()
    assert kernel_of(g) == "masks"
    assert detect_period(g, stacks).preperiod == 256


# --- detect_period ---------------------------------------------------------


def test_detect_period_p5_fixture():
    report = detect_period(P5, P5_START)
    assert report.preperiod == 3
    assert report.period == 2
    assert report.period_configs == ((1, 0, 3, 1, 2), (0, 2, 1, 3, 1))


def test_detect_period_fixed_config():
    report = detect_period(P5, (0, 0, 0, 0, 0))
    assert (report.preperiod, report.period) == (0, 1)
    assert report.period_configs == ((0, 0, 0, 0, 0),)


def test_detect_period_k5_two_cycle():
    report = detect_period(complete(5), (3, 4, 4, 5, 5))
    assert (report.preperiod, report.period) == (0, 2)


def test_detect_period_configs_fire_cyclically():
    report = detect_period(P5, P5_START)
    p = report.period
    for i, cfg in enumerate(report.period_configs):
        assert fire(P5, cfg) == report.period_configs[(i + 1) % p]


def test_detect_period_budget_exhausted():
    # preperiod is 3, so the first repeat appears at step 5
    with pytest.raises(NoRepeatWithinBudget, match="2 steps"):
        detect_period(P5, P5_START, max_steps=2)


def test_budget_error_names_the_graph_and_the_convergence_signal():
    # C_2 = (0, 2, 1, 2, 2) differs from C_0 = (0, 2, 0, 4, 1) at vertices 2, 3, 4
    with pytest.raises(NoRepeatWithinBudget) as exhausted:
        detect_period(P5, P5_START, max_steps=2)
    assert str(exhausted.value) == (
        "no repeated configuration within 2 steps "
        "(n = 5, m = 4, 2 steps fired; C_2 differs from C_0 at 3 vertices)"
    )
    one_step = r"1 steps fired; no configuration two steps before C_1\)$"
    with pytest.raises(NoRepeatWithinBudget, match=one_step):
        detect_period(P5, P5_START, max_steps=1)


def test_detect_period_surfaces_longer_cycles(monkeypatch):
    # substitute a rotation map, whose cycle on this start has length 3
    monkeypatch.setattr(diffusion, "_fire_raw", lambda g, c: c[1:] + c[:1])
    with pytest.raises(PeriodNotOneOrTwo):
        detect_period(complete(3), (0, 1, 2))
    # the same guard covers every trajectory
    with pytest.raises(PeriodNotOneOrTwo, match="cycle length 3"):
        run(complete(3), (0, 1, 2), 100)


def test_detect_period_rejects_bad_budget():
    with pytest.raises(ValueError):
        detect_period(P5, P5_START, max_steps=0)


def test_detect_period_refuses_a_budget_that_is_not_an_integer(fire_audit):
    before = fire_audit.calls
    for max_steps, shown in ((2.5, "2.5"), ("3", "'3'"), (None, "None")):
        # the budget is checked before the stacks
        for stacks in ((0, 1, 2), None):
            with pytest.raises(ValueError, match=f"^max_steps {shown} is not an integer$"):
                detect_period(path(3), stacks, max_steps)
    assert fire_audit.calls == before


def reference_detect_period(g, start, max_steps=DEFAULT_MAX_STEPS):
    """Generic cycle finder: remember every configuration until one repeats.

    The first repeat of a deterministic map pins down both the least
    preperiod and the least period; nothing here relies on cycles having
    length 1 or 2.
    """
    current = tuple(start)
    first_seen = {current: 0}
    trajectory = [current]
    for t in range(1, max_steps + 1):
        current = fire(g, current)
        seen_at = first_seen.get(current)
        if seen_at is not None:
            p = t - seen_at
            if p not in (1, 2):
                raise PeriodNotOneOrTwo(f"cycle length {p}")
            return PeriodReport(seen_at, p, tuple(trajectory[seen_at : seen_at + p]))
        first_seen[current] = t
        trajectory.append(current)
    raise NoRepeatWithinBudget(f"no repeated configuration within {max_steps} steps")


def period_outcome(finder, g, stacks, max_steps):
    try:
        return finder(g, stacks, max_steps)
    except (NoRepeatWithinBudget, PeriodNotOneOrTwo) as exc:
        return type(exc)


@settings(deadline=None, max_examples=300)
@given(graph_and_stacks(), st.integers(1, 12))
def test_detect_period_matches_reference_finder(gs, max_steps):
    g, stacks = gs
    assert period_outcome(detect_period, g, stacks, max_steps) == period_outcome(
        reference_detect_period, g, stacks, max_steps
    )


def test_detect_period_reports_exact_length_of_longer_cycle(monkeypatch):
    # 0 -> 1 -> 2 -> 3 -> ... -> 7 -> 3: a 3-step tail into a 5-cycle
    monkeypatch.setattr(diffusion, "_fire_raw", lambda g, c: (c[0] + 1 if c[0] < 7 else 3,))
    with pytest.raises(PeriodNotOneOrTwo, match="cycle length 5"):
        detect_period(Graph(1), (0,))


def test_detect_period_memory_does_not_grow_with_preperiod():
    # keeping the 256-step preperiod's configurations would hold about 700 KB
    g, stacks = dense_start()
    tracemalloc.start()
    try:
        report = detect_period(g, stacks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.preperiod >= 250
    assert peak < 64 * 1024


# --- normalize -------------------------------------------------------------


def test_normalize_shifts_min_to_zero():
    assert normalize((-1, 1, -2, 1, -1)) == (1, 3, 0, 3, 1)
    assert normalize((0, 3, 1)) == (0, 3, 1)
    assert normalize((4, 4, 4)) == (0, 0, 0)


class Three:
    """An integer-like object that is not an int."""

    def __index__(self):
        return 3


def test_fire_takes_integer_like_stacks_and_refuses_the_rest():
    g = Graph(2, [(0, 1)])
    assert fire(g, [True, Three()]) == (2, 2)
    with pytest.raises(ValueError, match=r"stack 0\.5 is not an integer"):
        fire(g, [0.5, 1.7])
    with pytest.raises(ValueError, match="stack '1' is not an integer"):
        fire(g, [0, "1"])


def test_normalize_takes_integer_like_stacks_and_refuses_the_rest():
    assert normalize([Three(), 5, False]) == (3, 5, 0)
    assert all(type(s) is int for s in normalize([Three(), True]))
    with pytest.raises(ValueError, match=r"stack 2\.9 is not an integer"):
        normalize([1, 2.9])


def test_fire_complete_takes_integer_like_stacks_and_refuses_the_rest():
    assert fire_complete(iter([Three(), True])) == (2, 2)
    with pytest.raises(ValueError, match=r"stack 4\.0 is not an integer"):
        fire_complete(x for x in [3, 4.0, "5"])


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize(())


def test_equivalent_shifted_sequences():
    assert normalize((1, 0, 1, 0, 1)) == normalize((0, -1, 0, -1, 0))
    assert normalize((2, 5)) == normalize((2, 5))
    assert normalize((0, 1)) != normalize((1, 0))


@settings(deadline=None)
@given(st.lists(st.integers(-10, 10), min_size=1, max_size=8), st.integers(-5, 5))
def test_equivalent_under_any_shift(stacks, k):
    assert normalize(stacks) == normalize([s + k for s in stacks])


# --- is_period_config ------------------------------------------------------


def test_is_period_config_examples():
    assert is_period_config(complete(10), (0, 0, 3, 3, 5, 5, 5, 5, 8, 8))
    assert is_period_config(path(4), (2, 2, 2, 2))
    assert is_period_config(star(5), (1, 1, 1, 1, 1))
    assert not is_period_config(complete(2), (0, 3))


def test_is_period_config_size_mismatch():
    with pytest.raises(ValueError, match="stacks"):
        is_period_config(P5, (1, 2, 3))


def test_is_period_config_matches_zero_preperiod():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.6]
        g = Graph(n, edges)
        stacks = tuple(rng.randint(-4, 4) for _ in range(n))
        assert is_period_config(g, stacks) == (detect_period(g, stacks).preperiod == 0)


# --- global structural properties ------------------------------------------


@settings(deadline=None)
@given(graph_and_stacks())
def test_fire_conserves_chips(gs):
    g, stacks = gs
    assert sum(fire(g, stacks)) == sum(stacks)


@settings(deadline=None)
@given(graph_and_stacks(), st.integers(-7, 7))
def test_fire_commutes_with_shifts(gs, k):
    g, stacks = gs
    shifted = tuple(s + k for s in stacks)
    assert fire(g, shifted) == tuple(s + k for s in fire(g, stacks))

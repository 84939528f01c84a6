"""Synchronous chip diffusion on graphs.

At every step each vertex simultaneously hands one chip to every strictly
poorer neighbour and receives one chip from every strictly richer neighbour;
equal neighbours exchange nothing.  Stack sizes may go negative.  Adding a
constant to every stack never changes which chips move, and every trajectory
eventually settles into a cycle of length 1 or 2.  So one loop, _orbit(),
fires every trajectory until C_t equals C_{t-1} or C_{t-2}, holding three
configurations and a checkpoint that raises PeriodNotOneOrTwo on any longer
cycle.  It alone ends a trajectory: with a PeriodReport at the close, or
with NoRepeatWithinBudget past its step budget.  detect_period() runs it
out, and _trajectory() repeats the cycle's tuples after it, so it fires
min(steps, preperiod + period) times: run() lists it, and `boardpile
simulate` streams it in O(n) memory for any step count.

One step on a graph with n vertices and m edges costs O(m) by the edge loop:
every edge is visited.  Along a trajectory, though, C_t - C_{t-2}
goes to zero as the cycle nears, so once at most a third of the vertices
differ from two steps back, _orbit() fires C_{t-1} as a correction of the step
C_{t-3} -> C_{t-2}, in O(n + sum of deg(v) over the vertices v that differ).
_orbit() picks one of three kernels once per trajectory, by _kernel() from n
and m alone, and all give identical results (a lone fire() builds no masks):
- "rank", on K_n with 3n < m, so n >= 8: each vertex moves by how many
  stacks sit above and below its own, O(n log n).  Equal stacks move alike,
  so on a sorted multiset _fire_blocks() moves each block of equal values at
  once: it is the step behind fire_complete(), the unlabelled scan and the
  fire-reflect check.
- "masks", on a graph dense enough that they beat the edge loop: for each
  distinct stack x one 2n-bit mask marks the vertices at or above x once and
  those above x twice.  ANDed with a vertex's neighbour mask, built once per
  trajectory in O(m), the mask of its stack has #richer - #poorer + deg bits
  set.  A step is O(n log n) integer operations on 2n bits.
- "edges" otherwise: the edge loop, and _orbit()'s corrections.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Generator, Iterable, Iterator, Sequence
from functools import partial
from itertools import compress, count, cycle, islice
from operator import add, and_, ne, sub

from . import _integer, _integer_tuple
from .graphs import Graph, _size

Config = tuple[int, ...]

DEFAULT_MAX_STEPS = 10_000


class NoRepeatWithinBudget(RuntimeError):
    """No configuration recurred within the step budget.

    Every trajectory ends in a cycle, but on a correct engine the preperiod
    can still outgrow the budget: it grows with the spread of the stacks, and
    a path with stacks in [-10^6, 10^6] exhausts the default (README).  The
    message names n, m, the steps fired and, as a convergence signal, the
    number of vertices where the last configuration differs from the one two
    steps before; it shrinks to 0 as the trajectory nears its cycle.
    """


class PeriodNotOneOrTwo(RuntimeError):
    """A repeat was found but implies a cycle length outside {1, 2}.

    This can only happen if the engine itself is buggy; it is surfaced
    loudly rather than silently accepted.
    """


PeriodReport = namedtuple("PeriodReport", ("preperiod", "period", "period_configs"))
PeriodReport.__doc__ = """Eventual cycle of a trajectory.

The cycle starts after `preperiod` steps and repeats every `period` steps;
`period_configs` are the cycle members in firing order.  A named tuple, so
it unpacks as (preperiod, period, period_configs).
"""


# --- core firing rule ------------------------------------------------------


def _fire_rank(stacks: Config) -> Config:
    # On K_n a value x with `below` stacks under it and j stacks at or under
    # it gains n - j chips and loses `below`.  Keys enter `moved` in sorted
    # order, so its items run through the distinct values ascending.
    n = len(stacks)
    moved = {x: j for j, x in enumerate(sorted(stacks), 1)}
    below = 0
    for x, j in moved.items():
        moved[x] = x + n - j - below
        below = j
    return tuple(map(moved.__getitem__, stacks))


def _fire_blocks(ascending: Sequence[int]) -> Config:
    # _fire_rank on sorted stacks, sorted: the block ascending[i:j] of value x
    # has i stacks below it and n - j above, so it moves to x + n - j - i and
    # may overtake the blocks above it.  A lone stack is told by its neighbour:
    # a bisect for each made all-distinct stacks slower than _fire_rank.
    n = len(ascending)
    fired = []
    i = 0
    while i < n:
        x = ascending[i]
        j = i + 1
        if j < n and ascending[j] == x:
            j = bisect_right(ascending, x, j)
            fired += [x + n - j - i] * (j - i)
        else:
            fired.append(x + n - j - i)
        i = j
    fired.sort()
    return tuple(fired)


def _kernel(n: int, m: int) -> str:
    """How _orbit() fires a graph on n vertices with m edges: "rank", "masks" or "edges"."""
    # 3n < m leaves K_2..K_7 to the edge loop: measured on Python 3.11 (a
    # step on K_5: 0.87 us by the edge loop, 1.42 by rank; K_7: 1.90 and
    # 1.76; K_8: 2.47 and 2.15; K_10: 3.70 and 2.32), their C(n, 2) edges
    # cost about what rank's sort and dict do
    if m == n * (n - 1) // 2 and 3 * n < m:
        return "rank"
    # Measured on Python 3.11 (README), a mask step costs about as much as the
    # edge loop over n (4.5 + n/500) edges; past n (6 + n/400) masks win at
    # every size measured.  They hold about n^2/4 bytes against 64 an edge
    # tuple, and past n = 4,300 that bound is the tighter one.
    if 400 * m > n * (2400 + n) and n * n <= 256 * m:
        return "masks"
    return "edges"


def _neighbour_masks(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per vertex u of g, a mask with bits w and n + w set for each neighbour w, and deg(u)."""
    n = g.n
    rows = [0] * n
    for u, v in g.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple([row | row << n for row in rows]), tuple(map(int.bit_count, rows))


def _fire_masks(masks: Sequence[int], degrees: Sequence[int], stacks: Config) -> Config:
    # level[x] has bit w set for each vertex w at or above x, and bit n + w
    # for each one above it.  Its keys run through the distinct stacks from
    # the largest down, each first holding the vertices at it.
    n = len(stacks)
    level = dict.fromkeys(sorted(set(stacks), reverse=True), 0)
    for w, x in enumerate(stacks):
        level[x] |= 1 << w
    above = 0
    for x, at in level.items():
        at_or_above = above | at
        level[x] = at_or_above | above << n
        above = at_or_above
    # masks[u] & level[s_u] counts u's neighbours at or above s_u once and
    # those above it once more, 2 #richer + #equal, so less deg(u) it is
    # #richer - #poorer
    gains = map(int.bit_count, map(and_, masks, map(level.__getitem__, stacks)))
    return tuple(map(sub, map(add, stacks, gains), degrees))


def _fire_raw(g: Graph, stacks: Config) -> Config:
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


def _neighbour_lists(g: Graph) -> list[tuple[int, ...]]:
    neighbours: list = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    # a tuple holds a vertex's neighbours in less memory than a grown list
    for v, listed in enumerate(neighbours):
        neighbours[v] = tuple(listed)
    return neighbours


def _fire_delta(
    g: Graph,
    neighbours: list[tuple[int, ...]],
    earlier: Config,
    earlier_fired: Config,
    stacks: Config,
) -> Config:
    # fire(stacks), given earlier_fired = fire(earlier).  An edge whose two
    # ends hold the stacks they held in `earlier` passes the same chip again,
    # so each vertex starts from earlier_fired plus its own change, and only
    # the edges at a changed vertex are decided again: each once, from its
    # changed end with the lower number when both ends changed.
    out = list(earlier_fired)
    for u in compress(range(g.n), map(ne, stacks, earlier)):
        su, eu = stacks[u], earlier[u]
        out[u] += su - eu
        for w in neighbours[u]:
            sw, ew = stacks[w], earlier[w]
            if w < u and sw != ew:
                continue
            # chips into u along (u, w) now, less those it passed before
            d = (sw > su) - (su > sw) - (ew > eu) + (eu > ew)
            if d:
                out[u] += d
                out[w] -= d
    return tuple(out)


def _config_on(g: Graph, stacks: Sequence[int]) -> Config:
    c = _integer_tuple(stacks, "stack")
    if len(c) != g.n:
        raise ValueError(f"configuration has {len(c)} stacks for a graph on {g.n} vertices")
    return c


def fire(g: Graph, stacks: Sequence[int]) -> Config:
    """Apply one synchronous firing step to a configuration on g.

    Every vertex gains one chip per strictly richer neighbour and loses one
    per strictly poorer neighbour.  The total number of chips is conserved.
    Costs O(n log n) on K_n with n >= 8, by rank, and O(m) on any other
    graph, K_2 to K_7 included, by the edge loop.  A trajectory may fire a
    dense graph faster, by neighbour masks, since it builds them once for all
    its steps (see _orbit()).
    """
    c = _config_on(g, stacks)
    return _fire_rank(c) if _kernel(g.n, _size(g)) == "rank" else _fire_raw(g, c)


def fire_complete(multiset: Iterable[int]) -> Config:
    """Fire a complete-graph configuration given as a multiset of stacks.

    Returns the sorted multiset after one step; equals sorting the result of
    fire() on K_n for any labelling of the input.  Sorts the input, then moves
    each block of equal stacks at once, O(n log n).
    """
    values = _integer_tuple(multiset, "stack")
    if not values:
        raise ValueError("empty multiset")
    return _fire_blocks(sorted(values))


def _orbit(g: Graph, start: Config, budget: int) -> Generator[Config, None, PeriodReport]:
    """Yield C_0, C_1, ... from the configuration `start` until the cycle closes.

    At the first t with C_t = C_{t-1} or C_t = C_{t-2}, return the cycle's
    PeriodReport instead of C_t, and raise NoRepeatWithinBudget rather than
    fire a step t > budget.  Holds three configurations, C_{t-3}, C_{t-2} and
    C_{t-1}, and a checkpoint moved at steps 1, 2, 4, 8, ... (Brent's cycle
    finder), which catches any longer cycle: PeriodNotOneOrTwo.

    The kernel is picked once, by _kernel(), before the first step, and a
    masks graph's neighbour masks are built then.  On a graph fired by the
    edge loop, C_t is fired as a correction of C_{t-2} = fire(C_{t-3}) once
    C_{t-1} differs from C_{t-3} at no more than a third of the vertices.
    That step visits the sum of deg(v) over those vertices, against all m
    edges for a full step.  On 10,000-vertex graphs of mean degree 10 it is
    1.26-1.45 times slower at 41% of the vertices, about even at 29% and
    faster below (README).  The neighbour lists it reads are built on the
    first such step.
    """
    yield start
    kernel = _kernel(g.n, _size(g))
    if kernel == "rank":
        step = _fire_rank
    elif kernel == "masks":
        step = partial(_fire_masks, *_neighbour_masks(g))
    else:
        step = partial(_fire_raw, g)
    neighbours = None
    oldest, older, previous = None, None, start
    checkpoint, checkpoint_t = start, 0
    for t in count(1):
        if t > budget:
            signal = "no configuration two steps before C_1"
            if oldest is not None:
                changed = sum(map(ne, previous, oldest))
                signal = f"C_{budget} differs from C_{budget - 2} at {changed} vertices"
            raise NoRepeatWithinBudget(
                f"no repeated configuration within {budget} steps "
                f"(n = {g.n}, m = {_size(g)}, {budget} steps fired; {signal})"
            )
        if kernel == "edges" and oldest is not None and 3 * sum(map(ne, previous, oldest)) <= g.n:
            if neighbours is None:
                neighbours = _neighbour_lists(g)
            current = _fire_delta(g, neighbours, oldest, older, previous)
        else:
            current = step(previous)
        if current == previous:
            return PeriodReport(t - 1, 1, (previous,))
        if current == older:
            return PeriodReport(t - 2, 2, (older, previous))
        if current == checkpoint:
            raise PeriodNotOneOrTwo(
                f"configuration repeated with cycle length {t - checkpoint_t}; "
                "the firing rule admits only 1 or 2"
            )
        if t & (t - 1) == 0:
            checkpoint, checkpoint_t = current, t
        yield current
        oldest, older, previous = older, previous, current


def _trajectory(g: Graph, start: Config, steps: int) -> Iterator[Config]:
    """Yield C_0, ..., C_steps: fired up to the close, then the cycle's tuples repeated."""
    try:
        report = yield from _orbit(g, start, steps)
    except NoRepeatWithinBudget:
        return
    yield from islice(cycle(report.period_configs), steps + 1 - report.preperiod - report.period)


def run(g: Graph, start: Sequence[int], steps: int) -> list[Config]:
    """Trajectory [C_0, C_1, ..., C_steps] from the given start.

    Fires min(steps, preperiod + period) times.  Once C_t equals C_{t-1}
    (period 1) or C_{t-2} (period 2) the cycle has closed: C_t and every
    later entry are the cycle's own tuples repeated, one list slot per step.
    Raises ValueError unless steps is an integer with 0 <= steps <= sys.maxsize,
    and PeriodNotOneOrTwo if the trajectory reaches a longer cycle.
    """
    steps = _integer(steps, "steps")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps > sys.maxsize:
        raise ValueError(f"steps must be at most sys.maxsize = {sys.maxsize}")
    return list(_trajectory(g, _config_on(g, start), steps))


def detect_period(g: Graph, start: Sequence[int], max_steps: int = DEFAULT_MAX_STEPS) -> PeriodReport:
    """Find the eventual cycle of the trajectory from `start`.

    Cycles have length 1 or 2, so the least preperiod is the first t with
    C_{t+1} = C_t (period 1) or else C_{t+2} = C_t (period 2).  Runs _orbit()
    out with max_steps as its budget, in O(n) memory: NoRepeatWithinBudget
    if nothing repeats within max_steps firings, and PeriodNotOneOrTwo with
    its length if the trajectory reaches a longer cycle.
    """
    max_steps = _integer(max_steps, "max_steps", 1)
    orbit = _orbit(g, _config_on(g, start), max_steps)
    try:
        while True:
            next(orbit)
    except StopIteration as closed:
        return closed.value


def normalize(stacks: Sequence[int]) -> Config:
    """Shift all stacks so the minimum becomes 0."""
    c = _integer_tuple(stacks, "stack")
    if not c:
        raise ValueError("empty configuration")
    lo = min(c)
    return tuple(s - lo for s in c)


def is_period_config(g: Graph, stacks: Sequence[int]) -> bool:
    """True iff the configuration lies inside its own eventual cycle.

    Cycles have length 1 or 2, so membership is equivalent to firing twice
    returning the configuration exactly.
    """
    c = _config_on(g, stacks)
    return fire(g, fire(g, c)) == c


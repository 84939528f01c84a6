"""Synchronous chip diffusion on graphs.

At every step each vertex simultaneously hands one chip to every strictly
poorer neighbour and receives one chip from every strictly richer neighbour;
equal neighbours exchange nothing.  Stack sizes may go negative.  Adding a
constant to every stack never changes which chips move, and every trajectory
eventually settles into a cycle of length 1 or 2.  So one loop, _orbit(),
fires every trajectory until C_t equals C_{t-1} or C_{t-2}, holding three
configurations and a checkpoint that raises PeriodNotOneOrTwo on any longer
cycle.  run() fires min(steps, preperiod + period) times and repeats the
cycle's tuples after the close, detect_period() puts a step budget around the
loop, and `boardpile simulate` streams it in O(n) memory for any step count.

One step on a graph with n vertices and m edges costs O(m) when the graph
is sparse: every edge is visited.  Along a trajectory, though, C_t - C_{t-2}
goes to zero as the cycle nears, so once at most half the vertices differ
from two steps back, _orbit() fires C_{t-1} as a correction of the step
C_{t-3} -> C_{t-2}, in O(n + sum of deg(v) over the vertices v that differ).
When C(n,2) - m + 3n < m the graph stores its missing pairs
(Graph.missing_pairs) and a step costs O(n log n + C(n,2) - m): each vertex
moves as it would on K_n, which depends only on how many stacks sit above
and below its own, and then the exchanges across the missing pairs are taken
back.  All paths give identical results.  That K_n step by rank is written
once: fire_complete() is the same step on a multiset, sorted afterwards.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Generator, Iterable, Sequence
from itertools import compress, count, cycle, islice
from operator import ne

from .graphs import Graph

Config = tuple[int, ...]

DEFAULT_MAX_STEPS = 10_000


class NoRepeatWithinBudget(RuntimeError):
    """No configuration recurred within the step budget.

    Eventual periodicity is guaranteed, so hitting this means either the
    budget was set pathologically low or the engine is broken.  The message
    names n, m, the steps fired and, as a convergence signal, the number of
    vertices where the last configuration differs from the one two steps
    before; it shrinks to 0 as the trajectory nears its cycle.
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


Orientation = namedtuple("Orientation", ("arcs", "flat"))
Orientation.__doc__ = """Edge directions induced by a configuration.

arcs holds (richer, poorer) pairs; flat holds the canonical (u, v), u < v,
pairs whose endpoints have equal stacks.  Both are frozensets.
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


def _fire_raw(g: Graph, stacks: Config) -> Config:
    missing = g.missing_pairs
    if missing is None:
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
    # a K_n step, then undo the chip it passed across each pair g lacks
    out = list(_fire_rank(stacks))
    for u, v in missing:
        su, sv = stacks[u], stacks[v]
        if su > sv:
            out[u] += 1
            out[v] -= 1
        elif sv > su:
            out[v] += 1
            out[u] -= 1
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
    c = tuple(map(int, stacks))
    if len(c) != g.n:
        raise ValueError(f"configuration has {len(c)} stacks for a graph on {g.n} vertices")
    return c


def fire(g: Graph, stacks: Sequence[int]) -> Config:
    """Apply one synchronous firing step to a configuration on g.

    Every vertex gains one chip per strictly richer neighbour and loses one
    per strictly poorer neighbour.  The total number of chips is conserved.
    Costs O(m) on a sparse graph and O(n log n + C(n,2) - m) on a dense one
    (C(n,2) - m + 3n < m, see Graph.missing_pairs), with identical results.
    """
    return _fire_raw(g, _config_on(g, stacks))


def fire_complete(multiset: Iterable[int]) -> Config:
    """Fire a complete-graph configuration given as a multiset of stacks.

    Returns the sorted multiset after one step; equals sorting the result of
    fire() on K_n for any labelling of the input.
    """
    values = tuple(map(int, multiset))
    if not values:
        raise ValueError("empty multiset")
    return tuple(sorted(_fire_rank(values)))


def orientation_of(g: Graph, stacks: Sequence[int]) -> Orientation:
    """Direct each edge from its richer endpoint to its poorer one.

    Edges between equal stacks are left flat.  Chips flow along exactly the
    arcs of this orientation, one chip per arc.
    """
    c = _config_on(g, stacks)
    arcs: set[tuple[int, int]] = set()
    flat: set[tuple[int, int]] = set()
    for u, v in g.edges:
        if c[u] > c[v]:
            arcs.add((u, v))
        elif c[v] > c[u]:
            arcs.add((v, u))
        else:
            flat.add((u, v))
    return Orientation(frozenset(arcs), frozenset(flat))


def _orbit(g: Graph, start: Config) -> Generator[Config, None, tuple[Config, ...]]:
    """Yield C_0, C_1, ... from the configuration `start` until the cycle closes.

    At the first t with C_t = C_{t-1} or C_t = C_{t-2}, return the cycle's
    members as yielded, in firing order, instead of C_t.  Holds three
    configurations, C_{t-3}, C_{t-2} and C_{t-1}, and a checkpoint moved at
    steps 1, 2, 4, 8, ... (Brent's cycle finder), which catches any longer
    cycle: PeriodNotOneOrTwo.

    On a sparse graph C_t is fired as a correction of C_{t-2} = fire(C_{t-3})
    once C_{t-1} differs from C_{t-3} at no more than half the vertices.  That
    step visits the sum of deg(v) over those vertices, against all m edges
    for a full step, and at half the vertices the two are about even.  The
    neighbour lists it reads are built on the first such step.
    """
    sparse = g.missing_pairs is None
    neighbours = None
    oldest, older, previous = None, None, start
    checkpoint, checkpoint_t = start, 0
    yield start
    for t in count(1):
        if sparse and oldest is not None and 2 * sum(map(ne, previous, oldest)) <= g.n:
            if neighbours is None:
                neighbours = _neighbour_lists(g)
            current = _fire_delta(g, neighbours, oldest, older, previous)
        else:
            current = _fire_raw(g, previous)
        if current == previous:
            return (previous,)
        if current == older:
            return (older, previous)
        if current == checkpoint:
            raise PeriodNotOneOrTwo(
                f"configuration repeated with cycle length {t - checkpoint_t}; "
                "the firing rule admits only 1 or 2"
            )
        if t & (t - 1) == 0:
            checkpoint, checkpoint_t = current, t
        yield current
        oldest, older, previous = older, previous, current


def run(g: Graph, start: Sequence[int], steps: int) -> list[Config]:
    """Trajectory [C_0, C_1, ..., C_steps] from the given start.

    Fires min(steps, preperiod + period) times.  Once C_t equals C_{t-1}
    (period 1) or C_{t-2} (period 2) the cycle has closed: C_t and every
    later entry are the cycle's own tuples repeated, one list slot per step.
    Raises PeriodNotOneOrTwo if the trajectory reaches a longer cycle.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    orbit = _orbit(g, _config_on(g, start))
    trajectory: list[Config] = []
    try:
        while len(trajectory) <= steps:
            trajectory.append(next(orbit))
    except StopIteration as closed:
        trajectory.extend(islice(cycle(closed.value), steps + 1 - len(trajectory)))
    return trajectory


def detect_period(g: Graph, start: Sequence[int], max_steps: int = DEFAULT_MAX_STEPS) -> PeriodReport:
    """Find the eventual cycle of the trajectory from `start`.

    Cycles have length 1 or 2, so the least preperiod is the first t with
    C_{t+1} = C_t (period 1) or else C_{t+2} = C_t (period 2); only the last
    three configurations are held, O(n) memory.  Raises NoRepeatWithinBudget
    if nothing repeats within max_steps firings, and PeriodNotOneOrTwo with
    its length if the trajectory reaches a longer cycle.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    orbit = _orbit(g, _config_on(g, start))
    last = deque(maxlen=3)  # C_{t-2}, C_{t-1}, C_t
    # taking C_t costs the t-th firing; the one that closes the cycle stops it
    for t in range(max_steps + 1):
        try:
            last.append(next(orbit))
        except StopIteration as closed:
            members = closed.value
            return PeriodReport(t - len(members), len(members), members)
    if len(last) == 3:
        changed = sum(map(ne, last[2], last[0]))
        signal = f"C_{max_steps} differs from C_{max_steps - 2} at {changed} vertices"
    else:
        signal = "no configuration two steps before C_1"
    raise NoRepeatWithinBudget(
        f"no repeated configuration within {max_steps} steps "
        f"(n = {g.n}, m = {len(g.edges)}, {max_steps} steps fired; {signal})"
    )


def normalize(stacks: Sequence[int]) -> Config:
    """Shift all stacks so the minimum becomes 0."""
    c = tuple(map(int, stacks))
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
    return _fire_raw(g, _fire_raw(g, c)) == c


"""Synchronous chip diffusion on graphs.

At every step each vertex simultaneously hands one chip to every strictly
poorer neighbour and receives one chip from every strictly richer neighbour;
equal neighbours exchange nothing.  Stack sizes may go negative.  Adding a
constant to every stack never changes which chips move, and every trajectory
eventually settles into a cycle of length 1 or 2.  So run() fires
min(steps, preperiod + period) times: once the cycle has closed, every later
configuration repeats one of its tuples.

One step on a graph with n vertices and m edges costs O(m) when the graph
is sparse: every edge is visited.  When C(n,2) - m + 3n < m the graph
stores its missing pairs (Graph.missing_pairs) and a step costs
O(n log n + C(n,2) - m): each vertex moves as it would on K_n, which depends
only on how many stacks sit above and below its own, and then the exchanges
across the missing pairs are taken back.  Both paths give identical results.
That K_n step by rank is written once: fire_complete() is the same step on a
multiset, sorted afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, islice
from typing import Iterable, NamedTuple, Sequence

from .graphs import Graph

Config = tuple[int, ...]

DEFAULT_MAX_STEPS = 10_000


class NoRepeatWithinBudget(RuntimeError):
    """No configuration recurred within the step budget.

    Eventual periodicity is guaranteed, so hitting this means either the
    budget was set pathologically low or the engine is broken.
    """


class PeriodNotOneOrTwo(RuntimeError):
    """A repeat was found but implies a cycle length outside {1, 2}.

    This can only happen if the engine itself is buggy; it is surfaced
    loudly rather than silently accepted.
    """


@dataclass(frozen=True)
class PeriodReport:
    """Eventual cycle of a trajectory: starts after `preperiod` steps and
    repeats every `period` steps; `period_configs` are the cycle members in
    firing order."""

    preperiod: int
    period: int
    period_configs: tuple[Config, ...]


class Orientation(NamedTuple):
    """Edge directions induced by a configuration.

    arcs holds (richer, poorer) pairs; flat holds the canonical (u, v),
    u < v, pairs whose endpoints have equal stacks.
    """

    arcs: frozenset[tuple[int, int]]
    flat: frozenset[tuple[int, int]]


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


def run(g: Graph, start: Sequence[int], steps: int) -> list[Config]:
    """Trajectory [C_0, C_1, ..., C_steps] from the given start.

    Fires min(steps, preperiod + period) times.  Once C_t equals C_{t-1}
    (period 1) or C_{t-2} (period 2) the cycle has closed: C_t and every
    later entry are the cycle's own tuples repeated, one list slot per step.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    trajectory = [_config_on(g, start)]
    for t in range(1, steps + 1):
        current = _fire_raw(g, trajectory[-1])
        if current == trajectory[-1]:
            members = trajectory[-1:]
        elif t > 1 and current == trajectory[-2]:
            members = trajectory[-2:]
        else:
            trajectory.append(current)
            continue
        trajectory.extend(islice(cycle(members), steps + 1 - t))
        break
    return trajectory


def detect_period(g: Graph, start: Sequence[int], max_steps: int = DEFAULT_MAX_STEPS) -> PeriodReport:
    """Find the eventual cycle of the trajectory from `start`.

    Cycles have length 1 or 2, so the least preperiod is the first t with
    C_{t+1} = C_t (period 1) or else C_{t+2} = C_t (period 2); only the last
    two configurations are held, O(n) memory.  Raises NoRepeatWithinBudget
    if nothing repeats within max_steps firings.  A checkpoint moved at steps
    1, 2, 4, 8, ... (Brent's cycle finder) guards against a broken engine: it
    catches any longer cycle and raises PeriodNotOneOrTwo with its length.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    before, previous = None, _config_on(g, start)
    checkpoint, checkpoint_t = previous, 0
    for t in range(1, max_steps + 1):
        current = _fire_raw(g, previous)
        if current == previous:
            return PeriodReport(preperiod=t - 1, period=1, period_configs=(current,))
        if current == before:
            return PeriodReport(preperiod=t - 2, period=2, period_configs=(before, previous))
        if current == checkpoint:
            raise PeriodNotOneOrTwo(
                f"configuration repeated with cycle length {t - checkpoint_t}; "
                "the firing rule admits only 1 or 2"
            )
        if t & (t - 1) == 0:
            checkpoint, checkpoint_t = current, t
        before, previous = previous, current
    raise NoRepeatWithinBudget(f"no repeated configuration within {max_steps} steps")


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


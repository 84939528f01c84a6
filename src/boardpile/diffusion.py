"""Synchronous chip diffusion on graphs.

At every step each vertex simultaneously hands one chip to every strictly
poorer neighbour and receives one chip from every strictly richer neighbour;
equal neighbours exchange nothing.  Stack sizes may go negative.  Adding a
constant to every stack never changes which chips move, and every trajectory
eventually settles into a cycle of length 1 or 2.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _fire_sorted_raw(values: Config) -> Config:
    # values ascending; on a complete graph a vertex's change depends only on
    # how many values sit strictly above and below its own.
    n = len(values)
    out: list[int] = []
    i = 0
    while i < n:
        j = i
        while j < n and values[j] == values[i]:
            j += 1
        out.extend([values[i] + (n - j) - i] * (j - i))
        i = j
    out.sort()
    return tuple(out)


def _config_on(g: Graph, stacks: Sequence[int]) -> Config:
    c = tuple(int(s) for s in stacks)
    if len(c) != g.n:
        raise ValueError(f"configuration has {len(c)} stacks for a graph on {g.n} vertices")
    return c


def fire(g: Graph, stacks: Sequence[int]) -> Config:
    """Apply one synchronous firing step to a configuration on g.

    Every vertex gains one chip per strictly richer neighbour and loses one
    per strictly poorer neighbour.  The total number of chips is conserved.
    """
    return _fire_raw(g, _config_on(g, stacks))


def fire_complete(multiset: Iterable[int]) -> Config:
    """Fire a complete-graph configuration given as a multiset of stacks.

    Returns the sorted multiset after one step; equals sorting the result of
    fire() on K_n for any labelling of the input.
    """
    values = tuple(sorted(int(v) for v in multiset))
    if not values:
        raise ValueError("empty multiset")
    return _fire_sorted_raw(values)


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
    """Trajectory [C_0, C_1, ..., C_steps] from the given start."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    current = _config_on(g, start)
    trajectory = [current]
    for _ in range(steps):
        current = fire(g, current)
        trajectory.append(current)
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
        current = fire(g, previous)
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
    c = tuple(int(s) for s in stacks)
    if not c:
        raise ValueError("empty configuration")
    lo = min(c)
    return tuple(s - lo for s in c)


def equivalent(c: Sequence[int], d: Sequence[int]) -> bool:
    """True iff d is c plus one constant on every stack."""
    if len(c) != len(d):
        raise ValueError(f"length mismatch: {len(c)} vs {len(d)}")
    return normalize(c) == normalize(d)


def is_period_config(g: Graph, stacks: Sequence[int]) -> bool:
    """True iff the configuration lies inside its own eventual cycle.

    Cycles have length 1 or 2, so membership is equivalent to firing twice
    returning the configuration exactly.
    """
    c = tuple(int(s) for s in stacks)
    return fire(g, fire(g, c)) == c


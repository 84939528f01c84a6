"""Reference answers the benchmark checks the program's outputs against.

Everything here is written independently of the boardpile package: the
counts come from a plain recurrence loop and from a transfer-matrix sum over
the size of the top strip, and the dynamics come from firing loops that do
not share the package's graph model.  Nothing here runs inside a timed
region.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the int <-> str digit limit for the benchmark's own arithmetic.

    The previous limit is restored on exit, so in-process runs of the
    program see the interpreter's default limit, exactly as the CLI does.
    """
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


# --- counts ------------------------------------------------------------------


def unlabelled_counts(n_max: int) -> list[int]:
    """[a(0), a(1), ..., a(n_max)] with a(0) = 0, by the three-term recurrence."""
    a = [0, 1, 2, 6, 19][: n_max + 1]
    for n in range(len(a), n_max + 1):
        a.append(5 * a[n - 1] - 7 * a[n - 2] + 4 * a[n - 3])
    return a


def transfer_matrix_counts(n_max: int, labelled: bool) -> list[int]:
    """[c(0), ..., c(n_max)] by summing over the size of the top strip.

    h[m][s] counts strip stacks of m cells whose top strip has s cells:
    appending a strip of s cells on a top strip of t cells leaves t + s - 1
    offsets, and the labelled count also chooses which s of the m vertices
    sit on the new top level.
    """
    h = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    for m in range(1, n_max + 1):
        h[m][m] = 1
        for s in range(1, m):
            below = sum(h[m - s][t] * (t + s - 1) for t in range(1, m - s + 1))
            h[m][s] = below * math.comb(m, s) if labelled else below
    return [0] + [sum(h[m]) for m in range(1, n_max + 1)]


def cross_checked_counts(n_max: int) -> list[int]:
    """a(0..n_max), with the recurrence confirmed by the transfer matrix."""
    a = unlabelled_counts(n_max)
    small = min(n_max, 60)
    if transfer_matrix_counts(small, labelled=False) != a[: small + 1]:
        raise AssertionError("reference recurrence disagrees with the transfer matrix")
    return a


# --- dynamics ----------------------------------------------------------------


def edge_stepper(n: int, edges: list[list[int]]):
    """One firing step by a loop over flat endpoint lists; suits sparse graphs."""
    us = [u for u, _ in edges]
    vs = [v for _, v in edges]
    pairs = list(zip(us, vs))

    def step(stacks: tuple[int, ...]) -> tuple[int, ...]:
        out = list(stacks)
        for u, v in pairs:
            a = stacks[u]
            b = stacks[v]
            if a > b:
                out[u] -= 1
                out[v] += 1
            elif b > a:
                out[v] -= 1
                out[u] += 1
        return tuple(out)

    return step


def bitset_stepper(n: int, edges: list[list[int]]):
    """One firing step with neighbourhoods as integer bit masks; suits dense graphs.

    A vertex gains one chip per richer neighbour and loses one per poorer
    neighbour, so its change is popcount(N & richer) - popcount(N & poorer).
    """
    adjacency = [0] * n
    for u, v in edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u

    def step(stacks: tuple[int, ...]) -> tuple[int, ...]:
        level: dict[int, int] = {}
        for vertex, value in enumerate(stacks):
            level[value] = level.get(value, 0) | (1 << vertex)
        poorer: dict[int, int] = {}
        seen = 0
        for value in sorted(level):
            poorer[value] = seen
            seen |= level[value]
        out = []
        for vertex, value in enumerate(stacks):
            mask = adjacency[vertex]
            below = poorer[value]
            above = seen & ~(below | level[value])
            out.append(value + (mask & above).bit_count() - (mask & below).bit_count())
        return tuple(out)

    return step


def stepper(n: int, edges: list[list[int]]):
    """The faster reference stepper for this graph's density."""
    dense = 2 * len(edges) >= 32 * n
    return bitset_stepper(n, edges) if dense else edge_stepper(n, edges)


def trajectory(step, start: tuple[int, ...], steps: int) -> list[tuple[int, ...]]:
    rows = [start]
    for _ in range(steps):
        rows.append(step(rows[-1]))
    return rows


def eventual_cycle(step, start: tuple[int, ...], budget: int = 100_000) -> dict:
    """Least preperiod, period and cycle of a trajectory, in O(n) memory.

    Cycles have length 1 or 2, so C_t lies on the cycle exactly when
    C_{t+2} = C_t; the first such t is the least preperiod.
    """
    c0 = start
    c1 = step(c0)
    c2 = step(c1)
    t = 0
    while c2 != c0:
        if t >= budget:
            raise AssertionError(f"reference trajectory did not cycle within {budget} steps")
        c0, c1, c2 = c1, c2, step(c2)
        t += 1
    cycle = (c0,) if c1 == c0 else (c0, c1)
    return {"preperiod": t, "period": len(cycle), "configs": [list(c) for c in cycle]}


# --- output checks -------------------------------------------------------------
#
# Each check takes the program's stdout and returns None when it is right, or
# a one-line description of the first disagreement.


def _last_line(out: bytes) -> str:
    lines = out.decode("utf-8").strip().splitlines()
    return lines[-1] if lines else ""


def check_verify(out: bytes, params: dict) -> str | None:
    summary = json.loads(_last_line(out))
    if summary.get("ok") is not True:
        return f"verify summary not ok: {summary}"
    if not summary.get("checks") or not all(v is True for v in summary["checks"].values()):
        return f"verify checks failed: {summary.get('checks')}"
    if summary.get("params") != params:
        return f"verify ran with {summary.get('params')}, expected {params}"
    return None


def check_count_only(out: bytes, expected: int) -> str | None:
    got = int(out.decode("utf-8").strip())
    return None if got == expected else f"count {got}, expected {expected}"


def check_count_one(out: bytes, n: int, expected: int) -> str | None:
    doc = json.loads(_last_line(out))
    with unlimited_int_digits():
        want = str(expected)
    if doc.get("n") != n or doc.get("count") != want:
        return f"count document for n={doc.get('n')} differs from a({n}) ({len(want)} digits)"
    return None


def check_count_table(out: bytes, expected: list[int]) -> str | None:
    lines = out.decode("utf-8").strip().splitlines()
    if not lines or lines[0] != "n,count":
        return "count table has no 'n,count' header"
    if len(lines) != len(expected):  # header line <-> unused a(0)
        return f"count table has {len(lines) - 1} rows, expected {len(expected) - 1}"
    with unlimited_int_digits():
        for k, line in enumerate(lines[1:], start=1):
            if line != f"{k},{expected[k]}":
                return f"count table row {k} differs"
    return None


def check_period(out: bytes, expected: dict) -> str | None:
    doc = json.loads(out)
    for key in ("preperiod", "period", "configs"):
        if doc.get(key) is None:
            return f"period document missing {key!r}"
    if doc["preperiod"] != expected["preperiod"] or doc["period"] != expected["period"]:
        return (
            f"preperiod/period {doc['preperiod']}/{doc['period']}, "
            f"expected {expected['preperiod']}/{expected['period']}"
        )
    got = [c.get("stacks") for c in doc["configs"]]
    if got != expected["configs"]:
        return "reported cycle configurations differ from the reference"
    return None


def check_trajectory(out: bytes, fmt: str, expected: list[tuple[int, ...]]) -> str | None:
    if fmt == "csv":
        rows = [
            tuple(int(x) for x in line.split(","))
            for line in out.decode("utf-8").strip().split("\n")
        ]
    else:
        rows = [tuple(c["stacks"]) for c in json.loads(out)]
    if len(rows) != len(expected):
        return f"trajectory has {len(rows)} rows, expected {len(expected)}"
    for t, (got, want) in enumerate(zip(rows, expected)):
        if got != want:
            return f"trajectory row {t} differs from the reference"
    return None

"""The four workloads: seeded job lists for the boardpile CLI.

A job is one CLI invocation plus the check its output must pass.  Each
workload splits its jobs into a "main" group, the work it was chosen for,
and a "side" group of shorter jobs whose regressions would otherwise hide
inside the main group's time.  Every input document is generated here from
the seed, and every expected answer is computed here, before any timing.
README.md gives the reason for each workload.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

# Sizes of the measured runs, and of the self-test's tiny runs.
SIZES = {
    "census": {
        "full": {"verify": (7, 5, 9), "enumerate": 11},
        "tiny": {"verify": (3, 2, 4), "enumerate": 6},
    },
    "counts": {
        "full": {"labelled_n": 18, "labelled_upto": 16, "table_upto": 1000, "big_n": 20_000},
        "tiny": {"labelled_n": 8, "labelled_upto": 6, "table_upto": 30, "big_n": 20_000},
    },
    "orbits-dense": {
        "full": {"graphs": 6, "n": 120, "p": 0.9, "spread": 5, "steps": 300},
        "tiny": {"graphs": 2, "n": 16, "p": 0.9, "spread": 3, "steps": 5},
    },
    "orbits-sparse": {
        "full": {"graphs": 2, "n": 10_000, "degree": 10, "spread": 3, "steps": 40,
                 "preperiods": range(27, 33)},
        "tiny": {"graphs": 2, "n": 200, "degree": 10, "spread": 3, "steps": 4,
                 "preperiods": range(0, 100)},
    },
}

WORKLOADS = tuple(SIZES)

# Preperiods differ by about 15% between random dense graphs, so this
# workload draws fresh graphs for every repetition of its job list: a run's
# median then rests on many graphs and stays steady from seed to seed.
RESAMPLED = {"orbits-dense"}


@dataclass
class Job:
    name: str
    group: str  # "main" or "side"
    argv: list[str]
    inputs: list[str]
    check: Callable[[bytes], str | None]


def build(workload: str, seed: int, workdir: Path, tiny: bool = False, rep: int = 0) -> list[Job]:
    """The job list for one repetition; only RESAMPLED workloads depend on rep."""
    size = SIZES[workload]["tiny" if tiny else "full"]
    rng = random.Random(f"{workload}:{seed}:{rep if workload in RESAMPLED else 0}")
    return _JOB_LISTS[workload](size, rng, workdir)


def _census(size: dict, rng: random.Random, workdir: Path) -> list[Job]:
    unlabelled, labelled, reflect = size["verify"]
    params = {"max_unlabelled": unlabelled, "max_labelled": labelled, "max_reflect": reflect}
    argv = [
        "verify",
        f"--max-unlabelled={unlabelled}",
        f"--max-labelled={labelled}",
        f"--max-reflect={reflect}",
    ]
    n = size["enumerate"]
    jobs = [
        Job(f"verify-{unlabelled}-{labelled}-{reflect}", "main", argv, [],
            functools.partial(oracles.check_verify, params=params)),
        Job(f"enumerate-{n}", "side", ["enumerate", f"--n={n}", "--count-only"], [],
            functools.partial(oracles.check_count_only,
                              expected=oracles.cross_checked_counts(n)[n])),
    ]
    rng.shuffle(jobs)
    return jobs


def _counts(size: dict, rng: random.Random, workdir: Path) -> list[Job]:
    labelled = oracles.transfer_matrix_counts(
        max(size["labelled_n"], size["labelled_upto"]), labelled=True
    )
    unlabelled = oracles.cross_checked_counts(max(size["table_upto"], size["big_n"]))
    n, upto, table, big = (
        size["labelled_n"], size["labelled_upto"], size["table_upto"], size["big_n"]
    )
    jobs = [
        Job(f"labelled-n{n}", "main", ["count", "--mode=labelled", f"--n={n}"], [],
            functools.partial(oracles.check_count_one, n=n, expected=labelled[n])),
        Job(f"labelled-upto{upto}", "main", ["count", "--mode=labelled", f"--upto={upto}"], [],
            functools.partial(oracles.check_count_table, expected=labelled[: upto + 1])),
    ]
    for mode in ("recurrence", "gf"):
        jobs.append(
            Job(f"{mode}-upto{table}", "side", ["count", f"--mode={mode}", f"--upto={table}"], [],
                functools.partial(oracles.check_count_table, expected=unlabelled[: table + 1]))
        )
        # a(big) has more decimal digits than Python's default int-to-str
        # limit; the program is expected to print it in full.
        jobs.append(
            Job(f"{mode}-n{big}", "side", ["count", f"--mode={mode}", f"--n={big}"], [],
                functools.partial(oracles.check_count_one, n=big, expected=unlabelled[big]))
        )
    rng.shuffle(jobs)
    return jobs


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _random_stacks(rng: random.Random, n: int, spread: int) -> tuple[int, ...]:
    return tuple(rng.randint(-spread, spread) for _ in range(n))


def _orbits_dense(size: dict, rng: random.Random, workdir: Path) -> list[Job]:
    # `period` runs on every graph, `simulate` on the first.
    n, p, steps = size["n"], size["p"], size["steps"]
    main, side = [], []
    for i in range(size["graphs"]):
        edges = [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        rng.shuffle(edges)
        stacks = _random_stacks(rng, n, size["spread"])
        graph = _write(workdir / f"dense{i}-graph.json", {"n": n, "edges": edges})
        config = _write(workdir / f"dense{i}-config.json", {"stacks": list(stacks)})
        step = oracles.stepper(n, edges)
        main.append(
            Job(f"period-{i}", "main", ["period", graph, config], [graph, config],
                functools.partial(oracles.check_period,
                                  expected=oracles.eventual_cycle(step, stacks)))
        )
        if i == 0:
            side.append(
                Job(f"simulate-csv-{i}", "side",
                    ["simulate", graph, config, f"--steps={steps}", "--format=csv"],
                    [graph, config],
                    functools.partial(oracles.check_trajectory, fmt="csv",
                                      expected=oracles.trajectory(step, stacks, steps)))
            )
    return main + side


def _sparse_instance(size: dict, rng: random.Random):
    n = size["n"]
    m = n * size["degree"] // 2
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edge_list = [[u, v] for u, v in sorted(edges)]
    rng.shuffle(edge_list)
    return edge_list, _random_stacks(rng, n, size["spread"])


def _orbits_sparse(size: dict, rng: random.Random, workdir: Path) -> list[Job]:
    # The workload is sparse graphs whose trajectories settle in 27-32 steps:
    # instances are drawn until one does.  Unfiltered, preperiods range over
    # 24-43 steps and the period jobs' time would follow the seed.  `period`
    # runs on every document, `simulate` on the first.
    n, steps = size["n"], size["steps"]
    jobs = []
    for i in range(size["graphs"]):
        while True:
            edge_list, stacks = _sparse_instance(size, rng)
            step = oracles.stepper(n, edge_list)
            cycle = oracles.eventual_cycle(step, stacks)
            if cycle["preperiod"] in size["preperiods"]:
                break
        graph = _write(workdir / f"sparse{i}-graph.json", {"n": n, "edges": edge_list})
        config = _write(workdir / f"sparse{i}-config.json", {"stacks": list(stacks)})
        jobs.append(
            Job(f"period-{i}", "main", ["period", graph, config], [graph, config],
                functools.partial(oracles.check_period, expected=cycle))
        )
        if i == 0:
            rows = oracles.trajectory(step, stacks, steps)
            for fmt in ("json", "csv"):
                jobs.append(
                    Job(f"simulate-{fmt}", "side",
                        ["simulate", graph, config, f"--steps={steps}", f"--format={fmt}"],
                        [graph, config],
                        functools.partial(oracles.check_trajectory, fmt=fmt, expected=rows))
                )
    rng.shuffle(jobs)
    return jobs


_JOB_LISTS = {
    "census": _census,
    "counts": _counts,
    "orbits-dense": _orbits_dense,
    "orbits-sparse": _orbits_sparse,
}

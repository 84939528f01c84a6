import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from itertools import islice, pairwise
from operator import ne
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

import boardpile
import boardpile.bijection as bijection
import boardpile.cli as cli
import boardpile.counting as counting
import boardpile.diffusion as diffusion
import boardpile.graphs as graphs
import boardpile.polyomino as polyomino
from boardpile.cli import main, verify_count_agreement
from boardpile.graphs import Graph
from test_diffusion import reference_fire, sparse_start

P5_GRAPH = {"family": "path", "n": 5}
P5_CONFIG = {"stacks": [0, 2, 0, 4, 1]}
P5_TRAJECTORY = [
    [0, 2, 0, 4, 1],
    [1, 0, 2, 2, 2],
    [0, 2, 1, 2, 2],
    [1, 0, 3, 1, 2],
    [0, 2, 1, 3, 1],
    [1, 0, 3, 1, 2],
    [0, 2, 1, 3, 1],
]


def write_doc(tmp_path, name, doc):
    target = tmp_path / name
    target.write_text(json.dumps(doc), encoding="utf-8")
    return str(target)


def write_texts(tmp_path, texts):
    """The paths of doc0.json, doc1.json, ... holding the texts as given."""
    paths = [tmp_path / f"doc{i}.json" for i in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_text(text, encoding="utf-8")
    return list(map(str, paths))


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- simulate ----------------------------------------------------------------


def test_simulate_golden_trajectory(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", P5_GRAPH)
    c = write_doc(tmp_path, "c.json", P5_CONFIG)
    code, out, _ = invoke(["simulate", g, c, "--steps", "6"], capsys)
    assert code == 0
    assert json.loads(out) == [{"stacks": row} for row in P5_TRAJECTORY]


def test_simulate_csv(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", P5_GRAPH)
    c = write_doc(tmp_path, "c.json", P5_CONFIG)
    code, out, _ = invoke(["simulate", g, c, "--steps", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out == "0,2,0,4,1\n1,0,2,2,2\n0,2,1,2,2\n"


def test_simulate_zero_steps_echoes(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", P5_GRAPH)
    c = write_doc(tmp_path, "c.json", P5_CONFIG)
    code, out, _ = invoke(["simulate", g, c, "--steps", "0"], capsys)
    assert code == 0
    assert json.loads(out) == [{"stacks": [0, 2, 0, 4, 1]}]


def test_simulate_writes_file(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", P5_GRAPH)
    c = write_doc(tmp_path, "c.json", P5_CONFIG)
    out_path = tmp_path / "traj.json"
    code, _, _ = invoke(["simulate", g, c, "--steps", "1", "--out", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out_path.read_text()) == [
        {"stacks": [0, 2, 0, 4, 1]},
        {"stacks": [1, 0, 2, 2, 2]},
    ]


def test_simulate_stack_count_mismatch(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", P5_GRAPH)
    c = write_doc(tmp_path, "c.json", {"stacks": [1, 2, 3]})
    code, _, err = invoke(["simulate", g, c, "--steps", "1"], capsys)
    assert code == 2
    assert "stacks" in err


def test_simulate_rejects_boolean_stacks(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", {"family": "path", "n": 3})
    c = write_doc(tmp_path, "c.json", {"stacks": [True, False, True]})
    code, _, err = invoke(["simulate", g, c, "--steps", "1"], capsys)
    assert code == 2
    assert "field 'stacks'" in err


def test_simulate_malformed_json(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text("{not json", encoding="utf-8")
    c = write_doc(tmp_path, "c.json", P5_CONFIG)
    code, _, err = invoke(["simulate", str(g), str(c), "--steps", "1"], capsys)
    assert code == 2
    assert "line" in err


def test_simulate_unknown_family(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", {"family": "torus", "n": 4})
    c = write_doc(tmp_path, "c.json", {"stacks": [0, 0, 0, 0]})
    code, _, err = invoke(["simulate", g, c, "--steps", "1"], capsys)
    assert code == 2
    assert "family" in err


def listed(n, pairs, seed):
    """A graph document of these pairs, shuffled and half reversed."""
    rng = random.Random(seed)
    edges = [[v, u] if rng.random() < 0.5 else [u, v] for u, v in pairs]
    rng.shuffle(edges)
    return {"n": n, "edges": edges}


@pytest.mark.parametrize(
    "family, explicit, stacks",
    [
        (
            {"family": "complete", "n": 5},
            {"n": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]},
            [3, 4, 4, 5, 5],
        ),
        ({"family": "path", "n": 4}, {"n": 4, "edges": [[1, 0], [2, 3], [2, 1]]}, [0, 3, 0, 1]),
        # K_40 fires by rank, the others by the edge loop
        (
            {"family": "complete", "n": 40},
            listed(40, [(u, v) for u in range(40) for v in range(u + 1, 40)], 40),
            [random.Random(41).randint(0, 10**6) for _ in range(40)],
        ),
        (
            {"family": "cycle", "n": 9},
            listed(9, [(i, (i + 1) % 9) for i in range(9)], 9),
            [5, -3, 0, 8, 8, 1, -2, 4, 0],
        ),
        (
            {"family": "star", "n": 7},
            listed(7, [(0, i) for i in range(1, 7)], 7),
            [0, 9, -4, 3, 3, 12, 1],
        ),
    ],
)
def test_family_form_equals_explicit_form(tmp_path, capsys, family, explicit, stacks):
    c = write_doc(tmp_path, "c.json", {"stacks": stacks})
    runs = []
    for i, graph in enumerate((family, explicit)):
        g = write_doc(tmp_path, f"g{i}.json", graph)
        runs.append(
            [invoke(["period", g, c], capsys), invoke(["simulate", g, c, "--steps", "6"], capsys)]
        )
    assert runs[0] == runs[1]
    assert [code for code, _, _ in runs[0]] == [0, 0]


# --- period --------------------------------------------------------------------


def test_period_golden_report(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", P5_GRAPH)
    c = write_doc(tmp_path, "c.json", P5_CONFIG)
    code, out, _ = invoke(["period", g, c], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["preperiod"] == 3
    assert doc["period"] == 2
    assert doc["configs"] == [{"stacks": [1, 0, 3, 1, 2]}, {"stacks": [0, 2, 1, 3, 1]}]


def test_period_fixed_config(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", P5_GRAPH)
    c = write_doc(tmp_path, "c.json", {"stacks": [0, 0, 0, 0, 0]})
    code, out, _ = invoke(["period", g, c], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["preperiod"], doc["period"]) == (0, 1)


def test_period_complete_graph_two_cycle(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", {"family": "complete", "n": 5})
    c = write_doc(tmp_path, "c.json", {"stacks": [3, 4, 4, 5, 5]})
    code, out, _ = invoke(["period", g, c], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["preperiod"], doc["period"]) == (0, 2)


def test_period_budget_exhausted(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", P5_GRAPH)
    c = write_doc(tmp_path, "c.json", P5_CONFIG)
    code, _, err = invoke(["period", g, c, "--max-steps", "2"], capsys)
    assert code == 1
    assert "2 steps" in err
    assert err == (
        "error: no repeated configuration within 2 steps "
        "(n = 5, m = 4, 2 steps fired; C_2 differs from C_0 at 3 vertices)\n"
    )


def reference_configs(graph, stacks):
    """C_0, C_1, ... without end, each fired by visiting every edge."""
    g = Graph(graph["n"], graph["edges"])
    c = tuple(stacks)
    while True:
        yield c
        c = reference_fire(g, c)


def reference_trajectory(graph, stacks, steps):
    return list(islice(reference_configs(graph, stacks), steps + 1))


def reference_period(graph, stacks):
    """Preperiod, period and cycle members: C_t is the first configuration
    equal to C_{t-1} or C_{t-2}."""
    seen = []
    for c in reference_configs(graph, stacks):
        if seen[-1:] == [c]:
            return len(seen) - 1, 1, seen[-1:]
        if seen[-2:-1] == [c]:
            return len(seen) - 2, 2, seen[-2:]
        seen.append(c)


P5_EXPLICIT = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}
C6_EXPLICIT = {"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]}
K5_EXPLICIT = {"n": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]}


def shuffled_dense_document(seed, n=120, p=0.9):
    """A G(n, p) document whose edges are shuffled and half reversed, and
    stacks in [-5, 5] for it, the shape of the dense benchmark orbits."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    edges = [[v, u] if rng.random() < 0.5 else [u, v] for u, v in pairs]
    rng.shuffle(edges)
    return {"n": n, "edges": edges}, [rng.randint(-5, 5) for _ in range(n)]


def shuffled_sparse_document(seed, n=300, m=900):
    """A sparse graph document whose edges are shuffled and half reversed, and
    stacks in [-300, 300] for it."""
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < m:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    edges = [[v, u] if rng.random() < 0.5 else [u, v] for u, v in sorted(pairs)]
    rng.shuffle(edges)
    return {"n": n, "edges": edges}, [rng.randint(-300, 300) for _ in range(n)]


# a sparse document whose trajectory closes after 157 steps, 73 of them fired
# as corrections of the step two back
SPARSE_CASE = (*shuffled_sparse_document(0), 160)
# a dense document fired by neighbour masks, whose trajectory closes after 287
# steps
DENSE_CASE = (*shuffled_dense_document(0), 300)

# graph, stacks and steps: no vertices, no steps, a flat fixed point, negative
# stacks, the two periods, a sparse and a dense document
BYTE_CASES = [
    ({"n": 0, "edges": []}, [], 3),
    (P5_EXPLICIT, [0, 2, 0, 4, 1], 0),
    (P5_EXPLICIT, [-4, -4, -4, -4, -4], 6),
    (C6_EXPLICIT, [-3, 12, -40, 4, 0, -1], 40),
    (K5_EXPLICIT, [3, 4, 4, 5, 5], 7),
    (P5_EXPLICIT, [0, 2, 0, 4, 1], 12),
    SPARSE_CASE,
    DENSE_CASE,
]


def test_the_byte_cases_take_the_edge_loop_and_the_masks():
    kernels = [
        diffusion._kernel(graph["n"], len(graph["edges"])) for graph, _, _ in (SPARSE_CASE, DENSE_CASE)
    ]
    assert kernels == ["edges", "masks"]


def test_the_sparse_byte_case_is_fired_by_correction_past_the_crossover(monkeypatch):
    # C_t is a correction exactly when C_{t-1} differs from C_{t-3} at no more
    # than a third of the vertices
    graph, stacks, _ = SPARSE_CASE
    corrections = []
    correct = diffusion._fire_delta
    monkeypatch.setattr(
        diffusion, "_fire_delta", lambda *args: corrections.append(args) or correct(*args)
    )
    report = boardpile.detect_period(Graph(graph["n"], graph["edges"]), stacks)
    assert (report.preperiod, report.period) == (155, 2)
    configs = reference_trajectory(graph, stacks, report.preperiod + report.period)
    past = [3 * sum(map(ne, configs[t - 1], configs[t - 3])) <= graph["n"] for t in range(3, len(configs))]
    assert len(corrections) == sum(past) == 73


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("graph, stacks, steps", BYTE_CASES)
def test_simulate_bytes_equal_json_dumps(tmp_path, capsys, graph, stacks, steps, to_file):
    g = write_doc(tmp_path, "g.json", graph)
    c = write_doc(tmp_path, "c.json", {"stacks": stacks})
    trajectory = reference_trajectory(graph, stacks, steps)
    expected = {
        "json": json.dumps([{"stacks": list(row)} for row in trajectory], indent=2) + "\n",
        "csv": "\n".join(",".join(str(s) for s in row) for row in trajectory) + "\n",
    }
    for fmt, text in expected.items():
        argv = ["simulate", g, c, "--steps", str(steps), "--format", fmt]
        target = tmp_path / f"trajectory.{fmt}"
        code, out, err = invoke(argv + ["--out", str(target)] if to_file else argv, capsys)
        assert (code, err) == (0, "")
        if to_file:
            assert (target.read_text(encoding="utf-8"), out) == (text, "")
        else:
            assert out == text


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("graph, stacks, steps", BYTE_CASES)
def test_period_bytes_equal_json_dumps(tmp_path, capsys, graph, stacks, steps, to_file):
    g = write_doc(tmp_path, "g.json", graph)
    c = write_doc(tmp_path, "c.json", {"stacks": stacks})
    preperiod, period, members = reference_period(graph, stacks)
    doc = {
        "preperiod": preperiod,
        "period": period,
        "configs": [{"stacks": list(row)} for row in members],
    }
    expected = json.dumps(doc, indent=2) + "\n"
    target = tmp_path / "period.json"
    code, out, err = invoke(["period", g, c] + (["--out", str(target)] if to_file else []), capsys)
    assert (code, err) == (0, "")
    if to_file:
        assert (target.read_text(encoding="utf-8"), out) == (expected, "")
    else:
        assert out == expected


class Sink:
    """A stdout that discards what it is given."""

    def write(self, text):
        return len(text)


def traced_peak(call):
    """call()'s result and the peak tracemalloc traces while it runs, called
    once first to fill the interpreter's free lists, or tracemalloc counts
    filling them."""
    call()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate_streams_in_one_slot_per_step(tmp_path, monkeypatch, fmt):
    # 1,000,000 steps on P5: a list with one slot per step would alone take
    # 8 MB; the cycle closes after 5 firings, each row is written as it is
    # fired, and the rest cycles through the two cycle rows
    g = write_doc(tmp_path, "g.json", P5_GRAPH)
    c = write_doc(tmp_path, "c.json", P5_CONFIG)
    monkeypatch.setattr(sys, "stdout", Sink())
    argv = ["simulate", g, c, "--steps", "1000000", "--format", fmt]
    code, peak = traced_peak(lambda: main(argv))
    assert code == 0
    assert peak < 2 * 1024 * 1024


def test_period_frees_its_parsed_edges_before_the_graph_sorts(tmp_path, monkeypatch):
    # The parsed edges, a list and two ints an edge, outweigh what Graph
    # keeps of them.  Held until Graph returned, they made this 20,000-edge
    # period peak at 1.57x the peak of json.loads on the text; dropped once
    # Graph has checked them, 1.10x.
    g, stacks = sparse_start(1, n=4000, m=20000)
    edges = [list(e) for e in g.edges]
    random.Random(1).shuffle(edges)
    text = json.dumps({"n": g.n, "edges": edges})
    gpath = tmp_path / "g.json"
    gpath.write_text(text, encoding="utf-8")
    cpath = write_doc(tmp_path, "c.json", {"stacks": list(stacks)})
    monkeypatch.setattr(sys, "stdout", Sink())
    parse = traced_peak(lambda: json.loads(text))[1]
    code, peak = traced_peak(lambda: main(["period", str(gpath), cpath]))
    assert code == 0
    assert peak < 1.25 * parse


@pytest.mark.parametrize("g, stacks", [(boardpile.path(5), P5_CONFIG["stacks"]), sparse_start(0)])
def test_simulate_fires_only_up_to_the_close(tmp_path, monkeypatch, fire_audit, g, stacks):
    assert diffusion._kernel(g.n, len(g.edges)) == "edges"  # one audited call per step
    report = boardpile.detect_period(g, stacks)
    gpath = write_doc(tmp_path, "g.json", {"n": g.n, "edges": [list(e) for e in g.edges]})
    cpath = write_doc(tmp_path, "c.json", {"stacks": list(stacks)})
    monkeypatch.setattr(sys, "stdout", Sink())
    before = fire_audit.calls
    assert main(["simulate", gpath, cpath, "--steps", "100000"]) == 0
    assert fire_audit.calls - before == report.preperiod + report.period


def test_simulate_short_of_the_close_fires_exactly_its_steps(tmp_path, fire_audit):
    g, stacks = sparse_start(0)
    report = boardpile.detect_period(g, stacks)
    steps = report.preperiod + report.period - 1
    gpath = write_doc(tmp_path, "g.json", {"n": g.n, "edges": [list(e) for e in g.edges]})
    cpath = write_doc(tmp_path, "c.json", {"stacks": list(stacks)})
    out = tmp_path / "rows.csv"
    before = fire_audit.calls
    assert main(["simulate", gpath, cpath, "--steps", str(steps), "--format", "csv", "--out", str(out)]) == 0
    assert fire_audit.calls - before == steps
    rows = [",".join(map(str, c)) for c in boardpile.run(g, stacks, steps)]
    assert out.read_text(encoding="utf-8").splitlines() == rows


# a star whose stacks are accepted on input (4300 digits) and outgrow the
# int->str digit limit after one step
BIG_STAR = ({"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}, [10**4300 - 2] + [10**4300 - 1] * 3)


def dumps_unlimited(doc):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_simulate_writes_stacks_past_the_digit_limit(tmp_path, capsys):
    graph, stacks = BIG_STAR
    g = write_doc(tmp_path, "g.json", graph)
    c = write_doc(tmp_path, "c.json", {"stacks": stacks})
    trajectory = reference_trajectory(graph, stacks, 2)
    expected = dumps_unlimited([{"stacks": list(row)} for row in trajectory])
    assert invoke(["simulate", g, c, "--steps", "2"], capsys) == (0, expected, "")


def test_period_writes_stacks_past_the_digit_limit(tmp_path, capsys):
    graph, stacks = BIG_STAR
    g = write_doc(tmp_path, "g.json", graph)
    c = write_doc(tmp_path, "c.json", {"stacks": stacks})
    report = boardpile.detect_period(Graph(graph["n"], graph["edges"]), stacks)
    doc = {
        "preperiod": report.preperiod,
        "period": report.period,
        "configs": [{"stacks": list(row)} for row in report.period_configs],
    }
    assert invoke(["period", g, c], capsys) == (0, dumps_unlimited(doc), "")


# lists of stacks, short and past the length at which the encoder starts to
# win over str.join, of either sign, now and then one past the int->str digit
# limit
stack_lists = st.lists(
    st.integers() | st.sampled_from([10**4300, -(10**5000) + 1]),
    max_size=64,
).map(tuple)


@settings(deadline=None)
@given(stack_lists, st.booleans())
@example((), False)
@example((0,), True)
@example(tuple(range(-31, 0)), False)
@example((10**4300,) * 32, True)
def test_stack_text_equals_its_references(c, fire_reflect):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as main() runs
    try:
        stacks = {"stacks": list(c)}
        # a CSV row, one member of simulate's row list and period's config
        # list, and map's document with and without its check
        assert cli._stacks_text(c, ",") == ",".join(map(str, c))
        assert f"[\n{cli._stacks_block(c, '  ')}\n]" == json.dumps([stacks], indent=2)
        configs = json.dumps({"configs": [stacks]}, indent=2)
        assert f'{{\n  "configs": [\n{cli._stacks_block(c, "    ")}\n  ]\n}}' == configs
        assert cli._stacks_block(c, "") == json.dumps(stacks, indent=2)
        checked = json.dumps({**stacks, "fire_reflect": fire_reflect}, indent=2)
        assert cli._stacks_block(c, "", fire_reflect=fire_reflect) == checked
    finally:
        sys.set_int_max_str_digits(limit)


# --- enumerate / render ----------------------------------------------------------


def test_enumerate_count_only(capsys):
    code, out, _ = invoke(["enumerate", "--n", "4", "--count-only"], capsys)
    assert code == 0
    assert out.strip() == "19"
    # the walk count --mode enumerate makes, under its cap and refused before it
    started = time.perf_counter()
    code, out, err = invoke(["enumerate", "--n", "16", "--count-only"], capsys)
    assert time.perf_counter() - started < 1.0
    assert (code, out, err) == (2, "", "error: --n for --count-only is capped at 15\n")


def test_enumerate_json_lines(capsys):
    code, out, _ = invoke(["enumerate", "--n", "2", "--json"], capsys)
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert docs == [{"strips": [[0, 1], [1, 1]]}, {"strips": [[0, 2]]}]


def test_enumerate_ascii(capsys):
    code, out, _ = invoke(["enumerate", "--n", "2", "--ascii"], capsys)
    assert code == 0
    assert out == "#\n#\n\n##\n"


def test_enumerate_ascii_streams_in_flat_memory(monkeypatch):
    # n = 10 draws 20,727 blocks; joining them all before writing peaked
    # near 2.6 MB, writing each as it is drawn peaks near 0.2 MB
    monkeypatch.setattr(sys, "stdout", Sink())
    argv = ["enumerate", "--n", "10", "--ascii"]
    code, peak = traced_peak(lambda: main(argv))
    assert code == 0
    assert peak < 512 * 1024


def test_enumerate_deterministic(capsys):
    _, first, _ = invoke(["enumerate", "--n", "5", "--json"], capsys)
    _, second, _ = invoke(["enumerate", "--n", "5", "--json"], capsys)
    assert first == second


def test_enumerate_rejects_zero(capsys):
    code, _, err = invoke(["enumerate", "--n", "0"], capsys)
    assert code == 2
    assert "--n" in err


def test_render_three_strip_example(tmp_path, capsys):
    p = write_doc(tmp_path, "x.json", {"strips": [[0, 2], [3, 3], [2, 1]]})
    code, out, _ = invoke(["render", p], capsys)
    assert code == 0
    assert out == " #\n###\n##\n"


def test_render_invalid_polyomino(tmp_path, capsys):
    p = write_doc(tmp_path, "x.json", {"strips": [[0, 2], [4, 2]]})
    code, _, err = invoke(["render", p], capsys)
    assert code == 2
    assert "offset" in err


def test_render_names_an_offset_past_the_digit_limit(tmp_path, capsys):
    # both numbers parse within the limit; the message names bounds beyond it
    length = 9 * 10**4299
    p = tmp_path / "x.json"
    p.write_text(dumps_unlimited({"strips": [[0, length], [0, length]]}), encoding="utf-8")
    code, out, err = invoke(["render", str(p)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: polyomino document: strips[1]: offset 0 outside 1..")


def test_render_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    p = tmp_path / "x.json"
    p.write_bytes(b'{"strips": [[0, 2]], "x": "\xff"}')
    code, out, err = invoke(["render", str(p)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: polyomino document is not UTF-8: ")


def test_render_reads_stdin_as_utf8_whatever_the_locale(monkeypatch, capsys):
    # a C-locale stdin decodes with surrogateescape, which lets 0xff through
    def stdin(data):
        raw = io.BytesIO(data)
        return io.TextIOWrapper(raw, encoding="ascii", errors="surrogateescape")

    monkeypatch.setattr(sys, "stdin", stdin('{"strips": [[0, 2]], "x": "\u00e9"}'.encode()))
    assert invoke(["render", "-"], capsys) == (0, "##\n", "")
    monkeypatch.setattr(sys, "stdin", stdin(b'{"strips": [[0, 2]], "x": "\xff"}'))
    code, out, err = invoke(["render", "-"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: polyomino document is not UTF-8: ")


@pytest.mark.parametrize("command", [["period"], ["simulate", "--steps", "3"]])
def test_both_documents_from_stdin_are_refused_before_reading(monkeypatch, capsys, command):
    class Unread:
        def __getattr__(self, name):
            raise AssertionError("stdin was read")

    monkeypatch.setattr(sys, "stdin", Unread())
    code, out, err = invoke([command[0], "-", "-", *command[1:]], capsys)
    assert (code, out) == (2, "")
    assert err == "error: only one document can come from stdin: give the other as a file\n"


# --- map ---------------------------------------------------------------------------


def test_map_strips_to_stacks(tmp_path, capsys):
    p = write_doc(tmp_path, "x.json", {"strips": [[0, 2], [3, 2], [2, 4], [3, 2]]})
    code, out, _ = invoke(["map", p], capsys)
    assert code == 0
    assert json.loads(out) == {"stacks": [0, 0, 3, 3, 5, 5, 5, 5, 8, 8]}


def test_map_stacks_to_strips(tmp_path, capsys):
    p = write_doc(tmp_path, "c.json", {"stacks": [0, 0, 3, 3, 5, 5, 5, 5, 8, 8]})
    code, out, _ = invoke(["map", p], capsys)
    assert code == 0
    assert json.loads(out) == {"strips": [[0, 2], [3, 2], [2, 4], [3, 2]]}


def test_map_normalizes_stacks_before_inverting(tmp_path, capsys):
    p = write_doc(tmp_path, "c.json", {"stacks": [3, 4, 4, 5, 5]})
    code, out, _ = invoke(["map", p], capsys)
    assert code == 0
    assert json.loads(out) == {"strips": [[0, 1], [1, 2], [1, 2]]}


def test_map_check_flag(tmp_path, capsys):
    p = write_doc(tmp_path, "x.json", {"strips": [[0, 2], [4, 5]]})
    code, out, _ = invoke(["map", p, "--check"], capsys)
    assert code == 0
    assert json.loads(out) == {"stacks": [0, 0, 4, 4, 4, 4, 4], "fire_reflect": True}


def test_map_round_trips_the_four_strip_example(tmp_path, capsys):
    strips = {"strips": [[0, 2], [3, 2], [2, 4], [3, 2]]}
    code, stacks, _ = invoke(["map", write_doc(tmp_path, "x.json", strips)], capsys)
    assert code == 0
    code, back, _ = invoke(["map", write_doc(tmp_path, "c.json", json.loads(stacks))], capsys)
    assert (code, json.loads(back)) == (0, strips)


def test_map_frees_its_parsed_strips_once_the_polyomino_is_built(tmp_path, monkeypatch):
    # Held until map returned, the parsed strips of these 50,000 made it peak
    # at 3.1x the peak of json.loads on the text; dropped once the polyomino
    # holds them, 2.1x: its stacks and their text weigh the rest.
    rng = random.Random(2)
    strips, below = [], 0
    for _ in range(50_000):
        length = rng.randint(1, 3)
        strips.append([rng.randint(1, below + length - 1) if below else 0, length])
        below = length
    text = json.dumps({"strips": strips})
    p = tmp_path / "x.json"
    p.write_text(text, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", Sink())
    parse = traced_peak(lambda: json.loads(text))[1]
    code, peak = traced_peak(lambda: main(["map", str(p)]))
    assert code == 0
    assert peak < 2.6 * parse


def test_map_rejects_transient_stacks(tmp_path, capsys):
    p = write_doc(tmp_path, "c.json", {"stacks": [0, 2]})
    code, _, err = invoke(["map", p], capsys)
    assert code == 1
    assert "cycle" in err


def test_map_rejects_boolean_stacks(tmp_path, capsys):
    p = write_doc(tmp_path, "c.json", {"stacks": [True, False, True]})
    code, _, err = invoke(["map", p], capsys)
    assert code == 2
    assert "field 'stacks'" in err


def test_map_needs_strips_or_stacks(tmp_path, capsys):
    p = write_doc(tmp_path, "c.json", {"cells": [1, 2]})
    code, _, err = invoke(["map", p], capsys)
    assert code == 2
    assert "strips" in err and "stacks" in err


# one digit past the default int->str limit, in each field a document reader parses
BIG = "9" * 4301
P5_TEXT = json.dumps(P5_GRAPH)
PAST_THE_LIMIT = {
    "graph-n": ("simulate", ['{"n": ' + BIG + ', "edges": []}', '{"stacks": []}'], "graph"),
    "edge": ("period", ['{"n": 2, "edges": [[0, ' + BIG + "]]}", '{"stacks": [0, 1]}'], "graph"),
    "simulate-stacks": ("simulate", [P5_TEXT, '{"stacks": [' + BIG + "]}"], "configuration"),
    "period-stacks": ("period", [P5_TEXT, '{"stacks": [' + BIG + "]}"], "configuration"),
    "render-strips": ("render", ['{"strips": [[0, ' + BIG + "]]}"], "polyomino"),
    "map-strips": ("map", ['{"strips": [[0, ' + BIG + "]]}"], "input"),
    "map-stacks": ("map", ['{"stacks": [' + BIG + "]}"], "input"),
}


@pytest.mark.parametrize("command, texts, kind", PAST_THE_LIMIT.values(), ids=PAST_THE_LIMIT.keys())
def test_documents_reject_integers_past_the_digit_limit(tmp_path, capsys, command, texts, kind):
    steps = ["--steps", "1"] if command == "simulate" else []
    code, out, err = invoke([command, *write_texts(tmp_path, texts), *steps], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid JSON in {kind} document: ") and "4301 digits" in err


def test_map_names_stacks_past_the_digit_limit(tmp_path, capsys):
    # accepted on input (4,300 digits each), normalized to a 4,301-digit stack
    big = 10**4300 - 1
    p = tmp_path / "c.json"
    p.write_text(dumps_unlimited({"stacks": [-big, big]}), encoding="utf-8")
    code, out, err = invoke(["map", str(p)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: multiset (0, 1999") and "is not inside its own cycle" in err


def test_map_rejects_nesting_past_recursion_limit(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, _, err = invoke(["map", str(p)], capsys)
    assert code == 2
    assert "invalid JSON" in err


# a key given twice, of which json alone keeps the last value: each of these
# ran to exit 0 on that value
DUPLICATE_KEYS = {
    "graph": ("period", ['{"n": 3, "edges": [[0, 1]], "n": 2}', '{"stacks": [1, 0]}'], "graph", "n"),
    "configuration": (
        "simulate",
        ['{"n": 2, "edges": [[0, 1]]}', '{"stacks": [1, 0, 2], "stacks": [0, 0]}'],
        "configuration",
        "stacks",
    ),
    "map": ("map", ['{"strips": [[0, 1]], "strips": [[0, 2]]}'], "input", "strips"),
}


@pytest.mark.parametrize("command, texts, kind, key", DUPLICATE_KEYS.values(), ids=DUPLICATE_KEYS.keys())
def test_documents_reject_a_key_given_twice(tmp_path, capsys, command, texts, kind, key):
    steps = ["--steps", "1"] if command == "simulate" else []
    assert invoke([command, *write_texts(tmp_path, texts), *steps], capsys) == (
        2,
        "",
        f"error: invalid JSON in {kind} document: duplicate key {key!r}\n",
    )


@pytest.mark.parametrize(
    "command, docs, field",
    [
        ("simulate", [{"family": "path", "n": "3"}, {"stacks": [0, 1, 0]}], "field 'n'"),
        ("simulate", [{"family": "path", "n": 2.9}, {"stacks": [0, 1]}], "field 'n'"),
        ("simulate", [{"n": 2, "edges": [[0, True]]}, {"stacks": [0, 1]}], "field 'edges'"),
        ("render", [{"strips": [[0, True], [1, 1]]}], "field 'strips'"),
    ],
)
def test_documents_require_exact_integers(tmp_path, capsys, command, docs, field):
    paths = [write_doc(tmp_path, f"doc{i}.json", doc) for i, doc in enumerate(docs)]
    steps = ["--steps", "1"] if command == "simulate" else []
    code, _, err = invoke([command, *paths, *steps], capsys)
    assert code == 2
    assert field in err


@pytest.mark.parametrize(
    "command, docs, line",
    [
        ("period", [{"family": "path"}, P5_CONFIG], "graph document missing field 'n'"),
        ("period", [{"n": 5}, P5_CONFIG], "graph document missing field 'edges'"),
        (
            "period",
            [{"n": 3, "edges": [[0, 1, 2]]}, {"stacks": [0, 1, 0]}],
            "graph document: field 'edges': expected a list of [u, v] integer pairs",
        ),
        (
            "period",
            [{"n": 2, "edges": [[0, 2]]}, {"stacks": [0, 1]}],
            "graph document: edge (0, 2): endpoint 2 out of range for 2 vertices",
        ),
        (
            "period",
            [{"family": "path", "n": 2, "edges": [[0, 1]]}, {"stacks": [0, 1]}],
            "graph document has both 'family' and 'edges': give one",
        ),
        ("simulate", [P5_GRAPH, {}], "configuration document missing field 'stacks'"),
        (
            "simulate",
            [P5_GRAPH, {"stacks": [0, 2, 0, 4, "1"]}],
            "configuration document: field 'stacks': expected a list of integers",
        ),
        (
            "period",
            [P5_GRAPH, {"stacks": [0, 1, 2]}],
            "configuration document: field 'stacks': "
            "expected 5 values for a graph on 5 vertices, got 3",
        ),
        ("render", [{}], "polyomino document missing field 'strips'"),
        (
            "render",
            [{"strips": [[1, 2, 3]]}],
            "polyomino document: field 'strips': expected a list of [offset, length] integer pairs",
        ),
        ("render", [{"strips": [[0, 2], [4, 2]]}], "polyomino document: strips[1]: offset 4 outside 1..3"),
        ("map", [{"strips": [[0, 2], [4, 2]]}], "polyomino document: strips[1]: offset 4 outside 1..3"),
        ("map", [{"stacks": [0, 2.9]}], "input document: field 'stacks': expected a list of integers"),
        ("map", [{"stacks": []}], "input document: field 'stacks': expected a nonempty list of integers"),
        (
            "map",
            [{"strips": [[0, 1]], "stacks": [0]}],
            "input document has both 'strips' and 'stacks': give one",
        ),
        (
            "period",
            ["missing.json", P5_CONFIG],
            "cannot read graph document from missing.json: "
            "[Errno 2] No such file or directory: 'missing.json'",
        ),
        ("period", [[0, 1], P5_CONFIG], "graph document must be a JSON object"),
        # refused before a drawing or a stack list is built
        (
            "render",
            [{"strips": [[0, 10**30]]}],
            f"polyomino document: field 'strips': the drawing would take {10**30} characters, "
            "capped at 10000000",
        ),
        (
            "render",
            [{"strips": [[0, 2], [3, 10**12]]}],
            "polyomino document: field 'strips': the drawing would take 1999999999999 "
            "characters, capped at 10000000",
        ),
        (
            "map",
            [{"strips": [[0, 10**30]]}],
            f"input document: field 'strips': {10**30} cells, capped at 1000000",
        ),
    ],
)
def test_document_errors_name_their_document_once(
    tmp_path, monkeypatch, capsys, command, docs, line
):
    # a string names a file, relative to tmp_path, that is never written
    monkeypatch.chdir(tmp_path)
    paths = [
        doc if isinstance(doc, str) else write_doc(tmp_path, f"doc{i}.json", doc)
        for i, doc in enumerate(docs)
    ]
    steps = ["--steps", "1"] if command == "simulate" else []
    assert invoke([command, *paths, *steps], capsys) == (2, "", f"error: {line}\n")


# sizes once refused by an edge cap, and one no build could hold
@pytest.mark.parametrize(
    "family, n",
    [("complete", 2001), ("cycle", 2 * 10**6 + 1), ("path", 2 * 10**6 + 2), ("star", 10**12)],
    ids=["complete", "cycle", "path", "star"],
)
def test_a_family_document_is_checked_against_its_stacks_before_any_build(
    tmp_path, monkeypatch, capsys, family, n
):
    def refuse(*args):
        raise AssertionError("a graph was built")

    for constructor in ("Graph", "complete", "cycle", "path", "star"):
        monkeypatch.setattr(graphs, constructor, refuse)
    g = write_doc(tmp_path, "g.json", {"family": family, "n": n})
    c = write_doc(tmp_path, "c.json", P5_CONFIG)
    line = f"configuration document: field 'stacks': expected {n} values for a graph on {n} vertices, got 5"
    for argv in (["period", g, c], ["simulate", g, c, "--steps", "1"]):
        assert invoke(argv, capsys) == (2, "", f"error: {line}\n")


def test_period_on_k_100000_closes_on_a_reflected_pair(tmp_path, capsys):
    # the paper's identity at scale: the two members of the cycle, sorted and
    # normalized, are the images of a polyomino and of its reflection
    n = 10**5
    rng = random.Random(0)
    g = write_doc(tmp_path, "g.json", {"family": "complete", "n": n})
    c = write_doc(tmp_path, "c.json", {"stacks": [rng.randint(0, 10**6) for _ in range(n)]})
    code, out, err = invoke(["period", g, c], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["preperiod"], report["period"]) == (6, 2)
    a, b = (diffusion.normalize(sorted(config["stacks"])) for config in report["configs"])
    x = bijection.config_to_poly(a)
    assert x.cells == n
    assert bijection.poly_to_config(polyomino.reflect(x)) == b


# --- count --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mode,n,expected",
    [
        ("recurrence", 11, "66441"),
        ("gf", 9, "6466"),
        ("enumerate", 4, "19"),
        ("brute", 3, "6"),
        ("labelled", 3, "19"),
    ],
)
def test_count_modes(mode, n, expected, capsys):
    code, out, _ = invoke(["count", "--mode", mode, "--n", str(n)], capsys)
    assert code == 0
    assert json.loads(out) == {"n": n, "count": expected}


def test_count_serializes_counts_as_strings(capsys):
    _, out, _ = invoke(["count", "--mode", "recurrence", "--n", "80"], capsys)
    doc = json.loads(out)
    assert isinstance(doc["count"], str)
    assert int(doc["count"]) > 10**30


def test_count_range_csv(capsys):
    code, out, _ = invoke(["count", "--mode", "gf", "--upto", "5"], capsys)
    assert code == 0
    assert out == "n,count\n1,1\n2,2\n3,6\n4,19\n5,61\n"


def test_count_range_builds_one_table(monkeypatch, capsys):
    calls = []
    real = counting.recurrence_counts
    monkeypatch.setattr(counting, "recurrence_counts", lambda n: calls.append(n) or real(n))
    code, out, _ = invoke(["count", "--mode", "recurrence", "--upto", "30"], capsys)
    assert code == 0
    assert calls == [30]
    assert out.splitlines()[-1] == f"30,{real(30)[-1]}"


@pytest.mark.parametrize("mode", ["recurrence", "gf"])
def test_count_single_n_builds_no_table(mode, monkeypatch, capsys):
    def refuse(n_max):
        raise AssertionError("a single count built a table")

    monkeypatch.setattr(counting, "recurrence_counts", refuse)
    monkeypatch.setattr(counting, "gf_coefficients", refuse)
    code, out, err = invoke(["count", "--mode", mode, "--n", "30"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 30, "count": str(counting.recurrence_count(30))}


@pytest.mark.parametrize(
    "mode, upto",
    [("recurrence", 40), ("gf", 40), ("enumerate", 6), ("brute", 5)],
    ids=["recurrence", "gf", "enumerate", "brute"],
)
def test_count_single_n_equals_table_rows(mode, upto, capsys):
    code, table, _ = invoke(["count", "--mode", mode, "--upto", str(upto)], capsys)
    assert code == 0
    for k, row in enumerate(table.splitlines()[1:], start=1):
        code, out, _ = invoke(["count", "--mode", mode, "--n", str(k)], capsys)
        assert code == 0
        assert row == f"{k},{json.loads(out)['count']}"


def test_count_labelled_table_rows_equal_single_counts(monkeypatch, capsys):
    calls = []
    real = counting.labelled_period_counts
    monkeypatch.setattr(counting, "labelled_period_counts", lambda n: calls.append(n) or real(n))
    code, table, _ = invoke(["count", "--mode", "labelled", "--upto", "20"], capsys)
    assert code == 0
    assert calls == [20]
    rows = table.splitlines()
    assert rows[0] == "n,count" and len(rows) == 21
    for k, row in enumerate(rows[1:], start=1):
        code, out, _ = invoke(["count", "--mode", "labelled", "--n", str(k)], capsys)
        assert code == 0
        assert row == f"{k},{json.loads(out)['count']}"


def test_count_labelled_large_n(capsys):
    # n = 120 has 2^119 compositions: only a polynomial-cost count finishes
    code, out, err = invoke(["count", "--mode", "labelled", "--n", "120"], capsys)
    assert code == 0, err
    count = json.loads(out)["count"]
    assert len(count) >= 200
    assert int(count) == counting.labelled_period_counts(120)[-1]


def test_count_beyond_int_digit_limit(capsys):
    # a(20000) has 10,118 digits, more than the default int->str limit of 4300
    outputs = []
    for mode in ("recurrence", "gf"):
        code, out, err = invoke(["count", "--mode", mode, "--n", "20000"], capsys)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["count"]) == 10118


def test_count_needs_exactly_one_target(capsys):
    code, _, err = invoke(["count", "--mode", "gf"], capsys)
    assert code == 2
    code, _, err = invoke(["count", "--mode", "gf", "--n", "3", "--upto", "4"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "mode, cap",
    [("brute", 8), ("enumerate", 15), ("labelled", 1000)],
    ids=["brute", "enumerate", "labelled"],
)
def test_count_cap(capsys, mode, cap):
    # refused before any walk or table: the scans for n = 1..8 alone take
    # seconds, the enumeration at 15 cells alone about eight, and the labelled
    # table at 2000 about 25
    for flag in ("--n", "--upto"):
        started = time.perf_counter()
        code, out, err = invoke(["count", "--mode", mode, flag, str(cap + 1)], capsys)
        assert time.perf_counter() - started < 1.0
        assert (code, out, err) == (2, "", f"error: {flag} for mode {mode!r} is capped at {cap}\n")


def test_count_brute_runs_at_its_cap(capsys):
    # the scan runs at its cap, as the README documents
    code, out, err = invoke(["count", "--mode", "brute", "--n", "8"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 8, "count": "2017"}


# --- verify -------------------------------------------------------------------------


def test_verify_small_scale_passes(capsys):
    code, out, _ = invoke(
        ["verify", "--max-unlabelled", "4", "--max-labelled", "3", "--max-reflect", "5"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 4
    summary = json.loads(lines[-1])
    assert summary["ok"] is True
    assert set(summary["checks"]) == {
        "count-triple-agreement",
        "bijection-image",
        "fire-reflect",
        "labelled-oracle",
    }
    assert ", ".join(str(v) for v in counting.REFERENCE_COUNTS) in out
    assert summary["params"] == {"max_unlabelled": 4, "max_labelled": 3, "max_reflect": 5}
    # each check's time, in seconds, under the check's own name
    elapsed = summary["elapsed_s"]
    assert set(elapsed) == set(summary["checks"])
    assert all(type(seconds) is float and 0 <= seconds < 60 for seconds in elapsed.values())


def test_verify_trivial_caps_pass(capsys):
    code, out, _ = invoke(
        ["verify", "--max-unlabelled", "1", "--max-labelled", "1", "--max-reflect", "1"],
        capsys,
    )
    assert code == 0


# each check, with a fault in the one function only it calls, and its FAIL detail
VERIFY_FAULTS = [
    (
        "count-triple-agreement",
        counting,
        "recurrence_counts",
        lambda n: [1] * n,
        "n=1..11: " + ", ".join(["1"] * 11),
    ),
    ("bijection-image", counting, "brute_force_period_multisets", lambda n: [], "mismatch at n=1"),
    (
        "fire-reflect",
        bijection,
        "check_fire_reflect",
        lambda x: False,
        "firing does not match reflection for ((0, 1),)",
    ),
    ("labelled-oracle", counting, "brute_force_labelled", lambda n: 0, "n=1: formula 1 vs scan 0"),
]


@pytest.mark.parametrize(
    "check, module, function, fault, detail", VERIFY_FAULTS, ids=[case[0] for case in VERIFY_FAULTS]
)
def test_verify_reports_injected_fault(monkeypatch, capsys, check, module, function, fault, detail):
    monkeypatch.setattr(module, function, fault)
    code, out, _ = invoke(
        ["verify", "--max-unlabelled", "2", "--max-labelled", "2", "--max-reflect", "2"],
        capsys,
    )
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL  {check}: {detail}"
    ]
    summary = json.loads(out.splitlines()[-1])
    assert summary["ok"] is False
    assert [name for name, ok in summary["checks"].items() if not ok] == [check]


def test_verify_count_agreement_checks_the_top_block_count(monkeypatch):
    # the one unlabelled method that does not come from the cubic
    assert verify_count_agreement(11)[0] is True
    monkeypatch.setattr(counting, "_top_block_counts", lambda n_max, labelled: [1] * n_max)
    assert verify_count_agreement(11)[0] is False


def test_verify_validates_caps(capsys):
    code, _, err = invoke(["verify", "--max-labelled", "9"], capsys)
    assert code == 2
    assert "max-labelled" in err


# the graph and configuration documents do not exist: a bad flag is refused first
FLAG_FAULTS = [
    (["simulate", "missing.json", "missing.json", "--steps", "-1"], "--steps must be nonnegative"),
    (["period", "missing.json", "missing.json", "--max-steps", "0"], "--max-steps must be at least 1"),
    (["count", "--mode", "recurrence", "--n", "0"], "--n must be at least 1"),
    (["count", "--mode", "recurrence", "--upto", "0"], "--upto must be at least 1"),
    (["verify", "--max-unlabelled", "9"], "--max-unlabelled must be in 1..8"),
    (["verify", "--max-reflect", "12"], "--max-reflect must be in 1..11"),
]


@pytest.mark.parametrize("argv, line", FLAG_FAULTS, ids=[argv[-2] for argv, _ in FLAG_FAULTS])
def test_flag_faults_exit_2(tmp_path, monkeypatch, capsys, argv, line):
    monkeypatch.chdir(tmp_path)
    assert invoke(argv, capsys) == (2, "", f"error: {line}\n")


# --- each bound admits its own value ------------------------------------------------
# where a run at the bound would take seconds, the work behind the check is stubbed


def test_verify_takes_each_flag_at_its_cap(monkeypatch, capsys):
    sizes = {}

    def stub(check):
        def run(n):
            sizes[check] = n
            return True, "stubbed"

        return run

    for check in ("verify_count_agreement", "verify_image", "verify_fire_reflect", "verify_labelled"):
        monkeypatch.setattr(cli, check, stub(check))
    caps = ["--max-unlabelled", "8", "--max-labelled", str(counting.LABELLED_CAP), "--max-reflect", "11"]
    code, out, err = invoke(["verify", *caps], capsys)
    assert (code, err) == (0, "")
    assert sizes == {
        "verify_count_agreement": len(counting.REFERENCE_COUNTS),
        "verify_image": 8,
        "verify_fire_reflect": 11,
        "verify_labelled": counting.LABELLED_CAP,
    }


def test_enumerate_render_and_map_take_sizes_at_their_caps(tmp_path, monkeypatch, capsys):
    assert invoke(["enumerate", "--n", "1"], capsys) == (0, '{"strips": [[0, 1]]}\n', "")
    monkeypatch.setattr(cli, "_walked_count", lambda n: -n)
    assert invoke(["enumerate", "--n", "15", "--count-only"], capsys) == (0, "-15\n", "")
    monkeypatch.setattr(polyomino, "render_ascii", lambda x: "drawn")
    x = write_doc(tmp_path, "x.json", {"strips": [[0, 10**7]]})
    assert invoke(["render", x], capsys) == (0, "drawn\n", "")
    monkeypatch.setattr(bijection, "poly_to_config", lambda x: (x.cells,))
    x = write_doc(tmp_path, "x.json", {"strips": [[0, 10**6]]})
    code, out, err = invoke(["map", x], capsys)
    assert (code, json.loads(out), err) == (0, {"stacks": [10**6]}, "")


def test_period_and_simulate_take_step_counts_at_their_bounds(tmp_path, monkeypatch, capsys):
    g = write_doc(tmp_path, "g.json", P5_GRAPH)
    c = write_doc(tmp_path, "c.json", {"stacks": [1] * 5})
    code, out, err = invoke(["period", g, c, "--max-steps", "1"], capsys)
    assert (code, json.loads(out)["period"], err) == (0, 1, "")
    # the first rows of a trajectory of sys.maxsize steps
    rows = []
    monkeypatch.setattr(cli, "_emit", lambda chunks, out_path: rows.extend(islice(chunks, 3)))
    argv = ["simulate", g, c, "--steps", str(sys.maxsize), "--format", "csv"]
    assert invoke(argv, capsys) == (0, "", "")
    assert rows == ["1,1,1,1,1", "\n1,1,1,1,1", "\n1,1,1,1,1"]


def test_simulate_refuses_steps_past_maxsize_before_writing(tmp_path, capsys):
    # the trajectory closes at step 5, and no step count past sys.maxsize can be
    # streamed to its end: nothing is written, not even the opening bracket
    g = write_doc(tmp_path, "g.json", P5_GRAPH)
    c = write_doc(tmp_path, "c.json", P5_CONFIG)
    out_path = tmp_path / "traj.json"
    steps = str(sys.maxsize + 1)
    for out in ([], ["--out", str(out_path)]):
        assert invoke(["simulate", g, c, "--steps", steps, *out], capsys) == (
            2,
            "",
            f"error: --steps is capped at sys.maxsize = {sys.maxsize}\n",
        )
    assert not out_path.exists()


# --- general ------------------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = invoke(["frobnicate"], capsys)
    assert code == 2


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    p = write_doc(tmp_path, "x.json", {"strips": [[0, 2]]})
    g = write_doc(tmp_path, "g.json", P5_GRAPH)
    c = write_doc(tmp_path, "c.json", P5_CONFIG)
    missing = tmp_path / "missing" / "x.json"
    for argv, target in [
        (["count", "--mode", "gf", "--n", "5"], tmp_path),
        (["map", p], missing),
        (["simulate", g, c, "--steps", "9"], tmp_path),
        (["simulate", g, c, "--steps", "9", "--format", "csv"], missing),
        (["period", g, c], tmp_path),
        (["period", g, c], missing),
    ]:
        code, out, err = invoke(argv + ["--out", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write output to {target}: ")


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", "3", "--json"],
        ["verify", "--max-unlabelled", "1", "--max-labelled", "1", "--max-reflect", "1"],
    ],
)
def test_closed_stdout_exits_2_quietly(capsys, monkeypatch, argv):
    # capsys first: monkeypatch's undo then runs before capsys's teardown, which
    # restores the real stdout; the other order leaves sys.stdout on capsys's
    # closed buffer, and under pytest -s the session's last print fails on it
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(argv)
    assert (code, capsys.readouterr().err) == (2, "")


def boardpile_process(argv, stdout, *interpreter_flags):
    # a block-buffered stdout, as in an ordinary shell pipeline
    src = str(Path(boardpile.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    command = [sys.executable, *interpreter_flags, "-m", "boardpile", *argv]
    return subprocess.Popen(command, stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_closed_stdout_pipe_exits_2_without_a_traceback():
    # the reader takes one line of a 20,727-line stream and closes the pipe
    with boardpile_process(["enumerate", "--n", "10", "--json"], subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert json.loads(first) == {"strips": [[0, 1]] + [[1, 1]] * 9}
    assert (proc.returncode, err) == (2, b"")


def test_pipe_closed_before_the_exit_flush_exits_2_without_a_traceback():
    # the whole answer sits in the buffer until the interpreter would flush it at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    with boardpile_process(["count", "--mode", "recurrence", "--n", "11"], write_end) as proc:
        os.close(write_end)
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, b"")


def test_a_process_parses_documents_under_its_own_digit_limit(tmp_path):
    # 700 digits pass the default limit but not this interpreter's 640; the
    # count's 10,118 digits are written all the same
    flags = ("-X", "int_max_str_digits=640")
    p = tmp_path / "c.json"
    p.write_text('{"stacks": [' + "9" * 700 + "]}", encoding="utf-8")
    with boardpile_process(["map", str(p)], subprocess.PIPE, *flags) as proc:
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (2, b"")
    assert err.startswith(b"error: invalid JSON in input document: ") and b"700 digits" in err
    argv = ["count", "--mode", "gf", "--n", "20000"]
    with boardpile_process(argv, subprocess.PIPE, *flags) as proc:
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
    assert len(json.loads(out)["count"]) == 10118


# --- the boundary, fuzzed -------------------------------------------------------------

# Each example runs one subcommand through main() on drawn documents and flags,
# either all well-formed or malformed anywhere.  Sizes are drawn well below what
# takes a second under the fire audit (a brute-force scan of n = 8 takes 3.7 s
# there, a default verify 1.1 s), so every example must finish within this budget.
_FUZZ_BUDGET_S = 2.0


class _Literal(str):
    """JSON text written as it is, for what json.dumps cannot make."""


# an integer literal one digit past the digit limit documents are parsed under
_PAST_DIGIT_LIMIT = _Literal("1" + "0" * sys.get_int_max_str_digits())

_JUNK = st.sampled_from(
    [True, False, None, 2.5, -0.0, float("nan"), float("inf"), "3", "", [], {}, [[1, 2]],
     _PAST_DIGIT_LIMIT]
)
_INTEGERS = st.one_of(st.integers(-3, 9), st.sampled_from([10**30, -(10**30)]))

# documents that are no JSON object: not UTF-8, not JSON, nested past the
# stack, or another JSON value
_NOT_AN_OBJECT = st.sampled_from(
    [b"", b"\xff\xfe", b"{", b"[]", b"3", b"null", b'"stacks"', b"[" * 100_000, b"{}x"]
)

# flag text that argparse refuses for an int
_NOT_A_NUMBER = st.sampled_from(["2.5", "x", "", "0x3", str(_PAST_DIGIT_LIMIT)])


def _json(value) -> str:
    if isinstance(value, _Literal):
        return value
    if isinstance(value, list):
        return "[" + ", ".join(map(_json, value)) + "]"
    return json.dumps(value)


@st.composite
def _valid_strips(draw):
    """A polyomino's strips, bottom first, each touching the one below."""
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    strips = [[0, lengths[0]]]
    for below, length in pairwise(lengths):
        strips.append([draw(st.integers(1, below + length - 1)), length])
    return strips


@st.composite
def _spoilt_strips(draw):
    """Valid strips with one offset or length out of range, or one strip past
    render's and map's caps (or just below them)."""
    strips = draw(_valid_strips())
    k = draw(st.integers(0, len(strips) - 1))
    spoil = draw(st.sampled_from(["offset", "length", "huge"]))
    if spoil == "offset":
        strips[k][0] = draw(st.sampled_from([0, -1, 11, 10**30]))
    elif spoil == "length":
        strips[k][1] = draw(st.sampled_from([0, -2]))
    else:
        strips = [[0, draw(st.sampled_from([10**4, 10**8, 10**30]))]]
    return strips


def _image():
    """The stacks of a polyomino's image, which map turns back into its strips."""
    return _valid_strips().map(
        lambda strips: list(bijection.poly_to_config(polyomino.BoardPilePolyomino(strips)))
    )


@st.composite
def _cli_runs(draw):
    """(argv, {file name: bytes}, stdin bytes) for one run of one subcommand."""
    command = draw(
        st.sampled_from(["simulate", "period", "enumerate", "render", "map", "count", "verify"])
    )
    malformed = draw(st.booleans())
    files, argv, stdin = {}, [command], []

    def pick(good, *bad):
        """A draw from good, or when malformed from good or any of bad."""
        return draw(st.one_of(good, *bad) if malformed else good)

    def document(name, fields):
        """A path to an object of these fields (name: value), each given once
        or twice, and malformed perhaps dropped, or no object at all; or stdin;
        or, malformed, a missing file."""
        if malformed and draw(st.integers(0, 9)) == 0:
            files[name] = draw(_NOT_AN_OBJECT)
        else:
            members = []
            for key, value in fields.items():
                copies = pick(st.sampled_from([1, 1, 1, 2]), st.just(0))
                members += [f"{json.dumps(key)}: {_json(value)}" for _ in range(copies)]
            files[name] = ("{" + ", ".join(draw(st.permutations(members))) + "}").encode()
        path = pick(st.sampled_from([name, name, "-"]), st.just("missing.json"))
        if path == "-":
            stdin.append(files[name])
        return path

    def size(flag, good, *bad):
        """The flag and its text: a number drawn from good, or bad text when malformed."""
        return [flag, pick(good.map(str), *(b.map(str) for b in bad), _NOT_A_NUMBER)]

    out = pick(
        st.sampled_from([[], ["--out", "out.txt"], ["--out", "-"]]),
        st.just(["--out", "no/such/dir/out.txt"]),
    )
    if command in ("simulate", "period"):
        n = draw(st.integers(0, 6))
        ordered = [[u, v] for u in range(n) for v in range(n) if u != v]
        pairs = st.lists(st.sampled_from(ordered), unique_by=frozenset) if n > 1 else st.just([])
        endpoint = st.one_of(st.integers(0, max(n - 1, 0)), _INTEGERS, _JUNK)
        bad_pair = st.lists(endpoint, max_size=3)
        fields = pick(st.sampled_from([{"edges"}, {"family"}]), st.just({"family", "edges"}))
        graph = {"n": pick(st.just(n), _INTEGERS, _JUNK)}
        if "family" in fields:
            graph["family"] = pick(st.sampled_from(cli._FAMILIES), st.text(max_size=4), _JUNK)
        if "edges" in fields:
            graph["edges"] = pick(pairs, st.lists(st.one_of(pairs, bad_pair)), _JUNK)
        stacks = pick(
            st.lists(_INTEGERS, min_size=n, max_size=n),
            st.lists(_INTEGERS, max_size=8),
            st.lists(st.one_of(_INTEGERS, _JUNK), min_size=1, max_size=8),
            _JUNK,
        )
        argv += [document("graph.json", graph), document("config.json", {"stacks": stacks})]
        if command == "simulate":
            past = st.just(sys.maxsize + 1)
            argv += size("--steps", st.integers(0, 40), st.integers(-2, -1), past)
            argv += pick(
                st.sampled_from([[], ["--format", "csv"], ["--format", "json"]]),
                st.just(["--format", "xml"]),
            )
        elif draw(st.booleans()):
            argv += size("--max-steps", st.integers(1, 300), st.integers(-1, 0))
        argv += out
    elif command == "enumerate":
        mode = pick(
            st.sampled_from([[], ["--json"], ["--ascii"], ["--count-only"]]),
            st.just(["--json", "--ascii"]),
        )
        # only --count-only is capped: the streams grow with n
        counted = mode == ["--count-only"]
        largest, past = (10, cli._ENUMERATE_CAP + 1) if counted else (7, 0)
        argv += size("--n", st.integers(1, largest), st.integers(-1, 0), st.just(past)) + mode
    elif command == "render":
        entries = st.lists(st.one_of(st.lists(_INTEGERS, max_size=3), _JUNK), max_size=4)
        strips = pick(_valid_strips(), _spoilt_strips(), entries, _JUNK)
        argv.append(document("strips.json", {"strips": strips}))
    elif command == "map":
        stacks = st.lists(st.integers(-3, 6), min_size=1, max_size=8)
        fields = pick(
            st.one_of(
                st.fixed_dictionaries({"strips": _valid_strips()}),
                st.fixed_dictionaries({"stacks": st.one_of(_image(), stacks)}),
            ),
            st.fixed_dictionaries({"strips": _spoilt_strips()}),
            st.fixed_dictionaries({"strips": _valid_strips(), "stacks": _image()}),
            st.fixed_dictionaries({"stacks": st.lists(st.one_of(_INTEGERS, _JUNK), max_size=8)}),
            st.just({}),
        )
        argv.append(document("map.json", fields))
        argv += pick(st.sampled_from([[], ["--check"]])) + out
    elif command == "count":
        modes = ["recurrence", "gf", "labelled", "enumerate", "brute"]
        mode = pick(st.sampled_from(modes), st.just("x"))
        largest = {"recurrence": 300, "gf": 300, "labelled": 60, "enumerate": 9, "brute": 6}
        caps = [cli._LABELLED_TABLE_CAP + 1, cli._ENUMERATE_CAP + 1, counting.UNLABELLED_CAP + 1]
        argv += ["--mode", mode]
        flags = pick(
            st.sampled_from([["--n"], ["--upto"]]), st.sampled_from([["--n", "--upto"], []])
        )
        good = st.integers(1, largest.get(mode, 3))
        for flag in flags:
            argv += size(flag, good, st.integers(-1, 0), st.sampled_from(caps))
        argv += out
    else:
        for flag, largest, cap in (
            ("--max-unlabelled", 5, counting.UNLABELLED_CAP),
            ("--max-labelled", 4, counting.LABELLED_CAP),
            ("--max-reflect", 8, cli._REFLECT_CAP),
        ):
            argv += size(flag, st.integers(1, largest), st.integers(-1, 0), st.just(cap + 1))
    return argv, files, b"".join(stdin[:1])


def _run_in(directory, argv, files, stdin):
    """main(argv) with the files written into directory and their names made
    paths there; its exit code, elapsed seconds and stderr."""
    for name, data in files.items():
        Path(directory, name).write_bytes(data)
    argv = [str(Path(directory, a)) if a.endswith((".json", ".txt")) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with (
        mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    return code, time.perf_counter() - started, err.getvalue()


@settings(deadline=None, max_examples=300)
@given(_cli_runs())
@example((["map", "-"], {"map.json": b"[" * 100_000}, b"[" * 100_000))
@example((["count", "--mode", "gf", "--n", str(_PAST_DIGIT_LIMIT)], {}, b""))
def test_every_drawn_command_line_exits_0_1_or_2_in_time(run):
    argv, files, stdin = run
    with tempfile.TemporaryDirectory() as directory:
        code, elapsed, err = _run_in(directory, argv, files, stdin)
    event(f"{argv[0]} exits {code}")
    assert code in (0, 1, 2), (code, err)
    assert elapsed < _FUZZ_BUDGET_S, f"{argv} took {elapsed:.2f} s"
    # a refusal says why on stderr
    if code:
        assert err.startswith(("error: ", "usage: ")), err

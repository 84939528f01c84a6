import json
import sys

import pytest

import boardpile.counting as counting
from boardpile.cli import main

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


# --- enumerate / render ----------------------------------------------------------


def test_enumerate_count_only(capsys):
    code, out, _ = invoke(["enumerate", "--n", "4", "--count-only"], capsys)
    assert code == 0
    assert out.strip() == "19"


def test_enumerate_json_lines(capsys):
    code, out, _ = invoke(["enumerate", "--n", "2", "--json"], capsys)
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert docs == [{"strips": [[0, 1], [1, 1]]}, {"strips": [[0, 2]]}]


def test_enumerate_ascii(capsys):
    code, out, _ = invoke(["enumerate", "--n", "2", "--ascii"], capsys)
    assert code == 0
    assert out == "#\n#\n\n##\n"


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


def test_map_rejects_integer_past_digit_limit(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text('{"stacks": [' + "9" * 5000 + "]}", encoding="utf-8")
    code, _, err = invoke(["map", str(p)], capsys)
    assert code == 2
    assert "invalid JSON" in err


def test_map_rejects_nesting_past_recursion_limit(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, _, err = invoke(["map", str(p)], capsys)
    assert code == 2
    assert "invalid JSON" in err


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
    assert int(count) == counting.labelled_period_count(120)


def test_count_beyond_int_digit_limit(capsys):
    # a(20000) has 10,118 digits, more than the default int->str limit of 4300
    limit = sys.get_int_max_str_digits()
    outputs = []
    for mode in ("recurrence", "gf"):
        code, out, err = invoke(["count", "--mode", mode, "--n", "20000"], capsys)
        assert code == 0, err
        outputs.append(out)
        assert sys.get_int_max_str_digits() == limit
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["count"]) == 10118


def test_count_needs_exactly_one_target(capsys):
    code, _, err = invoke(["count", "--mode", "gf"], capsys)
    assert code == 2
    code, _, err = invoke(["count", "--mode", "gf", "--n", "3", "--upto", "4"], capsys)
    assert code == 2


def test_count_brute_cap(capsys):
    code, _, err = invoke(["count", "--mode", "brute", "--n", "9"], capsys)
    assert code == 2
    assert "capped" in err


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


def test_verify_trivial_caps_pass(capsys):
    code, out, _ = invoke(
        ["verify", "--max-unlabelled", "1", "--max-labelled", "1", "--max-reflect", "1"],
        capsys,
    )
    assert code == 0


def test_verify_reports_injected_fault(monkeypatch, capsys):
    monkeypatch.setattr(counting, "recurrence_counts", lambda n: [1] * n)
    code, out, _ = invoke(
        ["verify", "--max-unlabelled", "2", "--max-labelled", "2", "--max-reflect", "2"],
        capsys,
    )
    assert code == 1
    assert any(
        line.startswith("FAIL") and "count-triple-agreement" in line
        for line in out.splitlines()
    )
    summary = json.loads(out.splitlines()[-1])
    assert summary["ok"] is False
    assert summary["checks"]["count-triple-agreement"] is False


def test_verify_validates_caps(capsys):
    code, _, err = invoke(["verify", "--max-labelled", "9"], capsys)
    assert code == 2
    assert "max-labelled" in err


# --- general ------------------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = invoke(["frobnicate"], capsys)
    assert code == 2

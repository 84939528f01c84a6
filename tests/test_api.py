import ast
import copy
import io
import os
import pickle
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import boardpile
from boardpile import BoardPilePolyomino, Graph, InvalidPolyomino, Orientation, PeriodReport
from boardpile.polyomino import _trusted

# names the package exported once and no longer does
REMOVED = (
    "multinomial",
    "ordered_bell",
    "enable_fire_audit",
    "get_fire_audit",
    "disable_fire_audit",
    "from_edge_list",
    "equivalent",
    "validate",
    "CompleteConfig",
    "labelled_period_count",
    "brute_force_unlabelled",
    "CharacteristicRoots",
)


def test_every_exported_name_resolves():
    missing = [name for name in boardpile.__all__ if not hasattr(boardpile, name)]
    assert missing == []
    assert len(set(boardpile.__all__)) == len(boardpile.__all__)


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in boardpile.__all__
        assert not hasattr(boardpile, name)


def test_readme_library_tour_runs():
    # each tour line whose trailing comment is a Python literal must evaluate to it
    readme = Path(__file__).resolve().parents[1] / "README.md"
    tour = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(tour).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(tour).body:
        try:
            expected = ast.literal_eval(comments[stmt.lineno])
        except (KeyError, ValueError, SyntaxError):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr), ast.unparse(stmt)
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert value == expected, ast.unparse(stmt)
        checked.append(expected)
    assert (0, 0, 3, 3, 5, 5, 5, 5, 8, 8) in checked
    assert 66441 in checked


# (a value, an equal one built apart, a different one, its repr, a field name)
VALUES = [
    (
        PeriodReport(3, 2, ((1, 0, 3), (0, 2, 1))),
        PeriodReport(3, 2, ((1, 0, 3), (0, 2, 1))),
        PeriodReport(3, 1, ((1, 0, 3),)),
        "PeriodReport(preperiod=3, period=2, period_configs=((1, 0, 3), (0, 2, 1)))",
        "period",
    ),
    (
        BoardPilePolyomino(((0, 2), (3, 2))),
        BoardPilePolyomino([[0, 2], [3, 2]]),
        BoardPilePolyomino(((0, 2), (2, 2))),
        "BoardPilePolyomino(strips=((0, 2), (3, 2)))",
        "strips",
    ),
    (
        Orientation(frozenset({(1, 0)}), frozenset()),
        Orientation(frozenset({(1, 0)}), frozenset()),
        Orientation(frozenset(), frozenset({(0, 1)})),
        "Orientation(arcs=frozenset({(1, 0)}), flat=frozenset())",
        "arcs",
    ),
    (
        Graph(2, [(0, 1)]),
        Graph(2, [(1, 0)]),
        Graph(2),
        "Graph(n=2, m=1)",
        "n",
    ),
]


@pytest.mark.parametrize("value, twin, other, text, field", VALUES, ids=lambda v: type(v).__name__)
def test_result_classes_behave_as_values(value, twin, other, text, field):
    assert value == twin and hash(value) == hash(twin)
    assert value != other
    assert type(value).__eq__(value, object()) is NotImplemented
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)


def test_polyomino_check_has_no_back_door():
    x = BoardPilePolyomino(((0, 2), (3, 2)))
    with pytest.raises(InvalidPolyomino):
        BoardPilePolyomino._make([((1, 2),)])
    with pytest.raises(InvalidPolyomino):
        x._replace(strips=((0, 2), (9, 2)))
    # pickle and deepcopy rebuild through the reduction's constructor call
    rebuild, args = x.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
    assert rebuild(*args) == x
    with pytest.raises(InvalidPolyomino):
        rebuild(args[0], ((1, 2),))
    trusted = _trusted(((0, 2), (3, 2)))
    assert type(trusted) is BoardPilePolyomino
    assert trusted == x and hash(trusted) == hash(x)


def test_result_values_are_tuples():
    report = boardpile.detect_period(boardpile.path(5), (0, 2, 0, 4, 1))
    preperiod, period, configs = report
    assert (preperiod, period) == (3, 2)
    assert configs == ((1, 0, 3, 1, 2), (0, 2, 1, 3, 1))
    assert report == (preperiod, period, configs)
    x = BoardPilePolyomino(((0, 2), (3, 2)))
    assert len(x) == 1 and x == (((0, 2), (3, 2)),)
    assert hash(x) == hash((x.strips,))


def test_cli_import_loads_neither_dataclasses_nor_typing():
    # each of these costs the CLI's cold start milliseconds on every run; -S
    # keeps site's .pth files, which may import typing themselves, out of it
    src = str(Path(boardpile.__file__).resolve().parents[1])
    probe = "import sys, boardpile.cli; print(*sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == []

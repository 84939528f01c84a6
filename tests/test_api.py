import ast
import copy
import io
import json
import os
import pickle
import subprocess
import sys
import tokenize
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import boardpile
from boardpile import BoardPilePolyomino, Graph, InvalidPolyomino, NoRepeatWithinBudget, PeriodReport
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
    "Orientation",
    "orientation_of",
)

LIBRARY_MODULES = ("graphs", "diffusion", "polyomino", "bijection", "counting")


def fresh_python(code: str, *args: str) -> str:
    """Stdout of `code` run in a new interpreter that finds this boardpile;
    -S keeps site's .pth files, which may import modules themselves, out of it."""
    src = str(Path(boardpile.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


# Run before anything else has imported a library module: the submodules
# resolve as attributes of the package (as the benchmark's tracer reaches them),
# and every exported name, by attribute or by `import *`, is the object of the
# module that defines it.
EXPORT_PROBE = f"""\
import sys
import boardpile
for name in {LIBRARY_MODULES!r}:
    assert "boardpile." + name not in sys.modules, name
    assert getattr(boardpile, name) is sys.modules["boardpile." + name], name
assert set(boardpile.__all__) <= set(dir(boardpile))
namespace = {{}}
exec("from boardpile import *", namespace)
assert set(namespace) - {{"__builtins__"}} == set(boardpile.__all__)
for name in boardpile.__all__:
    value = namespace[name]
    home = value.__module__
    assert home.startswith("boardpile.") and getattr(sys.modules[home], name) is value, name
    assert getattr(boardpile, name) is value, name
print("ok")
"""


def test_every_exported_name_resolves():
    missing = [name for name in boardpile.__all__ if not hasattr(boardpile, name)]
    assert missing == []
    assert len(set(boardpile.__all__)) == len(boardpile.__all__)
    assert fresh_python(EXPORT_PROBE) == "ok\n"


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
    with pytest.raises(AttributeError):
        delattr(value, field)
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)


def test_graph_edges_can_be_neither_assigned_nor_deleted():
    # a deleted `edges` would read back as K_n's: path(3)'s as K_3's three pairs
    unread, read = boardpile.complete(4), boardpile.complete(4)
    assert len(read.edges) == 6
    graphs = (boardpile.path(3), Graph(2, [(0, 1)]), unread, read)
    for g in graphs:
        with pytest.raises(AttributeError):
            g.edges = ()
        with pytest.raises(AttributeError):
            del g.edges
        with pytest.raises(AttributeError):
            g.m = 3
    assert [g.edges for g in graphs[:2]] == [((0, 1), (1, 2)), ((0, 1),)]
    assert unread.edges == read.edges == tuple(combinations(range(4), 2))


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


SIZED = [
    (boardpile.enumerate_board_pile, "cell count"),
    (boardpile.recurrence_counts, "n_max"),
    (boardpile.recurrence_count, "n"),
    (boardpile.gf_coefficients, "n_max"),
    (boardpile.gf_coefficient, "n"),
    (boardpile.labelled_period_counts, "n_max"),
    (boardpile.brute_force_period_multisets, "n"),
    (boardpile.brute_force_labelled, "n"),
]


@pytest.mark.parametrize("size", [2.5, "3", 4.0])
@pytest.mark.parametrize("function, what", SIZED, ids=[f.__name__ for f, _ in SIZED])
def test_sizes_that_are_not_integers_are_refused_by_name(function, what, size):
    with pytest.raises(ValueError) as refused:
        # list() draws from the generator, which checks its size on the first draw
        list(function(size))
    assert str(refused.value) == f"{what} {size!r} is not an integer"


# what a caller may pass where an integer belongs: apart from the bools,
# none of it is one
_JUNK = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.tuples(st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.lists(st.lists(st.integers(0, 3), max_size=2), max_size=2),
)
_VALUES = st.one_of(st.integers(-3, 6), _JUNK)
_GRAPHS = [Graph(0), boardpile.path(3), boardpile.cycle(4), boardpile.complete(8)]
# a data argument given as a list, a tuple or a one-shot iterator, or
# replaced by a value that is not iterable at all
_GIVEN_AS = st.one_of(
    st.sampled_from([list, tuple, iter]),
    st.builds(lambda value: lambda _: value, st.one_of(st.integers(-3, 6), st.floats(), st.booleans(), st.none())),
)


@settings(deadline=None, max_examples=300)
@given(
    stacks=st.one_of(st.lists(st.integers(-3, 6), max_size=8), st.lists(_VALUES, max_size=8)),
    entries=st.lists(st.one_of(st.tuples(_VALUES, _VALUES), _VALUES), max_size=4),
    size=_VALUES,
    g=st.sampled_from(_GRAPHS),
    given_as=_GIVEN_AS,
)
@example(stacks=[0, "a"], entries=[5], size="3", g=_GRAPHS[0], given_as=list)
@example(stacks=[0, None], entries=[None], size=None, g=_GRAPHS[0], given_as=list)
@example(stacks=[], entries=[(0, 1, 2)], size=float("nan"), g=_GRAPHS[0], given_as=list)
@example(stacks=[], entries=[(0,)], size=float("inf"), g=_GRAPHS[0], given_as=list)
@example(stacks=[], entries="ab", size=610, g=_GRAPHS[0], given_as=list)
@example(stacks=[], entries=[], size=10**6, g=_GRAPHS[0], given_as=list)
@example(stacks=[], entries=[], size=1e6, g=_GRAPHS[0], given_as=list)
@example(stacks=[], entries=[], size=3, g=_GRAPHS[1], given_as=lambda _: 5)
@example(stacks=[], entries=[], size=3, g=_GRAPHS[1], given_as=lambda _: None)
@example(stacks=[], entries=[], size=3, g=_GRAPHS[1], given_as=lambda _: 1.5)
def test_library_calls_return_or_refuse_with_a_value_error(stacks, entries, size, g, given_as):
    # each data argument is made afresh for its call, as _GIVEN_AS draws it;
    # a step budget too small is the one other refusal
    calls = [
        (lambda: BoardPilePolyomino(given_as(entries)), InvalidPolyomino),
        (lambda: Graph(size, given_as(entries)), ValueError),
        (lambda: boardpile.fire(g, given_as(stacks)), ValueError),
        (lambda: boardpile.fire_complete(given_as(stacks)), ValueError),
        (lambda: boardpile.normalize(given_as(stacks)), ValueError),
        (lambda: boardpile.is_period_config(g, given_as(stacks)), ValueError),
        (lambda: boardpile.run(g, given_as(stacks), size), ValueError),
        (lambda: boardpile.detect_period(g, given_as(stacks), size), (ValueError, NoRepeatWithinBudget)),
        (lambda: boardpile.config_to_poly(given_as(stacks)), ValueError),
        (lambda: boardpile.asymptotic_estimate(size), ValueError),
    ]
    for call, refusal in calls:
        try:
            call()
        except refusal:
            pass


NOT_ITERABLE = {
    "fire": (lambda: boardpile.fire(boardpile.path(3), 5), ValueError, "5 is not a sequence of stacks"),
    "run": (lambda: boardpile.run(boardpile.path(3), 5, 1), ValueError, "5 is not a sequence of stacks"),
    "detect_period": (
        lambda: boardpile.detect_period(boardpile.path(3), None),
        ValueError,
        "None is not a sequence of stacks",
    ),
    "is_period_config": (
        lambda: boardpile.is_period_config(boardpile.path(3), 7),
        ValueError,
        "7 is not a sequence of stacks",
    ),
    "Graph": (lambda: Graph(3, 5), ValueError, "5 is not a sequence of edges"),
    "BoardPilePolyomino": (lambda: BoardPilePolyomino(5), InvalidPolyomino, "5 is not a sequence of strips"),
    "fire_complete": (lambda: boardpile.fire_complete(None), ValueError, "None is not a sequence of stacks"),
    "config_to_poly": (lambda: boardpile.config_to_poly(None), ValueError, "None is not a sequence of stacks"),
    "normalize": (lambda: boardpile.normalize(1.5), ValueError, "1.5 is not a sequence of stacks"),
}


@pytest.mark.parametrize("call, refusal, message", NOT_ITERABLE.values(), ids=NOT_ITERABLE)
def test_data_that_is_not_iterable_is_refused_by_name(call, refusal, message):
    with pytest.raises(refusal) as refused:
        call()
    assert str(refused.value) == message


def test_cli_import_loads_neither_dataclasses_nor_typing():
    # each of these costs the CLI's cold start milliseconds on every run
    probe = "import sys, boardpile.cli; print(*sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
    assert fresh_python(probe).split() == []


# argv[1] is "package" (import boardpile alone) or "cli" (import boardpile.cli
# and run main on the rest); the last line lists the boardpile modules loaded
FOOTPRINT_PROBE = """\
import sys
import boardpile
if sys.argv[1] == "cli":
    import boardpile.cli
    if sys.argv[2:]:
        assert boardpile.cli.main(sys.argv[2:]) == 0
print(*sorted(name for name in sys.modules if name.split(".")[0] == "boardpile"))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["package"], []),
        (["cli"], ["cli"]),
        (["cli", "enumerate", "--n", "1", "--count-only"], ["cli", "polyomino"]),
        (["cli", "count", "--mode", "gf", "--n", "5"], ["cli", "counting"]),
        (["cli", "period", "GRAPH", "CONFIG"], ["cli", "diffusion", "graphs"]),
        (
            ["cli", "verify", "--max-unlabelled", "1", "--max-labelled", "1", "--max-reflect", "1"],
            ["bijection", "cli", "counting", "diffusion", "graphs", "polyomino"],
        ),
    ],
    ids=["package", "cli", "enumerate", "count", "period", "verify"],
)
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    # every library module a run loads it also compiles, where no bytecode is cached
    documents = {"GRAPH": {"family": "path", "n": 5}, "CONFIG": {"stacks": [0, 2, 0, 4, 1]}}
    for name, doc in documents.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(tmp_path / arg) if arg in documents else arg for arg in argv]
    last_line = fresh_python(FOOTPRINT_PROBE, *argv).splitlines()[-1]
    assert last_line.split() == ["boardpile", *(f"boardpile.{name}" for name in loaded)]

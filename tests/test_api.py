import ast
import io
import tokenize
from pathlib import Path

import boardpile

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

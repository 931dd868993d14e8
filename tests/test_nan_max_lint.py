"""An aggregate over measured values keeps a NaN.

The builtin `max` and `min` compare with `>` and `<`, which are false
against a NaN, so a NaN that is not the first item is skipped and the
aggregate reads a finite value: a broken row passes the check it should
fail.  `np.max` and `np.min` return NaN wherever it stands.  This walk of
the syntax trees of `src/` refuses a builtin `max` or `min` whose one
argument is a generator or a comprehension, the form that aggregates a
run of measured values.
"""

import ast
from pathlib import Path

import crocco_prandtl

COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)


def _builtin_aggregates(tree):
    """`name:line` of each builtin max or min over one generator or
    comprehension."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("max", "min") and len(node.args) == 1
                and isinstance(node.args[0], COMPREHENSIONS)):
            yield f"{node.func.id}:{node.lineno}"


def test_the_lint_catches_each_form():
    src = """
a = max(abs(r) for r in rows)
b = min([r.ratio for r in rows])
c = max({r for r in rows}, default=0.0)
d = float(np.max([r.ratio for r in rows]))
e = max(x, y)
f = min(rows)
g = np.min(r for r in rows)
"""
    assert list(_builtin_aggregates(ast.parse(src))) == ["max:2", "min:3", "max:4"]


def test_no_builtin_aggregate_over_a_generator():
    root = Path(crocco_prandtl.__file__).parent
    found = [f"{path.name}: {site}" for path in sorted(root.rglob("*.py"))
             for site in _builtin_aggregates(ast.parse(path.read_text()))]
    assert found == []

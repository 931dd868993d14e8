"""A report below the runners keeps numbers, not verdicts.

Every pass or fail is a `grids.Check`, made by the reader that applies the
bound.  A boolean field on a report decides a bound a second time, beside
the check that also decides it, and the two can drift apart.  This walk of
the syntax trees of the measurement modules, the scenario runners and the
acceptance criteria refuses a dataclass field annotated `bool` or
`Optional[bool]`.
"""

import ast
from pathlib import Path

import crocco_prandtl

MODULES = ("acceptance", "crocco", "estimates", "grids", "kolmogorov", "mms", "scenarios",
           "solver")


def _is_dataclass(node) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_bool(annotation) -> bool:
    if isinstance(annotation, ast.Subscript):
        outer = annotation.value
        name = outer.attr if isinstance(outer, ast.Attribute) else getattr(outer, "id", None)
        return name == "Optional" and _is_bool(annotation.slice)
    if isinstance(annotation, ast.Constant):
        return annotation.value in ("bool", "Optional[bool]")
    return getattr(annotation, "id", None) == "bool"


def _bool_fields(tree):
    """`Class.field` of every dataclass field annotated bool or Optional[bool]."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and _is_bool(stmt.annotation):
                    yield f"{node.name}.{stmt.target.id}"


def test_the_lint_catches_each_form():
    src = """
@dataclass
class A:
    x: float
    ok: bool
    verdict: Optional[bool]
    quoted: "bool"
    flag: typing.Optional[bool] = None

@dataclasses.dataclass(frozen=True)
class B:
    passed: bool
    counts: Optional[int]

class C:
    plain: bool
"""
    assert list(_bool_fields(ast.parse(src))) == ["A.ok", "A.verdict", "A.quoted", "A.flag",
                                                  "B.passed"]


def test_no_report_holds_a_boolean_field():
    root = Path(crocco_prandtl.__file__).parent
    found = [f"{name}.py: {field}" for name in MODULES
             for field in _bool_fields(ast.parse((root / f"{name}.py").read_text()))]
    assert found == []

"""No reduction in the package goes through BLAS.

OpenBLAS splits a long dot product across its threads, so a sum taken by
`@`, np.dot and its kin, or by an einsum allowed to optimize (which may hand
the contraction to tensordot), follows the thread count, and with it the
last bits of the artifacts.  The package sums with np.sum and plain einsum;
this walk of its syntax trees refuses the rest.
"""

import ast
from pathlib import Path

import crocco_prandtl

BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def _blas_uses(tree):
    """(line, form) of every BLAS-backed reduction in a module's tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                yield node.lineno, name
            elif name == "einsum" and any(kw.arg == "optimize" for kw in node.keywords):
                yield node.lineno, "einsum(optimize=...)"


def test_the_lint_catches_each_form():
    src = """
a @ b
a @= b
np.dot(a, b)
a.dot(b)
np.vdot(a, b)
np.inner(a, b)
np.matmul(a, b)
np.tensordot(a, b, 1)
np.einsum("i,i->", a, b, optimize=False)
np.einsum("i,i->", a, b)
np.sum(a * b)
"""
    assert sorted(line for line, _ in _blas_uses(ast.parse(src))) == list(range(2, 11))


def test_package_sums_nothing_through_blas():
    root = Path(crocco_prandtl.__file__).parent
    found = [f"{path.name}:{line} {form}" for path in sorted(root.rglob("*.py"))
             for line, form in _blas_uses(ast.parse(path.read_text()))]
    assert found == []

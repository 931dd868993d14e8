"""The package has no scipy or sympy import statement.

Importing any `scipy.linalg` name runs that package's `__init__`, whose
array-API shim costs more than half of the package's import.  The runtime
needs three LAPACK routines, which `_lapack` loads from scipy's extension
file without an import statement; this walk of the package's syntax trees
refuses every import of scipy, so the cost cannot come back one import at
a time.  sympy is a test dependency only: the manufactured solutions are
numpy closed forms, checked against sympy in tests/test_mms.py, so the
walk refuses every import of sympy too.
"""

import ast
from pathlib import Path

import crocco_prandtl


def _imports(tree, package):
    """(line, module) of every import of package or one of its submodules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name == package or name.startswith(package + "."):
                yield node.lineno, name


def test_the_lint_catches_each_form():
    src = """
import scipy.linalg
from scipy.linalg.lapack import dgtsv
from scipy import linalg
import numpy, scipy as sp
from . import scipyish
import scipyish
from .solver import solve
"""
    assert [line for line, _ in _imports(ast.parse(src), "scipy")] == [2, 3, 4, 5]
    assert [line for line, _ in _imports(ast.parse("import sympy as sp\nimport scipy"),
                                         "sympy")] == [1]


def _found(package):
    """file:line module of every import of package under the package."""
    root = Path(crocco_prandtl.__file__).parent
    return [f"{path.name}:{line} {name}" for path in sorted(root.rglob("*.py"))
            for line, name in _imports(ast.parse(path.read_text()), package)]


def test_package_has_no_scipy_import():
    assert _found("scipy") == []


def test_package_has_no_sympy_import():
    assert _found("sympy") == []

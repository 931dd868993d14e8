"""The package has no scipy import statement.

Importing any `scipy.linalg` name runs that package's `__init__`, whose
array-API shim costs more than half of the package's import.  The runtime
needs three LAPACK routines, which `_lapack` loads from scipy's extension
file without an import statement; this walk of the package's syntax trees
refuses every import of scipy, so the cost cannot come back one import at
a time.
"""

import ast
from pathlib import Path

import crocco_prandtl


def _scipy_imports(tree):
    """(line, module) of every import of scipy or a scipy submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name == "scipy" or name.startswith("scipy."):
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
    assert [line for line, _ in _scipy_imports(ast.parse(src))] == [2, 3, 4, 5]


def test_package_has_no_scipy_import():
    root = Path(crocco_prandtl.__file__).parent
    found = [f"{path.name}:{line} {name}" for path in sorted(root.rglob("*.py"))
             for line, name in _scipy_imports(ast.parse(path.read_text()))]
    assert found == []

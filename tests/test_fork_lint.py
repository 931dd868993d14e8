"""The package forks in one place, parallel.py, and splits work one way.

Its fork helper reaps every worker, re-raises a worker's exception, leaves
through os._exit so inherited stdio buffers never flush twice, and runs
chunk 0 in the calling process, so stored results stay with the caller.
A second way to fork would have to keep each of those; this walk of the
package's syntax trees refuses os.fork, multiprocessing and
concurrent.futures in every other module.  Every split goes through
fork_each's list of thunks, so a second chunking of its own is refused
too: fork_map, the range form, may be named only where it is defined and
by the fields.csv writer in reporting.py, whose chunk start names its
part file.
"""

import ast
from pathlib import Path

import crocco_prandtl

FORK_CALLS = {"fork", "forkpty"}
POOL_MODULES = {"multiprocessing", "concurrent.futures"}
FORK_MAP_MODULES = {"parallel.py", "reporting.py"}


def _pool_module(name):
    return any(name == mod or name.startswith(mod + ".") for mod in POOL_MODULES)


def _fork_uses(tree):
    """(line, form) of every fork or process pool in a module's tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _pool_module(alias.name):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            if _pool_module(node.module) or any(map(_pool_module, names)):
                yield node.lineno, node.module
            elif node.module == "os" and any(a.name in FORK_CALLS for a in node.names):
                yield node.lineno, "from os import fork"
        elif (isinstance(node, ast.Attribute) and node.attr in FORK_CALLS
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno, f"os.{node.attr}"


def test_the_lint_catches_each_form():
    src = """
import multiprocessing
import multiprocessing.pool as mp
from multiprocessing import Pool
import concurrent.futures
from concurrent.futures import ProcessPoolExecutor
from concurrent import futures
os.fork()
pid = os.forkpty
from os import fork
import os
from os import getpid
from . import parallel
from .parallel import fork_each
import concurrent
"""
    assert sorted(line for line, _ in _fork_uses(ast.parse(src))) == list(range(2, 11))


def test_package_forks_only_in_parallel():
    root = Path(crocco_prandtl.__file__).parent
    found = [f"{path.name}:{line} {form}" for path in sorted(root.rglob("*.py"))
             if path.name != "parallel.py"
             for line, form in _fork_uses(ast.parse(path.read_text()))]
    assert found == []
    # the one helper is itself seen by the walk
    assert list(_fork_uses(ast.parse((root / "parallel.py").read_text())))


def _fork_map_uses(tree):
    """Lines of a module's tree that import, name or look up fork_map."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.alias) and node.name.split(".")[-1] == "fork_map"
                or isinstance(node, ast.Name) and node.id == "fork_map"
                or isinstance(node, ast.Attribute) and node.attr == "fork_map"):
            yield node.lineno


def test_the_fork_map_lint_catches_each_form():
    src = """
from .parallel import fork_map
from crocco_prandtl.parallel import fork_each, fork_map as fm
parallel.fork_map(fn, 3)
split = fork_map
from .parallel import fork_each
fork_each([])
"""
    assert sorted(_fork_map_uses(ast.parse(src))) == [2, 3, 4, 5]


def test_only_the_fields_writer_splits_a_range():
    root = Path(crocco_prandtl.__file__).parent
    found = {path.name for path in sorted(root.rglob("*.py"))
             if any(_fork_map_uses(ast.parse(path.read_text())))}
    assert found <= FORK_MAP_MODULES, sorted(found - FORK_MAP_MODULES)

"""A refusal leaves the package only through the command line.

ConfigError means an input that cannot run; `cli` maps it onto exit 2 for
every verb.  A handler elsewhere that catches it turns a refusal into
something else (a failed hypothesis, a FAIL row, a fallback), so `validate`
and `run` would no longer refuse alike.  This walk of the package's syntax
trees refuses such handlers outside cli.py.  It names the refusals by the
class tree, ConfigError and every subclass, so a refusal type added later
is covered too; `except CroccoError`, which turns a criterion's error into
its FAIL row, names none of them and is intended.
"""

import ast
from pathlib import Path

import crocco_prandtl
from crocco_prandtl.errors import ConfigError


def _names(cls):
    """cls and every subclass of it, by name."""
    return {cls.__name__}.union(*(_names(sub) for sub in cls.__subclasses__()))


REFUSALS = _names(ConfigError)


def _refusal_handlers(tree):
    """Line of every except handler that names a refusal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {c.attr if isinstance(c, ast.Attribute) else getattr(c, "id", None)
                     for c in caught}
            if names & REFUSALS:
                yield node.lineno


def test_the_lint_catches_each_form():
    src = """
try:
    pass
except ConfigError:
    pass
except errors.ConfigError as exc:
    pass
except (ValueError, ConfigError):
    pass
except CroccoError:
    pass
except ValueError:
    pass
except:
    pass
"""
    assert list(_refusal_handlers(ast.parse(src))) == [4, 6, 8]


def test_only_the_command_line_catches_a_refusal():
    root = Path(crocco_prandtl.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(root.rglob("*.py")) if path.name != "cli.py"
             for line in _refusal_handlers(ast.parse(path.read_text()))]
    assert found == []

"""Every demo script runs to the end against the current package and prints
exactly its committed output, tests/demo_output/<stem>.txt.

The demos call the public API directly, so a renamed function or a dropped
parameter breaks them, and a moved number shows as a changed line; running
each in-process keeps the check cheap.  Each demo prints the same bytes on
any BLAS thread count.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_output"


def test_demos_are_found():
    assert len(DEMOS) >= 7
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{path.stem}.txt").read_text()

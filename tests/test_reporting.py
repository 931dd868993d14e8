import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crocco_prandtl import kolmogorov as ko
from crocco_prandtl import parallel, reporting
from crocco_prandtl.errors import NumericalError
from crocco_prandtl.grids import AnalyticField, Check
from crocco_prandtl.reporting import (artifact_header, report_text, write_artifacts,
                                      write_fields_csv, write_report_csv)
from crocco_prandtl.scenarios import RunResult, Table

SRC = str(Path(reporting.__file__).resolve().parents[1])

SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.2e17]


def _result(t, x, y, values):
    # the writer reads only these four arrays; a plain namespace carries the
    # non-uniform and non-finite coordinates that a FieldHistory refuses
    hist = SimpleNamespace(t=t, x=x, y=y, values=values)
    return RunResult(scenario="exact_profile", grid_label="6x2x4", eps_label="1e-3",
                     history=hist)


def _reference_bytes(result):
    """The fields.csv format as np.savetxt writes it from the full row copy."""
    hist = result.history
    tt, xx, yy = np.meshgrid(hist.t, hist.x, hist.y, indexing="ij")
    flat = np.column_stack([tt.ravel(), xx.ravel(), yy.ravel(), hist.values.ravel()])
    fh = io.StringIO()
    fh.write(artifact_header(result) + "\n")
    fh.write("t,x,y,value\n")
    np.savetxt(fh, flat, fmt="%.17g", delimiter=",")
    return fh.getvalue().encode()


def _written_bytes(result, directory):
    return write_fields_csv(Path(directory) / "fields.csv", result).read_bytes()


def _cores(n):
    """Force the fork helper to cut its range for n usable cores."""
    return mock.patch.object(parallel, "_usable_cores", return_value=n)


def _special_result():
    rng = np.random.default_rng(7)
    values = rng.standard_normal((5, 7, 3)) * 10.0 ** rng.integers(-300, 300, (5, 7, 3))
    values.flat[: len(SPECIALS)] = SPECIALS
    return _result(np.linspace(0.0, 0.3, 5), np.linspace(0.0, 1.0, 7),
                   np.array([-0.0, 1.0 / 3.0, 1.2e17]), values)


def test_fields_csv_matches_savetxt_with_special_values(tmp_path):
    result = _special_result()
    for cores in (1, 3):
        with _cores(cores):
            written = _written_bytes(result, tmp_path)
        assert written == _reference_bytes(result)
    lines = written.decode().splitlines()
    assert lines[1] == "t,x,y,value"
    assert len(lines) == 2 + 5 * 7 * 3
    assert lines[2:8] == [
        "0,0,-0,nan", "0,0,0.33333333333333331,inf", "0,0,1.2e+17,-inf",
        "0,0.16666666666666666,-0,-0",
        "0,0.16666666666666666,0.33333333333333331,4.9406564584124654e-324",
        "0,0.16666666666666666,1.2e+17,1.2e+17"]


floats = st.one_of(st.sampled_from(SPECIALS), st.floats(width=64))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.tuples(
        hnp.arrays(np.float64, shape[0], elements=floats),
        hnp.arrays(np.float64, shape[1], elements=floats),
        hnp.arrays(np.float64, shape[2], elements=floats),
        hnp.arrays(np.float64, shape, elements=floats))))
def test_fields_csv_matches_savetxt_property(arrays):
    # up to 4 levels against 3 writers: some draws have more writers than levels
    result = _result(*arrays)
    for cores in (1, 3):
        with _cores(cores), tempfile.TemporaryDirectory() as directory:
            assert _written_bytes(result, directory) == _reference_bytes(result)
            assert os.listdir(directory) == ["fields.csv"]


def test_fields_csv_without_fork_writes_in_one_process(tmp_path):
    no_fork = SimpleNamespace(**{k: v for k, v in vars(os).items() if k != "fork"})
    result = _special_result()
    with mock.patch.object(parallel, "os", no_fork):
        assert parallel._usable_cores() == 1
        assert _written_bytes(result, tmp_path) == _reference_bytes(result)


def test_write_artifacts_leaves_only_its_files(tmp_path):
    result = _special_result()
    result.tables.append(Table("levels", ["t"], [(0.0,), (0.3,)]))
    with _cores(3):
        written = write_artifacts(result, tmp_path)
    assert sorted(tmp_path.iterdir()) == sorted(written)
    assert [p.name for p in written] == ["report.txt", "report.csv", "fields.csv", "levels.csv"]
    assert not list(tmp_path.glob("*.part*"))


# each caller of the fork helper: how to run it on 5 levels, which become
# the chunks 0:1, 1:3 and 3:5 over 3 cores, the per-level function to patch,
# and the files it leaves in its directory
def _run_writer(directory):
    return _written_bytes(_special_result(), directory)


def _fail_writer(failing_start, failure):
    real = reporting._write_levels

    def write(fh, hist, nodes, start, stop):
        if start == failing_start:
            failure(start)
        real(fh, hist, nodes, start, stop)
    return mock.patch.object(reporting, "_write_levels", write)


MEAN_CUT = ko.CutoffSpec(r=1.0, theta=0.01)
MEAN_FIELD = AnalyticField(lambda t, x, y: 1.0 + 0.3 * np.sin(3.0 * x) * np.cos(2.0 * y) + 2.0 * t)


def _run_mean_value(directory):
    return ko.mean_value(MEAN_FIELD, MEAN_CUT, nz=5).values.tobytes()


def _fail_mean_value(failing_start, failure):
    real = ko._Level.drift
    ts = ko.Box(MEAN_CUT.theta * MEAN_CUT.r).lattice(5)[2]

    def drift(level, slabs):
        if level.t == ts[failing_start]:
            failure(failing_start)
        return real(level, slabs)
    return mock.patch.object(ko._Level, "drift", drift)


CALLERS = {"fields_csv": (_run_writer, _fail_writer, ["fields.csv"]),
           "mean_value": (_run_mean_value, _fail_mean_value, [])}


def _refuse(start):
    raise NumericalError(f"chunk from {start} refused")


def _die(start):
    os._exit(7)


@pytest.mark.parametrize("caller, failing_start, failure, error, message", [
    (caller, start, failure, error, message)
    for caller in CALLERS
    for start, failure, error, message in (
        (1, _refuse, NumericalError, "chunk from 1 refused"),
        (0, _refuse, NumericalError, "chunk from 0 refused"),
        (3, _die, RuntimeError, "forked worker exited with code 7"))
], ids=["worker_raises", "caller_raises", "worker_dies", "mean_value-worker_raises",
        "mean_value-caller_raises", "mean_value-worker_dies"])
def test_fields_csv_failure_leaves_no_worker_or_part(tmp_path, caller, failing_start, failure,
                                                     error, message):
    # the ids without a prefix are the fields.csv writer's
    run, fail, leaves = CALLERS[caller]
    with _cores(1):
        reference = run(tmp_path)
    with _cores(3), fail(failing_start, failure):
        with pytest.raises(error) as info:
            run(tmp_path)
    assert type(info.value) is error and str(info.value) == message
    assert sorted(p.name for p in tmp_path.iterdir()) == leaves
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    with _cores(3):
        assert run(tmp_path) == reference


MARKER_SCRIPT = r"""
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from crocco_prandtl import parallel, reporting
from crocco_prandtl.scenarios import RunResult

parallel._usable_cores = lambda: 3
sys.stdout.write("unflushed marker\n")
hist = SimpleNamespace(t=np.arange(4.0), x=np.arange(2.0), y=np.arange(3.0),
                       values=np.zeros((4, 2, 3)))
reporting.write_fields_csv(Path(sys.argv[1]), RunResult(
    scenario="exact_profile", grid_label="3x2x4", eps_label="1e-3", history=hist))
"""


def test_fields_csv_workers_do_not_flush_inherited_stdout(tmp_path):
    # stdout to a pipe is block-buffered, so the marker is still in the
    # buffer when the workers fork; a worker that flushed it would print it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", MARKER_SCRIPT, str(tmp_path / "fields.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "unflushed marker\n"
    assert len((tmp_path / "fields.csv").read_text().splitlines()) == 2 + 4 * 2 * 3


def test_run_report_text_and_csv(tmp_path):
    result = RunResult(scenario="exact_profile", grid_label="64x64x64", eps_label="0.001")
    result.add("c_comparison", 1.25)
    result.verdicts["comparison"] = Check(1.25, np.inf, "<")
    result.verdicts["bv"] = Check(np.nan, 1.0, "<")
    text = report_text(result)
    assert "c_comparison = 1.25" in text
    assert "verdict = pass [comparison]" in text
    assert "verdict = fail [bv]" in text
    assert not result.ok
    rows = write_report_csv(tmp_path / "report.csv", result).read_text().splitlines()[1:]
    assert rows[0] == "key,value,grid,eps,domain"
    assert rows[1].startswith("c_comparison,1.25,64x64x64,0.001")

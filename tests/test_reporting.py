import io
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crocco_prandtl.reporting import (artifact_header, report_text, write_fields_csv,
                                      write_report_csv)
from crocco_prandtl.scenarios import RunResult

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


def test_fields_csv_matches_savetxt_with_special_values(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.standard_normal((5, 7, 3)) * 10.0 ** rng.integers(-300, 300, (5, 7, 3))
    values.flat[: len(SPECIALS)] = SPECIALS
    result = _result(np.linspace(0.0, 0.3, 5), np.linspace(0.0, 1.0, 7),
                     np.array([-0.0, 1.0 / 3.0, 1.2e17]), values)
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
    result = _result(*arrays)
    with tempfile.TemporaryDirectory() as directory:
        assert _written_bytes(result, directory) == _reference_bytes(result)


def test_run_report_text_and_csv(tmp_path):
    result = RunResult(scenario="exact_profile", grid_label="64x64x64", eps_label="0.001")
    result.add("c_comparison", 1.25)
    result.verdicts["comparison"] = True
    result.verdicts["bv"] = False
    text = report_text(result)
    assert "c_comparison = 1.25" in text
    assert "verdict = pass [comparison]" in text
    assert "verdict = fail [bv]" in text
    assert not result.ok
    rows = write_report_csv(tmp_path / "report.csv", result).read_text().splitlines()[1:]
    assert rows[0] == "key,value,grid,eps,domain"
    assert rows[1].startswith("c_comparison,1.25,64x64x64,0.001")

import numpy as np
import pytest

from crocco_prandtl.crocco import (
    CroccoData,
    coefficients,
    make_problem,
    validate,
)
from crocco_prandtl.errors import DataError
from crocco_prandtl.flows import accelerating_flow, decelerating_flow, uniform_flow
from crocco_prandtl.grids import GridSpec


def linear_data(scale=1.0):
    return CroccoData(
        w0=lambda x, y: scale * (1.0 - y) + 0.0 * x,
        w1=lambda y, t: scale * (1.0 - y) + 0.0 * t,
        v0=lambda x, t: -1.0 + 0.0 * x * t,
    )


# ---------------------------------------------------------------------------
# coefficient sampling


def test_coefficients_accelerating_flow_closed_form():
    grid = GridSpec(8, 8, 8, L=1.0, T=0.5)
    coef = coefficients(accelerating_flow(1.0, 0.5), grid)
    t = grid.t[:, None, None]
    y = grid.y[None, None, :]
    assert np.allclose(coef.a, y * (1.0 + t), atol=1e-14)
    assert np.allclose(coef.b, (1.0 - y) / (1.0 + t), atol=1e-14)
    # dxU = 0, dxP = -1: zeroth-order coefficient reduces to 1/U
    assert np.allclose(coef.c, 1.0 / (1.0 + t) + 0.0 * y, atol=1e-14)
    assert np.allclose(coef.px_over_u, -1.0 / (1.0 + grid.t[:, None]), atol=1e-14)


def test_coefficient_variants_differ_by_twice_weighted_dxU():
    grid = GridSpec(8, 8, 8, L=1.0, T=0.5)
    flow = decelerating_flow(1.0, 0.5)
    coef = coefficients(flow, grid)
    x, t = grid.x[None, :, None], grid.t[:, None, None]
    y = grid.y[None, None, :]
    # the alternative zeroth-order coefficient y dxU + dtU / U
    gap = coef.c - (y * flow.dxU(x, t) + flow.dtU(x, t) / flow.U(x, t))
    assert np.allclose(gap, 2.0 * (1.0 - y) * (-0.25), atol=1e-14)


def test_wall_identity_b_equals_minus_px_over_u():
    grid = GridSpec(8, 8, 8, L=1.0, T=0.5)
    for flow in (uniform_flow(1.0, 0.5), accelerating_flow(1.0, 0.5),
                 decelerating_flow(1.0, 0.5)):
        coef = coefficients(flow, grid)
        assert np.allclose(coef.b[:, :, 0], -coef.px_over_u, atol=1e-14), flow.name


def test_coefficients_reject_nonpositive_flow():
    grid = GridSpec(8, 8, 8, L=5.0, T=0.5)
    with pytest.raises(DataError, match="positive"):
        coefficients(decelerating_flow(5.0, 0.5), grid)


# ---------------------------------------------------------------------------
# problem assembly


def test_make_problem_shapes_and_locking():
    grid = GridSpec(6, 5, 4, L=1.0, T=0.5)
    problem = make_problem(uniform_flow(1.0, 0.5), grid, linear_data())
    assert problem.a.shape == (5, 7, 6)
    assert problem.w0.shape == (7, 6)
    assert problem.w1.shape == (5, 6)
    assert problem.v0.shape == (5, 7)
    for arr in (problem.a, problem.w0, problem.w1, problem.v0):
        assert not arr.flags.writeable
    assert np.all(problem.w0[:, -1] == 0.0)


def test_make_problem_rejects_nonvanishing_top():
    grid = GridSpec(6, 6, 6)
    data = CroccoData(
        w0=lambda x, y: 1.0 - y + 0.1 + 0.0 * x,
        w1=lambda y, t: 1.0 - y + 0.1 + 0.0 * t,
        v0=lambda x, t: -1.0 + 0.0 * x * t,
    )
    with pytest.raises(DataError, match="vanish"):
        make_problem(uniform_flow(), grid, data)


def test_make_problem_rejects_corner_mismatch():
    grid = GridSpec(6, 6, 6)
    data = CroccoData(
        w0=lambda x, y: (1.0 - y) + 0.0 * x,
        w1=lambda y, t: 1.5 * (1.0 - y) + 0.0 * t,
        v0=lambda x, t: -1.0 + 0.0 * x * t,
    )
    with pytest.raises(DataError, match="corner"):
        make_problem(uniform_flow(), grid, data)


def test_replace_data_leaves_original_untouched():
    grid = GridSpec(6, 6, 6)
    problem = make_problem(uniform_flow(), grid, linear_data())
    bumped = problem.replace_data(w0=problem.w0 * 1.1, label="bumped")
    assert bumped.label == "bumped"
    assert np.max(np.abs(bumped.w0 - 1.1 * problem.w0)) == 0.0
    assert np.all(problem.w0[:, 0] == 1.0)
    assert not bumped.w0.flags.writeable


# ---------------------------------------------------------------------------
# hypothesis validation


def test_validate_clean_data_reports_envelope_one():
    report = validate(linear_data(), uniform_flow(), GridSpec(16, 16, 16))
    assert report.ok
    assert report.favorable
    assert report.c0 == pytest.approx(1.0)
    assert "hold" in report.summary()


def test_validate_scaled_data_envelope():
    report = validate(linear_data(scale=2.0), uniform_flow(), GridSpec(16, 16, 16))
    assert report.ok
    assert report.c0 == pytest.approx(2.0)


def test_validate_flags_positive_suction():
    data = CroccoData(
        w0=lambda x, y: (1.0 - y) + 0.0 * x,
        w1=lambda y, t: (1.0 - y) + 0.0 * t,
        v0=lambda x, t: 0.5 + 0.0 * x * t,
    )
    report = validate(data, uniform_flow(), GridSpec(8, 8, 8))
    assert not report.ok
    assert any("suction" in i.condition for i in report.issues)


def test_validate_flags_adverse_pressure():
    report = validate(linear_data(), decelerating_flow(), GridSpec(8, 8, 8))
    assert not report.favorable
    assert any("favorable" in i.condition for i in report.issues)


def test_validate_flags_envelope_violation():
    report = validate(linear_data(scale=3.0), uniform_flow(), GridSpec(8, 8, 8),
                      c0_max=2.0)
    assert any("upper bound" in i.condition for i in report.issues)


def test_validate_flags_nonpositive_shear():
    data = CroccoData(
        w0=lambda x, y: 0.5 - y + 0.0 * x,
        w1=lambda y, t: 0.5 - y + 0.0 * t,
        v0=lambda x, t: -1.0 + 0.0 * x * t,
    )
    report = validate(data, uniform_flow(), GridSpec(8, 8, 8))
    assert any("monotone" in i.condition for i in report.issues)

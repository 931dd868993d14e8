import numpy as np
import pytest

from crocco_prandtl.crocco import (
    CroccoData,
    PhysicalData,
    coefficients,
    from_crocco,
    load_data_tables,
    make_problem,
    physical_to_crocco,
    to_crocco,
    validate,
)
from crocco_prandtl.errors import ConfigError, DataError
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


# ---------------------------------------------------------------------------
# change of variables: tanh profile has the closed form w(eta) = 1 - eta^2


def test_to_crocco_tanh_profile():
    y = np.linspace(0.0, 8.0, 1025)
    eta = np.linspace(0.0, 0.95, 40)
    w = to_crocco(y, np.tanh(y), 1.0, eta)
    assert np.max(np.abs(w - (1.0 - eta**2))) < 2e-4


def test_to_crocco_guards():
    y = np.linspace(0.0, 1.0, 33)
    with pytest.raises(DataError, match="increasing"):
        to_crocco(y, np.cos(y), 1.0, np.array([0.1]))
    with pytest.raises(DataError, match="positive"):
        to_crocco(y, y, 0.0, np.array([0.1]))
    with pytest.raises(DataError, match="exceeds"):
        to_crocco(y, 2.0 * y, 1.0, np.array([0.1]))


def test_from_crocco_inverts_tanh_profile():
    t = np.array([0.0, 0.5])
    x = np.array([0.0, 1.0])
    eta = np.linspace(0.0, 0.9, 181)
    w = np.broadcast_to(1.0 - eta**2, (2, 2, eta.size)).copy()
    phys = from_crocco(w, t, x, eta, uniform_flow())
    assert np.max(np.abs(phys.y_of_eta[0, 0] - np.arctanh(eta))) < 2e-4
    assert np.allclose(phys.u_phys[0, 0], eta)


def test_from_crocco_truncates_zero_top_row():
    t = np.array([0.0, 1.0])
    x = np.array([0.0, 1.0])
    eta = np.linspace(0.0, 1.0, 11)
    w = np.broadcast_to(1.0 - eta, (2, 2, 11)).copy()
    phys = from_crocco(w, t, x, eta, uniform_flow())
    assert phys.eta.size == 10
    # y(eta) = -log(1 - eta) for the linear shear profile; trapezoid error
    # grows near the integrable singularity, so compare away from eta = 1
    low = phys.eta <= 0.75
    assert np.allclose(phys.y_of_eta[1, 1][low], -np.log(1.0 - phys.eta[low]), atol=1e-2)


def test_from_crocco_rejects_interior_nonpositivity():
    t = np.array([0.0, 1.0])
    x = np.array([0.0, 1.0])
    eta = np.linspace(0.0, 1.0, 11)
    w = np.broadcast_to(0.5 - eta, (2, 2, 11)).copy()
    with pytest.raises(DataError, match="positive"):
        from_crocco(w, t, x, eta, uniform_flow())


def test_physical_to_crocco_matches_closed_form():
    grid = GridSpec(4, 64, 8)
    data = PhysicalData(
        u0=lambda x, y: np.tanh(y) + 0.0 * x,
        u1=lambda y, t: np.tanh(y) + 0.0 * t,
        v0=lambda x, t: -1.0 + 0.0 * x * t,
    )
    cdata = physical_to_crocco(data, uniform_flow(), grid, n_samples=1024)
    eta = np.linspace(0.0, 0.9, 19)
    w0 = cdata.w0(0.5, eta)
    assert np.max(np.abs(w0 - (1.0 - eta**2))) < 1e-3


def test_load_data_tables_requires_all_paths():
    with pytest.raises(ConfigError, match="requires"):
        load_data_tables(u0_path="only_one.csv")

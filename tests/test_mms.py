import numpy as np
import pytest
import sympy as sp

from crocco_prandtl.errors import ConfigError
from crocco_prandtl.flows import accelerating_flow, uniform_flow
from crocco_prandtl.grids import GridSpec
from crocco_prandtl.mms import EPS, STUDIES, build_case, case, one_step_error, refinement_study
from crocco_prandtl.solver import solve

_Y = sp.symbols("y", real=True)


def pde_residual_fd(case, t0, x0, y0, h=1e-4):
    """Reassemble the forced equation from finite differences of the exact
    field; should vanish up to O(h^2) if the symbolic forcing is right."""
    u = case.u_exact
    eps = case.eps
    ut = (u(t0 + h, x0, y0) - u(t0 - h, x0, y0)) / (2 * h)
    ux = (u(t0, x0 + h, y0) - u(t0, x0 - h, y0)) / (2 * h)
    uy = (u(t0, x0, y0 + h) - u(t0, x0, y0 - h)) / (2 * h)
    uyy = (u(t0, x0, y0 + h) - 2 * u(t0, x0, y0) + u(t0, x0, y0 - h)) / h**2
    flow = case.flow
    U = flow.U(x0, t0)
    Ux = flow.dxU(x0, t0)
    Ut = flow.dtU(x0, t0)
    Px = -(Ut + U * Ux)
    a = y0 * U
    b = (1 - y0**2) * Ux + (1 - y0) * Ut / U
    c = (1 - y0) * Ux - Px / U
    val = u(t0, x0, y0)
    lhs = ut - (val + eps) ** 2 * uyy + (a + eps) * ux + b * uy + c * val
    return lhs - case.forcing(x0, y0, t0)


@pytest.mark.parametrize("study", list(STUDIES), ids=["streamwise_case", "wall_normal_case",
                                                      "time_case", "coupled_case"])
def test_forcing_matches_equation(study):
    mms_case = case(study, 3e-2)
    for t0, x0, y0 in [(0.1, 0.3, 0.2), (0.3, 0.7, 0.6), (0.45, 0.5, 0.05)]:
        assert abs(pde_residual_fd(mms_case, t0, x0, y0)) < 1e-6


def test_wall_flux_relation():
    # suction trace satisfies dy u|0 = v0 + g/(u|0 + eps) with g = dxP/U
    mms_case = case("coupled", 2e-2)
    h = 1e-6
    for t0, x0 in [(0.1, 0.25), (0.4, 0.8)]:
        wall = mms_case.u_exact(t0, x0, 0.0)
        grad = (mms_case.u_exact(t0, x0, h) - mms_case.u_exact(t0, x0, 0.0)) / h
        flow = mms_case.flow
        U = flow.U(x0, t0)
        g = -(flow.dtU(x0, t0) + U * flow.dxU(x0, t0)) / U
        v0 = mms_case.data.v0(np.atleast_1d(x0), np.atleast_1d(t0))[0]
        assert grad == pytest.approx(v0 + g / (wall + mms_case.eps), abs=1e-5)


@pytest.mark.parametrize("name, builder", [("uniform", uniform_flow),
                                           ("accelerating", accelerating_flow)])
def test_case_flow_matches_the_builtin(name, builder):
    # build_case lambdifies the flow from the profile the forcing comes from;
    # on every refinement-study grid it samples exactly as the numeric built-in
    U = STUDIES[{"uniform": "x", "accelerating": "coupled"}[name]].flow
    flow = build_case("c", 1 - _Y, U, eps=1e-2).flow
    ref = builder()
    for n in (16, 32, 64):
        for grid in (row.grid(n) for row in STUDIES.values()):
            x, t = grid.x[None, :], grid.t[:, None]
            for key in ("U", "dxU", "dtU"):
                assert np.array_equal(getattr(flow, key)(x, t), getattr(ref, key)(x, t)), key


def test_build_case_rejects_nonvanishing_top():
    with pytest.raises(ConfigError):
        build_case("bad", 1 - _Y / 2, sp.Integer(1), eps=1e-2)


def test_build_case_rejects_bad_eps():
    with pytest.raises(ConfigError):
        build_case("bad", 1 - _Y, sp.Integer(1), eps=0.0)


def test_solution_reproduced_from_own_data():
    # the manufactured forcing keeps the field on the grid, up to truncation
    mms_case = case("y", EPS)
    grid = GridSpec(nx=8, ny=32, nt=16, L=1.0, T=0.5)
    prob = mms_case.problem(grid)
    hist = solve(prob, grid, mms_case.eps, forcing=mms_case.forcing)
    err = np.max(np.abs(hist.values[-1] - mms_case.exact_on(grid)[-1]))
    assert err < 5e-4


def test_one_step_error_is_second_order():
    mms_case = case("t", EPS)
    e1 = one_step_error(mms_case, dt=1.0 / 64)
    e2 = one_step_error(mms_case, dt=1.0 / 128)
    assert e1 / e2 > 3.0


@pytest.mark.parametrize("study,floor", [("x", 0.9), ("t", 0.9), ("coupled", 0.9)])
def test_first_order_directions(study, floor):
    assert refinement_study(study) >= floor


def test_second_order_wall_normal():
    assert refinement_study("y") >= 1.9


def test_coupled_case_converges():
    mms_case = case("coupled", EPS)
    errs = {}
    for n in (16, 32):
        grid = GridSpec(nx=n, ny=n, nt=n, L=1.0, T=0.5)
        prob = mms_case.problem(grid)
        hist = solve(prob, grid, mms_case.eps, forcing=mms_case.forcing)
        errs[n] = np.max(np.abs(hist.values[-1] - mms_case.exact_on(grid)[-1]))
        assert np.any(prob.px_over_u != 0)
    assert errs[16] / errs[32] > 1.5


def test_refinement_study_validates_arguments():
    with pytest.raises(ConfigError):
        refinement_study("z")

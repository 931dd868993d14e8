import numpy as np
import pytest
import sympy as sp

from crocco_prandtl.errors import ConfigError
from crocco_prandtl.grids import GridSpec
from crocco_prandtl.mms import (
    build_case,
    coupled_case,
    one_step_error,
    refinement_study,
    streamwise_case,
    time_case,
    wall_normal_case,
)
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


@pytest.mark.parametrize("maker", [streamwise_case, wall_normal_case, time_case, coupled_case])
def test_forcing_matches_equation(maker):
    case = maker(eps=3e-2)
    for t0, x0, y0 in [(0.1, 0.3, 0.2), (0.3, 0.7, 0.6), (0.45, 0.5, 0.05)]:
        assert abs(pde_residual_fd(case, t0, x0, y0)) < 1e-6


def test_wall_flux_relation():
    # suction trace satisfies dy u|0 = v0 + g/(u|0 + eps) with g = dxP/U
    case = coupled_case(eps=2e-2)
    h = 1e-6
    for t0, x0 in [(0.1, 0.25), (0.4, 0.8)]:
        wall = case.u_exact(t0, x0, 0.0)
        grad = (case.u_exact(t0, x0, h) - case.u_exact(t0, x0, 0.0)) / h
        U = case.flow.U(x0, t0)
        g = -(case.flow.dtU(x0, t0) + U * case.flow.dxU(x0, t0)) / U
        v0 = case.data.v0(np.atleast_1d(x0), np.atleast_1d(t0))[0]
        assert grad == pytest.approx(v0 + g / (wall + case.eps), abs=1e-5)


def test_build_case_rejects_nonvanishing_top():
    with pytest.raises(ConfigError):
        build_case("bad", 1 - _Y / 2, eps=1e-2)


def test_build_case_rejects_bad_eps():
    with pytest.raises(ConfigError):
        build_case("bad", 1 - _Y, eps=0.0)


def test_solution_reproduced_from_own_data():
    # the manufactured forcing keeps the field on the grid, up to truncation
    case = wall_normal_case(eps=1e-2)
    grid = GridSpec(nx=8, ny=32, nt=16, L=1.0, T=0.5)
    prob = case.problem(grid)
    hist = solve(prob, grid, case.eps, forcing=case.forcing)
    err = np.max(np.abs(hist.values[-1] - case.exact_on(grid)[-1]))
    assert err < 5e-4


def test_one_step_error_is_second_order():
    case = time_case(eps=1e-2)
    e1 = one_step_error(case, dt=1.0 / 64)
    e2 = one_step_error(case, dt=1.0 / 128)
    assert e1 / e2 > 3.0


@pytest.mark.parametrize("direction,floor", [("x", 0.9), ("t", 0.9)])
def test_first_order_directions(direction, floor):
    study = refinement_study(direction, levels=3, base=8)
    assert study.order >= floor, study.summary()


def test_second_order_wall_normal():
    study = refinement_study("y", levels=3, base=8)
    assert study.order >= 1.9, study.summary()


def test_coupled_case_converges():
    case = coupled_case(eps=1e-2)
    errs = {}
    for n in (16, 32):
        grid = GridSpec(nx=n, ny=n, nt=n, L=1.0, T=0.5)
        prob = case.problem(grid)
        hist = solve(prob, grid, case.eps, forcing=case.forcing)
        errs[n] = np.max(np.abs(hist.values[-1] - case.exact_on(grid)[-1]))
        assert hist.diagnostics["newton_iterations_max"] >= 1
    assert errs[16] / errs[32] > 1.5


def test_refinement_study_validates_arguments():
    with pytest.raises(ConfigError):
        refinement_study("z")
    with pytest.raises(ConfigError):
        refinement_study("x", levels=1)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from crocco_prandtl.crocco import CroccoData, make_problem
from crocco_prandtl.errors import ConfigError, NumericalError
from crocco_prandtl.flows import ExternalFlow, accelerating_flow, uniform_flow
from crocco_prandtl.grids import GridSpec
from crocco_prandtl.scenarios import favorable_accel_problem
from crocco_prandtl.solver import (
    ConvergenceTable,
    SolveStore,
    SweepRow,
    _solve_columns,
    cfl_margins,
    check_cfl,
    grid_refinement_proxy,
    solve,
    viscosity_sweep,
)


def linear_problem(grid, scale=1.0):
    data = CroccoData(
        w0=lambda x, y: scale * (1.0 - y) + 0.0 * x,
        w1=lambda y, t: scale * (1.0 - y) + 0.0 * t,
        v0=lambda x, t: -1.0 + 0.0 * x * t,
    )
    return make_problem(uniform_flow(), grid, data)


# ---------------------------------------------------------------------------
# stability guard


def test_cfl_guard_triggers_on_coarse_time_step():
    grid = GridSpec(64, 16, 4, L=1.0, T=1.0)
    problem = linear_problem(grid)
    margins = cfl_margins(problem, 1e-2)
    assert margins["cfl_x"] > 0.9
    with pytest.raises(ConfigError, match="stability"):
        check_cfl(problem, 1e-2)
    with pytest.raises(ConfigError, match="stability"):
        solve(problem, grid, 1e-2)


def test_solve_refuses_a_grid_other_than_the_problems():
    # data sampled for t in [0, 0.5] must not be marched on [0, 0.25]
    problem = favorable_accel_problem(GridSpec(16, 16, 16, T=0.5))
    with pytest.raises(ConfigError, match="not the problem's grid"):
        solve(problem, GridSpec(16, 16, 16, T=0.25), 1e-2)
    assert solve(problem, GridSpec(16, 16, 16, T=0.5), 1e-2).t[-1] == 0.5


def test_solve_rejects_nonpositive_eps():
    grid = GridSpec(8, 8, 16)
    with pytest.raises(ConfigError, match="eps"):
        solve(linear_problem(grid), grid, 0.0)


# ---------------------------------------------------------------------------
# stacked-column tridiagonal solve


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_stacked_column_solve_matches_banded_oracle(ncol, ny, seed):
    rng = np.random.default_rng(seed)
    # sub[:, 0] and sup[:, -1] hold nonzero junk the solve must ignore
    sub = rng.uniform(-1.0, 1.0, (ncol, ny))
    sup = rng.uniform(-1.0, 1.0, (ncol, ny))
    sign = rng.choice([-1.0, 1.0], (ncol, ny))
    diag = sign * (np.abs(sub) + np.abs(sup) + rng.uniform(0.1, 2.0, (ncol, ny)))
    rhs = rng.normal(size=(2, ncol, ny))
    got = _solve_columns(sub, diag, sup, rhs)
    assert got.shape == rhs.shape
    for k in range(ncol):
        ab = np.zeros((3, ny))
        ab[0, 1:] = sup[k, :-1]
        ab[1] = diag[k]
        ab[2, :-1] = sub[k, 1:]
        expected = solve_banded((1, 1), ab, rhs[:, k].T).T
        assert np.max(np.abs(got[:, k] - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_stacked_column_solve_rejects_a_zero_pivot():
    diag = np.ones((3, 2))
    sub = np.zeros((3, 2))
    sup = np.zeros((3, 2))
    # the middle column's block [[1, 1], [1, 1]] eliminates to a zero pivot
    sup[1, 0] = sub[1, 1] = 1.0
    with pytest.raises(NumericalError, match="tridiagonal"):
        _solve_columns(sub, diag, sup, np.ones((2, 3, 2)))


# ---------------------------------------------------------------------------
# exact fixed point and generic behavior


def test_linear_profile_is_a_fixed_point():
    grid = GridSpec(16, 16, 24, L=1.0, T=0.75)
    problem = linear_problem(grid)
    hist = solve(problem, grid, 1e-2)
    exact = 1.0 - grid.y[None, None, :]
    assert np.max(np.abs(hist.values - exact)) < 1e-10


def test_scaled_linear_profile_stays_positive_and_bounded():
    grid = GridSpec(16, 16, 24, L=1.0, T=0.5)
    problem = make_problem(
        accelerating_flow(), grid,
        CroccoData(
            w0=lambda x, y: 1.5 * (1.0 - y) + 0.0 * x,
            w1=lambda y, t: 1.5 * (1.0 - y) + 0.0 * t,
            v0=lambda x, t: -1.0 + 0.0 * x * t,
        ))
    hist = solve(problem, grid, 1e-2)
    assert np.min(hist.values) >= 0.0
    # the favorable wall source -dxP/U > 0 lets the field creep above its
    # data sup, but only within the comparison envelope
    assert np.max(hist.values) <= 2.0
    assert np.all(hist.values[:, :, -1] == 0.0)
    assert np.all(hist.values[:, 0, :] == problem.w1)


def test_solver_is_deterministic():
    grid = GridSpec(12, 12, 24, L=1.0, T=0.5)
    problem = linear_problem(grid)
    a = solve(problem, grid, 1e-2)
    b = solve(problem, grid, 1e-2)
    assert np.array_equal(a.values, b.values)


def test_forcing_enters_first_order():
    grid = GridSpec(8, 8, 32, L=1.0, T=0.25)
    problem = linear_problem(grid)
    base = solve(problem, grid, 1e-2)
    forced = solve(problem, grid, 1e-2,
                   forcing=lambda x, y, t: 1e-3 * np.sin(np.pi * y))
    gap = np.max(np.abs(forced.values - base.values))
    assert 1e-5 < gap < 1e-3


# ---------------------------------------------------------------------------
# sweep machinery


def test_viscosity_sweep_decreasing_on_modulated_data():
    grid = GridSpec(16, 16, 24, L=1.0, T=0.5)
    data = CroccoData(
        w0=lambda x, y: (1.0 - y) * (1.0 + 0.2 * np.sin(np.pi * x)),
        w1=lambda y, t: (1.0 - y) + 0.0 * t,
        v0=lambda x, t: -1.0 + 0.0 * x * t,
    )
    problem = make_problem(accelerating_flow(), grid, data)
    table = viscosity_sweep(problem, (0.1, 0.03, 0.01, 0.003), SolveStore())
    assert len(table.rows) == 3
    assert not any(np.isnan(r.l1_diff) for r in table.rows)
    assert table.largest_step < 0


class NoMarchStore(SolveStore):
    def solve(self, problem, eps):
        raise AssertionError(f"marched eps={eps} before the eps list was refused")


def test_viscosity_sweep_guards():
    # each list is refused before any march; two values give one gap and no
    # step, which the sweep's check would read as NaN
    problem = linear_problem(GridSpec(8, 8, 16))
    for eps_list, message in (((0.1,), "at least three values"),
                              ((0.1, 0.01), "at least three values"),
                              ((0.1, 0.01, -0.001), "must be positive"),
                              ((0.01, 0.1, 1.0), "decreasing")):
        with pytest.raises(ConfigError, match=message):
            viscosity_sweep(problem, eps_list, NoMarchStore())


def test_convergence_table_flags():
    good = ConvergenceTable(rows=[SweepRow(0.1, 0.01, 1.0), SweepRow(0.01, 0.001, 0.5)])
    assert good.largest_step == -0.5
    stalled = ConvergenceTable(rows=[SweepRow(0.1, 0.01, 0.5), SweepRow(0.01, 0.001, 0.5)])
    assert stalled.largest_step == 0.0
    broken = ConvergenceTable(rows=[SweepRow(0.1, 0.01, float("nan"))])
    assert np.isnan(broken.largest_step)
    # a gap that is not finite is no decrease, though inf - 1 < 0
    diverged = ConvergenceTable(rows=[SweepRow(0.1, 0.01, float("inf")),
                                      SweepRow(0.01, 0.001, 1.0)])
    assert np.isnan(diverged.largest_step)


def test_grid_refinement_proxy_vanishes_on_exact_profile():
    grid = GridSpec(8, 8, 16, L=1.0, T=0.5)
    proxy = grid_refinement_proxy(linear_problem, grid, 1e-2, SolveStore())
    assert proxy < 1e-11


def test_positivity_violation_raises_numerical_error():
    grid = GridSpec(12, 12, 24, L=1.0, T=0.5)
    problem = linear_problem(grid)
    # a large negative source drives the field through zero in one step
    with pytest.raises(NumericalError, match="positivity"):
        solve(problem, grid, 1e-2,
              forcing=lambda x, y, t: -1e3 * np.ones_like(x))


def adverse_problem(grid, amplitude):
    # U = 1 - t/2 gives dxP = -(dtU + U dxU) = 1/2, an adverse pressure
    flow = ExternalFlow(U=lambda x, t: 1.0 - 0.5 * t + 0.0 * x,
                        dxU=lambda x, t: np.zeros_like(x * t),
                        dtU=lambda x, t: -0.5 * np.ones_like(x * t))
    data = CroccoData(
        w0=lambda x, y: amplitude * (1.0 - y) + 0.0 * x,
        w1=lambda y, t: amplitude * (1.0 - y) + 0.0 * t,
        v0=lambda x, t: 0.0 * x * t,
    )
    return make_problem(flow, grid, data)


def test_adverse_pressure_on_a_thin_profile_has_no_real_wall_value():
    # the wall row m^2 - (p0 + eps) m + k q0 = 0 has k q0 > 0 here, so a
    # small enough shear leaves it without a real root
    grid = GridSpec(8, 8, 8, T=0.5)
    with pytest.raises(NumericalError, match="no real wall value"):
        solve(adverse_problem(grid, 0.1), grid, 1e-3)
    hist = solve(adverse_problem(grid, 1.0), grid, 1e-3)
    assert np.min(hist.values[:, :, 0]) > 0.0

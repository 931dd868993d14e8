"""Semi-implicit marching scheme for the regularized degenerate problem.

The evolution solved here is

    dt u - (u + eps)^2 dyy u + (a + eps) dx u + b dy u + c u = f

on (0, L) x (0, 1) x (0, T] with u = w1 on the inflow face x = 0, u = 0 on
y = 1, u = w0 at t = 0, and the nonlinear wall flux

    (u + eps) dy u = v0 (u + eps) + dxP/U      at y = 0.

Scheme, per time step:
  * wall-normal diffusion implicit with the coefficient (u + eps)^2 frozen
    at the previous level (one tridiagonal system per x-column),
  * streamwise transport explicit first-order backward upwind (a + eps > 0),
    inflow column prescribed, free outflow at x = L,
  * b dy u explicit with sign-dependent upwind; at the wall row the Robin
    gradient v0 + (dxP/U)/(u + eps) replaces the one-sided stencil,
  * reaction c u implicit (positivity preserved by division),
  * forcing explicit: a plain callable f(x, y, t) evaluated on the (x, y)
    node meshgrid, which is formed once per march.

Coefficients are formed per time level from the problem's (t, x) factors
(`CroccoProblem.coefficients`): a step uses a, b at t_n and c at t_{n+1}.

The wall flux is imposed through a ghost node eliminated with the
second-order centered gradient (u_1 - u_ghost) / (2 dy), which makes the
wall row nonlinear in the wall value s alone.  One LAPACK dgtsv call
(scipy's, through `_lapack`, without importing scipy.linalg) solves the
interior columns, stacked with their couplings zeroed, for the
step's right-hand side p and the wall row's influence q.  With
k = 2 dy r_0 dxP/U, m = s + eps and pe = p_0 + eps, the wall row is the
quadratic m^2 - pe m + k q_0 = 0 and a column's field is p - (k / m) q.
The root m = (pe + sign(pe) sqrt(pe^2 - 4 k q_0)) / 2 tends to pe as
k -> 0 and adds terms of one sign, so it is free of cancellation
(Goldberg, ACM Comput. Surv. 23(1), 1991); k = 0 gives m = pe and the
field p exactly.  A negative discriminant means no real wall value.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

import numpy as np

from ._lapack import dgtsv, uncoupled_bands
from .crocco import CroccoProblem
from .errors import ConfigError, CroccoError, NumericalError
from .grids import CFL_SAFETY, FieldHistory, GridSpec, l1_spacetime_norm
from .parallel import fork_each


def cfl_margins(problem: CroccoProblem, eps: float) -> dict:
    """Stability margins of the explicit transport terms (must stay <= CFL_SAFETY)."""
    grid = problem.grid
    amax = float(np.max(problem.U)) + eps  # max a = max U exactly, as 0 <= y <= 1
    bmax = problem.b_abs_max
    return {
        "cfl_x": grid.dt * amax / grid.dx,
        "cfl_y": grid.dt * bmax / grid.dy if bmax > 0 else 0.0,
    }


def check_cfl(problem: CroccoProblem, eps: float) -> dict:
    margins = cfl_margins(problem, eps)
    worst = max(margins.values())
    if worst > CFL_SAFETY + 1e-12:
        raise ConfigError(
            f"time step violates the transport stability bound: "
            f"cfl_x={margins['cfl_x']:.3f}, cfl_y={margins['cfl_y']:.3f} "
            f"(limit {CFL_SAFETY})"
        )
    return margins


def _solve_columns(sub, dia, sup, rhs) -> np.ndarray:
    """Solve the tridiagonal systems held row by row (sub[:, 0] and
    sup[:, -1] ignored) as one uncoupled LAPACK ?gtsv system; rhs has shape
    (nrhs, rows, n) and the solutions come back in that shape."""
    b = np.reshape(rhs, (rhs.shape[0], -1)).T
    # the off-diagonal bands are private copies, so LAPACK may overwrite them
    *_, x, info = dgtsv(*uncoupled_bands(sub, dia, sup), b,
                        overwrite_dl=True, overwrite_du=True)
    if info != 0:
        raise NumericalError(f"wall-normal tridiagonal solve failed (info={info})")
    return x.T.reshape(rhs.shape)


def _advance(u, n, problem, eps, source, a_n, b_n, c_n1) -> np.ndarray:
    """One step t_n -> t_{n+1} on the problem's grid; returns the new field.

    source is None or a function of t giving the forcing on the (x, y) nodes.
    """
    grid = problem.grid
    dt, dx, dy = grid.dt, grid.dx, grid.dy
    ny = grid.ny
    v0_n = problem.v0[n]
    g_n = problem.px_over_u[n]
    v0_n1 = problem.v0[n + 1]
    g_n1 = problem.px_over_u[n + 1]

    rhs = u.copy()
    rhs[1:, :] -= dt * (a_n[1:, :] + eps) * (u[1:, :] - u[:-1, :]) / dx

    d = (u[:, 1:] - u[:, :-1]) / dy
    bwd = np.zeros_like(u)
    fwd = np.zeros_like(u)
    bwd[:, 1:] = d
    fwd[:, :-1] = d
    dyu = np.where(b_n > 0, bwd, fwd)
    # wall row: one-sided stencils have no upwind cell below y=0, so use the
    # Robin gradient the boundary condition itself asserts there
    dyu[:, 0] = v0_n + g_n / (u[:, 0] + eps)
    rhs -= dt * b_n * dyu

    if source is not None:
        rhs = rhs + dt * source(float(grid.t[n]))

    # implicit solve per interior column (the inflow column is prescribed)
    cols = slice(1, None)
    D = (u[cols, :ny] + eps) ** 2
    r = dt * D / dy**2                       # (ncol, ny)
    diag = 1.0 + 2.0 * r + dt * c_n1[cols, :ny]
    if np.any(diag <= 0.1):
        raise NumericalError("implicit reaction made the wall-normal system lose dominance")
    sup = -r
    sup[:, 0] = -2.0 * r[:, 0]

    # right-hand side and influence of the wall row, solved together
    b_rhs = np.zeros((2,) + r.shape)
    b_rhs[0] = rhs[cols, :ny]
    b_rhs[0, :, 0] -= 2.0 * dy * r[:, 0] * v0_n1[cols]
    b_rhs[1, :, 0] = 1.0
    p, q = _solve_columns(-r, diag, sup, b_rhs)

    k = 2.0 * dy * r[:, 0] * g_n1[cols]
    pe = p[:, 0] + eps
    disc = pe**2 - 4.0 * k * q[:, 0]
    if np.any(disc < 0.0):
        bad = int(np.argmin(disc))
        raise NumericalError(f"no real wall value in column x={grid.x[1 + bad]:.6g}")
    m = 0.5 * (pe + np.copysign(np.sqrt(disc), pe))
    sol = p - (k / m)[:, None] * q

    u_new = np.empty_like(u)
    u_new[0, :] = problem.w1[n + 1]
    u_new[1:, :ny] = sol
    u_new[:, ny] = 0.0

    if not np.all(np.isfinite(u_new)):
        raise NumericalError(f"non-finite field after step to t={grid.t[n + 1]:.6g}")
    umin = float(np.min(u_new))
    if umin < -1e-12:
        i, j = np.unravel_index(int(np.argmin(u_new)), u_new.shape)
        raise NumericalError(
            f"positivity lost at t={grid.t[n + 1]:.6g}, x={grid.x[i]:.6g}, "
            f"y={grid.y[j]:.6g}: u={umin:.3e}"
        )
    return u_new


def solve(problem: CroccoProblem, grid: GridSpec, eps: float,
          forcing: Optional[Callable] = None, label: str = "") -> FieldHistory:
    """March the full history from the initial data; CFL is enforced before
    any stepping.  grid must be the grid the problem was sampled on.
    forcing, when given, is a source f(x, y, t).  label names the march
    for the benchmark tracer alone (bench/spans.py)."""
    if grid != problem.grid:
        raise ConfigError(f"solve grid {grid} is not the problem's grid {problem.grid}")
    if eps <= 0:
        raise ConfigError(f"regularization eps must be positive, got {eps}")
    margins = check_cfl(problem, eps)
    nt = grid.nt
    values = np.empty((nt + 1, grid.nx + 1, grid.ny + 1))
    u = np.array(problem.w0, dtype=float)
    u[0, :] = problem.w1[0]
    u[:, -1] = 0.0
    values[0] = u
    source = None if forcing is None else partial(
        forcing, *np.meshgrid(grid.x, grid.y, indexing="ij"))
    a_n, b_n, _ = problem.coefficients(0)
    for n in range(nt):
        a_n1, b_n1, c_n1 = problem.coefficients(n + 1)
        u = _advance(u, n, problem, eps, source, a_n, b_n, c_n1)
        a_n, b_n = a_n1, b_n1
        values[n + 1] = u
    return FieldHistory(t=grid.t, x=grid.x, y=grid.y, values=values, diagnostics=margins)


class SolveStore:
    """Memoized problem construction and solves for one run or one engine.

    build(builder, *args) calls builder(*args) once per argument tuple and
    keeps the result under that key.  The problem builders take the grid as
    their argument, so a problem is keyed by (builder, grid).  A problem
    hashes by identity, so solve(problem, eps) is build(solve, problem,
    problem.grid, eps): one unforced march per (problem, eps) through the
    module-level `solve`, looked up at call time.  A store keeps only what a
    second reader in its run takes: a march read once, a forced march, or
    a rerun that must not be served from memory calls `solve` itself.

    solve_many(pairs) makes a family of independent marches at once, split
    across the usable cores by parallel.fork_each: the first runs in this
    process, and each forked worker sends its histories back to be stored.
    """

    def __init__(self):
        self._built = {}

    def build(self, builder, *args):
        key = (builder,) + args
        if key not in self._built:
            self._built[key] = builder(*args)
        return self._built[key]

    def solve(self, problem: CroccoProblem, eps: float) -> FieldHistory:
        return self.build(solve, problem, problem.grid, eps)

    def solve_many(self, pairs) -> None:
        """Store the march of each (problem, eps) pair not yet stored.  A
        pair whose march raises a CroccoError is left unstored, so the
        caller's own solve raises it where it would have without this call."""
        todo = [(problem, eps) for problem, eps in pairs
                if (solve, problem, problem.grid, eps) not in self._built]

        def march(problem, eps):
            try:
                return solve(problem, problem.grid, eps)
            except CroccoError:
                return None

        hists = fork_each([partial(march, problem, eps) for problem, eps in todo])
        for (problem, eps), hist in zip(todo, hists):
            if hist is not None:
                self._built[(solve, problem, problem.grid, eps)] = hist


@dataclass
class SweepRow:
    eps_hi: float
    eps_lo: float
    l1_diff: float  # NaN when either solve failed


@dataclass
class ConvergenceTable:
    rows: List[SweepRow]

    @property
    def largest_step(self) -> float:
        """Largest successive difference of the gaps, negative when they
        strictly decrease; NaN for fewer than two gaps or one not finite."""
        d = np.array([r.l1_diff for r in self.rows])
        if not np.all(np.isfinite(d)) or d.size < 2:
            return float("nan")
        return float(np.max(np.diff(d)))


def viscosity_sweep(problem: CroccoProblem, eps_list, store: SolveStore) -> ConvergenceTable:
    """Solve a decreasing sequence of regularizations on the problem's grid
    and tabulate successive L1 differences over the space-time cylinder.

    Solves go through store, so a sweep reuses the runs its caller already
    made.  A failed solve gives its rows a NaN gap and the sweep continues.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 2:
        raise ConfigError("viscosity sweep needs at least two eps values")
    if np.any(np.diff(eps_list) >= 0):
        raise ConfigError("eps_list must be strictly decreasing")
    grid = problem.grid
    histories = []
    for e in eps_list:
        try:
            histories.append(store.solve(problem, e))
        except NumericalError:
            histories.append(None)
    rows = []
    for hi, lo, h_hi, h_lo in zip(eps_list, eps_list[1:], histories, histories[1:]):
        if h_hi is None or h_lo is None:
            rows.append(SweepRow(hi, lo, float("nan")))
        else:
            d = l1_spacetime_norm(h_hi.values - h_lo.values, grid.t, grid.x, grid.y)
            rows.append(SweepRow(hi, lo, d))
    return ConvergenceTable(rows=rows)


def grid_refinement_proxy(problem_builder, grid: GridSpec, eps: float,
                          store: SolveStore) -> float:
    """Discretization-error proxy: L1 gap between a run and the restriction
    of the run on the grid refined by 2, both at the same eps.

    problem_builder(grid) must return the problem sampled on the given grid.
    The run goes through store, which its sweep shares; the refined run is
    read here only, so it is marched outside the store and freed on return.
    """
    coarse = store.solve(store.build(problem_builder, grid), eps)
    fine_grid = grid.refined()
    fine = solve(problem_builder(fine_grid), fine_grid, eps)
    restricted = fine.values[::2, ::2, ::2]
    return l1_spacetime_norm(coarse.values - restricted, grid.t, grid.x, grid.y)

"""Manufactured-solution oracles for the regularized solver.

A chosen closed-form field, given with its derivatives u_t, u_x, u_y and
u_yy as numpy expressions, is substituted into the regularized equation;
the mismatch becomes the forcing term and the field's own traces become
the data, so the discrete solution can be compared against a known
answer.  The suction trace is recovered from the wall flux relation, which
couples it to the regularization level.  The closed-form derivatives are
checked against sympy's derivatives of the same fields in tests/test_mms.py,
so nothing symbolic is imported at run time.

The refinement studies are the rows of `STUDIES`.  Three run under the
uniform stream, where b = c = 0, and isolate one grid direction each: a
steady field that is linear in y and curved in x (streamwise upwind error
only), a steady x-independent field with genuine y-curvature (wall-normal
error only), and an x-independent field linear in y with curved time
dependence (time-stepping error only).  The fourth, "coupled", runs under
the accelerating stream, so b and c are nonzero, a pressure trace enters
the flux condition and the wall row is nonlinear; it is refined in x.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .crocco import CroccoData, CroccoProblem, make_problem
from .errors import ConfigError
from .flows import ExternalFlow, accelerating_flow, uniform_flow
from .grids import GridSpec
from .solver import solve

EPS = 1e-2  # regularization level of every study
LEVELS = 3  # refinement levels per study
BASE = 16  # studied resolution of the coarsest level


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form field plus the forcing and data that make it exact."""

    name: str
    flow: ExternalFlow
    eps: float
    u_exact: Callable  # (t, x, y) arrays -> field
    forcing: Callable  # (x, y, t) arrays -> source
    data: CroccoData

    def problem(self, grid: GridSpec) -> CroccoProblem:
        return make_problem(self.flow, grid, self.data, label=self.name)

    def exact_on(self, grid: GridSpec) -> np.ndarray:
        tt, xx, yy = np.meshgrid(grid.t, grid.x, grid.y, indexing="ij")
        return self.u_exact(tt, xx, yy)


def build_case(name: str, field: Callable, flow: ExternalFlow, eps: float) -> ManufacturedCase:
    """Derive forcing and traces for a candidate field under the outer flow.

    field(t, x, y) gives the field and its derivatives, (u, u_t, u_x, u_y,
    u_yy), in closed form.  The forcing is the equation's residual of the
    field, with a, b, c and dxP formed from the flow as crocco forms them;
    the suction trace is the wall flux relation solved for v0.  The field
    must vanish on y = 1, checked on a 9 x 9 lattice of (t, x) in the unit
    square, and stay positive below it, which is the caller's business.
    """
    tt, xx = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9), indexing="ij")
    top = float(np.max(np.abs(field(tt, xx, 1.0)[0])))
    if top != 0.0:
        raise ConfigError(f"manufactured field must vanish at y = 1, got |u| up to {top:.6g}")
    if eps <= 0:
        raise ConfigError("regularization level must be positive")

    def px_over_u(x, t):
        U = flow.U(x, t)
        return -(flow.dtU(x, t) + U * flow.dxU(x, t)) / U

    def forcing(x, y, t):
        U, Ux, Ut = flow.U(x, t), flow.dxU(x, t), flow.dtU(x, t)
        a = y * U
        b = (1 - y**2) * Ux + (1 - y) * Ut / U
        c = (1 - y) * Ux - px_over_u(x, t)
        u, u_t, u_x, u_y, u_yy = field(t, x, y)
        return u_t - (u + eps) ** 2 * u_yy + (a + eps) * u_x + b * u_y + c * u

    def v0(x, t):
        u, _, _, u_y, _ = field(t, x, 0.0)
        return u_y - px_over_u(x, t) / (u + eps)

    return ManufacturedCase(name, flow, eps, lambda t, x, y: field(t, x, y)[0], forcing,
                            CroccoData(w0=lambda x, y: field(0.0, x, y)[0],
                                       w1=lambda y, t: field(t, 0.0, y)[0], v0=v0))


# ---------------------------------------------------------------------------
# refinement studies


@dataclass(frozen=True)
class Study:
    """A closed-form field as build_case takes it, the built-in outer flow it
    runs under, the grid family at studied resolution n, and the grid step
    that family refines."""

    field: Callable
    flow: ExternalFlow
    grid: Callable[[int], GridSpec]
    step: str  # "dx", "dy" or "dt"


def _x_grid(n: int) -> GridSpec:
    return GridSpec(nx=n, ny=16, nt=2 * n, L=1.0, T=0.5)


def _x_field(t, x, y):
    s = 1 + np.sin(np.pi * x / 2) / 4
    return (1 - y) * s, 0.0, (1 - y) * (np.pi / 8 * np.cos(np.pi * x / 2)), -s, 0.0


def _y_field(t, x, y):
    e = np.exp(y / 2)
    return (1 - y) * e, 0.0, 0.0, -(1 + y) * e / 2, -(3 + y) * e / 4


def _t_field(t, x, y):
    q = 1 + t**2 / 4
    return (1 - y) * q, (1 - y) * t / 2, 0.0, -q, 0.0


def _coupled_field(t, x, y):
    q, s = 1 + t**2 / 4, 1 + np.sin(np.pi * x / 2) / 8
    return ((1 - y) * q * s, (1 - y) * t / 2 * s,
            (1 - y) * q * (np.pi / 16 * np.cos(np.pi * x / 2)), -q * s, 0.0)


STUDIES = {
    "x": Study(_x_field, uniform_flow(), _x_grid, "dx"),
    "y": Study(_y_field, uniform_flow(),
               lambda n: GridSpec(nx=8, ny=n, nt=16, L=1.0, T=0.5), "dy"),
    "t": Study(_t_field, uniform_flow(),
               lambda n: GridSpec(nx=8, ny=8, nt=n, L=1.0, T=0.5), "dt"),
    "coupled": Study(_coupled_field, accelerating_flow(), _x_grid, "dx"),
}


def case(study: str, eps: float) -> ManufacturedCase:
    """The manufactured case of one row of STUDIES."""
    if study not in STUDIES:
        raise ConfigError(f"no refinement study '{study}'; choose from {', '.join(STUDIES)}")
    row = STUDIES[study]
    return build_case(f"mms-{study}", row.field, row.flow, eps)


def _final_error(mms_case: ManufacturedCase, grid: GridSpec) -> float:
    prob = mms_case.problem(grid)
    hist = solve(prob, grid, mms_case.eps, forcing=mms_case.forcing, label=mms_case.name)
    exact = mms_case.exact_on(grid)
    return float(np.max(np.abs(hist.values[-1] - exact[-1])))


def _fit_order(hs: Sequence[float], errs: Sequence[float]) -> float:
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if np.any(errs <= 0):  # a vanishing error has no order; NaN fails the floor
        return float("nan")
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope)


def refinement_study(study: str) -> float:
    """Measured convergence order of one row of STUDIES at EPS, over LEVELS
    grids of its family with studied resolution BASE, 2 BASE, 4 BASE, ...

    The family refines only the studied step; the others stay at CFL-safe
    values derived from the studied resolution.
    """
    mms_case = case(study, EPS)
    row = STUDIES[study]
    grids = [row.grid(BASE * 2**k) for k in range(LEVELS)]
    return _fit_order([getattr(g, row.step) for g in grids],
                      [_final_error(mms_case, g) for g in grids])


def one_step_error(case: ManufacturedCase, dt: float, nx: int = 16, ny: int = 16) -> float:
    """Sup error after a single step of size dt from exact initial data.

    The march still covers a few steps (the grid type wants at least four
    levels); only the first one is compared.
    """
    grid = GridSpec(nx=nx, ny=ny, nt=4, L=1.0, T=4.0 * dt)
    prob = case.problem(grid)
    hist = solve(prob, grid, case.eps, forcing=case.forcing, label=case.name)
    xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
    exact = case.u_exact(np.full_like(xx, grid.t[1]), xx, yy)
    return float(np.max(np.abs(hist.values[1] - exact)))

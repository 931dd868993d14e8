"""Manufactured-solution oracles for the regularized solver.

A chosen closed-form field is substituted symbolically into the regularized
equation; the mismatch becomes the forcing term and the field's own traces
become the data, so the discrete solution can be compared against a known
answer.  The suction trace is recovered from the wall flux relation, which
couples it to the regularization level.

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
import sympy as sp

from .crocco import CroccoData, CroccoProblem, make_problem
from .errors import ConfigError
from .flows import ExternalFlow
from .grids import GridSpec
from .solver import solve

_X, _Y, _T = sp.symbols("x y t", real=True)

EPS = 1e-2  # regularization level of every study
LEVELS = 3  # refinement levels per study
BASE = 16  # studied resolution of the coarsest level


def _lam(expr, args) -> Callable:
    fn = sp.lambdify(args, expr, modules="numpy")

    def wrapped(*vals):
        shape = np.broadcast(*[np.asarray(v) for v in vals]).shape
        out = np.asarray(fn(*vals), dtype=float)
        return np.broadcast_to(out, shape).copy() if out.shape != shape else out

    return wrapped


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


def build_case(name: str, u_expr: sp.Expr, U: sp.Expr, eps: float) -> ManufacturedCase:
    """Derive forcing and traces for a candidate field under the outer flow
    U(x, t), given symbolically.

    The outer flow and its derivatives are lambdified from the same
    expression the forcing is derived from; the forcing and the suction
    trace are lambdified as derived, unsimplified.  The field must vanish
    identically on y = 1 and stay positive below it; the first is checked
    symbolically, the second is the caller's business.
    """
    top = sp.simplify(u_expr.subs(_Y, 1))
    if top != 0:
        raise ConfigError(f"manufactured field must vanish at y = 1, got {top}")
    if eps <= 0:
        raise ConfigError("regularization level must be positive")
    Ux = sp.diff(U, _X)
    Ut = sp.diff(U, _T)
    Px = -(Ut + U * Ux)
    a = _Y * U
    b = (1 - _Y**2) * Ux + (1 - _Y) * Ut / U
    c = (1 - _Y) * Ux - Px / U
    f = (sp.diff(u_expr, _T) - (u_expr + eps) ** 2 * sp.diff(u_expr, _Y, 2)
         + (a + eps) * sp.diff(u_expr, _X) + b * sp.diff(u_expr, _Y) + c * u_expr)
    wall = u_expr.subs(_Y, 0)
    v0_expr = sp.diff(u_expr, _Y).subs(_Y, 0) - (Px / U) / (wall + eps)
    return ManufacturedCase(
        name=name,
        flow=ExternalFlow(*(_lam(e, (_X, _T)) for e in (U, Ux, Ut))),
        eps=eps,
        u_exact=_lam(u_expr, (_T, _X, _Y)),
        forcing=_lam(f, (_X, _Y, _T)),
        data=CroccoData(w0=_lam(u_expr.subs(_T, 0), (_X, _Y)),
                        w1=_lam(u_expr.subs(_X, 0), (_Y, _T)),
                        v0=_lam(v0_expr, (_X, _T))),
    )


# ---------------------------------------------------------------------------
# refinement studies


@dataclass(frozen=True)
class Study:
    """A closed-form field, the symbolic outer flow it runs under, the grid
    family at studied resolution n, and the grid step that family refines."""

    field: sp.Expr
    flow: sp.Expr
    grid: Callable[[int], GridSpec]
    step: str  # "dx", "dy" or "dt"


def _x_grid(n: int) -> GridSpec:
    return GridSpec(nx=n, ny=16, nt=2 * n, L=1.0, T=0.5)


STUDIES = {
    "x": Study((1 - _Y) * (1 + sp.sin(sp.pi * _X / 2) / 4), sp.Integer(1),
               _x_grid, "dx"),
    "y": Study((1 - _Y) * sp.exp(_Y / 2), sp.Integer(1),
               lambda n: GridSpec(nx=8, ny=n, nt=16, L=1.0, T=0.5), "dy"),
    "t": Study((1 - _Y) * (1 + _T**2 / 4), sp.Integer(1),
               lambda n: GridSpec(nx=8, ny=8, nt=n, L=1.0, T=0.5), "dt"),
    "coupled": Study((1 - _Y) * (1 + _T**2 / 4) * (1 + sp.sin(sp.pi * _X / 2) / 8),
                     1 + _T, _x_grid, "dx"),
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
    if np.any(errs <= 0):
        return float("inf")
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

"""Manufactured-solution oracles for the regularized solver.

A chosen closed-form field is substituted symbolically into the regularized
equation; the mismatch becomes the forcing term and the field's own traces
become the data, so the discrete solution can be compared against a known
answer.  The suction trace is recovered from the wall flux relation, which
couples it to the regularization level.

The three refinement studies isolate one grid direction each: a steady
field that is linear in y and curved in x (streamwise upwind error only),
a steady x-independent field with genuine y-curvature (wall-normal error
only), and an x-independent field linear in y with curved time dependence
(time-stepping error only).
"""

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np
import sympy as sp

from .crocco import CroccoData, CroccoProblem, make_problem
from .errors import ConfigError
from .flows import ExternalFlow
from .grids import GridSpec
from .solver import solve

_X, _Y, _T = sp.symbols("x y t", real=True)

# the symbolic outer flows U(x, t) a manufactured case can run under
_FLOWS = {"uniform": sp.Integer(1), "accelerating": 1 + _T}


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


def build_case(name: str, u_expr: sp.Expr, eps: float,
               flow_name: str = "uniform") -> ManufacturedCase:
    """Derive forcing and traces for a candidate field.

    The outer flow and its derivatives are lambdified from the same
    symbolic profile the forcing is derived from.  The field must vanish
    identically on y = 1 and stay positive below it; the first is checked
    symbolically, the second is the caller's business.
    """
    top = sp.simplify(u_expr.subs(_Y, 1))
    if top != 0:
        raise ConfigError(f"manufactured field must vanish at y = 1, got {top}")
    if eps <= 0:
        raise ConfigError("regularization level must be positive")
    if flow_name not in _FLOWS:
        raise ConfigError(f"no symbolic profile for flow '{flow_name}'")
    U = _FLOWS[flow_name]
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

    u_fn = _lam(u_expr, (_T, _X, _Y))
    f_fn = _lam(sp.simplify(f), (_X, _Y, _T))
    w0_fn = _lam(u_expr.subs(_T, 0), (_X, _Y))
    w1_fn = _lam(u_expr.subs(_X, 0), (_Y, _T))
    v0_fn = _lam(sp.simplify(v0_expr), (_X, _T))
    return ManufacturedCase(
        name=name,
        flow=ExternalFlow(*(_lam(e, (_X, _T)) for e in (U, Ux, Ut))),
        eps=eps,
        u_exact=u_fn,
        forcing=f_fn,
        data=CroccoData(w0=w0_fn, w1=w1_fn, v0=v0_fn),
    )


# ---------------------------------------------------------------------------
# the three direction-isolated cases


def streamwise_case(eps: float = 1e-2) -> ManufacturedCase:
    """Steady, linear in y: only the first-order streamwise upwind errs."""
    u = (1 - _Y) * (1 + sp.sin(sp.pi * _X / 2) / 4)
    return build_case("mms-streamwise", u, eps)


def wall_normal_case(eps: float = 1e-2) -> ManufacturedCase:
    """Steady and x-free with real curvature in y: second-order territory."""
    u = (1 - _Y) * sp.exp(_Y / 2)
    return build_case("mms-wall-normal", u, eps)


def time_case(eps: float = 1e-2) -> ManufacturedCase:
    """x-free and linear in y with curved time dependence: pure time error."""
    u = (1 - _Y) * (1 + _T**2 / 4)
    return build_case("mms-time", u, eps)


def coupled_case(eps: float = 1e-2) -> ManufacturedCase:
    """Every term active at once: the accelerating stream carries a nonzero
    pressure trace into the flux condition, so the wall update iterates."""
    u = (1 - _Y) * (1 + _T**2 / 4) * (1 + sp.sin(sp.pi * _X / 2) / 8)
    return build_case("mms-coupled", u, eps, flow_name="accelerating")


# ---------------------------------------------------------------------------
# refinement studies


@dataclass
class StudyLevel:
    grid: str
    h: float
    error: float


@dataclass
class StudyResult:
    name: str
    direction: str
    levels: List[StudyLevel]
    order: float

    def summary(self) -> str:
        lines = [f"{self.name}: direction {self.direction}, order {self.order:.3f}"]
        lines += [f"  {lv.grid}  h={lv.h:.5g}  err={lv.error:.5g}" for lv in self.levels]
        return "\n".join(lines)


def _final_error(case: ManufacturedCase, grid: GridSpec) -> float:
    prob = case.problem(grid)
    hist = solve(prob, grid, case.eps, forcing=case.forcing, label=case.name)
    exact = case.exact_on(grid)
    return float(np.max(np.abs(hist.values[-1] - exact[-1])))


def _fit_order(hs: Sequence[float], errs: Sequence[float]) -> float:
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if np.any(errs <= 0):
        return float("inf")
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope)


def refinement_study(direction: str, levels: int = 3, base: int = 16,
                     eps: float = 1e-2) -> StudyResult:
    """Measured convergence order in one grid direction.

    Grids refine only the studied direction; the others stay at CFL-safe
    values derived from the studied resolution.
    """
    if direction not in ("x", "y", "t"):
        raise ConfigError("direction must be one of x, y, t")
    if levels < 2:
        raise ConfigError("need at least two refinement levels")
    case = {"x": streamwise_case, "y": wall_normal_case, "t": time_case}[direction](eps=eps)
    rows = []
    for k in range(levels):
        n = base * 2**k
        if direction == "x":
            grid = GridSpec(nx=n, ny=16, nt=2 * n, L=1.0, T=0.5)
            h = grid.dx
        elif direction == "y":
            grid = GridSpec(nx=8, ny=n, nt=16, L=1.0, T=0.5)
            h = grid.dy
        else:
            grid = GridSpec(nx=8, ny=8, nt=n, L=1.0, T=0.5)
            h = grid.dt
        rows.append(StudyLevel(grid=grid.label, h=h, error=_final_error(case, grid)))
    order = _fit_order([r.h for r in rows], [r.error for r in rows])
    return StudyResult(name=f"mms-{direction}", direction=direction, levels=rows, order=order)


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

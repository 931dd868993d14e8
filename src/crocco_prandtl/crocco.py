"""The Crocco-domain problem: transformed coefficients, sampled data and
the structural hypotheses of the well-posedness theory.

Physical unknowns: tangential velocity u(x, y, t) increasing from 0 at the
wall to the outer flow U(x, t).  Crocco unknowns: the normalized shear
w = (dy u)/U as a function of (x, eta, t) with eta = u/U in (0, 1).  In the
transformed equation

    dt w - w^2 dyy w + a dx w + b dy w + c w = 0,
    a = y U,
    b = (1 - y^2) dxU + (1 - y) dtU / U,
    c = (1 - y) dxU - dxP / U,

the Crocco coordinate eta is written y throughout this package.  The wall
condition couples the shear to the suction velocity v0 <= 0 through

    w dy w = v0 w + dxP / U          at y = 0,

and w vanishes at y = 1.  An alternative form of the zeroth-order
coefficient circulating in derivations, y dxU + dtU / U, differs from c
by 2 (1 - y) dxU; only c is sampled.
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DataError
from .flows import ExternalFlow, pressure_gradient
from .grids import GridSpec


@dataclass(frozen=True)
class CroccoData:
    """Problem data already living on the Crocco domain.

    w0(x, y): initial shear field, w1(y, t): inflow shear, v0(x, t): suction.
    """

    w0: Callable
    w1: Callable
    v0: Callable


@dataclass(frozen=True)
class ValidationIssue:
    condition: str
    location: tuple
    value: float

    def __str__(self):
        loc = ", ".join(f"{v:.6g}" for v in self.location)
        return f"{self.condition} violated at ({loc}): value {self.value:.6g}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple
    c0: float
    favorable: bool

    @property
    def ok(self) -> bool:
        return len(self.issues) == 0

    def summary(self) -> str:
        if self.ok:
            return f"all hypotheses hold; envelope constant C0 = {self.c0:.6g}"
        return "\n".join(str(i) for i in self.issues)


@dataclass(frozen=True)
class CroccoProblem:
    """Coefficient fields and data sampled on a GridSpec.

    Arrays are indexed (t, x, y) for volume fields; data arrays are
    w0 (x, y), w1 (t, y), v0 and px_over_u (t, x).
    """

    grid: GridSpec
    flow: ExternalFlow
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    px_over_u: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    v0: np.ndarray
    label: str = ""

    def replace_data(self, w0=None, w1=None, v0=None, label=None) -> "CroccoProblem":
        return replace(
            self,
            w0=self.w0 if w0 is None else _lock(np.asarray(w0, float)),
            w1=self.w1 if w1 is None else _lock(np.asarray(w1, float)),
            v0=self.v0 if v0 is None else _lock(np.asarray(v0, float)),
            label=self.label if label is None else label,
        )


def _lock(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Coefficients:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    px_over_u: np.ndarray


def coefficients(flow: ExternalFlow, grid: GridSpec) -> Coefficients:
    """Sample the transformed-equation coefficients on the grid nodes.

    At the wall the first-order coefficient satisfies
    b(x, 0, t) = -dxP/U exactly.
    """
    t = grid.t[:, None, None]
    x = grid.x[None, :, None]
    y = grid.y[None, None, :]
    U = np.asarray(flow.U(x, t), dtype=float)
    if np.any(U <= 0.0):
        k = int(np.argmin(U))
        idx = np.unravel_index(k, U.shape)
        raise DataError(
            f"flow U must be positive on the grid; U={U[idx]:.6g} at "
            f"(x={grid.x[idx[1]]:.6g}, t={grid.t[idx[0]]:.6g})"
        )
    dxU = np.asarray(flow.dxU(x, t), dtype=float)
    dtU = np.asarray(flow.dtU(x, t), dtype=float)
    dxP = -(dtU + U * dxU)
    a = y * U
    b = (1.0 - y**2) * dxU + (1.0 - y) * dtU / U
    c = (1.0 - y) * dxU - dxP / U
    full = (grid.nt + 1, grid.nx + 1, grid.ny + 1)
    flat = (grid.nt + 1, grid.nx + 1)
    return Coefficients(
        a=_lock(np.broadcast_to(a, full).copy()),
        b=_lock(np.broadcast_to(b, full).copy()),
        c=_lock(np.broadcast_to(c, full).copy()),
        px_over_u=_lock(np.broadcast_to((dxP / U)[..., 0], flat).copy()),
    )


def make_problem(flow: ExternalFlow, grid: GridSpec, data: CroccoData, label: str = "") -> CroccoProblem:
    """Assemble coefficients and sampled data into a solvable problem."""
    coef = coefficients(flow, grid)
    x = grid.x
    y = grid.y
    t = grid.t
    w0 = np.asarray(data.w0(x[:, None], y[None, :]), dtype=float)
    w0 = np.broadcast_to(w0, (grid.nx + 1, grid.ny + 1)).copy()
    w1 = np.asarray(data.w1(y[None, :], t[:, None]), dtype=float)
    w1 = np.broadcast_to(w1, (grid.nt + 1, grid.ny + 1)).copy()
    v0 = np.asarray(data.v0(x[None, :], t[:, None]), dtype=float)
    v0 = np.broadcast_to(v0, (grid.nt + 1, grid.nx + 1)).copy()

    if np.max(np.abs(w0[:, -1])) > 1e-9 or np.max(np.abs(w1[:, -1])) > 1e-9:
        raise DataError("shear data must vanish on the y = 1 row")
    w0[:, -1] = 0.0
    w1[:, -1] = 0.0
    corner = float(np.max(np.abs(w0[0, :] - w1[0, :])))
    if corner > 1e-9:
        raise DataError(f"initial and inflow data disagree at the corner x=0, t=0 by {corner:.3g}")
    return CroccoProblem(
        grid=grid,
        flow=flow,
        a=coef.a,
        b=coef.b,
        c=coef.c,
        px_over_u=coef.px_over_u,
        w0=_lock(w0),
        w1=_lock(w1),
        v0=_lock(v0),
        label=label,
    )


def validate(data: CroccoData, flow: ExternalFlow, grid: Optional[GridSpec] = None,
             c0_max: float = 50.0) -> ValidationReport:
    """Check the structural hypotheses of the well-posedness theory.

    Sampled checks: positive outer flow, non-positive suction, positive
    shear data below y = 1 (the monotone-profile class), the linear
    envelope bound w comparable to (1 - y) with constant below c0_max, and
    the favorable-pressure flag.  An empty issue list means every
    hypothesis holds on the sample lattice.
    """
    grid = grid or GridSpec(64, 64, 64, flow.L, flow.T)
    issues = []
    x = grid.x
    y = grid.y
    t = grid.t

    xx, tt = np.meshgrid(x, t, indexing="ij")
    Uv = np.asarray(flow.U(xx, tt), dtype=float)
    if np.any(Uv <= 0):
        i, j = np.unravel_index(int(np.argmin(Uv)), Uv.shape)
        issues.append(ValidationIssue("outer flow positivity (U > 0)",
                                      (xx[i, j], tt[i, j]), float(Uv[i, j])))

    v0v = np.broadcast_to(np.asarray(data.v0(xx, tt), dtype=float), xx.shape)
    if np.any(v0v > 1e-12):
        i, j = np.unravel_index(int(np.argmax(v0v)), v0v.shape)
        issues.append(ValidationIssue("suction sign (v0 <= 0)",
                                      (xx[i, j], tt[i, j]), float(v0v[i, j])))

    yint = y[:-1]
    ratios = []
    for name, vals, coords in (
        ("initial shear", np.broadcast_to(np.asarray(data.w0(x[:, None], yint[None, :]), float),
                                          (x.size, yint.size)), x),
        ("inflow shear", np.broadcast_to(np.asarray(data.w1(yint[None, :], t[:, None]), float),
                                         (t.size, yint.size)), t),
    ):
        if np.any(vals <= 0):
            i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
            issues.append(ValidationIssue(f"monotone profile class ({name} > 0)",
                                          (coords[i], yint[j]), float(vals[i, j])))
            continue
        ratio = vals / (1.0 - yint[None, :])
        ratios.append(ratio)
        lo = float(np.min(ratio))
        hi = float(np.max(ratio))
        if lo < 1.0 / c0_max:
            i, j = np.unravel_index(int(np.argmin(ratio)), ratio.shape)
            issues.append(ValidationIssue(
                f"linear envelope lower bound ({name} vs (1-y)/C0, C0={c0_max:g})",
                (coords[i], yint[j]), lo))
        if hi > c0_max:
            i, j = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
            issues.append(ValidationIssue(
                f"linear envelope upper bound ({name} vs C0 (1-y), C0={c0_max:g})",
                (coords[i], yint[j]), hi))

    if ratios:
        allr = np.concatenate([r.ravel() for r in ratios])
        c0 = float(max(np.max(allr), np.max(1.0 / allr)))
    else:
        c0 = float("inf")

    grad = pressure_gradient(flow, nx=x.size, nt=t.size)
    if not grad.favorable:
        issues.append(ValidationIssue("favorable pressure (dxP <= 0)",
                                      grad.worst_location, grad.worst_value))
    return ValidationReport(issues=tuple(issues), c0=c0, favorable=grad.favorable)

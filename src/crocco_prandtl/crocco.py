"""Change of variables between the physical strip and the Crocco domain.

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
from scipy.integrate import cumulative_trapezoid

from .errors import ConfigError, DataError
from .flows import ExternalFlow, PressureGradient, pressure_gradient, _read_table
from .grids import GridSpec


@dataclass(frozen=True)
class PhysicalData:
    """Physical-variable data: initial profile, inflow profile, wall suction.

    u0(x, y) and u1(y, t) are monotone in y with u = 0 at the wall; v0 <= 0.
    """

    u0: Callable
    u1: Callable
    v0: Callable
    y_max: float = 8.0


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
    b(x, 0, t) = -dxP/U exactly for closed-form flows and to O(h^2) for
    tabulated ones.
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


def to_crocco(y: np.ndarray, u: np.ndarray, U: float, eta: np.ndarray,
              append_outer_limit: bool = True) -> np.ndarray:
    """Transform one monotone physical profile u(y) to the shear w(eta).

    eta = u / U, w = (dy u) / U; derivatives are second-order differences
    and the pullback to the requested eta nodes is monotone piecewise-linear
    interpolation (O(h^2)).  When the profile approaches the outer flow the
    asymptote (eta, w) = (1, 0) is appended so that eta grids reaching 1 can
    be filled.
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if y.ndim != 1 or y.shape != u.shape:
        raise DataError("profile arrays y, u must be matching 1-D arrays")
    du = np.diff(u)
    if np.any(du <= 0):
        k = int(np.argmin(du))
        raise DataError(
            f"profile not strictly increasing on [{y[k]:.6g}, {y[k + 1]:.6g}] "
            f"(u steps from {u[k]:.6g} to {u[k + 1]:.6g})"
        )
    if U <= 0:
        raise DataError("outer flow value must be positive")
    if np.any(u > U * (1 + 1e-9)):
        raise DataError("profile exceeds the outer flow; eta would leave (0, 1)")
    dudy = np.gradient(u, y)
    eta_s = u / U
    w_s = dudy / U
    if append_outer_limit and eta_s[-1] < 1.0:
        eta_s = np.append(eta_s, 1.0)
        w_s = np.append(w_s, 0.0)
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < eta_s[0] - 1e-12) or np.any(eta > eta_s[-1] + 1e-12):
        raise DataError("requested eta nodes leave the transformed profile range")
    return np.interp(eta, eta_s, w_s)


@dataclass(frozen=True)
class PhysicalField:
    """Physical-variable reconstruction of a Crocco-side shear field.

    y_of_eta maps each (t, x, eta) node below eta = 1 to its wall distance;
    u_phys holds the matching tangential velocity eta * U(x, t).
    """

    t: np.ndarray
    x: np.ndarray
    eta: np.ndarray
    y_of_eta: np.ndarray
    u_phys: np.ndarray


def from_crocco(w_values: np.ndarray, t: np.ndarray, x: np.ndarray, eta: np.ndarray,
                flow: ExternalFlow) -> PhysicalField:
    """Invert the transformation: wall distance y(eta) = integral of 1/w.

    w must be positive below eta = 1; a vanishing top row (the generic
    solver output) simply truncates the map to eta in [0, 1).  A
    non-positive sample anywhere else is an inversion error.
    """
    w = np.asarray(w_values, dtype=float)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if w.shape != (t.size, x.size, eta.size):
        raise DataError(f"shear field shape {w.shape} does not match coordinates")
    top_zero = np.all(np.abs(w[..., -1]) <= 1e-14)
    core = w[..., :-1] if top_zero else w
    eta_used = eta[:-1] if top_zero else eta
    if np.any(core <= 0):
        idx = np.unravel_index(int(np.argmin(core)), core.shape)
        raise DataError(
            f"shear must be positive below eta=1; w={core[idx]:.6g} at "
            f"(t={t[idx[0]]:.6g}, x={x[idx[1]]:.6g}, eta={eta_used[idx[2]]:.6g})"
        )
    y_map = cumulative_trapezoid(1.0 / core, eta_used, axis=-1, initial=0.0)
    Uv = np.asarray(flow.U(x[None, :], t[:, None]), dtype=float)
    Uv = np.broadcast_to(Uv, (t.size, x.size))
    u_phys = eta_used[None, None, :] * Uv[:, :, None]
    return PhysicalField(t=t, x=x, eta=eta_used, y_of_eta=y_map, u_phys=u_phys)


def physical_to_crocco(data: PhysicalData, flow: ExternalFlow, grid: GridSpec,
                       n_samples: int = 512) -> CroccoData:
    """Build Crocco-domain data tables from physical profiles by columnwise
    transformation, returned as interpolating callables."""
    ys = np.linspace(0.0, data.y_max, n_samples)
    eta = grid.y
    w0_tab = np.empty((grid.nx + 1, grid.ny + 1))
    for i, xi in enumerate(grid.x):
        w0_tab[i] = to_crocco(ys, np.asarray(data.u0(xi, ys), float), float(flow.U(xi, 0.0)), eta)
    w1_tab = np.empty((grid.nt + 1, grid.ny + 1))
    for n, tn in enumerate(grid.t):
        w1_tab[n] = to_crocco(ys, np.asarray(data.u1(ys, tn), float), float(flow.U(0.0, tn)), eta)

    def w0(x, y):
        xq, yq = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        ii = np.clip(np.searchsorted(grid.x, xq.ravel()), 0, grid.nx)
        out = np.array([np.interp(yv, eta, w0_tab[i]) for i, yv in zip(ii, yq.ravel())])
        return out.reshape(xq.shape)

    def w1(y, t):
        yq, tq = np.broadcast_arrays(np.asarray(y, float), np.asarray(t, float))
        nn = np.clip(np.searchsorted(grid.t, tq.ravel()), 0, grid.nt)
        out = np.array([np.interp(yv, eta, w1_tab[n]) for n, yv in zip(nn, yq.ravel())])
        return out.reshape(yq.shape)

    return CroccoData(w0=w0, w1=w1, v0=data.v0)


def load_data_tables(u0_path=None, u1_path=None, v0_path=None) -> CroccoData:
    """Read Crocco-domain data tables: `x,y,u0`, `y,t,u1`, `x,t,v0`."""

    def interp2(path, cols):
        avals, bvals, grid = _read_table(path, cols)
        from scipy.interpolate import RegularGridInterpolator

        f = RegularGridInterpolator((avals, bvals), grid, bounds_error=False, fill_value=None)

        def call(a, b):
            aq, bq = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
            pts = np.stack([aq.ravel(), bq.ravel()], axis=-1)
            return f(pts).reshape(aq.shape)

        return call

    if u0_path is None or u1_path is None or v0_path is None:
        raise ConfigError("custom data requires u0_table, u1_table and v0_table paths")
    return CroccoData(
        w0=interp2(u0_path, ("x", "y", "u0")),
        w1=interp2(u1_path, ("y", "t", "u1")),
        v0=interp2(v0_path, ("x", "t", "v0")),
    )

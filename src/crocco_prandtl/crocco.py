"""The Crocco-domain problem: outer-flow factors of the transformed
coefficients, sampled data and the structural hypotheses of the
well-posedness theory.

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
by 2 (1 - y) dxU; only c is formed.

a, b, c are (t, x) factors of the outer flow times polynomials in y, so a
problem stores only U, dxU, dtU and dxP/U on (t, x); a, b, c are formed
from them, per time level or as volumes, by `CroccoProblem.coefficients`.

`make_problem` is the only place the outer flow is sampled;
`pressure_gradient` checks favorability (dxP <= 0, the hypothesis of
Oleinik's monotone class) on the problem's own (t, x) nodes, and
`validate` returns every hypothesis as a grids.Check on its worst node.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .flows import ExternalFlow
from .grids import Check, GridSpec

# largest admissible constant of the linear envelope (1 - y)/C0 <= w <= C0 (1 - y)
C0_MAX = 50.0
FAVORABLE_TOL = 1e-12  # largest dxP a favorable pressure gradient may reach


@dataclass(frozen=True)
class CroccoData:
    """Problem data already living on the Crocco domain.

    w0(x, y): initial shear field, w1(y, t): inflow shear, v0(x, t): suction.
    """

    w0: Callable
    w1: Callable
    v0: Callable


@dataclass(frozen=True)
class ValidationReport:
    """Each hypothesis as a Check keyed by its condition, the node where it
    is worst keyed the same way, and the envelope constant C0 (None if none
    was measured)."""

    checks: dict
    where: dict
    c0: Optional[float]

    @property
    def ok(self) -> bool:
        return all(chk.passed for chk in self.checks.values())

    def summary(self) -> str:
        if not self.ok:
            return "\n".join(
                f"{cond} violated at ({', '.join(f'{v:.6g}' for v in self.where[cond])}): "
                f"value {chk.value:.6g}"
                for cond, chk in self.checks.items() if not chk.passed)
        if not self.checks:
            return "no hypotheses to check"
        envelope = "" if self.c0 is None else f"; envelope constant C0 = {self.c0:.6g}"
        return "all hypotheses hold" + envelope


@dataclass(frozen=True, eq=False)
class CroccoProblem:
    """Outer-flow factors and data sampled on a GridSpec.

    The (t, x) arrays are U, dxU, dtU, px_over_u (= dxP/U) and v0; w0 is
    (x, y) and w1 is (t, y).  The coefficients a, b, c are never stored:
    `coefficients` forms them from the (t, x) factors and the y profiles.
    A problem compares and hashes by identity.
    """

    grid: GridSpec
    U: np.ndarray
    dxU: np.ndarray
    dtU: np.ndarray
    px_over_u: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    v0: np.ndarray
    label: str = ""

    def coefficients(self, n) -> tuple:
        """(a, b, c) at time index n: (nx+1, ny+1) arrays for an integer n,
        (nt+1, nx+1, ny+1) volumes for slice(None).

        a = y U, b = (1 - y^2) dxU + (1 - y) dtU / U and c = (1 - y) dxU
        - dxP/U, each in this operation order, so a level and the matching
        slice of the volume agree bit for bit.  At the wall the first-order
        coefficient satisfies b(x, 0, t) = -dxP/U exactly.
        """
        y, one_minus_y2, one_minus_y = _y_profiles(self.grid)
        U, dxU, dtU, g = (f[n][..., None] for f in (self.U, self.dxU, self.dtU, self.px_over_u))
        a = y * U
        b = one_minus_y2 * dxU + one_minus_y * dtU / U
        c = one_minus_y * dxU - g
        return a, b, c

    @cached_property
    def b_abs_max(self) -> float:
        """max |b| over the grid nodes, formed one time level at a time."""
        return float(np.max([np.max(np.abs(self.coefficients(n)[1]))
                             for n in range(self.grid.nt + 1)]))


@lru_cache(maxsize=8)
def _y_profiles(grid: GridSpec) -> tuple:
    """The y nodes and the profiles 1 - y^2 and 1 - y, built once per grid."""
    y = grid.y
    return tuple(_lock(v) for v in (y, 1.0 - y**2, 1.0 - y))


def _lock(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def make_problem(flow: ExternalFlow, grid: GridSpec, data: CroccoData, label: str = "") -> CroccoProblem:
    """Sample the outer-flow factors and the data into a solvable problem."""
    x = grid.x
    y = grid.y
    t = grid.t

    def on_tx(f):
        vals = np.asarray(f(x[None, :], t[:, None]), dtype=float)
        return np.broadcast_to(vals, (grid.nt + 1, grid.nx + 1)).copy()

    U = on_tx(flow.U)
    if np.any(U <= 0.0):
        i, j = np.unravel_index(int(np.argmin(U)), U.shape)
        raise ConfigError(
            f"flow U must be positive on the grid; U={U[i, j]:.6g} at "
            f"(x={x[j]:.6g}, t={t[i]:.6g})"
        )
    dxU = on_tx(flow.dxU)
    dtU = on_tx(flow.dtU)
    dxP = -(dtU + U * dxU)
    w0 = np.asarray(data.w0(x[:, None], y[None, :]), dtype=float)
    w0 = np.broadcast_to(w0, (grid.nx + 1, grid.ny + 1)).copy()
    w1 = np.asarray(data.w1(y[None, :], t[:, None]), dtype=float)
    w1 = np.broadcast_to(w1, (grid.nt + 1, grid.ny + 1)).copy()
    v0 = on_tx(data.v0)

    if np.max(np.abs(w0[:, -1])) > 1e-9 or np.max(np.abs(w1[:, -1])) > 1e-9:
        raise ConfigError("shear data must vanish on the y = 1 row")
    w0[:, -1] = 0.0
    w1[:, -1] = 0.0
    corner = float(np.max(np.abs(w0[0, :] - w1[0, :])))
    if corner > 1e-9:
        raise ConfigError(f"initial and inflow data disagree at the corner x=0, t=0 by {corner:.3g}")
    return CroccoProblem(grid, *map(_lock, (U, dxU, dtU, dxP / U, w0, w1, v0)), label=label)


def validate(problem: CroccoProblem) -> ValidationReport:
    """Check the structural hypotheses of the well-posedness theory on the
    problem a run would march.

    Reads the sampled data: non-positive suction v0, positive shear w0 and
    w1 below y = 1 (the monotone-profile class) and the linear envelope
    bound w comparable to (1 - y) with constant below C0_MAX, the envelope
    checked only on a shear that is positive.  The pressure gradient is
    checked by `pressure_gradient` on the problem's own (t, x) nodes.
    Positivity of U needs no check here: make_problem refuses a problem
    without it.  Each check is made on the worst node, the first one in the
    array's order, and keyed by the condition it tests.
    """
    g = problem.grid
    x, t, yint = g.x, g.t, g.y[:-1]
    checks, where = {}, {}

    def record(cond, vals, pick, bound, sense, node):
        # the value at the first arg-extremum of vals against bound, and its node
        i, j = np.unravel_index(int(pick(vals)), vals.shape)
        checks[cond] = Check(float(vals[i, j]), bound, sense)
        where[cond] = node(i, j)
        return checks[cond]

    record("suction sign (v0 <= 0)", problem.v0, np.argmax, 1e-12, "<=",
           lambda i, j: (x[j], t[i]))
    # each family's 1/min r and max r; 1/min r is max 1/r, as rounding is monotone
    envelope = []
    for name, vals, coords in (("initial shear", problem.w0[:, :-1], x),
                               ("inflow shear", problem.w1[:, :-1], t)):
        def node(i, j):
            return coords[i], yint[j]
        if not record(f"monotone profile class ({name} > 0)", vals, np.argmin, 0.0, ">",
                      node).passed:
            continue
        ratio = vals / (1.0 - yint[None, :])
        lower = record(f"linear envelope lower bound ({name} vs (1-y)/C0, C0={C0_MAX:g})",
                       ratio, np.argmin, 1.0 / C0_MAX, ">=", node)
        upper = record(f"linear envelope upper bound ({name} vs C0 (1-y), C0={C0_MAX:g})",
                       ratio, np.argmax, C0_MAX, "<=", node)
        envelope += [1.0 / lower.value, upper.value]
    c0 = float(np.max(envelope)) if envelope else None

    favorable = "favorable pressure (dxP <= 0)"
    checks[favorable], where[favorable] = pressure_gradient(problem)
    return ValidationReport(checks=checks, where=where, c0=c0)


def pressure_gradient(problem: CroccoProblem) -> tuple:
    """dxP = -(dtU + U dxU) from the problem's (t, x) samples, as make_problem
    forms it: the check that its largest value is at most FAVORABLE_TOL
    (favorable, dxP <= 0), and that value's node (x, t), the first maximum
    in x-major order."""
    dxP = -(problem.dtU + problem.U * problem.dxU)
    ix, it = np.unravel_index(int(np.argmax(dxP.T)), dxP.T.shape)
    return (Check(float(dxP[it, ix]), FAVORABLE_TOL, "<="),
            (float(problem.grid.x[ix]), float(problem.grid.t[it])))

"""Quantitative functionals of computed histories.

Every bound the well-posedness theory asserts is measured here as a plain
number on the grid: the linear comparison envelope, total variation over
the cylinder, weighted gradient norms, the weighted second-derivative mass,
the weak-form residual against a fixed family of test functions, trace
residuals of all four boundary conditions, the L1 stability functional
comparing two runs (in Crocco variables and in physical variables), and the
relative spread of a functional over a viscosity family.  The scenario
runners record these numbers in their run reports.

Quadratures: volume integrals use cell midpoints (which keeps 1/u bounded,
since u vanishes only on the y = 1 node row); staggered first differences
are the midpoint derivative samples; boundary integrals use the trace rows
directly.
"""

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .crocco import CroccoProblem
from .errors import ConfigError, NumericalError
from .grids import FieldHistory, trapezoid_weights


# ---------------------------------------------------------------------------
# pointwise comparison envelope


def comparison_constant(history: FieldHistory) -> float:
    """Smallest C with (1-y)/C <= u <= C (1-y); the y = 1 row is excluded.

    Returns inf when the field fails positivity on the included rows.
    """
    y = history.y[:-1]
    u = history.values[:, :, :-1]
    if np.min(u) <= 0:
        return float("inf")
    ratio = u / (1.0 - y[None, None, :])
    return float(max(np.max(ratio), np.max(1.0 / ratio)))


# ---------------------------------------------------------------------------
# total variation and weighted norms


def _staggered_mass(diff: np.ndarray, widths: float, cross: Sequence[np.ndarray]) -> float:
    """Integrate |diff| where diff is staggered in one direction (cell width
    `widths`) and node-sampled in the others (trapezoid weights)."""
    w = np.abs(diff) * widths
    for axis, cw in enumerate(cross):
        shape = [1] * w.ndim
        shape[axis] = cw.size
        w = w * cw.reshape(shape)
    return float(np.sum(w))


# cells the interior variants of the estimates strip from each side
INTERIOR_MARGIN = 2


def check_margin(margin: int, nx: int, ny: int) -> None:
    """Refuse an interior margin, in cells stripped from each side of the
    x and y axes, that is negative or leaves under 1 x 2 cells of an nx x ny
    grid (the dyy measure's three-point stencil needs 3 y nodes)."""
    if margin < 0:
        raise ConfigError(f"interior margin must be nonnegative, got {margin}")
    if nx - 2 * margin < 1 or ny - 2 * margin < 2:
        raise ConfigError(
            f"interior margin {margin} leaves under 1 x 2 cells of the {nx} x {ny} grid")


def _restrict(values, t, x, y, margin):
    check_margin(margin, x.size - 1, y.size - 1)
    xs, ys = slice(margin, x.size - margin), slice(margin, y.size - margin)
    return values[:, xs, ys], t, x[xs], y[ys]


def bv_seminorm(history: FieldHistory, margin: int = 0) -> float:
    """Discrete integral of |dt u| + |dx u| + |dy u| over the cylinder."""
    v, t, x, y = _restrict(history.values, history.t, history.x, history.y, margin)
    wt, wx, wy = trapezoid_weights(t), trapezoid_weights(x), trapezoid_weights(y)
    dt = np.diff(t).mean()
    dx = np.diff(x).mean()
    dy = np.diff(y).mean()
    total = _staggered_mass(np.diff(v, axis=0) / dt, dt, [np.ones(v.shape[0] - 1), wx, wy])
    total += _staggered_mass(np.diff(v, axis=1) / dx, dx, [wt, np.ones(v.shape[1] - 1), wy])
    total += _staggered_mass(np.diff(v, axis=2) / dy, dy, [wt, wx, np.ones(v.shape[2] - 1)])
    return total


def weighted_grad_norms(history: FieldHistory, alpha: float, margin: int = 0) -> tuple:
    """(1-y)^alpha weighted L1 and L2 masses of the wall-normal gradient."""
    if alpha <= -1:
        raise ConfigError("weight exponent must exceed -1 for an integrable weight")
    v, t, x, y = _restrict(history.values, history.t, history.x, history.y, margin)
    dy = np.diff(y).mean()
    yc = 0.5 * (y[1:] + y[:-1])
    wgt = (1.0 - yc) ** alpha * dy
    grad = np.diff(v, axis=2) / dy
    wt, wx = trapezoid_weights(t), trapezoid_weights(x)
    n1 = float(np.einsum("n,i,nij,j->", wt, wx, np.abs(grad), wgt))
    n2 = float(np.einsum("n,i,nij,j->", wt, wx, grad**2, wgt))
    return n1, n2


def weighted_dyy_measure(history: FieldHistory, alpha: float, margin: int = 0) -> float:
    """(1-y)^alpha weighted mass of |dyy u|, second differences at all nodes
    (shifted three-point stencils at the two walls); requires alpha > 0 so
    the weight vanishes where the profile degenerates."""
    if alpha <= 0:
        raise ConfigError("the second-derivative mass needs a positive weight exponent")
    v, t, x, y = _restrict(history.values, history.t, history.x, history.y, margin)
    dy = np.diff(y).mean()
    d2 = np.empty_like(v)
    d2[:, :, 1:-1] = (v[:, :, 2:] - 2.0 * v[:, :, 1:-1] + v[:, :, :-2]) / dy**2
    d2[:, :, 0] = (v[:, :, 0] - 2.0 * v[:, :, 1] + v[:, :, 2]) / dy**2
    d2[:, :, -1] = (v[:, :, -1] - 2.0 * v[:, :, -2] + v[:, :, -3]) / dy**2
    wt, wx, wy = trapezoid_weights(t), trapezoid_weights(x), trapezoid_weights(y)
    wgt = (1.0 - y) ** alpha * wy
    return float(np.einsum("n,i,nij,j->", wt, wx, np.abs(d2), wgt))


# ---------------------------------------------------------------------------
# weak-form residual

# exponent of the weight (1-y)^alpha in the weak identity
WEAK_ALPHA = 2.0
# time cells per slab of the weak quadrature, which holds no full-volume
# array beyond one slab
WEAK_SLAB = 8


@dataclass(frozen=True)
class TestFunction:
    """sin(pi k x / L) (1-y)^m t exp(-t/T): vanishes at t=0 and on both
    streamwise faces.  sx, sy and st give each 1-D factor with its
    derivative; the function and its first derivatives are their products."""

    k: int
    m: int
    L: float
    T: float

    def sx(self, x):
        w = np.pi * self.k / self.L
        return np.sin(w * x), w * np.cos(w * x)

    def sy(self, y):
        # the exponent max(m - 1, 0) keeps the m = 0 derivative finite at y = 1
        return (1.0 - y) ** self.m, -self.m * (1.0 - y) ** max(self.m - 1, 0)

    def st(self, t):
        e = np.exp(-t / self.T)
        return t * e, (1.0 - t / self.T) * e


def test_function_family(L: float, T: float) -> List[TestFunction]:
    return [TestFunction(k, m, L, T) for k in (1, 2) for m in (0, 1, 2)]


def _center8(v):
    return 0.125 * (
        v[:-1, :-1, :-1] + v[1:, :-1, :-1] + v[:-1, 1:, :-1] + v[:-1, :-1, 1:]
        + v[1:, 1:, :-1] + v[1:, :-1, 1:] + v[:-1, 1:, 1:] + v[1:, 1:, 1:]
    )


def _center4(v):
    return 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])


def _stagger_y(v):
    # y-difference at y midcells, averaged onto (t, x) midcells
    d = v[:, :, 1:] - v[:, :, :-1]
    return 0.25 * (d[:-1, :-1] + d[1:, :-1] + d[:-1, 1:] + d[1:, 1:])


def _stagger_x(v):
    d = v[:, 1:, :] - v[:, :-1, :]
    return 0.25 * (d[:-1, :, :-1] + d[1:, :, :-1] + d[:-1, :, 1:] + d[1:, :, 1:])


def _contract(x_rows, y_rows, *fields):
    """The product of the (t, x, y) fields summed over y against each y row,
    then over x against each x row: a (t, x row, y row) table.  einsum
    without optimize sums in its own loops, never in BLAS, whose split of a
    long dot product follows the thread count."""
    by_y = np.einsum("txy," * len(fields) + "ry->txr", *fields, y_rows)
    return np.einsum("txr,qx->tqr", by_y, x_rows)


def _weak_quadrature(history: FieldHistory, problem: CroccoProblem,
                     margin: int) -> Callable[[TestFunction], dict]:
    """Midcell quadrature of the weak identity with weight (1-y)^WEAK_ALPHA
    for one history, against the members of test_function_family on the
    problem's grid.

    The seven integrals pair 1/u with the weight in the interior, add the
    time boundary term at t = T and the wall trace paid by the suction
    data; their sum vanishes for exact solutions.  A member is a product of
    1-D factors, so each volume integral is contracted one axis at a time
    (sum factorisation).  The time cells are walked in slabs of WEAK_SLAB:
    a slab forms its midcell u (checked positive), 1/u, u_y and a, b, c
    from `problem.coefficients` of its levels, and contracts each kernel
    over y against the family's weighted y factors and over x against its
    x factors.  Only the (nt, x factor, y factor) tables outlive a slab.
    The returned function contracts a member's tables over t against its
    time factor, forms the two surface terms from the same factor arrays,
    and gives the seven terms and their sum.
    """
    g = problem.grid
    check_margin(margin, g.nx, g.ny)
    u = history.values
    t, x, y = history.t, history.x, history.y
    dt, dx, dy = np.diff(t).mean(), np.diff(x).mean(), np.diff(y).mean()
    xs, ys = slice(margin, g.nx - margin), slice(margin, g.ny - margin)
    tc = 0.5 * (t[1:] + t[:-1])
    xc = 0.5 * (x[1:] + x[:-1])[xs]
    yc = 0.5 * (y[1:] + y[:-1])[ys]

    family = test_function_family(g.L, g.T)
    x_factors = {phi.k: phi.sx(xc) for phi in family}
    y_factors = {phi.m: phi.sy(yc) for phi in family}
    ks, ms = sorted(x_factors), sorted(y_factors)
    index = {phi: (ks.index(phi.k), ms.index(phi.m)) for phi in family}
    S, S_x = (np.array([x_factors[k][d] for k in ks]) for d in (0, 1))
    Y, Y_y = (np.array([y_factors[m][d] for m in ms]) for d in (0, 1))
    W = (1.0 - yc) ** WEAK_ALPHA
    Wp = -WEAK_ALPHA * (1.0 - yc) ** (WEAK_ALPHA - 1.0)
    # y rows: W Y pairs phi with a kernel; W Y' + W' Y pairs phi_y W + phi W'
    # with u_y and with b
    A = W * Y
    B = W * Y_y + Wp * Y

    tables = {key: np.empty((g.nt, len(ks), len(ms)))
              for key in ("time_volume", "diffusion", "streamwise", "drift", "reaction")}
    vol_sl = (slice(None), xs, ys)
    for s in range(0, g.nt, WEAK_SLAB):
        e = min(s + WEAK_SLAB, g.nt)
        slab = u[s:e + 1]
        u_c = _center8(slab)
        if np.min(u_c) <= 0.0:
            raise NumericalError("field is not positive at quadrature midpoints")
        inv_u = 1.0 / u_c[vol_sl]
        uy_c = (_stagger_y(slab) / dy)[vol_sl]
        a, b, c = problem.coefficients(slice(s, e + 1))
        a_c, b_c, c_c = (_center8(v)[vol_sl] for v in (a, b, c))
        ax_c, by_c = (_stagger_x(a) / dx)[vol_sl], (_stagger_y(b) / dy)[vol_sl]
        tables["time_volume"][s:e] = _contract(S, A, inv_u)
        tables["diffusion"][s:e] = _contract(S, B, uy_c)
        tables["streamwise"][s:e] = (_contract(S, A, ax_c, inv_u)
                                     + _contract(S_x, A, a_c, inv_u))
        tables["drift"][s:e] = _contract(S, B, b_c, inv_u) + _contract(S, A, by_c, inv_u)
        tables["reaction"][s:e] = _contract(S, A, c_c, inv_u)

    cell = dt * dx * dy
    # final-time surface: nodes in t, midpoints in (x, y)
    uT = _center4(u[-1])[xs, ys]
    # wall trace: nodes in y = 0 row, where every y factor is 1, midpoints in (t, x)
    v0_c = _center4(problem.v0)[:, xs]

    def terms(phi) -> dict:
        i, j = index[phi]
        tau, tau_t = phi.st(tc)

        def vol(key, time_factor):
            return float(np.sum(time_factor * tables[key][:, i, j])) * cell

        final = S[i][:, None] * Y[j] * phi.st(t[-1])[0]
        out = {
            "final_time": -float(np.sum(W * final / uT)) * dx * dy,
            "time_volume": vol("time_volume", tau_t),
            "diffusion": vol("diffusion", tau),
            "streamwise": vol("streamwise", tau),
            "drift": vol("drift", tau),
            "reaction": vol("reaction", tau),
            "wall_trace": float(np.sum(v0_c * (S[i] * tau[:, None]))) * dt * dx,
        }
        out["residual"] = sum(out.values())
        return out

    return terms


def weak_residual(history: FieldHistory, problem: CroccoProblem, margin: int = 0) -> float:
    """Largest absolute weak-identity residual over test_function_family.

    One slab-by-slab pass of _weak_quadrature serves every member of the
    family, so the residual holds no full-volume array besides the history.
    """
    terms = _weak_quadrature(history, problem, margin)
    return max(abs(terms(p)["residual"])
               for p in test_function_family(problem.grid.L, problem.grid.T))


# ---------------------------------------------------------------------------
# trace residuals


@dataclass
class TraceReport:
    initial_sup: float
    outflow_top_sup: float
    inflow_sup: float
    wall_sup: float
    wall_l1: float


def trace_residual(history: FieldHistory, problem: CroccoProblem) -> TraceReport:
    """Residuals of all four trace conditions; the wall gradient uses the
    second-order one-sided stencil so its residual is not polluted by
    first-order noise."""
    u = history.values
    g = problem.grid
    dy = g.dy
    r_init = float(np.max(np.abs(u[0] - problem.w0)))
    r_top = float(np.max(np.abs(u[:, :, -1])))
    r_in = float(np.max(np.abs(u[:, 0, :] - problem.w1)))
    wall = u[:, :, 0]
    if np.min(wall) <= 0:
        raise NumericalError("wall values must stay positive for the flux trace")
    grad = (-3.0 * u[:, :, 0] + 4.0 * u[:, :, 1] - u[:, :, 2]) / (2.0 * dy)
    resid = grad - problem.v0 - problem.px_over_u / wall
    wt = trapezoid_weights(history.t)
    wx = trapezoid_weights(history.x)
    return TraceReport(
        initial_sup=r_init,
        outflow_top_sup=r_top,
        inflow_sup=r_in,
        wall_sup=float(np.max(np.abs(resid))),
        wall_l1=float(np.einsum("n,i,ni->", wt, wx, np.abs(resid))),
    )


# ---------------------------------------------------------------------------
# L1 stability in Crocco and physical variables


@dataclass
class StabilityReport:
    lhs: np.ndarray
    rhs: np.ndarray
    c6_hat: float
    exact_match: bool


def l1_stability(hist_a: FieldHistory, hist_b: FieldHistory,
                 prob_a: CroccoProblem, prob_b: CroccoProblem) -> StabilityReport:
    """Continuous-dependence functional: snapshot L1 distance against the
    accumulated data distance (initial + inflow + suction).

    c6_hat is the largest ratio over time levels with nonzero data distance;
    identical data sets exact_match instead.
    """
    if hist_a.values.shape != hist_b.values.shape:
        raise ConfigError("stability comparison requires matching grids")
    t, x, y = hist_a.t, hist_a.x, hist_a.y
    wt, wx, wy = trapezoid_weights(t), trapezoid_weights(x), trapezoid_weights(y)
    lhs = np.einsum("i,j,nij->n", wx, wy, np.abs(hist_a.values - hist_b.values))

    d_init = float(np.einsum("i,j,ij->", wx, wy, np.abs(prob_a.w0 - prob_b.w0)))
    d_in = np.einsum("j,nj->n", wy, np.abs(prob_a.w1 - prob_b.w1))
    d_wall = np.einsum("i,ni->n", wx, np.abs(prob_a.v0 - prob_b.v0))
    rate = d_in + d_wall
    accum = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(t))])
    rhs = d_init + accum

    exact = bool(d_init == 0.0 and np.all(d_in == 0.0) and np.all(d_wall == 0.0))
    return StabilityReport(lhs=lhs, rhs=rhs, c6_hat=_c6_hat(lhs, rhs, exact),
                           exact_match=exact)


def _c6_hat(lhs: np.ndarray, rhs: np.ndarray, exact: bool) -> float:
    """Largest ratio lhs / rhs over the time levels with nonzero data
    distance; inf if lhs is nonzero on a level whose data distance
    vanishes.  Identical data give 0 for a vanishing lhs and inf otherwise."""
    mask = rhs > 1e-300
    if exact or not np.any(mask):
        return 0.0 if np.max(lhs, initial=0.0) <= 1e-12 else float("inf")
    if np.any(lhs[~mask] > 1e-12):
        return float("inf")
    return float(np.max(lhs[mask] / rhs[mask]))


@dataclass
class PhysicalStabilityReport:
    identity_gap: float
    c6_hat: float


def physical_stability(hist_a: FieldHistory, hist_b: FieldHistory,
                       prob_a: CroccoProblem, prob_b: CroccoProblem) -> PhysicalStabilityReport:
    """Physical-variable form of the stability functional.

    The wall-normal integral matches profile points of equal normalized
    velocity (the second field is evaluated at the matching height), and is
    computed on the first field's reconstructed heights:

        integral |dy u_a - dy u_b(match)| (dy u_a / U^2) dy dx.

    The change of variables makes this equal the Crocco-side L1 distance
    (`l1_stability(...).lhs`); their largest gap over time levels is
    reported.
    """
    t, x, y = hist_a.t, hist_a.x, hist_a.y
    wx = trapezoid_weights(x)
    phys = np.zeros(t.size)
    for n in range(t.size):
        wa = hist_a.values[n]
        wb = hist_b.values[n]
        core_a = wa[:, :-1]
        if np.min(core_a) <= 0:
            raise NumericalError("physical reconstruction needs positive shear below eta=1")
        # heights by cumulative trapezoid of 1/w along eta
        inv = 1.0 / core_a
        heights = np.concatenate(
            [np.zeros((x.size, 1)),
             np.cumsum(0.5 * (inv[:, 1:] + inv[:, :-1]) * np.diff(y[:-1])[None, :], axis=1)],
            axis=1,
        )
        integrand = core_a * np.abs(core_a - wb[:, :-1])
        seg = 0.5 * (integrand[:, 1:] + integrand[:, :-1]) * np.diff(heights, axis=1)
        phys[n] = float(np.sum(wx * seg.sum(axis=1)))
    base = l1_stability(hist_a, hist_b, prob_a, prob_b)
    gap = float(np.max(np.abs(phys - base.lhs)))
    return PhysicalStabilityReport(identity_gap=gap,
                                   c6_hat=_c6_hat(phys, base.rhs, base.exact_match))


# ---------------------------------------------------------------------------
# epsilon-uniformity summary


def uniformity_spread(values: Sequence[float]) -> float:
    """Relative spread (max-min)/mid of a family of functional values."""
    vals = np.asarray(list(values), dtype=float)
    if np.any(~np.isfinite(vals)):
        return float("inf")
    mid = 0.5 * (vals.max() + vals.min())
    if mid == 0:
        return 0.0 if vals.max() == vals.min() else float("inf")
    return float((vals.max() - vals.min()) / abs(mid))

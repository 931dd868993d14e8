"""Laboratory for the kinetic-transport model operator dtu - dyyu + y dxu.

The operator's fundamental solution is Gaussian in the wall-normal
coordinate and in a drift-corrected streamwise coordinate, with the
anisotropic scaling (x, y, t) -> (mu^3 x, mu y, mu^2 t).  The wall-normal
factor is exp(-(y-eta)^2 / (4(t-tau))): with the heat-kernel prefactor
below this is the unique normalization with unit mass and vanishing
operator residual, and the unit checks enforce both.

On top of the kernel sit the geometric ingredients of the regularity
argument: anisotropic boxes, the two-factor smooth cutoff with its five
certified pointwise properties, logarithmic subsolution transforms, a
mean-value functional computed by kernel-adapted quadrature, and measured
weak-Poincare / density / oscillation functionals.  A small rough-
coefficient solver produces the fields those functionals are measured on.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .config import THETA_MAX
from .errors import ConfigError, NumericalError
from .grids import FieldHistory, trapezoid_weights

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# kernel


@dataclass(frozen=True)
class KernelPoint:
    x: float
    y: float
    t: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.x, self.y, self.t)):
            raise ConfigError("kernel point coordinates must be finite")

    def as_tuple(self):
        return (self.x, self.y, self.t)


def _coords(z):
    if isinstance(z, KernelPoint):
        return z.as_tuple()
    x, y, t = z
    return (np.asarray(x, float), np.asarray(y, float), np.asarray(t, float))


def gamma0(z, zeta=(0.0, 0.0, 0.0)):
    """Fundamental solution evaluated at z with pole zeta; 0 for t <= tau.

    Computed through the log to avoid inf*0 at small time gaps.
    """
    x, y, t = _coords(z)
    xi, eta, tau = _coords(zeta)
    s = np.asarray(t, float) - np.asarray(tau, float)
    shape = np.broadcast(s, np.asarray(x), np.asarray(y), np.asarray(xi), np.asarray(eta)).shape
    scalar = shape == ()
    s = np.broadcast_to(s, shape).astype(float) if not scalar else np.atleast_1d(s)
    if scalar:
        shape = (1,)
    s = np.broadcast_to(s, shape)
    x, y, xi, eta = [np.broadcast_to(np.asarray(v, float), shape) for v in (x, y, xi, eta)]
    out = np.zeros(s.shape)
    live = s > 0
    if np.any(live):
        sl = s[live]
        drift = x[live] - xi[live] - 0.5 * sl * (y[live] + eta[live])
        logv = (math.log(SQRT3 / (2.0 * math.pi)) - 2.0 * np.log(sl)
                - (y[live] - eta[live]) ** 2 / (4.0 * sl) - 3.0 * drift**2 / sl**3)
        out[live] = np.exp(logv)
    return float(out[0]) if scalar else out


def l0_residual(z, zeta=(0.0, 0.0, 0.0), h: float = 1e-3) -> float:
    """Centered-difference residual of the model operator on the kernel.

    O(h^2) away from the pole; identically zero deep in the dead region.
    """
    if h <= 0:
        raise ConfigError("stencil width must be positive")
    x, y, t = _coords(z)
    s = float(t) - float(_coords(zeta)[2])
    if s <= -10.0 * h:
        return 0.0
    if s < 10.0 * h:
        raise ConfigError(
            f"stencil of width {h:g} is too close to the kernel pole (gap {s:g})")

    def G(xq, yq, tq):
        return gamma0((xq, yq, tq), zeta)

    d_t = (G(x, y, t + h) - G(x, y, t - h)) / (2.0 * h)
    d_yy = (G(x, y + h, t) - 2.0 * G(x, y, t) + G(x, y - h, t)) / h**2
    d_x = (G(x + h, y, t) - G(x - h, y, t)) / (2.0 * h)
    return float(d_t - d_yy + y * d_x)


def dilation_defect(z, mu: float) -> float:
    """|kernel(scaled z) - mu^-4 kernel(z)| under (mu^3 x, mu y, mu^2 t)."""
    if mu <= 0:
        raise ConfigError("dilation scale must be positive")
    x, y, t = _coords(z)
    if not float(t) > 0:
        raise ConfigError("dilation identity is checked on the t > 0 branch")
    lhs = gamma0((mu**3 * x, mu * y, mu**2 * t))
    rhs = mu**-4.0 * gamma0((x, y, t))
    return float(abs(lhs - rhs))


@lru_cache(maxsize=8)
def _gl_nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


def normalization(s: float, n: int = 160) -> float:
    """Mass of the kernel over the (x, y) plane at time gap s.

    Gauss-Legendre on windows wide enough that the discarded tails have
    exponent below -40.
    """
    if s <= 0:
        raise ConfigError("time gap must be positive")
    nodes, weights = _gl_nodes(n)
    wy = math.sqrt(160.0 * s)
    yq = wy * nodes
    # the streamwise Gaussian center tracks (s/2) y across the y window
    wx = 0.5 * s * wy + math.sqrt(40.0 / 3.0) * s**1.5
    xq = wx * nodes
    vals = gamma0((xq[None, :], yq[:, None], s))
    return float(wy * wx * np.einsum("i,j,ij->", weights, weights, vals))


# ---------------------------------------------------------------------------
# anisotropic boxes


@dataclass(frozen=True)
class Box:
    """Anisotropic box at the origin: |x| < r^3, |y| < r, t in the kind's range."""

    r: float
    kind: str = "full"

    def __post_init__(self):
        if not 0 < self.r <= 1:
            raise ConfigError(f"box radius must lie in (0, 1], got {self.r}")
        if self.kind not in ("full", "past", "slab"):
            raise ConfigError(f"unknown box kind '{self.kind}'")

    @property
    def volume(self) -> float:
        r = self.r
        if self.kind == "full":
            return 8.0 * r**6
        if self.kind == "past":
            return 4.0 * r**6
        return 4.0 * r**4

    @property
    def t_range(self):
        if self.kind == "full":
            return (-self.r**2, self.r**2)
        if self.kind == "past":
            return (-self.r**2, 0.0)
        return None

    def contains(self, x, y, t=None):
        inside = (np.abs(x) < self.r**3) & (np.abs(y) < self.r)
        if self.kind != "slab":
            if t is None:
                raise ConfigError("time coordinate required for a space-time box")
            lo, hi = self.t_range
            inside = inside & (np.asarray(t) > lo) & (np.asarray(t) < hi)
        return inside

    def lattice(self, n: int):
        """Node lattice (x, y[, t]) spanning the closed box."""
        xs = np.linspace(-self.r**3, self.r**3, n)
        ys = np.linspace(-self.r, self.r, n)
        if self.kind == "slab":
            return xs, ys
        lo, hi = self.t_range
        return xs, ys, np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# cutoff geometry


def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s**3 * (6.0 * s**2 - 15.0 * s + 10.0)


def _smoothstep_d1(s):
    # +0.0 outside (0, 1): the clipped polynomial vanishes at both ends
    sc = np.clip(s, 0.0, 1.0)
    return 30.0 * sc**2 * (1.0 - sc) ** 2


@dataclass(frozen=True)
class CutoffSpec:
    """Scale r and sharpness theta of the two-factor cutoff.

    The scalar profile ramps from 1 at theta^(1/6) r down to 0 at r with a
    quintic smoothstep, which keeps |chi'| below 2/((1-theta^(1/6)) r).
    """

    r: float
    theta: float = 0.01

    def __post_init__(self):
        if self.r <= 0:
            raise ConfigError("cutoff scale r must be positive")
        if not 0 < self.theta < THETA_MAX:
            raise ConfigError(
                f"theta must lie in (0, {THETA_MAX:g}), got {self.theta}")

    @property
    def ramp_start(self) -> float:
        return self.theta ** (1.0 / 6.0) * self.r

    @property
    def ramp_width(self) -> float:
        return self.r - self.ramp_start

    @property
    def chi_prime_bound(self) -> float:
        return 2.0 / ((1.0 - self.theta ** (1.0 / 6.0)) * self.r)


class Cutoffs:
    """Evaluators for the scalar ramp chi, the two factors, and their
    derivatives; the derivative of the sixth-root argument is only formed
    inside the ramp band, where the argument is bounded away from zero."""

    def __init__(self, spec: CutoffSpec):
        self.spec = spec

    # scalar profile -------------------------------------------------------
    def chi(self, s):
        sp = self.spec
        return 1.0 - _smoothstep((np.asarray(s, float) - sp.ramp_start) / sp.ramp_width)

    def chi_prime(self, s):
        sp = self.spec
        return -_smoothstep_d1((np.asarray(s, float) - sp.ramp_start) / sp.ramp_width) / sp.ramp_width

    # space-time factor ----------------------------------------------------
    def _argument(self, x, t):
        sp = self.spec
        return sp.theta**2 * np.asarray(x, float) ** 2 - 6.0 * np.asarray(t, float) * sp.r**4

    def phi0(self, x, t):
        return self.chi(np.maximum(self._argument(x, t), 0.0) ** (1.0 / 6.0))

    def _phi0_band(self, A):
        """chi'(q) * dq/dA on the ramp band, 0 elsewhere (A = the argument)."""
        sp = self.spec
        band = (A > sp.theta * sp.r**6) & (A < sp.r**6)
        A_safe = np.where(band, A, 1.0)
        q = A_safe ** (1.0 / 6.0)
        # one sixth root per node: A^(5/6) = A / q
        return np.where(band, self.chi_prime(q) / (6.0 * A_safe / q), 0.0)

    # wall-normal factor ----------------------------------------------------
    def phi1(self, y):
        return self.chi(self.spec.theta * np.abs(np.asarray(y, float)))

    def phi1_dy(self, y):
        y = np.asarray(y, float)
        return self.chi_prime(self.spec.theta * np.abs(y)) * self.spec.theta * np.sign(y)

    # products used by the mean-value functional ----------------------------
    def phi(self, x, y, t):
        return self.phi0(x, t) * self.phi1(y)

    def _transport(self, ramp, x, y):
        """(d/dt + y d/dx) phi0 from the factor that _phi0_band returns."""
        dt = ramp * (-6.0 * self.spec.r**4)
        dx = ramp * 2.0 * self.spec.theta**2 * np.asarray(x, float)
        return dt + np.asarray(y, float) * dx


@dataclass
class LemmaCheck:
    name: str
    passed: bool
    margin: float


@dataclass
class LemmaReport:
    theta: float
    r: float
    alpha1: float
    beta: float
    checks: List[LemmaCheck]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> List[str]:
        return [c.name for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = [f"cutoff checks at theta={self.theta:g}, r={self.r:g}:"]
        lines += [f"  {c.name}: {'pass' if c.passed else 'FAIL'} (margin {c.margin:.3g})"
                  for c in self.checks]
        return "\n".join(lines)


def verify_lemma(spec: CutoffSpec, alpha: float = 0.05, beta: float = 0.9,
                 n: int = 33, tol: float = 1e-12) -> LemmaReport:
    """Sampled certification of the five cutoff properties.

    Lattices have n points per axis.  alpha1 is placed just inside its
    admissible interval (0, min(alpha, 1/12)) and must exceed theta for the
    strict-band item to make sense.
    """
    cut = Cutoffs(spec)
    r, theta = spec.r, spec.theta
    alpha1 = 0.99 * min(alpha, 1.0 / 12.0)
    if alpha1 <= theta:
        raise ConfigError(
            f"alpha1={alpha1:g} must exceed theta={theta:g} for the band check")
    checks = []

    # transport direction never increases the space-time factor on the wide box
    xs = np.linspace(-r**3 / theta, r**3 / theta, n)
    ys = np.linspace(-r / theta, r / theta, n)
    ts = np.linspace(-r**2, 0.0, n)
    X, Y, T = np.meshgrid(xs, ys, ts, indexing="ij")
    expr = -cut._transport(cut._phi0_band(cut._argument(X, T)), X, Y)
    checks.append(LemmaCheck("transport_sign", bool(np.max(expr) <= tol), float(np.max(expr))))

    # plateau on the small past box
    small = theta * r
    bx = np.linspace(-small**3, small**3, n)
    by = np.linspace(-small, small, n)
    bt = np.linspace(-small**2, 0.0, n)
    XB, YB, TB = np.meshgrid(bx, by, bt, indexing="ij")
    plateau_min = float(np.min(cut.phi(XB, YB, TB)))
    checks.append(LemmaCheck("plateau", bool(plateau_min >= 1.0 - tol), plateau_min))

    # support confined to the wide box for t <= 0
    xs2 = np.linspace(-1.5 * r**3 / theta, 1.5 * r**3 / theta, n)
    ys2 = np.linspace(-1.5 * r / theta, 1.5 * r / theta, n)
    ts2 = np.linspace(-1.5 * r**2, 0.0, n)
    X2, Y2, T2 = np.meshgrid(xs2, ys2, ts2, indexing="ij")
    outside = (np.abs(X2) > r**3 / theta) | (np.abs(Y2) > r / theta) | (T2 < -r**2)
    vals = cut.phi(X2, Y2, T2)
    leak = float(np.max(vals[outside])) if np.any(outside) else 0.0
    checks.append(LemmaCheck("support", bool(leak <= tol), leak))

    # the measurement slab sits inside the support
    sx, sy = Box(beta * r, "slab").lattice(n)
    ts3 = np.linspace(-alpha1 * r**2, 0.0, n)
    X3, Y3, T3 = np.meshgrid(sx, sy, ts3, indexing="ij")
    slab_min = float(np.min(cut.phi(X3, Y3, T3)))
    checks.append(LemmaCheck("slab_support", bool(slab_min > tol), slab_min))

    # strictly between 0 and 1 on the earlier part of that slab
    ts4 = np.linspace(-alpha1 * r**2, -theta * r**2, n)
    X4, Y4, T4 = np.meshgrid(sx, sy, ts4, indexing="ij")
    band_vals = cut.phi0(X4, T4)
    lo, hi = float(np.min(band_vals)), float(np.max(band_vals))
    checks.append(LemmaCheck("strict_band", bool(lo > 0.0 and hi < 1.0),
                             min(lo, 1.0 - hi)))

    return LemmaReport(theta=theta, r=r, alpha1=alpha1, beta=beta, checks=checks)


# ---------------------------------------------------------------------------
# logarithmic subsolution transforms


LOG_VARIANTS = ("ratio", "reciprocal")


def log_bound(h: float, variant: str = "ratio") -> float:
    if variant == "ratio":
        return math.log(1.0 / h) / 8.0
    if variant == "reciprocal":
        return 9.0 / 8.0 * math.log(1.0 / h)
    raise ConfigError(f"unknown log transform variant '{variant}'")


def log_subsolution(u, h: float, variant: str = "ratio"):
    """Pointwise transform turning a nonnegative field into the bounded
    subsolution surrogate; returns (values, sup bound).

    variant "ratio":       ln+ of h / (h^(9/8) + u), bound (1/8) ln(1/h)
    variant "reciprocal":  ln+ of 1 / (h^(9/8) + u), bound (9/8) ln(1/h)
    """
    if not 0.0 < h < 0.5:
        raise ConfigError(f"level h must lie in (0, 1/2), got {h}")
    arr = u.values if isinstance(u, FieldHistory) else np.asarray(u, float)
    if np.min(arr) < -1e-9:
        raise ConfigError("log transform requires a nonnegative field")
    arr = np.maximum(arr, 0.0)
    shift = h ** (9.0 / 8.0)
    if variant == "ratio":
        inner = h / (shift + arr)
    elif variant == "reciprocal":
        inner = 1.0 / (shift + arr)
    else:
        raise ConfigError(f"unknown log transform variant '{variant}'")
    return np.maximum(np.log(inner), 0.0), log_bound(h, variant)


def log_field(history: FieldHistory, h: float, variant: str = "ratio") -> FieldHistory:
    """FieldHistory wrapper of log_subsolution, keeping the coordinates."""
    vals, bound = log_subsolution(history, h, variant)
    out = FieldHistory(t=history.t, x=history.x, y=history.y, values=vals,
                       label=f"{history.label}:log-{variant}")
    out.diagnostics["log_bound"] = bound
    out.diagnostics["log_h"] = h
    return out


# ---------------------------------------------------------------------------
# mean-value functional


@lru_cache(maxsize=8)
def _gh_nodes(n: int):
    return np.polynomial.hermite.hermgauss(n)


@dataclass
class MeanValueReport:
    i0: float
    values: np.ndarray
    z_lattice: np.ndarray
    band_term_max: float


def _mean_value_level(w_field, cut: Cutoffs, t: float, xs: np.ndarray, ys: np.ndarray,
                      n_tau: int, n_eta: int, n_xi: int) -> tuple:
    """Drift and band terms of the mean-value identity at the points (x, y, t)
    for every x in xs and y in ys, as two (xs.size, ys.size) arrays."""
    r, theta = cut.spec.r, cut.spec.theta
    if t + r**2 <= 0:
        raise ConfigError("evaluation point lies before the sampling window")
    drift = np.zeros((xs.size, ys.size))
    band = np.zeros((xs.size, ys.size))
    # the transported cutoff derivative lives on a tau band of width about
    # r^2/6; concentrate the midpoint nodes there (padded for the small
    # streamwise shift of the band) instead of spreading them over the
    # whole window
    pad = 0.02 * r**2
    lo = max(-(r**2), -(r**2) / 6.0 - pad)
    hi = min(t, -(theta * r**2) / 6.0 + pad)
    if hi <= lo:
        return drift, band
    un, uw = _gh_nodes(n_eta)
    vn, vw = _gh_nodes(n_xi)
    weights = uw[:, None] * vw
    dtau = (hi - lo) / n_tau
    # axes (tau, eta node, xi node); the y axis leads the per-y arrays
    tau = (lo + (np.arange(n_tau) + 0.5) * dtau)[:, None, None]
    s = t - tau
    X = np.sqrt(s**3 / 3.0) * vn
    etas = ys[:, None, None, None] + np.sqrt(4.0 * s) * un[:, None]
    shifts = 0.5 * s * (ys[:, None, None, None] + etas)
    # xi = (x - shift) - X; rounding is monotone, so these bounds hold
    x_span = (xs.min() - shifts.max() - X.max(), xs.max() - shifts.min() - X.min())
    at_y = w_field.at_times(tau, x_span, (etas.min(), etas.max()))
    for j, (eta, shift) in enumerate(zip(etas, shifts)):
        w_at = at_y(eta)
        drift_weights = (weights * cut.phi1(eta)).ravel()
        eta_dy = cut.phi1_dy(eta)
        band_weights = None
        if np.any(eta_dy):
            kernel_ratio = (ys[j] - eta) / (2.0 * s) + 3.0 * X / s**2
            band_weights = (weights * eta_dy * kernel_ratio).ravel()
        for i, x in enumerate(xs):
            xi = x - shift - X
            w = w_at(xi)
            if not np.all(np.isfinite(w)):
                raise NumericalError("field sampling returned non-finite values")
            ramp = cut._phi0_band(cut._argument(xi, tau))
            drift[i, j] = (cut._transport(ramp, xi, eta) * w).ravel() @ drift_weights
            if band_weights is not None:
                band[i, j] = (cut.phi0(xi, tau) * w).ravel() @ band_weights
    drift *= dtau / math.pi
    band *= dtau / math.pi
    if not (np.all(np.isfinite(drift)) and np.all(np.isfinite(band))):
        raise NumericalError("mean-value quadrature produced non-finite values")
    return drift, band


def mean_value_at(w_field, cut: Cutoffs, z, n_tau: int = 160,
                  n_eta: int = 16, n_xi: int = 8) -> tuple:
    """The two integrals of the mean-value identity at one point.

    Quadrature follows the kernel: midpoint slices in tau, then Gauss-
    Hermite in eta (scale sqrt(4s)) and in the drift-centered xi (scale
    sqrt(s^3/3)); the kernel prefactor and the two Gaussian widths cancel
    to 1/pi per slice.  Returns (drift term, wall-normal band term).  It
    is the one-point case of mean_value's per-time-level kernel: the field
    is interpolated in time onto the tau nodes over the window of cells
    they touch, then bilinearly, and the band term is formed only when
    d/dy phi1 is nonzero at some eta node.
    """
    x, y, t = (float(v) for v in _coords(z))
    drift, band = _mean_value_level(w_field, cut, t, np.array([x]), np.array([y]),
                                    n_tau, n_eta, n_xi)
    return float(drift[0, 0]), float(band[0, 0])


def mean_value(w_field, cut: Cutoffs, nz: int = 9, n_tau: int = 160,
               n_eta: int = 16, n_xi: int = 8) -> MeanValueReport:
    """Sup of the mean-value functional over a lattice of the small box.

    The nz^3 lattice is walked one time level at a time.  Per level the
    tau nodes, s, the Gauss-Hermite offsets and the time-cell lookup are
    formed once, and the field is interpolated in time once onto those
    nodes over the (x, y) window of cells they touch (at_times), so each
    point costs a bilinear sample.  Per (level, y) the eta nodes, their
    y-cell lookup, phi1, d/dy phi1 and the kernel ratio are shared by the
    nz values of x.  The wall-normal band term is formed only when d/dy
    phi1 is nonzero at some eta node.  It is supported on |eta| >
    theta^(-5/6) r > 32 r (theta < THETA_MAX = 2^-6), while the default 16
    eta nodes stay within |y| + 4.1 r with |y| <= theta r, so on the
    lattice of any admissible cutoff the band term is exactly 0.
    """
    r, theta = cut.spec.r, cut.spec.theta
    small = theta * r
    zs = np.linspace(-small**3, small**3, nz)
    ys = np.linspace(-small, small, nz)
    ts = np.linspace(-small**2, 0.0, nz)
    vals = np.empty((nz, nz, nz))
    band_max = 0.0
    for k, tq in enumerate(ts):
        drift, band = _mean_value_level(w_field, cut, float(tq), zs, ys, n_tau, n_eta, n_xi)
        vals[k] = drift + band
        band_max = max(band_max, float(np.max(np.abs(band))))
    T, Xq, Yq = np.meshgrid(ts, zs, ys, indexing="ij")
    lattice = np.stack([Xq.ravel(), Yq.ravel(), T.ravel()], axis=1)
    return MeanValueReport(i0=float(np.max(vals)), values=vals.ravel(),
                           z_lattice=lattice, band_term_max=band_max)


# ---------------------------------------------------------------------------
# weak Poincare functional


@dataclass
class PoincareReport:
    r: float
    theta: float
    i0: float
    lhs: float
    rhs: float
    ratio: float
    vacuous: bool
    hard_violation: bool

    @property
    def ok(self) -> bool:
        return not self.hard_violation


def _box_integral(fn, xs, ys, ts) -> float:
    X, Y, T = np.meshgrid(xs, ys, ts, indexing="ij")
    vals = fn(T, X, Y)
    wx, wy, wt = trapezoid_weights(xs), trapezoid_weights(ys), trapezoid_weights(ts)
    return float(np.einsum("i,j,n,ijn->", wx, wy, wt, vals))


def weak_poincare_ratio(w_field, spec: CutoffSpec, n_small: int = 17,
                        n_big: int = 25, tiny: float = 1e-30,
                        mean_kwargs: Optional[dict] = None) -> PoincareReport:
    """Measured two-sided functional of the weak Poincare inequality.

    LHS integrates the squared excess over the mean-value sup on the small
    box; RHS is theta^2 r^2 times the squared wall-normal gradient mass on
    the wide box.  Zero RHS with zero LHS is a vacuous pass; zero RHS with
    positive LHS is a hard violation.
    """
    r, theta = spec.r, spec.theta
    if r >= theta:
        raise ConfigError("the functional needs r < theta so the wide box stays unit-scale")
    cut = Cutoffs(spec)
    mv = mean_value(w_field, cut, **(mean_kwargs or {}))
    i0 = mv.i0

    small = r * theta
    lhs = _box_integral(
        lambda tq, xq, yq: np.maximum(w_field.sample(tq, xq, yq) - i0, 0.0) ** 2,
        np.linspace(-small**3, small**3, n_small),
        np.linspace(-small, small, n_small),
        np.linspace(-small**2, 0.0, n_small),
    )
    wide = r / theta
    rhs_raw = _box_integral(
        lambda tq, xq, yq: w_field.sample_dy(tq, xq, yq) ** 2,
        np.linspace(-wide**3, wide**3, n_big),
        np.linspace(-wide, wide, n_big),
        np.linspace(-wide**2, 0.0, n_big),
    )
    rhs = theta**2 * r**2 * rhs_raw
    vacuous = rhs <= tiny and lhs <= tiny
    hard = rhs <= tiny < lhs
    if vacuous:
        ratio = 0.0
    elif hard:
        ratio = float("inf")
    else:
        ratio = lhs / rhs
    return PoincareReport(r=r, theta=theta, i0=i0, lhs=lhs, rhs=rhs,
                          ratio=ratio, vacuous=vacuous, hard_violation=hard)


# ---------------------------------------------------------------------------
# density estimate


@dataclass
class DensityReport:
    r: float
    h: float
    alpha: float
    beta: float
    scale: float
    hypothesis_fraction: float
    hypothesis_met: bool
    rows: List[tuple]  # (t, h, ratio, passed)
    ratio: float
    verdict: Optional[bool]
    h_certificate: dict


DENSITY_FLOOR = 1.0 / 11.0


def density_ratio(u_field, r: float = 0.5, h: float = 0.01, alpha: float = 0.05,
                  beta: float = 0.9, n_xy: int = 33, n_t: int = 9,
                  normalize: bool = False) -> DensityReport:
    """Occupation measure of {u >= h} on the slab against the floor 1/11.

    The hypothesis (at least half the past box sits at level >= 1) is
    measured on a node lattice; normalize=True rescales by the lattice
    median first, which makes the hypothesis hold whenever the median is
    positive.  No verdict is issued when the hypothesis fails.
    """
    if not 0 < beta < 1 or not 0 < alpha < 1:
        raise ConfigError("alpha and beta must lie in (0, 1)")
    box = Box(r, "past")
    xs, ys, ts = box.lattice(n_xy)
    X, Y, T = np.meshgrid(xs, ys, ts, indexing="ij")
    vals = u_field.sample(T, X, Y)
    scale = 1.0
    if normalize:
        med = float(np.median(vals))
        if med <= 0:
            scale = 1.0
        else:
            scale = med
    scaled = vals / scale
    frac = float(np.mean(scaled >= 1.0 - 1e-12))
    met = frac >= 0.5
    if not met:
        return DensityReport(r=r, h=h, alpha=alpha, beta=beta, scale=scale,
                             hypothesis_fraction=frac, hypothesis_met=False,
                             rows=[], ratio=float("nan"), verdict=None,
                             h_certificate={})

    sx, sy = Box(beta * r, "slab").lattice(n_xy)
    SX, SY = np.meshgrid(sx, sy, indexing="ij")
    t_samples = np.linspace(-alpha * r**2, 0.0, n_t)

    def slab_ratio(level):
        worst = 1.0
        per_t = []
        for tq in t_samples:
            f = float(np.mean(u_field.sample(np.full_like(SX, tq), SX, SY) / scale >= level))
            per_t.append((float(tq), level, f, f >= DENSITY_FLOOR))
            worst = min(worst, f)
        return worst, per_t

    ratio, rows = slab_ratio(h)
    cert = {}
    for level in (h, h / 2.0, h / 4.0):
        cert[level], _ = slab_ratio(level)
    return DensityReport(r=r, h=h, alpha=alpha, beta=beta, scale=scale,
                         hypothesis_fraction=frac, hypothesis_met=True,
                         rows=rows, ratio=ratio, verdict=bool(ratio >= DENSITY_FLOOR),
                         h_certificate=cert)


# ---------------------------------------------------------------------------
# oscillation decay


@dataclass
class OscillationRow:
    r: float
    osc_small: float
    osc_big: float
    ratio: float


@dataclass
class OscillationReport:
    theta_bar: float
    rows: List[OscillationRow]
    beta_bar: float
    alpha_holder: float

    def csv_rows(self):
        yield "r,osc_small,osc_big,ratio"
        for row in self.rows:
            yield f"{row.r:.17g},{row.osc_small:.17g},{row.osc_big:.17g},{row.ratio:.17g}"


def _box_oscillation(u_field, r: float, n: int) -> float:
    xs, ys, ts = Box(r, "past").lattice(n)
    X, Y, T = np.meshgrid(xs, ys, ts, indexing="ij")
    vals = u_field.sample(T, X, Y)
    return float(np.max(vals) - np.min(vals))


def oscillation_table(u_field, theta_bar: float = 0.3,
                      r_list: Sequence[float] = (0.4, 0.2, 0.1),
                      n: int = 17, domain: Optional[tuple] = None) -> OscillationReport:
    """Box oscillations at two nested scales per radius.

    domain, when given as (x_max, y_max, t_min), bounds the admissible
    boxes; a box falling outside raises a parameter error.  Flat big-box
    oscillation reports ratio 0.
    """
    if not 0 < theta_bar < 1:
        raise ConfigError("theta_bar must lie in (0, 1)")
    if len(r_list) == 0:
        raise ConfigError("need at least one radius")
    rows = []
    pairs = []
    for r in r_list:
        if domain is not None:
            x_max, y_max, t_min = domain
            if r**3 > x_max or r > y_max or -(r**2) < t_min:
                raise ConfigError(f"oscillation box r={r:g} leaves the computed domain")
        osc_big = _box_oscillation(u_field, r, n)
        osc_small = _box_oscillation(u_field, theta_bar * r, n)
        ratio = 0.0 if osc_big == 0.0 else osc_small / osc_big
        rows.append(OscillationRow(r=r, osc_small=osc_small, osc_big=osc_big, ratio=ratio))
        if osc_big > 0:
            pairs.append((r, osc_big))
        if osc_small > 0:
            pairs.append((theta_bar * r, osc_small))
    beta_bar = max(row.ratio for row in rows)
    if len(pairs) >= 2:
        lr = np.log([p[0] for p in pairs])
        lo = np.log([p[1] for p in pairs])
        alpha_holder = float(np.polyfit(lr, lo, 1)[0])
    else:
        alpha_holder = float("nan")
    return OscillationReport(theta_bar=theta_bar, rows=rows, beta_bar=beta_bar,
                             alpha_holder=alpha_holder)


# ---------------------------------------------------------------------------
# rough-coefficient model runs


@dataclass(frozen=True)
class RoughCoefficient:
    """Measurable diffusion coefficient with two-sided ellipticity bound."""

    a: Callable
    lam: float
    name: str = ""

    def __post_init__(self):
        if self.lam < 1.0:
            raise ConfigError("ellipticity constant must be at least 1")

    def sample(self, x, y, t=0.0):
        vals = np.asarray(self.a(x, y, t), float)
        return np.broadcast_to(vals, np.broadcast(np.asarray(x), np.asarray(y)).shape)


def model_scenarios(kind: str, lam: float = 2.0, seed: int = 0,
                    cell: tuple = (0.125, 0.5)) -> RoughCoefficient:
    """Named coefficient fields for the model runs.

    "constant" is the exactly solvable case; "checkerboard" alternates the
    extreme admissible values on anisotropic cells; "seeded-random" draws
    log-uniform cell values reproducibly.
    """
    if lam <= 1.0 and kind != "constant":
        raise ConfigError("rough scenarios need an ellipticity constant above 1")
    cx, cy = cell
    if kind == "constant":
        return RoughCoefficient(a=lambda x, y, t=0.0: np.ones(np.broadcast(np.asarray(x), np.asarray(y)).shape),
                                lam=max(lam, 1.0), name="constant")
    if kind == "checkerboard":
        def a(x, y, t=0.0):
            ix = np.floor((np.asarray(x, float) + 1.0) / cx).astype(int)
            iy = np.floor((np.asarray(y, float) + 1.0) / cy).astype(int)
            even = (ix + iy) % 2 == 0
            return np.where(even, lam, 1.0 / lam)
        return RoughCoefficient(a=a, lam=lam, name=f"checkerboard-{lam:g}")
    if kind == "seeded-random":
        nx_cells = int(np.ceil(2.0 / cx))
        ny_cells = int(np.ceil(2.0 / cy))
        rng = np.random.default_rng(seed)
        table = np.exp(rng.uniform(-np.log(lam), np.log(lam), size=(nx_cells, ny_cells)))

        def a(x, y, t=0.0):
            ix = np.clip(np.floor((np.asarray(x, float) + 1.0) / cx).astype(int), 0, nx_cells - 1)
            iy = np.clip(np.floor((np.asarray(y, float) + 1.0) / cy).astype(int), 0, ny_cells - 1)
            return table[ix, iy]
        return RoughCoefficient(a=a, lam=lam, name=f"seeded-random-{lam:g}-{seed}")
    raise ConfigError(f"unknown model scenario '{kind}'")


def _factor_columns(sub, dia, sup) -> Callable:
    """Factor once the tridiagonal systems held row by row (sub[:, 0] and
    sup[:, -1] ignored) as one uncoupled LAPACK system; returns its solver."""
    lower, upper = np.array(sub, float), np.array(sup, float)
    lower[:, 0] = upper[:, -1] = 0.0
    dl, d, du, du2, ipiv, info = dgttrf(lower.ravel()[1:], dia.ravel(), upper.ravel()[:-1])
    if info != 0:
        raise NumericalError(f"tridiagonal factorization failed (info={info})")
    return lambda rhs: dgttrs(dl, d, du, du2, ipiv, rhs.ravel())[0].reshape(rhs.shape)


def solve_model(coef: RoughCoefficient, nx: int = 48, ny: int = 192,
                nt: int = 300, t0: float = -0.75,
                u0: Optional[Callable] = None,
                bottom: Optional[Callable] = None,
                top: Optional[Callable] = None) -> FieldHistory:
    """March the divergence-form model equation on [-1,1]^2 x [t0, 0].

    Implicit in the wall-normal diffusion (interface coefficients sampled
    at half nodes), explicit upwind for the y-signed streamwise transport,
    periodic in x, Dirichlet in y from callables (frozen initial traces by
    default).  Time step must satisfy dt <= 0.9 dx.
    """
    if t0 >= 0:
        raise ConfigError("model runs march a past window, t0 < 0")
    x = np.linspace(-1.0, 1.0, nx, endpoint=False)
    y = np.linspace(-1.0, 1.0, ny + 1)
    t = np.linspace(t0, 0.0, nt + 1)
    dx = x[1] - x[0]
    dy = y[1] - y[0]
    dt = t[1] - t[0]
    if dt > 0.9 * dx:
        raise ConfigError(
            f"transport stability needs dt <= 0.9 dx: dt={dt:g}, dx={dx:g}")

    if u0 is None:
        def u0(xq, yq):
            return 1.0 + 0.5 * np.cos(np.pi * xq) * np.cos(np.pi * yq / 2.0)
    XX, YY = np.meshgrid(x, y, indexing="ij")
    u = np.asarray(u0(XX, YY), float).copy()
    if bottom is None:
        base_bot = u[:, 0].copy()
        bottom = lambda xq, tq: base_bot
    if top is None:
        base_top = u[:, -1].copy()
        top = lambda xq, tq: base_top

    y_half = 0.5 * (y[1:] + y[:-1])
    XH, YH = np.meshgrid(x, y_half, indexing="ij")
    a_half = np.asarray(coef.sample(XH, YH), float)
    if np.any(a_half < 1.0 / coef.lam - 1e-12) or np.any(a_half > coef.lam + 1e-12):
        raise ConfigError("coefficient sample violates its ellipticity bounds")

    # time-constant tridiagonal bands, one row per x column of the grid
    ry = dt / dy**2
    sub = np.zeros((nx, ny + 1))
    dia = np.ones((nx, ny + 1))
    sup = np.zeros((nx, ny + 1))
    sub[:, 1:-1] = -ry * a_half[:, :-1]
    sup[:, 1:-1] = -ry * a_half[:, 1:]
    dia[:, 1:-1] = 1.0 + ry * (a_half[:, :-1] + a_half[:, 1:])
    solve_columns = _factor_columns(sub, dia, sup)

    hist = np.empty((nt + 1, nx, ny + 1))
    hist[0] = u
    speed_pos = y > 0
    for n in range(nt):
        tn1 = t[n + 1]
        dudx = np.empty_like(u)
        dudx[:, speed_pos] = (u[:, speed_pos] - np.roll(u, 1, axis=0)[:, speed_pos]) / dx
        dudx[:, ~speed_pos] = (np.roll(u, -1, axis=0)[:, ~speed_pos] - u[:, ~speed_pos]) / dx
        rhs = u - dt * y[None, :] * dudx
        rhs[:, 0] = np.broadcast_to(bottom(x, tn1), (nx,))
        rhs[:, -1] = np.broadcast_to(top(x, tn1), (nx,))
        u = solve_columns(rhs)
        if not np.all(np.isfinite(u)):
            raise NumericalError(f"model run lost finiteness at step {n + 1}")
        hist[n + 1] = u

    # append the periodic wrap column so interpolation covers x = 1
    x_out = np.append(x, 1.0)
    vals = np.concatenate([hist, hist[:, :1, :]], axis=1)
    return FieldHistory(t=t, x=x_out, y=y, values=vals,
                        label=f"model-{coef.name}",
                        diagnostics={"dt": dt, "dx": dx, "dy": dy})


def kernel_reproduction(nx: int = 128, ny: int = 128, nt: int = 128,
                        t0: float = -0.2, pole_gap: float = 0.3) -> dict:
    """Constant-coefficient model run against the exact kernel.

    The initial state and the wall-normal boundary traces are sampled from
    the kernel with a pole below the initial time; the final state is
    compared with the kernel in sup norm (relative to its peak).
    """
    tau_p = t0 - pole_gap
    coef = model_scenarios("constant")

    def exact(xq, yq, tq):
        return gamma0((xq, yq, tq), (0.0, 0.0, tau_p))

    hist = solve_model(
        coef, nx=nx, ny=ny, nt=nt, t0=t0,
        u0=lambda xq, yq: exact(xq, yq, t0),
        bottom=lambda xq, tq: exact(xq, -1.0, tq),
        top=lambda xq, tq: exact(xq, 1.0, tq),
    )
    XX, YY = np.meshgrid(hist.x, hist.y, indexing="ij")
    ref = exact(XX, YY, 0.0)
    err = float(np.max(np.abs(hist.values[-1] - ref)))
    peak = float(np.max(ref))
    return {"sup_error": err, "peak": peak, "rel_error": err / peak, "history": hist}

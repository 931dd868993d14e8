"""Laboratory for the kinetic-transport model operator dtu - dyyu + y dxu.

The operator's fundamental solution is Gaussian in the wall-normal
coordinate and in a drift-corrected streamwise coordinate, with the
anisotropic scaling (x, y, t) -> (mu^3 x, mu y, mu^2 t).  The wall-normal
factor is exp(-(y-eta)^2 / (4(t-tau))): with the heat-kernel prefactor
below this is the unique normalization with unit mass and vanishing
operator residual, and the unit checks enforce both.

On top of the kernel sit the geometric ingredients of the regularity
argument: anisotropic past boxes and slabs (every box and slab lattice
comes from Box), the two-factor smooth cutoff (CutoffSpec, which also
evaluates it) with its five certified pointwise properties, logarithmic
subsolution transforms, a mean-value functional computed by
kernel-adapted quadrature in one pass over every field that shares its
lattice (its drift term alone: the wall-normal term is
exactly 0 on the lattice of every admissible cutoff, see mean_value), and
measured weak-Poincare / density / oscillation functionals.  A small
rough-coefficient solver produces the fields those functionals are
measured on (its bands factored once by LAPACK dgttrf and each step solved
by dgttrs, scipy's routines through `_lapack`, without importing
scipy.linalg); model_axes decides the stability of its grid, for
solve_model and for RunConfig alike.

Quadrature sizes, slab proportions, box radii and grid sizes (LEMMA_NODES,
DENSITY_R and MODEL_GRID among them) are module constants, so every caller
measures with the same ones.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, List, Optional

import numpy as np

from ._lapack import dgttrf, dgttrs, uncoupled_bands
from .errors import ConfigError, NumericalError
from .grids import CFL_SAFETY, Check, FieldHistory, sample_slabs, trapezoid_weights
from .parallel import fork_each

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# kernel


def gamma0(z, zeta=(0.0, 0.0, 0.0)):
    """Fundamental solution evaluated at z = (x, y, t) with pole zeta =
    (xi, eta, tau); 0 for t <= tau.  The six coordinates broadcast, and a
    float comes back when all of them are scalars.

    Computed through the log to avoid inf*0 at small time gaps.
    """
    x, y, t, xi, eta, tau = np.broadcast_arrays(
        *(np.asarray(v, float) for v in (*z, *zeta)))
    s = t - tau
    out = np.zeros(s.shape)
    live = s > 0
    sl = s[live]
    drift = x[live] - xi[live] - 0.5 * sl * (y[live] + eta[live])
    logv = (math.log(SQRT3 / (2.0 * math.pi)) - 2.0 * np.log(sl)
            - (y[live] - eta[live]) ** 2 / (4.0 * sl) - 3.0 * drift**2 / sl**3)
    out[live] = np.exp(logv)
    return float(out) if out.ndim == 0 else out


def l0_residual(z, h: float) -> float:
    """Centered-difference residual of the model operator on the kernel
    with its pole at the origin.

    O(h^2) away from the pole; identically zero deep in the dead region.
    """
    if h <= 0:
        raise ConfigError("stencil width must be positive")
    x, y, t = z
    if t <= -10.0 * h:
        return 0.0
    if t < 10.0 * h:
        raise ConfigError(
            f"stencil of width {h:g} is too close to the kernel pole (gap {t:g})")

    def G(xq, yq, tq):
        return gamma0((xq, yq, tq))

    d_t = (G(x, y, t + h) - G(x, y, t - h)) / (2.0 * h)
    d_yy = (G(x, y + h, t) - 2.0 * G(x, y, t) + G(x, y - h, t)) / h**2
    d_x = (G(x + h, y, t) - G(x - h, y, t)) / (2.0 * h)
    return float(d_t - d_yy + y * d_x)


def dilation_defect(z, mu: float) -> float:
    """|kernel(scaled z) - mu^-4 kernel(z)| under (mu^3 x, mu y, mu^2 t)."""
    if mu <= 0:
        raise ConfigError("dilation scale must be positive")
    x, y, t = z
    if not t > 0:
        raise ConfigError("dilation identity is checked on the t > 0 branch")
    lhs = gamma0((mu**3 * x, mu * y, mu**2 * t))
    rhs = mu**-4.0 * gamma0((x, y, t))
    return float(abs(lhs - rhs))


@lru_cache(maxsize=8)
def _gauss(rule: Callable, n: int):
    """Nodes and weights of the numpy Gauss rule of size n, made once."""
    return rule(n)


# Gauss-Legendre nodes per axis of the kernel mass quadrature
MASS_NODES = 160


def normalization(s: float) -> float:
    """Mass of the kernel over the (x, y) plane at time gap s.

    Gauss-Legendre on windows wide enough that the discarded tails have
    exponent below -40.
    """
    if s <= 0:
        raise ConfigError("time gap must be positive")
    nodes, weights = _gauss(np.polynomial.legendre.leggauss, MASS_NODES)
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
    """Anisotropic past box at the origin: |x| < r^3, |y| < r and
    t in (-r^2, 0]."""

    r: float

    def __post_init__(self):
        if not 0 < self.r <= 1:
            raise ConfigError(f"box radius must lie in (0, 1], got {self.r}")

    def lattice(self, n: int):
        """Node lattice (x, y, t) spanning the closed box."""
        return (np.linspace(-self.r**3, self.r**3, n), np.linspace(-self.r, self.r, n),
                np.linspace(-self.r**2, 0.0, n))


# ---------------------------------------------------------------------------
# cutoff geometry


def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s**3 * (6.0 * s**2 - 15.0 * s + 10.0)


def _smoothstep_d1(s):
    # +0.0 outside (0, 1): the clipped polynomial vanishes at both ends
    sc = np.clip(s, 0.0, 1.0)
    return 30.0 * sc**2 * (1.0 - sc) ** 2


# The cutoff's sharpness theta lies in (0, THETA_MAX), checked here and by
# RunConfig: mean_value's band term and LEMMA_ALPHA1 rest on theta < 2^-6.
THETA_MAX = 2.0**-6


@dataclass(frozen=True)
class CutoffSpec:
    """Scale r and sharpness theta of the two-factor cutoff, with the
    evaluators of the scalar ramp chi, the two factors, and the transport
    derivative of the space-time factor.

    The scalar profile ramps from 1 at theta^(1/6) r down to 0 at r with a
    quintic smoothstep, which keeps |chi'| below 2/((1-theta^(1/6)) r).
    The derivative of the sixth-root argument is only formed on the ramp,
    where the argument is bounded away from zero.
    """

    r: float
    theta: float

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

    # scalar profile -------------------------------------------------------
    def chi(self, s):
        return 1.0 - _smoothstep((np.asarray(s, float) - self.ramp_start) / self.ramp_width)

    def chi_prime(self, s):
        return -_smoothstep_d1((np.asarray(s, float) - self.ramp_start) / self.ramp_width) / self.ramp_width

    # space-time factor ----------------------------------------------------
    def _argument(self, x, t):
        return self.theta**2 * np.asarray(x, float) ** 2 - 6.0 * np.asarray(t, float) * self.r**4

    def phi0(self, x, t):
        return self.chi(np.maximum(self._argument(x, t), 0.0) ** (1.0 / 6.0))

    def transport(self, x, y, t):
        """(d/dt + y d/dx) phi0 at (x, y, t): chi'(q) dq/dA times the
        transport derivative of the argument A, with q = A^(1/6) formed
        only on the ramp theta r^6 < A < r^6 and 0 elsewhere."""
        x = np.asarray(x, float)
        A = self._argument(x, t)
        ramp = (A > self.theta * self.r**6) & (A < self.r**6)
        A_safe = np.where(ramp, A, 1.0)
        q = A_safe ** (1.0 / 6.0)
        # one sixth root per node: A^(5/6) = A / q
        dq = np.where(ramp, self.chi_prime(q) / (6.0 * A_safe / q), 0.0)
        return dq * (-6.0 * self.r**4) + np.asarray(y, float) * (dq * 2.0 * self.theta**2 * x)

    # wall-normal factor ----------------------------------------------------
    def phi1(self, y):
        return self.chi(self.theta * np.abs(np.asarray(y, float)))

    def phi(self, x, y, t):
        return self.phi0(x, t) * self.phi1(y)


# The density slab at scale r: |x| < (beta r)^3, |y| < beta r and
# t in (-alpha r^2, 0].
SLAB_ALPHA = 0.05
SLAB_BETA = 0.9
# alpha1 sits just inside its admissible interval (0, min(alpha, 1/12)).
# At 0.0495 it exceeds every admissible theta (below THETA_MAX = 2^-6), so
# the strict-band item always has an earlier part of the slab to test.
LEMMA_ALPHA1 = 0.99 * min(SLAB_ALPHA, 1.0 / 12.0)
LEMMA_TOL = 1e-12
LEMMA_NODES = 33  # lattice nodes per axis of every certification box


def verify_lemma(spec: CutoffSpec) -> dict:
    """Sampled certification of the five cutoff properties, one Check each,
    keyed by property name.

    Lattices have LEMMA_NODES points per axis.  The slab items use the
    density slab with its time extent cut to LEMMA_ALPHA1 r^2.
    """
    r, theta, n = spec.r, spec.theta, LEMMA_NODES
    checks = {}

    def wide_box(stretch):
        # |x| < r^3/theta, |y| < r/theta, t in (-r^2, 0], stretched
        return np.meshgrid(np.linspace(-stretch * r**3 / theta, stretch * r**3 / theta, n),
                           np.linspace(-stretch * r / theta, stretch * r / theta, n),
                           np.linspace(-stretch * r**2, 0.0, n), indexing="ij")

    # transport direction never increases the space-time factor on the wide box
    X, Y, T = wide_box(1.0)
    expr = -spec.transport(X, Y, T)
    checks["transport_sign"] = Check(float(np.max(expr)), LEMMA_TOL, "<=")

    # plateau on the small past box
    XB, YB, TB = np.meshgrid(*Box(theta * r).lattice(n), indexing="ij")
    plateau_min = float(np.min(spec.phi(XB, YB, TB)))
    checks["plateau"] = Check(plateau_min, 1.0 - LEMMA_TOL, ">=")

    # support confined to the wide box for t <= 0
    X2, Y2, T2 = wide_box(1.5)
    outside = (np.abs(X2) > r**3 / theta) | (np.abs(Y2) > r / theta) | (T2 < -r**2)
    vals = spec.phi(X2, Y2, T2)
    leak = float(np.max(vals[outside])) if np.any(outside) else 0.0
    checks["support"] = Check(leak, LEMMA_TOL, "<=")

    # the measurement slab sits inside the support
    sx, sy = Box(SLAB_BETA * r).lattice(n)[:2]
    ts3 = np.linspace(-LEMMA_ALPHA1 * r**2, 0.0, n)
    X3, Y3, T3 = np.meshgrid(sx, sy, ts3, indexing="ij")
    slab_min = float(np.min(spec.phi(X3, Y3, T3)))
    checks["slab_support"] = Check(slab_min, LEMMA_TOL, ">")

    # strictly between 0 and 1 on the earlier part of that slab
    ts4 = np.linspace(-LEMMA_ALPHA1 * r**2, -theta * r**2, n)
    X4, Y4, T4 = np.meshgrid(sx, sy, ts4, indexing="ij")
    vals4 = spec.phi0(X4, T4)
    # lo > 0 and hi < 1 exactly when min(lo, 1 - hi) > 0: a float
    # difference is positive exactly when hi < 1, and lo and hi are NaN together
    lo, hi = float(np.min(vals4)), float(np.max(vals4))
    checks["strict_band"] = Check(min(lo, 1.0 - hi), 0.0, ">")
    return checks


# ---------------------------------------------------------------------------
# logarithmic subsolution transforms


LOG_VARIANTS = ("ratio", "reciprocal")


def log_bound(h: float, variant: str) -> float:
    if variant == "ratio":
        return math.log(1.0 / h) / 8.0
    if variant == "reciprocal":
        return 9.0 / 8.0 * math.log(1.0 / h)
    raise ConfigError(f"unknown log transform variant '{variant}'")


def log_subsolution(values, h: float, variant: str):
    """Pointwise transform turning a nonnegative array into the bounded
    subsolution surrogate; returns (values, sup bound).

    variant "ratio":       ln+ of h / (h^(9/8) + u), bound (1/8) ln(1/h)
    variant "reciprocal":  ln+ of 1 / (h^(9/8) + u), bound (9/8) ln(1/h)

    The transform is finished in its one output array, never in values.
    """
    if not 0.0 < h < 0.5:
        raise ConfigError(f"level h must lie in (0, 1/2), got {h}")
    bound = log_bound(h, variant)  # refuses an unknown variant
    arr = np.asarray(values, float)
    if np.min(arr) < -1e-9:
        raise ConfigError("log transform requires a nonnegative field")
    out = np.maximum(arr, 0.0, out=np.empty(arr.shape))
    out += h ** (9.0 / 8.0)
    np.divide(h if variant == "ratio" else 1.0, out, out=out)
    np.log(out, out=out)
    return np.maximum(out, 0.0, out=out), bound


def log_field(history: FieldHistory, h: float) -> FieldHistory:
    """FieldHistory of the reciprocal log_subsolution, keeping the
    coordinates; the transform's one output array becomes its values."""
    vals, _ = log_subsolution(history.values, h, "reciprocal")
    return FieldHistory(t=history.t, x=history.x, y=history.y, values=vals)


# ---------------------------------------------------------------------------
# mean-value functional


# quadrature of the mean-value identity: midpoint slices in tau, then
# Gauss-Hermite nodes in eta and in the drift-centered xi
MEAN_TAU_NODES = 160
MEAN_ETA_NODES = 16
MEAN_XI_NODES = 8


@dataclass
class MeanValueReport:
    """The sup of each field of a pass, in order, and every lattice value,
    field by field, each field's t slowest, then x, then y."""

    sups: List[float]
    values: np.ndarray

    @property
    def i0(self) -> float:
        """The largest sup, which is the sup of a one-field pass."""
        return float(np.max(self.sups))


class _Level:
    """The quadrature of the mean-value identity's drift term at the points
    (x, y, t) for every x in xs and y in ys, shared by every field of a
    pass: the tau nodes, the eta and xi offsets, and the (x, y) spans that
    a field's slab at those nodes must cover (slab).

    Quadrature follows the kernel: midpoint slices in tau, then Gauss-
    Hermite in eta (scale sqrt(4s)) and in the drift-centered xi (scale
    sqrt(s^3/3)); the kernel prefactor and the two Gaussian widths cancel
    to 1/pi per slice.
    """

    def __init__(self, spec: CutoffSpec, t: float, xs: np.ndarray, ys: np.ndarray):
        self.spec, self.t, self.xs, self.ys = spec, t, xs, ys
        r = spec.r
        # the transported cutoff derivative starts at tau = -r^2/6; the midpoint
        # nodes run from just before it (padded for its small streamwise shift)
        # up to t instead of spreading over the whole past window
        lo = -(r**2) / 6.0 - 0.02 * r**2
        un, uw = _gauss(np.polynomial.hermite.hermgauss, MEAN_ETA_NODES)
        vn, vw = _gauss(np.polynomial.hermite.hermgauss, MEAN_XI_NODES)
        self.weights = uw[:, None] * vw
        self.dtau = (t - lo) / MEAN_TAU_NODES
        # axes (tau, eta node, xi node); the y axis leads the per-y arrays
        self.tau = (lo + (np.arange(MEAN_TAU_NODES) + 0.5) * self.dtau)[:, None, None]
        self.s = t - self.tau
        self.X = np.sqrt(self.s**3 / 3.0) * vn
        self.spread = np.sqrt(4.0 * self.s) * un[:, None]
        etas, shifts = self._eta_nodes()
        # xi = (x - shift) - X; rounding is monotone, so these bounds hold
        self.x_span = (xs.min() - shifts.max() - self.X.max(),
                       xs.max() - shifts.min() - self.X.min())
        self.y_span = (etas.min(), etas.max())

    def _eta_nodes(self) -> tuple:
        """The eta nodes and the streamwise shifts 0.5 s (y + eta), the y
        axis first; formed where they are read, not held, since a pass
        keeps every level from its first field to its last."""
        etas = self.ys[:, None, None, None] + self.spread
        return etas, 0.5 * self.s * (self.ys[:, None, None, None] + etas)

    def slab(self, w_field):
        return w_field.at_times(self.tau, self.x_span, self.y_span)

    def drift(self, slabs) -> np.ndarray:
        """The drift term of each slab's field, one (xs.size, ys.size)
        array per slab.  The transport of the cutoff and the cell lookups
        are formed once per point; each field takes its own sample and
        np.sum of transport * w * eta weights."""
        spec, tau = self.spec, self.tau
        at_y = sample_slabs(slabs)
        drift = np.zeros((len(slabs), self.xs.size, self.ys.size))
        for j, (eta, shift) in enumerate(zip(*self._eta_nodes())):
            w_at = at_y(eta)
            eta_weights = self.weights * spec.phi1(eta)
            for i, x in enumerate(self.xs):
                xi = x - shift - self.X
                transport = spec.transport(xi, eta, tau)
                for k, w in enumerate(w_at(xi)):
                    if not np.all(np.isfinite(w)):
                        raise NumericalError("field sampling returned non-finite values")
                    drift[k, i, j] = np.sum(transport * w * eta_weights)
        drift *= self.dtau / math.pi
        if not np.all(np.isfinite(drift)):
            raise NumericalError("mean-value quadrature produced non-finite values")
        return drift


class _MeanValuePass:
    """The time levels of the nz^3 lattice of the past box of radius
    theta r, and the fields taken for one pass over it, each reduced to its
    slab at every level (take), so that the field itself can be freed."""

    def __init__(self, spec: CutoffSpec, nz: int):
        if nz < 1:
            raise ConfigError(f"the mean-value lattice needs at least one node per axis, got {nz}")
        xs, ys, ts = Box(spec.theta * spec.r).lattice(nz)
        # made here, so the workers inherit the Gauss rules
        self.levels = [_Level(spec, float(t), xs, ys) for t in ts]
        self.slabs = []  # slabs[k][i]: field k at level i

    def take(self, w_field):
        self.slabs.append([level.slab(w_field) for level in self.levels])


def mean_value(w_fields, spec: CutoffSpec, nz: int) -> MeanValueReport:
    """Sup of the mean-value functional over a lattice of the small box,
    for each field of a list or generator in one pass.  w_fields may also
    be a pass on the same spec and nz that has taken its fields already
    (weak_poincare_ratio hands one over), so that making the fields is not
    part of this call.

    The nz^3 lattice of the past box of radius theta r is walked one time
    level at a time.  Per level the tau nodes, s and the Gauss-Hermite
    offsets are formed once for every field, and each field is reduced to
    its slab at those nodes (at_times) and dropped before the next is
    taken, so no field outlives its slabs.  Per point the cutoff's
    transport and the cell lookups are formed once; each field adds a
    bilinear sample and its np.sum.  Per (level, y) the eta nodes and phi1
    are shared by the nz values of x.

    Only the drift term (d/dt + y d/dx) phi0 phi1 of the identity is
    formed.  Its wall-normal term carries d/dy phi1, which is supported on
    |eta| > theta^(-5/6) r > 32 r (theta < THETA_MAX = 2^-6), while the
    MEAN_ETA_NODES = 16 eta nodes stay within |y| + 4.1 r with |y| <=
    theta r, so on the lattice of any admissible cutoff that term is
    exactly 0.

    Each level is one thunk of parallel.fork_each, and np.sum, not a BLAS
    dot product, sums each point of each field over the same operands, so
    a field's values do not depend on the BLAS thread count, the core count
    or the other fields of its pass.
    """
    taken = w_fields
    if not isinstance(taken, _MeanValuePass):
        taken = _MeanValuePass(spec, nz)
        for w in w_fields:
            taken.take(w)
            del w  # so a generator's next field is made with this one freed
    if not taken.slabs:
        raise ConfigError("a mean-value pass needs at least one field")
    # (level, field, x, y) -> field by field
    vals = np.array(fork_each([partial(level.drift, [field[i] for field in taken.slabs])
                               for i, level in enumerate(taken.levels)])).swapaxes(0, 1)
    return MeanValueReport(sups=[float(np.max(v)) for v in vals], values=vals.ravel())


# ---------------------------------------------------------------------------
# weak Poincare functional


@dataclass
class PoincareReport:
    i0: float
    lhs: float
    rhs: float
    ratio: float


# lattice nodes per axis of the mean-value lattice, the small and the wide
# box, and the level below which either side counts as zero
POINCARE_MEAN_NODES = 9
POINCARE_SMALL_NODES = 17
POINCARE_WIDE_NODES = 25
POINCARE_TINY = 1e-30


def _box_queries(box: Box, n: int) -> tuple:
    """The (t, x, y) queries of the n^3 lattice of box."""
    X, Y, T = np.meshgrid(*box.lattice(n), indexing="ij")
    return T, X, Y


def _box_integral(vals: np.ndarray, box: Box, n: int) -> float:
    """Trapezoid integral over box of vals on its n^3 lattice."""
    xs, ys, ts = box.lattice(n)
    wx, wy, wt = trapezoid_weights(xs), trapezoid_weights(ys), trapezoid_weights(ts)
    return float(np.einsum("i,j,n,ijn->", wx, wy, wt, vals))


def weak_poincare_ratio(w_fields, spec: CutoffSpec) -> List[PoincareReport]:
    """Measured two-sided functional of the weak Poincare inequality, one
    report per field of a list or generator, in order.

    LHS integrates the squared excess over the mean-value sup on the small
    box; RHS is theta^2 r^2 times the squared wall-normal gradient mass on
    the wide box.  Zero RHS with zero LHS is a vacuous pass, ratio 0; zero
    RHS with positive LHS is a hard violation, ratio inf.

    The fields go through one mean_value pass.  Each is reduced to its
    slabs, its small-box samples and its RHS, then dropped, so a
    generator's fields are alive one at a time, and all are taken before
    the pass is evaluated; each LHS is finished from its samples once the
    sups are known.
    """
    r, theta = spec.r, spec.theta
    if r >= theta:
        raise ConfigError("the functional needs r < theta so the wide box stays unit-scale")
    small, wide = Box(r * theta), Box(r / theta)
    taken, samples, rhs = _MeanValuePass(spec, POINCARE_MEAN_NODES), [], []
    for w in w_fields:
        taken.take(w)
        samples.append(w.sample(*_box_queries(small, POINCARE_SMALL_NODES)))
        rhs.append(theta**2 * r**2 * _box_integral(
            w.sample_dy(*_box_queries(wide, POINCARE_WIDE_NODES)) ** 2, wide, POINCARE_WIDE_NODES))
        del w  # so a generator's next field is made with this one freed
    sups = mean_value(taken, spec, POINCARE_MEAN_NODES).sups
    reports = []
    for i0, vals, rhs_k in zip(sups, samples, rhs):
        lhs = _box_integral(np.maximum(vals - i0, 0.0) ** 2, small, POINCARE_SMALL_NODES)
        if rhs_k <= POINCARE_TINY and lhs <= POINCARE_TINY:
            ratio = 0.0
        elif rhs_k <= POINCARE_TINY < lhs:
            ratio = float("inf")
        else:
            ratio = lhs / rhs_k
        reports.append(PoincareReport(i0=i0, lhs=lhs, rhs=rhs_k, ratio=ratio))
    return reports


# ---------------------------------------------------------------------------
# density estimate


@dataclass
class DensityReport:
    hypothesis_fraction: float
    rows: List[tuple]  # (t, h, ratio)
    ratio: float
    h_certificate: dict


DENSITY_FLOOR = 1.0 / 11.0
# past-box radius, x and y lattice nodes of the box and the slab, slab times
DENSITY_R = 0.5
DENSITY_NODES = 33
DENSITY_TIMES = 9


def density_ratio(u_field, h: float, normalize: bool = False) -> DensityReport:
    """Occupation measure of {u >= h} on the slab, the ratio held against
    DENSITY_FLOOR = 1/11.

    The hypothesis (at least half the past box of radius DENSITY_R sits at
    level >= 1) is measured on a node lattice; normalize=True rescales by
    the lattice median first, which makes the hypothesis hold whenever the
    median is positive.  The slab ratio at level h is also the first entry
    of the h-certificate, which adds the levels h/2 and h/4.  When the
    hypothesis fails nothing is measured: no rows, a NaN ratio and an empty
    h-certificate.
    """
    vals = u_field.sample(*_box_queries(Box(DENSITY_R), DENSITY_NODES))
    scale = 1.0
    if normalize:
        med = float(np.median(vals))
        if med > 0:
            scale = med
    frac = float(np.mean(vals / scale >= 1.0 - 1e-12))
    if frac < 0.5:
        return DensityReport(hypothesis_fraction=frac, rows=[], ratio=float("nan"),
                             h_certificate={})

    sx, sy = Box(SLAB_BETA * DENSITY_R).lattice(DENSITY_NODES)[:2]
    t_samples = np.linspace(-SLAB_ALPHA * DENSITY_R**2, 0.0, DENSITY_TIMES)
    # the slab sampled once, one (x, y) lattice per time
    slab = u_field.sample(*np.meshgrid(t_samples, sx, sy, indexing="ij")) / scale

    def slab_ratio(level):
        per_t = np.mean(slab >= level, axis=(1, 2))
        return float(per_t.min()), [(float(tq), level, float(f))
                                    for tq, f in zip(t_samples, per_t)]

    ratio, rows = slab_ratio(h)
    cert = {h: ratio}
    for level in (h / 2.0, h / 4.0):
        cert[level], _ = slab_ratio(level)
    return DensityReport(hypothesis_fraction=frac, rows=rows, ratio=ratio, h_certificate=cert)


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
    rows: List[OscillationRow]
    beta_bar: float
    alpha_holder: float


# big-box radii, the small box's radius relative to its big box, and the
# lattice nodes per axis of every box
OSC_RADII = (0.4, 0.2, 0.1)
OSC_THETA_BAR = 0.3
OSC_NODES = 17


def _box_oscillation(u_field, r: float) -> float:
    vals = u_field.sample(*_box_queries(Box(r), OSC_NODES))
    return float(np.max(vals) - np.min(vals))


def oscillation_table(u_field) -> OscillationReport:
    """Box oscillations at two nested scales per radius.

    Flat big-box oscillation reports ratio 0.  A box outside a field
    history's axes is refused by its sampler.
    """
    rows = []
    pairs = []
    for r in OSC_RADII:
        osc_big = _box_oscillation(u_field, r)
        osc_small = _box_oscillation(u_field, OSC_THETA_BAR * r)
        ratio = 0.0 if osc_big == 0.0 else osc_small / osc_big
        rows.append(OscillationRow(r=r, osc_small=osc_small, osc_big=osc_big, ratio=ratio))
        # a NaN oscillation is kept, so the fit reads NaN on a broken run
        if not osc_big <= 0:
            pairs.append((r, osc_big))
        if not osc_small <= 0:
            pairs.append((OSC_THETA_BAR * r, osc_small))
    beta_bar = float(np.max([row.ratio for row in rows]))
    if len(pairs) >= 2:
        lr = np.log([p[0] for p in pairs])
        lo = np.log([p[1] for p in pairs])
        alpha_holder = float(np.polyfit(lr, lo, 1)[0])
    else:
        alpha_holder = float("nan")
    return OscillationReport(rows=rows, beta_bar=beta_bar, alpha_holder=alpha_holder)


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

    def sample(self, x, y):
        vals = np.asarray(self.a(x, y), float)
        return np.broadcast_to(vals, np.broadcast(np.asarray(x), np.asarray(y)).shape)


# (x, y) cell of the rough coefficients, laid from the corner (-1, -1)
MODEL_CELL = (0.125, 0.5)


def model_scenarios(kind: str, lam: float = 2.0, seed: int = 0) -> RoughCoefficient:
    """Named coefficient fields for the model runs.

    "constant" is the exactly solvable case; "checkerboard" alternates the
    extreme admissible values on anisotropic cells; "seeded-random" draws
    log-uniform cell values reproducibly.
    """
    if lam <= 1.0 and kind != "constant":
        raise ConfigError("rough scenarios need an ellipticity constant above 1")
    if kind == "constant":
        return RoughCoefficient(a=lambda x, y: np.ones(np.broadcast(np.asarray(x), np.asarray(y)).shape),
                                lam=max(lam, 1.0), name="constant")
    cx, cy = MODEL_CELL
    cells = (int(np.ceil(2.0 / cx)), int(np.ceil(2.0 / cy)))
    if kind == "checkerboard":
        table = np.where(np.indices(cells).sum(axis=0) % 2 == 0, lam, 1.0 / lam)
        name = f"checkerboard-{lam:g}"
    elif kind == "seeded-random":
        rng = np.random.default_rng(seed)
        table = np.exp(rng.uniform(-np.log(lam), np.log(lam), size=cells))
        name = f"seeded-random-{lam:g}-{seed}"
    else:
        raise ConfigError(f"unknown model scenario '{kind}'")

    def a(x, y):
        # the clip never binds on the model domain [-1, 1) x (-1, 1)
        ix = np.clip(np.floor((np.asarray(x, float) + 1.0) / cx).astype(int), 0, cells[0] - 1)
        iy = np.clip(np.floor((np.asarray(y, float) + 1.0) / cy).astype(int), 0, cells[1] - 1)
        return table[ix, iy]
    return RoughCoefficient(a=a, lam=lam, name=name)


def _factor_columns(sub, dia, sup) -> Callable:
    """Factor once the tridiagonal systems held row by row (sub[:, 0] and
    sup[:, -1] ignored) as one uncoupled LAPACK system; returns its solver."""
    dl, d, du, du2, ipiv, info = dgttrf(*uncoupled_bands(sub, dia, sup))
    if info != 0:
        raise NumericalError(f"tridiagonal factorization failed (info={info})")
    return lambda rhs: dgttrs(dl, d, du, du2, ipiv, rhs.ravel())[0].reshape(rhs.shape)


# past-window start (marched to t = 0) and desk grid (nx, ny, nt) of model runs
MODEL_T0 = -0.75
MODEL_GRID = (48, 192, 300)


def model_axes(nx: int, nt: int, t0: float) -> tuple:
    """Time and streamwise nodes (t, x) of a model run: nt steps from t0 to
    0 and nx periodic cells on [-1, 1).  A past window (t0 < 0) and stable
    upwind transport, dt <= CFL_SAFETY dx, are required; solve_model and
    RunConfig both decide through here."""
    if t0 >= 0:
        raise ConfigError("model runs march a past window, t0 < 0")
    x = np.linspace(-1.0, 1.0, nx, endpoint=False)
    t = np.linspace(t0, 0.0, nt + 1)
    dx = x[1] - x[0]
    dt = t[1] - t[0]
    if dt > CFL_SAFETY * dx:
        raise ConfigError(
            f"transport stability needs dt <= {CFL_SAFETY} dx: dt={dt:g}, dx={dx:g}")
    return t, x


def _upwind_rhs(u: np.ndarray, split: int, dx: float, dty: np.ndarray, out: np.ndarray):
    """u - dt y du/dx into out, with du/dx the periodic upwind difference in
    x: backward on the y columns from split on (y > 0, as y ascends) and
    forward before them, the wrap written as the first and last rows.  Each
    entry is formed as u - (dt y) ((a - b) / dx), without temporaries."""
    pos, neg = out[:, split:], out[:, :split]
    np.subtract(u[1:, split:], u[:-1, split:], out=pos[1:])
    np.subtract(u[0, split:], u[-1, split:], out=pos[0])
    np.subtract(u[1:, :split], u[:-1, :split], out=neg[:-1])
    np.subtract(u[0, :split], u[-1, :split], out=neg[-1])
    out /= dx
    out *= dty
    np.subtract(u, out, out=out)


def solve_model(coef: RoughCoefficient, nx: int, ny: int, nt: int,
                t0: float = MODEL_T0,
                u0: Optional[Callable] = None,
                bottom: Optional[Callable] = None,
                top: Optional[Callable] = None) -> FieldHistory:
    """March the divergence-form model equation on [-1,1]^2 x [t0, 0].

    Implicit in the wall-normal diffusion (interface coefficients sampled
    at half nodes), explicit upwind for the y-signed streamwise transport,
    periodic in x, Dirichlet in y from callables (frozen initial traces by
    default).  The grid must pass model_axes.
    """
    t, x = model_axes(nx, nt, t0)
    y = np.linspace(-1.0, 1.0, ny + 1)
    dx = x[1] - x[0]
    dy = y[1] - y[0]
    dt = t[1] - t[0]

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

    # time-constant tridiagonal diagonals, one row per x column of the grid
    ry = dt / dy**2
    sub = np.zeros((nx, ny + 1))
    dia = np.ones((nx, ny + 1))
    sup = np.zeros((nx, ny + 1))
    sub[:, 1:-1] = -ry * a_half[:, :-1]
    sup[:, 1:-1] = -ry * a_half[:, 1:]
    dia[:, 1:-1] = 1.0 + ry * (a_half[:, :-1] + a_half[:, 1:])
    solve_columns = _factor_columns(sub, dia, sup)

    # column nx is the periodic wrap of column 0, so interpolation covers x = 1
    hist = np.empty((nt + 1, nx + 1, ny + 1))
    hist[0, :nx], hist[0, nx] = u, u[0]
    split, dty = np.searchsorted(y, 0.0, side="right"), dt * y[None, :]
    rhs = np.empty_like(u)
    for n in range(nt):
        tn1 = t[n + 1]
        _upwind_rhs(u, split, dx, dty, rhs)
        rhs[:, 0] = np.broadcast_to(bottom(x, tn1), (nx,))
        rhs[:, -1] = np.broadcast_to(top(x, tn1), (nx,))
        u = solve_columns(rhs)
        if not np.all(np.isfinite(u)):
            raise NumericalError(f"model run lost finiteness at step {n + 1}")
        hist[n + 1, :nx], hist[n + 1, nx] = u, u[0]

    return FieldHistory(t=t, x=np.append(x, 1.0), y=y, values=hist)


# wall-normal cells, window start, and the gap from the pole up to that
# start of the kernel reproduction run
KERNEL_NY = 128
KERNEL_T0 = -0.2
KERNEL_POLE_GAP = 0.3


def kernel_reproduction(nx: int, nt: int) -> dict:
    """Constant-coefficient model run against the exact kernel.

    The initial state and the wall-normal boundary traces are sampled from
    the kernel with a pole below the initial time; the final state is
    compared with the kernel in sup norm (relative to its peak).
    """
    tau_p = KERNEL_T0 - KERNEL_POLE_GAP
    coef = model_scenarios("constant")

    def exact(xq, yq, tq):
        return gamma0((xq, yq, tq), (0.0, 0.0, tau_p))

    hist = solve_model(
        coef, nx=nx, ny=KERNEL_NY, nt=nt, t0=KERNEL_T0,
        u0=lambda xq, yq: exact(xq, yq, KERNEL_T0),
        bottom=lambda xq, tq: exact(xq, -1.0, tq),
        top=lambda xq, tq: exact(xq, 1.0, tq),
    )
    XX, YY = np.meshgrid(hist.x, hist.y, indexing="ij")
    ref = exact(XX, YY, 0.0)
    err = float(np.max(np.abs(hist.values[-1] - ref)))
    peak = float(np.max(ref))
    return {"sup_error": err, "peak": peak, "rel_error": err / peak, "history": hist}

"""Grid and field containers shared by the solver and the measurement layers.

The solver works on a tensor grid of the strip (x, y, t) in
[0, L] x [0, 1] x [0, T].  The regularity laboratory reuses the same
containers on boxes centred at the origin, so coordinate arrays are stored
explicitly instead of being derived from a GridSpec.  FieldHistory axes
are uniform, so sampling finds a cell by one division, not a search.

Two field types share the sampling protocol of the measurement layer:
sample(t, x, y) at broadcastable queries, and the field at fixed times,
at_times(tau, x_span, y_span) -> a slab.  A FieldHistory's slab
(TimeSlab) is the history interpolated once in time onto the window of
cells the spans touch; it owns that window and the axes, never the
history.  An AnalyticField's slab binds tau to its callable.
sample_slabs samples the slabs of several fields at the same times as
at_y(y) -> at_x(x) -> one array per field: the cell lookups are made once
for all of them, and slabs of different types or axes are refused.  The
mean-value functional takes one slab per field and time level and never
branches on the field type.
Only FieldHistory has the wall-normal derivative sample_dy, which the weak
Poincare functional integrates; it forms np.gradient along y at only the
cell corners its interpolation reads, never over the whole history.
Check, the package's one verdict type, keeps the numbers that decided it.
"""

import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError

# largest Courant number of explicit upwind transport, in both marchers
CFL_SAFETY = 0.9

_SENSES = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
           "==": operator.eq, "in": lambda v, b: b[0] < v < b[1]}


@dataclass(frozen=True)
class Check:
    """A measured value against its bound: passed when `value sense bound`
    holds, sense one of <, <=, >, >=, == or "in", the open interval
    bound = (lo, hi).  A NaN value fails every sense."""

    value: float
    bound: object
    sense: str

    @property
    def passed(self) -> bool:
        return bool(_SENSES[self.sense](self.value, self.bound))

    def __str__(self) -> str:
        """`value sense bound`: the value to four significant digits, the
        bound (each end of an interval) as the shortest string that reads
        back as the same float."""
        bound = (f"({_shortest(self.bound[0])}, {_shortest(self.bound[1])})"
                 if self.sense == "in" else _shortest(self.bound))
        return f"{self.value:.4g} {self.sense} {bound}"


def _shortest(b) -> str:
    """repr of the float b, the shortest string that round-trips, without a
    trailing .0."""
    text = repr(float(b))
    return text[:-2] if text.endswith(".0") else text


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid for the strip problem: nodes include both endpoints."""

    nx: int
    ny: int
    nt: int
    L: float = 1.0
    T: float = 1.0

    def __post_init__(self):
        for name in ("nx", "ny", "nt"):
            n = getattr(self, name)
            if int(n) != n or n < 4:
                raise ConfigError(f"GridSpec.{name} must be an integer >= 4, got {n!r}")
        if self.L <= 0 or self.T <= 0:
            raise ConfigError("GridSpec extents L, T must be positive")

    @property
    def dx(self) -> float:
        return self.L / self.nx

    @property
    def dy(self) -> float:
        return 1.0 / self.ny

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx + 1)

    @property
    def y(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.ny + 1)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)

    def refined(self) -> "GridSpec":
        """The grid with every step halved."""
        return GridSpec(2 * self.nx, 2 * self.ny, 2 * self.nt, self.L, self.T)


def _cell(nodes: np.ndarray, q) -> tuple:
    """Cell and in-cell weight of q; a query more than 1e-12 of the span
    outside the axis raises ConfigError."""
    n = nodes.size - 1
    s = (q - nodes[0]) / ((nodes[-1] - nodes[0]) / n)
    if np.min(s, initial=0.0) < -1e-12 * n or np.max(s, initial=0.0) > (1.0 + 1e-12) * n:
        raise ConfigError("sample query outside the axis of the field history")
    cell = np.fmax(np.fmin(np.floor(s), n - 1), 0.0).astype(np.intp)
    return cell, (q - nodes[cell]) / np.diff(nodes)[cell]


def _lerp_corners(gather: Callable, base, strides, weights) -> np.ndarray:
    """Interpolate the 2^d cell corners above the flat index base (one
    stride per axis), read by gather(flat index), the last axis first.  One
    partial result per axis is alive at a time, not all 2^d corners."""
    if not strides:
        return gather(base)
    lo = _lerp_corners(gather, base, strides[1:], weights[1:])
    hi = _lerp_corners(gather, base + strides[0], strides[1:], weights[1:])
    return lo + weights[0] * (hi - lo)


@dataclass(eq=False)
class FieldHistory:
    """Full space-time field on uniform node coordinates.

    values has shape (t.size, x.size, y.size); each axis has at least two
    ascending equally spaced nodes.  Arrays are marked read-only after
    construction.  A query outside the axes raises ConfigError.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    label: str = ""
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.t = np.ascontiguousarray(np.asarray(self.t, dtype=float))
        self.x = np.ascontiguousarray(np.asarray(self.x, dtype=float))
        self.y = np.ascontiguousarray(np.asarray(self.y, dtype=float))
        self.values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        expected = (self.t.size, self.x.size, self.y.size)
        if self.values.shape != expected:
            raise ConfigError(f"history shape {self.values.shape}, expected {expected}")
        for name in ("t", "x", "y"):
            c = getattr(self, name)
            if c.size < 2 or not c[-1] > c[0] or not np.all(
                    np.abs(c - np.linspace(c[0], c[-1], c.size)) <= 1e-12 * np.max(np.abs(c))):
                raise ConfigError(f"history axis {name} must be uniform and ascending")
        for arr in (self.t, self.x, self.y, self.values):
            arr.flags.writeable = False

    def _trilinear(self, gather, t, x, y) -> np.ndarray:
        it, wt = _cell(self.t, np.asarray(t, float))
        ix, wx = _cell(self.x, np.asarray(x, float))
        iy, wy = _cell(self.y, np.asarray(y, float))
        nx, ny = self.x.size, self.y.size
        return _lerp_corners(gather, (it * nx + ix) * ny + iy, (nx * ny, ny, 1), (wt, wx, wy))

    def sample(self, t, x, y) -> np.ndarray:
        """Trilinear interpolation at broadcastable query coordinates."""
        return self._trilinear(self.values.ravel().take, t, x, y)

    def sample_dy(self, t, x, y) -> np.ndarray:
        """Wall-normal derivative at broadcastable query coordinates: the
        trilinear interpolation of np.gradient(values, y, axis=2), formed bit
        for bit at only the cell corners the interpolation reads.

        As in np.gradient, the first and last rows take the one-sided
        difference and the interior rows the central one, which on a y axis
        with unequal steps (decided on the full axis) is the a, b, c form.
        """
        flat, n = self.values.ravel(), self.y.size
        h = np.diff(self.y)
        # on equal steps h + h is np.gradient's central step 2h exactly
        step = np.concatenate((h[:1], h[:-1] + h[1:], h[-1:]))
        h1, h2 = h[:-1], h[1:]
        # zero-padded so that the end rows index them too
        a, b, c = (np.pad(w, 1) for w in (-h2 / (h1 * (h1 + h2)), (h2 - h1) / (h1 * h2),
                                            h1 / (h2 * (h1 + h2))))
        uniform = (h == h[0]).all()

        def gather(k) -> np.ndarray:
            row = k % n
            lo, hi = k - (row > 0), k + (row < n - 1)
            out = (flat[hi] - flat[lo]) / step[row]
            if uniform:
                return out
            inner = (0 < row) & (row < n - 1)
            return np.where(inner, a[row] * flat[lo] + b[row] * flat[k] + c[row] * flat[hi], out)
        return self._trilinear(gather, t, x, y)

    def at_times(self, tau, x_span, y_span) -> "TimeSlab":
        """The field at the fixed times tau on the window of (x, y) cells
        that x_span = (lo, hi) and y_span touch, interpolated in time once.
        Time comes first instead of last, so a slab's samples agree with
        sample() to rounding."""
        tau = np.asarray(tau, float)
        it, wt = _cell(self.t, tau.ravel())
        (x0, x1), _ = _cell(self.x, np.asarray(x_span, float))
        (y0, y1), _ = _cell(self.y, np.asarray(y_span, float))
        window = self.values[:, x0:x1 + 2, y0:y1 + 2]
        lo = window[it]
        return TimeSlab(tau, self.x, self.y, (x0, x1, y0, y1),
                        (lo + wt[:, None, None] * (window[it + 1] - lo)).ravel())


@dataclass(frozen=True, eq=False)
class TimeSlab:
    """A FieldHistory at the fixed times tau on the window of x cells x0..x1
    and y cells y0..y1: it owns the axes and the interpolated window, the
    times first, never the history, which may be freed."""

    tau: np.ndarray
    x: np.ndarray
    y: np.ndarray
    cells: tuple  # (x0, x1, y0, y1)
    values: np.ndarray

    def axes(self) -> tuple:
        return self.tau, self.x, self.y, self.cells

    @staticmethod
    def sampler(slabs) -> Callable:
        """at_y(y) -> at_x(x) -> one bilinear sample per slab; the cell
        lookups and the gather indices are made once for all of them."""
        first = slabs[0]
        x0, x1, y0, y1 = first.cells
        nxw, nyw = x1 - x0 + 2, y1 - y0 + 2
        level = np.arange(first.tau.size).reshape(first.tau.shape) * (nxw * nyw)

        def at_y(y) -> Callable:
            iy, wy = _cell(first.y, np.asarray(y, float))
            if not y0 <= iy.min() <= iy.max() <= y1:
                raise ConfigError("at_times: y query outside the y_span of the slab")
            row = level + (iy - y0)
            # one y-interpolated row per window column, the column axis first
            base = np.add.outer(np.arange(nxw) * nyw, row)
            rows = [_lerp_corners(s.values.take, base, (1,), (wy,)).ravel() for s in slabs]
            at = np.arange(row.size).reshape(row.shape) - x0 * row.size

            def at_x(x) -> list:
                ix, wx = _cell(first.x, np.asarray(x, float))
                if not x0 <= ix.min() <= ix.max() <= x1:
                    raise ConfigError("at_times: x query outside the x_span of the slab")
                k = ix * row.size + at
                return [_lerp_corners(r.take, k, (row.size,), (wx,)) for r in rows]
            return at_x
        return at_y


class AnalyticField:
    """Callable-backed field with the sampling protocol of FieldHistory,
    for exact control cases; f(t, x, y) gets broadcast query arrays."""

    def __init__(self, f: Callable):
        self.f = f

    def sample(self, t, x, y) -> np.ndarray:
        tq, xq, yq = np.broadcast_arrays(np.asarray(t, float), np.asarray(x, float), np.asarray(y, float))
        return np.broadcast_to(np.asarray(self.f(tq, xq, yq), float), tq.shape).copy()

    def at_times(self, tau, x_span, y_span) -> "AnalyticSlab":
        """The field bound to the fixed times tau; the spans are unused."""
        return AnalyticSlab(np.asarray(tau, float), self)


@dataclass(frozen=True, eq=False)
class AnalyticSlab:
    """An AnalyticField bound to the fixed times tau."""

    tau: np.ndarray
    field: AnalyticField

    def axes(self) -> tuple:
        return (self.tau,)

    @staticmethod
    def sampler(slabs) -> Callable:
        """at_y(y) -> at_x(x) -> each slab's callable at the shared queries."""
        tau = slabs[0].tau
        return lambda y: lambda x: [s.field.sample(tau, x, y) for s in slabs]


def sample_slabs(slabs) -> Callable:
    """The slabs of several fields at the same times, as at_y(y) -> at_x(x)
    -> one array per slab, in order.  at_y takes queries broadcastable
    against tau and at_x finishes the sample; a history slab refuses a
    query in a cell outside its spans.  Slabs of different field types or
    on different axes are refused with ConfigError."""
    first = slabs[0]
    if any(type(s) is not type(first)
           or not all(map(np.array_equal, s.axes(), first.axes())) for s in slabs[1:]):
        raise ConfigError("sampled slabs need one field type on shared axes and times")
    return first.sampler(slabs)


def trapezoid_weights(coords: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for possibly non-uniform node coordinates."""
    coords = np.asarray(coords, dtype=float)
    w = np.zeros_like(coords)
    if coords.size == 1:
        return w
    d = np.diff(coords)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def l1_spacetime_norm(diff: np.ndarray, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """L1 norm over the full space-time cylinder by trapezoid weights."""
    wt = trapezoid_weights(t)
    wx = trapezoid_weights(x)
    wy = trapezoid_weights(y)
    return float(np.einsum("n,i,j,nij->", wt, wx, wy, np.abs(diff)))

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crocco_prandtl.crocco import CroccoData, make_problem
from crocco_prandtl.errors import ConfigError, NumericalError
from crocco_prandtl import estimates
from crocco_prandtl.estimates import (
    bv_seminorm,
    comparison_constant,
    l1_stability,
    physical_stability,
    trace_residual,
    uniformity_spread,
    weak_residual,
    weighted_dyy_measure,
    weighted_grad_norms,
)
from crocco_prandtl.flows import decelerating_flow, uniform_flow
from crocco_prandtl.grids import FieldHistory, GridSpec
from crocco_prandtl.scenarios import ACCEL_T, favorable_accel_problem
from crocco_prandtl.solver import solve


def grid_history(f, nt=16, nx=16, ny=32, L=1.0, T=1.0, eps=None):
    t = np.linspace(0.0, T, nt + 1)
    x = np.linspace(0.0, L, nx + 1)
    y = np.linspace(0.0, 1.0, ny + 1)
    tt, xx, yy = np.meshgrid(t, x, y, indexing="ij")
    return FieldHistory(t=t, x=x, y=y, values=f(tt, xx, yy), eps=eps)


def linear_problem(grid, flow=None):
    data = CroccoData(
        w0=lambda x, y: np.broadcast_to(1.0 - y, np.broadcast(x, y).shape),
        w1=lambda y, t: np.broadcast_to(1.0 - y, np.broadcast(y, t).shape),
        v0=lambda x, t: np.full(np.broadcast(x, t).shape, -1.0),
    )
    return make_problem(flow or uniform_flow(), grid, data)


# ---------------------------------------------------------------------------
# pointwise and integral functionals


def test_comparison_constant_linear_profile():
    h = grid_history(lambda t, x, y: 1.0 - y)
    assert comparison_constant(h) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("scale,expected", [(2.0, 2.0), (1.0 / 3.0, 3.0)])
def test_comparison_constant_scaled(scale, expected):
    h = grid_history(lambda t, x, y: scale * (1.0 - y))
    assert comparison_constant(h) == pytest.approx(expected, rel=1e-13)


def test_comparison_constant_nonpositive_is_inf():
    h = grid_history(lambda t, x, y: np.zeros_like(y))
    assert comparison_constant(h) == float("inf")


def test_bv_seminorm_linear_profile_exact():
    # |dy u| = 1 over a unit cylinder
    h = grid_history(lambda t, x, y: 1.0 - y)
    assert bv_seminorm(h) == pytest.approx(1.0, abs=1e-13)


def test_bv_seminorm_scales_with_domain():
    h = grid_history(lambda t, x, y: 1.0 - y, L=2.0)
    assert bv_seminorm(h) == pytest.approx(2.0, abs=1e-13)


def test_bv_seminorm_counts_every_direction():
    h = grid_history(lambda t, x, y: (1.0 - y) + t + 0.5 * x)
    assert bv_seminorm(h) == pytest.approx(2.5, abs=1e-13)


def test_weighted_grad_norms_linear_alpha1():
    h = grid_history(lambda t, x, y: 1.0 - y)
    n1, n2 = weighted_grad_norms(h, alpha=1.0)
    assert n1 == pytest.approx(0.5, abs=1e-13)
    assert n2 == pytest.approx(0.5, abs=1e-13)


def test_weighted_grad_norms_linear_alpha0():
    h = grid_history(lambda t, x, y: 1.0 - y)
    n1, n2 = weighted_grad_norms(h, alpha=0.0)
    assert n1 == pytest.approx(1.0, abs=1e-13)
    assert n2 == pytest.approx(1.0, abs=1e-13)


def test_weighted_grad_norms_alpha2_midpoint():
    # integral of (1-y)^2 is 1/3; midpoint rule converges at second order
    h = grid_history(lambda t, x, y: 1.0 - y, ny=64)
    n1, _ = weighted_grad_norms(h, alpha=2.0)
    assert n1 == pytest.approx(1.0 / 3.0, rel=1e-4)


def test_weighted_grad_norms_rejects_bad_weight():
    h = grid_history(lambda t, x, y: 1.0 - y)
    with pytest.raises(ConfigError):
        weighted_grad_norms(h, alpha=-1.5)


def test_weighted_dyy_measure_quadratic_exact():
    # dyy (1-y)^2 = 2 and the weighted integrand (1-y)*2 is trapezoid-exact
    h = grid_history(lambda t, x, y: (1.0 - y) ** 2)
    assert weighted_dyy_measure(h, alpha=1.0) == pytest.approx(1.0, abs=1e-12)


def test_weighted_dyy_measure_needs_positive_alpha():
    h = grid_history(lambda t, x, y: (1.0 - y) ** 2)
    with pytest.raises(ConfigError):
        weighted_dyy_measure(h, alpha=0.0)


# ---------------------------------------------------------------------------
# weak identity


def _product(phi):
    """A member and its t, x and y derivatives at (x, y, t), each the
    product of the member's 1-D factors."""
    def evaluate(x, y, t):
        (sx, sx_x), (sy, sy_y), (st, st_t) = phi.sx(x), phi.sy(y), phi.st(t)
        return sx * sy * st, sx * sy * st_t, sx_x * sy * st, sx * sy_y * st
    return evaluate


def _combo(a, phi1, b, phi2):
    """a*phi1 + b*phi2 and its derivatives, evaluated as _product does."""
    def evaluate(x, y, t):
        return tuple(a * v1 + b * v2 for v1, v2 in
                     zip(_product(phi1)(x, y, t), _product(phi2)(x, y, t)))
    return evaluate


def test_test_function_family_shape_and_traces():
    fam = estimates.test_function_family(1.0, 1.0)
    assert len(fam) == 6
    x = np.linspace(0.0, 1.0, 9)
    for phi in fam:
        value = lambda x, y, t: _product(phi)(x, y, t)[0]  # noqa: E731
        assert np.allclose(value(x, 0.3, 0.0), 0.0)  # vanishes at t = 0
        assert abs(value(0.0, 0.3, 0.5)) < 1e-15  # and on the inflow face
        assert abs(value(1.0, 0.3, 0.5)) < 1e-15
        assert abs(value(0.25, 0.0, 1.0)) > 0  # but not at the final time
        assert phi.sy(0.0)[0] == 1.0  # the wall trace reads no y factor


def test_test_function_derivatives_match_finite_differences():
    phi = estimates.TestFunction(k=2, m=2, L=1.0, T=1.0)
    evaluate = _product(phi)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.1, 0.9, size=(20, 3))
    h = 1e-6
    for xq, yq, tq in pts:
        _, d_t, d_x, d_y = evaluate(xq, yq, tq)
        assert d_x == pytest.approx(
            (evaluate(xq + h, yq, tq)[0] - evaluate(xq - h, yq, tq)[0]) / (2 * h),
            rel=1e-6, abs=1e-8)
        assert d_y == pytest.approx(
            (evaluate(xq, yq + h, tq)[0] - evaluate(xq, yq - h, tq)[0]) / (2 * h),
            rel=1e-6, abs=1e-8)
        assert d_t == pytest.approx(
            (evaluate(xq, yq, tq + h)[0] - evaluate(xq, yq, tq - h)[0]) / (2 * h),
            rel=1e-6, abs=1e-8)


def test_weak_residual_linear_profile_small_and_converging():
    res = {}
    for n in (16, 32):
        grid = GridSpec(nx=n, ny=n, nt=n, L=1.0, T=1.0)
        prob = linear_problem(grid)
        h = grid_history(lambda t, x, y: 1.0 - y, nt=n, nx=n, ny=n)
        res[n] = weak_residual(h, prob)
    assert res[32] < 2e-2
    # midpoint quadrature error, second order
    assert res[16] / res[32] > 3.0


def test_weak_residual_terms_sum_matches_reported_residual():
    grid = GridSpec(nx=16, ny=16, nt=16)
    prob = linear_problem(grid)
    h = grid_history(lambda t, x, y: 1.0 - y, nt=16, nx=16, ny=16)
    phi = estimates.TestFunction(k=1, m=1, L=1.0, T=1.0)
    terms = estimates._weak_quadrature(h, prob, 0)(phi)
    parts = [v for k, v in terms.items() if k != "residual"]
    assert terms["residual"] == pytest.approx(sum(parts), abs=1e-15)
    # the identity is a genuine cancellation, not term-by-term smallness
    assert max(abs(p) for p in parts) > 10.0 * abs(terms["residual"])


def test_weak_residual_linear_in_test_function():
    grid = GridSpec(nx=16, ny=16, nt=16)
    prob = linear_problem(grid)
    # perturb away from the stationary profile so residuals are O(1)
    h = grid_history(lambda t, x, y: (1.0 - y) * (1.0 + 0.3 * np.sin(np.pi * x) * t),
                     nt=16, nx=16, ny=16)
    phi1 = estimates.TestFunction(k=1, m=1, L=1.0, T=1.0)
    phi2 = estimates.TestFunction(k=2, m=2, L=1.0, T=1.0)
    a, b = 0.7, -1.3
    # the quadrature serves family members only; the combination itself is
    # integrated by the meshgrid transcription, which takes any function
    terms = estimates._weak_quadrature(h, prob, 0)
    t1, t2 = terms(phi1), terms(phi2)
    ref = _meshgrid_terms(h, prob, uniform_flow(), _combo(a, phi1, b, phi2),
                          estimates.WEAK_ALPHA, 0)
    assert list(ref) == list(t1)
    for key in ref:
        assert a * t1[key] + b * t2[key] == pytest.approx(ref[key], abs=1e-12), key
    assert abs(ref["residual"]) > 1e-3


@pytest.mark.parametrize("margin", [0, 2])
def test_weak_residual_is_the_family_max_of_the_terms(margin):
    grid = GridSpec(nx=16, ny=16, nt=16)
    prob = linear_problem(grid)
    h = grid_history(lambda t, x, y: (1.0 - y) * (1.0 + 0.3 * np.sin(np.pi * x) * t),
                     nt=16, nx=16, ny=16)
    terms = estimates._weak_quadrature(h, prob, margin)
    expected = max(abs(terms(phi)["residual"])
                   for phi in estimates.test_function_family(grid.L, grid.T))
    assert expected > 1e-3
    assert weak_residual(h, prob, margin=margin) == pytest.approx(expected, rel=1e-12)


def _meshgrid_terms(history, problem, flow, evaluate, alpha, margin):
    # the seven integrals transcribed term by term on full (t, x, y) midcell
    # meshgrids, with the margin cut from each integrand; the test function
    # and its derivatives come from evaluate (x, y, t) -> (phi, phi_t,
    # phi_x, phi_y), and the coefficients from the flow the problem was
    # built from, sampled afresh
    u, t, x, y = history.values, history.t, history.x, history.y
    dt, dx, dy = np.diff(t).mean(), np.diff(x).mean(), np.diff(y).mean()
    tc, xc, yc = (0.5 * (c[1:] + c[:-1]) for c in (t, x, y))
    inv_u = 1.0 / estimates._center8(u)
    uy_c = estimates._stagger_y(u) / dy
    # node coefficients a = yU, b = (1-y^2) dxU + (1-y) dtU/U, c = (1-y) dxU - dxP/U
    Tn, Xn, Yn = np.meshgrid(t, x, y, indexing="ij")
    U, dxU, dtU = flow.U(Xn, Tn), flow.dxU(Xn, Tn), flow.dtU(Xn, Tn)
    dxP = -(dtU + U * dxU)
    a = Yn * U
    b = (1.0 - Yn**2) * dxU + (1.0 - Yn) * dtU / U
    c = (1.0 - Yn) * dxU - dxP / U
    a_c, b_c, c_c = (estimates._center8(v) for v in (a, b, c))
    ax_c = estimates._stagger_x(a) / dx
    by_c = estimates._stagger_y(b) / dy
    T3, X3, Y3 = np.meshgrid(tc, xc, yc, indexing="ij")
    W = (1.0 - Y3) ** alpha
    Wp = -alpha * (1.0 - Y3) ** (alpha - 1.0)
    ph, ph_t, ph_x, ph_y = evaluate(X3, Y3, T3)
    m = slice(margin, -margin) if margin else slice(None)
    cell = dt * dx * dy
    XF, YF = np.meshgrid(xc, yc, indexing="ij")
    TT, XT = np.meshgrid(tc, xc, indexing="ij")
    terms = {
        "final_time": -np.sum((((1.0 - YF) ** alpha) * evaluate(XF, YF, t[-1])[0]
                               / estimates._center4(u[-1]))[m, m]) * dx * dy,
        "time_volume": np.sum((W * ph_t * inv_u)[:, m, m]) * cell,
        "diffusion": np.sum(((W * ph_y + Wp * ph) * uy_c)[:, m, m]) * cell,
        "streamwise": np.sum(((ax_c * ph + a_c * ph_x) * W * inv_u)[:, m, m]) * cell,
        "drift": np.sum(((W * b_c * ph_y + (W * by_c + Wp * b_c) * ph) * inv_u)[:, m, m]) * cell,
        "reaction": np.sum((W * ph * c_c * inv_u)[:, m, m]) * cell,
        "wall_trace": np.sum((estimates._center4(problem.v0)
                              * evaluate(XT, 0.0 * XT, TT)[0])[:, m])
        * dt * dx,
    }
    terms["residual"] = sum(terms.values())
    return terms


# the quadrature's weight exponent is fixed at estimates.WEAK_ALPHA = 2
@pytest.mark.parametrize("alpha, margin", [(2.0, 0), (2.0, 1), (2.0, 2)])
def test_weak_residual_terms_match_meshgrid_reference(alpha, margin):
    assert alpha == estimates.WEAK_ALPHA
    # the decelerating flow makes every coefficient kernel (a, dx a, b, dy b, c) nonzero
    flow = decelerating_flow()
    # the quadrature walks time in slabs: one short slab, exactly one slab,
    # one level past a slab, several slabs with a short last one
    slab = estimates.WEAK_SLAB
    for nt in (slab - 3, slab, slab + 1, 10, 2 * slab + 3):
        grid = GridSpec(nx=12, ny=12, nt=nt, L=1.0, T=0.5)
        prob = linear_problem(grid, flow)
        h = grid_history(lambda t, x, y: (1.0 - y) * (1.0 + 0.3 * np.sin(np.pi * x) * t) + 0.01,
                         nt=nt, nx=12, ny=12, T=0.5)
        terms = estimates._weak_quadrature(h, prob, margin)
        for phi in estimates.test_function_family(grid.L, grid.T):
            got = terms(phi)
            ref = _meshgrid_terms(h, prob, flow, _product(phi), alpha, margin)
            assert list(got) == list(ref)
            scale = max(abs(v) for v in ref.values())
            for key in ref:
                assert got[key] == pytest.approx(ref[key], rel=0, abs=1e-12 * scale), (nt, key)


# the family's terms on two thin histories, printed as hex bits: 12,000 time
# cells (the time contraction) and 12,000 y cells (the y contraction), both
# above the length at which OpenBLAS splits a dot product across threads
WEAK_BITS_SCRIPT = r"""
import numpy as np
from crocco_prandtl import estimates
from crocco_prandtl.crocco import CroccoData, make_problem
from crocco_prandtl.flows import decelerating_flow
from crocco_prandtl.grids import FieldHistory, GridSpec

data = CroccoData(w0=lambda x, y: np.broadcast_to(1.0 - y, np.broadcast(x, y).shape),
                  w1=lambda y, t: np.broadcast_to(1.0 - y, np.broadcast(y, t).shape),
                  v0=lambda x, t: np.full(np.broadcast(x, t).shape, -1.0))
for nt, ny in ((12000, 4), (4, 12000)):
    grid = GridSpec(nx=4, ny=ny, nt=nt, L=1.0, T=0.5)
    t, x, y = grid.t, grid.x, grid.y
    tt, xx, yy = np.meshgrid(t, x, y, indexing="ij")
    h = FieldHistory(t=t, x=x, y=y,
                     values=(1.0 - yy) * (1.0 + 0.3 * np.sin(np.pi * xx) * tt) + 0.01)
    terms = estimates._weak_quadrature(h, make_problem(decelerating_flow(), grid, data), 0)
    print(np.array([list(terms(phi).values())
                    for phi in estimates.test_function_family(1.0, 0.5)]).tobytes().hex())
"""


def test_weak_residual_bits_do_not_follow_the_blas_thread_count():
    src = str(Path(estimates.__file__).resolve().parents[1])
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", WEAK_BITS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        bits.append(proc.stdout)
    # two histories, six members, eight numbers each
    assert len(bits[0]) == 2 * (2 * 8 * 6 * 8 + 1)
    assert bits[0] == bits[1]


# the physical-variable functional of two histories on 12,000 x cells, above
# the length at which OpenBLAS splits a dot product, printed as hex bits
PHYSICAL_BITS_SCRIPT = r"""
import numpy as np
from crocco_prandtl import estimates
from crocco_prandtl.crocco import CroccoData, make_problem
from crocco_prandtl.flows import decelerating_flow
from crocco_prandtl.grids import FieldHistory, GridSpec

grid = GridSpec(nx=12000, ny=4, nt=4, L=1.0, T=0.5)
t, x, y = grid.t, grid.x, grid.y
tt, xx, yy = np.meshgrid(t, x, y, indexing="ij")
problems, histories = [], []
for amp in (0.3, 0.4):
    data = CroccoData(
        w0=lambda x, y, amp=amp: (1.0 - y) * (1.0 + amp * np.sin(np.pi * x)),
        w1=lambda y, t: np.broadcast_to(1.0 - y, np.broadcast(y, t).shape),
        v0=lambda x, t: np.full(np.broadcast(x, t).shape, -1.0))
    problems.append(make_problem(decelerating_flow(), grid, data))
    histories.append(FieldHistory(t=t, x=x, y=y, values=(1.0 - yy) * (
        1.0 + amp * np.sin(np.pi * xx) * (1.0 + tt)) + 0.01))
rep = estimates.physical_stability(*histories, *problems)
print(np.array([rep.identity_gap, rep.c6_hat]).tobytes().hex())
"""


def test_physical_stability_bits_do_not_follow_the_blas_thread_count():
    src = str(Path(estimates.__file__).resolve().parents[1])
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", PHYSICAL_BITS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        bits.append(proc.stdout)
    assert len(bits[0]) == 2 * 8 * 2 + 1
    assert bits[0] == bits[1]


def test_weak_residual_guards():
    grid = GridSpec(nx=8, ny=8, nt=4)
    prob = linear_problem(grid)
    with pytest.raises(NumericalError, match="positive"):
        weak_residual(grid_history(lambda t, x, y: 0.5 - y, nt=4, nx=8, ny=8), prob)
    with pytest.raises(ConfigError, match="margin"):
        weak_residual(grid_history(lambda t, x, y: 1.0 - y, nt=4, nx=8, ny=8), prob, margin=4)


def test_interior_margin_monotone_for_nonnegative_norms():
    # |dy u| = 1 up to the boundary, so every stripped band removes mass
    h = grid_history(lambda t, x, y: (1.0 - y) * (1.0 + 0.2 * np.sin(np.pi * x)))
    for fn in (bv_seminorm,
               lambda hh, margin: weighted_grad_norms(hh, 1.0, margin)[0],
               lambda hh, margin: weighted_grad_norms(hh, 1.0, margin)[1],
               lambda hh, margin: weighted_dyy_measure(hh, 1.0, margin)):
        full, m1, m2 = fn(h, margin=0), fn(h, margin=1), fn(h, margin=2)
        assert full > m1 > m2 > 0.0


def test_interior_margin_exact_for_compactly_supported_field():
    # bump supported on [0.25, 0.75]^2, two cells clear of the stripped band
    def bump(t, x, y):
        hx = np.maximum(0.0, 1.0 - ((x - 0.5) / 0.25) ** 2)
        hy = np.maximum(0.0, 1.0 - ((y - 0.5) / 0.25) ** 2)
        return hx * hy * (0.5 + t)

    h = grid_history(bump, nt=8, nx=16, ny=16)
    assert bv_seminorm(h, margin=2) == pytest.approx(bv_seminorm(h), rel=1e-12)
    for alpha in (0.0, 1.0):
        assert weighted_grad_norms(h, alpha, margin=2) == pytest.approx(
            weighted_grad_norms(h, alpha), rel=1e-12)
    for alpha in (1.0, 2.0):
        assert weighted_dyy_measure(h, alpha, margin=2) == pytest.approx(
            weighted_dyy_measure(h, alpha), rel=1e-12)


def test_interior_margin_too_large_rejected():
    h = grid_history(lambda t, x, y: 1.0 - y, nt=4, nx=8, ny=8)
    with pytest.raises(ConfigError):
        bv_seminorm(h, margin=4)


def test_interior_margin_is_checked_alike_by_every_functional():
    # a negative margin once returned numbers (the weak residual 4x its
    # margin-0 value, zero gradient norms) or raised numpy errors, and a
    # margin leaving one y cell overran the dyy measure's three-point stencil
    def grid(nx, ny):
        return (grid_history(lambda t, x, y: 1.0 - y, nt=4, nx=nx, ny=ny),
                linear_problem(GridSpec(nx=nx, ny=ny, nt=4)))

    functionals = (lambda hh, pp, margin: bv_seminorm(hh, margin),
                   lambda hh, pp, margin: weighted_grad_norms(hh, 1.0, margin)[0],
                   lambda hh, pp, margin: weighted_dyy_measure(hh, 1.0, margin),
                   lambda hh, pp, margin: weak_residual(hh, pp, margin))
    h, prob = grid(8, 12)
    h_low, prob_low = grid(16, 9)
    for fn in functionals:
        for margin, message in ((-1, "nonnegative"), (4, "leaves under"), (6, "leaves under")):
            with pytest.raises(ConfigError, match=message):
                fn(h, prob, margin)
        # 4 cells off each side of the 16 x 9 grid leave 8 x 1
        with pytest.raises(ConfigError, match="leaves under 1 x 2 cells"):
            fn(h_low, prob_low, 4)
        # 3 cells off each side of the 8 x 12 grid leave 2 x 6
        assert np.isfinite(fn(h, prob, 3))


# ---------------------------------------------------------------------------
# traces


def test_trace_residual_linear_profile_exact():
    grid = GridSpec(nx=16, ny=32, nt=16)
    prob = linear_problem(grid)
    h = grid_history(lambda t, x, y: 1.0 - y, nt=16, nx=16, ny=32)
    rep = trace_residual(h, prob)
    assert max(rep.initial_sup, rep.outflow_top_sup, rep.inflow_sup, rep.wall_sup) <= 1e-13
    assert rep.wall_l1 <= 1e-13


# ---------------------------------------------------------------------------
# stability functionals


def test_l1_stability_identical_runs():
    grid = GridSpec(nx=8, ny=16, nt=8)
    prob = linear_problem(grid)
    h = grid_history(lambda t, x, y: 1.0 - y, nt=8, nx=8, ny=16)
    rep = l1_stability(h, h, prob, prob)
    assert rep.exact_match
    assert rep.c6_hat == 0.0
    assert np.max(rep.lhs) == 0.0


def test_l1_stability_scaled_pair_ratio_one():
    # u_b = (1+d) u_a with matching data: LHS(0)/RHS(0) = 1 exactly
    d = 1e-3
    grid = GridSpec(nx=8, ny=16, nt=8)
    prob_a = linear_problem(grid)
    data_b = CroccoData(
        w0=lambda x, y: np.broadcast_to((1.0 + d) * (1.0 - y), np.broadcast(x, y).shape),
        w1=lambda y, t: np.broadcast_to((1.0 + d) * (1.0 - y), np.broadcast(y, t).shape),
        v0=lambda x, t: np.full(np.broadcast(x, t).shape, -1.0),
    )
    prob_b = make_problem(uniform_flow(), grid, data_b)
    h_a = grid_history(lambda t, x, y: 1.0 - y, nt=8, nx=8, ny=16)
    h_b = grid_history(lambda t, x, y: (1.0 + d) * (1.0 - y), nt=8, nx=8, ny=16)
    rep = l1_stability(h_a, h_b, prob_a, prob_b)
    assert not rep.exact_match
    assert rep.c6_hat == pytest.approx(1.0, rel=1e-12)
    assert rep.lhs[0] == pytest.approx(d * 0.5, rel=1e-12)


def test_l1_stability_symmetry():
    d = 2e-3
    grid = GridSpec(nx=8, ny=16, nt=8)
    prob_a = linear_problem(grid)
    prob_b = replace(prob_a, w0=prob_a.w0 * (1.0 + d), w1=prob_a.w1 * (1.0 + d))
    h_a = grid_history(lambda t, x, y: 1.0 - y, nt=8, nx=8, ny=16)
    h_b = grid_history(lambda t, x, y: (1.0 + d) * (1.0 - y), nt=8, nx=8, ny=16)
    fwd = l1_stability(h_a, h_b, prob_a, prob_b)
    rev = l1_stability(h_b, h_a, prob_b, prob_a)
    assert fwd.c6_hat == pytest.approx(rev.c6_hat, rel=1e-14)


def test_l1_stability_rejects_mismatched_grids():
    grid = GridSpec(nx=8, ny=16, nt=8)
    prob = linear_problem(grid)
    h_a = grid_history(lambda t, x, y: 1.0 - y, nt=8, nx=8, ny=16)
    h_b = grid_history(lambda t, x, y: 1.0 - y, nt=8, nx=8, ny=8)
    with pytest.raises(ConfigError):
        l1_stability(h_a, h_b, prob, prob)


def test_physical_stability_matches_crocco_distance():
    # constant shears: the height change of variables is exact up to the
    # truncated top cell, so the two routes agree to O(dy)
    grid = GridSpec(nx=8, ny=64, nt=8)
    prob_a = linear_problem(grid)
    prob_b = replace(prob_a, w0=prob_a.w0 * 0.0 + 2.0)
    h_a = grid_history(lambda t, x, y: np.full_like(y, 2.0), nt=8, nx=8, ny=64)
    h_b = grid_history(lambda t, x, y: np.ones_like(y), nt=8, nx=8, ny=64)
    rep = physical_stability(h_a, h_b, prob_a, prob_b)
    assert np.all(l1_stability(h_a, h_b, prob_a, prob_b).lhs == pytest.approx(1.0, rel=1e-12))
    assert rep.identity_gap <= 2.0 / 64


def test_physical_stability_linear_pair():
    grid = GridSpec(nx=8, ny=128, nt=4)
    prob_a = linear_problem(grid)
    prob_b = replace(prob_a, w0=prob_a.w0 * 0.8)
    h_a = grid_history(lambda t, x, y: 1.0 - y, nt=4, nx=8, ny=128)
    h_b = grid_history(lambda t, x, y: 0.8 * (1.0 - y), nt=4, nx=8, ny=128)
    rep = physical_stability(h_a, h_b, prob_a, prob_b)
    # both routes approximate 0.2 * integral (1-y) dy = 0.1
    assert np.all(np.abs(l1_stability(h_a, h_b, prob_a, prob_b).lhs - 0.1) < 1e-12)
    assert rep.identity_gap < 5.0 / 128


def test_both_stability_functionals_refuse_a_gap_on_identical_data():
    # one problem at two regularizations: the data distance vanishes on
    # every level while the fields differ, so neither constant is finite
    grid = GridSpec(16, 16, 16, T=ACCEL_T)
    prob = favorable_accel_problem(grid)
    h_a, h_b = solve(prob, grid, 0.1), solve(prob, grid, 1e-3)
    rep = l1_stability(h_a, h_b, prob, prob)
    assert rep.exact_match and np.max(rep.lhs) > 1e-3
    assert rep.c6_hat == float("inf")
    assert physical_stability(h_a, h_b, prob, prob).c6_hat == float("inf")
    assert physical_stability(h_a, h_a, prob, prob).c6_hat == 0.0


def test_uniformity_spread():
    assert uniformity_spread([1.0, 1.0, 1.0]) == 0.0
    assert uniformity_spread([1.0, 1.1]) == pytest.approx(0.1 / 1.05)
    assert uniformity_spread([1.0, float("nan")]) == float("inf")

from dataclasses import replace

import numpy as np
import pytest

from crocco_prandtl.crocco import CroccoData, make_problem
from crocco_prandtl.errors import ConfigError, NumericalError
from crocco_prandtl import estimates
from crocco_prandtl.estimates import (
    EstimateReport,
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


def test_test_function_family_shape_and_traces():
    fam = estimates.test_function_family(1.0, 1.0)
    assert len(fam) == 6
    x = np.linspace(0.0, 1.0, 9)
    for phi in fam:
        assert np.allclose(phi(x, 0.3, 0.0), 0.0)  # vanishes at t = 0
        assert abs(phi(0.0, 0.3, 0.5)) < 1e-15  # and on the inflow face
        assert abs(phi(1.0, 0.3, 0.5)) < 1e-15
        assert abs(phi(0.25, 0.0, 1.0)) > 0  # but not at the final time


def test_test_function_derivatives_match_finite_differences():
    phi = estimates.TestFunction(k=2, m=2, L=1.0, T=1.0)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.1, 0.9, size=(20, 3))
    h = 1e-6
    for xq, yq, tq in pts:
        assert phi.dx(xq, yq, tq) == pytest.approx(
            (phi(xq + h, yq, tq) - phi(xq - h, yq, tq)) / (2 * h), rel=1e-6, abs=1e-8)
        assert phi.dy(xq, yq, tq) == pytest.approx(
            (phi(xq, yq + h, tq) - phi(xq, yq - h, tq)) / (2 * h), rel=1e-6, abs=1e-8)
        assert phi.dt(xq, yq, tq) == pytest.approx(
            (phi(xq, yq, tq + h) - phi(xq, yq, tq - h)) / (2 * h), rel=1e-6, abs=1e-8)


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


class _ComboFunction:
    # a*phi1 + b*phi2 with the same evaluation interface as TestFunction
    def __init__(self, a, phi1, b, phi2):
        self.a, self.phi1, self.b, self.phi2 = a, phi1, b, phi2

    def __call__(self, x, y, t):
        return self.a * self.phi1(x, y, t) + self.b * self.phi2(x, y, t)

    def dt(self, x, y, t):
        return self.a * self.phi1.dt(x, y, t) + self.b * self.phi2.dt(x, y, t)

    def dx(self, x, y, t):
        return self.a * self.phi1.dx(x, y, t) + self.b * self.phi2.dx(x, y, t)

    def dy(self, x, y, t):
        return self.a * self.phi1.dy(x, y, t) + self.b * self.phi2.dy(x, y, t)


def test_weak_residual_linear_in_test_function():
    grid = GridSpec(nx=16, ny=16, nt=16)
    prob = linear_problem(grid)
    # perturb away from the stationary profile so residuals are O(1)
    h = grid_history(lambda t, x, y: (1.0 - y) * (1.0 + 0.3 * np.sin(np.pi * x) * t),
                     nt=16, nx=16, ny=16)
    phi1 = estimates.TestFunction(k=1, m=1, L=1.0, T=1.0)
    phi2 = estimates.TestFunction(k=2, m=2, L=1.0, T=1.0)
    a, b = 0.7, -1.3
    terms = estimates._weak_quadrature(h, prob, 0)
    r1 = terms(phi1)["residual"]
    r2 = terms(phi2)["residual"]
    rc = terms(_ComboFunction(a, phi1, b, phi2))["residual"]
    assert rc == pytest.approx(a * r1 + b * r2, abs=1e-12)


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


def _meshgrid_terms(history, problem, flow, phi, alpha, margin):
    # the seven integrals transcribed term by term on full (t, x, y) midcell
    # meshgrids, with the margin cut from each integrand; the coefficients
    # come from the flow the problem was built from, sampled afresh
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
    ph, ph_t = phi(X3, Y3, T3), phi.dt(X3, Y3, T3)
    ph_x, ph_y = phi.dx(X3, Y3, T3), phi.dy(X3, Y3, T3)
    m = slice(margin, -margin) if margin else slice(None)
    cell = dt * dx * dy
    XF, YF = np.meshgrid(xc, yc, indexing="ij")
    TT, XT = np.meshgrid(tc, xc, indexing="ij")
    terms = {
        "final_time": -np.sum((((1.0 - YF) ** alpha) * phi(XF, YF, t[-1])
                               / estimates._center4(u[-1]))[m, m]) * dx * dy,
        "time_volume": np.sum((W * ph_t * inv_u)[:, m, m]) * cell,
        "diffusion": np.sum(((W * ph_y + Wp * ph) * uy_c)[:, m, m]) * cell,
        "streamwise": np.sum(((ax_c * ph + a_c * ph_x) * W * inv_u)[:, m, m]) * cell,
        "drift": np.sum(((W * b_c * ph_y + (W * by_c + Wp * b_c) * ph) * inv_u)[:, m, m]) * cell,
        "reaction": np.sum((W * ph * c_c * inv_u)[:, m, m]) * cell,
        "wall_trace": np.sum((estimates._center4(problem.v0) * phi(XT, 0.0 * XT, TT))[:, m])
        * dt * dx,
    }
    terms["residual"] = sum(terms.values())
    return terms


# the quadrature's weight exponent is fixed at estimates.WEAK_ALPHA = 2
@pytest.mark.parametrize("alpha, margin", [(2.0, 0), (2.0, 1), (2.0, 2)])
def test_weak_residual_terms_match_meshgrid_reference(alpha, margin):
    assert alpha == estimates.WEAK_ALPHA
    # the decelerating flow makes every coefficient kernel (a, dx a, b, dy b, c) nonzero
    grid = GridSpec(nx=12, ny=12, nt=10, L=1.0, T=0.5)
    flow = decelerating_flow()
    prob = linear_problem(grid, flow)
    h = grid_history(lambda t, x, y: (1.0 - y) * (1.0 + 0.3 * np.sin(np.pi * x) * t) + 0.01,
                     nt=10, nx=12, ny=12, T=0.5)
    terms = estimates._weak_quadrature(h, prob, margin)
    for phi in estimates.test_function_family(grid.L, grid.T):
        got = terms(phi)
        ref = _meshgrid_terms(h, prob, flow, phi, alpha, margin)
        assert list(got) == list(ref)
        scale = max(abs(v) for v in ref.values())
        for key in ref:
            assert got[key] == pytest.approx(ref[key], rel=0, abs=1e-12 * scale), key


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
    assert np.all(rep.crocco_lhs == pytest.approx(1.0, rel=1e-12))
    assert rep.identity_gap <= 2.0 / 64


def test_physical_stability_linear_pair():
    grid = GridSpec(nx=8, ny=128, nt=4)
    prob_a = linear_problem(grid)
    prob_b = replace(prob_a, w0=prob_a.w0 * 0.8)
    h_a = grid_history(lambda t, x, y: 1.0 - y, nt=4, nx=8, ny=128)
    h_b = grid_history(lambda t, x, y: 0.8 * (1.0 - y), nt=4, nx=8, ny=128)
    rep = physical_stability(h_a, h_b, prob_a, prob_b)
    # both routes approximate 0.2 * integral (1-y) dy = 0.1
    assert np.all(np.abs(rep.crocco_lhs - 0.1) < 1e-12)
    assert rep.identity_gap < 5.0 / 128


# ---------------------------------------------------------------------------
# report plumbing


def test_estimate_report_text_and_csv():
    rep = EstimateReport()
    rep.add("c_comparison", 1.25, grid="64x64x64", eps="0.001")
    rep.verdict("comparison", True)
    rep.verdict("bv", False)
    text = rep.to_text()
    assert "c_comparison = 1.25" in text
    assert "verdict = pass [comparison]" in text
    assert "verdict = fail [bv]" in text
    assert not rep.all_pass
    rows = list(rep.csv_rows())
    assert rows[0] == "key,value,grid,eps,domain"
    assert rows[1].startswith("c_comparison,1.25,64x64x64,0.001")


def test_uniformity_spread():
    assert uniformity_spread([1.0, 1.0, 1.0]) == 0.0
    assert uniformity_spread([1.0, 1.1]) == pytest.approx(0.1 / 1.05)
    assert uniformity_spread([1.0, float("nan")]) == float("inf")

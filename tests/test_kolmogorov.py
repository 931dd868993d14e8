"""Tests for the kinetic model kernel, cutoff geometry, and measured
functionals.  Expected values are frozen from closed forms where available
and from converged reference computations otherwise."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import astuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import solve_banded

from crocco_prandtl import kolmogorov as ko
from crocco_prandtl import parallel
from crocco_prandtl.errors import ConfigError
from crocco_prandtl.grids import FieldHistory


def affine_field(a, b, c):
    """a + b t + c y on two nodes per axis, t in [-1, 0], x in [-1, 1] and
    y in [-5, 5], which hold every query of the tests below; trilinear
    sampling reproduces it to rounding, and a constant exactly."""
    t, y = np.array([-1.0, 0.0]), np.array([-5.0, 5.0])
    return FieldHistory(t=t, x=[-1.0, 1.0], y=y,
                        values=a + b * t[:, None, None] + c * y + np.zeros((2, 2, 2)))


def const_field(c):
    return affine_field(c, 0.0, 0.0)


# ---------------------------------------------------------------------------
# kernel


def test_kernel_point_value():
    # closed form sqrt(3)/(2 pi) at unit time gap over the pole
    assert ko.gamma0((0.0, 0.0, 1.0)) == pytest.approx(0.27566444771089604, rel=1e-14)
    assert ko.gamma0((0.0, 0.0, 1.0)) == pytest.approx(math.sqrt(3.0) / (2.0 * math.pi), rel=1e-15)


def test_kernel_dead_branch():
    assert ko.gamma0((0.3, -0.2, -0.5)) == 0.0
    assert ko.gamma0((0.0, 0.0, 0.0)) == 0.0
    vals = ko.gamma0((np.zeros(3), np.zeros(3), np.array([-1.0, 0.0, 1.0])))
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] > 0.0


def test_kernel_decays_in_each_coordinate():
    base = ko.gamma0((0.0, 0.0, 0.5))
    assert ko.gamma0((0.5, 0.0, 0.5)) < base
    assert ko.gamma0((0.0, 0.9, 0.5)) < base


def test_kernel_mass():
    for s in (0.1, 1.0):
        assert ko.normalization(s) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ConfigError):
        ko.normalization(0.0)


def test_dilation_identity_seeded():
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.2, 1.5))
        mu = rng.uniform(0.5, 2.0)
        assert ko.dilation_defect(z, mu) <= 1e-12


def test_dilation_validation():
    with pytest.raises(ConfigError):
        ko.dilation_defect((0.0, 0.0, 1.0), -1.0)
    with pytest.raises(ConfigError):
        ko.dilation_defect((0.0, 0.0, -1.0), 1.5)


def test_kernel_residual_small_and_second_order():
    z = (0.1, 0.2, 1.0)
    r1 = abs(ko.l0_residual(z, h=1e-3))
    r2 = abs(ko.l0_residual(z, h=5e-4))
    assert r1 <= 1e-4
    assert math.log(r1 / r2, 2.0) >= 1.9


def test_kernel_residual_branches():
    assert ko.l0_residual((0.1, 0.2, -1.0), h=1e-3) == 0.0
    with pytest.raises(ConfigError):
        ko.l0_residual((0.1, 0.2, 0.005), h=1e-3)
    with pytest.raises(ConfigError):
        ko.l0_residual((0.1, 0.2, 1.0), h=0.0)


# ---------------------------------------------------------------------------
# boxes


def test_box_lattice():
    xs, ys, ts = ko.Box(0.5).lattice(5)
    assert xs[0] == -0.125 and xs[-1] == 0.125
    assert ys[0] == -0.5 and ts[0] == -0.25 and ts[-1] == 0.0
    assert xs.shape == ys.shape == ts.shape == (5,)


def test_box_validation():
    with pytest.raises(ConfigError):
        ko.Box(0.0)
    with pytest.raises(ConfigError):
        ko.Box(2.0)
    # the cutoff slab's radius at the largest admissible r
    assert ko.Box(ko.SLAB_BETA * (1 / ko.SLAB_BETA)).r == 1.0


# ---------------------------------------------------------------------------
# cutoff geometry


def test_cutoff_spec_validation():
    with pytest.raises(ConfigError):
        ko.CutoffSpec(r=0.0, theta=0.01)
    with pytest.raises(ConfigError):
        ko.CutoffSpec(r=1.0, theta=0.1)   # theta must stay below 2^-6
    with pytest.raises(ConfigError):
        ko.CutoffSpec(r=1.0, theta=0.0)


def test_chi_profile():
    cut = ko.CutoffSpec(r=1.0, theta=0.01)
    s = np.linspace(0.0, 1.2, 241)
    vals = cut.chi(s)
    assert vals[0] == 1.0
    assert cut.chi(cut.ramp_start) == 1.0
    assert cut.chi(1.0) == 0.0 and cut.chi(1.2) == 0.0
    assert np.all(np.diff(vals) <= 1e-15)
    d = cut.chi_prime(s)
    assert np.all(d <= 0.0)
    # the quintic ramp's slope peaks at 15/8 over the ramp width
    assert np.max(np.abs(d)) <= 2.0 / cut.ramp_width


def test_chi_derivatives_match_finite_differences():
    cut = ko.CutoffSpec(r=1.0, theta=0.01)
    h = 1e-6
    for s0 in (0.6, 0.8, 0.95):
        fd1 = (cut.chi(s0 + h) - cut.chi(s0 - h)) / (2 * h)
        assert cut.chi_prime(s0) == pytest.approx(fd1, rel=1e-6, abs=1e-9)


def test_phi_factor_derivatives_match_finite_differences():
    cut = ko.CutoffSpec(r=1.0, theta=0.01)
    h = 1e-5

    # points on the ramp of the space-time factor
    for x0, t0 in ((5.0, -0.05), (-8.0, -0.1), (0.0, -0.12)):
        # y0 = 0 isolates the time derivative; y0 != 0 brings in y dx
        for y0 in (0.0, 3.0, -40.0):
            fd = (cut.phi0(x0 + y0 * h, t0 + h) - cut.phi0(x0 - y0 * h, t0 - h)) / (2 * h)
            assert cut.transport(x0, y0, t0) == pytest.approx(fd, rel=1e-5, abs=1e-10)
            assert abs(fd) > 1e-4


def test_phi_plateau_and_support_spot_values():
    cut = ko.CutoffSpec(r=1.0, theta=0.01)
    assert cut.phi(0.0, 0.0, 0.0) == 1.0
    assert cut.phi(0.0, 0.0, -1e-4) == 1.0
    # outside the wide box in each coordinate
    assert cut.phi(120.0, 0.0, -0.5) == 0.0
    assert cut.phi(0.0, 120.0, -0.5) == 0.0
    assert cut.phi(0.0, 0.0, -1.1) == 0.0


def test_verify_lemma_all_pass():
    for r in (1.0, 0.5):
        checks = ko.verify_lemma(ko.CutoffSpec(r=r, theta=0.01))
        assert all(c.passed for c in checks.values()), checks
        assert list(checks) == [
            "transport_sign", "plateau", "support", "slab_support", "strict_band"]


# ---------------------------------------------------------------------------
# logarithmic transforms


def test_log_subsolution_ratio_variant():
    u = np.array([0.0, 0.005, 0.01, 0.05, 1.0])
    w, bound = ko.log_subsolution(u, 0.01, "ratio")
    assert bound == pytest.approx(math.log(100.0) / 8.0, rel=1e-15)
    # the bound is attained exactly at u = 0
    assert w[0] == pytest.approx(bound, rel=1e-15)
    # at and above the level the transform is silent
    assert np.all(w[2:] == 0.0)
    assert np.all((w >= 0.0) & (w <= bound))


def test_log_subsolution_reciprocal_variant():
    u = np.array([0.0, 0.01, 0.9])
    w, bound = ko.log_subsolution(u, 0.01, "reciprocal")
    assert bound == pytest.approx(9.0 / 8.0 * math.log(100.0), rel=1e-15)
    assert w[0] == pytest.approx(bound, rel=1e-14)
    assert np.all(np.diff(w) <= 0.0)


def test_log_subsolution_quarter_case():
    w, _ = ko.log_subsolution(np.array([0.25]), 0.25, "ratio")
    assert w[0] == 0.0


def test_log_subsolution_validation():
    with pytest.raises(ConfigError):
        ko.log_subsolution(np.array([0.1]), 0.5, "ratio")
    with pytest.raises(ConfigError):
        ko.log_subsolution(np.array([0.1]), 0.0, "ratio")
    with pytest.raises(ConfigError):
        ko.log_subsolution(np.array([-1e-3]), 0.01, "ratio")
    with pytest.raises(ConfigError):
        ko.log_subsolution(np.array([0.1]), 0.01, "squared")


@pytest.mark.parametrize("variant", ko.LOG_VARIANTS)
@pytest.mark.parametrize("wrap", [False, True], ids=["ndarray", "history"])
def test_log_subsolution_fills_one_array_and_leaves_its_input(wrap, variant):
    h = 0.01
    u = np.random.default_rng(5).uniform(-1e-10, 0.05, (21, 30, 40))
    u[0, 0, :3] = 0.0
    reference = np.maximum(np.log((h if variant == "ratio" else 1.0)
                                  / (h ** (9.0 / 8.0) + np.maximum(u, 0.0))), 0.0)
    before = u.copy()
    if wrap:
        axes = [np.linspace(0.0, 1.0, n) for n in u.shape]
        u = FieldHistory(t=axes[0], x=axes[1], y=axes[2], values=u)
        assert not u.values.flags.writeable
    tracemalloc.start()
    try:
        w, _ = ko.log_subsolution(u.values if wrap else u, h, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(u.values if wrap else u, before)
    assert np.array_equal(w, reference)
    assert peak <= 1.1 * w.nbytes


def test_log_field_wrapper():
    t = np.linspace(-1.0, 0.0, 4)
    x = np.linspace(-1.0, 1.0, 5)
    y = np.linspace(-1.0, 1.0, 6)
    hist = FieldHistory(t=t, x=x, y=y, values=np.full((4, 5, 6), 0.5))
    out = ko.log_field(hist, 0.01)
    assert out.values.shape == hist.values.shape
    expected = math.log(1.0 / (0.5 + 0.01**1.125))
    assert out.values[0, 0, 0] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# mean value functional


def point_value(w_field, cut, z):
    """The mean-value identity's drift term at the single point z = (x, y, t)."""
    x, y, t = z
    level = ko._Level(cut, t, np.array([x]), np.array([y]))
    return float(level.drift([level.slab(w_field)])[0, 0, 0])


def test_mean_value_zero_field():
    cut = ko.CutoffSpec(r=1.0, theta=0.01)
    assert point_value(const_field(0.0), cut, (0.0, 0.0, 0.0)) == 0.0


def test_mean_value_reproduces_constants():
    # frozen reference: quadrature reproduces a constant to 4.6e-4 relative
    cut = ko.CutoffSpec(r=1.0, theta=0.01)
    rep = ko.mean_value([const_field(2.5)], cut, nz=3)
    assert rep.i0 == pytest.approx(2.5, rel=5e-3)


def test_mean_value_reproduces_a_solution():
    # w = 1 + y/2 solves the model equation; the identity returns w(z)
    cut = ko.CutoffSpec(r=1.0, theta=0.01)
    lin = affine_field(1.0, 0.0, 0.5)
    assert point_value(lin, cut, (0.0, 0.0, 0.0)) == pytest.approx(1.0, rel=5e-3)


def test_mean_value_refuses_an_empty_lattice():
    cut = ko.CutoffSpec(r=1.0, theta=0.01)
    for nz in (0, -1):
        with pytest.raises(ConfigError, match="at least one node"):
            ko.mean_value([const_field(1.0)], cut, nz=nz)
    assert ko.mean_value([const_field(1.0)], cut, nz=1).values.shape == (1,)


def reference_mean_value_at(w_field, cut, z, n_tau=160, n_eta=16, n_xi=8):
    """The per-point quadrature of the mean-value identity, sampled
    trilinearly through w_field.sample, term by term as it stood before the
    per-time-level kernel: (drift, band), where the drift term is the
    reference the kernel must reproduce and the wall-normal band term,
    phi0 d/dy phi1 against the kernel's eta and xi derivatives, is the one
    the kernel leaves out."""
    x, y, t = z
    r, theta = cut.r, cut.theta
    un, uw = np.polynomial.hermite.hermgauss(n_eta)
    vn, vw = np.polynomial.hermite.hermgauss(n_xi)
    pad = 0.02 * r**2
    lo = max(-(r**2), -(r**2) / 6.0 - pad)
    hi = min(t, -(theta * r**2) / 6.0 + pad)
    if hi <= lo:
        return 0.0, 0.0
    dtau = (hi - lo) / n_tau
    tau = lo + (np.arange(n_tau) + 0.5) * dtau
    sq = (t - tau)[:, None, None]
    eta = y + np.sqrt(4.0 * sq) * un[None, :, None]
    X = np.sqrt(sq**3 / 3.0) * vn[None, None, :]
    xi = x - 0.5 * sq * (y + eta) - X
    tau3 = tau[:, None, None]
    w = w_field.sample(tau3, xi, eta)
    A = theta**2 * xi**2 - 6.0 * tau3 * r**4
    ramp_band = (A > theta * r**6) & (A < r**6)
    A_safe = np.where(ramp_band, A, 1.0)
    ramp = np.where(ramp_band, cut.chi_prime(A_safe ** (1.0 / 6.0))
                    / (6.0 * A_safe ** (5.0 / 6.0)), 0.0)
    drift = cut.phi1(eta) * (ramp * (-6.0 * r**4) + eta * ramp * 2.0 * theta**2 * xi)
    phi1_dy = cut.chi_prime(theta * np.abs(eta)) * theta * np.sign(eta)
    eta_d = cut.chi(np.maximum(A, 0.0) ** (1.0 / 6.0)) * phi1_dy
    kernel_ratio = (y - eta) / (2.0 * sq) + 3.0 * X / sq**2
    quad = np.einsum("j,i,kji->k", uw, vw, drift * w) / math.pi
    quad_band = np.einsum("j,i,kji->k", uw, vw, eta_d * kernel_ratio * w) / math.pi
    return float(np.sum(quad) * dtau), float(np.sum(quad_band) * dtau)


def coarse_random_history(seed=11):
    # nine time nodes 0.0375 apart: the tau nodes of r = 1 span about five
    # time cells; random nodal values expose any corner or weight mix-up.
    # The axes hold every query, off-lattice points included (y down to -84)
    rng = np.random.default_rng(seed)
    t = np.linspace(-0.3, 0.0, 9)
    x = np.linspace(-16.0, 16.0, 33)
    y = np.linspace(-90.0, 90.0, 73)
    return FieldHistory(t=t, x=x, y=y, values=rng.uniform(0.5, 1.5, (t.size, x.size, y.size)))


@pytest.mark.parametrize("field", [coarse_random_history()], ids=["history"])
def test_mean_value_kernel_matches_per_point_reference(field):
    cut = ko.CutoffSpec(r=1.0, theta=0.01)
    rep = ko.mean_value([field], cut, nz=3)
    # mean_value walks the past-box lattice with t slowest, then x, then y
    xs, ys, ts = ko.Box(cut.theta * cut.r).lattice(3)
    T, X, Y = np.meshgrid(ts, xs, ys, indexing="ij")
    ref = np.array([reference_mean_value_at(field, cut, z)
                    for z in zip(X.ravel(), Y.ravel(), T.ravel())])
    scale = np.max(np.abs(ref[:, 0]))
    assert scale > 0.5
    assert np.max(np.abs(rep.values - ref[:, 0])) <= 1e-13 * scale
    assert rep.i0 == np.max(rep.values)
    # off the lattice, including points whose eta nodes reach the far band
    # |eta| > theta^(-5/6) r, where the band term the kernel leaves out is
    # nonzero
    for z in ((0.3, -0.004, -0.002), (0.5, 60.0, -0.05), (0.0, -80.0, 0.0)):
        drift, band = reference_mean_value_at(field, cut, z)
        assert abs(point_value(field, cut, z) - drift) <= 1e-13 * max(scale, abs(drift))
        if abs(z[1]) > 32.0:
            assert abs(band) > 1e-6


# r in {0.008, 0.5, 1} for theta = 0.01 and 0.015, and r in {0.8 theta, 0.5,
# 1} for theta just below THETA_MAX = 2^-6; r = 0.008 with theta = 0.01 is
# oscillation_lab's cutoff, r = 0.8 theta
BAND_CASES = [(r, theta) for theta in (0.01, 0.015) for r in (0.8 * 0.01, 0.5, 1.0)]
BAND_CASES += [(r, 0.999 * 2.0**-6) for r in (0.8 * 0.999 * 2.0**-6, 0.5, 1.0)]


@pytest.mark.parametrize("r, theta", BAND_CASES)
def test_mean_value_band_term_vanishes_on_admissible_lattices(r, theta):
    # the premise of forming the drift term alone: eta nodes stay within
    # |y| + 4.1 r of the lattice, below the far band's theta^(-5/6) r > 32 r,
    # so the reference's band term is exactly 0 at every lattice point.  The
    # eta nodes reach farthest from the corners |y| = theta r, t = 0, which
    # every lattice holds; oscillation_lab's own nz = 9 lattice is walked whole
    cut = ko.CutoffSpec(r=r, theta=theta)
    field = affine_field(1.0, 1.0, 1.0)
    nz = 9 if (r, theta) == (0.8 * 0.01, 0.01) else 3
    rep = ko.mean_value([field], cut, nz=nz)
    xs, ys, ts = ko.Box(cut.theta * cut.r).lattice(nz)
    T, X, Y = np.meshgrid(ts, xs, ys, indexing="ij")
    ref = np.array([reference_mean_value_at(field, cut, z)
                    for z in zip(X.ravel(), Y.ravel(), T.ravel())])
    assert np.all(ref[:, 1] == 0.0)
    assert np.max(np.abs(rep.values - ref[:, 0])) <= 1e-13 * np.max(np.abs(ref[:, 0]))
    assert rep.i0 > 0.5


# one mean_value of coarse_random_history, its values printed as hex bits
MEAN_VALUE_BITS_SCRIPT = r"""
import numpy as np
from crocco_prandtl import kolmogorov as ko
from crocco_prandtl.grids import FieldHistory

rng = np.random.default_rng(11)
t = np.linspace(-0.3, 0.0, 9)
x = np.linspace(-16.0, 16.0, 33)
y = np.linspace(-90.0, 90.0, 73)
field = FieldHistory(t=t, x=x, y=y, values=rng.uniform(0.5, 1.5, (t.size, x.size, y.size)))
print(ko.mean_value([field], ko.CutoffSpec(r=1.0, theta=0.01), nz=3).values.tobytes().hex())
"""


def test_mean_value_bits_do_not_follow_the_blas_thread_count():
    # 20,480 quadrature nodes per point: above the size at which OpenBLAS
    # splits a dot product across its threads, so a BLAS reduction would
    # sum in an order set by OPENBLAS_NUM_THREADS
    src = str(Path(ko.__file__).resolve().parents[1])
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", MEAN_VALUE_BITS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        bits.append(proc.stdout)
    assert len(bits[0]) == 2 * 8 * 27 + 1
    assert bits[0] == bits[1]


def test_mean_value_bits_do_not_follow_the_core_count():
    cut = ko.CutoffSpec(r=1.0, theta=0.01)
    reports = []
    for cores in (1, 2):
        with mock.patch.object(parallel, "_usable_cores", return_value=cores):
            reports.append(ko.mean_value([coarse_random_history()], cut, nz=3))
    serial, forked = reports
    assert serial.values.tobytes() == forked.values.tobytes()
    assert serial.i0 == forked.i0


@pytest.mark.parametrize("fields", [[coarse_random_history(seed) for seed in (11, 12, 13)]],
                         ids=["history"])
def test_a_pass_gives_each_field_its_one_field_values(fields):
    # the pass shares each point's cutoff transport and cell lookups; each
    # field keeps its own operands and its own np.sum, so it reads the bits
    # of a one-field call
    cut = ko.CutoffSpec(r=1.0, theta=0.01)
    together = ko.mean_value(fields, cut, nz=3)
    assert together.values.shape == (3 * 27,)
    for k, field in enumerate(fields):
        alone = ko.mean_value([field], cut, nz=3)
        assert together.values[27 * k:27 * (k + 1)].tobytes() == alone.values.tobytes()
        assert together.sups[k] == alone.i0 == np.max(alone.values)
    assert len(set(together.sups)) == 3
    assert together.i0 == np.max(together.sups)
    with pytest.raises(ConfigError, match="at least one field"):
        ko.mean_value([], cut, nz=3)


PINCHED = (("constant", 2.0, 0), ("checkerboard", 2.0, 0), ("seeded-random", 2.0, 1))


def _pinched_fields(made=None):
    """Log transforms of three small pinched model runs, made one at a time;
    made(), when given, is called before each."""
    for kind, lam, seed in PINCHED:
        if made is not None:
            made()
        hist = ko.solve_model(
            ko.model_scenarios(kind, lam=lam, seed=seed), 16, 48, 12,
            u0=lambda xq, yq: 0.75 * (1.0 - np.cos(np.pi * xq) * np.cos(np.pi * yq / 2.0)))
        yield ko.log_field(hist, h=0.01)
        del hist


@pytest.mark.parametrize("functional", ["mean_value", "weak_poincare_ratio"])
def test_a_pass_keeps_no_field_alive(functional):
    # each field is reduced to what the functional reads and dropped as the
    # pass takes it: dead before the next is made, and all dead at the end
    cut = ko.CutoffSpec(r=0.008, theta=0.01)
    refs = []

    def all_dead():
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    def fields():
        for field in _pinched_fields(made=all_dead):
            refs.append(weakref.ref(field))
            yield field
            del field
    if functional == "mean_value":
        reports = ko.mean_value(fields(), cut, nz=3).sups
    else:
        reports = ko.weak_poincare_ratio(fields(), cut)
    assert len(reports) == len(refs) == 3
    all_dead()


# ---------------------------------------------------------------------------
# weak Poincare functional


def test_weak_poincare_requires_small_r():
    with pytest.raises(ConfigError):
        ko.weak_poincare_ratio([const_field(0.0)], ko.CutoffSpec(r=0.02, theta=0.01))


def test_weak_poincare_vacuous_on_zero_field():
    [rep] = ko.weak_poincare_ratio([const_field(0.0)], ko.CutoffSpec(r=0.008, theta=0.01))
    # a vacuous pass: both sides vanish, so the ratio is 0, not a violation's inf
    assert rep.lhs <= ko.POINCARE_TINY and rep.rhs <= ko.POINCARE_TINY and rep.ratio == 0.0


def test_weak_poincare_subsolution_is_slack():
    # log transform of a positive rough-coefficient solution: the excess
    # over the past mean value is negligible against the gradient mass
    coef = ko.model_scenarios("checkerboard", lam=2.0)
    hist = ko.solve_model(
        coef, *ko.MODEL_GRID,
        u0=lambda xq, yq: 0.75 * (1.0 - np.cos(np.pi * xq) * np.cos(np.pi * yq / 2.0)))
    V = ko.log_field(hist, h=0.01)
    [rep] = ko.weak_poincare_ratio([V], ko.CutoffSpec(r=0.008, theta=0.01))
    assert rep.ratio < float("inf")
    assert rep.i0 > 0.1          # the functional is genuinely active
    assert rep.rhs > 0.0         # gradient mass present
    assert rep.ratio <= 1e-6     # inequality holds with large slack


def test_weak_poincare_pass_equals_single_calls():
    cut = ko.CutoffSpec(r=0.008, theta=0.01)
    together = ko.weak_poincare_ratio(_pinched_fields(), cut)
    alone = [ko.weak_poincare_ratio([field], cut)[0] for field in _pinched_fields()]
    assert [astuple(rep) for rep in together] == [astuple(rep) for rep in alone]
    # three distinct fields, each with a sup, a gradient mass and a ratio
    assert len({rep.i0 for rep in together}) == 3
    assert all(rep.i0 > 0.0 and rep.rhs > 0.0 and 0.0 <= rep.ratio < np.inf
               for rep in together)


# ---------------------------------------------------------------------------
# density estimate


def test_density_constant_one_field():
    rep = ko.density_ratio(const_field(1.0), 0.01)
    assert rep.hypothesis_fraction >= 0.5
    assert rep.ratio == 1.0 >= ko.DENSITY_FLOOR
    assert all(v == 1.0 for v in rep.h_certificate.values())


def test_density_zero_field_gives_no_verdict():
    rep = ko.density_ratio(const_field(0.0), 0.01, normalize=True)
    assert rep.hypothesis_fraction < 0.5
    assert np.isnan(rep.ratio) and rep.rows == [] and rep.h_certificate == {}


def test_density_on_model_run():
    hist = ko.solve_model(ko.model_scenarios("checkerboard", lam=2.0), *ko.MODEL_GRID)
    rep = ko.density_ratio(hist, 0.01, normalize=True)
    assert rep.hypothesis_fraction >= 0.5
    assert rep.ratio >= ko.DENSITY_FLOOR
    for level, val in rep.h_certificate.items():
        assert val >= ko.DENSITY_FLOOR, level
    assert all(ratio >= ko.DENSITY_FLOOR for _, _, ratio in rep.rows)


# ---------------------------------------------------------------------------
# oscillation decay


def test_oscillation_linear_control():
    # 1 - y is linear in y only: both oscillations are the lattice y spans
    rep = ko.oscillation_table(affine_field(1.0, 0.0, -1.0))
    for row in rep.rows:
        assert row.ratio == pytest.approx(0.3, rel=1e-12)
        assert row.osc_big == pytest.approx(2.0 * row.r, rel=1e-12)
    assert rep.beta_bar == pytest.approx(0.3, rel=1e-12)
    assert rep.alpha_holder == pytest.approx(1.0, rel=1e-9)


def test_oscillation_flat_field():
    rep = ko.oscillation_table(const_field(3.0))
    assert all(row.ratio == 0.0 for row in rep.rows)
    assert rep.beta_bar == 0.0


def test_oscillation_beta_bar_keeps_a_nan_row():
    # a builtin max skips a NaN that is not first, so beta_bar once read the
    # r = 0.1 row's 0.288 and the decay check passed on a broken run
    nx, ny, nt = ko.MODEL_GRID
    t, x = ko.model_axes(nx, nt, ko.MODEL_T0)
    x, y = np.append(x, 1.0), np.linspace(-1.0, 1.0, ny + 1)
    T, X, Y = np.meshgrid(t, x, y, indexing="ij")
    values = T + X + Y
    values[298, 24, 113] = np.nan  # (t, x, y) = (-0.005, 0, 0.177): the r = 0.2 row's
    rep = ko.oscillation_table(FieldHistory(t=t, x=x, y=y, values=values))
    assert [math.isnan(row.ratio) for row in rep.rows] == [False, True, False]
    assert math.isnan(rep.beta_bar)
    # the NaN oscillation reaches the Hölder fit too, which once dropped it
    # and read 1.114
    assert math.isnan(rep.alpha_holder)


def test_oscillation_guards():
    # the r = 0.4 past box reaches t = -0.16, before this history starts
    short = ko.solve_model(ko.model_scenarios("constant"), 8, 32, 8, t0=-0.1)
    with pytest.raises(ConfigError, match="outside the axis"):
        ko.oscillation_table(short)


def test_oscillation_decays_on_model_run():
    hist = ko.solve_model(ko.model_scenarios("checkerboard", lam=2.0), *ko.MODEL_GRID)
    rep = ko.oscillation_table(hist)
    assert 0.0 < rep.beta_bar < 1.0
    assert rep.alpha_holder > 0.0


# ---------------------------------------------------------------------------
# rough-coefficient model runs


def test_model_scenario_constant():
    coef = ko.model_scenarios("constant")
    assert coef.sample(0.3, -0.2) == 1.0


def test_model_scenario_checkerboard():
    coef = ko.model_scenarios("checkerboard", lam=2.0)
    X, Y = np.meshgrid(np.linspace(-0.99, 0.99, 9), np.linspace(-0.99, 0.99, 9),
                       indexing="ij")
    vals = np.unique(np.round(coef.sample(X, Y), 12))
    assert set(vals) == {0.5, 2.0}


def test_model_scenario_seeded_random():
    a1 = ko.model_scenarios("seeded-random", lam=4.0, seed=3)
    a2 = ko.model_scenarios("seeded-random", lam=4.0, seed=3)
    a3 = ko.model_scenarios("seeded-random", lam=4.0, seed=4)
    X, Y = np.meshgrid(np.linspace(-1, 1, 13), np.linspace(-1, 1, 13), indexing="ij")
    assert np.array_equal(a1.sample(X, Y), a2.sample(X, Y))
    assert not np.array_equal(a1.sample(X, Y), a3.sample(X, Y))
    assert np.all(a1.sample(X, Y) >= 0.25 - 1e-12)
    assert np.all(a1.sample(X, Y) <= 4.0 + 1e-12)


def test_model_scenario_validation():
    with pytest.raises(ConfigError):
        ko.model_scenarios("striped")
    with pytest.raises(ConfigError):
        ko.model_scenarios("checkerboard", lam=1.0)


def test_solve_model_cfl_guard():
    with pytest.raises(ConfigError):
        ko.solve_model(ko.model_scenarios("constant"), nx=48, ny=32, nt=10)


def test_solve_model_preserves_constants():
    hist = ko.solve_model(ko.model_scenarios("checkerboard", lam=2.0),
                          nx=16, ny=48, nt=60, u0=lambda xq, yq: np.ones_like(xq))
    assert np.max(np.abs(hist.values - 1.0)) <= 1e-12


def test_solve_model_steady_linear_profile():
    # u = y is steady for unit coefficient: no diffusion flux divergence,
    # no streamwise variation
    hist = ko.solve_model(ko.model_scenarios("constant"),
                          nx=16, ny=48, nt=60, u0=lambda xq, yq: yq)
    XX, YY = np.meshgrid(hist.x, hist.y, indexing="ij")
    assert np.max(np.abs(hist.values[-1] - YY)) <= 1e-11


def _layered(shift):
    """a(y) = 2, 1/2, 2, 1/2 on the cells of height 0.5 from y = -1, the
    cells moved up by shift."""
    def a(x, y):
        layer = np.floor((np.asarray(y, float) - shift + 1.0) / 0.5)
        return np.where(layer % 2 == 0, 2.0, 0.5) + 0.0 * np.asarray(x, float)
    return ko.RoughCoefficient(a=a, lam=2.0, name="layered")


def _layered_stationary(xq, yq):
    # the flux a u' = 1: slopes 1/2, 2, 1/2, 2 from u(-1) = 0, kinks at the
    # cell edges y = -0.5, 0 and 0.5
    return np.interp(yq, [-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.25, 1.25, 1.5, 2.5]) + 0.0 * xq


def test_solve_model_holds_the_layered_stationary_state():
    # an exact oracle for the model march: the piecewise linear state of
    # constant flux is stationary and independent of x, so the march, with
    # its frozen initial traces, keeps it to rounding (2.7e-15 measured)
    nx, ny, nt = 24, 96, 150
    hist = ko.solve_model(_layered(0.0), nx, ny, nt, u0=_layered_stationary)
    XX, YY = np.meshgrid(hist.x, hist.y, indexing="ij")
    assert np.max(np.abs(hist.values - _layered_stationary(XX, YY))) <= 1e-12
    # the same coefficient moved down by dy/2, so its jumps sit on the half
    # nodes below the kinks, where it is sampled: the cell below a kink reads
    # the coefficient above it and the state drifts (3.1e-2 measured)
    moved = ko.solve_model(_layered(-1.0 / ny), nx, ny, nt, u0=_layered_stationary)
    assert np.max(np.abs(moved.values - _layered_stationary(XX, YY))) >= 1e-3


@pytest.mark.parametrize("ny", [191, 192])
def test_upwind_rhs_matches_the_mask_and_roll_step(ny):
    # the march's transport step as it stood with a boolean mask and two
    # np.roll copies, against the sliced step; y holds a node at 0 for ny even
    nx, dt = 48, 0.0025
    y = np.linspace(-1.0, 1.0, ny + 1)
    dx = 2.0 / nx
    u = np.random.default_rng(ny).uniform(-1.0, 1.0, (nx, ny + 1))
    speed_pos = y > 0
    dudx = np.empty_like(u)
    dudx[:, speed_pos] = (u[:, speed_pos] - np.roll(u, 1, axis=0)[:, speed_pos]) / dx
    dudx[:, ~speed_pos] = (np.roll(u, -1, axis=0)[:, ~speed_pos] - u[:, ~speed_pos]) / dx
    expected = u - dt * y[None, :] * dudx
    out = np.empty_like(u)
    ko._upwind_rhs(u, np.searchsorted(y, 0.0, side="right"), dx, dt * y[None, :], out)
    assert np.array_equal(out, expected)
    assert out.tobytes() == expected.tobytes()


def test_solve_model_range_and_wrap():
    hist = ko.solve_model(ko.model_scenarios("seeded-random", lam=2.0, seed=1),
                          nx=24, ny=96, nt=150)
    assert hist.values.min() >= 0.5 - 1e-9
    assert hist.values.max() <= 1.5 + 1e-9
    assert np.array_equal(hist.values[:, 0, :], hist.values[:, -1, :])
    assert hist.x[-1] == 1.0


def test_model_factored_solve_matches_banded_oracle():
    rng = np.random.default_rng(3)
    m, n = 5, 17
    diag = 2.0 + rng.uniform(0.5, 1.0, (m, n))
    sub = rng.uniform(-0.4, 0.4, (m, n))
    sup = rng.uniform(-0.4, 0.4, (m, n))
    rhs = rng.normal(size=(m, n))
    got = ko._factor_columns(sub, diag, sup)(rhs)
    for k in range(m):
        ab = np.zeros((3, n))
        ab[0, 1:] = sup[k, :-1]
        ab[1] = diag[k]
        ab[2, :-1] = sub[k, 1:]
        expected = solve_banded((1, 1), ab, rhs[k])
        assert np.max(np.abs(got[k] - expected)) < 1e-12


def test_solve_model_validation():
    with pytest.raises(ConfigError):
        ko.solve_model(ko.model_scenarios("constant"), *ko.MODEL_GRID, t0=0.5)


def test_kernel_reproduction_accuracy():
    # frozen reference: 2.9e-2 relative sup error at the default grid
    out = ko.kernel_reproduction(128, 128)
    assert out["rel_error"] <= 5e-2
    finer = ko.kernel_reproduction(nx=192, nt=256)
    assert finer["rel_error"] < out["rel_error"]


def test_rough_coefficient_validation():
    with pytest.raises(ConfigError):
        ko.RoughCoefficient(a=lambda x, y: np.ones_like(x), lam=0.5)

import numpy as np
import pytest

from crocco_prandtl.crocco import CroccoData, make_problem, pressure_gradient, validate
from crocco_prandtl.errors import DataError
from crocco_prandtl.flows import (ExternalFlow, accelerating_flow, decelerating_flow,
                                  uniform_flow)
from crocco_prandtl.grids import GridSpec
from crocco_prandtl.solver import cfl_margins


def linear_data(scale=1.0):
    return CroccoData(
        w0=lambda x, y: scale * (1.0 - y) + 0.0 * x,
        w1=lambda y, t: scale * (1.0 - y) + 0.0 * t,
        v0=lambda x, t: -1.0 + 0.0 * x * t,
    )


# ---------------------------------------------------------------------------
# coefficient formation


def test_coefficients_accelerating_flow_closed_form():
    grid = GridSpec(8, 8, 8, L=1.0, T=0.5)
    problem = make_problem(accelerating_flow(), grid, linear_data())
    a, b, c = problem.coefficients()
    t = grid.t[:, None, None]
    y = grid.y[None, None, :]
    assert np.allclose(a, y * (1.0 + t), atol=1e-14)
    assert np.allclose(b, (1.0 - y) / (1.0 + t), atol=1e-14)
    # dxU = 0, dxP = -1: zeroth-order coefficient reduces to 1/U
    assert np.allclose(c, 1.0 / (1.0 + t) + 0.0 * y, atol=1e-14)
    assert np.allclose(problem.px_over_u, -1.0 / (1.0 + grid.t[:, None]), atol=1e-14)


def test_coefficient_variants_differ_by_twice_weighted_dxU():
    grid = GridSpec(8, 8, 8, L=1.0, T=0.5)
    flow = decelerating_flow()
    c = make_problem(flow, grid, linear_data()).coefficients()[2]
    x, t = grid.x[None, :, None], grid.t[:, None, None]
    y = grid.y[None, None, :]
    # the alternative zeroth-order coefficient y dxU + dtU / U
    gap = c - (y * flow.dxU(x, t) + flow.dtU(x, t) / flow.U(x, t))
    assert np.allclose(gap, 2.0 * (1.0 - y) * (-0.25), atol=1e-14)


def test_wall_identity_b_equals_minus_px_over_u():
    grid = GridSpec(8, 8, 8, L=1.0, T=0.5)
    for builder in (uniform_flow, accelerating_flow, decelerating_flow):
        problem = make_problem(builder(), grid, linear_data())
        b = problem.coefficients()[1]
        assert np.allclose(b[:, :, 0], -problem.px_over_u, atol=1e-14), builder.__name__


def test_coefficients_reject_nonpositive_flow():
    grid = GridSpec(8, 8, 8, L=5.0, T=0.5)
    with pytest.raises(DataError, match="positive"):
        make_problem(decelerating_flow(), grid, linear_data())


def swelling_flow():
    # U = 1 + t^2 + x t / 4: every factor varies and max |b| sits on the last level
    return ExternalFlow(U=lambda x, t: 1.0 + t * t + 0.25 * x * t,
                        dxU=lambda x, t: 0.25 * t + 0.0 * x,
                        dtU=lambda x, t: 2.0 * t + 0.25 * x)


@pytest.mark.parametrize("flow", [uniform_flow, accelerating_flow, decelerating_flow,
                                  swelling_flow])
def test_coefficients_bit_identical_to_broadcast_reference(flow):
    grid = GridSpec(10, 7, 6, L=1.0, T=0.5)
    flow = flow()
    problem = make_problem(flow, grid, linear_data())
    # reference: the coefficients as full (t, x, y) broadcast volumes
    t = grid.t[:, None, None]
    x = grid.x[None, :, None]
    y = grid.y[None, None, :]
    U = np.asarray(flow.U(x, t), dtype=float)
    dxU = np.asarray(flow.dxU(x, t), dtype=float)
    dtU = np.asarray(flow.dtU(x, t), dtype=float)
    dxP = -(dtU + U * dxU)
    full = (grid.nt + 1, grid.nx + 1, grid.ny + 1)
    ref = [np.broadcast_to(v, full) for v in (
        y * U,
        (1.0 - y**2) * dxU + (1.0 - y) * dtU / U,
        (1.0 - y) * dxU - dxP / U,
    )]
    assert np.array_equal(problem.px_over_u, (dxP / U)[..., 0])
    for got, want in zip(problem.coefficients(), ref):
        assert got.shape == full
        assert np.array_equal(got, want)
    for n in range(grid.nt + 1):
        for got, want in zip(problem.coefficients(n), ref):
            assert got.shape == full[1:]
            assert np.array_equal(got, want[n])
    for eps in (1e-3, 0.1):
        bmax = float(np.max(np.abs(ref[1])))
        assert cfl_margins(problem, grid, eps) == {
            "cfl_x": grid.dt * (float(np.max(ref[0])) + eps) / grid.dx,
            "cfl_y": grid.dt * bmax / grid.dy if bmax > 0 else 0.0,
        }


def test_pressure_gradient_reads_the_problem_nodes():
    # the worst dxP and its (x, t) node, from the flow sampled afresh on the
    # grid's nodes; ties go to the first maximum in x-major order
    retarding = ExternalFlow(U=lambda x, t: 2.0 - t + 0.25 * x,
                             dxU=lambda x, t: 0.25 + 0.0 * x * t,
                             dtU=lambda x, t: -1.0 + 0.0 * x * t)
    grid = GridSpec(10, 7, 6, L=1.0, T=0.5)
    xx, tt = np.meshgrid(grid.x, grid.t, indexing="ij")
    for flow in (decelerating_flow(), swelling_flow(), retarding):
        dxP = -(flow.dtU(xx, tt) + flow.U(xx, tt) * flow.dxU(xx, tt))
        i, j = np.unravel_index(int(np.argmax(dxP)), dxP.shape)
        grad = pressure_gradient(make_problem(flow, grid, linear_data()))
        assert grad.worst_value == dxP[i, j]
        assert grad.worst_location == (grid.x[i], grid.t[j])
        assert grad.favorable == (dxP[i, j] <= 1e-12)
    # the retarding flow's worst node is off the origin: x = 0 at the last level
    assert grad.worst_location == (0.0, 0.5)
    assert not grad.favorable


def _held_bytes(problem) -> dict:
    """Bytes of the buffer behind each array a problem holds."""
    held = {}
    for name, value in vars(problem).items():
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            held[name] = value.nbytes
    return held


def test_stored_coefficients_do_not_scale_with_ny():
    # only the shear data w0 (x, y) and w1 (t, y) may grow with ny; every
    # other array is a (t, x) factor
    coef_bytes = []
    for ny in (16, 512):
        held = _held_bytes(make_problem(uniform_flow(), GridSpec(16, ny, 16), linear_data()))
        coef_bytes.append(sum(held.values()) - held["w0"] - held["w1"])
    assert coef_bytes[0] == coef_bytes[1]


# ---------------------------------------------------------------------------
# problem assembly


def test_make_problem_shapes_and_locking():
    grid = GridSpec(6, 5, 4, L=1.0, T=0.5)
    problem = make_problem(uniform_flow(), grid, linear_data())
    assert problem.coefficients()[0].shape == (5, 7, 6)
    assert problem.coefficients(2)[0].shape == (7, 6)
    assert problem.w0.shape == (7, 6)
    assert problem.w1.shape == (5, 6)
    assert problem.v0.shape == (5, 7)
    for arr in (problem.U, problem.dxU, problem.dtU, problem.px_over_u):
        assert arr.shape == (5, 7)
    for arr in (problem.U, problem.dxU, problem.dtU, problem.px_over_u,
                problem.w0, problem.w1, problem.v0):
        assert not arr.flags.writeable
    assert np.all(problem.w0[:, -1] == 0.0)


def test_make_problem_rejects_nonvanishing_top():
    grid = GridSpec(6, 6, 6)
    data = CroccoData(
        w0=lambda x, y: 1.0 - y + 0.1 + 0.0 * x,
        w1=lambda y, t: 1.0 - y + 0.1 + 0.0 * t,
        v0=lambda x, t: -1.0 + 0.0 * x * t,
    )
    with pytest.raises(DataError, match="vanish"):
        make_problem(uniform_flow(), grid, data)


def test_make_problem_rejects_corner_mismatch():
    grid = GridSpec(6, 6, 6)
    data = CroccoData(
        w0=lambda x, y: (1.0 - y) + 0.0 * x,
        w1=lambda y, t: 1.5 * (1.0 - y) + 0.0 * t,
        v0=lambda x, t: -1.0 + 0.0 * x * t,
    )
    with pytest.raises(DataError, match="corner"):
        make_problem(uniform_flow(), grid, data)


# ---------------------------------------------------------------------------
# hypothesis validation


def test_validate_clean_data_reports_envelope_one():
    report = validate(make_problem(uniform_flow(), GridSpec(16, 16, 16), linear_data()))
    assert report.ok
    assert report.c0 == pytest.approx(1.0)
    assert "hold" in report.summary()


def test_validate_scaled_data_envelope():
    report = validate(make_problem(uniform_flow(), GridSpec(16, 16, 16), linear_data(scale=2.0)))
    assert report.ok
    assert report.c0 == pytest.approx(2.0)


def test_validate_flags_positive_suction():
    data = CroccoData(
        w0=lambda x, y: (1.0 - y) + 0.0 * x,
        w1=lambda y, t: (1.0 - y) + 0.0 * t,
        v0=lambda x, t: 0.5 + 0.0 * x * t,
    )
    report = validate(make_problem(uniform_flow(), GridSpec(8, 8, 8), data))
    assert not report.ok
    assert any("suction" in i.condition for i in report.issues)


def test_validate_flags_adverse_pressure():
    report = validate(make_problem(decelerating_flow(), GridSpec(8, 8, 8), linear_data()))
    assert not report.ok
    assert any("favorable" in i.condition for i in report.issues)


def test_validate_flags_envelope_violation():
    # the envelope constant is capped at C0_MAX = 50
    report = validate(make_problem(uniform_flow(), GridSpec(8, 8, 8), linear_data(scale=60.0)))
    assert any("upper bound" in i.condition for i in report.issues)


def test_validate_flags_nonpositive_shear():
    # vanishes on y = 1 as make_problem requires, negative on 1/2 < y < 1
    data = CroccoData(
        w0=lambda x, y: (1.0 - y) * (0.5 - y) + 0.0 * x,
        w1=lambda y, t: (1.0 - y) * (0.5 - y) + 0.0 * t,
        v0=lambda x, t: -1.0 + 0.0 * x * t,
    )
    report = validate(make_problem(uniform_flow(), GridSpec(8, 8, 8), data))
    assert any("monotone" in i.condition for i in report.issues)

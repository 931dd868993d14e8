import numpy as np
import pytest

from crocco_prandtl.crocco import CroccoData, make_problem, pressure_gradient
from crocco_prandtl.flows import accelerating_flow, decelerating_flow, uniform_flow
from crocco_prandtl.grids import GridSpec


def linear_data():
    return CroccoData(w0=lambda x, y: (1.0 - y) + 0.0 * x,
                      w1=lambda y, t: (1.0 - y) + 0.0 * t,
                      v0=lambda x, t: -1.0 + 0.0 * x * t)


def lattice(L=1.0, T=1.0, n=9):
    x = np.linspace(0.0, L, n)
    t = np.linspace(0.0, T, n)
    return np.meshgrid(x, t, indexing="ij")


# ---------------------------------------------------------------------------
# built-in flows and the Bernoulli relation


def test_uniform_flow_is_one_with_zero_gradient():
    flow = uniform_flow()
    xx, tt = lattice()
    assert np.all(flow.U(xx, tt) == 1.0)
    assert np.all(flow.dxU(xx, tt) == 0.0)
    assert np.all(flow.dtU(xx, tt) == 0.0)
    favorable, _ = pressure_gradient(make_problem(flow, GridSpec(8, 8, 8), linear_data()))
    assert favorable.passed
    assert favorable.value == 0.0


def test_accelerating_flow_pressure_is_minus_one():
    flow = accelerating_flow()
    xx, tt = lattice(T=0.5)
    assert np.allclose(flow.U(xx, tt), 1.0 + tt)
    favorable, _ = pressure_gradient(make_problem(flow, GridSpec(8, 8, 8, T=0.5),
                                                  linear_data()))
    assert favorable.passed
    assert favorable.value == pytest.approx(-1.0)


def test_decelerating_flow_is_adverse():
    favorable, (x, _) = pressure_gradient(make_problem(decelerating_flow(), GridSpec(8, 8, 8),
                                                       linear_data()))
    assert not favorable.passed
    # dxP = U/4 is largest where U is largest, at x = 0
    assert favorable.value == pytest.approx(0.25)
    assert x == pytest.approx(0.0)


def test_bernoulli_relation_holds_for_each_builtin():
    # the sampled problem carries dxP/U; dxP itself is -(dtU + U dxU)
    grid = GridSpec(8, 8, 8)
    x, t = grid.x[None, :], grid.t[:, None]
    for builder in (uniform_flow, accelerating_flow, decelerating_flow):
        flow = builder()
        problem = make_problem(flow, grid, linear_data())
        expected = -(flow.dtU(x, t) + flow.U(x, t) * flow.dxU(x, t))
        assert np.allclose(problem.px_over_u * problem.U, expected), builder.__name__
        assert pressure_gradient(problem)[0].value == pytest.approx(
            np.max(expected)), builder.__name__

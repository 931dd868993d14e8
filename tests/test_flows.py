import numpy as np
import pytest

from crocco_prandtl.crocco import CroccoData, make_problem
from crocco_prandtl.errors import ConfigError, DataError
from crocco_prandtl.flows import (
    BUILTIN_FLOWS,
    accelerating_flow,
    decelerating_flow,
    make_flow,
    pressure_gradient,
    uniform_flow,
)
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
    grad = pressure_gradient(flow)
    assert grad.favorable
    assert grad.worst_value == 0.0


def test_accelerating_flow_pressure_is_minus_one():
    flow = accelerating_flow(T=0.5)
    xx, tt = lattice(T=0.5)
    assert np.allclose(flow.U(xx, tt), 1.0 + tt)
    grad = pressure_gradient(flow)
    assert grad.favorable
    assert grad.worst_value == pytest.approx(-1.0)


def test_decelerating_flow_is_adverse():
    flow = decelerating_flow()
    grad = pressure_gradient(flow)
    assert not grad.favorable
    # dxP = U/4 is largest where U is largest, at x = 0
    assert grad.worst_value == pytest.approx(0.25)
    assert grad.worst_location[0] == pytest.approx(0.0)


@pytest.mark.parametrize("n", [17, 129])
def test_favorability_is_lattice_independent(n):
    assert pressure_gradient(accelerating_flow(), nx=n, nt=n).favorable
    assert not pressure_gradient(decelerating_flow(), nx=n, nt=n).favorable


def test_bernoulli_relation_holds_for_each_builtin():
    # the sampled problem carries dxP/U; dxP itself is -(dtU + U dxU)
    grid = GridSpec(8, 8, 8)
    x, t = grid.x[None, :], grid.t[:, None]
    for name, builder in BUILTIN_FLOWS.items():
        flow = builder()
        problem = make_problem(flow, grid, linear_data())
        expected = -(flow.dtU(x, t) + flow.U(x, t) * flow.dxU(x, t))
        assert np.allclose(problem.px_over_u * problem.U, expected), name
        assert pressure_gradient(flow, nx=9, nt=9).worst_value == pytest.approx(
            np.max(expected)), name


def test_pressure_gradient_rejects_nonpositive_flow():
    # U = 1 - x/4 crosses zero inside [0, 5]
    flow = decelerating_flow(L=5.0)
    with pytest.raises(DataError, match="positive"):
        pressure_gradient(flow)


# ---------------------------------------------------------------------------
# dispatch


def test_make_flow_dispatch():
    assert make_flow("uniform").name == "uniform"
    assert make_flow("accelerating", T=2.0).T == 2.0
    with pytest.raises(ConfigError, match="unknown flow"):
        make_flow("vortex")
    # tabulated flows are gone; the name is rejected like any other
    with pytest.raises(ConfigError, match="unknown flow"):
        make_flow("custom-table")

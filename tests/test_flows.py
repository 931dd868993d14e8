import numpy as np
import pytest

from crocco_prandtl.errors import ConfigError, DataError
from crocco_prandtl.flows import (
    BUILTIN_FLOWS,
    accelerating_flow,
    decelerating_flow,
    make_flow,
    pressure_gradient,
    uniform_flow,
)


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
    assert np.all(grad.dxP(xx, tt) == -1.0)


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
    xx, tt = lattice()
    for name, builder in BUILTIN_FLOWS.items():
        flow = builder()
        grad = pressure_gradient(flow)
        expected = -(flow.dtU(xx, tt) + flow.U(xx, tt) * flow.dxU(xx, tt))
        assert np.allclose(grad.dxP(xx, tt), expected), name


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

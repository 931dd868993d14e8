"""FieldHistory sampling (sample, sample_dy and the field at fixed times,
at_times, read through sample_slabs) against scipy's
RegularGridInterpolator, which is the reference here only, on queries
inside the axes; a query outside them is refused.  Slabs of several
fields sampled together, each as it is alone; a stack of mixed types or
axes is refused.  Check, the verdict type, at its bound and one ulp to
either side."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from crocco_prandtl.errors import ConfigError
from crocco_prandtl.grids import AnalyticField, Check, FieldHistory, sample_slabs


def _oracle(nodes, values, queries):
    grid = np.broadcast_arrays(*queries)
    pts = np.stack([q.ravel() for q in grid], axis=-1)
    interp = RegularGridInterpolator(nodes, values, bounds_error=False, fill_value=None)
    return interp(pts).reshape(grid[0].shape)


@st.composite
def axis_with_queries(draw):
    """Uniform nodes and queries on them: inside and exactly on a node (the
    last one included)."""
    n = draw(st.integers(2, 9))
    start = draw(st.floats(-10.0, 10.0))
    h = draw(st.floats(1e-3, 10.0))
    nodes = np.linspace(start, start + h * (n - 1), n)
    on_node = st.sampled_from(nodes.tolist())
    anywhere = st.floats(nodes[0], nodes[-1])
    queries = draw(st.lists(st.one_of(on_node, anywhere), min_size=1, max_size=6))
    return nodes, np.array(queries + [nodes[0], nodes[-1]])


@settings(max_examples=150, deadline=None)
@given(axis_with_queries(), axis_with_queries(), axis_with_queries(), st.integers(0, 2**32 - 1))
def test_sample_and_sample_dy_match_oracle(t_axis, x_axis, y_axis, seed):
    (t, tq), (x, xq), (y, yq) = t_axis, x_axis, y_axis
    values = np.random.default_rng(seed).uniform(-100.0, 100.0, (t.size, x.size, y.size))
    hist = FieldHistory(t=t, x=x, y=y, values=values)
    # each coordinate on its own axis, broadcast to the full product
    queries = (tq[:, None, None], xq[None, :, None], yq[None, None, :])
    # the field at the query times, interpolated on the window the queries span
    at_tq = sample_slabs([hist.at_times(queries[0], (xq.min(), xq.max()), (yq.min(), yq.max()))])
    for got, field in ((hist.sample(*queries), values),
                       (hist.sample_dy(*queries), np.gradient(values, y, axis=2)),
                       (at_tq(queries[2])(queries[1])[0], values)):
        ref = _oracle((t, x, y), field, queries)
        assert got.shape == ref.shape
        scale = max(np.max(np.abs(field)), 1e-300)
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("y", [
    np.linspace(-1.0, 1.0, 193),  # steps differ in the last bits: a, b, c weights
    np.linspace(0.0, 1.0, 65),    # equal steps: np.gradient's uniform branch
])
def test_sample_dy_is_the_sampled_whole_history_gradient_bit_for_bit(y):
    h = np.diff(y)
    assert (h == h[0]).all() == (y.size == 65)
    t, x = np.linspace(0.0, 1.0, 6), np.linspace(-1.0, 1.0, 7)
    values = np.random.default_rng(y.size).uniform(-1.0, 1.0, (t.size, x.size, y.size))
    hist = FieldHistory(t=t, x=x, y=y, values=values)
    gradient = FieldHistory(t=t, x=x, y=y, values=np.gradient(values, y, axis=2))
    # the first and last rows, inside the top cell, and across the axis
    yq = np.concatenate(([y[0], y[-1], y[-1] - 0.3 * h[-1], y[1]],
                         np.linspace(y[0], y[-1], 41)))
    queries = (np.array([0.0, 0.37, 1.0])[:, None, None],
               np.array([-1.0, 0.13, 1.0])[None, :, None], yq[None, None, :])
    assert np.array_equal(hist.sample_dy(*queries), gradient.sample(*queries))


def test_sample_dy_allocates_a_small_part_of_the_history():
    t, x, y = np.linspace(-1.0, 0.0, 301), np.linspace(-1.0, 1.0, 97), np.linspace(0.0, 1.0, 193)
    hist = FieldHistory(t=t, x=x, y=y, values=np.zeros((t.size, x.size, y.size)))
    assert hist.values.nbytes > 5e6
    lattice = np.linspace(0.0, 1.0, 25)
    tracemalloc.start()
    try:
        hist.sample_dy(lattice[:, None, None] - 1.0, lattice[None, :, None], lattice[None, None, :])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < hist.values.nbytes / 10


@pytest.mark.parametrize("x", [
    [0.0, 0.1, 0.3, 1.0],         # non-uniform
    [1.0, 0.5, 0.0],              # descending
    [0.0],                        # a single node
    [0.0, np.nan, 1.0],           # non-finite
])
def test_non_uniform_history_is_refused(x):
    t, y = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4)
    with pytest.raises(ConfigError):
        FieldHistory(t=t, x=np.array(x), y=y, values=np.zeros((3, len(x), 4)))


def _slab_sample(hist, tq, xq, yq):
    """The history at the one point (tq, xq, yq) through its slab there."""
    at_y = sample_slabs([hist.at_times(np.array([tq]), (xq, xq), (yq, yq))])
    return at_y(np.array([yq]))(np.array([xq]))[0]


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("axis", ["t", "x", "y"])
def test_queries_outside_the_axes_are_refused(axis, side):
    axes = {"t": np.linspace(0.0, 1.0, 5), "x": np.linspace(-1.0, 1.0, 9),
            "y": np.linspace(0.0, 2.0, 11)}
    hist = FieldHistory(values=np.random.default_rng(0).uniform(size=(5, 9, 11)), **axes)
    nodes = axes[axis]
    span, cell = nodes[-1] - nodes[0], nodes[1] - nodes[0]
    edge, out = (nodes[0], -1.0) if side == "below" else (nodes[-1], 1.0)

    def at(offset):
        q = {"t": 0.5, "x": 0.0, "y": 1.0}
        q[axis] = edge + out * offset
        return q["t"], q["x"], q["y"]

    # rounding at the edge, within 1e-12 of the span, is still inside
    tq, xq, yq = at(1e-13 * span)
    hist.sample(tq, xq, yq)
    hist.sample_dy(tq, xq, yq)
    _slab_sample(hist, tq, xq, yq)
    # one cell outside raises from every sampler
    tq, xq, yq = at(cell)
    with pytest.raises(ConfigError):
        hist.sample(tq, xq, yq)
    with pytest.raises(ConfigError):
        hist.sample_dy(tq, xq, yq)
    with pytest.raises(ConfigError):
        _slab_sample(hist, tq, xq, yq)


def test_at_times_refuses_queries_outside_its_spans():
    t, x, y = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 11), np.linspace(0.0, 2.0, 21)
    hist = FieldHistory(t=t, x=x, y=y, values=np.zeros((5, 11, 21)))
    at_y = sample_slabs([hist.at_times(np.array([0.3, 0.6])[:, None], (0.2, 0.4), (0.5, 0.9))])
    at_x = at_y(np.array([0.55, 0.85]))
    assert np.array_equal(at_x(np.array([0.25, 0.35]))[0], np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        at_x(np.array([0.25, 0.55]))
    with pytest.raises(ConfigError):
        at_y(np.array([0.35, 0.55]))


AXES = (np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 1.0, 9), np.linspace(0.0, 2.0, 11))
TAU = np.array([0.2, 0.7])[:, None]


def _random_history(seed, x=AXES[1]):
    t, _, y = AXES
    return FieldHistory(t=t, x=x, y=y,
                        values=np.random.default_rng(seed).uniform(size=(5, x.size, 11)))


@pytest.mark.parametrize("kind", ["history", "analytic"])
def test_slabs_sampled_together_match_each_alone(kind):
    fields = ([_random_history(seed) for seed in range(3)] if kind == "history" else
              [AnalyticField(lambda t, x, y, c=c: c * t + np.sin(x) * y) for c in (1.0, 2.0, 3.0)])
    yq, xq = np.array([[0.3, 1.7]]), np.array([[-0.6], [0.4]])
    slabs = [f.at_times(TAU, (-0.6, 0.4), (0.3, 1.7)) for f in fields]
    together = sample_slabs(slabs)(yq)(xq)
    assert len(together) == 3
    for slab, field, got in zip(slabs, fields, together):
        assert got.tobytes() == sample_slabs([slab])(yq)(xq)[0].tobytes()
        assert np.allclose(got, field.sample(TAU, xq, yq), rtol=1e-13, atol=0.0)


def test_a_stack_of_mixed_types_or_axes_is_refused():
    spans = ((-0.6, 0.4), (0.3, 1.7))
    hist = _random_history(0).at_times(TAU, *spans)
    analytic = AnalyticField(lambda t, x, y: t + x + y)
    for other in (_random_history(1, x=np.linspace(-1.0, 1.0, 17)).at_times(TAU, *spans),
                  _random_history(1).at_times(TAU[::-1], *spans),
                  _random_history(1).at_times(TAU, (-0.6, 0.9), spans[1]),
                  analytic.at_times(TAU, *spans)):
        with pytest.raises(ConfigError, match="shared axes"):
            sample_slabs([hist, other])
    with pytest.raises(ConfigError, match="shared axes"):
        sample_slabs([analytic.at_times(TAU, *spans), analytic.at_times(TAU[::-1], *spans)])


# ---------------------------------------------------------------------------
# Check: a value against its bound

# passed one ulp below the bound, at it and one ulp above it
SENSE_OUTCOMES = {
    "<": (True, False, False),
    "<=": (True, True, False),
    ">": (False, False, True),
    ">=": (False, True, True),
    "==": (False, True, False),
}


@pytest.mark.parametrize("sense", list(SENSE_OUTCOMES))
@pytest.mark.parametrize("bound", [0.0, 1e-12, 1.0 - 1e-12, 1.0, -2.5])
def test_check_at_its_bound_and_one_ulp_to_either_side(sense, bound):
    values = (np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf))
    outcomes = tuple(Check(float(v), bound, sense).passed for v in values)
    assert outcomes == SENSE_OUTCOMES[sense]
    assert all(type(Check(float(v), bound, sense).passed) is bool for v in values)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-2.5, 1e-12)])
def test_check_open_interval_at_both_ends(lo, hi):
    values = (lo, np.nextafter(lo, hi), np.nextafter(hi, lo), hi)
    assert [Check(float(v), (lo, hi), "in").passed for v in values] == [False, True, True, False]


@pytest.mark.parametrize("sense, bound", [(s, 1.0) for s in SENSE_OUTCOMES] + [("in", (0.0, 1.0))])
def test_nan_fails_every_sense(sense, bound):
    assert Check(float("nan"), bound, sense).passed is False
    assert Check(np.float64("nan"), bound, sense).passed is False


def test_check_renders_its_bound_at_round_trip_precision():
    # criterion 8's plateau bound: at four significant digits it read 1
    assert str(Check(1.0, 1.0 - 1e-12, ">=")) == "1 >= 0.999999999999"
    assert str(Check(1.0, 1.0 / 11.0, ">=")) == "1 >= 0.09090909090909091"
    # values keep four significant digits; no trailing .0 on a bound
    assert str(Check(2.4871234e-14, 1e-06, "<=")) == "2.487e-14 <= 1e-06"
    assert str(Check(0, 0, "==")) == "0 == 0"
    assert str(Check(2.0, np.inf, "<")) == "2 < inf"
    assert str(Check(0.26531, (0.0, 1.0), "in")) == "0.2653 in (0, 1)"
    assert str(Check(0.5, (1e-12, 1.0 - 1e-12), "in")) == "0.5 in (1e-12, 0.999999999999)"


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_check_bound_text_reads_back_as_the_bound(bound):
    text = str(Check(0.0, bound, "<=")).split(" <= ")[1]
    assert float(text) == bound and not text.endswith(".0")

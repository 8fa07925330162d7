"""Property tests: gradients of broadcasting ops on random shapes.

Every case is checked against central differences by grad_check.  Shapes
are drawn so that operands broadcast against each other by numpy rules:
each operand keeps a suffix of a common shape and may shrink any of its
axes to 1.  Runs are derandomized, so the examples are the same each run.
"""

import operator

import numpy as np
import pytest

from graphlift.gradcheck import grad_check
from graphlift.tensor import Tensor, concat_features

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(derandomize=True, deadline=None, max_examples=30,
                               database=None)


def _broadcastable(draw, full: list) -> tuple:
    """A shape that broadcasts to `full`: a suffix of it, some axes set to 1."""
    shape = full[draw(st.integers(0, len(full))):]
    ones = draw(st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)))
    return tuple(1 if one else n for n, one in zip(shape, ones))


@st.composite
def binary_case(draw):
    full = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    op = draw(st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]))
    return op, _broadcastable(draw, full), _broadcastable(draw, full), draw(
        st.integers(0, 2**32 - 1))


@st.composite
def concat_case(draw):
    lead = draw(st.lists(st.integers(1, 4), min_size=0, max_size=2))
    count = draw(st.integers(1, 3))
    shapes = [_broadcastable(draw, lead) + (draw(st.integers(1, 3)),)
              for _ in range(count)]
    return shapes, draw(st.integers(0, 2**32 - 1))


@SETTINGS
@hypothesis.given(binary_case())
def test_binary_op_broadcast_gradients(case):
    op, shape_a, shape_b, seed = case
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=shape_a), requires_grad=True)
    # keep divisors away from zero so central differences stay accurate
    b_data = rng.uniform(0.5, 2.0, size=shape_b) * rng.choice([-1.0, 1.0], size=shape_b)
    b = Tensor(b_data, requires_grad=True)
    out_shape = np.broadcast_shapes(shape_a, shape_b)
    w = Tensor(rng.normal(size=out_shape))
    report = grad_check(lambda: (op(a, b) * w).sum(), {"a": a, "b": b})
    assert a.grad.shape == shape_a and b.grad.shape == shape_b
    assert report.ok(1e-6), report


@SETTINGS
@hypothesis.given(concat_case())
def test_concat_broadcast_gradients(case):
    shapes, seed = case
    rng = np.random.default_rng(seed)
    ts = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    out_shape = concat_features(ts).shape
    w = Tensor(rng.normal(size=out_shape))
    report = grad_check(lambda: (concat_features(ts) * w).sum(),
                        {f"t{i}": t for i, t in enumerate(ts)})
    for t, s in zip(ts, shapes):
        assert t.grad.shape == s
    assert report.ok(1e-6), report


@SETTINGS
@hypothesis.given(binary_case())
def test_fan_out_into_both_operands(case):
    # x is both operands of an add and of a mul: its second gradient write
    # must not land in the array the first write adopted.
    _, shape, _, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    w = Tensor(rng.normal(size=shape))
    report = grad_check(lambda: (((x + x) + x * x) * w).sum(), {"x": x})
    np.testing.assert_allclose(x.grad, (2.0 + 2.0 * x.data) * w.data, rtol=1e-12)
    assert report.ok(1e-6), report

"""Property tests: gradients of broadcasting ops on random shapes, and
bitwise round trips of checkpoints and datasets.

Every gradient case is checked against central differences by grad_check.
Shapes are drawn so that operands broadcast against each other by numpy
rules: each operand keeps a suffix of a common shape and may shrink any of
its axes to 1.  Runs are derandomized, so the examples are the same each run.
"""

import math
import operator
import os
import tempfile

import numpy as np
import pytest

from graphlift.checkpoint import blob_path, load_checkpoint, save_checkpoint
from graphlift.gradcheck import grad_check
from graphlift.keypoints import NUM_NODES
from graphlift.synth import Camera, SampleRecord, load_dataset, save_dataset
from graphlift.tensor import Tensor, concat_features

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(derandomize=True, deadline=None, max_examples=30,
                               database=None)
# each round-trip example writes files
FILE_SETTINGS = hypothesis.settings(SETTINGS, max_examples=15)

# signed zeros, subnormals and the ends of the float64 range
EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308]
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)


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


# ---- round trips ------------------------------------------------------------


@st.composite
def param_map(draw):
    """name -> float64 array: 0-d, empty, 1-3-D, some of them transposed views."""
    names = draw(st.lists(st.text("abw.", min_size=1, max_size=4), min_size=1,
                          max_size=4, unique=True))
    params = {}
    for name in names:
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        transposed = len(shape) >= 2 and draw(st.booleans())
        stored = shape[::-1] if transposed else shape
        values = draw(st.lists(finite, min_size=math.prod(stored),
                               max_size=math.prod(stored)))
        arr = np.array(values, dtype=np.float64).reshape(stored)
        params[name] = arr.T if transposed else arr
    return params


@FILE_SETTINGS
@hypothesis.given(param_map())
def test_checkpoint_round_trip_is_bitwise(params):
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "ck")
        save_checkpoint(base, params, {"kind": "demo"})
        with open(blob_path(base), "rb") as f:
            blob = f.read()
        arrays, config = load_checkpoint(base)
    # the blob follows the order params were given in; the manifest sorts names
    assert blob == b"".join(a.astype("<f8").tobytes() for a in params.values())
    assert config == {"kind": "demo"}
    assert sorted(arrays) == sorted(params)
    for name, a in params.items():
        assert arrays[name].shape == a.shape
        assert arrays[name].tobytes() == a.tobytes()


@st.composite
def sample_record(draw):
    """A record of finite coordinates with strictly positive depths."""
    def floats(n, elements=finite):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    depth = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    gt3d = np.column_stack([floats(2 * NUM_NODES).reshape(NUM_NODES, 2),
                            floats(NUM_NODES, depth)])
    return SampleRecord(id=draw(st.integers(0, 2**53)), gt3d=gt3d,
                        gt2d=floats(2 * NUM_NODES).reshape(NUM_NODES, 2),
                        camera=Camera(*floats(4)),
                        meta={"object": draw(st.text("box ", max_size=4))})


@FILE_SETTINGS
@hypothesis.given(st.lists(sample_record(), min_size=1, max_size=3))
def test_dataset_round_trip_is_bitwise(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.jsonl")
        save_dataset(path, records)
        loaded = load_dataset(path)
    assert len(loaded) == len(records)
    for got, want in zip(loaded, records):
        assert got.id == want.id and got.meta == want.meta
        assert got.gt3d.tobytes() == want.gt3d.tobytes()
        assert got.gt2d.tobytes() == want.gt2d.tobytes()
        cam = [(c.fx, c.fy, c.cx, c.cy) for c in (got.camera, want.camera)]
        assert np.array(cam[0]).tobytes() == np.array(cam[1]).tobytes()

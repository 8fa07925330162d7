"""Autodiff core: values, gradients, broadcasting, and error paths."""

import tracemalloc

import numpy as np
import pytest

from graphlift.errors import DimensionError, NumericError
from graphlift.gradcheck import grad_check
from graphlift.layers import _gather_rows_batched, scatter_rows_batched
from graphlift.tensor import (
    Tensor, _record, _unbroadcast, concat_features, matmul, mse, no_grad, relu,
    sigmoid,
)


def test_construction_and_introspection():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True, name="t")
    assert t.shape == (2, 2)
    assert t.ndim == 2
    assert t.size == 4
    assert t.data.dtype == np.float64
    assert "t" in repr(t)


def test_construction_rejects_non_finite():
    with pytest.raises(NumericError):
        Tensor([1.0, np.nan])
    with pytest.raises(NumericError):
        Tensor([np.inf])


def test_item_requires_scalar():
    assert Tensor(3.5).item() == 3.5
    with pytest.raises(DimensionError):
        Tensor([1.0, 2.0]).item()


def test_matmul_value():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    out = matmul(a, b)
    np.testing.assert_array_equal(out.data, [[17.0], [39.0]])


def test_matmul_gradients():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = Tensor([[5.0], [6.0]], requires_grad=True)
    matmul(a, b).sum().backward()
    # d(sum(A@b))/dA = outer(1, b); /db = column sums of A
    np.testing.assert_allclose(a.grad, [[5.0, 6.0], [5.0, 6.0]])
    np.testing.assert_allclose(b.grad, [[4.0], [6.0]])


def test_matmul_shape_errors():
    with pytest.raises(DimensionError):
        matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
    with pytest.raises(DimensionError):
        matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))


def test_matmul_batch_broadcast():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    out = matmul(a, b)
    assert out.shape == (4, 3, 5)
    out.sum().backward()
    # the broadcast operand's gradient sums over the batch axis
    assert b.grad.shape == (2, 5)
    expect_b = sum(a.data[i].T @ np.ones((3, 5)) for i in range(4))
    np.testing.assert_allclose(b.grad, expect_b)


def test_relu_value_and_subgradient():
    x = Tensor([-1.0, 2.0], requires_grad=True)
    y = relu(x)
    np.testing.assert_array_equal(y.data, [0.0, 2.0])
    y.sum().backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])


def test_relu_zero_gets_zero_gradient():
    x = Tensor([0.0], requires_grad=True)
    relu(x).sum().backward()
    np.testing.assert_array_equal(x.grad, [0.0])


def test_relu_matches_where_formula_bitwise():
    """The max/multiply kernel gives the bits of the np.where formula, signed
    zeros and subnormals included, for the value and the gradient."""
    tiny = np.finfo(np.float64).smallest_subnormal
    edge = np.array([-0.0, 0.0, tiny, -tiny, 2.0e-308, -2.0e-308, 1e308, -1e308])
    rng = np.random.default_rng(5)
    x_data = np.concatenate([edge, rng.normal(size=56)]).reshape(2, 4, 8)
    g = np.concatenate([edge[::-1], -edge, rng.normal(size=48)]).reshape(2, 4, 8)
    x = Tensor(x_data, requires_grad=True)
    y = relu(x)
    (y * Tensor(g)).sum().backward()
    mask = x_data > 0
    assert y.data.tobytes() == np.where(mask, x_data, 0.0).tobytes()
    assert x.grad.tobytes() == np.where(mask, g, 0.0).tobytes()


def test_relu_propagates_nan():
    x = Tensor([1.0, -1.0, 0.0])
    x.data[1] = np.nan
    np.testing.assert_array_equal(relu(x).data, [1.0, np.nan, 0.0])


def test_sigmoid_stable_at_extremes():
    s = sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
    np.testing.assert_allclose(s.data, [0.0, 0.5, 1.0], atol=1e-12)
    assert np.isfinite(s.data).all()


def test_concat_features_widths():
    a = Tensor(np.zeros((29, 2048)))
    b = Tensor(np.ones((29, 2)))
    out = concat_features([a, b])
    assert out.shape == (29, 2050)
    np.testing.assert_array_equal(out.data[:, 2048:], 1.0)


def test_concat_zero_width_is_noop():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    empty = Tensor(np.zeros((2, 0)))
    out = concat_features([a, empty])
    np.testing.assert_array_equal(out.data, a.data)
    out.sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))


def test_concat_gradient_splits():
    a = Tensor(np.zeros((2, 2)), requires_grad=True)
    b = Tensor(np.zeros((2, 1)), requires_grad=True)
    out = concat_features([a, b])
    (out * Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])).sum().backward()
    np.testing.assert_array_equal(a.grad, [[1.0, 2.0], [4.0, 5.0]])
    np.testing.assert_array_equal(b.grad, [[3.0], [6.0]])


def test_concat_leading_shape_mismatch():
    with pytest.raises(DimensionError):
        concat_features([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))])
    # leading shapes that would broadcast are still a mismatch
    with pytest.raises(DimensionError):
        concat_features([Tensor(np.zeros((4, 1, 64))), Tensor(np.zeros((4, 29, 2)))])


def test_mse_value():
    assert mse(Tensor([0.0, 0.0]), [3.0, 4.0]).item() == 12.5


def test_mse_gradient():
    pred = Tensor([0.0, 0.0], requires_grad=True)
    mse(pred, [3.0, 4.0]).backward()
    np.testing.assert_allclose(pred.grad, [-3.0, -4.0])


def test_mse_shape_must_match_exactly():
    with pytest.raises(DimensionError):
        mse(Tensor(np.zeros((2, 1))), np.zeros(2))


def test_broadcast_add_mul_gradients():
    a = Tensor(np.ones((3, 1)), requires_grad=True)
    b = Tensor(np.ones((1, 4)), requires_grad=True)
    ((a + b) * b).sum().backward()
    assert a.grad.shape == (3, 1)
    assert b.grad.shape == (1, 4)
    np.testing.assert_allclose(a.grad, np.full((3, 1), 4.0))
    # d/db [(a+b)*b] = a + 2b = 3, summed over 3 rows
    np.testing.assert_allclose(b.grad, np.full((1, 4), 9.0))


def test_scalar_arithmetic_chain():
    x = Tensor([2.0], requires_grad=True)
    y = (x * 3.0 - 1.0) / 5.0 + 2.0
    y.sum().backward()
    np.testing.assert_allclose(y.data, [3.0])
    np.testing.assert_allclose(x.grad, [0.6])


def test_reshape_sum_sqrt():
    x = Tensor(np.arange(1.0, 7.0), requires_grad=True)
    y = x.reshape(2, 3)
    np.testing.assert_array_equal(y.data, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert y.sum().data == 21.0
    s = Tensor([16.0], requires_grad=True)
    r = s.sqrt()
    r.sum().backward()
    assert r.data[0] == 4.0
    np.testing.assert_allclose(s.grad, [0.125])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(DimensionError):
        (x * 2).backward()


def test_backward_resets_previous_gradients():
    x = Tensor([1.0], requires_grad=True)
    (x * 2).sum().backward()
    (x * 2).sum().backward()
    # not accumulated across calls
    np.testing.assert_array_equal(x.grad, [2.0])


def test_first_gradient_write_adopts_the_array():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([0.5, 0.5], requires_grad=True)
    out = a + b
    (out * Tensor([3.0, 4.0])).sum().backward()
    assert a.grad is out.grad and b.grad is out.grad
    np.testing.assert_array_equal(a.grad, [3.0, 4.0])


def test_fan_out_leaves_the_adopted_gradient_untouched():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x + x
    (y * Tensor([3.0, 5.0])).sum().backward()
    np.testing.assert_array_equal(x.grad, [6.0, 10.0])
    np.testing.assert_array_equal(y.grad, [3.0, 5.0])


def test_node_without_contribution_gets_zeros():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    empty = Tensor(np.zeros((2, 0)), requires_grad=True)
    concat_features([a, empty]).sum().backward()
    assert empty.grad.shape == (2, 0)
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))


def test_diamond_graph_accumulates():
    x = Tensor([3.0], requires_grad=True)
    y = x * 2
    z = (y + y).sum()
    z.backward()
    np.testing.assert_array_equal(x.grad, [4.0])


def test_gather_nodes_selects_and_accumulates():
    """Node-row gather on the batched op.  Indices within one gather are
    distinct (index assignment overwrites repeats); a row gathered by two
    separate gathers accumulates both gradients."""
    x = Tensor(np.arange(12.0).reshape(1, 4, 3), requires_grad=True)
    out = _gather_rows_batched(x, np.array([[2, 0]]))
    np.testing.assert_array_equal(out.data[0, 1], x.data[0, 0])
    np.testing.assert_array_equal(out.data[0, 0], x.data[0, 2])
    (out.sum() + _gather_rows_batched(x, np.array([[2]])).sum()).backward()
    # row 2 was gathered twice, rows 1 and 3 never
    np.testing.assert_array_equal(x.grad[0, :, 0], [1.0, 0.0, 2.0, 0.0])


def test_scatter_nodes_inverse_of_gather():
    x = Tensor(np.arange(6.0).reshape(1, 2, 3), requires_grad=True)
    idx = np.array([[3, 1]])
    out = scatter_rows_batched(x, idx, 5)
    assert out.shape == (1, 5, 3)
    np.testing.assert_array_equal(out.data[0, 3], x.data[0, 0])
    np.testing.assert_array_equal(out.data[0, 0], 0.0)
    np.testing.assert_array_equal(_gather_rows_batched(out, idx).data, x.data)
    out.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((1, 2, 3)))


def test_no_grad_tracking_without_requires_grad():
    a = Tensor([1.0, 2.0])
    b = a * 3 + 1
    assert not b.requires_grad
    assert not b._edges


# ---- the flattened GEMM path of (..., n, k) @ (k, o) -------------------------


def _rel_err(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def _plain_matmul(a, b, g):
    """Forward and both gradients by the broadcast formula the GEMM path replaces."""
    return (a @ b, _unbroadcast(g @ b.T, a.shape),
            _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))


def _transposed_view(rng, shape):
    base = rng.normal(size=shape[:-2] + (shape[-1], shape[-2]))
    view = np.swapaxes(base, -1, -2)
    assert not view.flags.c_contiguous
    return view


@pytest.mark.parametrize("a_shape, o, layout", [
    ((5, 7, 6), 4, "contiguous"),
    ((2, 3, 7, 6), 4, "contiguous"),
    ((5, 7, 6), 4, "transposed"),
    ((2, 3, 7, 6), 1, "transposed"),
])
def test_matmul_gemm_path_matches_plain_formula(a_shape, o, layout):
    rng = np.random.default_rng(3)
    k = a_shape[-1]
    a_data = (_transposed_view(rng, a_shape) if layout == "transposed"
              else rng.normal(size=a_shape))
    b_data = rng.normal(size=(k, o))
    g = rng.normal(size=a_shape[:-1] + (o,))
    want_out, want_ga, want_gb = _plain_matmul(a_data, b_data, g)
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    out = matmul(a, b)
    assert out.shape == want_out.shape
    assert _rel_err(out.data, want_out) <= 1e-12
    (out * Tensor(g)).sum().backward()
    assert _rel_err(a.grad, want_ga) <= 1e-12
    assert _rel_err(b.grad, want_gb) <= 1e-12


@pytest.mark.parametrize("grad_a, grad_b", [(True, False), (False, True)])
def test_matmul_gemm_path_one_operand_requires_grad(grad_a, grad_b):
    rng = np.random.default_rng(4)
    a_data, b_data = rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 2))
    g = rng.normal(size=(3, 4, 2))
    _, want_ga, want_gb = _plain_matmul(a_data, b_data, g)
    a = Tensor(a_data, requires_grad=grad_a)
    b = Tensor(b_data, requires_grad=grad_b)
    (matmul(a, b) * Tensor(g)).sum().backward()
    if grad_a:
        assert b.grad is None and _rel_err(a.grad, want_ga) <= 1e-12
    else:
        assert a.grad is None and _rel_err(b.grad, want_gb) <= 1e-12


def test_matmul_gemm_path_gradcheck():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3, 4, 3)))
    report = grad_check(lambda: (relu(matmul(a, b)) * w).sum(), {"a": a, "b": b},
                        num_coords=200, rng=np.random.default_rng(0))
    assert report.num_checked == 135
    assert report.ok(1e-7), report


def test_matmul_weight_gradient_allocates_no_batch_stack():
    # A (B, k, o) stack of per-sample weight gradients would be 32*512*512*8 B = 67 MB.
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(32, 4, 512)), requires_grad=True)
    w = Tensor(rng.normal(size=(512, 512)), requires_grad=True)
    tracemalloc.start()
    try:
        matmul(x, w).sum().backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.grad.shape == (512, 512)
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


# ---- no_grad -------------------------------------------------------------------


def test_no_grad_records_no_tape():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    with no_grad():
        outs = [matmul(x, w), relu(x), sigmoid(x), x * 2 + 1, x.sum(),
                concat_features([x, x]), mse(x, np.zeros((2, 3, 4)))]
        leaf = Tensor([1.0], requires_grad=True)
    for out in outs:
        assert not out.requires_grad
        assert not out._edges
    assert leaf.requires_grad
    assert x.grad is None and w.grad is None


def test_op_keeps_edges_only_into_operands_that_require_grad():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    out = matmul(x, w)
    assert len(out._edges) == 1 and out._edges[0][0] is w
    out.sum().backward()
    assert x.grad is None
    np.testing.assert_array_equal(w.grad, x.data.T @ np.ones((3, 2)))
    assert not matmul(x, Tensor(w.data))._edges


def test_constant_operands_gradient_function_never_runs():
    w = Tensor([1.0, 2.0], requires_grad=True)
    const = Tensor([3.0, 4.0])

    def never(g):
        raise AssertionError("gradient function of a constant operand ran")

    out = _record(w.data * const.data, (const, never), (w, lambda g: g * const.data))
    out.sum().backward()
    np.testing.assert_array_equal(w.grad, const.data)
    assert const.grad is None


def _records_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    return (x * 3).requires_grad


def test_no_grad_restores_flag_after_nesting_and_exceptions():
    assert _records_tape()
    with no_grad():
        with no_grad():
            assert not _records_tape()
        assert not _records_tape()
    assert _records_tape()
    with pytest.raises(DimensionError):
        with no_grad():
            Tensor([1.0, 2.0]).item()
    assert _records_tape()
    with no_grad():
        with pytest.raises(DimensionError):
            with no_grad():
                Tensor([1.0, 2.0]).item()
        assert not _records_tape()
    assert _records_tape()

"""Graph layers: convolution, node-axis maps, gPool, and their gradients."""

import numpy as np
import pytest

from graphlift.errors import DimensionError, DomainError
from graphlift.gradcheck import grad_check
from graphlift.keypoints import FIXED_POOL_GROUPS
from graphlift.layers import (
    AdaptiveGraphConvLayer, GPoolLayer, NodeMap, SharedInputGraphConv,
    partition_matrix, selection_matrix, uniform_init,
)
from graphlift.tensor import Tensor, matmul, mse


# ---- adaptive graph convolution -------------------------------------------


def test_agc_forward_hand_oracle():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    w = np.array([[2.0], [1.0]])
    layer = AdaptiveGraphConvLayer(a, 2, 1, "relu", np.random.default_rng(0))
    layer.W.data[...] = w
    x = Tensor([[1.0, 0.0], [0.0, 3.0]])
    # X W = [[2],[3]]; A (XW) = [[5],[3]]; relu keeps both
    out = layer.forward(x)
    np.testing.assert_allclose(out.data, [[5.0], [3.0]])


def test_agc_relu_clips_negative():
    a = np.eye(2)
    w = np.array([[1.0], [1.0]])
    layer = AdaptiveGraphConvLayer(a, 2, 1, "relu", np.random.default_rng(0))
    layer.W.data[...] = w
    out = layer.forward(Tensor([[-3.0, 1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(out.data, [[0.0], [2.0]])
    linear = AdaptiveGraphConvLayer(a, 2, 1, "linear", np.random.default_rng(0))
    linear.W.data[...] = w
    out2 = linear.forward(Tensor([[-3.0, 1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(out2.data, [[-2.0], [2.0]])


def test_agc_zero_adjacency_dead_network():
    rng = np.random.default_rng(0)
    layer = AdaptiveGraphConvLayer(np.zeros((4, 4)), 3, 2, "relu", rng)
    x = Tensor(rng.normal(size=(4, 3)))
    out = layer.forward(x)
    np.testing.assert_array_equal(out.data, np.zeros((4, 2)))
    mse(out, rng.normal(size=(4, 2))).backward()
    # with A = 0 and relu, every gradient is exactly zero
    np.testing.assert_array_equal(layer.W.grad, 0.0)
    np.testing.assert_array_equal(layer.A.grad, 0.0)


def test_agc_batched_matches_loop():
    rng = np.random.default_rng(1)
    layer = AdaptiveGraphConvLayer(rng.random((5, 5)), 3, 2, "relu", rng)
    xb = rng.normal(size=(4, 5, 3))
    batched = layer.forward(Tensor(xb)).data
    for i in range(4):
        single = layer.forward(Tensor(xb[i])).data
        np.testing.assert_allclose(batched[i], single, atol=1e-12)


def test_agc_gradients_against_fd():
    rng = np.random.default_rng(2)
    layer = AdaptiveGraphConvLayer(rng.random((4, 4)), 3, 2, "relu", rng)
    x = Tensor(rng.normal(size=(4, 3)))
    t = rng.normal(size=(4, 2))
    report = grad_check(lambda: mse(layer.forward(x), t),
                        layer.parameters(), eps=1e-5, rng=np.random.default_rng(0))
    assert report.max_rel_err < 1e-6


def test_agc_shape_validation():
    rng = np.random.default_rng(0)
    layer = AdaptiveGraphConvLayer(np.eye(4), 3, 2, "relu", rng)
    with pytest.raises(DimensionError):
        layer.forward(Tensor(np.zeros((5, 3))))
    with pytest.raises(DimensionError):
        layer.forward(Tensor(np.zeros((4, 7))))
    with pytest.raises(DimensionError):
        AdaptiveGraphConvLayer(np.zeros((2, 3)), 3, 2, "relu", rng)
    with pytest.raises(DomainError):
        AdaptiveGraphConvLayer(np.eye(2), 3, 2, "tanh", rng)


# ---- shared-input graph convolution (the refinement's first layer) ---------


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("batch, shared, n, own, out, activation", [
    (32, 2048, 29, 2, 512, "relu"),
    (3, 5, 4, 2, 3, "linear"),
], ids=["desk", "tiny"])
def test_shared_input_conv_matches_concat_formula(batch, shared, n, own, out, activation):
    rng = np.random.default_rng(14)
    layer = SharedInputGraphConv(rng.normal(size=(n, n)), shared, own, out, activation, rng)
    x_data = rng.normal(size=(batch, shared + n * own))
    g = rng.normal(size=(batch, n, out))
    x = Tensor(x_data, requires_grad=True)
    (layer.forward(x) * Tensor(g)).sum().backward()
    y = layer.forward(Tensor(x_data))

    # the plain formula over the built rows X = [1·f, S]: act(A @ X @ W)
    f, s = x_data[:, :shared], x_data[:, shared:].reshape(batch, n, own)
    rows = np.concatenate([np.repeat(f[:, None, :], n, axis=1), s], axis=-1)
    a, w = layer.A.data, layer.W.data
    xw = rows @ w
    pre = a @ xw
    want = np.maximum(pre, 0.0) if activation == "relu" else pre
    g_pre = np.where(pre > 0, g, 0.0) if activation == "relu" else g
    g_xw = a.T @ g_pre
    g_rows = g_xw @ w.T
    want_gx = np.concatenate([g_rows[..., :shared].sum(axis=1),
                              g_rows[..., shared:].reshape(batch, n * own)], axis=-1)
    want_gw = rows.reshape(-1, shared + own).T @ g_xw.reshape(-1, out)
    want_ga = (g_pre @ np.swapaxes(xw, -1, -2)).sum(axis=0)
    assert y.shape == (batch, n, out)
    assert _rel(y.data, want) <= 1e-12
    assert _rel(x.grad, want_gx) <= 1e-12
    assert _rel(layer.W.grad, want_gw) <= 1e-12
    assert _rel(layer.A.grad, want_ga) <= 1e-12


def test_shared_input_conv_has_the_plain_layers_parameters():
    plain_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
    plain = AdaptiveGraphConvLayer(np.eye(29), 66, 8, "relu", plain_rng)
    shared = SharedInputGraphConv(np.eye(29), 64, 2, 8, "relu", rng)
    assert shared.in_features == 66
    for k, p in plain.parameters().items():
        np.testing.assert_array_equal(shared.parameters()[k].data, p.data)
    assert rng.random() == plain_rng.random()     # the same draws were taken


def test_shared_input_conv_shape_validation():
    layer = SharedInputGraphConv(np.eye(4), 5, 2, 3, "relu", np.random.default_rng(0))
    layer.forward(Tensor(np.zeros((2, 13))))
    for shape in [(2, 12), (2, 4, 7), (13,)]:
        with pytest.raises(DimensionError):
            layer.forward(Tensor(np.zeros(shape)))


# ---- trainable pool / unpool (NodeMap) --------------------------------------


def test_pool_row_selector():
    p = np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    layer = NodeMap(p, "P")
    x = np.arange(8.0).reshape(4, 2)
    out = layer.forward(Tensor(x))
    np.testing.assert_array_equal(out.data, x[[2, 0]])


def test_pool_mean_row():
    layer = NodeMap(np.full((1, 4), 0.25), "P")
    x = np.arange(8.0).reshape(4, 2)
    out = layer.forward(Tensor(x))
    np.testing.assert_allclose(out.data, x.mean(axis=0, keepdims=True))


def test_unpool_broadcast_transpose():
    layer = NodeMap(np.ones((4, 1)), "U")
    out = layer.forward(Tensor([[3.0, 5.0]]))
    np.testing.assert_allclose(out.data, np.tile([3.0, 5.0], (4, 1)))


def test_unpool_shape_contract():
    rng = np.random.default_rng(0)
    layer = NodeMap(uniform_init(rng, (8, 4), 4), "U")
    out = layer.forward(Tensor(np.zeros((4, 16))))
    assert out.shape == (8, 16)
    batched = layer.forward(Tensor(np.zeros((2, 4, 16))))
    assert batched.shape == (2, 8, 16)


def test_pool_unpool_composition_is_matrix_product():
    rng = np.random.default_rng(3)
    pool = NodeMap(uniform_init(rng, (3, 6), 6), "P")
    unpool = NodeMap(uniform_init(rng, (6, 3), 3), "U")
    x = rng.normal(size=(6, 4))
    via_layers = unpool.forward(pool.forward(Tensor(x))).data
    explicit = unpool.matrix.data @ pool.matrix.data @ x
    np.testing.assert_allclose(via_layers, explicit, atol=1e-12)


def test_pool_direction_validation():
    # a map reads n_in rows and writes n_out: feeding it the output side
    # (pooled rows to a pool, full rows to an unpool) is a shape error
    rng = np.random.default_rng(0)
    pool = NodeMap(uniform_init(rng, (3, 6), 6), "P")
    unpool = NodeMap(uniform_init(rng, (6, 3), 3), "U")
    with pytest.raises(DimensionError):
        pool.forward(Tensor(np.zeros((3, 4))))
    with pytest.raises(DimensionError):
        unpool.forward(Tensor(np.zeros((2, 6, 4))))
    with pytest.raises(DimensionError):
        NodeMap(np.zeros(6), "P")


def test_pool_unpool_gradients():
    rng = np.random.default_rng(4)
    pool = NodeMap(uniform_init(rng, (3, 6), 6), "P")
    unpool = NodeMap(uniform_init(rng, (6, 3), 3), "U")
    x = Tensor(rng.normal(size=(6, 4)))
    t = rng.normal(size=(6, 4))
    params = {**pool.parameters(), **unpool.parameters()}
    assert list(params) == ["P", "U"]
    report = grad_check(lambda: mse(unpool.forward(pool.forward(x)), t),
                        params, eps=1e-5, rng=np.random.default_rng(0))
    assert report.max_rel_err < 1e-6


# ---- gPool baseline ---------------------------------------------------------


def test_gpool_selects_top_scores():
    # projection picks feature 0 as the score
    x = Tensor(np.array([[1.0, 9.0], [3.0, 9.0], [2.0, 9.0], [0.5, 9.0]]))
    layer = GPoolLayer(4, 2, 2, np.random.default_rng(0))
    layer.p.data[...] = [[1.0], [0.0]]
    pooled, s = layer.forward(x)
    np.testing.assert_array_equal(s.argmax(-1), [1, 2])
    # rows come back gated by sigmoid(score)
    sig = 1 / (1 + np.exp(-np.array([3.0, 2.0])))
    np.testing.assert_allclose(pooled.data, x.data[[1, 2]] * sig[:, None])


def test_gpool_tie_breaks_to_lowest_index():
    x = Tensor(np.array([[2.0], [2.0], [2.0], [1.0]]))
    layer = GPoolLayer(4, 2, 1, np.random.default_rng(0))
    layer.p.data[...] = 1.0
    _, s = layer.forward(x)
    np.testing.assert_array_equal(s.argmax(-1), [0, 1])


def test_gpool_keep_count_guard():
    x = Tensor(np.arange(6.0).reshape(6, 1))
    rng = np.random.default_rng(0)
    # the kept count is given directly and must satisfy 0 < n_out < n_in
    for n_out in (1, 3, 5):
        layer = GPoolLayer(6, n_out, 1, rng)
        layer.p.data[...] = 1.0
        assert layer.forward(x)[0].shape == (n_out, 1)
    for n_out in (0, 6, 7):
        with pytest.raises(DimensionError):
            GPoolLayer(6, n_out, 1, rng)


def test_gpool_permutation_consistency():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 3))
    layer = GPoolLayer(8, 4, 3, np.random.default_rng(0))
    layer.p.data[...] = rng.normal(size=(3, 1))
    idx = layer.forward(Tensor(x))[1].argmax(-1)
    perm = rng.permutation(8)
    idx_p = layer.forward(Tensor(x[perm]))[1].argmax(-1)
    # the same underlying nodes win under any row ordering
    assert set(perm[idx_p]) == set(idx)


def test_gpool_layer_batched_matches_single():
    rng = np.random.default_rng(6)
    layer = GPoolLayer(8, 4, 3, rng)
    xb = rng.normal(size=(3, 8, 3))
    pooled_b, idx_b = layer.forward(Tensor(xb))
    for i in range(3):
        single, idx_s = layer.forward(Tensor(xb[i]))
        np.testing.assert_allclose(pooled_b.data[i], single.data, atol=1e-12)
        np.testing.assert_array_equal(idx_b[i], idx_s)


def test_gpool_gradient():
    rng = np.random.default_rng(7)
    layer = GPoolLayer(8, 4, 3, rng)
    x = Tensor(rng.normal(size=(8, 3)))
    t = rng.normal(size=(4, 3))
    report = grad_check(lambda: mse(layer.forward(x)[0], t),
                        layer.parameters(), eps=1e-5, rng=np.random.default_rng(0))
    assert report.max_rel_err < 1e-5


def test_gather_scatter_rows_round_trip_and_gradients():
    """S @ X with the one-hot selection S gathers rows per sample, S.T puts
    them back in their places, and the round trip passes a gradient check."""
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True, name="x")
    idx = np.array([[3, 1], [0, 4]])
    s = selection_matrix(idx, 5)
    assert s.shape == (2, 2, 5)
    np.testing.assert_array_equal(s[0], np.eye(5)[[3, 1]])
    np.testing.assert_array_equal(selection_matrix(idx[1], 5), s[1])   # unbatched
    picked = matmul(Tensor(s), x)
    np.testing.assert_array_equal(picked.data[0], x.data[0, [3, 1]])
    np.testing.assert_array_equal(picked.data[1], x.data[1, [0, 4]])
    st = Tensor(np.swapaxes(s, -1, -2))
    back = matmul(st, picked).data
    np.testing.assert_array_equal(back[0, [3, 1]], x.data[0, [3, 1]])
    np.testing.assert_array_equal(back[0, [0, 2, 4]], 0.0)
    np.testing.assert_array_equal(back[1, [1, 2, 3]], 0.0)
    t = rng.normal(size=(2, 5, 3))
    report = grad_check(lambda: mse(matmul(st, matmul(Tensor(s), x)), t), {"x": x},
                        eps=1e-5, rng=np.random.default_rng(0))
    assert report.max_rel_err < 1e-8
    # rows never gathered receive exactly zero gradient
    np.testing.assert_array_equal(x.grad[0, [0, 2, 4]], 0.0)


# ---- fixed group-mean pooling (constant NodeMap) ----------------------------


def test_partition_matrix_mean_and_broadcast():
    """The mean map, and its transposed support: the broadcast unpooling map."""
    groups = [(0, 1), (2,)]
    m = partition_matrix(groups, 3)
    np.testing.assert_array_equal(m, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_array_equal((m.T > 0) * 1.0, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_fixed_pool_29_to_15_hand_oracle():
    groups = FIXED_POOL_GROUPS[(29, 15)]
    x = np.arange(29.0)[:, None] * np.array([1.0, 10.0])
    out = NodeMap(partition_matrix(groups, 29), "P", trainable=False).forward(Tensor(x))
    assert out.shape == (15, 2)
    for gi, g in enumerate(groups):
        np.testing.assert_allclose(out.data[gi], x[list(g)].mean(axis=0))


def test_fixed_pool_then_unpool_copies_group_rows():
    groups = [[0, 1], [2, 3]]
    pool = NodeMap(partition_matrix(groups, 4), "P", trainable=False)
    unpool = NodeMap((pool.matrix.data.T > 0) * 1.0, "U", trainable=False)
    x = Tensor(np.arange(8.0).reshape(4, 2))
    up = unpool.forward(pool.forward(x))
    np.testing.assert_array_equal(up.data[0], up.data[1])
    np.testing.assert_array_equal(up.data[2], up.data[3])
    np.testing.assert_allclose(up.data[0], x.data[:2].mean(axis=0))


def test_fixed_layers_have_no_parameters():
    groups = [[0], [1]]
    pool = NodeMap(partition_matrix(groups, 2), "P", trainable=False)
    unpool = NodeMap((pool.matrix.data.T > 0) * 1.0, "U", trainable=False)
    assert pool.parameters() == {} and unpool.parameters() == {}
    assert not pool.matrix.requires_grad and not unpool.matrix.requires_grad

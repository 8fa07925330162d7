"""Graph U-Net assembly: shapes, composition against raw matrix ops, and
the pooling variants."""

from dataclasses import asdict

import numpy as np
import pytest

from graphlift.checkpoint import load_state, save_checkpoint
from graphlift.errors import DimensionError, DomainError
from graphlift.gradcheck import grad_check
from graphlift.tensor import mse
from graphlift.unet import GraphUNetModel, UNetConfig

SMALL = UNetConfig(feature_schedule=(4, 8, 8, 16))


def rand_input(seed=0, batch=1):
    return np.random.default_rng(seed).uniform(100.0, 540.0, size=(batch, 29, 2))


def test_shape_contract_all_variants():
    x = rand_input()
    xb = rand_input(batch=3)
    for pooling in ("trainable", "gpool", "fixed"):
        model = GraphUNetModel(UNetConfig(feature_schedule=(4, 8, 8, 16),
                                          pooling=pooling), seed=1)
        assert model.forward(x).shape == (1, 29, 3)
        assert model.forward(xb).shape == (3, 29, 3)
        with pytest.raises(DimensionError):   # unbatched
            model.forward(x[0])


def test_batched_forward_matches_single():
    model = GraphUNetModel(SMALL, seed=2)
    xb = rand_input(seed=3, batch=4)
    yb = model.forward(xb).data
    for i in range(4):
        np.testing.assert_allclose(yb[i], model.forward(xb[i:i + 1]).data[0], atol=1e-10)


def test_zero_weights_zero_output():
    model = GraphUNetModel(SMALL, seed=0)
    for p in model.parameters().values():
        p.data[...] = 0.0
    out = model.forward(rand_input())
    np.testing.assert_array_equal(out.data, np.zeros((1, 29, 3)))


def test_forward_matches_straight_line_composition():
    """Recompute the whole forward pass with plain numpy matrix products."""
    model = GraphUNetModel(SMALL, seed=4)
    x = rand_input(seed=5)[0]
    cfg = model.config

    h = np.concatenate([(x - cfg.input_center) / cfg.input_scale,
                        np.ones((29, 1))], axis=1)
    skips = []
    for i in range(3):
        conv = model.enc_convs[i]
        h = np.maximum(conv.A.data @ (h @ conv.W.data), 0.0)
        skips.append(h)
        h = model.pools[i].matrix.data @ h
    h = np.maximum(model.bottleneck.A.data @ (h @ model.bottleneck.W.data), 0.0)
    for j in range(3):
        lvl = 2 - j
        h = model.unpools[j].matrix.data @ h
        h = np.concatenate([skips[lvl], h], axis=1)
        conv = model.dec_convs[j]
        h = np.maximum(conv.A.data @ (h @ conv.W.data), 0.0)
    expected = (model.final.A.data @ (h @ model.final.W.data)) * cfg.output_scale

    np.testing.assert_allclose(model.forward(x[None]).data[0], expected, atol=1e-10)


def test_default_parameter_count():
    model = GraphUNetModel(UNetConfig(), seed=0)
    assert model.num_parameters() == 434_755
    # independent arithmetic: convs carry A (n^2) and W (in x out),
    # each level adds a pool (n_out x n_in) and an unpool transpose shape
    ns, fs = (29, 15, 8, 4), (64, 128, 256, 512)
    count = 0
    in_w = 3   # 2 coordinates + constant ones column
    for i in range(3):
        count += ns[i] ** 2 + in_w * fs[i]
        count += 2 * ns[i + 1] * ns[i]
        in_w = fs[i]
    count += ns[3] ** 2 + fs[2] * fs[3]
    for i in reversed(range(3)):
        count += ns[i] ** 2 + (fs[i] + fs[i + 1]) * fs[i]
    count += ns[0] ** 2 + fs[0] * 3
    assert count == 434_755


def test_build_is_deterministic_per_seed():
    a = GraphUNetModel(UNetConfig(), seed=9).parameters()
    b = GraphUNetModel(UNetConfig(), seed=9).parameters()
    for k in a:
        np.testing.assert_array_equal(a[k].data, b[k].data)
    c = GraphUNetModel(UNetConfig(), seed=10).parameters()
    assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


def test_output_not_permutation_invariant():
    model = GraphUNetModel(SMALL, seed=6)
    x = rand_input(seed=7)
    perm = np.random.default_rng(8).permutation(29)
    y = model.forward(x).data
    y_perm = model.forward(x[:, perm]).data
    assert not np.allclose(y_perm, y[:, perm], atol=1e-6)
    assert not np.allclose(y_perm, y, atol=1e-6)


def test_output_reacts_to_input_scale():
    model = GraphUNetModel(SMALL, seed=6)
    x = rand_input(seed=7)
    y1 = model.forward(x).data
    y2 = model.forward(2.0 * x).data
    assert not np.allclose(y2, y1, atol=1e-6)
    assert not np.allclose(y2, 2.0 * y1, atol=1e-6)


@pytest.mark.parametrize("pooling", ["trainable", "gpool"])
def test_pooling_parameters_receive_gradient(pooling):
    # needs non-degenerate widths: a ReLU level can go fully dead in a
    # 4-channel toy net, which starves the gpool projection of gradient
    target = np.random.default_rng(11).normal(size=(1, 29, 3))
    for seed in range(20):
        model = GraphUNetModel(UNetConfig(feature_schedule=(16, 32, 32, 64),
                                          pooling=pooling), seed=seed)
        mse(model.forward(rand_input(seed)), target).backward()
        for name, p in model.parameters().items():
            if "pool" in name:
                assert np.any(p.grad != 0.0), f"seed {seed}: {name} grad all zero"


def test_gradients_match_finite_differences():
    model = GraphUNetModel(UNetConfig(feature_schedule=(4, 4, 4, 4)), seed=12)
    x = rand_input(seed=13)
    t = np.random.default_rng(14).normal(size=(1, 29, 3))
    report = grad_check(lambda: mse(model.forward(x), t), model.parameters(),
                        eps=1e-5, num_coords=120,
                        rng=np.random.default_rng(15))
    assert report.max_rel_err < 1e-4


def test_zeros_init_freezes_everything():
    model = GraphUNetModel(UNetConfig(feature_schedule=(4, 8, 8, 16),
                                      adjacency_init="zeros"), seed=0)
    out = model.forward(rand_input())
    np.testing.assert_array_equal(out.data, 0.0)
    mse(out, np.ones((1, 29, 3))).backward()
    for name, p in model.parameters().items():
        np.testing.assert_array_equal(p.grad, 0.0, err_msg=name)


def test_config_round_trip():
    cfg = UNetConfig(feature_schedule=(4, 8, 8, 16), pooling="fixed",
                     adjacency_init="skeleton")
    assert UNetConfig(**asdict(cfg)) == cfg


def test_config_validation():
    with pytest.raises(DomainError):
        UNetConfig(node_schedule=(28, 15, 8, 4), feature_schedule=(4, 4, 4, 4))
    with pytest.raises(DomainError):
        UNetConfig(node_schedule=(29, 15, 15, 4), feature_schedule=(4, 4, 4, 4))
    with pytest.raises(DomainError):
        UNetConfig(feature_schedule=(4, 4))
    with pytest.raises(DomainError):
        UNetConfig(pooling="mesh")
    with pytest.raises(DomainError):
        UNetConfig(adjacency_init="laplacian")


def test_forward_shape_validation():
    model = GraphUNetModel(SMALL, seed=0)
    with pytest.raises(DimensionError):
        model.forward(np.zeros((1, 28, 2)))
    with pytest.raises(DimensionError):
        model.forward(np.zeros((1, 29, 3)))
    with pytest.raises(DimensionError):
        model.forward(np.zeros((29, 2)))


def test_load_state_validation(tmp_path):
    model = GraphUNetModel(SMALL, seed=0)
    base = str(tmp_path / "unet")
    good = {k: v.data.copy() for k, v in model.parameters().items()}
    save_checkpoint(base, good)
    other = load_state(base, lambda config: GraphUNetModel(SMALL, seed=1))
    np.testing.assert_array_equal(other.final.W.data, model.final.W.data)
    bad = dict(good)
    bad.pop("final.W")
    save_checkpoint(base, bad)
    with pytest.raises(DimensionError):
        load_state(base, lambda config: model)
    bad = dict(good)
    bad["final.W"] = np.zeros((2, 2))
    save_checkpoint(base, bad)
    with pytest.raises(DimensionError):
        load_state(base, lambda config: model)

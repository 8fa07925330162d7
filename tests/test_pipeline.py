"""The full cascade: raster stub, 2D refinement, loss contract, inference."""

import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from graphlift.checkpoint import load_state, save_checkpoint
from graphlift.errors import DimensionError, DomainError
from graphlift.gradcheck import grad_check
from graphlift.pipeline import (HopeLossWeights, HopePipeline, PipelineConfig,
                                hope_loss_terms, rasterize_keypoints)
from graphlift.synth import generate_dataset
from graphlift.tensor import Tensor, mse
from graphlift.unet import UNetConfig

SMALL = PipelineConfig(unet=UNetConfig(feature_schedule=(4, 8, 8, 16)),
                       feature_width=64, refine_widths=(32, 16), raster_grid=8)


@pytest.fixture(scope="module")
def records():
    return generate_dataset(4, seed=21)


# ---- rasterization ----------------------------------------------------------


def test_raster_bins_known_cells():
    # 32x32 over 640px: 20px cells, row-major flattening
    pts = np.array([[0.0, 0.0], [20.0, 40.0], [639.9, 639.9]])
    out = rasterize_keypoints(pts[None])[0]
    assert out.shape == (1024,)
    hits = np.flatnonzero(out)
    np.testing.assert_array_equal(hits, [0, 2 * 32 + 1, 31 * 32 + 31])
    np.testing.assert_array_equal(out[hits], 1.0)


def test_raster_clamps_out_of_image():
    out = rasterize_keypoints(np.array([[[-50.0, 700.0]]]))
    np.testing.assert_array_equal(np.flatnonzero(out), [31 * 32])


@pytest.mark.parametrize("x, col", [(1e19, 31), (1e21, 31), (-1e21, 0), (1.7e308, 31)])
def test_raster_clamps_far_coordinates_without_warning(x, col):
    # cell indices beyond intp's range are clipped before the cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = rasterize_keypoints(np.array([[[x, 10.0]]]))
    np.testing.assert_array_equal(np.flatnonzero(out), [col])


def test_raster_occupancy_not_counts():
    pts = np.array([[5.0, 5.0], [6.0, 6.0], [7.0, 7.0]])   # same cell
    out = rasterize_keypoints(pts[None])
    assert out.sum() == 1.0


def test_raster_batched():
    pts = np.zeros((3, 29, 2))
    out = rasterize_keypoints(pts, grid=8)
    assert out.shape == (3, 64)
    with pytest.raises(DimensionError):
        rasterize_keypoints(np.zeros((3, 29, 3)))
    with pytest.raises(DimensionError):
        rasterize_keypoints(np.zeros((29, 2)))


# ---- stub feature provider --------------------------------------------------


def test_stub_feature_contract(records):
    pipe = HopePipeline(seed=0)
    features, init2d = pipe.stub.encode_batch(records[0].gt2d[None])
    assert features.shape == (1, 2048)
    assert init2d.shape == (1, 29, 2)
    again, _ = pipe.stub.encode_batch(records[0].gt2d[None])
    np.testing.assert_array_equal(features.data, again.data)


def test_stub_is_linear_in_raster(records):
    pipe = HopePipeline(SMALL, seed=1)
    raster = rasterize_keypoints(records[0].gt2d[None], SMALL.raster_grid)
    features, init2d = pipe.stub.encode_batch(records[0].gt2d[None])
    np.testing.assert_allclose(features.data, raster @ pipe.stub.W1.data,
                               atol=1e-12)
    head = features.data @ pipe.stub.W2.data + pipe.stub.b2.data
    np.testing.assert_allclose(init2d.data,
                               head.reshape(1, 29, 2) * 160.0,
                               atol=1e-12)


def _stub_batches():
    """Batches of 32: spread over the image, every keypoint in one cell, and
    every coordinate beyond the image, clipped to the border cells."""
    rng = np.random.default_rng(23)
    spread = rng.uniform(0.0, 640.0, size=(32, 29, 2))
    one_cell = np.full((32, 29, 2), 333.0) + rng.uniform(0.0, 5.0, size=(32, 29, 2))
    clipped = rng.choice([-900.0, -1.0, 640.0, 1e9], size=(32, 29, 2))
    return {"spread": spread, "one cell": one_cell, "clipped": clipped}


@pytest.mark.parametrize("kind", ["spread", "one cell", "clipped"])
def test_stub_reads_only_occupied_cells(kind):
    coords = _stub_batches()[kind]
    stub = HopePipeline(seed=4).stub
    raster = rasterize_keypoints(coords)
    empty = ~raster.any(axis=0)
    assert empty.any()
    features, _ = stub.encode_batch(coords)
    # atol: a feature that sums ~0.03-sized weights to ~1e-6 keeps only the
    # absolute accuracy of its terms, in either summation order
    np.testing.assert_allclose(features.data, raster @ stub.W1.data, rtol=1e-12, atol=1e-15)
    g = np.random.default_rng(24).normal(size=features.shape)
    (features * Tensor(g)).sum().backward()
    np.testing.assert_allclose(stub.W1.grad, raster.T @ g, rtol=1e-12, atol=1e-15)
    assert not stub.W1.grad[empty].any()


def test_stub_gradients_match_finite_differences():
    cfg = PipelineConfig(feature_width=8, raster_grid=4)
    stub = HopePipeline(cfg, seed=6).stub
    rng = np.random.default_rng(25)
    coords = rng.uniform(0.0, 640.0, size=(3, 29, 2))
    coords[0] = 10.0                                  # one sample in one cell
    t_f, t_2d = rng.normal(size=(3, 8)), rng.normal(scale=100.0, size=(3, 29, 2))

    def loss():
        features, init2d = stub.encode_batch(coords)
        return mse(features, t_f) + mse(init2d, t_2d)

    every = sum(p.size for p in stub.parameters().values())
    report = grad_check(loss, stub.parameters(), num_coords=every,
                        rng=np.random.default_rng(26))
    assert report.num_checked == every and report.max_rel_err < 1e-6


# ---- refinement network -----------------------------------------------------


def test_refine_node_features_are_2050_wide():
    pipe = HopePipeline(seed=0)
    assert pipe.refine.layers[0].in_features == 2050


def test_refine_zero_weights_zero_output(records):
    pipe = HopePipeline(SMALL, seed=2)
    for layer in pipe.refine.layers:
        layer.W.data[...] = 0.0
    features, init2d = pipe.stub.encode_batch(records[0].gt2d[None])
    out = pipe.refine.forward(features, init2d)
    np.testing.assert_array_equal(out.data, np.zeros((1, 29, 2)))


def test_refine_matches_composed_matrix_ops(records):
    pipe = HopePipeline(SMALL, seed=3)
    features, init2d = pipe.stub.encode_batch(records[1].gt2d[None])
    out = pipe.refine.forward(features, init2d).data[0]

    f = features.data
    h = np.concatenate([np.tile(f, (29, 1)),
                        (init2d.data[0] - 320.0) / 160.0],
                       axis=1)
    for i, layer in enumerate(pipe.refine.layers):
        h = layer.A.data @ (h @ layer.W.data)
        if i < 2:
            h = np.maximum(h, 0.0)
    np.testing.assert_allclose(out, h * 160.0, atol=1e-10)


def test_each_refine_layer_is_a_pure_function_of_its_one_input(desk_cascade):
    # A per-layer replay (the traced benchmark's) captures each layer's one
    # input during RefineNet.forward and calls that layer alone on it.
    refine = desk_cascade.refine
    calls = []
    for i, layer in enumerate(refine.layers):
        def traced(*args, inner=layer.forward, i=i, **kwargs):
            out = inner(*args, **kwargs)
            calls.append((i, args, kwargs, out))
            return out
        layer.forward = traced          # an instance attribute, deleted below
    gt2d = np.random.default_rng(15).uniform(0.0, 640.0, size=(32, 29, 2))
    try:
        refine.forward(*desk_cascade.stub.encode_batch(gt2d))
    finally:
        for layer in refine.layers:
            del layer.forward
    assert [i for i, *_ in calls] == [0, 1, 2]
    for i, args, kwargs, out in calls:
        assert not kwargs and len(args) == 1 and isinstance(args[0], Tensor)
        again = refine.layers[i].forward(Tensor(args[0].data.copy(), requires_grad=True))
        assert again.data.tobytes() == out.data.tobytes()
    assert calls[0][1][0].shape == (32, 2048 + 29 * 2)


def test_stage1_step_allocation_peak():
    # Desk widths at batch 8.  Zero-filled gradient buffers for every tape
    # node, or a (B, 29, 2048) copy of the features, each push the peak
    # past the bound.
    pipe = HopePipeline(seed=0)
    gt2d = np.random.default_rng(6).uniform(0.0, 640.0, size=(8, 29, 2))
    w = HopeLossWeights()

    def forward_backward():
        features, init2d = pipe.stub.encode_batch(gt2d)
        refined = pipe.refine.forward(features, init2d)
        (mse(init2d, gt2d) * w.alpha + mse(refined, gt2d) * w.beta).backward()

    forward_backward()
    for p in pipe.stub_refine_parameters().values():
        p.grad = None
    tracemalloc.start()
    try:
        forward_backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 42 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_refine_rejects_bad_shapes():
    pipe = HopePipeline(SMALL, seed=0)
    with pytest.raises(DimensionError):
        pipe.refine.forward(Tensor(np.zeros((1, 10))), Tensor(np.zeros((1, 29, 2))))
    with pytest.raises(DimensionError):
        pipe.refine.forward(Tensor(np.zeros((1, SMALL.feature_width))),
                            Tensor(np.zeros((1, 21, 2))))
    with pytest.raises(DimensionError):   # unbatched
        pipe.refine.forward(Tensor(np.zeros(SMALL.feature_width)),
                            Tensor(np.zeros((29, 2))))


# ---- loss contract ----------------------------------------------------------


def test_loss_zero_iff_perfect(records):
    gt2d, gt3d = records[0].gt2d, records[0].gt3d
    total, l_init, l_2d, l_3d = hope_loss_terms(
        Tensor(gt2d), Tensor(gt2d), Tensor(gt3d), gt2d, gt3d)
    assert total.item() == 0.0
    assert l_init.item() == l_2d.item() == l_3d.item() == 0.0


def test_loss_ten_pixel_offset_oracle(records):
    """init2d off by (10, 0) px on every node, rest perfect: the init term
    averages 100 px^2 over half the coordinates, so total = 0.1 * 50 = 5."""
    gt2d, gt3d = records[0].gt2d, records[0].gt3d
    init2d = gt2d + np.array([10.0, 0.0])
    total = hope_loss_terms(Tensor(init2d), Tensor(gt2d), Tensor(gt3d), gt2d, gt3d)[0]
    assert abs(total.item() - 5.0) < 1e-12


def test_loss_weight_degeneracy(records):
    gt2d, gt3d = records[0].gt2d, records[0].gt3d
    pred3d = gt3d + 2.0
    total = hope_loss_terms(Tensor(gt2d + 7.0), Tensor(gt2d + 3.0), Tensor(pred3d),
                            gt2d, gt3d, HopeLossWeights(alpha=0.0, beta=0.0))[0]
    np.testing.assert_allclose(total.item(), 4.0, atol=1e-12)


def test_loss_total_combines_terms(records):
    gt2d, gt3d = records[0].gt2d, records[0].gt3d
    total, l_init, l_2d, l_3d = hope_loss_terms(
        Tensor(gt2d + 1.0), Tensor(gt2d - 2.0), Tensor(gt3d + 3.0), gt2d, gt3d)
    np.testing.assert_allclose(
        total.item(), 0.1 * l_init.item() + 0.1 * l_2d.item() + l_3d.item(),
        atol=1e-12)


def test_loss_weights_validation():
    with pytest.raises(DomainError):
        HopeLossWeights(alpha=-0.1)


# ---- full pipeline ----------------------------------------------------------


def test_pipeline_build_deterministic():
    a = HopePipeline(SMALL, seed=5).parameters()
    b = HopePipeline(SMALL, seed=5).parameters()
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k].data, b[k].data)


def test_forward_batch_shapes_and_determinism(records):
    pipe = HopePipeline(SMALL, seed=6)
    _, refined, pred3d = pipe.forward_batch(records[2].gt2d[None])
    assert refined.shape == (1, 29, 2) and pred3d.shape == (1, 29, 3)
    _, refined2, pred3d2 = pipe.forward_batch(records[2].gt2d[None])
    np.testing.assert_array_equal(refined.data, refined2.data)
    np.testing.assert_array_equal(pred3d.data, pred3d2.data)
    with pytest.raises(DimensionError):   # unbatched
        pipe.forward_batch(records[2].gt2d)


def test_forward_batch_matches_stagewise(records):
    pipe = HopePipeline(SMALL, seed=7)
    batch = np.stack([r.gt2d for r in records[:3]])
    init_b, refined_b, pred_b = pipe.forward_batch(batch)
    features, init2d = pipe.stub.encode_batch(batch)
    np.testing.assert_array_equal(init_b.data, init2d.data)
    refined = pipe.refine.forward(features, init2d)
    np.testing.assert_array_equal(refined_b.data, refined.data)
    np.testing.assert_array_equal(pred_b.data, pipe.unet.forward(refined).data)


def test_loss_gradient_reaches_stub(records):
    pipe = HopePipeline(SMALL, seed=8)
    batch = np.stack([r.gt2d for r in records[:2]])
    gt3d = np.stack([r.gt3d for r in records[:2]])
    init2d, refined, pred3d = pipe.forward_batch(batch)
    total = hope_loss_terms(init2d, refined, pred3d, batch, gt3d)[0]
    total.backward()
    assert np.any(pipe.stub.W1.grad != 0.0)
    assert np.any(pipe.stub.W2.grad != 0.0)
    assert np.any(pipe.unet.final.W.grad != 0.0)


def test_pipeline_gradients_match_finite_differences(records):
    tiny = PipelineConfig(unet=UNetConfig(feature_schedule=(4, 4, 4, 4)),
                          feature_width=16, refine_widths=(8, 8), raster_grid=4)
    pipe = HopePipeline(tiny, seed=9)
    batch = np.stack([r.gt2d for r in records[:2]])
    gt3d = np.stack([r.gt3d for r in records[:2]])

    def loss():
        init2d, refined, pred3d = pipe.forward_batch(batch)
        return hope_loss_terms(init2d, refined, pred3d, batch, gt3d)[0]

    report = grad_check(loss, pipe.parameters(), eps=1e-5, num_coords=80,
                        rng=np.random.default_rng(10))
    assert report.max_rel_err < 1e-4


def test_pipeline_state_round_trip(tmp_path):
    pipe = HopePipeline(SMALL, seed=11)
    base = str(tmp_path / "pipe")
    save_checkpoint(base, pipe.parameters(), pipe.config_dict())
    other = load_state(base, lambda config: HopePipeline(SMALL, seed=12))
    for k, v in other.parameters().items():
        np.testing.assert_array_equal(v.data, pipe.parameters()[k].data)
    bad = dict(pipe.parameters())
    del bad["stub.W1"]
    save_checkpoint(base, bad, pipe.config_dict())
    with pytest.raises(DimensionError):
        load_state(base, lambda config: HopePipeline(SMALL, seed=12))
    assert PipelineConfig.from_dict(asdict(SMALL)) == SMALL


def test_pipeline_config_validation():
    with pytest.raises(DomainError):
        PipelineConfig(feature_width=0)
    with pytest.raises(DomainError):
        PipelineConfig(refine_widths=(4, 0))

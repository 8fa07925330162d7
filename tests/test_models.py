"""Baseline models and the save/load dispatch across model kinds."""

import json

import numpy as np
import pytest

from graphlift.errors import CheckpointFormatError, DimensionError
from graphlift.checkpoint import save_checkpoint
from graphlift.models import (FcBaselineModel, PlainGcnModel, load_model,
                              save_model)
from graphlift.pipeline import HopePipeline, PipelineConfig
from graphlift.tensor import Tensor, mse
from graphlift.unet import GraphUNetModel, UNetConfig

SMALL_UNET = UNetConfig(feature_schedule=(4, 8, 8, 16))
SMALL_PIPE = PipelineConfig(unet=SMALL_UNET, feature_width=32,
                            refine_widths=(16, 8), raster_grid=8)


def rand_input(seed=0, batch=1):
    return np.random.default_rng(seed).uniform(100.0, 540.0, size=(batch, 29, 2))


# ---- fc baseline ------------------------------------------------------------


def test_fc_shapes_and_param_count():
    model = FcBaselineModel(hidden=(256, 256), seed=0)
    assert model.forward(rand_input()).shape == (1, 29, 3)
    assert model.forward(rand_input(batch=5)).shape == (5, 29, 3)
    # dense stack over the 87-long flattened input (29 x 3 with ones column)
    assert sum(p.size for p in model.parameters().values()) == 87 * 256 + 256 * 256 + 256 * 87


def test_fc_three_dense_layers():
    model = FcBaselineModel(seed=1)
    assert sorted(model.parameters()) == ["fc0.W", "fc1.W", "fc2.W"]
    x = rand_input(seed=2)[0]
    h = np.concatenate([(x - 320.0) / 160.0, np.ones((29, 1))], axis=1).reshape(87)
    for w in model.weights[:-1]:
        h = np.maximum(h @ w.data, 0.0)
    expected = (h @ model.weights[-1].data).reshape(29, 3) * 250.0
    np.testing.assert_allclose(model.forward(x[None]).data[0], expected, atol=1e-10)


def test_fc_gradients_flow():
    model = FcBaselineModel(hidden=(16, 16), seed=3)
    mse(model.forward(rand_input()), np.zeros((1, 29, 3))).backward()
    for p in model.parameters().values():
        assert np.any(p.grad != 0.0)


# ---- plain gcn baseline ------------------------------------------------------


def test_gcn_shapes_and_fixed_graph():
    model = PlainGcnModel(hidden=(128, 128), seed=0)
    assert model.forward(rand_input()).shape == (1, 29, 3)
    assert model.forward(rand_input(batch=4)).shape == (4, 29, 3)
    assert sorted(model.parameters()) == ["conv0.W", "conv1.W", "conv2.W"]
    assert sum(p.size for p in model.parameters().values()) == 3 * 128 + 128 * 128 + 128 * 3
    # the graph itself is not a parameter and does not train
    assert not model.adjacency.requires_grad


def test_gcn_matches_composed_ops():
    model = PlainGcnModel(hidden=(8, 8), seed=4)
    x = rand_input(seed=5)[0]
    h = np.concatenate([(x - 320.0) / 160.0, np.ones((29, 1))], axis=1)
    a = model.adjacency.data
    for i, w in enumerate(model.weights):
        h = a @ (h @ w.data)
        if i < 2:
            h = np.maximum(h, 0.0)
    np.testing.assert_allclose(model.forward(x[None]).data[0], h * 250.0, atol=1e-10)


def test_models_validate_input_shape():
    for model in (FcBaselineModel(hidden=(8, 8)), PlainGcnModel(hidden=(8, 8))):
        with pytest.raises(DimensionError):
            model.forward(np.zeros((1, 21, 2)))
        with pytest.raises(DimensionError):   # unbatched
            model.forward(np.zeros((29, 2)))


# ---- save / load dispatch -----------------------------------------------------


def assert_params_equal(a, b):
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k].data, b[k].data)


@pytest.mark.parametrize("build", [
    lambda: FcBaselineModel(hidden=(16, 16), seed=7),
    lambda: PlainGcnModel(hidden=(8, 8), seed=7),
    lambda: GraphUNetModel(SMALL_UNET, seed=7),
    lambda: HopePipeline(SMALL_PIPE, seed=7),
], ids=["fc", "gcn", "unet", "pipeline"])
def test_save_load_round_trip(build, tmp_path):
    model = build()
    # make the state distinguishable from a fresh seed-7 build
    first = next(iter(model.parameters().values()))
    first.data += 0.25
    base = str(tmp_path / "model")
    save_model(base, model)
    back = load_model(base)
    assert type(back) is type(model)
    assert_params_equal(back.parameters(), model.parameters())


def test_loaded_model_predicts_identically(tmp_path):
    model = GraphUNetModel(SMALL_UNET, seed=8)
    base = str(tmp_path / "unet")
    save_model(base, model)
    back = load_model(base)
    x = rand_input(seed=9, batch=3)
    np.testing.assert_array_equal(back.forward(x).data, model.forward(x).data)


# Checkpoint names and shapes, in blob order, of the SMALL_UNET variants.
# Old checkpoints load only while these stay exactly as they are.
_ENC = [("enc0.A", (29, 29)), ("enc0.W", (3, 4)), ("enc1.A", (15, 15)),
        ("enc1.W", (4, 8)), ("enc2.A", (8, 8)), ("enc2.W", (8, 8))]
_DEC = [("bottleneck.A", (4, 4)), ("bottleneck.W", (8, 16)), ("dec2.A", (8, 8)),
        ("dec2.W", (24, 8)), ("dec1.A", (15, 15)), ("dec1.W", (16, 8)),
        ("dec0.A", (29, 29)), ("dec0.W", (12, 4)), ("final.A", (29, 29)),
        ("final.W", (4, 3))]
PINNED_UNET_STATE = {
    "trainable": _ENC[:2] + [("pool0.P", (15, 29))] + _ENC[2:4] + [("pool1.P", (8, 15))]
    + _ENC[4:] + [("pool2.P", (4, 8))] + _DEC[:2] + [("unpool2.U", (8, 4))] + _DEC[2:4]
    + [("unpool1.U", (15, 8))] + _DEC[4:6] + [("unpool0.U", (29, 15))] + _DEC[6:],
    "gpool": _ENC[:2] + [("pool0.p", (4, 1))] + _ENC[2:4] + [("pool1.p", (8, 1))]
    + _ENC[4:] + [("pool2.p", (8, 1))] + _DEC,
    "fixed": _ENC + _DEC,
}
PINNED_STUB_REFINE_STATE = [
    ("stub.W1", (64, 32)), ("stub.W2", (32, 58)), ("stub.b2", (58,)),
    ("refine.conv0.A", (29, 29)), ("refine.conv0.W", (34, 16)),
    ("refine.conv1.A", (29, 29)), ("refine.conv1.W", (16, 8)),
    ("refine.conv2.A", (29, 29)), ("refine.conv2.W", (8, 2)),
]


@pytest.mark.parametrize("pooling", ["trainable", "gpool", "fixed"])
def test_checkpoint_names_and_shapes_are_pinned(pooling, tmp_path):
    model = GraphUNetModel(UNetConfig(feature_schedule=(4, 8, 8, 16), pooling=pooling),
                           seed=0)
    state = [(k, p.shape) for k, p in model.parameters().items()]
    assert state == PINNED_UNET_STATE[pooling]
    save_model(str(tmp_path / "m"), model)
    with open(tmp_path / "m.json") as f:
        manifest = json.load(f)["params"]
    assert {k: tuple(v["shape"]) for k, v in manifest.items()} == dict(state)


def test_pipeline_checkpoint_names_and_shapes_are_pinned():
    pipe = HopePipeline(SMALL_PIPE, seed=0)
    state = [(k, p.shape) for k, p in pipe.parameters().items()]
    unet = [(f"unet.{k}", shape) for k, shape in PINNED_UNET_STATE["trainable"]]
    assert state == PINNED_STUB_REFINE_STATE + unet


_DEFAULT_UNET_CONFIG = {
    "adjacency_init": "identity", "feature_schedule": [64, 128, 256, 512],
    "in_features": 2, "input_center": 320.0, "input_scale": 160.0,
    "node_schedule": [29, 15, 8, 4], "out_features": 3, "output_scale": 250.0,
    "pooling": "trainable",
}
# The manifest config blocks that earlier releases wrote, one per model
# kind and pooling variant.  They stored the constants below as config
# keys; this release writes the same blocks without them.
PINNED_CONFIGS = {
    "pipeline": (lambda: HopePipeline(seed=0), {
        "kind": "pipeline", "seed": 0, "pipeline": {
            "feature_width": 2048, "image_size": 640.0, "input_center": 320.0,
            "input_scale": 160.0, "raster_grid": 32, "refine_output_scale": 160.0,
            "refine_widths": [512, 128], "stub_output_scale": 160.0,
            "unet": _DEFAULT_UNET_CONFIG}}),
    "trainable": (lambda: GraphUNetModel(seed=1), {
        "kind": "unet", "seed": 1, "unet": _DEFAULT_UNET_CONFIG}),
    "gpool": (lambda: GraphUNetModel(UNetConfig(feature_schedule=(4, 8, 8, 16),
                                                pooling="gpool"), seed=3), {
        "kind": "unet", "seed": 3, "unet": {
            **_DEFAULT_UNET_CONFIG, "feature_schedule": [4, 8, 8, 16], "pooling": "gpool"}}),
    "fixed": (lambda: GraphUNetModel(UNetConfig(feature_schedule=(4, 8, 8, 16),
                                                pooling="fixed"), seed=5), {
        "kind": "unet", "seed": 5, "unet": {
            **_DEFAULT_UNET_CONFIG, "feature_schedule": [4, 8, 8, 16], "pooling": "fixed"}}),
    "fc": (lambda: FcBaselineModel(seed=2), {"fc": {"hidden": [256, 256]}, "kind": "fc", "seed": 2}),
    "gcn": (lambda: PlainGcnModel(seed=3), {"gcn": {"hidden": [128, 128]}, "kind": "gcn", "seed": 3}),
}
REMOVED_KEYS = {
    "unet": {"in_features": 2, "input_center": 320.0, "input_scale": 160.0,
             "node_schedule": [29, 15, 8, 4], "out_features": 3, "output_scale": 250.0},
    "pipeline": {"image_size": 640.0, "input_center": 320.0, "input_scale": 160.0,
                 "refine_output_scale": 160.0, "stub_output_scale": 160.0},
}


def _current(block: dict, removed=()) -> dict:
    """An earlier release's config block as this release writes it: each
    nested block less the REMOVED_KEYS listed under its name."""
    return {k: _current(v, REMOVED_KEYS.get(k, ())) if isinstance(v, dict) else v
            for k, v in block.items() if k not in removed}


@pytest.mark.parametrize("kind", sorted(PINNED_CONFIGS))
def test_manifest_config_is_pinned(kind, tmp_path):
    build, old = PINNED_CONFIGS[kind]
    model = build()
    save_model(str(tmp_path / "new"), model)
    with open(tmp_path / "new.json") as f:
        assert json.load(f)["config"] == _current(old)
    save_checkpoint(str(tmp_path / "old"), model.parameters(), old)
    back = load_model(str(tmp_path / "old"))
    assert back.config_dict() == model.config_dict()


# One other value for every removed key, including one nested in a cascade.
OTHER_VALUES = [
    ("unet.node_schedule", [29, 15, 8]),
    ("unet.in_features", 3),
    ("unet.out_features", 2),
    ("unet.input_center", 0.0),
    ("unet.input_scale", 100.0),
    ("unet.output_scale", 1.0),
    ("pipeline.image_size", 320.0),
    ("pipeline.input_center", 0.0),
    ("pipeline.input_scale", 100.0),
    ("pipeline.stub_output_scale", 250.0),
    ("pipeline.refine_output_scale", 1.0),
    ("pipeline.unet.output_scale", 1000.0),
]


@pytest.mark.parametrize("key, value", OTHER_VALUES, ids=[k for k, _ in OTHER_VALUES])
def test_removed_key_at_another_value_rejected(tmp_path, key, value):
    # a model trained under another normalization would predict wrongly
    *path, name = key.split(".")
    build, old = PINNED_CONFIGS["pipeline" if path[0] == "pipeline" else "trainable"]
    config = json.loads(json.dumps(old))
    block = config
    for part in path:
        block = block[part]
    block[name] = value
    base = str(tmp_path / "old")
    save_checkpoint(base, build().parameters(), config)
    with pytest.raises(CheckpointFormatError, match=name):
        load_model(base)


def test_load_unknown_kind_rejected(tmp_path):
    base = str(tmp_path / "weird")
    save_checkpoint(base, {"w": Tensor(np.zeros(3))}, {"kind": "transformer"})
    with pytest.raises(CheckpointFormatError):
        load_model(base)


def test_load_malformed_config_rejected(tmp_path):
    base = str(tmp_path / "broken")
    save_checkpoint(base, {"w": Tensor(np.zeros(3))}, {"kind": "fc"})
    with pytest.raises(CheckpointFormatError):
        load_model(base)
    config = GraphUNetModel(SMALL_UNET).config_dict()
    config["unet"]["pooling"] = "mesh"   # out of range, not a usage error
    save_checkpoint(base, {"w": Tensor(np.zeros(3))}, config)
    with pytest.raises(CheckpointFormatError):
        load_model(base)
    config["unet"] = ["trainable"]       # not an object
    save_checkpoint(base, {"w": Tensor(np.zeros(3))}, config)
    with pytest.raises(CheckpointFormatError):
        load_model(base)


@pytest.mark.parametrize("edit", ["renamed", "transposed"])
def test_load_parameters_that_do_not_fit_the_config_rejected(tmp_path, edit):
    model = GraphUNetModel(SMALL_UNET, seed=3)
    params = dict(model.parameters())
    if edit == "renamed":
        params["final.X"] = params.pop("final.W")
    else:
        assert params["final.W"].shape == (4, 3)
        params["final.W"] = params["final.W"].data.reshape(3, 4)
    base = str(tmp_path / "mismatch")
    save_checkpoint(base, params, model.config_dict())
    with pytest.raises(CheckpointFormatError, match="final"):
        load_model(base)

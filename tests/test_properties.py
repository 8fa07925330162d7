"""Property tests: gradients of broadcasting ops on random shapes, bitwise
round trips of checkpoints and datasets, and the CLI's exit codes.

Every gradient case is checked against central differences by grad_check.
Binary-op shapes are drawn so that operands broadcast against each other by
numpy rules: each operand keeps a suffix of a common shape and may shrink
any of its axes to 1.  Concatenated operands share their leading shape.
Runs are derandomized, so the examples are the same each run.
"""

import contextlib
import csv
import io
import json
import math
import operator
import os
import shutil
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest

from graphlift.checkpoint import blob_path, load_checkpoint, manifest_path, save_checkpoint
from graphlift.cli import main
from graphlift.gradcheck import grad_check
from graphlift.keypoints import NUM_NODES
from graphlift.models import load_model, save_model
from graphlift.synth import Camera, SampleRecord, generate_dataset, load_dataset, save_dataset
from graphlift.tensor import Tensor, concat_features
from graphlift.unet import GraphUNetModel, UNetConfig

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
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=0, max_size=2)))
    count = draw(st.integers(1, 3))
    shapes = [lead + (draw(st.integers(1, 3)),) for _ in range(count)]
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
    report = grad_check(lambda: (op(a, b) * w).sum(), {"a": a, "b": b},
                        rng=np.random.default_rng(0))
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
                        {f"t{i}": t for i, t in enumerate(ts)}, rng=np.random.default_rng(0))
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
    report = grad_check(lambda: (((x + x) + x * x) * w).sum(), {"x": x},
                        rng=np.random.default_rng(0))
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


# ---- CLI exit codes -----------------------------------------------------------


def _converts(convert, text: str) -> bool:
    try:
        convert(text)
    except ValueError:
        return False
    return True


# Values each option must reject.  Texts are filtered by the option's own
# rule: a seed is str.isdecimal (which "٣" passes, and int() reads as 3).
not_seeds = st.text(max_size=6).filter(
    lambda t: not all(s.isdecimal() for s in t.split(",")))
not_int_list = st.text(max_size=8).filter(
    lambda t: not _converts(lambda x: [int(s) for s in x.split(",")], t))
not_positive = (st.floats(max_value=0.0).map(repr) | st.sampled_from(["nan", "inf", "-inf"])
                | st.text(max_size=6).filter(lambda t: not _converts(float, t)))


def not_one_of(*choices):
    return st.text(max_size=8).filter(lambda t: t not in choices)


PREFIX = {
    "gen": ["gen", "--n", "2", "--out", "{out}"],
    "train": ["train", "--data", "{data}", "--out-ckpt", "{out}"],
    "eval": ["eval", "--data", "{data}", "--ckpt", "{ckpt}", "--report", "{out}"],
    "ablate": ["ablate", "--suite", "pooling", "--data", "{data}", "--out-dir", "{out}"],
    "gradcheck": ["gradcheck"],
}
# (command, option, values it rejects): each line parses up to that option
BAD_ARGUMENTS = [
    ("gen", "--seed", not_seeds), ("train", "--seed", not_seeds),
    ("ablate", "--seeds", not_seeds), ("gradcheck", "--seed", not_seeds),
    ("train", "--stage-epochs", not_int_list), ("ablate", "--widths", not_int_list),
    ("gradcheck", "--tol", not_positive), ("eval", "--threshold-limit", not_positive),
    ("ablate", "--suite", not_one_of("architecture", "pooling", "adjacency")),
    ("train", "--preset", not_one_of("desk", "paper")),
    ("gradcheck", "--target", not_one_of("layers", "unet", "pipeline")),
]
# (command line, the file in it that is bad)
BAD_FILE_COMMANDS = [
    (["train", "--data", "{bad}", "--out-ckpt", "{out}"], "data"),
    (["eval", "--data", "{bad}", "--ckpt", "{ckpt}", "--report", "{out}"], "data"),
    (["ablate", "--suite", "pooling", "--data", "{bad}", "--out-dir", "{out}"], "data"),
    (["eval", "--data", "{data}", "--ckpt", "{bad}", "--report", "{out}"], "ckpt"),
    (["export-adjacency", "--ckpt", "{bad}", "--out-dir", "{out}"], "ckpt"),
]
# JSON that is no dataset record and no checkpoint manifest
json_text = st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=4),
                         lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                         max_leaves=6).map(json.dumps)
CLI_SETTINGS = hypothesis.settings(SETTINGS, max_examples=60)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A valid two-sample dataset and a valid small U-Net checkpoint."""
    tmp = tmp_path_factory.mktemp("cli")
    save_dataset(str(tmp / "data.jsonl"), generate_dataset(2, seed=0))
    save_model(str(tmp / "ck"), GraphUNetModel(UNetConfig(feature_schedule=(4, 8, 8, 16))))
    return {"data": str(tmp / "data.jsonl"), "ckpt": str(tmp / "ck")}


def _run(argv) -> tuple[int, str]:
    """main(argv)'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


@CLI_SETTINGS
@hypothesis.given(st.data())
def test_malformed_arguments_exit_1(cli_inputs, data):
    command, option, values = data.draw(st.sampled_from(BAD_ARGUMENTS))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = [a.format(out=out, **cli_inputs) for a in PREFIX[command]]
        rc, err = _run(argv + [option, data.draw(values)])
        assert (rc, err.split(":")[0]) == (1, "usage error"), err
        assert not os.path.exists(out)


@CLI_SETTINGS
@hypothesis.given(st.sampled_from(BAD_FILE_COMMANDS),
                  st.sampled_from(["missing", "directory", "not utf-8", "malformed", "cut short"]),
                  st.text(max_size=40) | json_text, st.binary(max_size=16))
@hypothesis.example(BAD_FILE_COMMANDS[-1], "malformed", "[0]", b"")   # a manifest not an object
def test_missing_or_malformed_files_exit_2(cli_inputs, case, fault, text, raw):
    template, which = case
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad")
        # a checkpoint's manifest takes the fault; its blob is the valid one
        path = manifest_path(bad) if which == "ckpt" else bad
        if which == "ckpt":
            shutil.copyfile(blob_path(cli_inputs["ckpt"]), blob_path(bad))
        if fault == "directory":
            os.mkdir(path)
        elif fault == "not utf-8":
            with open(path, "wb") as f:
                f.write(raw + b"\xff")
        elif fault == "malformed":
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        elif fault == "cut short":      # a valid file missing its last 2+ bytes
            good = cli_inputs[which]
            shutil.copyfile(manifest_path(good) if which == "ckpt" else good, path)
            cut = blob_path(bad) if which == "ckpt" else path
            with open(cut, "r+b") as f:     # a dataset loses at least "}\n"
                f.truncate(max(os.path.getsize(cut) - 2 - len(raw), 0))
        out = os.path.join(tmp, "out")
        argv = [a.format(bad=bad, out=out, **cli_inputs) for a in template]
        rc, err = _run(argv)
        assert (rc, err.split(":")[0]) == (2, "data error"), err
        assert not os.path.exists(out)


@pytest.fixture(scope="module")
def small_records():
    return generate_dataset(4, seed=0)


@hypothesis.settings(SETTINGS, max_examples=20)
@hypothesis.given(st.sets(st.integers(0, 3), min_size=1), st.integers(160, 300),
                  st.sampled_from(["1,1,0", "1,0,1"]))
@hypothesis.example({0, 1, 2, 3}, 300, "1,0,1")       # the top of the range
def test_overflowing_3d_targets_exit_3_with_last_good_state(small_records, scaled, k,
                                                            stage_epochs):
    # gt3d * 10**k stays finite with positive depth, but its squared error
    # overflows the 3D loss: stage 1 trains on 2D only, and the first
    # batch of stage 2 or 3 holds every record.
    records = [replace(r, gt3d=r.gt3d * 10.0 ** k) if i in scaled else r
               for i, r in enumerate(small_records)]
    with tempfile.TemporaryDirectory() as tmp:
        data, base = os.path.join(tmp, "data.jsonl"), os.path.join(tmp, "ck")
        save_dataset(data, records)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, err = _run(["train", "--data", data, "--out-ckpt", base,
                            "--stage-epochs", stage_epochs])
        assert rc == 3 and err.startswith("training diverged"), err
        with open(base + "_log.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(r["stage"] == "1" and math.isfinite(float(r["total"]))
                            for r in rows)
        for p in load_model(base).parameters().values():
            assert np.all(np.isfinite(p.data))

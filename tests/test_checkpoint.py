"""Checkpoint manifest + blob round-trips and corruption handling."""

import gc
import json
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphlift import checkpoint
from graphlift.checkpoint import blob_path, load_checkpoint, manifest_path, save_checkpoint
from graphlift.errors import CheckpointFormatError
from graphlift.models import load_model
from graphlift.tensor import Tensor


def _roundtrip(tmp_path, params, config=None):
    base = str(tmp_path / "ck")
    save_checkpoint(base, params, config)
    return load_checkpoint(base)


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "a.W": Tensor(rng.normal(size=(3, 4))),
        "b": rng.uniform(size=7),
        "scalar": np.array(np.pi),
    }
    arrays, config = _roundtrip(tmp_path, params, {"kind": "demo", "n": 3})
    assert config == {"kind": "demo", "n": 3}
    assert set(arrays) == {"a.W", "b", "scalar"}
    for k in params:
        want = params[k].data if isinstance(params[k], Tensor) else params[k]
        np.testing.assert_array_equal(arrays[k], want)   # bit-exact
    assert arrays["scalar"].shape == ()


def test_manifest_is_stable_json(tmp_path):
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"w": np.zeros(2)}, {"z": 1, "a": 2})
    text1 = Path(manifest_path(base)).read_text()
    save_checkpoint(base, {"w": np.zeros(2)}, {"a": 2, "z": 1})
    text2 = Path(manifest_path(base)).read_text()
    assert text1 == text2          # sorted keys make the file order-independent
    manifest = json.loads(text1)
    assert manifest["format_version"] == 1


def test_missing_files(tmp_path):
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(str(tmp_path / "nope"))
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"w": np.zeros(2)})
    (tmp_path / "ck.bin").unlink()
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(base)


def test_truncated_blob(tmp_path):
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"w": np.arange(4.0)})
    blob = Path(blob_path(base)).read_bytes()
    Path(blob_path(base)).write_bytes(blob[:-8])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(base)


def test_oversized_blob(tmp_path):
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"w": np.arange(4.0)})
    with open(blob_path(base), "ab") as f:
        f.write(b"\x00" * 8)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(base)
    # two 1-element params both at offset 0 of a 16-byte blob: the sizes add
    # up, but the ranges overlap and leave the second half unread
    save_checkpoint(base, {"a": np.ones(1), "b": np.full(1, 2.0)})
    manifest = json.loads(Path(manifest_path(base)).read_text())
    manifest["params"]["b"]["offset"] = 0
    Path(manifest_path(base)).write_text(json.dumps(manifest))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(base)


def test_bad_version(tmp_path):
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"w": np.zeros(1)})
    manifest = json.loads(Path(manifest_path(base)).read_text())
    manifest["format_version"] = 99
    Path(manifest_path(base)).write_text(json.dumps(manifest))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(base)


def test_non_finite_blob_rejected(tmp_path):
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"w": np.zeros(3)})
    bad = np.array([1.0, np.nan, 2.0]).astype("<f8").tobytes()
    Path(blob_path(base)).write_bytes(bad)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(base)


def test_corrupt_manifest_json(tmp_path):
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"w": np.zeros(1)})
    for text in (b"{not json", b'{"format_version": 1, "x": "\xff\xfe"}'):
        Path(manifest_path(base)).write_bytes(text)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(base)


def test_bad_dtype_tag(tmp_path):
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"w": np.zeros(1)})
    good = json.loads(Path(manifest_path(base)).read_text())["params"]["w"]
    for entry in ({**good, "dtype": "f32"}, [good], {**good, "shape": 5},
                  {**good, "shape": [True]}, {**good, "shape": [2**62, 8]}):
        manifest = json.loads(Path(manifest_path(base)).read_text())
        manifest["params"]["w"] = entry
        Path(manifest_path(base)).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(base)


def test_manifest_is_validated_before_data_is_read(tmp_path):
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"first": np.array([1.0, np.nan]), "last": np.zeros(2)})
    with open(manifest_path(base)) as f:
        manifest = json.load(f)
    manifest["params"]["last"]["shape"] = [-2]
    with open(manifest_path(base), "w") as f:
        json.dump(manifest, f)
    with pytest.raises(CheckpointFormatError, match="bad shape"):
        load_checkpoint(base)


def test_short_read_is_a_format_error_and_closes_the_blob(tmp_path, monkeypatch):
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"a": np.ones(2), "b": np.arange(2.0)})
    with open(blob_path(base), "r+b") as f:
        f.truncate(24)
    # the blob shrinks after its size was taken: the manifest checks pass
    monkeypatch.setattr(checkpoint.os, "fstat", lambda fd: types.SimpleNamespace(st_size=32))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(CheckpointFormatError, match="ended early"):
            load_checkpoint(base)
        gc.collect()   # an unclosed blob warns when the traceback lets it go
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# ---- memory: at most one model copy ------------------------------------------


def _traced_peak(fn):
    """fn's result and the peak bytes it allocated above what it was given."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_save_streams_parameters_into_the_blob(desk_cascade, tmp_path):
    base = str(tmp_path / "desk")
    params = desk_cascade.parameters()
    _, peak = _traced_peak(lambda: save_checkpoint(base, params, desk_cascade.config_dict()))
    assert peak < 1e6
    with open(blob_path(base), "rb") as f:
        assert f.read() == b"".join(p.data.astype("<f8").tobytes() for p in params.values())


def test_load_holds_one_model_copy(desk_cascade, tmp_path):
    base = str(tmp_path / "desk")
    params = desk_cascade.parameters()
    save_checkpoint(base, params, desk_cascade.config_dict())
    nbytes = sum(p.data.nbytes for p in params.values())
    assert nbytes == 3_768_664 * 8
    (arrays, _), peak = _traced_peak(lambda: load_checkpoint(base))
    assert peak <= 1.05 * nbytes
    for k, p in params.items():
        arr = arrays[k]
        assert arr.dtype == np.float64 and arr.flags.writeable and arr.flags.owndata
        np.testing.assert_array_equal(arr, p.data)


def test_load_model_holds_one_model_copy(desk_cascade, tmp_path):
    # The built model is the only copy: the blob is read into its buffers.
    # It is built from seed 1, so only the read gives it seed 0's values.
    base = str(tmp_path / "desk")
    save_checkpoint(base, desk_cascade.parameters(), {**desk_cascade.config_dict(), "seed": 1})
    model, peak = _traced_peak(lambda: load_model(base))
    assert peak <= 1.1 * 3_768_664 * 8
    for k, p in desk_cascade.parameters().items():
        np.testing.assert_array_equal(model.parameters()[k].data, p.data)

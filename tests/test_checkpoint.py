"""Checkpoint manifest + blob round-trips and corruption handling."""

import json

import numpy as np
import pytest

from graphlift.checkpoint import blob_path, load_checkpoint, manifest_path, save_checkpoint
from graphlift.errors import CheckpointFormatError
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
    text1 = open(manifest_path(base)).read()
    save_checkpoint(base, {"w": np.zeros(2)}, {"a": 2, "z": 1})
    text2 = open(manifest_path(base)).read()
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
    blob = open(blob_path(base), "rb").read()
    open(blob_path(base), "wb").write(blob[:-8])
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
    manifest = json.load(open(manifest_path(base)))
    manifest["params"]["b"]["offset"] = 0
    json.dump(manifest, open(manifest_path(base), "w"))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(base)


def test_bad_version(tmp_path):
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"w": np.zeros(1)})
    manifest = json.load(open(manifest_path(base)))
    manifest["format_version"] = 99
    json.dump(manifest, open(manifest_path(base), "w"))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(base)


def test_non_finite_blob_rejected(tmp_path):
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"w": np.zeros(3)})
    bad = np.array([1.0, np.nan, 2.0]).astype("<f8").tobytes()
    open(blob_path(base), "wb").write(bad)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(base)


def test_corrupt_manifest_json(tmp_path):
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"w": np.zeros(1)})
    for text in (b"{not json", b'{"format_version": 1, "x": "\xff\xfe"}'):
        open(manifest_path(base), "wb").write(text)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(base)


def test_bad_dtype_tag(tmp_path):
    base = str(tmp_path / "ck")
    save_checkpoint(base, {"w": np.zeros(1)})
    good = json.load(open(manifest_path(base)))["params"]["w"]
    for entry in ({**good, "dtype": "f32"}, [good], {**good, "shape": 5},
                  {**good, "shape": [True]}, {**good, "shape": [2**62, 8]}):
        manifest = json.load(open(manifest_path(base)))
        manifest["params"]["w"] = entry
        json.dump(manifest, open(manifest_path(base), "w"))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(base)

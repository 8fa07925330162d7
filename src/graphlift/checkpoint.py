"""Checkpoint serialization: a JSON manifest plus a flat binary blob.

A checkpoint at base path `ckpt` is the pair ckpt.json / ckpt.bin.  The
manifest records format_version, an arbitrary JSON config dict, and for
each parameter its shape and byte offset into the blob.  The blob holds
the parameter values as little-endian float64 in manifest order.

Both directions hold at most one copy of the model.  Saving streams each
parameter's own buffer into the blob.  Loading validates the whole
manifest against the blob's size before it reads any parameter data.
load_checkpoint then reads each parameter into an array of its own;
load_state builds the model the config describes, checks the names and
shapes against it, and reads each parameter straight into that model's
buffer.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from typing import Mapping

import numpy as np

from .errors import CheckpointFormatError, DimensionError
from .tensor import Tensor

__all__ = ["save_checkpoint", "load_checkpoint", "load_state", "manifest_path",
           "blob_path"]

FORMAT_VERSION = 1


def manifest_path(base: str) -> str:
    return base + ".json"


def blob_path(base: str) -> str:
    return base + ".bin"


def save_checkpoint(base: str, params: Mapping[str, Tensor | np.ndarray],
                    config: dict | None = None) -> None:
    """Write params and a config dict to base.json + base.bin."""
    entries = {}
    arrays = []
    offset = 0
    for name, p in params.items():
        # asarray keeps 0-d shapes, where ascontiguousarray would promote to 1-d;
        # it copies only a non-native or non-contiguous parameter
        arr = np.asarray(p.data if isinstance(p, Tensor) else p,
                         dtype="<f8", order="C")
        entries[name] = {"shape": list(arr.shape), "dtype": "f64", "offset": offset}
        arrays.append(arr)
        offset += arr.nbytes
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config or {},
        "params": entries,
    }
    dirname = os.path.dirname(os.path.abspath(base))
    os.makedirs(dirname, exist_ok=True)
    with open(manifest_path(base), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(blob_path(base), "wb") as f:
        for arr in arrays:
            f.write(arr)


def _layout(entries: dict, blob_size: int) -> list[tuple[str, tuple, int]]:
    """Check every manifest entry against a blob of blob_size bytes;
    returns (name, shape, offset) in manifest order."""
    layout = []
    spans = []
    for name, meta in entries.items():
        if not isinstance(meta, dict) or meta.get("dtype") != "f64":
            raise CheckpointFormatError(f"param {name!r} is not an f64 entry: {meta!r}")
        shape = meta.get("shape", [])
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise CheckpointFormatError(f"param {name!r} has a bad shape {shape!r}")
        offset = meta.get("offset")
        nbytes = math.prod(shape) * 8   # Python ints: a huge shape cannot wrap around
        if type(offset) is not int or offset < 0 or offset + nbytes > blob_size:
            raise CheckpointFormatError(f"param {name!r} points outside the blob")
        layout.append((name, tuple(shape), offset))
        spans.append((offset, nbytes))
    # sorted by offset, the params must tile the blob: no overlap, no gap
    end = 0
    for offset, nbytes in sorted(spans):
        if offset != end:
            raise CheckpointFormatError(f"param byte ranges overlap or leave a gap at {offset}")
        end += nbytes
    if end != blob_size:
        raise CheckpointFormatError(f"blob size {blob_size} does not match manifest total {end}")
    return layout


@contextlib.contextmanager
def _open(base: str):
    """Read base.json and validate it against base.bin's size; yields
    (config, [(name, shape, offset)] in manifest order, the open blob)."""
    try:
        with open(manifest_path(base), "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise CheckpointFormatError(f"missing checkpoint manifest {manifest_path(base)}")
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointFormatError(f"unreadable checkpoint manifest: {e}")
    if not isinstance(manifest, dict) or manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint format_version {manifest.get('format_version')!r}"
        )
    entries = manifest.get("params")
    if not isinstance(entries, dict):
        raise CheckpointFormatError("checkpoint manifest has no params table")
    config = manifest.get("config", {})
    if not isinstance(config, dict):
        raise CheckpointFormatError("checkpoint config must be a JSON object")
    try:
        blob = open(blob_path(base), "rb")
    except FileNotFoundError:
        raise CheckpointFormatError(f"missing checkpoint blob {blob_path(base)}")
    with blob:
        yield config, _layout(entries, os.fstat(blob.fileno()).st_size), blob


def _read_param(blob, name: str, offset: int, arr: np.ndarray) -> np.ndarray:
    """Read parameter `name` into the native float64 C-contiguous `arr`,
    checking that it is finite; returns arr."""
    blob.seek(offset)
    if blob.readinto(arr) != arr.nbytes:
        raise CheckpointFormatError(f"param {name!r}: the blob ended early")
    if not np.little_endian:
        arr.byteswap(inplace=True)      # the blob is little-endian
    if not np.all(np.isfinite(arr)):
        raise CheckpointFormatError(f"param {name!r} contains non-finite values")
    return arr


def load_checkpoint(base: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read base.json + base.bin; returns (name -> array, config).

    Every array is a writable native float64 array of its own.
    """
    with _open(base) as (config, layout, blob):
        arrays = {name: _read_param(blob, name, offset, np.empty(shape))
                  for name, shape, offset in layout}
    return arrays, config


def load_state(base: str, build):
    """build(config) for the checkpoint's config, with base.bin read
    straight into the parameters() of the model it returns.

    The manifest is validated against the blob before build runs.  The
    names must match the model's exactly and every shape must agree, or a
    DimensionError is raised before any parameter data is read.
    """
    with _open(base) as (config, layout, blob):
        model = build(config)
        params = model.parameters()
        shapes = {name: shape for name, shape, _ in layout}
        missing = set(params) - set(shapes)
        extra = set(shapes) - set(params)
        if missing or extra:
            raise DimensionError(f"parameter names mismatch: missing {sorted(missing)}, "
                                 f"unexpected {sorted(extra)}")
        for k, p in params.items():
            if shapes[k] != p.data.shape:
                raise DimensionError(f"parameter {k} shape {shapes[k]} != {p.data.shape}")
        for name, _, offset in layout:
            _read_param(blob, name, offset, params[name].data)
    return model

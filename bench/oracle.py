"""Plain-numpy reference forward passes, written apart from graphlift.

The benchmark checks the program's outputs against these.  They read
parameters as a flat name -> ndarray map, named the way checkpoints name
them, and use no graphlift code: rasterization, the affine input maps,
`relu(A @ (X @ W))`, `P @ X`, `U @ X`, the skip concatenation and the
output scales are all spelled out here again.
"""

from __future__ import annotations

import numpy as np

NUM_NODES = 29
HAND_NODES = 21
IMAGE_SIZE = 640.0
INPUT_CENTER = 320.0
INPUT_SCALE = 160.0
STUB_SCALE = 160.0
REFINE_SCALE = 160.0
UNET_OUTPUT_SCALE = 250.0


def graph_conv(params: dict, name: str, h: np.ndarray, activation: str) -> np.ndarray:
    """relu(A @ (h @ W)) or its linear form, batched over the leading axis."""
    y = params[f"{name}.A"] @ (h @ params[f"{name}.W"])
    return np.maximum(y, 0.0) if activation == "relu" else y


def unet_forward(params: dict, coords2d: np.ndarray) -> np.ndarray:
    """Trainable-pooling graph U-Net: (B, 29, 2) pixels -> (B, 29, 3) mm.

    `params` holds enc{i}, pool{i}.P, bottleneck, unpool{i}.U, dec{i} and
    final, without a prefix.  The number of levels is read from the
    pool matrices present.
    """
    x = np.asarray(coords2d, dtype=np.float64)
    levels = sum(1 for k in params if k.startswith("pool") and k.endswith(".P"))
    ones = np.ones(x.shape[:-1] + (1,))
    h = np.concatenate([(x - INPUT_CENTER) / INPUT_SCALE, ones], axis=-1)
    skips = []
    for i in range(levels):
        h = graph_conv(params, f"enc{i}", h, "relu")
        skips.append(h)
        h = params[f"pool{i}.P"] @ h
    h = graph_conv(params, "bottleneck", h, "relu")
    for lvl in reversed(range(levels)):
        h = params[f"unpool{lvl}.U"] @ h
        h = np.concatenate([skips[lvl], h], axis=-1)
        h = graph_conv(params, f"dec{lvl}", h, "relu")
    return graph_conv(params, "final", h, "linear") * UNET_OUTPUT_SCALE


def raster(coords2d: np.ndarray, grid: int) -> np.ndarray:
    """(B, 29, 2) pixels -> (B, grid*grid) occupancy, border cells clamp."""
    cell = IMAGE_SIZE / grid
    cols = np.clip(np.floor(coords2d[..., 0] / cell), 0, grid - 1).astype(int)
    rows = np.clip(np.floor(coords2d[..., 1] / cell), 0, grid - 1).astype(int)
    out = np.zeros((coords2d.shape[0], grid * grid))
    for b in range(coords2d.shape[0]):
        out[b, rows[b] * grid + cols[b]] = 1.0
    return out


def cascade_forward(params: dict, coords2d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stub -> refinement -> U-Net on (B, 29, 2) ground-truth pixels.

    `params` uses the cascade checkpoint names (stub.*, refine.*, unet.*).
    Returns (refined 2D px, 3D mm).
    """
    w1 = params["stub.W1"]
    grid = int(round(np.sqrt(w1.shape[0])))
    features = raster(np.asarray(coords2d, dtype=np.float64), grid) @ w1
    head = features @ params["stub.W2"] + params["stub.b2"]
    init2d = head.reshape(-1, NUM_NODES, 2) * STUB_SCALE
    per_node = np.repeat(features[:, None, :], NUM_NODES, axis=1)
    h = np.concatenate([per_node, (init2d - INPUT_CENTER) / INPUT_SCALE], axis=-1)
    refine = {k[len("refine."):]: v for k, v in params.items() if k.startswith("refine.")}
    for i, act in enumerate(("relu", "relu", "linear")):
        h = graph_conv(refine, f"conv{i}", h, act)
    refined = h * REFINE_SCALE
    unet = {k[len("unet."):]: v for k, v in params.items() if k.startswith("unet.")}
    return refined, unet_forward(unet, refined)


def keypoint_errors(preds: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Per-sample, per-node Euclidean distance, (S, 29)."""
    d = np.asarray(preds, dtype=np.float64) - np.asarray(gts, dtype=np.float64)
    return np.sqrt((d * d).sum(axis=-1))


def mean_error(preds: np.ndarray, gts: np.ndarray) -> float:
    """Mean over samples and nodes of the keypoint distance."""
    return float(keypoint_errors(preds, gts).mean())

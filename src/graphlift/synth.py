"""Synthetic hand-object samples: oriented boxes, camera projection,
noise augmentation, dataset generation, and JSON-lines file IO.

A sample is a hand pose grasping a box: 21 hand joints from forward
kinematics plus the 8 box corners, all in camera-frame millimeters,
with their pinhole projection in pixels.  Records store clean ground
truth only; noise is applied at training/evaluation time.

Generation keeps one RNG stream per sample, keyed by (seed, index).
Each attempt draws all of its numbers from that stream before any
geometry runs; the geometry (obb_from_points, project and the hand's
forward kinematics all take leading batch axes) then runs once per
attempt over every sample still pending.  A given (n, seed) yields the
same bytes as earlier releases, which placed one sample at a time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DatasetFormatError, DegenerateGeometryError, DimensionError, DomainError
from .hand import (DEFAULT_PALM_LENGTHS, DEFAULT_SEGMENT_LENGTHS, HandPoseParams,
                   forward_kinematics, rotation_zyx)
from .keypoints import NUM_NODES, joint_type_indices

__all__ = [
    "Camera", "SampleRecord",
    "obb_from_points", "project", "add_noise",
    "generate_dataset", "save_dataset", "load_dataset",
    "records_to_arrays",
]

SCHEMA_VERSION = 1
IMAGE_SIZE = 640.0   # px, the side of the square image every sample projects into
# Box corner i sits at -1 or +1 along axis a as bit a of i is clear or set.
CORNER_SIGNS = np.array([[1.0 if i & (1 << a) else -1.0 for a in range(3)] for i in range(8)])


@dataclass(frozen=True)
class Camera:
    fx: float = 600.0
    fy: float = 600.0
    cx: float = IMAGE_SIZE / 2
    cy: float = IMAGE_SIZE / 2

    @classmethod
    def from_dict(cls, d: dict) -> "Camera":
        return cls(fx=float(d["fx"]), fy=float(d["fy"]),
                   cx=float(d["cx"]), cy=float(d["cy"]))


@dataclass
class SampleRecord:
    id: int
    gt3d: np.ndarray          # (29, 3) mm, camera frame
    gt2d: np.ndarray          # (29, 2) px
    camera: Camera = field(default_factory=Camera)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.gt3d = np.asarray(self.gt3d, dtype=np.float64)
        self.gt2d = np.asarray(self.gt2d, dtype=np.float64)
        if self.gt3d.shape != (NUM_NODES, 3):
            raise DimensionError(f"gt3d must be ({NUM_NODES}, 3), got {self.gt3d.shape}")
        if self.gt2d.shape != (NUM_NODES, 2):
            raise DimensionError(f"gt2d must be ({NUM_NODES}, 2), got {self.gt2d.shape}")
        if not (np.all(np.isfinite(self.gt3d)) and np.all(np.isfinite(self.gt2d))):
            raise DomainError("sample coordinates must be finite")
        if np.any(self.gt3d[:, 2] <= 0):
            raise DomainError("sample depths must be strictly positive")


# ---- geometry ------------------------------------------------------------


def obb_from_points(vertices) -> np.ndarray:
    """Oriented bounding boxes (..., 8, 3) of point clouds (..., M, 3) via principal axes.

    Axes are covariance eigenvectors sorted by descending eigenvalue,
    sign-fixed (largest-magnitude component positive) with the third axis
    completed by a cross product so the frame is right-handed.  Corners
    come back in the fixed bit-pattern order: corner i takes the +half
    extent along axis a exactly when bit a of i is set, so c0 = (-,-,-)
    and c7 = (+,+,+).  One flat cloud anywhere in a stack raises
    DegenerateGeometryError for the whole stack.
    """
    pts = np.asarray(vertices, dtype=np.float64)
    if pts.ndim < 2 or pts.shape[-1] != 3:
        raise DimensionError(f"expected (..., M, 3) vertices, got {pts.shape}")
    if pts.shape[-2] < 3:
        raise DomainError(f"need at least 3 vertices, got {pts.shape[-2]}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("vertices must be finite")
    centroid = pts.mean(axis=-2)
    centered = pts - centroid[..., None, :]
    cov = np.swapaxes(centered, -1, -2) @ centered / pts.shape[-2]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, axis=-1, kind="stable")[..., ::-1]
    # rows are axes, largest spread first
    axes = np.take_along_axis(np.swapaxes(eigvecs, -1, -2), order[..., :, None], axis=-2)

    for a in range(2):
        axis = axes[..., a, :]
        j = np.argmax(np.abs(axis), axis=-1)
        flip = np.take_along_axis(axis, j[..., None], axis=-1)[..., 0] < 0
        axis[flip] = -axis[flip]
    axes[..., 2, :] = np.cross(axes[..., 0, :], axes[..., 1, :])
    # Products take the transposed view: BLAS rounds a 3x3 matrix-vector product
    # differently for the two memory orders, and this one keeps datasets byte-stable.
    basis = np.swapaxes(axes, -1, -2)

    proj = centered @ basis               # (..., M, 3) coordinates in the box frame
    lo = proj.min(axis=-2)
    hi = proj.max(axis=-2)
    half = (hi - lo) / 2.0
    if np.any(half < 1e-9):
        raise DegenerateGeometryError(
            f"point cloud is flat along a principal axis (half extents {half})"
        )
    mid = centroid + (basis @ ((hi + lo) / 2.0)[..., None])[..., 0]
    return mid[..., None, :] + _rotate(basis, CORNER_SIGNS * half[..., None, :])


def _rotate(rot, vectors) -> np.ndarray:
    """rot (..., 3, 3) applied to each of vectors (..., K, 3), as one matrix-vector product each."""
    return (rot[..., None, :, :] @ vectors[..., None])[..., 0]


def project(points3d, camera: Camera = Camera()) -> np.ndarray:
    """Pinhole projection u = fx*x/z + cx, v = fy*y/z + cy of points (..., N, 3)."""
    pts = np.asarray(points3d, dtype=np.float64)
    if pts.ndim < 2 or pts.shape[-1] != 3:
        raise DimensionError(f"expected (..., N, 3) points, got {pts.shape}")
    z = pts[..., 2]
    if np.any(z <= 0):
        raise DomainError("projection requires strictly positive depth")
    out = np.empty(pts.shape[:-1] + (2,))
    out[..., 0] = camera.fx * pts[..., 0] / z + camera.cx
    out[..., 1] = camera.fy * pts[..., 1] / z + camera.cy
    return out


def add_noise(coords2d, sigma: float, seed) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise per coordinate.

    `seed` may be an int or an existing numpy Generator (so training loops
    can thread one reproducible stream through many calls).
    """
    if sigma < 0:
        raise DomainError(f"sigma must be non-negative, got {sigma}")
    pts = np.asarray(coords2d, dtype=np.float64)
    if sigma == 0:
        return pts.copy()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return pts + rng.normal(0.0, sigma, size=pts.shape)


# ---- generation ----------------------------------------------------------


# Ranges of the randomized hand-grasping-a-box scenes.  The box is dropped
# near the fingertip centroid; a whole draw is retried until every keypoint
# stays inside the depth bounds and projects into the usable image area, so
# rejected draws consume the sample's own RNG stream and determinism is
# preserved.
DEPTH_RANGE = (300.0, 800.0)
WRIST_DEPTH_RANGE = (450.0, 680.0)
WRIST_LATERAL = 60.0
WRIST_ROT_MAX = 0.6
BOX_SIZE_RANGE = (40.0, 110.0)
MIN_BOX_DIM_GAP = 5.0
BOX_OFFSET = 30.0
BONE_SCALE_RANGE = (0.92, 1.08)
IMAGE_MARGIN = 5.0
MAX_TRIES = 200


# Samples generated together: bounds the batch arrays whatever n is.
CHUNK = 256


def _draw_attempt(rng: np.random.Generator) -> tuple:
    """One attempt's random numbers, in the order every release has drawn them."""
    scale = rng.uniform(*BONE_SCALE_RANGE)
    wrist_pos = [rng.uniform(-WRIST_LATERAL, WRIST_LATERAL),
                 rng.uniform(-WRIST_LATERAL, WRIST_LATERAL),
                 rng.uniform(*WRIST_DEPTH_RANGE)]
    wrist_rot = rng.uniform(-WRIST_ROT_MAX, WRIST_ROT_MAX, size=3)
    flexion = np.stack([
        rng.uniform(0.15, 1.10, size=5),
        rng.uniform(0.25, 1.30, size=5),
        rng.uniform(0.10, 0.90, size=5),
    ], axis=1)
    abduction = rng.uniform(-0.20, 0.20, size=5)
    while True:
        dims = np.sort(rng.uniform(*BOX_SIZE_RANGE, size=3))
        if np.all(np.diff(dims) >= MIN_BOX_DIM_GAP):
            break
    angles = rng.uniform(0.0, np.pi, size=3)
    offset = rng.uniform(-BOX_OFFSET, BOX_OFFSET, size=3)
    return scale, wrist_pos, wrist_rot, flexion, abduction, dims, angles, offset


def _scene_points(draws: list) -> np.ndarray:
    """gt3d (B, 29, 3) of B attempts: the hand's joints, then its box's OBB corners."""
    scale, wrist_pos, wrist_rot, flexion, abduction, dims, angles, offset = (
        np.array(column) for column in zip(*draws))
    hand = forward_kinematics(HandPoseParams(
        wrist_pos=wrist_pos, wrist_rot=wrist_rot, flexion=flexion, abduction=abduction,
        palm_lengths=DEFAULT_PALM_LENGTHS * scale[:, None],
        segment_lengths=DEFAULT_SEGMENT_LENGTHS * scale[:, None, None],
    ))
    center = hand[:, joint_type_indices("tip")].mean(axis=1) + offset
    box = center[:, None, :] + _rotate(rotation_zyx(angles), CORNER_SIGNS * dims[:, None, :] / 2.0)
    return np.concatenate([hand, obb_from_points(box)], axis=1)


def _generate_chunk(ids: range, seed: int) -> list[SampleRecord]:
    rngs = [np.random.default_rng([seed, i]) for i in ids]
    gt3d = np.empty((len(ids), NUM_NODES, 3))
    gt2d = np.empty((len(ids), NUM_NODES, 2))
    pending = np.arange(len(ids))
    for _ in range(MAX_TRIES):
        pts = _scene_points([_draw_attempt(rngs[k]) for k in pending])
        z = pts[..., 2]
        in_depth = (z.min(axis=1) >= DEPTH_RANGE[0]) & (z.max(axis=1) <= DEPTH_RANGE[1])
        uv = project(pts[in_depth])
        in_image = ((uv.min(axis=(1, 2)) >= IMAGE_MARGIN)
                    & (uv.max(axis=(1, 2)) <= IMAGE_SIZE - IMAGE_MARGIN))
        accepted = in_depth.copy()
        accepted[in_depth] = in_image
        done = pending[accepted]
        gt3d[done], gt2d[done] = pts[accepted], uv[in_image]
        pending = pending[~accepted]
        if pending.size == 0:
            # copies, so no record keeps the whole chunk alive
            return [SampleRecord(id=i, gt3d=gt3d[k].copy(), gt2d=gt2d[k].copy(),
                                 meta={"subject": "synth", "object": "box"})
                    for k, i in enumerate(ids)]
    raise DomainError(
        f"could not draw a sample within bounds after {MAX_TRIES} tries; "
        "the grasp ranges are too tight"
    )


def generate_dataset(n: int, seed: int) -> list[SampleRecord]:
    """n randomized grasp samples, reproducible under seed.

    Each sample gets its own child RNG stream keyed by (seed, index), so
    generation order (or batching) cannot change the data.  Samples go
    through CHUNK at a time; within a chunk, every attempt is one batched
    geometry pass over the samples still pending, and a rejected sample
    draws its next attempt from its own stream.
    """
    if n < 1:
        raise DomainError(f"need at least one sample, got n={n}")
    records = []
    for start in range(0, n, CHUNK):
        records += _generate_chunk(range(start, min(start + CHUNK, n)), seed)
    return records


# ---- file IO --------------------------------------------------------------

_REQUIRED_FIELDS = ("schema_version", "id", "camera", "gt3d", "gt2d")


def save_dataset(path: str, records: list[SampleRecord]) -> None:
    """One JSON object per line; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            row = {
                "schema_version": SCHEMA_VERSION,
                "id": int(r.id),
                "camera": asdict(r.camera),
                "meta": r.meta,
                "gt3d": r.gt3d.tolist(),
                "gt2d": r.gt2d.tolist(),
            }
            f.write(json.dumps(row, sort_keys=True))
            f.write("\n")


def load_dataset(path: str) -> list[SampleRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as e:
                    raise DatasetFormatError(f"{path}:{lineno}: not valid JSON ({e.msg})")
                if not isinstance(row, dict):
                    raise DatasetFormatError(f"{path}:{lineno}: record must be a JSON object")
                for name in _REQUIRED_FIELDS:
                    if name not in row:
                        raise DatasetFormatError(f"{path}:{lineno}: missing field {name!r}")
                if row["schema_version"] != SCHEMA_VERSION:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: unsupported schema_version {row['schema_version']!r}"
                    )
                try:
                    rec = SampleRecord(
                        id=int(row["id"]),
                        gt3d=np.array(row["gt3d"], dtype=np.float64),
                        gt2d=np.array(row["gt2d"], dtype=np.float64),
                        camera=Camera.from_dict(row["camera"]),
                        meta=row.get("meta", {}),
                    )
                except (KeyError, TypeError, ValueError, DimensionError, DomainError) as e:
                    raise DatasetFormatError(f"{path}:{lineno}: bad record ({e})")
                records.append(rec)
        except UnicodeDecodeError as e:
            raise DatasetFormatError(f"{path}: not UTF-8 text ({e.reason})") from None
    if not records:
        raise DatasetFormatError(f"{path}: dataset is empty")
    return records


def records_to_arrays(records: list[SampleRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Stack ground truths: (S, 29, 2) pixels and (S, 29, 3) millimeters."""
    gt2d = np.stack([r.gt2d for r in records])
    gt3d = np.stack([r.gt3d for r in records])
    return gt2d, gt3d

"""Synthetic hand-object samples: oriented boxes, camera projection,
noise augmentation, dataset generation, and JSON-lines file IO.

A sample is a hand pose grasping a box: 21 hand joints from forward
kinematics plus the 8 box corners, all in camera-frame millimeters,
with their pinhole projection in pixels.  Records store clean ground
truth only; noise is applied at training/evaluation time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetFormatError, DegenerateGeometryError, DimensionError, DomainError
from .hand import (DEFAULT_PALM_LENGTHS, DEFAULT_SEGMENT_LENGTHS, HandPoseParams,
                   forward_kinematics, rotation_zyx)
from .keypoints import NUM_NODES, default_graph

__all__ = [
    "Camera", "GraspSpec", "SampleRecord",
    "obb_from_points", "project", "add_noise",
    "generate_dataset", "save_dataset", "load_dataset",
    "records_to_arrays",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Camera:
    fx: float = 600.0
    fy: float = 600.0
    cx: float = 320.0
    cy: float = 320.0

    def to_dict(self) -> dict:
        return {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy}

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
    """Oriented bounding box of a 3D point cloud via principal axes.

    Axes are covariance eigenvectors sorted by descending eigenvalue,
    sign-fixed (largest-magnitude component positive) with the third axis
    completed by a cross product so the frame is right-handed.  Corners
    come back in the fixed bit-pattern order: corner i takes the +half
    extent along axis a exactly when bit a of i is set, so c0 = (-,-,-)
    and c7 = (+,+,+).
    """
    pts = np.asarray(vertices, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DimensionError(f"expected (M, 3) vertices, got {pts.shape}")
    if pts.shape[0] < 3:
        raise DomainError(f"need at least 3 vertices, got {pts.shape[0]}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("vertices must be finite")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered / pts.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1]
    axes = eigvecs[:, order].T            # rows are axes, largest spread first

    for a in range(2):
        j = int(np.argmax(np.abs(axes[a])))
        if axes[a, j] < 0:
            axes[a] = -axes[a]
    axes[2] = np.cross(axes[0], axes[1])

    proj = centered @ axes.T              # (M, 3) coordinates in the box frame
    lo = proj.min(axis=0)
    hi = proj.max(axis=0)
    half = (hi - lo) / 2.0
    if np.any(half < 1e-9):
        raise DegenerateGeometryError(
            f"point cloud is flat along a principal axis (half extents {half})"
        )
    mid = centroid + axes.T @ ((hi + lo) / 2.0)
    corners = np.zeros((8, 3))
    for i in range(8):
        signs = np.array([1.0 if i & (1 << a) else -1.0 for a in range(3)])
        corners[i] = mid + axes.T @ (signs * half)
    return corners


def project(points3d, camera: Camera = Camera()) -> np.ndarray:
    """Pinhole projection u = fx*x/z + cx, v = fy*y/z + cy."""
    pts = np.asarray(points3d, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DimensionError(f"expected (N, 3) points, got {pts.shape}")
    z = pts[:, 2]
    if np.any(z <= 0):
        raise DomainError("projection requires strictly positive depth")
    out = np.empty((pts.shape[0], 2))
    out[:, 0] = camera.fx * pts[:, 0] / z + camera.cx
    out[:, 1] = camera.fy * pts[:, 1] / z + camera.cy
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


@dataclass(frozen=True)
class GraspSpec:
    """Ranges for the randomized hand-grasping-a-box scenes.

    The box is dropped near the fingertip centroid; a whole draw is
    retried until every keypoint stays inside the depth bounds and
    projects into the usable image area, so rejected draws consume the
    sample's own RNG stream and determinism is preserved.
    """

    depth_range: tuple = (300.0, 800.0)
    wrist_depth_range: tuple = (450.0, 680.0)
    wrist_lateral: float = 60.0
    wrist_rot_max: float = 0.6
    box_size_range: tuple = (40.0, 110.0)
    min_box_dim_gap: float = 5.0
    box_offset: float = 30.0
    bone_scale_range: tuple = (0.92, 1.08)
    image_margin: float = 5.0
    image_size: float = 640.0
    camera: Camera = field(default_factory=Camera)
    max_tries: int = 200


def _draw_hand(rng: np.random.Generator, spec: GraspSpec) -> HandPoseParams:
    scale = rng.uniform(*spec.bone_scale_range)
    return HandPoseParams(
        wrist_pos=np.array([
            rng.uniform(-spec.wrist_lateral, spec.wrist_lateral),
            rng.uniform(-spec.wrist_lateral, spec.wrist_lateral),
            rng.uniform(*spec.wrist_depth_range),
        ]),
        wrist_rot=rng.uniform(-spec.wrist_rot_max, spec.wrist_rot_max, size=3),
        flexion=np.stack([
            rng.uniform(0.15, 1.10, size=5),
            rng.uniform(0.25, 1.30, size=5),
            rng.uniform(0.10, 0.90, size=5),
        ], axis=1),
        abduction=rng.uniform(-0.20, 0.20, size=5),
        palm_lengths=DEFAULT_PALM_LENGTHS * scale,
        segment_lengths=DEFAULT_SEGMENT_LENGTHS * scale,
    )


def _draw_box_vertices(rng: np.random.Generator, spec: GraspSpec,
                       anchor: np.ndarray) -> np.ndarray:
    lo, hi = spec.box_size_range
    while True:
        dims = np.sort(rng.uniform(lo, hi, size=3))
        if np.all(np.diff(dims) >= spec.min_box_dim_gap):
            break
    rot = rotation_zyx(rng.uniform(0.0, np.pi, size=3))
    center = anchor + rng.uniform(-spec.box_offset, spec.box_offset, size=3)
    verts = np.zeros((8, 3))
    for i in range(8):
        signs = np.array([1.0 if i & (1 << a) else -1.0 for a in range(3)])
        verts[i] = center + rot @ (signs * dims / 2.0)
    return verts


def generate_sample(sample_id: int, rng: np.random.Generator,
                    spec: GraspSpec = GraspSpec()) -> SampleRecord:
    graph = default_graph()
    tips = graph.tip_indices()
    lo_px = spec.image_margin
    hi_px = spec.image_size - spec.image_margin
    for _ in range(spec.max_tries):
        hand = forward_kinematics(_draw_hand(rng, spec))
        corners = obb_from_points(_draw_box_vertices(rng, spec, hand[tips].mean(axis=0)))
        gt3d = np.vstack([hand, corners])
        z = gt3d[:, 2]
        if z.min() < spec.depth_range[0] or z.max() > spec.depth_range[1]:
            continue
        gt2d = project(gt3d, spec.camera)
        if gt2d.min() < lo_px or gt2d.max() > hi_px:
            continue
        return SampleRecord(id=sample_id, gt3d=gt3d, gt2d=gt2d, camera=spec.camera,
                            meta={"subject": "synth", "object": "box"})
    raise DomainError(
        f"could not draw a sample within bounds after {spec.max_tries} tries; "
        "the grasp spec ranges are too tight"
    )


def generate_dataset(n: int, seed: int, grasp_spec: GraspSpec = GraspSpec()) -> list[SampleRecord]:
    """n randomized grasp samples, reproducible under seed.

    Each sample gets its own child RNG stream keyed by (seed, index), so
    generation order (or parallelism) cannot change the data.
    """
    if n < 1:
        raise DomainError(f"need at least one sample, got n={n}")
    return [generate_sample(i, np.random.default_rng([seed, i]), grasp_spec)
            for i in range(n)]


# ---- file IO --------------------------------------------------------------

_REQUIRED_FIELDS = ("schema_version", "id", "camera", "gt3d", "gt2d")


def save_dataset(path: str, records: list[SampleRecord]) -> None:
    """One JSON object per line; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            row = {
                "schema_version": SCHEMA_VERSION,
                "id": int(r.id),
                "camera": r.camera.to_dict(),
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

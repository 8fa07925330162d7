"""Hand forward kinematics for the 21-joint model.

The hand lives in a local frame: the palm spreads in the x/y plane and
finger flexion bends segments toward -z.  Each finger is a chain
wrist -> MCP -> PIP -> DIP -> TIP; the MCP sits at the end of a rigid
palm offset, and each
phalanx direction comes from the finger's base yaw plus an abduction
offset (rotation in the palm plane) and the accumulated flexion (pitch
out of the palm plane).  A wrist rotation Rz*Ry*Rx plus a translation
place the hand in the camera frame (+z is depth).

Poses are batched: every field of HandPoseParams may carry leading batch
axes, and forward_kinematics and rotation_zyx compute a whole stack in
one pass, with one pose as the batch of one.  Each joint's arithmetic
is the same per-element sequence whatever the batch, so a pose gives the
same bits alone or inside any stack.  synth.generate_dataset draws each
sample's pose from that sample's own RNG stream and places the poses of
every pending sample in one call; its datasets keep the bytes of earlier
releases, which placed one pose at a time.

Angle ranges (radians), validated by forward_kinematics:
  flexion  mcp [-0.5, 1.8], pip [-0.2, 2.2], dip [-0.2, 1.7]
  abduction    [-0.7, 0.7]
  wrist rotation components [-pi, pi]
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError

__all__ = ["HandPoseParams", "forward_kinematics", "rotation_zyx",
           "FLEXION_RANGES", "ABDUCTION_RANGE", "PALM_YAWS",
           "DEFAULT_PALM_LENGTHS", "DEFAULT_SEGMENT_LENGTHS"]

# base direction of each finger in the palm plane, thumb to little
PALM_YAWS = np.array([0.95, 0.30, 0.0, -0.25, -0.50])

DEFAULT_PALM_LENGTHS = np.array([38.0, 90.0, 95.0, 88.0, 80.0])
DEFAULT_SEGMENT_LENGTHS = np.array([
    [42.0, 32.0, 26.0],   # thumb
    [42.0, 26.0, 22.0],   # index
    [46.0, 30.0, 24.0],   # middle
    [42.0, 28.0, 24.0],   # ring
    [32.0, 22.0, 20.0],   # little
])

FLEXION_RANGES = ((-0.5, 1.8), (-0.2, 2.2), (-0.2, 1.7))
ABDUCTION_RANGE = (-0.7, 0.7)


# The trailing shape of each HandPoseParams field; any axes before it are batch axes.
_FIELD_SHAPES = {"wrist_pos": (3,), "wrist_rot": (3,), "flexion": (5, 3), "abduction": (5,),
                 "palm_lengths": (5,), "segment_lengths": (5, 3)}


@dataclass
class HandPoseParams:
    """One pose, or a stack of poses when the fields carry leading batch axes.

    The fields' batch axes broadcast against each other, so a stack of
    wrist poses can share the default bone lengths.
    """
    wrist_pos: np.ndarray = field(default_factory=lambda: np.zeros(3))
    wrist_rot: np.ndarray = field(default_factory=lambda: np.zeros(3))   # rx, ry, rz
    flexion: np.ndarray = field(default_factory=lambda: np.zeros((5, 3)))
    abduction: np.ndarray = field(default_factory=lambda: np.zeros(5))
    palm_lengths: np.ndarray = field(default_factory=lambda: DEFAULT_PALM_LENGTHS.copy())
    segment_lengths: np.ndarray = field(default_factory=lambda: DEFAULT_SEGMENT_LENGTHS.copy())

    def __post_init__(self):
        batches = []
        for name, shape in _FIELD_SHAPES.items():
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if value.shape[value.ndim - len(shape):] != shape:
                raise DimensionError(f"{name} must end in shape {shape}, got {value.shape}")
            setattr(self, name, value)
            batches.append(value.shape[:value.ndim - len(shape)])
        try:
            batch = np.broadcast_shapes(*batches)
        except ValueError:
            raise DimensionError(f"pose fields have incompatible batch shapes {batches}") from None
        for name, shape in _FIELD_SHAPES.items():
            if getattr(self, name).shape != batch + shape:   # read-only views only where needed
                setattr(self, name, np.broadcast_to(getattr(self, name), batch + shape))


def rotation_zyx(angles) -> np.ndarray:
    """Rz(rz) @ Ry(ry) @ Rx(rx) for angles (..., 3) = (rx, ry, rz); shape (..., 3, 3)."""
    angles = np.asarray(angles, dtype=np.float64)
    cx, cy, cz = np.moveaxis(np.cos(angles), -1, 0)
    sx, sy, sz = np.moveaxis(np.sin(angles), -1, 0)
    one, zero = np.ones_like(cx), np.zeros_like(cx)

    def matrix(*entries):
        return np.stack(entries, axis=-1).reshape(cx.shape + (3, 3))

    rot_x = matrix(one, zero, zero, zero, cx, -sx, zero, sx, cx)
    rot_y = matrix(cy, zero, sy, zero, one, zero, -sy, zero, cy)
    rot_z = matrix(cz, -sz, zero, sz, cz, zero, zero, zero, one)
    return rot_z @ rot_y @ rot_x


def _direction(yaw, pitch) -> np.ndarray:
    """Unit vectors (..., 3) at heading `yaw` in the palm plane, pitched out of it."""
    cp = np.cos(pitch)
    return np.stack([np.cos(yaw) * cp, np.sin(yaw) * cp, -np.sin(pitch)], axis=-1)


def _validate(params: HandPoseParams) -> None:
    for j, (lo, hi) in enumerate(FLEXION_RANGES):
        col = params.flexion[..., j]
        if np.any(col < lo) or np.any(col > hi):
            raise DomainError(
                f"flexion angle {j} out of range [{lo}, {hi}]: {col}"
            )
    lo, hi = ABDUCTION_RANGE
    if np.any(params.abduction < lo) or np.any(params.abduction > hi):
        raise DomainError(f"abduction out of range [{lo}, {hi}]: {params.abduction}")
    if np.any(np.abs(params.wrist_rot) > np.pi):
        raise DomainError(f"wrist rotation out of [-pi, pi]: {params.wrist_rot}")
    if np.any(params.palm_lengths <= 0) or np.any(params.segment_lengths <= 0):
        raise DomainError("bone lengths must be positive")
    if not (np.all(np.isfinite(params.wrist_pos)) and np.all(np.isfinite(params.wrist_rot))):
        raise DomainError("wrist pose must be finite")


def forward_kinematics(params: HandPoseParams) -> np.ndarray:
    """Joint positions (..., 21, 3) in mm: wrist, then MCP/PIP/DIP/TIP per finger.

    One bad pose anywhere in a stack raises DomainError for the whole stack.
    """
    _validate(params)
    batch = params.wrist_pos.shape[:-1]
    pos = params.palm_lengths[..., None] * _direction(PALM_YAWS, np.zeros(5))
    seg_yaw = PALM_YAWS + params.abduction
    local = [pos]                          # per joint along the finger: (..., 5, 3)
    pitch = 0.0
    for s in range(3):
        pitch = pitch + params.flexion[..., s]
        pos = pos + params.segment_lengths[..., s, None] * _direction(seg_yaw, pitch)
        local.append(pos)
    local = np.stack(local, axis=-2).reshape(batch + (20, 3, 1))   # finger-major, like the joints
    rot = rotation_zyx(params.wrist_rot)[..., None, :, :]
    placed = params.wrist_pos[..., None, :] + (rot @ local)[..., 0]
    return np.concatenate([params.wrist_pos[..., None, :], placed], axis=-2)

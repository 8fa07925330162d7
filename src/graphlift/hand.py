"""Hand forward kinematics for the 21-joint model.

The hand lives in a local frame: the palm spreads in the x/y plane and
finger flexion bends segments toward -z.  Each finger is a chain
wrist -> MCP -> PIP -> DIP -> TIP; the MCP sits at the end of a rigid
palm offset, and each
phalanx direction comes from the finger's base yaw plus an abduction
offset (rotation in the palm plane) and the accumulated flexion (pitch
out of the palm plane).  A wrist rotation Rz*Ry*Rx plus a translation
place the hand in the camera frame (+z is depth).

Angle ranges (radians), validated by forward_kinematics:
  flexion  mcp [-0.5, 1.8], pip [-0.2, 2.2], dip [-0.2, 1.7]
  abduction    [-0.7, 0.7]
  wrist rotation components [-pi, pi]
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

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


@dataclass
class HandPoseParams:
    wrist_pos: np.ndarray = field(default_factory=lambda: np.zeros(3))
    wrist_rot: np.ndarray = field(default_factory=lambda: np.zeros(3))   # rx, ry, rz
    flexion: np.ndarray = field(default_factory=lambda: np.zeros((5, 3)))
    abduction: np.ndarray = field(default_factory=lambda: np.zeros(5))
    palm_lengths: np.ndarray = field(default_factory=lambda: DEFAULT_PALM_LENGTHS.copy())
    segment_lengths: np.ndarray = field(default_factory=lambda: DEFAULT_SEGMENT_LENGTHS.copy())

    def __post_init__(self):
        self.wrist_pos = np.asarray(self.wrist_pos, dtype=np.float64).reshape(3)
        self.wrist_rot = np.asarray(self.wrist_rot, dtype=np.float64).reshape(3)
        self.flexion = np.asarray(self.flexion, dtype=np.float64).reshape(5, 3)
        self.abduction = np.asarray(self.abduction, dtype=np.float64).reshape(5)
        self.palm_lengths = np.asarray(self.palm_lengths, dtype=np.float64).reshape(5)
        self.segment_lengths = np.asarray(self.segment_lengths, dtype=np.float64).reshape(5, 3)


def rotation_zyx(angles) -> np.ndarray:
    """Rz(rz) @ Ry(ry) @ Rx(rx) for angles (rx, ry, rz)."""
    rx, ry, rz = np.asarray(angles, dtype=np.float64).reshape(3)
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    rot_x = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    rot_y = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rot_z = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rot_z @ rot_y @ rot_x


def _direction(yaw: float, pitch: float) -> np.ndarray:
    """Unit vector at heading `yaw` in the palm plane, pitched out of it."""
    cp = np.cos(pitch)
    return np.array([np.cos(yaw) * cp, np.sin(yaw) * cp, -np.sin(pitch)])


def _validate(params: HandPoseParams) -> None:
    for j, (lo, hi) in enumerate(FLEXION_RANGES):
        col = params.flexion[:, j]
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
    """Joint positions (21, 3) in mm: wrist, then MCP/PIP/DIP/TIP per finger."""
    _validate(params)
    rot = rotation_zyx(params.wrist_rot)
    joints = np.zeros((21, 3))
    joints[0] = params.wrist_pos
    for f in range(5):
        yaw = PALM_YAWS[f]
        pos = params.palm_lengths[f] * _direction(yaw, 0.0)
        local = [pos.copy()]
        seg_yaw = yaw + params.abduction[f]
        pitch = 0.0
        for s in range(3):
            pitch += params.flexion[f, s]
            pos = pos + params.segment_lengths[f, s] * _direction(seg_yaw, pitch)
            local.append(pos.copy())
        for j, p in enumerate(local):
            joints[1 + 4 * f + j] = params.wrist_pos + rot @ p
    return joints

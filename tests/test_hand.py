"""Hand forward kinematics against an independent homogeneous-transform
chain, plus pose validation."""

import numpy as np
import pytest

from graphlift.errors import DimensionError, DomainError
from graphlift.hand import (
    ABDUCTION_RANGE, DEFAULT_PALM_LENGTHS, DEFAULT_SEGMENT_LENGTHS,
    FLEXION_RANGES, HandPoseParams, PALM_YAWS, forward_kinematics,
    rotation_zyx,
)


def _hom(rot=np.eye(3), trans=np.zeros(3)):
    t = np.eye(4)
    t[:3, :3] = rot
    t[:3, 3] = trans
    return t


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def fk_oracle(params: HandPoseParams) -> np.ndarray:
    """Chain of 4x4 transforms: every joint is base @ ... @ (0,0,0,1)."""
    base = _hom(rotation_zyx(params.wrist_rot), params.wrist_pos)
    joints = np.zeros((21, 3))
    joints[0] = params.wrist_pos
    x_hat = np.array([1.0, 0.0, 0.0])
    for f in range(5):
        yaw = PALM_YAWS[f]
        mcp_local = params.palm_lengths[f] * (_rz(yaw) @ x_hat)
        frame = base @ _hom(trans=mcp_local) @ _hom(rot=_rz(yaw + params.abduction[f]))
        joints[1 + 4 * f] = (base @ np.append(mcp_local, 1.0))[:3]
        for s in range(3):
            step = _hom(rot=_ry(params.flexion[f, s])) @ _hom(
                trans=params.segment_lengths[f, s] * x_hat)
            frame = frame @ step
            joints[2 + 4 * f + s] = frame[:3, 3]
    return joints


def random_pose(seed):
    rng = np.random.default_rng(seed)
    flex = np.stack([rng.uniform(lo, hi, size=5) for lo, hi in FLEXION_RANGES], axis=1)
    return HandPoseParams(
        wrist_pos=rng.uniform(-200, 200, size=3),
        wrist_rot=rng.uniform(-np.pi, np.pi, size=3),
        flexion=flex,
        abduction=rng.uniform(*ABDUCTION_RANGE, size=5),
    )


def test_rotation_zyx_basics():
    np.testing.assert_array_equal(rotation_zyx([0.0, 0.0, 0.0]), np.eye(3))
    r = rotation_zyx([0.3, -1.1, 2.0])
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(r), 1.0, atol=1e-12)
    # Rz only: rotates x toward y
    np.testing.assert_allclose(rotation_zyx([0.0, 0.0, np.pi / 2]) @ [1, 0, 0],
                               [0, 1, 0], atol=1e-12)


def test_flat_hand_layout():
    joints = forward_kinematics(HandPoseParams())
    np.testing.assert_array_equal(joints[0], np.zeros(3))
    np.testing.assert_allclose(joints[:, 2], 0.0, atol=1e-12)
    for f in range(5):
        tip = joints[4 + 4 * f]
        reach = DEFAULT_PALM_LENGTHS[f] + DEFAULT_SEGMENT_LENGTHS[f].sum()
        np.testing.assert_allclose(np.linalg.norm(tip), reach, atol=1e-9)
        # whole finger lies along its palm yaw
        np.testing.assert_allclose(np.arctan2(tip[1], tip[0]), PALM_YAWS[f],
                                   atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_matches_homogeneous_chain_oracle(seed):
    params = random_pose(seed)
    np.testing.assert_allclose(forward_kinematics(params), fk_oracle(params),
                               atol=1e-9)


def test_wrist_translation_shifts_everything():
    base = forward_kinematics(HandPoseParams())
    t = np.array([12.0, -40.0, 390.0])
    moved = forward_kinematics(HandPoseParams(wrist_pos=t))
    np.testing.assert_allclose(moved, base + t, atol=1e-12)


def test_wrist_rotation_is_rigid():
    params = random_pose(3)
    params.wrist_pos = np.zeros(3)
    local = forward_kinematics(
        HandPoseParams(flexion=params.flexion, abduction=params.abduction))
    rotated = forward_kinematics(
        HandPoseParams(wrist_rot=params.wrist_rot,
                       flexion=params.flexion, abduction=params.abduction))
    r = rotation_zyx(params.wrist_rot)
    np.testing.assert_allclose(rotated, local @ r.T, atol=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_bone_lengths_preserved(seed):
    params = random_pose(seed)
    joints = forward_kinematics(params)
    for f in range(5):
        chain = joints[1 + 4 * f: 5 + 4 * f]
        np.testing.assert_allclose(np.linalg.norm(chain[0] - joints[0]),
                                   params.palm_lengths[f], atol=1e-9)
        for s in range(3):
            np.testing.assert_allclose(np.linalg.norm(chain[s + 1] - chain[s]),
                                       params.segment_lengths[f, s], atol=1e-9)


def test_angle_range_validation():
    with pytest.raises(DomainError):
        flex = np.zeros((5, 3)); flex[2, 0] = 1.9
        forward_kinematics(HandPoseParams(flexion=flex))
    with pytest.raises(DomainError):
        flex = np.zeros((5, 3)); flex[0, 1] = -0.3
        forward_kinematics(HandPoseParams(flexion=flex))
    with pytest.raises(DomainError):
        forward_kinematics(HandPoseParams(abduction=[0.0, 0.0, 0.8, 0.0, 0.0]))
    with pytest.raises(DomainError):
        forward_kinematics(HandPoseParams(wrist_rot=[3.2, 0.0, 0.0]))
    with pytest.raises(DomainError):
        forward_kinematics(HandPoseParams(palm_lengths=[38.0, 90.0, -95.0, 88.0, 80.0]))
    with pytest.raises(DomainError):
        forward_kinematics(HandPoseParams(wrist_pos=[np.nan, 0.0, 0.0]))


def stacked_poses(shape):
    """Poses of random_pose with per-pose bone scales, stacked to shape + field shape."""
    poses = [random_pose(seed) for seed in range(int(np.prod(shape)))]
    for k, p in enumerate(poses):
        p.palm_lengths = p.palm_lengths * (0.9 + 0.05 * k)
        p.segment_lengths = p.segment_lengths * (1.1 - 0.05 * k)
    fields = ("wrist_pos", "wrist_rot", "flexion", "abduction", "palm_lengths", "segment_lengths")
    return HandPoseParams(**{
        name: np.stack([getattr(p, name) for p in poses]).reshape(shape + getattr(poses[0], name).shape)
        for name in fields})


def test_a_stack_of_poses_equals_the_per_item_calls():
    params = stacked_poses((2, 3))
    joints = forward_kinematics(params)
    rots = rotation_zyx(params.wrist_rot)
    assert joints.shape == (2, 3, 21, 3) and rots.shape == (2, 3, 3, 3)
    for idx in np.ndindex(2, 3):
        one = HandPoseParams(params.wrist_pos[idx], params.wrist_rot[idx], params.flexion[idx],
                             params.abduction[idx], params.palm_lengths[idx],
                             params.segment_lengths[idx])
        assert joints[idx].tobytes() == forward_kinematics(one).tobytes()
        assert rots[idx].tobytes() == rotation_zyx(params.wrist_rot[idx]).tobytes()


def test_pose_fields_broadcast_over_the_batch():
    wrists = np.random.default_rng(9).uniform(-100, 100, size=(4, 3))
    joints = forward_kinematics(HandPoseParams(wrist_pos=wrists))
    for w, j in zip(wrists, joints, strict=True):
        assert j.tobytes() == forward_kinematics(HandPoseParams(wrist_pos=w)).tobytes()
    with pytest.raises(DimensionError):
        HandPoseParams(wrist_pos=np.zeros((4, 3)), flexion=np.zeros((3, 5, 3)))
    with pytest.raises(DimensionError):
        HandPoseParams(flexion=np.zeros((5, 2)))


@pytest.mark.parametrize("name, index, value", [
    ("flexion", (1, 2, 3, 0), 1.9), ("flexion", (0, 0, 1, 2), -0.3), ("abduction", (1, 1, 4), -0.8),
])
def test_one_out_of_range_angle_in_a_stack_raises(name, index, value):
    params = stacked_poses((2, 3))
    forward_kinematics(params)
    bad = getattr(params, name).copy()
    bad[index] = value
    setattr(params, name, bad)
    with pytest.raises(DomainError):
        forward_kinematics(params)

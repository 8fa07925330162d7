"""The 29-node hand-object keypoint graph.

Node layout: index 0 is the wrist; each finger contributes MCP, PIP, DIP,
TIP in palm-to-tip order (thumb, index, middle, ring, little); indices
21..28 are the 8 oriented-bounding-box corners c0..c7.  Corner ci sits at
sign pattern (bit0 -> axis 0, bit1 -> axis 1, bit2 -> axis 2), with
c0 = (-,-,-) and c7 = (+,+,+) in the box frame.

The skeleton connects the wrist to every finger MCP, consecutive joints
along each finger, and the 12 box edges (corner pairs differing in one
bit).  Hand and object nodes are not connected in this prior.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "NUM_HAND_NODES", "NUM_OBJECT_NODES", "NUM_NODES",
    "FINGER_NAMES", "JOINT_TYPES", "NODE_NAMES", "HAND_INDICES", "OBJECT_INDICES",
    "skeleton_adjacency", "finger_indices", "joint_type_indices", "resolve_subset",
    "NODE_SCHEDULE", "FIXED_POOL_GROUPS",
]

NUM_HAND_NODES = 21
NUM_OBJECT_NODES = 8
NUM_NODES = NUM_HAND_NODES + NUM_OBJECT_NODES

FINGER_NAMES = ("thumb", "index", "middle", "ring", "little")
JOINT_TYPES = ("mcp", "pip", "dip", "tip")


def _node_names() -> tuple[str, ...]:
    names = ["wrist"]
    for finger in FINGER_NAMES:
        for joint in JOINT_TYPES:
            names.append(f"{finger}_{joint}")
    names.extend(f"corner_{i}" for i in range(NUM_OBJECT_NODES))
    return tuple(names)


def _skeleton_edges() -> list[tuple[int, int]]:
    edges = []
    for f in range(5):
        mcp = 1 + 4 * f
        edges.append((0, mcp))
        for j in range(3):
            edges.append((mcp + j, mcp + j + 1))
    base = NUM_HAND_NODES
    for i in range(8):
        for bit in (1, 2, 4):
            j = i ^ bit
            if i < j:
                edges.append((base + i, base + j))
    return edges


NODE_NAMES = _node_names()

HAND_INDICES = np.arange(NUM_HAND_NODES)
OBJECT_INDICES = np.arange(NUM_HAND_NODES, NUM_NODES)
# Shared by every caller, so a write through one would corrupt the rest.
HAND_INDICES.flags.writeable = False
OBJECT_INDICES.flags.writeable = False


def skeleton_adjacency() -> np.ndarray:
    a = np.zeros((NUM_NODES, NUM_NODES), dtype=np.float64)
    for i, j in _skeleton_edges():
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def finger_indices(finger: str) -> np.ndarray:
    if finger not in FINGER_NAMES:
        raise DomainError(f"unknown finger {finger!r}")
    f = FINGER_NAMES.index(finger)
    return np.arange(1 + 4 * f, 1 + 4 * f + 4)


def joint_type_indices(joint: str) -> np.ndarray:
    """Indices of all joints of one type ('wrist', 'mcp', 'pip', 'dip', 'tip')."""
    if joint == "wrist":
        return np.array([0])
    if joint not in JOINT_TYPES:
        raise DomainError(f"unknown joint type {joint!r}")
    j = JOINT_TYPES.index(joint)
    return np.array([1 + 4 * f + j for f in range(5)])


def resolve_subset(subset: str) -> np.ndarray:
    """Map 'all' / 'hand' / 'object' to node indices."""
    if subset == "all":
        return np.arange(NUM_NODES)
    if subset == "hand":
        return HAND_INDICES
    if subset == "object":
        return OBJECT_INDICES
    raise DomainError(f"unknown keypoint subset {subset!r}")


def _groups_29_to_15() -> list[list[int]]:
    groups = [[0]]
    for f in range(5):
        mcp = 1 + 4 * f
        groups.append([mcp, mcp + 1])        # mcp+pip
        groups.append([mcp + 2, mcp + 3])    # dip+tip
    base = NUM_HAND_NODES
    for pair in range(4):                     # corners merged along axis 0
        groups.append([base + 2 * pair, base + 2 * pair + 1])
    return groups


def _groups_15_to_8() -> list[list[int]]:
    # level-15 layout: wrist, 5x(proximal, distal), 4 corner pairs
    groups = [[0]]
    for f in range(5):
        groups.append([1 + 2 * f, 2 + 2 * f])
    groups.append([11, 12])
    groups.append([13, 14])
    return groups


def _groups_8_to_4() -> list[list[int]]:
    # level-8 layout: wrist, 5 fingers, 2 box halves
    return [[0], [1, 2], [3, 4, 5], [6, 7]]


# The graph U-Net's node count at each level, from the full graph down.
NODE_SCHEDULE = (29, 15, 8, 4)

# Anatomy-aligned partitions used by the fixed (non-trainable) pooling
# variant, one per level of NODE_SCHEDULE.
FIXED_POOL_GROUPS: dict[tuple[int, int], list[list[int]]] = {
    (29, 15): _groups_29_to_15(),
    (15, 8): _groups_15_to_8(),
    (8, 4): _groups_8_to_4(),
}

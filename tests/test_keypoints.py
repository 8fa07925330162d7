"""Node naming, graph structure, and the pooling partitions."""

import numpy as np
import pytest

from graphlift.errors import DomainError
from graphlift.keypoints import (
    FINGER_NAMES, FIXED_POOL_GROUPS, HAND_INDICES, JOINT_TYPES, NODE_NAMES, NUM_HAND_NODES,
    NUM_NODES, NUM_OBJECT_NODES, OBJECT_INDICES, finger_indices, joint_type_indices,
    resolve_subset, skeleton_adjacency,
)


def test_node_counts():
    assert NUM_HAND_NODES == 21
    assert NUM_OBJECT_NODES == 8
    assert NUM_NODES == 29


def test_node_names_cover_hand_and_box():
    assert len(NODE_NAMES) == 29
    assert NODE_NAMES[0] == "wrist"
    assert len(set(NODE_NAMES)) == 29
    # five fingers, four joints each, then eight corners
    for f in FINGER_NAMES:
        for jt in JOINT_TYPES:
            assert any(f in n and jt in n for n in NODE_NAMES[1:21])
    assert sum("corner" in n for n in NODE_NAMES) == 8


def test_finger_and_joint_indices():
    np.testing.assert_array_equal(finger_indices("thumb"), [1, 2, 3, 4])
    np.testing.assert_array_equal(finger_indices("little"), [17, 18, 19, 20])
    np.testing.assert_array_equal(joint_type_indices("wrist"), [0])
    np.testing.assert_array_equal(joint_type_indices("mcp"), [1, 5, 9, 13, 17])
    np.testing.assert_array_equal(joint_type_indices("tip"), [4, 8, 12, 16, 20])
    with pytest.raises(DomainError):
        finger_indices("pinkie")
    with pytest.raises(DomainError):
        joint_type_indices("palm")


def test_skeleton_adjacency_structure():
    a = skeleton_adjacency()
    assert a.shape == (29, 29)
    np.testing.assert_array_equal(a, a.T)
    assert set(np.unique(a)) <= {0.0, 1.0}
    np.testing.assert_array_equal(np.diag(a), 0.0)
    deg = a.sum(axis=1)
    # wrist connects to the five MCPs
    assert deg[0] == 5
    # finger chains: mcp(wrist+next)=2 except mcp also chains, pip/dip=2, tip=1
    assert deg[4] == 1 and deg[8] == 1            # tips
    # each box corner touches exactly 3 others (cube edges)
    np.testing.assert_array_equal(deg[21:], 3.0)
    # hand and box are disconnected components
    assert a[:21, 21:].sum() == 0
    # total edges: 20 hand bones + 5 wrist spokes is 25? chains give 15+5 mcp links
    assert a[:21, :21].sum() / 2 == 20
    assert a[21:, 21:].sum() / 2 == 12


def test_fixed_pool_groups_are_partitions():
    for (n_in, n_out), groups in FIXED_POOL_GROUPS.items():
        flat = [i for g in groups for i in g]
        assert len(groups) == n_out
        assert all(len(g) > 0 for g in groups)
        assert sorted(flat) == list(range(n_in))


def test_pool_group_chain_matches_node_schedule():
    assert set(FIXED_POOL_GROUPS) == {(29, 15), (15, 8), (8, 4)}


def test_resolve_subset():
    np.testing.assert_array_equal(resolve_subset("all"), np.arange(29))
    np.testing.assert_array_equal(resolve_subset("hand"), np.arange(21))
    np.testing.assert_array_equal(resolve_subset("object"), np.arange(21, 29))
    for bad in ("feet", [3, 1]):
        with pytest.raises(DomainError):
            resolve_subset(bad)


def test_shared_index_arrays_reject_writes():
    for shared in (HAND_INDICES, OBJECT_INDICES, resolve_subset("hand"),
                   resolve_subset("object")):
        with pytest.raises(ValueError):
            shared[0] = 5
    np.testing.assert_array_equal(HAND_INDICES, np.arange(21))
    np.testing.assert_array_equal(OBJECT_INDICES, np.arange(21, 29))

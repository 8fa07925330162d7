"""Node naming, graph structure, and the pooling partitions."""

import numpy as np
import pytest

from graphlift.errors import DimensionError, DomainError
from graphlift.keypoints import (
    FINGER_NAMES, FIXED_POOL_GROUPS, JOINT_TYPES, NUM_HAND_NODES, NUM_NODES,
    NUM_OBJECT_NODES, KeypointGraph, default_graph,
)


def test_node_counts():
    assert NUM_HAND_NODES == 21
    assert NUM_OBJECT_NODES == 8
    assert NUM_NODES == 29


def test_node_names_cover_hand_and_box():
    g = default_graph()
    assert len(g.node_names) == 29
    assert g.node_names[0] == "wrist"
    assert len(set(g.node_names)) == 29
    # five fingers, four joints each, then eight corners
    for f in FINGER_NAMES:
        for jt in JOINT_TYPES:
            assert any(f in n and jt in n for n in g.node_names[1:21])
    assert sum("corner" in n for n in g.node_names) == 8


def test_finger_and_joint_indices():
    g = default_graph()
    np.testing.assert_array_equal(g.finger_indices("thumb"), [1, 2, 3, 4])
    np.testing.assert_array_equal(g.finger_indices("little"), [17, 18, 19, 20])
    np.testing.assert_array_equal(g.joint_type_indices("wrist"), [0])
    np.testing.assert_array_equal(g.joint_type_indices("mcp"), [1, 5, 9, 13, 17])
    np.testing.assert_array_equal(g.joint_type_indices("tip"), [4, 8, 12, 16, 20])
    np.testing.assert_array_equal(g.tip_indices(), [4, 8, 12, 16, 20])
    with pytest.raises(DomainError):
        g.finger_indices("pinkie")
    with pytest.raises(DomainError):
        g.joint_type_indices("palm")


def test_skeleton_adjacency_structure():
    a = default_graph().skeleton_adjacency
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
        assert sorted(flat) == list(range(n_in))


def test_pool_group_chain_matches_node_schedule():
    assert set(FIXED_POOL_GROUPS) == {(29, 15), (15, 8), (8, 4)}


def test_resolve_subset():
    g = default_graph()
    np.testing.assert_array_equal(g.resolve_subset("all"), np.arange(29))
    np.testing.assert_array_equal(g.resolve_subset("hand"), np.arange(21))
    np.testing.assert_array_equal(g.resolve_subset("object"), np.arange(21, 29))
    for bad in ("feet", [3, 1]):
        with pytest.raises(DomainError):
            g.resolve_subset(bad)


def test_graph_rejects_wrong_name_count():
    with pytest.raises(DimensionError):
        KeypointGraph(node_names=("a", "b"))

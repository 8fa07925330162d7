"""Renormalization oracles and adjacency initialization variants."""

import numpy as np
import pytest

from graphlift.adjacency import (
    ADJACENCY_INIT_VARIANTS, initial_adjacency, normalize_adjacency,
)
from graphlift.errors import DimensionError, DomainError
from graphlift.keypoints import NUM_NODES


# Hand-derived renormalization cases.  With A_hat = A + I and D the row
# sums of A_hat, the result is D^{-1/2} A_hat D^{-1/2}.

def test_zeros_normalizes_to_identity():
    out = normalize_adjacency(np.zeros((3, 3)))
    np.testing.assert_allclose(out, np.eye(3), atol=1e-12)


def test_single_edge_gives_all_half():
    # two nodes, one edge: A_hat is all ones, both degrees 2
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = normalize_adjacency(a)
    np.testing.assert_allclose(out, np.full((2, 2), 0.5), atol=1e-12)


def test_triangle_gives_all_third():
    a = np.ones((3, 3)) - np.eye(3)
    out = normalize_adjacency(a)
    np.testing.assert_allclose(out, np.full((3, 3), 1.0 / 3.0), atol=1e-12)


def test_normalize_rejects_negative():
    with pytest.raises(DomainError):
        normalize_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_normalize_rejects_non_square():
    with pytest.raises(DimensionError):
        normalize_adjacency(np.zeros((2, 3)))


def test_normalize_path_graph_values():
    # 3-node path 0-1-2: degrees of A_hat are (2, 3, 2)
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    out = normalize_adjacency(a)
    s2, s3 = 1 / np.sqrt(2), 1 / np.sqrt(3)
    expect = np.array([
        [0.5,       s2 * s3,  0.0],
        [s2 * s3,   1 / 3.0,  s2 * s3],
        [0.0,       s2 * s3,  0.5],
    ])
    np.testing.assert_allclose(out, expect, atol=1e-12)
    np.testing.assert_allclose(out, out.T, atol=1e-15)


def test_initial_adjacency_literal_variants():
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(initial_adjacency("zeros", 5, rng), np.zeros((5, 5)))
    np.testing.assert_array_equal(initial_adjacency("identity", 5, rng), np.eye(5))
    np.testing.assert_array_equal(initial_adjacency("ones", 5, rng), np.ones((5, 5)))


def test_initial_adjacency_random_range_and_determinism():
    a = initial_adjacency("random", 8, np.random.default_rng(11))
    b = initial_adjacency("random", 8, np.random.default_rng(11))
    np.testing.assert_array_equal(a, b)
    assert a.min() >= 0.0 and a.max() < 1.0
    assert np.unique(a).size > 50     # actually random, not constant


def test_initial_adjacency_skeleton():
    rng = np.random.default_rng(0)
    full = initial_adjacency("skeleton", NUM_NODES, rng)
    assert full.shape == (NUM_NODES, NUM_NODES)
    np.testing.assert_allclose(full, full.T, atol=1e-15)
    assert (full >= 0).all()
    # row sums of the normalized matrix are not all 1, but diagonal is positive
    assert (np.diag(full) > 0).all()
    # pooled node counts have no skeleton; falls back to identity
    np.testing.assert_array_equal(initial_adjacency("skeleton", 15, rng), np.eye(15))


def test_initial_adjacency_unknown_variant():
    with pytest.raises(DomainError):
        initial_adjacency("magic", 5, np.random.default_rng(0))
    assert set(ADJACENCY_INIT_VARIANTS) == {"zeros", "random", "ones", "skeleton", "identity"}

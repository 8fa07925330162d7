"""Adjacency matrices: renormalization and the initialization variants.

normalize_adjacency implements the symmetric renormalization
D^{-1/2} (A + I) D^{-1/2} used for fixed graphs.  Learned adjacency
kernels are deliberately used raw: with per-step renormalization a zero
initialization and an identity initialization would collapse to the same
propagation matrix, erasing the behavioral difference the initialization
study depends on.  Renormalization therefore applies only when deriving
an initial kernel from a fixed graph.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError
from .keypoints import NUM_NODES, skeleton_adjacency

__all__ = ["normalize_adjacency", "initial_adjacency", "ADJACENCY_INIT_VARIANTS"]

ADJACENCY_INIT_VARIANTS = ("zeros", "random", "ones", "skeleton", "identity")


def normalize_adjacency(raw) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} with D the degree matrix of A + I.

    Requires non-negative entries; self-loops make every degree >= 1, so
    the inverse square root always exists.  Zero input yields the
    identity; symmetric input yields symmetric output.
    """
    a = np.asarray(raw, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"adjacency must be square, got shape {a.shape}")
    if np.any(a < 0):
        raise DomainError("normalize_adjacency requires non-negative entries")
    a_hat = a + np.eye(a.shape[0])
    d = a_hat.sum(axis=1)
    d_inv_sqrt = 1.0 / np.sqrt(d)
    return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def initial_adjacency(variant: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Initial value for a trainable adjacency kernel of size n.

    zeros/ones/identity/random are literal; 'skeleton' is the normalized
    29-node hand-object skeleton, falling back to identity at pooled node
    counts where no skeleton exists.  'random' draws uniform [0, 1) so the
    kernel starts as a dense non-negative soup, clearly distinct from the
    structured variants.
    """
    if variant == "zeros":
        return np.zeros((n, n))
    if variant == "identity":
        return np.eye(n)
    if variant == "ones":
        return np.ones((n, n))
    if variant == "random":
        return rng.uniform(0.0, 1.0, size=(n, n))
    if variant == "skeleton":
        if n == NUM_NODES:
            return normalize_adjacency(skeleton_adjacency())
        return np.eye(n)
    raise DomainError(f"unknown adjacency init {variant!r}; "
                      f"expected one of {ADJACENCY_INIT_VARIANTS}")

"""Pose accuracy metrics.

PCP here is sample-level: a sample counts as correct when its mean
per-keypoint Euclidean distance to the ground truth is strictly below
the threshold.  Curves sweep the threshold and AUC is the trapezoidal
area under the curve normalized by the threshold span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .keypoints import (FINGER_NAMES, HAND_INDICES, JOINT_TYPES, NUM_NODES, OBJECT_INDICES,
                        finger_indices, joint_type_indices, resolve_subset)
from .outputs import rewrite_csv

__all__ = [
    "PcpCurve", "pcp_curve", "auc", "per_joint_errors",
    "default_thresholds", "curve_to_csv",
]


@dataclass(frozen=True)
class PcpCurve:
    """A PCP-vs-threshold curve. Thresholds strictly ascending."""

    thresholds: np.ndarray
    fractions: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        f = np.asarray(self.fractions, dtype=np.float64)
        if t.ndim != 1 or f.ndim != 1 or t.shape != f.shape:
            raise DimensionError("thresholds and fractions must be matched 1-D arrays")
        if t.size == 0:
            raise DomainError("curve must have at least one point")
        if not (np.isfinite(t).all() and np.isfinite(f).all()):
            raise DomainError("curve values must be finite")
        if t.size > 1 and not (np.diff(t) > 0).all():
            raise DomainError("thresholds must be strictly increasing")
        if f.min() < -1e-12 or f.max() > 1.0 + 1e-12:
            raise DomainError("fractions must lie in [0, 1]")
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "fractions", f)


def _distances(preds, gts) -> np.ndarray:
    """Per-sample per-node Euclidean distances of (N, 29, 2|3) arrays, shape (N, 29)."""
    p = np.asarray(preds, dtype=np.float64)
    g = np.asarray(gts, dtype=np.float64)
    if p.shape != g.shape:
        raise DimensionError(f"prediction shape {p.shape} != ground truth shape {g.shape}")
    if p.ndim != 3 or p.shape[1] != NUM_NODES or p.shape[2] not in (2, 3):
        raise DimensionError(f"expected (n, {NUM_NODES}, 2|3) arrays, got {p.shape}")
    return np.linalg.norm(p - g, axis=2)


def pcp_curve(preds, gts, thresholds, subset="all") -> PcpCurve:
    """PCP swept over a grid of thresholds, such as default_thresholds()."""
    t = np.asarray(thresholds, dtype=np.float64)
    means = _distances(preds, gts)[:, resolve_subset(subset)].mean(axis=1)
    fractions = (means[:, None] < t[None, :]).mean(axis=0)
    return PcpCurve(t, fractions)


def default_thresholds(limit: float = 50.0, count: int = 51) -> np.ndarray:
    return np.linspace(0.0, float(limit), int(count))


def auc(curve: PcpCurve) -> float:
    """Trapezoidal area under the curve, normalized by threshold span."""
    t, f = curve.thresholds, curve.fractions
    if t.size < 2:
        raise DomainError("AUC needs at least two thresholds")
    return float(np.trapezoid(f, t) / (t[-1] - t[0]))


def per_joint_errors(preds, gts) -> dict:
    """Mean Euclidean error per node plus grouped breakdowns.

    Returns a dict with 'per_node' (29 values), 'joint_types' and
    'fingers' sub-dicts, and scalar 'hand' / 'object' / 'all' means.
    """
    d = _distances(preds, gts)
    per_node = d.mean(axis=0)
    joint_types = {jt: float(per_node[joint_type_indices(jt)].mean())
                   for jt in ("wrist",) + JOINT_TYPES}
    fingers = {f: float(per_node[finger_indices(f)].mean()) for f in FINGER_NAMES}
    return {
        "per_node": per_node,
        "joint_types": joint_types,
        "fingers": fingers,
        "hand": float(per_node[HAND_INDICES].mean()),
        "object": float(per_node[OBJECT_INDICES].mean()),
        "all": float(per_node.mean()),
    }


def curve_to_csv(curve: PcpCurve, path) -> None:
    rewrite_csv(path, [("threshold", "fraction"),
                       *zip(curve.thresholds, curve.fractions)])

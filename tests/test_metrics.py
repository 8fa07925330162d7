"""PCP, AUC, and per-joint breakdowns against brute-force definitions."""

import csv

import numpy as np
import pytest

from graphlift.errors import DimensionError, DomainError
from graphlift.keypoints import HAND_INDICES, finger_indices, joint_type_indices, resolve_subset
from graphlift.metrics import (PcpCurve, auc, curve_to_csv, default_thresholds, pcp_curve,
                               per_joint_errors)


def random_pair(seed, n=50, dim=3):
    rng = np.random.default_rng(seed)
    gts = rng.normal(scale=40.0, size=(n, 29, dim))
    preds = gts + rng.normal(scale=15.0, size=(n, 29, dim))
    return preds, gts


def pcp_bruteforce(preds, gts, threshold, idx):
    hits = 0
    for p, g in zip(preds, gts):
        dists = [np.linalg.norm(p[i] - g[i]) for i in idx]
        hits += (sum(dists) / len(dists)) < threshold
    return hits / len(preds)


def pcp(preds, gts, threshold, subset="all"):
    """The PCP curve's fraction at a single threshold."""
    return float(pcp_curve(preds, gts, [threshold], subset).fractions[0])


# ---- pcp ---------------------------------------------------------------------


def test_pcp_perfect_predictions():
    preds, gts = random_pair(0)
    assert pcp(gts, gts, 0.001) == 1.0
    assert pcp(gts, gts, 500.0) == 1.0


def test_pcp_strict_at_exact_threshold():
    gts = np.zeros((1, 29, 3))
    preds = gts + np.array([3.0, 4.0, 0.0])     # every node exactly 5 mm off
    assert pcp(preds, gts, 5.0) == 0.0
    assert pcp(preds, gts, 5.01) == 1.0


def test_pcp_counts_samples():
    gts = np.zeros((2, 29, 3))
    preds = gts.copy()
    preds[0] += [3.0, 0.0, 0.0]                 # mean error 3
    preds[1] += [30.0, 0.0, 0.0]                # mean error 30
    assert pcp(preds, gts, 10.0) == 0.5


def test_pcp_subsets():
    gts = np.zeros((1, 29, 3))
    preds = gts.copy()
    preds[0, HAND_INDICES] += [10.0, 0.0, 0.0]
    assert pcp(preds, gts, 5.0, subset="hand") == 0.0
    assert pcp(preds, gts, 5.0, subset="object") == 1.0
    # all-nodes mean is 10 * 21/29 ~ 7.24
    assert pcp(preds, gts, 8.0, subset="all") == 1.0
    assert pcp(preds, gts, 7.0, subset="all") == 0.0


@pytest.mark.parametrize("subset", ["all", "hand", "object"])
@pytest.mark.parametrize("dim", [2, 3])
def test_pcp_matches_bruteforce(subset, dim):
    preds, gts = random_pair(1, dim=dim)
    idx = resolve_subset(subset)
    for threshold in (5.0, 15.0, 30.0, 60.0):
        assert abs(pcp(preds, gts, threshold, subset)
                   - pcp_bruteforce(preds, gts, threshold, idx)) < 1e-9


def test_pcp_validation():
    preds, gts = random_pair(2, n=3)
    with pytest.raises(DomainError):
        pcp(preds, gts, np.inf)
    with pytest.raises(DomainError):
        pcp(preds, gts, 5.0, subset="feet")
    with pytest.raises(DimensionError):
        pcp(preds[:2], gts, 5.0)
    with pytest.raises(DimensionError):
        pcp(np.zeros((3, 21, 3)), np.zeros((3, 21, 3)), 5.0)
    with pytest.raises(DimensionError):   # unbatched
        pcp(preds[0], gts[0], 5.0)


def test_pcp_curve_monotone_and_saturating():
    preds, gts = random_pair(3)
    curve = pcp_curve(preds, gts, default_thresholds())
    assert np.all(np.diff(curve.fractions) >= 0.0)
    np.testing.assert_array_equal(curve.thresholds, default_thresholds())
    wide = pcp_curve(preds, gts, thresholds=[1.0, 1e9])
    assert wide.fractions[-1] == 1.0


def test_default_thresholds_grid():
    t = default_thresholds()
    assert t.shape == (51,)
    assert t[0] == 0.0 and t[-1] == 50.0
    np.testing.assert_allclose(np.diff(t), 1.0, atol=1e-12)


# ---- auc ---------------------------------------------------------------------


def test_auc_constant_one():
    curve = PcpCurve(np.linspace(0, 50, 11), np.ones(11))
    assert auc(curve) == 1.0


def test_auc_linear_ramp_is_half():
    t = np.linspace(0.0, 50.0, 26)
    curve = PcpCurve(t, t / 50.0)
    np.testing.assert_allclose(auc(curve), 0.5, atol=1e-12)


def test_auc_matches_rectangle_sum():
    rng = np.random.default_rng(4)
    t = np.sort(rng.uniform(0, 50, size=40))
    t[0], t[-1] = 0.0, 50.0
    f = np.clip(np.sort(rng.uniform(0, 1, size=40)), 0, 1)
    curve = PcpCurve(t, f)
    # midpoint rectangles on each linear segment integrate it exactly
    total = 0.0
    for i in range(len(t) - 1):
        sub = np.linspace(t[i], t[i + 1], 101)
        mids = (sub[:-1] + sub[1:]) / 2.0
        vals = np.interp(mids, t, f)
        total += np.sum(vals * np.diff(sub))
    np.testing.assert_allclose(auc(curve), total / 50.0, atol=1e-9)


def test_auc_bounds_and_pointwise_max_property():
    rng = np.random.default_rng(5)
    t = np.linspace(0, 50, 51)
    for _ in range(10):
        fa = np.sort(rng.uniform(0, 1, size=51))
        fb = np.sort(rng.uniform(0, 1, size=51))
        a, b = PcpCurve(t, fa), PcpCurve(t, fb)
        hi = PcpCurve(t, np.maximum(fa, fb))
        assert 0.0 <= auc(a) <= 1.0
        assert auc(hi) >= max(auc(a), auc(b)) - 1e-12


def test_auc_needs_two_points():
    with pytest.raises(DomainError):
        auc(PcpCurve(np.array([5.0]), np.array([0.5])))


def test_curve_validation():
    with pytest.raises(DomainError):
        PcpCurve(np.array([3.0, 2.0, 5.0]), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(DomainError):
        PcpCurve(np.array([1.0, 2.0]), np.array([0.0, 1.5]))
    with pytest.raises(DomainError):
        PcpCurve(np.array([1.0, np.nan]), np.array([0.0, 1.0]))
    with pytest.raises(DimensionError):
        PcpCurve(np.array([1.0, 2.0]), np.array([0.5]))


# ---- per-joint breakdowns -----------------------------------------------------


def test_per_joint_zero_for_perfect():
    _, gts = random_pair(6, n=4)
    report = per_joint_errors(gts, gts)
    np.testing.assert_array_equal(report["per_node"], np.zeros(29))
    assert report["all"] == 0.0


def test_per_joint_single_displacement():
    gts = np.zeros((1, 29, 3))
    preds = gts.copy()
    preds[0, 9] += [0.0, 7.0, 0.0]              # middle-finger MCP node
    report = per_joint_errors(preds, gts)
    expected = np.zeros(29)
    expected[9] = 7.0
    np.testing.assert_allclose(report["per_node"], expected, atol=1e-12)
    np.testing.assert_allclose(report["joint_types"]["mcp"], 7.0 / 5.0, atol=1e-12)
    np.testing.assert_allclose(report["fingers"]["middle"], 7.0 / 4.0, atol=1e-12)
    assert report["joint_types"]["wrist"] == 0.0
    assert report["object"] == 0.0


def test_per_joint_groups_average_by_hand():
    preds, gts = random_pair(7, n=12)
    report = per_joint_errors(preds, gts)
    d = np.linalg.norm(preds - gts, axis=2)
    per_node = d.mean(axis=0)
    np.testing.assert_allclose(report["per_node"], per_node, atol=1e-12)
    for jt in ("mcp", "pip", "dip", "tip"):
        np.testing.assert_allclose(report["joint_types"][jt],
                                   per_node[joint_type_indices(jt)].mean(),
                                   atol=1e-12)
    for f in ("thumb", "index", "middle", "ring", "little"):
        np.testing.assert_allclose(report["fingers"][f],
                                   per_node[finger_indices(f)].mean(),
                                   atol=1e-12)
    np.testing.assert_allclose(report["hand"], per_node[:21].mean(), atol=1e-12)
    np.testing.assert_allclose(report["object"], per_node[21:].mean(), atol=1e-12)


def test_per_joint_all_equals_global_mean():
    preds, gts = random_pair(8, n=9)
    report = per_joint_errors(preds, gts)
    global_mean = np.linalg.norm(preds - gts, axis=2).mean()
    assert abs(report["all"] - global_mean) < 1e-12
    assert abs(report["per_node"].mean() - global_mean) < 1e-12


# ---- csv round trip -----------------------------------------------------------


def test_curve_csv_round_trip(tmp_path):
    preds, gts = random_pair(9)
    curve = pcp_curve(preds, gts, default_thresholds())
    path = str(tmp_path / "curve.csv")
    curve_to_csv(curve, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["threshold", "fraction"]
    back = PcpCurve(*np.array(rows, dtype=np.float64).T)
    np.testing.assert_array_equal(back.thresholds, curve.thresholds)
    np.testing.assert_array_equal(back.fractions, curve.fractions)
    np.testing.assert_allclose(auc(back), auc(curve), atol=0)

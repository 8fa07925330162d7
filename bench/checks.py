"""Output checks the workloads apply after their timed phase.

Each check takes plain values (arrays, rows parsed from the program's
CSV files, numbers) and returns a list of problems; an empty list means
the output passed.  They compare the program against a computation made
apart from it (see oracle.py) or against a property the method must have.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

import oracle


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def stage_losses(totals: np.ndarray, stage: int, steps_per_epoch: int) -> list[str]:
    """Every logged loss is finite and the last epoch's mean training loss
    is below the first epoch's."""
    if totals.size == 0 or not np.all(np.isfinite(totals)):
        return [f"stage {stage}: empty or non-finite training loss"]
    first = totals[:steps_per_epoch].mean()
    last = totals[-steps_per_epoch:].mean()
    if not last < first:
        return [f"stage {stage}: last-epoch mean loss {last:.6g} is not below "
                f"the first epoch's {first:.6g}"]
    return []


def matches(name: str, reported: float, expected: float, tol: float) -> list[str]:
    if not (math.isfinite(reported) and rel_diff(reported, expected) <= tol):
        return [f"{name}: program reports {reported!r}, reference gives {expected!r} "
                f"(tolerance {tol:g} relative)"]
    return []


def arrays_match(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    scale = max(float(np.abs(want).max()), 1e-300)
    worst = float(np.abs(got - want).max()) / scale
    if got.shape != want.shape or not worst <= tol:
        return [f"{name}: differs from the reference by {worst:.3g} of its "
                f"largest magnitude (tolerance {tol:g})"]
    return []


def read_summary(report_dir: str) -> dict[str, float]:
    with open(os.path.join(report_dir, "summary.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    return {k: float(v) for k, v in rows[1:]}


def read_curve(path: str) -> tuple[np.ndarray, np.ndarray]:
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return body[:, 0], body[:, 1]


EVAL_CURVES = ("curve_2d", "curve_3d", "curve_3d_hand", "curve_3d_object")
EVAL_AUCS = ("auc_2d", "auc_3d", "auc_3d_hand", "auc_3d_object")


def eval_report(summary: dict, curves: dict, refined2d: np.ndarray,
                pred3d: np.ndarray, gt2d: np.ndarray, gt3d: np.ndarray) -> list[str]:
    """`graphlift eval` output of a cascade against the oracle's predictions.

    `curves` maps each EVAL_CURVES name to its (thresholds, fractions).
    """
    problems = []
    for key in EVAL_AUCS + ("mean_error_2d_px", "mean_error_3d_mm",
                            "mean_error_3d_hand_mm", "mean_error_3d_object_mm"):
        if key not in summary:
            return [f"summary.csv lacks {key}"]
    problems += matches("mean_error_3d_mm", summary["mean_error_3d_mm"],
                        oracle.mean_error(pred3d, gt3d), 1e-9)
    problems += matches("mean_error_2d_px", summary["mean_error_2d_px"],
                        oracle.mean_error(refined2d, gt2d), 1e-9)
    h = oracle.HAND_NODES
    o = oracle.NUM_NODES - h
    overall = (h * summary["mean_error_3d_hand_mm"]
               + o * summary["mean_error_3d_object_mm"]) / oracle.NUM_NODES
    problems += matches("3D mean vs (21 hand + 8 object)/29", summary["mean_error_3d_mm"],
                        overall, 1e-12)
    for name in EVAL_CURVES:
        t, f = curves[name]
        if not (np.all(np.diff(f) >= 0) and f.min() >= 0.0 and f.max() <= 1.0):
            problems.append(f"{name}: PCP curve leaves [0, 1] or decreases")
        if not np.all(np.diff(t) > 0):
            problems.append(f"{name}: thresholds are not increasing")
    for key in EVAL_AUCS:
        if not 0.0 <= summary[key] <= 1.0:
            problems.append(f"{key} = {summary[key]!r} lies outside [0, 1]")
    return problems


def ablation_tables(runs: list[dict], summary: list[dict], variants: tuple,
                    seeds: tuple) -> list[str]:
    """Rows of `<suite>_runs.csv` and `<suite>_summary.csv`: every cell is
    present with status ok and improved on its initial error, and each
    variant's summary mean is the mean of its per-run errors."""
    problems = []
    cells = {(r["variant"], int(r["seed"])) for r in runs}
    if cells != {(v, s) for v in variants for s in seeds} or len(runs) != len(cells):
        problems.append(f"runs table holds cells {sorted(cells)}")
    for r in runs:
        initial, final = float(r["initial_error_mm"]), float(r["mean_error_mm"])
        if r["status"] != "ok":
            problems.append(f"{r['variant']} seed {r['seed']}: status {r['status']}")
        if not final < initial:
            problems.append(f"{r['variant']} seed {r['seed']}: final error {final!r} "
                            f"not below initial {initial!r}")
    by_variant = {row["variant"]: float(row["mean_error_mm"]) for row in summary}
    if set(by_variant) != set(variants):
        problems.append(f"summary lists variants {sorted(by_variant)}")
    for v, mean in by_variant.items():
        errs = [float(r["mean_error_mm"]) for r in runs if r["variant"] == v]
        if errs:
            problems += matches(f"summary mean of {v}", mean, sum(errs) / len(errs), 1e-12)
    return problems


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def central_differences(loss, params: dict, coords: list[tuple[str, int]],
                        eps: float = 1e-6) -> list[float]:
    """d loss / d params[name].flat[i] by central differences, for each
    (name, i); `loss()` returns a float from the current values."""
    out = []
    for name, i in coords:
        flat = params[name].reshape(-1)
        x0 = flat[i]
        h = eps * max(1.0, abs(x0))
        flat[i] = x0 + h
        up = loss()
        flat[i] = x0 - h
        down = loss()
        flat[i] = x0
        out.append((up - down) / (2 * h))
    return out


def gradients(analytic: list[float], numeric: list[float], coords: list,
              tol: float = 1e-4) -> list[str]:
    """Relative error |a - n| / max(1, |a|, |n|) of each sampled coordinate."""
    problems = []
    for (name, i), a, n in zip(coords, analytic, numeric):
        rel = abs(a - n) / max(1.0, abs(a), abs(n))
        if not rel < tol:
            problems.append(f"gradient of {name}[{i}]: analytic {a!r}, central "
                            f"difference {n!r}, relative error {rel:.3g}")
    return problems

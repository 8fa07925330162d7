"""Ablation harness: suite definitions, statuses, summaries, determinism."""

import csv
import math

import numpy as np
import pytest

from graphlift import ablation
from graphlift.ablation import (AblationConfig, AblationRun, SUITES, run_ablation,
                                run_one, summarize, write_runs_csv,
                                write_summary_csv)
from graphlift.errors import DomainError
from graphlift.synth import generate_dataset

TINY = AblationConfig(epochs=2, batch_size=16, unet_widths=(4, 8, 8, 16))


@pytest.fixture(scope="module")
def records():
    return generate_dataset(20, seed=13)


def test_suite_definitions():
    assert SUITES["architecture"] == ("fc", "gcn", "unet")
    assert SUITES["pooling"] == ("trainable", "gpool", "fixed")
    assert SUITES["adjacency_init"] == ("zeros", "random", "ones", "skeleton",
                                        "identity")


def test_zeros_init_run_is_frozen(records):
    run = run_one("adjacency_init", "zeros", 0, records, TINY)
    assert run.status == "frozen"
    assert run.mean_error_mm == run.initial_error_mm
    assert math.isfinite(run.mean_error_mm)


def test_run_ablation_layout_and_determinism(records):
    runs = run_ablation("architecture", records, seeds=(0, 1), config=TINY)
    assert [(r.variant, r.seed) for r in runs] == [
        ("fc", 0), ("fc", 1), ("gcn", 0), ("gcn", 1), ("unet", 0), ("unet", 1)]
    assert all(r.suite == "architecture" for r in runs)
    assert all(r.status in ("ok", "frozen", "diverged") for r in runs)
    again = run_ablation("architecture", records, seeds=(0, 1), config=TINY)
    assert runs == again


def test_run_ablation_parallel_matches_serial(records):
    serial = run_ablation("pooling", records, seeds=(0,), config=TINY, jobs=1)
    parallel = run_ablation("pooling", records, seeds=(0,), config=TINY, jobs=2)
    assert serial == parallel


def test_run_ablation_starts_at_most_one_worker_per_cell(records, monkeypatch):
    started = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records max_workers and maps
        in this process, so no worker starts."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(ablation, "ProcessPoolExecutor", SerialPool)
    runs = run_ablation("pooling", records, seeds=(0,), config=TINY, jobs=4)
    assert started == [3]
    assert [r.variant for r in runs] == list(SUITES["pooling"])


def test_run_ablation_validation(records):
    with pytest.raises(DomainError):
        run_ablation("optimizers", records)
    with pytest.raises(DomainError):
        run_ablation("pooling", records, seeds=())
    with pytest.raises(DomainError):
        run_one("pooling", "trainable", 0, records[:1], TINY)
    with pytest.raises(DomainError):
        AblationConfig(epochs=0)
    for batch_size in (0, -4):
        with pytest.raises(DomainError):
            AblationConfig(batch_size=batch_size)
    for widths in ((4, 8, 8), (4, 8, 0, 16)):
        with pytest.raises(DomainError):
            AblationConfig(unet_widths=widths)


def test_summarize_excludes_diverged():
    runs = [
        AblationRun("pooling", "trainable", 0, "ok", 100.0, 10.0),
        AblationRun("pooling", "trainable", 1, "ok", 100.0, 14.0),
        AblationRun("pooling", "trainable", 2, "diverged", 100.0, math.inf),
        AblationRun("pooling", "gpool", 0, "diverged", 100.0, math.inf),
        AblationRun("pooling", "gpool", 1, "diverged", 100.0, math.inf),
    ]
    table = summarize(runs)
    assert [row["variant"] for row in table] == ["trainable", "gpool"]
    assert set(table[0]) == {"variant", "mean_error_mm", "std_over_seeds"}
    np.testing.assert_allclose(table[0]["mean_error_mm"], 12.0)
    np.testing.assert_allclose(table[0]["std_over_seeds"], 2.0)
    assert table[1]["mean_error_mm"] == math.inf
    assert math.isnan(table[1]["std_over_seeds"])


def test_csv_outputs(records, tmp_path):
    runs = run_ablation("architecture", records, seeds=(0,), config=TINY)
    runs_path = str(tmp_path / "runs.csv")
    summary_path = str(tmp_path / "summary.csv")
    write_runs_csv(runs, runs_path)
    write_summary_csv(runs, summary_path)

    with open(runs_path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(runs)
    for row, run in zip(rows, runs):
        assert row["variant"] == run.variant
        assert float(row["mean_error_mm"]) == run.mean_error_mm

    with open(summary_path) as f:
        srows = list(csv.DictReader(f))
    assert [r["variant"] for r in srows] == list(SUITES["architecture"])
    table = summarize(runs)
    for got, want in zip(srows, table):
        assert float(got["mean_error_mm"]) == want["mean_error_mm"]

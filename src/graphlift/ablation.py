"""Ablation harness: trains a family of model variants under identical
budgets and seeds and tabulates mean 3D error per variant.

Three suites:

* architecture    -- dense baseline / plain GCN / graph U-Net
* pooling         -- trainable / fixed grouping / gpool inside the U-Net
* adjacency_init  -- zeros / random / ones / skeleton / identity kernels

Each (variant, seed) run trains the lifting network on noiseless
gt2d -> gt3d pairs and reports mean 3D keypoint error on a held-out
slice.  Divergent runs are recorded with status 'diverged'; runs whose
error never moves off its initial value are flagged 'frozen'.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields

import numpy as np

from .adjacency import ADJACENCY_INIT_VARIANTS
from .errors import DomainError, TrainingDiverged
from .models import FcBaselineModel, PlainGcnModel
from .outputs import rewrite_csv
from .synth import SampleRecord
from .training import eval_unet_mean_error, train_unet_stage2
from .unet import POOLING_VARIANTS, UNetConfig, GraphUNetModel

__all__ = [
    "AblationConfig", "AblationRun", "SUITES", "run_ablation",
    "summarize", "write_runs_csv", "write_summary_csv",
]

SUITES = {
    "architecture": ("fc", "gcn", "unet"),
    "pooling": tuple(POOLING_VARIANTS),
    "adjacency_init": tuple(ADJACENCY_INIT_VARIANTS),
}

DEFAULT_SEEDS = (0, 1, 2)

# Every variant trains with Adam on noiseless inputs and holds out the
# last fifth of the records for evaluation.
NOISE_SIGMA = 0.0
EVAL_FRACTION = 0.2


@dataclass(frozen=True)
class AblationConfig:
    """Shared training budget for every variant in a suite.

    The default widths are a quarter of the full model so a whole suite
    fits in a desk-scale run; every variant sees the same budget, so the
    comparison stays fair.
    """

    epochs: int = 30
    batch_size: int = 64
    unet_widths: tuple = (16, 32, 64, 128)

    def __post_init__(self):
        if self.epochs < 1:
            raise DomainError("epochs must be positive")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be positive, got {self.batch_size}")
        # the U-Net config owns the width rules; checking here rejects bad
        # widths before any variant of a suite trains
        UNetConfig(feature_schedule=self.unet_widths)


@dataclass(frozen=True)
class AblationRun:
    suite: str
    variant: str
    seed: int
    status: str              # 'ok' | 'diverged' | 'frozen'
    initial_error_mm: float
    mean_error_mm: float


def _build_model(suite: str, variant: str, seed: int, config: AblationConfig):
    if suite == "architecture":
        if variant == "fc":
            return FcBaselineModel(seed=seed)
        if variant == "gcn":
            return PlainGcnModel(seed=seed)
        if variant == "unet":
            return GraphUNetModel(UNetConfig(feature_schedule=config.unet_widths), seed=seed)
        raise DomainError(f"unknown architecture variant {variant!r}")
    if suite == "pooling":
        cfg = UNetConfig(feature_schedule=config.unet_widths, pooling=variant)
        return GraphUNetModel(cfg, seed=seed)
    if suite == "adjacency_init":
        cfg = UNetConfig(feature_schedule=config.unet_widths, adjacency_init=variant)
        return GraphUNetModel(cfg, seed=seed)
    raise DomainError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)}")


def _split(records: list[SampleRecord]):
    n_eval = max(1, int(round(len(records) * EVAL_FRACTION)))
    if n_eval >= len(records):
        raise DomainError("dataset too small to hold out an eval slice")
    return records[:-n_eval], records[-n_eval:]


def run_one(suite: str, variant: str, seed: int, records: list[SampleRecord],
            config: AblationConfig = AblationConfig()) -> AblationRun:
    """Train and evaluate a single (variant, seed) cell."""
    train_recs, eval_recs = _split(records)
    model = _build_model(suite, variant, seed, config)
    initial = eval_unet_mean_error(model, eval_recs, NOISE_SIGMA, seed)
    status = "ok"
    try:
        train_unet_stage2(model, train_recs, config.epochs, config.batch_size,
                          NOISE_SIGMA, seed=seed)
        final = eval_unet_mean_error(model, eval_recs, NOISE_SIGMA, seed)
        if not math.isfinite(final):
            status, final = "diverged", math.inf
        elif abs(final - initial) < 1e-9 * max(1.0, abs(initial)):
            status = "frozen"
    except TrainingDiverged:
        status, final = "diverged", math.inf
    return AblationRun(suite, variant, seed, status, initial, final)


def run_ablation(suite: str, records: list[SampleRecord],
                 seeds=DEFAULT_SEEDS, config: AblationConfig = AblationConfig(),
                 jobs: int = 1) -> list[AblationRun]:
    """All (variant, seed) runs for one suite, deterministic per cell.

    jobs > 1 trains the cells in separate processes, at most one per cell.
    """
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)}")
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise DomainError("need at least one seed")
    tasks = [(suite, variant, seed, records, config)
             for variant in SUITES[suite] for seed in seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(run_one, *zip(*tasks)))
    return [run_one(*t) for t in tasks]


def summarize(runs: list[AblationRun]) -> list[dict]:
    """Seed-averaged table: one row per variant, in suite order.

    Divergent seeds are excluded from the mean; a variant with no finite
    seed reports inf. std_over_seeds is the population std.
    """
    by_variant: dict[str, list[AblationRun]] = {}
    for r in runs:
        by_variant.setdefault(r.variant, []).append(r)
    table = []
    for variant, cells in by_variant.items():
        finite = [c.mean_error_mm for c in cells if math.isfinite(c.mean_error_mm)]
        if finite:
            mean = float(np.mean(finite))
            std = float(np.std(finite))
        else:
            mean, std = math.inf, math.nan
        table.append({"variant": variant, "mean_error_mm": mean,
                      "std_over_seeds": std})
    return table


def write_summary_csv(runs: list[AblationRun], path) -> None:
    cols = ("variant", "mean_error_mm", "std_over_seeds")
    rewrite_csv(path, [cols, *([row[c] for c in cols] for row in summarize(runs))])


def write_runs_csv(runs: list[AblationRun], path) -> None:
    rewrite_csv(path, [[f.name for f in fields(AblationRun)], *map(astuple, runs)])

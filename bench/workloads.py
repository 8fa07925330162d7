"""The three untraced workloads.

Each runs in its own process as a closed loop with one client: it builds
its inputs from the seed, then runs whole rounds of one graphlift
command, each round starting after the previous one ends, until the
next round would overrun the time budget (at least one round; two for
train-cascade).  Outputs
are checked after the timed phase.  See README.md for why each workload
exists and which metrics it should move.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from graphlift import cli
from graphlift.errors import GraphLiftError
from graphlift.models import save_model
from graphlift.pipeline import HopePipeline, PipelineConfig, hope_loss_terms
from graphlift.synth import generate_dataset, load_dataset, records_to_arrays, save_dataset
from graphlift.training import TrainConfig, mean_keypoint_error, pipeline_predictions, train

import checks
import oracle

# train-cascade: desk widths, batch 32, Adam, a shortened three-stage budget
STAGE_EPOCHS = (4, 25, 4)
# Rounds alternate between these initialisations and error_3d_mm is their
# mean: the stage-3 result swings with the training data, and one model's
# error spreads more widely over seeds than the mean of two (README.md).
TRAIN_MODEL_SEEDS = (0, 1)
MODEL_SEED = 0            # the cascade of eval-cascade and of the traced replay
GRADCHECK_BATCH = 4
GRADCHECK_COORDS = 6      # sampled per parameter group: stub, refine, U-Net
# ablate-pooling: the CLI defaults (quarter widths, batch 64, 30 epochs)
ABLATION_SEEDS = (0, 1, 2)
ABLATION_VARIANTS = ("trainable", "gpool", "fixed")
# the generated inputs of each workload: (file stem, sample count)
DATASETS = {
    "train-cascade": (("train", 256), ("heldout", 512)),
    "eval-cascade": (("eval", 2000),),
    "ablate-pooling": (("ablation", 400),),
}


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def no_span(name):
    return contextlib.nullcontext()


def make_datasets(workload: str, seed: int, out_dir, span=no_span) -> list[list]:
    """Generate the workload's datasets from its seed, write each as JSONL
    and read it back, as a user of `graphlift gen` would.  `span(name)`
    gives a context around each call."""
    sets = DATASETS[workload]
    seeds = np.random.SeedSequence(seed).generate_state(len(sets))
    out = []
    for (stem, n), data_seed in zip(sets, seeds):
        path = str(out_dir / f"{stem}.jsonl")
        with span("synth.generate_dataset"):
            records = generate_dataset(n, int(data_seed))
        with span("synth.save_dataset"):
            save_dataset(path, records)
        with span("synth.load_dataset"):
            out.append(load_dataset(path))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_rounds(res: Result, seconds: float, one_round, min_rounds: int = 1) -> list:
    """Call one_round(index) at least min_rounds times, then until another
    call would end past `seconds`.  Sets peak_rss_mb to the peak after the
    first round, set-up included, so that it does not depend on how many
    rounds fit; the peak after the last round goes to the details."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(one_round(len(results)))
        if len(results) == 1:
            res.metrics["peak_rss_mb"] = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if len(results) >= min_rounds and elapsed * (len(results) + 1) / len(results) > seconds:
            res.details["peak_rss_mb_last_round"] = peak_rss_mb()
            return results


def same_across_rounds(name: str, values: list) -> list[str]:
    first = values[0]
    for v in values[1:]:
        if not all(np.array_equal(a, b) for a, b in zip(first, v)):
            return [f"{name} differ between rounds of the same inputs"]
    return []


def run(workload: str, seed: int, seconds: float, out_dir, t0: float) -> Result:
    return {"train-cascade": train_cascade, "eval-cascade": eval_cascade,
            "ablate-pooling": ablate_pooling}[workload](seed, seconds, out_dir, t0)


# ---- train-cascade ---------------------------------------------------------


def train_cascade(seed: int, seconds: float, out_dir, t0: float) -> Result:
    res = Result()
    records, heldout = make_datasets("train-cascade", seed, out_dir)
    gt2d, gt3d = records_to_arrays(heldout)
    built = [HopePipeline(PipelineConfig(), seed=TRAIN_MODEL_SEEDS[0])]
    res.metrics["setup_s"] = time.perf_counter() - t0

    def one_round(index: int):
        model_seed = TRAIN_MODEL_SEEDS[index % len(TRAIN_MODEL_SEEDS)]
        pipe = built.pop() if built else HopePipeline(PipelineConfig(), seed=model_seed)
        times, logs = [], []
        for stage in range(3):
            epochs = tuple(e if i == stage else 0 for i, e in enumerate(STAGE_EPOCHS))
            res.attempted += 1
            start = time.perf_counter()
            try:
                logs.append(train(pipe, records, TrainConfig(stage_epochs=epochs)))
            except GraphLiftError as e:
                res.failed += 1
                res.problems.append(f"model {model_seed} stage {stage + 1} training failed: {e}")
                logs.append(getattr(e, "log", None))
            times.append(time.perf_counter() - start)
        res.attempted += 1
        start = time.perf_counter()
        preds = pipeline_predictions(pipe, heldout)
        eval_s = time.perf_counter() - start
        return model_seed, pipe, times, logs, eval_s, preds

    rounds = timed_rounds(res, seconds, one_round, min_rounds=len(TRAIN_MODEL_SEEDS))
    res.metrics["command_s"] = statistics.median(sum(r[2]) for r in rounds)
    last = {r[0]: r for r in rounds}               # model seed -> its latest round
    errors = {s: mean_keypoint_error(r[5][1], gt3d) for s, r in last.items()}
    res.metrics["error_3d_mm"] = statistics.fmean(errors.values())

    steps_per_epoch = -(-len(records) // 32)
    res.details.update({
        "rounds": len(rounds),
        "error_3d_mm_per_model": errors,
        "error_2d_px_per_model": {s: mean_keypoint_error(r[5][0], gt2d) for s, r in last.items()},
        "heldout_eval_samples_per_s": len(heldout) / statistics.median(r[4] for r in rounds),
    })
    for stage, epochs in enumerate(STAGE_EPOCHS):
        res.details[f"stage{stage + 1}_ms_per_step"] = 1000 * statistics.median(
            r[2][stage] for r in rounds) / (epochs * steps_per_epoch)

    # ---- checks, outside the timed phase
    for model_seed, pipe, _, logs, _, (refined, pred3d) in last.values():
        for stage, log in enumerate(logs):
            if log is not None:
                res.problems += checks.stage_losses(log.totals(), stage + 1, steps_per_epoch)
        res.problems += same_across_rounds(f"model {model_seed} held-out predictions",
                                           [r[5] for r in rounds if r[0] == model_seed])
        err2d = res.details["error_2d_px_per_model"][model_seed]
        err3d = errors[model_seed]
        res.problems += checks.matches("held-out 2D error", err2d,
                                       oracle.mean_error(refined, gt2d), 1e-12)
        res.problems += checks.matches("held-out 3D error", err3d,
                                       oracle.mean_error(pred3d, gt3d), 1e-12)
        ref2d, ref3d = oracle_predictions({k: p.data for k, p in pipe.parameters().items()}, gt2d)
        res.problems += checks.arrays_match("refined 2D vs oracle", refined, ref2d, 1e-9)
        res.problems += checks.arrays_match("3D vs oracle", pred3d, ref3d, 1e-9)
        _, untrained3d = pipeline_predictions(HopePipeline(PipelineConfig(), seed=model_seed),
                                              heldout)
        untrained = oracle.mean_error(untrained3d, gt3d)
        res.details[f"untrained_error_3d_mm.model{model_seed}"] = untrained
        if not err3d < untrained:
            res.problems.append(f"model {model_seed}: trained 3D error {err3d:.3f} mm is not "
                                f"below the untrained cascade's {untrained:.3f} mm")
    worst, problems = gradient_spot_check(rounds[-1][1], records[:GRADCHECK_BATCH])
    res.details["gradcheck_max_rel_err"] = worst
    res.problems += problems
    return res


def oracle_predictions(params: dict, gt2d: np.ndarray, chunk: int = 128):
    outs = [oracle.cascade_forward(params, gt2d[lo:lo + chunk])
            for lo in range(0, gt2d.shape[0], chunk)]
    return (np.concatenate([o[0] for o in outs]), np.concatenate([o[1] for o in outs]))


def gradient_spot_check(pipe: HopePipeline, batch: list) -> tuple[float, list[str]]:
    """Analytic gradients of the stage-3 loss on one fixed batch against
    central differences at sampled coordinates of each parameter group."""
    gt2d, gt3d = records_to_arrays(batch)
    tensors = pipe.parameters()

    def loss():
        init2d, refined, pred3d = pipe.forward_batch(gt2d)
        return hope_loss_terms(init2d, refined, pred3d, gt2d, gt3d)[0]

    for p in tensors.values():
        p.grad = None
    loss().backward()
    rng = np.random.default_rng(0)
    coords = []
    for group in ("stub.", "refine.", "unet."):
        names = [k for k in tensors if k.startswith(group)]
        ends = np.cumsum([tensors[k].size for k in names])
        for j in rng.choice(int(ends[-1]), GRADCHECK_COORDS, replace=False):
            n = int(np.searchsorted(ends, j, side="right"))
            coords.append((names[n], int(j - (ends[n - 1] if n else 0))))
    analytic = [float(tensors[k].grad.reshape(-1)[i]) for k, i in coords]
    for p in tensors.values():
        p.grad = None
    params = {k: p.data for k, p in tensors.items()}
    numeric = checks.central_differences(lambda: loss().item(), params, coords)
    worst = max(abs(a - n) / max(1.0, abs(a), abs(n)) for a, n in zip(analytic, numeric))
    return worst, checks.gradients(analytic, numeric, coords)


# ---- eval-cascade ----------------------------------------------------------


def eval_cascade(seed: int, seconds: float, out_dir, t0: float) -> Result:
    res = Result()
    (records,) = make_datasets("eval-cascade", seed, out_dir)
    data = out_dir / "eval.jsonl"
    pipe = HopePipeline(PipelineConfig(), seed=MODEL_SEED)
    ckpt = str(out_dir / "cascade")
    save_model(ckpt, pipe)
    report = str(out_dir / "report")
    argv = ["eval", "--data", str(data), "--ckpt", ckpt, "--report", report]
    res.metrics["setup_s"] = time.perf_counter() - t0

    def one_round(index: int):
        res.attempted += 1
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
        if code != 0:
            res.failed += 1
            return wall, None
        return wall, checks.read_summary(report)

    rounds = timed_rounds(res, seconds, one_round)
    res.metrics["command_s"] = statistics.median(r[0] for r in rounds)
    res.details.update({"rounds": len(rounds),
                        "eval_samples_per_s": len(records) / res.metrics["command_s"]})
    summaries = [r[1] for r in rounds if r[1] is not None]
    if not summaries:
        res.problems.append("graphlift eval never succeeded")
        return res
    summary = summaries[-1]
    res.metrics["error_3d_mm"] = summary["mean_error_3d_mm"]
    res.details["error_2d_px"] = summary["mean_error_2d_px"]

    # ---- checks, outside the timed phase
    if any(s != summary for s in summaries):
        res.problems.append("summary.csv differs between rounds of the same inputs")
    gt2d, gt3d = records_to_arrays(records)
    params = {k: p.data for k, p in pipe.parameters().items()}
    refined, pred3d = oracle_predictions(params, gt2d)
    curves = {name: checks.read_curve(os.path.join(report, name + ".csv"))
              for name in checks.EVAL_CURVES}
    res.problems += checks.eval_report(summary, curves, refined, pred3d, gt2d, gt3d)
    return res


# ---- ablate-pooling --------------------------------------------------------


def ablate_pooling(seed: int, seconds: float, out_dir, t0: float) -> Result:
    res = Result()
    make_datasets("ablate-pooling", seed, out_dir)
    data = out_dir / "ablation.jsonl"
    tables = str(out_dir / "ablation")
    argv = ["ablate", "--suite", "pooling", "--data", str(data), "--out-dir", tables,
            "--seeds", ",".join(map(str, ABLATION_SEEDS)), "--jobs", "1"]
    cells = len(ABLATION_VARIANTS) * len(ABLATION_SEEDS)
    res.metrics["setup_s"] = time.perf_counter() - t0

    def one_round(index: int):
        res.attempted += cells
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
        if code != 0:
            res.failed += cells
            return wall, None
        runs = checks.read_rows(os.path.join(tables, "pooling_runs.csv"))
        res.failed += sum(r["status"] != "ok" for r in runs)
        return wall, (runs, checks.read_rows(os.path.join(tables, "pooling_summary.csv")))

    rounds = timed_rounds(res, seconds, one_round)
    res.metrics["command_s"] = statistics.median(r[0] for r in rounds)
    res.details["rounds"] = len(rounds)
    tables_seen = [r[1] for r in rounds if r[1] is not None]
    if not tables_seen:
        res.problems.append("graphlift ablate never succeeded")
        return res
    runs, summary = tables_seen[-1]
    res.metrics["error_3d_mm"] = statistics.fmean(float(r["mean_error_mm"]) for r in runs)
    res.details["cells"] = {f"{r['variant']}/{r['seed']}": float(r["mean_error_mm"])
                            for r in runs}

    # ---- checks, outside the timed phase
    if any(t != tables_seen[-1] for t in tables_seen):
        res.problems.append("ablation tables differ between rounds of the same inputs")
    res.problems += checks.ablation_tables(runs, summary, ABLATION_VARIANTS, ABLATION_SEEDS)
    return res

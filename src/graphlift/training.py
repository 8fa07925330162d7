"""Training loops: the three-stage schedule for the full cascade, a
standalone stage-2 trainer for U-Net-style models, presets, the CSV
training log, and evaluation helpers.

Stages follow the staged recipe: (1) the stub encoder and 2D refinement
train on the 2D losses; (2) the graph U-Net alone trains on noisy
ground-truth-2D -> 3D pairs; (3) everything fine-tunes end to end on the
weighted three-term loss.  Learning rates step-decay per stage; the
"paper" preset uses the literal decay periods (0.9 every 100 steps for
2D stages, 0.1 every 4000 steps for the U-Net stage) while shorter
presets compress the periods proportionally to the epoch budget so the
decay trajectory keeps its shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, TrainingDiverged
from .optim import SGD, Adam, SgdSchedule
from .outputs import rewrite_in_place
from .pipeline import HopeLossWeights, HopePipeline, hope_loss_terms
from .synth import SampleRecord, add_noise, records_to_arrays
from .tensor import mse, no_grad

__all__ = [
    "TrainConfig", "TrainingLog", "train", "train_unet_stage2",
    "stage_schedule", "eval_unet_mean_error", "mean_keypoint_error",
    "unet_predictions", "pipeline_predictions", "PRESET_EPOCHS",
]

PRESET_EPOCHS = {"desk": (30, 200, 30), "paper": (5000, 10000, 5000)}

# per-stage (initial lr, decay factor, decay period in 'paper'-preset steps)
STAGE_LR = ((0.001, 0.9, 100), (0.001, 0.1, 4000), (0.001, 0.9, 100))

LOG_COLUMNS = ("step", "stage", "lr", "loss_init2d", "loss_2d", "loss_3d", "total")


@dataclass(frozen=True)
class TrainConfig:
    stage_epochs: tuple = PRESET_EPOCHS["desk"]
    preset: str = "desk"
    batch_size: int = 32
    optimizer: str = "adam"     # 'adam' | 'sgd'; mm^2-scale losses blow up plain
                                # SGD at the stock 0.001 rate, so adam is the default
    noise_sigma: float = 10.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "stage_epochs", tuple(int(e) for e in self.stage_epochs))
        if self.preset not in PRESET_EPOCHS:
            raise DomainError(f"unknown preset {self.preset!r}; expected one of "
                              f"{sorted(PRESET_EPOCHS)}")
        if len(self.stage_epochs) != 3 or any(e < 0 for e in self.stage_epochs):
            raise DomainError(f"stage_epochs must be three non-negative ints, "
                              f"got {self.stage_epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be positive, got {self.batch_size}")
        if self.optimizer not in ("adam", "sgd"):
            raise DomainError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise DomainError(f"noise_sigma must be finite and non-negative, "
                              f"got {self.noise_sigma}")


def stage_schedule(stage: int, epochs: int, steps_per_epoch: int,
                   literal_steps: bool = False) -> SgdSchedule:
    """The lr schedule for one stage (1-based).

    literal_steps uses the decay period as raw optimizer steps, which
    is what the 'paper' preset wants; otherwise the period is rescaled
    by epochs/full_epochs and converted to steps, which preserves the
    end-of-run decay depth.
    """
    if stage not in (1, 2, 3):
        raise DomainError(f"stage must be 1, 2 or 3, got {stage}")
    lr0, factor, full_steps = STAGE_LR[stage - 1]
    if literal_steps:
        return SgdSchedule(lr0, factor, full_steps)
    full_epochs = PRESET_EPOCHS["paper"][stage - 1]
    period_epochs = full_steps * epochs / full_epochs
    decay_every = max(1, round(period_epochs * steps_per_epoch))
    return SgdSchedule(lr0, factor, decay_every)


class TrainingLog:
    """Per-step rows; stages leave their inapplicable loss columns blank."""

    def __init__(self):
        self.rows: list[dict] = []

    def add(self, step: int, stage: int, lr: float, loss_init2d=None,
            loss_2d=None, loss_3d=None, total=None) -> None:
        self.rows.append({
            "step": step, "stage": stage, "lr": lr,
            "loss_init2d": loss_init2d, "loss_2d": loss_2d,
            "loss_3d": loss_3d, "total": total,
        })

    def totals(self, stage: int | None = None) -> np.ndarray:
        return np.array([r["total"] for r in self.rows
                         if stage is None or r["stage"] == stage], dtype=np.float64)

    def write_csv(self, path: str) -> None:
        lines = [",".join(LOG_COLUMNS)]
        for r in self.rows:
            lines.append(",".join(
                "" if v is None else (repr(v) if isinstance(v, float) else str(v))
                for v in (r[c] for c in LOG_COLUMNS)))
        rewrite_in_place(path, "\n".join(lines) + "\n")


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo:lo + batch_size]


def _run_stage(log: TrainingLog, stage: int, step: int, params, optimizer: str,
               loss_fn, n: int, epochs: int, batch_size: int,
               rng: np.random.Generator, schedule: SgdSchedule, on_step=None) -> None:
    """The one optimizer loop every stage runs, numbering steps from step + 1.

    loss_fn(idx) gives the scalar loss of a batch of sample indices plus
    the log columns it fills ({column: scalar Tensor}).  The finite check
    runs before backward and the update, so a TrainingDiverged (carrying
    the log so far) leaves the parameters at their last finite values.
    A NumericError while building the batch (non-finite inputs) ends the
    stage the same way.
    on_step(step, params) runs right after each backward pass, before
    the optimizer update.
    """
    if optimizer not in ("adam", "sgd"):
        raise DomainError(f"unknown optimizer {optimizer!r}")
    opt = Adam(params) if optimizer == "adam" else SGD(params)
    t = 0
    for _ in range(epochs):
        for idx in _batches(n, batch_size, rng):
            step += 1
            try:
                loss, columns = loss_fn(idx)
                value = loss.item()
                if not math.isfinite(value):
                    raise NumericError("loss became non-finite")
            except NumericError as e:
                err = TrainingDiverged(f"{e} at stage {stage}, step {step}; "
                                       "parameters keep their last finite values")
                err.log = log
                raise err from None
            loss.backward()
            if on_step is not None:
                on_step(step, params)
            lr = schedule.lr_at(t)
            opt.step(lr)
            t += 1
            log.add(step, stage, lr, total=value,
                    **{c: v.item() for c, v in columns.items()})


def _stage2_loss(model, gt2d: np.ndarray, gt3d: np.ndarray, noise_sigma: float,
                 seed: int):
    """Stage-2 batch loss: noisy gt2d -> gt3d MSE of a 2D->3D model."""
    noise_rng = np.random.default_rng([seed, 2])

    def loss_fn(idx):
        inputs = add_noise(gt2d[idx], noise_sigma, noise_rng)
        loss = mse(model.forward(inputs), gt3d[idx])
        return loss, {"loss_3d": loss}

    return loss_fn


def train_unet_stage2(model, records: list[SampleRecord], epochs: int,
                      batch_size: int = 32, noise_sigma: float = 10.0,
                      optimizer: str = "adam", seed: int = 0,
                      schedule: SgdSchedule | None = None,
                      on_step=None) -> TrainingLog:
    """Train a 2D->3D node model on (noisy gt2d -> gt3d) pairs.

    Works for any model exposing forward(x)->Tensor over (B, 29, 2)
    inputs and parameters().  on_step(step, params) runs right after each
    backward pass, before the optimizer update.
    """
    if not records:
        raise DomainError("empty dataset")
    gt2d, gt3d = records_to_arrays(records)
    n = gt2d.shape[0]
    if schedule is None:
        schedule = stage_schedule(2, epochs, math.ceil(n / batch_size))
    log = TrainingLog()
    _run_stage(log, 2, 0, model.parameters(), optimizer,
               _stage2_loss(model, gt2d, gt3d, noise_sigma, seed), n, epochs,
               batch_size, np.random.default_rng([seed, 1]), schedule, on_step)
    return log


def train(pipeline: HopePipeline, records: list[SampleRecord],
          config: TrainConfig = TrainConfig()) -> TrainingLog:
    """Run the three-stage schedule on the full cascade.

    Raises TrainingDiverged (with the partial log attached) on a
    non-finite loss; the check runs before the optimizer update, so
    parameters always hold the last finite state.
    """
    if not records:
        raise DomainError("empty dataset")
    gt2d, gt3d = records_to_arrays(records)
    n = gt2d.shape[0]
    steps_per_epoch = math.ceil(n / config.batch_size)
    literal = config.preset == "paper"
    log = TrainingLog()
    w = HopeLossWeights()

    def run(stage, params, loss_fn, stream):
        epochs = config.stage_epochs[stage - 1]
        if epochs > 0:
            # one log row per step, so the step count so far is len(log.rows)
            _run_stage(log, stage, len(log.rows), params, config.optimizer, loss_fn,
                       n, epochs, config.batch_size,
                       np.random.default_rng([config.seed, stream]),
                       stage_schedule(stage, epochs, steps_per_epoch, literal))

    # stage 1: stub + 2D refinement on the 2D losses
    def stage1_loss(idx):
        features, init2d = pipeline.stub.encode_batch(gt2d[idx])
        refined = pipeline.refine.forward(features, init2d)
        l_init = mse(init2d, gt2d[idx])
        l_2d = mse(refined, gt2d[idx])
        return l_init * w.alpha + l_2d * w.beta, {"loss_init2d": l_init, "loss_2d": l_2d}

    run(1, pipeline.stub_refine_parameters(), stage1_loss, 11)

    # stage 2: U-Net alone on noisy gt2d -> gt3d
    run(2, pipeline.unet.parameters(),
        _stage2_loss(pipeline.unet, gt2d, gt3d, config.noise_sigma, config.seed), 1)

    # stage 3: end to end on the weighted three-term loss
    def stage3_loss(idx):
        init2d, refined, pred3d = pipeline.forward_batch(gt2d[idx])
        total, l_init, l_2d, l_3d = hope_loss_terms(
            init2d, refined, pred3d, gt2d[idx], gt3d[idx], w)
        return total, {"loss_init2d": l_init, "loss_2d": l_2d, "loss_3d": l_3d}

    run(3, pipeline.parameters(), stage3_loss, 33)
    return log


# ---- evaluation helpers ----------------------------------------------------


def unet_predictions(model, inputs2d: np.ndarray, chunk: int = 128) -> np.ndarray:
    """Forward a (S, 29, 2) array through a 2D->3D model, one chunk at a
    time, recording no autodiff tape."""
    outs = []
    with no_grad():
        for lo in range(0, inputs2d.shape[0], chunk):
            outs.append(model.forward(inputs2d[lo:lo + chunk]).data)
    return np.concatenate(outs, axis=0)


def mean_keypoint_error(preds: np.ndarray, gts: np.ndarray) -> float:
    """Mean over samples of the mean per-keypoint Euclidean distance."""
    if preds.shape != gts.shape:
        raise DomainError(f"prediction shape {preds.shape} != ground truth {gts.shape}")
    return float(np.linalg.norm(preds - gts, axis=-1).mean())


def eval_unet_mean_error(model, records: list[SampleRecord], noise_sigma: float = 0.0,
                         seed: int = 0, chunk: int = 128) -> float:
    """Mean 3D keypoint error (mm) of a 2D->3D model on noisy 2D inputs."""
    gt2d, gt3d = records_to_arrays(records)
    inputs = add_noise(gt2d, noise_sigma, np.random.default_rng([seed, 3]))
    return mean_keypoint_error(unet_predictions(model, inputs, chunk), gt3d)


def pipeline_predictions(pipeline: HopePipeline, records: list[SampleRecord],
                         chunk: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Batched full-cascade inference, recording no autodiff tape: refined
    2D (S, 29, 2) and 3D (S, 29, 3).  The default chunk is the training
    batch size, so no intermediate outgrows a training step's; the
    refinement's first layer reads each chunk packed, (chunk, 2048 + 58),
    and never builds (chunk, 29, 2050) node rows."""
    gt2d, _ = records_to_arrays(records)
    refined_out, pred_out = [], []
    with no_grad():
        for lo in range(0, gt2d.shape[0], chunk):
            _, refined, pred3d = pipeline.forward_batch(gt2d[lo:lo + chunk])
            refined_out.append(refined.data)
            pred_out.append(pred3d.data)
    return np.concatenate(refined_out, axis=0), np.concatenate(pred_out, axis=0)

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

import ctypes
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, TrainingDiverged
from .optim import Adam
from .outputs import rewrite_csv
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
    noise_sigma: float = 10.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "stage_epochs", tuple(map(operator.index, self.stage_epochs)))
        if self.preset not in PRESET_EPOCHS:
            raise DomainError(f"unknown preset {self.preset!r}; expected one of "
                              f"{sorted(PRESET_EPOCHS)}")
        if len(self.stage_epochs) != 3 or any(e < 0 for e in self.stage_epochs):
            raise DomainError(f"stage_epochs must be three non-negative ints, "
                              f"got {self.stage_epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be positive, got {self.batch_size}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise DomainError(f"noise_sigma must be finite and non-negative, "
                              f"got {self.noise_sigma}")


def stage_schedule(stage: int, epochs: int, steps_per_epoch: int,
                   literal_steps: bool = False) -> tuple[float, float, int]:
    """One stage's (1-based) step decay as (initial lr, factor, period):
    the lr at the stage's optimizer step t is lr0 * factor ** (t // period).

    literal_steps uses the decay period as raw optimizer steps, which
    is what the 'paper' preset wants; otherwise the period is rescaled
    by epochs/full_epochs and converted to steps, which preserves the
    end-of-run decay depth.
    """
    if stage not in (1, 2, 3):
        raise DomainError(f"stage must be 1, 2 or 3, got {stage}")
    lr0, factor, full_steps = STAGE_LR[stage - 1]
    if literal_steps:
        return lr0, factor, full_steps
    full_epochs = PRESET_EPOCHS["paper"][stage - 1]
    period_epochs = full_steps * epochs / full_epochs
    return lr0, factor, max(1, round(period_epochs * steps_per_epoch))


class TrainingLog:
    """Per-step tuples in LOG_COLUMNS order; inapplicable loss columns are None."""

    def __init__(self):
        self.rows: list[tuple] = []

    def add(self, step: int, stage: int, lr: float, loss_init2d=None,
            loss_2d=None, loss_3d=None, total=None) -> None:
        self.rows.append((step, stage, lr, loss_init2d, loss_2d, loss_3d, total))

    def totals(self, stage: int | None = None) -> np.ndarray:
        return np.array([r[-1] for r in self.rows if stage is None or r[1] == stage],
                        dtype=np.float64)

    def write_csv(self, path: str) -> None:
        rewrite_csv(path, [LOG_COLUMNS, *self.rows])


def _keep_freed_heap() -> None:
    """Keep memory a freed tape returns in the heap, so the next step's
    forward reuses it instead of faulting fresh pages in.

    Sets glibc's mmap threshold, then its trim threshold, both or neither:
    the trim threshold alone would turn off glibc's dynamic mmap threshold
    and send every array of 128 KiB or more through mmap and munmap again.
    The setting is process-wide and lasts for the rest of the process.  A
    no-op where libc has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    for param, value in ((-3, 32 << 20),      # M_MMAP_THRESHOLD: glibc's 64-bit ceiling
                         (-1, 256 << 20)):    # M_TRIM_THRESHOLD
        if not mallopt(param, value):         # refused: set nothing more
            return


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo:lo + batch_size]


def _run_stage(log: TrainingLog, stage: int, params, loss_fn, n: int,
               config: TrainConfig, on_step=None) -> None:
    """The one Adam loop every stage runs, for the stage's epochs and on
    its schedule from `config`; it numbers its steps on from the rows
    already in the log.  A stage of 0 epochs does nothing.

    loss_fn(idx) gives the scalar loss of a batch of sample indices plus
    the log columns it fills ({column: scalar Tensor}).  The finite check
    runs before backward and the update, so a TrainingDiverged (carrying
    the log so far) leaves the parameters at their last finite values.
    A NumericError while building the batch (non-finite inputs) ends the
    stage the same way.
    on_step(step, params) runs right after each backward pass, before
    the optimizer update.  Each step's tape is dropped once its log row
    is written, before the next batch's forward.
    """
    epochs = config.stage_epochs[stage - 1]
    if epochs == 0:
        return
    _keep_freed_heap()
    opt = Adam(params)
    lr0, factor, period = stage_schedule(stage, epochs, math.ceil(n / config.batch_size),
                                         config.preset == "paper")
    # each stage shuffles on its own stream: [seed, 11], [seed, 1], [seed, 33]
    rng = np.random.default_rng([config.seed, (11, 1, 33)[stage - 1]])
    step = len(log.rows)
    t = 0
    for _ in range(epochs):
        for idx in _batches(n, config.batch_size, rng):
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
            lr = lr0 * factor ** (t // period)
            opt.step(lr)
            t += 1
            log.add(step, stage, lr, total=value,
                    **{c: v.item() for c, v in columns.items()})
            del loss, columns


def _stage2_loss(model, gt2d: np.ndarray, gt3d: np.ndarray, config: TrainConfig):
    """Stage-2 batch loss: noisy gt2d -> gt3d MSE of a 2D->3D model."""
    noise_rng = np.random.default_rng([config.seed, 2])

    def loss_fn(idx):
        inputs = add_noise(gt2d[idx], config.noise_sigma, noise_rng)
        loss = mse(model.forward(inputs), gt3d[idx])
        return loss, {"loss_3d": loss}

    return loss_fn


def train_unet_stage2(model, records: list[SampleRecord], epochs: int,
                      batch_size: int = 32, noise_sigma: float = 10.0,
                      seed: int = 0, on_step=None) -> TrainingLog:
    """Train a 2D->3D node model as stage 2 runs, on (noisy gt2d -> gt3d) pairs.

    Works for any model exposing forward(x)->Tensor over (B, 29, 2)
    inputs and parameters().  on_step(step, params) runs right after each
    backward pass, before the optimizer update.
    """
    if not records:
        raise DomainError("empty dataset")
    config = TrainConfig(stage_epochs=(0, epochs, 0), batch_size=batch_size,
                         noise_sigma=noise_sigma, seed=seed)
    gt2d, gt3d = records_to_arrays(records)
    log = TrainingLog()
    _run_stage(log, 2, model.parameters(), _stage2_loss(model, gt2d, gt3d, config),
               len(gt2d), config, on_step)
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
    log = TrainingLog()
    w = HopeLossWeights()

    # stage 1: stub + 2D refinement on the 2D losses
    def stage1_loss(idx):
        features, init2d = pipeline.stub.encode_batch(gt2d[idx])
        refined = pipeline.refine.forward(features, init2d)
        l_init = mse(init2d, gt2d[idx])
        l_2d = mse(refined, gt2d[idx])
        return l_init * w.alpha + l_2d * w.beta, {"loss_init2d": l_init, "loss_2d": l_2d}

    _run_stage(log, 1, pipeline.stub_refine_parameters(), stage1_loss, n, config)

    # stage 2: U-Net alone on noisy gt2d -> gt3d
    _run_stage(log, 2, pipeline.unet.parameters(),
               _stage2_loss(pipeline.unet, gt2d, gt3d, config), n, config)

    # stage 3: end to end on the weighted three-term loss
    def stage3_loss(idx):
        init2d, refined, pred3d = pipeline.forward_batch(gt2d[idx])
        total, l_init, l_2d, l_3d = hope_loss_terms(
            init2d, refined, pred3d, gt2d[idx], gt3d[idx], w)
        return total, {"loss_init2d": l_init, "loss_2d": l_2d, "loss_3d": l_3d}

    _run_stage(log, 3, pipeline.parameters(), stage3_loss, n, config)
    return log


# ---- evaluation helpers ----------------------------------------------------


def _chunked(forward, inputs: np.ndarray, chunk: int) -> tuple:
    """forward over chunk-row slices of inputs, recording no autodiff tape:
    each of the Tensors it returns, concatenated over the chunks."""
    outs = []
    with no_grad():
        for lo in range(0, inputs.shape[0], chunk):
            outs.append([t.data for t in forward(inputs[lo:lo + chunk])])
    return tuple(np.concatenate(parts, axis=0) for parts in zip(*outs))


def unet_predictions(model, inputs2d: np.ndarray, chunk: int = 128) -> np.ndarray:
    """Forward a (S, 29, 2) array through a 2D->3D model, one chunk at a
    time, recording no autodiff tape."""
    return _chunked(lambda x: (model.forward(x),), inputs2d, chunk)[0]


def mean_keypoint_error(preds: np.ndarray, gts: np.ndarray) -> float:
    """Mean over samples of the mean per-keypoint Euclidean distance."""
    if preds.shape != gts.shape:
        raise DomainError(f"prediction shape {preds.shape} != ground truth {gts.shape}")
    return float(np.linalg.norm(preds - gts, axis=-1).mean())


def eval_unet_mean_error(model, records: list[SampleRecord], noise_sigma: float = 0.0,
                         seed: int = 0) -> float:
    """Mean 3D keypoint error (mm) of a 2D->3D model on noisy 2D inputs."""
    gt2d, gt3d = records_to_arrays(records)
    inputs = add_noise(gt2d, noise_sigma, np.random.default_rng([seed, 3]))
    return mean_keypoint_error(unet_predictions(model, inputs), gt3d)


def pipeline_predictions(pipeline: HopePipeline, records: list[SampleRecord],
                         chunk: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Batched full-cascade inference, recording no autodiff tape: refined
    2D (S, 29, 2) and 3D (S, 29, 3).  The default chunk is the training
    batch size, so no intermediate outgrows a training step's; the
    refinement's first layer reads each chunk packed, (chunk, 2048 + 58),
    and never builds (chunk, 29, 2050) node rows."""
    gt2d = records_to_arrays(records)[0]      # drop gt3d before the forward passes
    return _chunked(lambda x: pipeline.forward_batch(x)[1:], gt2d, chunk)

"""The traced run: per-layer numbers from a replay of the training steps.

The replay makes the same public calls the stage loops of
graphlift.training make (stub.encode_batch, each layer's forward,
hope_loss_terms / mse, Tensor.backward, Adam.step) on the desk-width
cascade at batch 32.  Spans are recorded only around those calls, from
this file: wrappers are set as attributes of the instances for the
traced replay and deleted for the untraced one; no module or class of
the program is patched.  A span
is (name, start, end, parent); spans stay in memory and are written to
spans.json when the run ends.  A layer's self time is its span's length
minus its children's.  A layer's backward time comes from a replay of
that layer alone on its captured input and upstream gradient.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import tracemalloc

import numpy as np

from graphlift.ablation import AblationConfig, run_one
from graphlift.checkpoint import load_checkpoint, save_checkpoint
from graphlift.metrics import auc, default_thresholds, pcp_curve, per_joint_errors
from graphlift.optim import Adam
from graphlift.pipeline import HopeLossWeights, HopePipeline, PipelineConfig, hope_loss_terms
from graphlift.synth import add_noise, records_to_arrays
from graphlift.tensor import Tensor, mse
from graphlift.training import STAGE_LR, pipeline_predictions

import checks
from spec import LAYERS, PER_LAYER
from workloads import (ABLATION_VARIANTS, DATASETS, MODEL_SEED, Result, make_datasets,
                       no_span, oracle_predictions)

BATCH = 32
SAMPLES = 400             # samples for the predict, report and ablation-cell timings
NOISE_SIGMA = 10.0        # stage-2 input noise, as TrainConfig's default
MIN_ROUNDS = 3


class Tracer:
    """In-memory spans with parent links."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, obj, attr: str, name: str, captured: dict | None = None) -> None:
        """Time obj.attr under `name` by an attribute on the instance; with
        `captured`, keep the last call's (args, output) under `name`."""
        inner = getattr(obj, attr)

        def traced(*args):
            with self.span(name):
                out = inner(*args)
            if captured is not None:
                captured[name] = (args, out)
            return out

        setattr(obj, attr, traced)

    def duration(self, index: int) -> float:
        name, start, end, _ = self.spans[index]
        return end - start

    def children(self, index: int) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[3] == index]

    def self_time(self, index: int) -> float:
        return self.duration(index) - sum(self.duration(c) for c in self.children(index))

    def subtree(self, index: int) -> list[int]:
        out = [index]
        for c in self.children(index):
            out += self.subtree(c)
        return out

    def write(self, path) -> None:
        rows = [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, (n, s, e, p) in enumerate(self.spans)]
        path.write_text(json.dumps(rows) + "\n")


def named_layers(pipe: HopePipeline) -> dict:
    """Layer instances under their LAYERS names (checkpoint naming)."""
    u = pipe.unet
    levels = len(u.enc_convs)
    out = {f"refine.conv{i}": layer for i, layer in enumerate(pipe.refine.layers)}
    for i in range(levels):
        out[f"unet.enc{i}"] = u.enc_convs[i]
        out[f"unet.pool{i}"] = u.pools[i]
    out["unet.bottleneck"] = u.bottleneck
    for j in range(levels):
        out[f"unet.unpool{levels - 1 - j}"] = u.unpools[j]
        out[f"unet.dec{levels - 1 - j}"] = u.dec_convs[j]
    out["unet.final"] = u.final
    return {name: out[name] for name in LAYERS}


class Replay:
    """One cascade, its initial state, and an optimizer per stage."""

    def __init__(self, records: list):
        self.pipe = HopePipeline(PipelineConfig(), seed=MODEL_SEED)
        self.initial = {k: p.data.copy() for k, p in self.pipe.parameters().items()}
        self.gt2d, self.gt3d = records_to_arrays(records[:BATCH])
        self.weights = HopeLossWeights()
        self.optimizers = {1: Adam(self.pipe.stub_refine_parameters()),
                           2: Adam(self.pipe.unet.parameters()),
                           3: Adam(self.pipe.parameters())}
        self.layers = named_layers(self.pipe)

    def restore(self) -> None:
        for k, p in self.pipe.parameters().items():
            p.data[...] = self.initial[k]
            p.grad = None

    def step(self, stage: int, span=no_span) -> float:
        """One optimizer step of `stage` as its training loop takes it."""
        pipe, gt2d, gt3d, w = self.pipe, self.gt2d, self.gt3d, self.weights
        if stage == 1:
            features, init2d = pipe.stub.encode_batch(gt2d)
            refined = pipe.refine.forward(features, init2d)
            with span("loss"):
                loss = mse(init2d, gt2d) * w.alpha + mse(refined, gt2d) * w.beta
                value = loss.item()
        elif stage == 2:
            with span("synth.add_noise"):
                inputs = add_noise(gt2d, NOISE_SIGMA, 0)
            pred = pipe.unet.forward(inputs)
            with span("loss"):
                loss = mse(pred, gt3d)
                value = loss.item()
        else:
            init2d, refined, pred3d = pipe.forward_batch(gt2d)
            with span("loss"):
                loss = hope_loss_terms(init2d, refined, pred3d, gt2d, gt3d, w)[0]
                value = loss.item()
        with span("tensor.backward"):
            loss.backward()
        with span("optim.adam"):
            self.optimizers[stage].step(STAGE_LR[stage - 1][0])
        return value

    def traced_step(self, stage: int, tracer: Tracer,
                    captured: dict | None = None) -> tuple[int, float]:
        pipe = self.pipe
        wrapped = [(pipe.stub, "encode_batch", "pipeline.stub.fwd"),
                   (pipe.refine, "forward", "pipeline.refine.fwd"),
                   (pipe.unet, "forward", "pipeline.unet.fwd"),
                   (pipe, "forward_batch", "pipeline.forward_batch")]
        wrapped += [(layer, "forward", f"layers.{name}.fwd")
                    for name, layer in self.layers.items()]
        for obj, attr, name in wrapped:
            tracer.wrap(obj, attr, name, captured)
        try:
            with tracer.span(f"step.stage{stage}") as root:
                value = self.step(stage, tracer.span)
        finally:
            for obj, attr, _ in wrapped:
                delattr(obj, attr)
        return root, value


def capture_stage3(replay: Replay) -> dict:
    """(args, output) of every wrapped call in one stage-3 step from the
    initial parameters, which are restored afterwards; the outputs keep
    the upstream gradients that step's backward pass gave them."""
    replay.restore()
    captured: dict = {}
    replay.traced_step(3, Tracer(), captured)
    replay.restore()
    return captured


def backward_alone(forward, upstream: list) -> tuple[float, list]:
    """Seconds of the backward pass of forward()'s outputs seeded with the
    `upstream` gradients, net of the seeding products themselves."""
    outs = forward()
    outs = outs if isinstance(outs, tuple) else (outs,)
    seeds = [Tensor(g) for g in upstream]

    def seeded(ys):
        total = (ys[0] * seeds[0]).sum()
        for y, g in zip(ys[1:], seeds[1:]):
            total = total + (y * g).sum()
        return total

    probe = seeded(outs)
    start = time.perf_counter()
    probe.backward()
    full = time.perf_counter() - start
    leaves = [Tensor(y.data, requires_grad=True) for y in outs]
    probe = seeded(leaves)
    start = time.perf_counter()
    probe.backward()
    seeding = time.perf_counter() - start
    return full - seeding, [y.data for y in outs]


def allocated_mb(fn) -> float:
    """Peak bytes tracemalloc sees above the level at the call, in MB."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    fn()
    return (tracemalloc.get_traced_memory()[1] - base) / 1e6


def run(workload: str, seed: int, seconds: float, out_dir) -> Result:
    res = Result()
    tracer = Tracer()
    med = {}                                  # metric -> values over rounds
    stage_self = {}                           # stage -> span name -> self ms per round

    def note(name, value):
        med.setdefault(name, []).append(value)

    # ---- the workload's own set-up: synth generation, JSONL write and read
    loaded = make_datasets(workload, seed, out_dir, tracer.span)
    total = sum(n for _, n in DATASETS[workload])
    for call, metric in (("generate_dataset", "gen"), ("load_dataset", "load")):
        seconds_spent = sum(tracer.duration(i) for i, s in enumerate(tracer.spans)
                            if s[0] == f"synth.{call}")
        res.metrics[f"synth.{metric}_ms_per_1k"] = seconds_spent * 1e6 / total
    records = max(loaded, key=len)[:SAMPLES]
    gt2d_all, gt3d_all = records_to_arrays(records)
    start = time.perf_counter()

    # ---- ablation cells, once each
    for variant in ABLATION_VARIANTS:
        res.attempted += 1
        with tracer.span(f"ablation.run_one.{variant}") as i:
            cell = run_one("pooling", variant, 0, records, AblationConfig())
        res.metrics[f"ablation.cell_s.{variant}"] = tracer.duration(i)
        if cell.status != "ok":
            res.failed += 1
        elif not cell.mean_error_mm < cell.initial_error_mm:
            res.problems.append(f"ablation cell {variant}: error did not fall")

    replay = Replay(records)

    # ---- one allocation pass under tracemalloc, apart from every timing
    tracemalloc.start()
    try:
        for stage in (1, 2, 3):
            replay.restore()
            res.metrics[f"training.step_alloc_mb.stage{stage}"] = allocated_mb(
                lambda: replay.step(stage))
        captured = capture_stage3(replay)
        for name, layer in replay.layers.items():
            (x,), y = captured[f"layers.{name}.fwd"]
            x_data, upstream = x.data, y.grad
            res.metrics[f"layers.{name}.alloc_mb"] = allocated_mb(
                lambda: backward_alone(lambda: layer.forward(Tensor(x_data, requires_grad=True)),
                                       [upstream]))
    finally:
        tracemalloc.stop()
    del captured

    # ---- rounds of step replays, layer-alone backward replays, checkpoint,
    # prediction and report, until the time budget is spent
    ckpt = str(out_dir / "cascade")
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds += 1
        traced_total = untraced_total = covered = 0.0
        for stage in (1, 2, 3):
            # alternate which replay goes first, so warm caches favour neither
            for traced_turn in ((False, True) if rounds % 2 else (True, False)):
                replay.restore()
                if traced_turn:
                    root, value = replay.traced_step(stage, tracer)
                else:
                    t = time.perf_counter()
                    plain = replay.step(stage)
                    untraced = time.perf_counter() - t
            res.attempted += 2
            if value != plain:
                res.problems.append(f"stage {stage}: traced replay loss {value!r} differs "
                                    f"from the untraced {plain!r}")
            note(f"training.step_ms.stage{stage}", untraced * 1e3)
            wall = tracer.duration(root)
            inside = wall - tracer.self_time(root)
            stage_self.setdefault(stage, {})
            for i in tracer.subtree(root):
                name, self_ms = tracer.spans[i][0], tracer.self_time(i) * 1e3
                stage_self[stage].setdefault(name, []).append(self_ms)
                if name in ("tensor.backward", "optim.adam"):
                    note(f"{name}_ms.stage{stage}", self_ms)
                if stage == 3 and (name.startswith("layers.") or name == "pipeline.stub.fwd"):
                    note(name + "_ms", self_ms)
            note(f"overhead_pct.stage{stage}", 100 * (wall - untraced) / untraced)
            note(f"coverage_pct.stage{stage}", 100 * inside / wall)
            traced_total += wall
            untraced_total += untraced
            covered += inside
        note("trace.overhead_pct", 100 * (traced_total - untraced_total) / untraced_total)
        note("trace.coverage_pct", 100 * covered / traced_total)

        # a separate capture, so that no step above ran beside a kept graph
        captured = capture_stage3(replay)
        (coords,), (features, init2d) = captured["pipeline.stub.fwd"]
        bwd, _ = backward_alone(lambda: replay.pipe.stub.encode_batch(coords),
                                [features.grad, init2d.grad])
        note("pipeline.stub.bwd_ms", bwd * 1e3)
        for name, layer in replay.layers.items():
            (x,), y = captured[f"layers.{name}.fwd"]
            bwd, (y_again,) = backward_alone(
                lambda: layer.forward(Tensor(x.data, requires_grad=True)), [y.grad])
            note(f"layers.{name}.bwd_ms", bwd * 1e3)
            res.attempted += 1
            if not np.array_equal(y_again, y.data):
                res.problems.append(f"{name}: replayed alone, the layer gives another output")
        del captured

        params = replay.pipe.parameters()
        with tracer.span("checkpoint.save_checkpoint") as i:
            save_checkpoint(ckpt, params, replay.pipe.config_dict())
        note("checkpoint.save_ms", tracer.duration(i) * 1e3)
        with tracer.span("checkpoint.load_checkpoint") as i:
            arrays, _ = load_checkpoint(ckpt)
        note("checkpoint.load_ms", tracer.duration(i) * 1e3)
        res.attempted += 2
        if any(not np.array_equal(arrays[k], p.data) for k, p in params.items()):
            res.problems.append("checkpoint round trip changed a parameter")

        with tracer.span("training.pipeline_predictions") as i:
            refined, pred3d = pipeline_predictions(replay.pipe, records)
        note("training.predict_ms_per_1k", tracer.duration(i) * 1e6 / len(records))
        with tracer.span("metrics.report") as i:
            report(refined, pred3d, gt2d_all, gt3d_all)
        note("metrics.report_ms", tracer.duration(i) * 1e3)
        res.attempted += 2

    # ---- checks of the replayed cascade against the oracle
    ref2d, ref3d = oracle_predictions(dict(replay.initial), gt2d_all)
    res.problems += checks.arrays_match("refined 2D vs oracle", refined, ref2d, 1e-9)
    res.problems += checks.arrays_match("3D vs oracle", pred3d, ref3d, 1e-9)

    probe, calls = Tracer(), 10_000           # cost of one span, apart from any work
    t = time.perf_counter()
    for _ in range(calls):
        with probe.span("probe"):
            pass
    res.details["span_cost_us"] = (time.perf_counter() - t) * 1e6 / calls
    res.details["spans_per_step"] = {f"stage{s}": len(v) for s, v in stage_self.items()}
    for name, values in med.items():
        (res.metrics if name in PER_LAYER else res.details)[name] = statistics.median(values)
    res.details.update({"rounds": rounds, "spans": len(tracer.spans)})
    res.details["median_self_ms"] = {
        f"stage{stage}": {name: statistics.median(v) for name, v in names.items()}
        for stage, names in stage_self.items()}
    tracer.write(out_dir / "spans.json")
    return res


def report(refined2d, pred3d, gt2d, gt3d) -> None:
    """The metrics calls `graphlift eval` makes for a cascade."""
    thresholds = default_thresholds()
    auc(pcp_curve(refined2d, gt2d, thresholds))
    for subset in ("all", "hand", "object"):
        auc(pcp_curve(pred3d, gt3d, thresholds, subset=subset))
    per_joint_errors(pred3d, gt3d)

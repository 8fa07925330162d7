"""Training loops: presets, schedules, logging, stage isolation, and the
divergence contract."""

import csv
import ctypes
import gc
import platform
import resource
import tracemalloc
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest

from graphlift import training
from graphlift.errors import DomainError, TrainingDiverged
from graphlift.pipeline import HopePipeline, PipelineConfig, hope_loss_terms
from graphlift.synth import generate_dataset
from graphlift.training import (LOG_COLUMNS, PRESET_EPOCHS, TrainConfig,
                                TrainingLog, eval_unet_mean_error, mean_keypoint_error,
                                pipeline_predictions, stage_schedule, train,
                                train_unet_stage2, unet_predictions)
from graphlift.unet import GraphUNetModel, UNetConfig

SMALL_UNET = UNetConfig(feature_schedule=(8, 16, 16, 32))
SMALL_PIPE = PipelineConfig(unet=SMALL_UNET, feature_width=64,
                            refine_widths=(32, 16), raster_grid=8)


@pytest.fixture(scope="module")
def records():
    return generate_dataset(30, seed=5)


# ---- presets and schedules --------------------------------------------------


def test_preset_epochs():
    assert PRESET_EPOCHS["desk"] == (30, 200, 30)
    assert PRESET_EPOCHS["paper"] == (5000, 10000, 5000)
    assert TrainConfig().stage_epochs == PRESET_EPOCHS["desk"]
    assert TrainConfig(preset="paper").preset == "paper"
    with pytest.raises(DomainError):
        TrainConfig(preset="gpu-cluster")


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(stage_epochs=(1, 2))
    with pytest.raises(DomainError):
        TrainConfig(batch_size=0)
    with pytest.raises(TypeError):
        TrainConfig(stage_epochs=(1.5, 0, 0))
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            TrainConfig(noise_sigma=sigma)


def test_stage_schedule_literal_matches_stated_decays():
    assert stage_schedule(1, epochs=5000, steps_per_epoch=10,
                          literal_steps=True) == (0.001, 0.9, 100)
    assert stage_schedule(2, epochs=10000, steps_per_epoch=10,
                          literal_steps=True) == (0.001, 0.1, 4000)
    assert stage_schedule(3, epochs=5000, steps_per_epoch=10,
                          literal_steps=True) == (0.001, 0.9, 100)


def test_stage_schedule_compressed_keeps_decay_depth():
    # stage 2 at 200 epochs instead of 10000: the 4000-step period shrinks
    # by the same 50x, measured in this run's own steps
    lr0, factor, period = stage_schedule(2, epochs=200, steps_per_epoch=10)
    assert (lr0, factor, period) == (0.001, 0.1, 800)
    # end-of-run decay depth matches the full-schedule trajectory shape:
    # 2000 steps / 800 = 2 decades begun, as 100000 / 4000 would at full scale
    assert lr0 * factor ** (1999 // period) == pytest.approx(0.001 * 0.1**2)
    with pytest.raises(DomainError):
        stage_schedule(4, 10, 10)


@pytest.mark.parametrize("preset, stage_epochs, decays", [
    # desk shrinks each period by epochs / paper epochs, in this run's steps:
    # round(100 * 50/5000 * 2) = 2 and round(4000 * 10/10000 * 2) = 8
    ("desk", (50, 10, 50), {1: (0.9, 2), 2: (0.1, 8), 3: (0.9, 2)}),
    # paper counts the periods in raw steps; stage 1's 102 steps decay once
    ("paper", (51, 2, 1), {1: (0.9, 100), 2: (0.1, 4000), 3: (0.9, 100)}),
])
def test_logged_lr_is_the_stage_step_decay(records, preset, stage_epochs, decays):
    pipe = HopePipeline(SMALL_PIPE, seed=8)
    # 8 samples at batch 4: 2 steps per epoch
    log = train(pipe, records[:8], TrainConfig(stage_epochs=stage_epochs, preset=preset,
                                               batch_size=4))
    assert len(log.rows) == 2 * sum(stage_epochs)
    for stage, (factor, period) in decays.items():
        lrs = [lr for _, s, lr, *_ in log.rows if s == stage]
        assert lrs == [0.001 * factor ** (t // period)
                       for t in range(2 * stage_epochs[stage - 1])], stage
    assert min(lr for _, s, lr, *_ in log.rows if s == 1) < 0.001


# ---- the log ----------------------------------------------------------------


def test_training_log_columns_and_blanks(tmp_path):
    log = TrainingLog()
    log.add(1, 1, 0.001, loss_init2d=2.0, loss_2d=3.0, total=0.5)
    log.add(2, 2, 0.001, loss_3d=7.25, total=7.25)
    path = str(tmp_path / "log.csv")
    log.write_csv(path)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(LOG_COLUMNS)
    assert rows[1] == ["1", "1", "0.001", "2.0", "3.0", "", "0.5"]
    assert rows[2] == ["2", "2", "0.001", "", "", "7.25", "7.25"]
    assert (tmp_path / "log.csv").read_bytes() == (
        b"step,stage,lr,loss_init2d,loss_2d,loss_3d,total\n"
        b"1,1,0.001,2.0,3.0,,0.5\n"
        b"2,2,0.001,,,7.25,7.25\n")
    np.testing.assert_array_equal(log.totals(1), [0.5])
    np.testing.assert_array_equal(log.totals(2), [7.25])
    np.testing.assert_array_equal(log.totals(), [0.5, 7.25])


# ---- stage-2 trainer --------------------------------------------------------


def test_stage2_improves_and_logs(records):
    model = GraphUNetModel(SMALL_UNET, seed=0)
    before = eval_unet_mean_error(model, records, noise_sigma=0.0)
    log = train_unet_stage2(model, records, epochs=10, batch_size=8,
                            noise_sigma=5.0, seed=0)
    after = eval_unet_mean_error(model, records, noise_sigma=0.0)
    assert after < before
    assert len(log.rows) == 10 * 4          # ceil(30/8) steps per epoch
    for _, stage, _, _, _, loss_3d, total in log.rows:
        assert stage == 2
        assert total == loss_3d
        assert np.isfinite(total)


def test_stage2_deterministic(records):
    outs = []
    for _ in range(2):
        model = GraphUNetModel(SMALL_UNET, seed=3)
        log = train_unet_stage2(model, records, epochs=3, batch_size=8,
                                noise_sigma=10.0, seed=9)
        outs.append((model, log))
    a, b = outs
    for k, p in a[0].parameters().items():
        np.testing.assert_array_equal(p.data, b[0].parameters()[k].data)
    np.testing.assert_array_equal(a[1].totals(), b[1].totals())


def test_stage2_on_step_callback_sees_gradients(records):
    model = GraphUNetModel(SMALL_UNET, seed=1)
    seen = []

    def on_step(step, params):
        seen.append(step)
        assert any(p.grad is not None and np.any(p.grad != 0.0)
                   for p in params.values())

    train_unet_stage2(model, records, epochs=2, batch_size=16, seed=0,
                      on_step=on_step)
    assert seen == list(range(1, 1 + 2 * 2))


def test_stage2_rejects_empty():
    model = GraphUNetModel(SMALL_UNET, seed=0)
    with pytest.raises(DomainError):
        train_unet_stage2(model, [], epochs=1)
    for epochs, batch_size in ((1, 0), (-1, 8)):
        with pytest.raises(DomainError):
            train_unet_stage2(model, generate_dataset(4, seed=0), epochs, batch_size)


# ---- full three-stage run ---------------------------------------------------


def test_train_stage_isolation(records):
    pipe = HopePipeline(SMALL_PIPE, seed=4)
    unet_before = {k: v.data.copy() for k, v in pipe.unet.parameters().items()}
    stub_before = {k: v.data.copy() for k, v in pipe.stub_refine_parameters().items()}
    train(pipe, records, TrainConfig(stage_epochs=(1, 0, 0), batch_size=16))
    for k, v in pipe.unet.parameters().items():
        np.testing.assert_array_equal(v.data, unet_before[k], err_msg=k)
    assert any(not np.array_equal(v.data, stub_before[k])
               for k, v in pipe.stub_refine_parameters().items())

    stub_after1 = {k: v.data.copy() for k, v in pipe.stub_refine_parameters().items()}
    train(pipe, records, TrainConfig(stage_epochs=(0, 1, 0), batch_size=16))
    for k, v in pipe.stub_refine_parameters().items():
        np.testing.assert_array_equal(v.data, stub_after1[k], err_msg=k)
    assert any(not np.array_equal(v.data, unet_before[k])
               for k, v in pipe.unet.parameters().items())


def test_train_writes_ordered_stages(records, tmp_path):
    pipe = HopePipeline(SMALL_PIPE, seed=6)
    path = str(tmp_path / "train.csv")
    log = train(pipe, records, TrainConfig(stage_epochs=(2, 2, 1), batch_size=16))
    log.write_csv(path)
    # 30 samples at batch 16: 2 steps per epoch
    assert [stage for _, stage, *_ in log.rows] == [1] * 4 + [2] * 4 + [3] * 2
    assert [step for step, *_ in log.rows] == list(range(1, 11))
    for _, stage, _, loss_init2d, loss_2d, loss_3d, _ in log.rows:
        if stage == 1:
            assert loss_3d is None and loss_init2d is not None
        elif stage == 2:
            assert loss_init2d is None
        else:
            assert None not in (loss_init2d, loss_2d, loss_3d)
    with open(path) as f:
        header = f.readline().strip().split(",")
    assert header == list(LOG_COLUMNS)


def test_train_deterministic(records):
    totals = []
    for _ in range(2):
        pipe = HopePipeline(SMALL_PIPE, seed=7)
        log = train(pipe, records,
                    TrainConfig(stage_epochs=(1, 1, 1), batch_size=16, seed=2))
        totals.append(log.totals())
    np.testing.assert_array_equal(totals[0], totals[1])


def test_train_rejects_empty():
    with pytest.raises(DomainError):
        train(HopePipeline(SMALL_PIPE, seed=0), [])


# ---- tape and heap ----------------------------------------------------------


def _intermediates(roots):
    """Every recorded-op result reachable from `roots` (parameters and
    constants have no edges)."""
    seen, stack = {}, list(roots)
    while stack:
        t = stack.pop()
        if t._edges and id(t) not in seen:
            seen[id(t)] = t
            stack.extend(p for p, _ in t._edges)
    return seen.values()


def test_no_tape_outlives_its_step(records, monkeypatch):
    """By the next batch's forward, nothing the previous step recorded is
    alive: every intermediate array of its tape has been freed, without
    help from the cycle collector."""
    run_stage, steps = training._run_stage, []

    def watched_stage(log, stage, params, loss_fn, n, config, on_step=None):
        def watched(idx):
            if steps:
                alive = [r for r in steps[-1] if r() is not None]
                assert not alive, f"{len(alive)} arrays of step {len(steps)} outlive it"
            loss, columns = loss_fn(idx)
            steps.append([weakref.ref(t.data)
                          for t in _intermediates([loss, *columns.values()])
                          if isinstance(t.data, np.ndarray)])   # not numpy scalars
            return loss, columns
        run_stage(log, stage, params, watched, n, config, on_step)

    monkeypatch.setattr(training, "_run_stage", watched_stage)
    gc.disable()
    try:
        log = train(HopePipeline(SMALL_PIPE, seed=3), records,
                    TrainConfig(stage_epochs=(2, 2, 2), batch_size=16))
    finally:
        gc.enable()
    assert len(steps) == len(log.rows) == 12
    assert all(len(refs) > 10 for refs in steps)


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return True


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not _has_mallopt(),
                    reason="the heap setting is glibc's mallopt")
def test_training_steps_take_no_page_faults_after_the_first_epoch():
    """A freed tape's memory stays in the heap for the next step: once the
    first epoch has sized the heap, steps fault in almost no fresh pages."""
    recs = generate_dataset(320, seed=1)
    mean_faults = {}
    for pooling in ("trainable", "gpool", "fixed"):
        model = GraphUNetModel(UNetConfig(feature_schedule=(16, 32, 64, 128),
                                          pooling=pooling), seed=0)
        faults = []
        train_unet_stage2(model, recs, epochs=6, batch_size=64, seed=0,
                          on_step=lambda step, params: faults.append(
                              resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
        per_step = np.diff(faults[4:])          # 5 steps per epoch
        assert per_step.size == 25
        mean_faults[pooling] = per_step.mean()
    assert all(f < 50 for f in mean_faults.values()), mean_faults


def _refusing_mallopt(calls):
    def mallopt(param, value):
        calls.append((param, value))
        return 0
    return types.SimpleNamespace(mallopt=mallopt)


def _no_libc(calls):
    raise OSError("no libc here")


@pytest.mark.parametrize("cdll, expected_calls", [
    (_no_libc, []),
    (lambda calls: types.SimpleNamespace(), []),
    # a refused mmap threshold leaves the trim threshold alone
    (_refusing_mallopt, [(-3, 32 << 20)]),
], ids=["no libc", "no mallopt", "mallopt refuses"])
def test_training_without_the_heap_setting_is_unchanged(records, monkeypatch, cdll,
                                                        expected_calls):
    def run():
        model = GraphUNetModel(SMALL_UNET, seed=2)
        log = train_unet_stage2(model, records, epochs=3, batch_size=8, seed=4)
        return {k: p.data.tobytes() for k, p in model.parameters().items()}, log.rows

    with_setting = run()
    lookups, calls = [], []
    monkeypatch.setattr(training.ctypes, "CDLL",
                        lambda name: lookups.append(name) or cdll(calls))
    assert run() == with_setting
    assert lookups == [None]
    assert calls == expected_calls


# ---- divergence -------------------------------------------------------------


def test_divergence_raises_with_partial_log(records):
    pipe = HopePipeline(SMALL_PIPE, seed=0)
    # one gt3d at 1e200 mm is finite, but its squared error overflows the 3D loss:
    # stage 1 trains on 2D only, stage 2 diverges on the first batch that holds it
    overflowing = [replace(records[0], gt3d=records[0].gt3d * 1e200)] + records[1:]
    with pytest.raises(TrainingDiverged) as exc_info:
        train(pipe, overflowing, TrainConfig(stage_epochs=(1, 50, 1), batch_size=8))
    err = exc_info.value
    assert "at stage 2" in str(err)
    stages = [r[1] for r in err.log.rows]      # the partial log is attached
    assert stages[:4] == [1, 1, 1, 1] and set(stages[4:]) <= {2}, stages
    assert all(np.isfinite(total) for *_, total in err.log.rows)
    for p in pipe.parameters().values():
        assert np.all(np.isfinite(p.data))


# ---- evaluation helpers -----------------------------------------------------


def test_mean_keypoint_error_oracle():
    gts = np.zeros((4, 29, 3))
    preds = gts + np.array([3.0, 4.0, 0.0])
    assert mean_keypoint_error(preds, gts) == 5.0
    with pytest.raises(DomainError):
        mean_keypoint_error(np.zeros((4, 29, 2)), gts)


def test_unet_predictions_chunking(records):
    model = GraphUNetModel(SMALL_UNET, seed=2)
    gt2d = np.stack([r.gt2d for r in records])
    np.testing.assert_array_equal(unet_predictions(model, gt2d, chunk=7),
                                  unet_predictions(model, gt2d, chunk=128))


def test_eval_unet_mean_error_seeded(records):
    model = GraphUNetModel(SMALL_UNET, seed=2)
    a = eval_unet_mean_error(model, records, noise_sigma=20.0, seed=1)
    b = eval_unet_mean_error(model, records, noise_sigma=20.0, seed=1)
    c = eval_unet_mean_error(model, records, noise_sigma=20.0, seed=2)
    assert a == b
    assert a != c


# ---- tape-free inference ----------------------------------------------------


def test_pipeline_predictions_match_tape_forward(records):
    pipe = HopePipeline(SMALL_PIPE, seed=3)
    refined, pred3d = pipeline_predictions(pipe, records, chunk=8)
    gt2d = np.stack([r.gt2d for r in records])
    chunks = [pipe.forward_batch(gt2d[lo:lo + 8]) for lo in range(0, len(records), 8)]
    assert all(c[2].requires_grad for c in chunks)
    np.testing.assert_array_equal(refined, np.concatenate([c[1].data for c in chunks]))
    np.testing.assert_array_equal(pred3d, np.concatenate([c[2].data for c in chunks]))


def test_inference_leaves_gradients_untouched(records):
    pipe = HopePipeline(SMALL_PIPE, seed=4)
    params = pipe.parameters()
    _, _, pred3d = pipe.forward_batch(np.stack([r.gt2d for r in records[:4]]))
    pred3d.sum().backward()
    before = {k: p.grad.copy() for k, p in params.items()}
    pipeline_predictions(pipe, records)
    unet_predictions(pipe.unet, np.stack([r.gt2d for r in records]))
    for k, p in params.items():
        np.testing.assert_array_equal(p.grad, before[k])


def test_training_after_eval_still_records_gradients(records):
    pipe = HopePipeline(SMALL_PIPE, seed=5)
    pipeline_predictions(pipe, records)
    eval_unet_mean_error(pipe.unet, records)
    batch = records[:8]
    gt2d = np.stack([r.gt2d for r in batch])
    gt3d = np.stack([r.gt3d for r in batch])
    init2d, refined, pred3d = pipe.forward_batch(gt2d)
    total = hope_loss_terms(init2d, refined, pred3d, gt2d, gt3d)[0]
    assert total.requires_grad
    total.backward()
    for k, p in pipe.parameters().items():
        assert p.grad is not None and np.any(p.grad != 0), k


@pytest.fixture(scope="module")
def samples256():
    return generate_dataset(256, seed=6)


def test_pipeline_predictions_chunking(desk_cascade, samples256):
    ref = pipeline_predictions(desk_cascade, samples256, chunk=32)
    for chunk in (16, 64):
        for got, want in zip(pipeline_predictions(desk_cascade, samples256, chunk), ref):
            np.testing.assert_array_equal(got, want)
    # with OpenBLAS, a row of a product can differ in its last bits with the
    # number of rows the product has, so other chunk sizes agree to rounding
    for got, want in zip(pipeline_predictions(desk_cascade, samples256, chunk=7), ref):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_pipeline_predictions_peak_is_one_training_batch(desk_cascade, samples256):
    tracemalloc.start()
    try:
        pipeline_predictions(desk_cascade, samples256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6

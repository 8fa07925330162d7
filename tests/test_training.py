"""Training loops: presets, schedules, logging, stage isolation, and the
divergence contract."""

import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

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
    s1 = stage_schedule(1, epochs=5000, steps_per_epoch=10, literal_steps=True)
    assert (s1.initial_lr, s1.decay_factor, s1.decay_every) == (0.001, 0.9, 100)
    s2 = stage_schedule(2, epochs=10000, steps_per_epoch=10, literal_steps=True)
    assert (s2.initial_lr, s2.decay_factor, s2.decay_every) == (0.001, 0.1, 4000)
    s3 = stage_schedule(3, epochs=5000, steps_per_epoch=10, literal_steps=True)
    assert (s3.initial_lr, s3.decay_factor, s3.decay_every) == (0.001, 0.9, 100)
    assert s1.lr_at(0) == 0.001
    assert abs(s1.lr_at(250) - 0.001 * 0.9**2) < 1e-18


def test_stage_schedule_compressed_keeps_decay_depth():
    # stage 2 at 200 epochs instead of 10000: the 4000-step period shrinks
    # by the same 50x, measured in this run's own steps
    s = stage_schedule(2, epochs=200, steps_per_epoch=10)
    assert s.decay_every == 800
    # end-of-run decay depth matches the full-schedule trajectory shape:
    # 2000 steps / 800 = 2 decades begun, as 100000 / 4000 would at full scale
    assert s.lr_at(1999) == pytest.approx(0.001 * 0.1**2)
    with pytest.raises(DomainError):
        stage_schedule(4, 10, 10)


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

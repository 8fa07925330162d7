"""Tests of the benchmark's own reference code and output checks, at tiny
sizes.  Every check is shown to pass on a correct output and to reject a
deliberately perturbed one.

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import oracle  # noqa: E402
import spec  # noqa: E402
from graphlift import cli  # noqa: E402
from graphlift.ablation import AblationConfig, run_ablation, write_runs_csv, write_summary_csv  # noqa: E402
from graphlift.models import save_model  # noqa: E402
from graphlift.pipeline import HopePipeline, PipelineConfig, hope_loss_terms  # noqa: E402
from graphlift.synth import generate_dataset, records_to_arrays, save_dataset  # noqa: E402
from graphlift.unet import GraphUNetModel, UNetConfig  # noqa: E402

TINY_UNET = UNetConfig(feature_schedule=(4, 8, 8, 16))
TINY_CASCADE = PipelineConfig(unet=TINY_UNET, feature_width=16, refine_widths=(8, 4),
                              raster_grid=8)


def randomize(params: dict, rng) -> None:
    for p in params.values():
        p.data[...] = rng.normal(scale=0.5, size=p.data.shape)


@pytest.mark.parametrize("batch", [1, 3, 32])
@pytest.mark.parametrize("config", [TINY_UNET, UNetConfig()], ids=["tiny", "default"])
def test_unet_oracle_matches_model_at_random_weights(batch, config):
    rng = np.random.default_rng(batch)
    model = GraphUNetModel(config, seed=batch)
    randomize(model.parameters(), rng)
    x = rng.uniform(0.0, 640.0, size=(batch, 29, 2))
    want = model.forward(x).data
    got = oracle.unet_forward({k: p.data for k, p in model.parameters().items()}, x)
    assert got.shape == (batch, 29, 3)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_unet_oracle_sees_a_perturbed_weight():
    model = GraphUNetModel(TINY_UNET, seed=0)
    params = {k: p.data.copy() for k, p in model.parameters().items()}
    params["dec1.W"][0, 0] += 1e-3
    x = np.random.default_rng(0).uniform(0.0, 640.0, size=(2, 29, 2))
    assert checks.arrays_match("3D", oracle.unet_forward(params, x), model.forward(x).data, 1e-9)


@pytest.mark.parametrize("batch", [1, 5])
def test_cascade_oracle_matches_pipeline(batch):
    rng = np.random.default_rng(7)
    pipe = HopePipeline(TINY_CASCADE, seed=3)
    randomize(pipe.parameters(), rng)
    coords = rng.uniform(-50.0, 700.0, size=(batch, 29, 2))   # includes clamped cells
    _, refined, pred3d = pipe.forward_batch(coords)
    params = {k: p.data for k, p in pipe.parameters().items()}
    ref2d, ref3d = oracle.cascade_forward(params, coords)
    assert not checks.arrays_match("2D", ref2d, refined.data, 1e-12)
    assert not checks.arrays_match("3D", ref3d, pred3d.data, 1e-12)
    ref2d[0, 0, 0] += 1e-6 * np.abs(ref2d).max()
    assert checks.arrays_match("2D", ref2d, refined.data, 1e-12)


def test_stage_losses():
    falling = np.array([9.0, 8.0, 7.0, 3.0, 2.0, 1.0])
    assert checks.stage_losses(falling, 1, 3) == []
    assert checks.stage_losses(falling[::-1], 1, 3)
    assert checks.stage_losses(np.array([9.0, np.nan, 1.0, 1.0]), 1, 2)
    assert checks.stage_losses(np.array([]), 1, 2)


def test_matches_and_error_recomputation():
    rng = np.random.default_rng(1)
    preds, gts = rng.normal(size=(4, 29, 3)), rng.normal(size=(4, 29, 3))
    want = float(np.mean([[np.linalg.norm(p - g) for p, g in zip(ps, gs)]
                          for ps, gs in zip(preds, gts)]))
    assert checks.matches("3D", oracle.mean_error(preds, gts), want, 1e-12) == []
    assert checks.matches("3D", want * (1 + 1e-9), want, 1e-12)
    assert checks.matches("3D", float("nan"), want, 1e-12)


@pytest.fixture(scope="module")
def eval_report(tmp_path_factory):
    """`graphlift eval` of a tiny cascade on 12 samples, plus the oracle's
    predictions for it."""
    tmp = tmp_path_factory.mktemp("eval")
    records = generate_dataset(12, 5)
    save_dataset(str(tmp / "d.jsonl"), records)
    pipe = HopePipeline(TINY_CASCADE, seed=1)
    save_model(str(tmp / "ckpt"), pipe)
    report = tmp / "report"
    assert cli.main(["eval", "--data", str(tmp / "d.jsonl"), "--ckpt", str(tmp / "ckpt"),
                     "--report", str(report)]) == 0
    gt2d, gt3d = records_to_arrays(records)
    refined, pred3d = oracle.cascade_forward(
        {k: p.data for k, p in pipe.parameters().items()}, gt2d)
    curves = {n: checks.read_curve(str(report / f"{n}.csv")) for n in checks.EVAL_CURVES}
    return checks.read_summary(str(report)), curves, refined, pred3d, gt2d, gt3d


def test_eval_report_passes(eval_report):
    assert checks.eval_report(*eval_report) == []


@pytest.mark.parametrize("perturb", [
    lambda s, c: s.__setitem__("mean_error_3d_mm", s["mean_error_3d_mm"] * (1 + 1e-6)),
    lambda s, c: s.__setitem__("mean_error_2d_px", s["mean_error_2d_px"] + 1e-3),
    lambda s, c: s.__setitem__("mean_error_3d_hand_mm", s["mean_error_3d_hand_mm"] + 1e-6),
    lambda s, c: s.__setitem__("auc_3d_hand", 1.5),
    lambda s, c: c.__setitem__("curve_3d", (c["curve_3d"][0], c["curve_3d"][1][::-1] - 0.5)),
    lambda s, c: s.pop("auc_2d"),
], ids=["3d-mean", "2d-mean", "hand-object-split", "auc-range", "curve", "missing-key"])
def test_eval_report_rejects_perturbed_output(eval_report, perturb):
    summary, curves, *rest = eval_report
    summary, curves = dict(summary), dict(curves)
    curves["curve_3d"] = (curves["curve_3d"][0], np.linspace(0.0, 1.0, curves["curve_3d"][0].size))
    assert checks.eval_report(summary, curves, *rest) == []
    perturb(summary, curves)
    assert checks.eval_report(summary, curves, *rest)


@pytest.fixture(scope="module")
def ablation_tables(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ablate")
    runs = run_ablation("pooling", generate_dataset(20, 2), (0, 1),
                        AblationConfig(epochs=3, batch_size=8, unet_widths=(4, 8, 8, 16)))
    write_runs_csv(runs, str(tmp / "runs.csv"))
    write_summary_csv(runs, str(tmp / "summary.csv"))
    return checks.read_rows(str(tmp / "runs.csv")), checks.read_rows(str(tmp / "summary.csv"))


VARIANTS, SEEDS = ("trainable", "gpool", "fixed"), (0, 1)


def test_ablation_tables_pass(ablation_tables):
    assert checks.ablation_tables(*ablation_tables, VARIANTS, SEEDS) == []


@pytest.mark.parametrize("perturb", [
    lambda runs, summary: runs[1].__setitem__("status", "diverged"),
    lambda runs, summary: runs[2].__setitem__("mean_error_mm", runs[2]["initial_error_mm"]),
    lambda runs, summary: summary[0].__setitem__(
        "mean_error_mm", repr(float(summary[0]["mean_error_mm"]) * (1 + 1e-9))),
    lambda runs, summary: runs.pop(),
], ids=["status", "no-improvement", "summary-mean", "missing-cell"])
def test_ablation_tables_reject_perturbed_output(ablation_tables, perturb):
    runs = [dict(r) for r in ablation_tables[0]]
    summary = [dict(r) for r in ablation_tables[1]]
    perturb(runs, summary)
    assert checks.ablation_tables(runs, summary, VARIANTS, SEEDS)


def test_gradient_check_accepts_autodiff_and_rejects_a_wrong_gradient():
    pipe = HopePipeline(TINY_CASCADE, seed=2)
    records = generate_dataset(3, 4)
    gt2d, gt3d = records_to_arrays(records)
    tensors = pipe.parameters()

    def loss():
        init2d, refined, pred3d = pipe.forward_batch(gt2d)
        return hope_loss_terms(init2d, refined, pred3d, gt2d, gt3d)[0]

    loss().backward()
    coords = [("stub.W2", 5), ("refine.conv1.W", 3), ("unet.enc0.A", 0), ("unet.final.W", 2)]
    analytic = [float(tensors[k].grad.reshape(-1)[i]) for k, i in coords]
    numeric = checks.central_differences(lambda: loss().item(),
                                         {k: p.data for k, p in tensors.items()}, coords)
    assert checks.gradients(analytic, numeric, coords) == []
    wrong = list(analytic)
    wrong[2] = wrong[2] * 1.01 + 1e-2
    assert checks.gradients(wrong, numeric, coords)


def test_benchmark_json_lists_the_measured_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == spec.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)

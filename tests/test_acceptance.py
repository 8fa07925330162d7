"""Acceptance suite: nine release criteria, one pass/fail line each.

Run with -s to see the lines as they pass; a failing criterion raises with
the same message.  Several checks train real models, so this module takes
a few minutes; the heavyweight pooling comparison budgets half an hour
but typically finishes in about six minutes.
"""

import filecmp
import os
import time

import numpy as np

from graphlift.ablation import AblationConfig, run_ablation, write_summary_csv
from graphlift.adjacency import normalize_adjacency
from graphlift.cli import main
from graphlift.gradcheck import grad_check
from graphlift.layers import AdaptiveGraphConvLayer, GPoolLayer, NodeMap, uniform_init
from graphlift.metrics import auc, default_thresholds, pcp_curve, per_joint_errors
from graphlift.pipeline import HopePipeline, PipelineConfig, hope_loss_terms
from graphlift.synth import add_noise, records_to_arrays
from graphlift.tensor import Tensor, mse
from graphlift.training import eval_unet_mean_error, train_unet_stage2, unet_predictions
from graphlift.unet import GraphUNetModel, UNetConfig


def report(num: int, title: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {title} ({detail})")
    assert ok, f"acceptance {num} ({title}): {detail}"


def test_criterion_1_gradient_fidelity():
    rng = np.random.default_rng([0, 7])
    cases = []

    x6 = Tensor(rng.normal(size=(6, 5)))
    agc = AdaptiveGraphConvLayer(rng.random((6, 6)), 5, 4, "relu", rng)
    t_agc = rng.normal(size=(6, 4))
    cases.append((lambda: mse(agc.forward(x6), t_agc), agc.parameters()))

    pool = NodeMap(uniform_init(rng, (3, 6), 6), "P")
    t_pool = rng.normal(size=(3, 5))
    cases.append((lambda: mse(pool.forward(x6), t_pool), pool.parameters()))

    unpool = NodeMap(uniform_init(rng, (6, 3), 3), "U")
    x3 = Tensor(rng.normal(size=(3, 5)))
    t_unpool = rng.normal(size=(6, 5))
    cases.append((lambda: mse(unpool.forward(x3), t_unpool), unpool.parameters()))

    gpool = GPoolLayer(6, 3, 5, rng)
    t_gpool = rng.normal(size=(3, 5))
    cases.append((lambda: mse(gpool.forward(x6)[0], t_gpool), gpool.parameters()))

    stub = HopePipeline(PipelineConfig(feature_width=32, refine_widths=(8, 4),
                                       raster_grid=8), seed=0).stub
    coords = rng.uniform(100, 500, size=(2, 29, 2))
    t_stub = rng.normal(size=(2, 29, 2))
    cases.append((lambda: mse(stub.encode_batch(coords)[1], t_stub),
                  stub.parameters()))

    pipe = HopePipeline(PipelineConfig(unet=UNetConfig(feature_schedule=(8, 16, 32, 64)),
                                       feature_width=32, refine_widths=(8, 4),
                                       raster_grid=8), seed=0)
    gt3d = rng.normal(scale=100.0, size=(2, 29, 3))

    def pipe_loss():
        init2d, refined, pred3d = pipe.forward_batch(coords)
        return hope_loss_terms(init2d, refined, pred3d, coords, gt3d)[0]

    cases.append((pipe_loss, pipe.parameters()))

    t0 = time.monotonic()
    worst, checked = 0.0, 0
    for fn, params in cases:
        rep = grad_check(fn, params, eps=1e-5, num_coords=100, rng=rng)
        worst = max(worst, rep.max_rel_err)
        checked += rep.num_checked
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and checked >= 100 and elapsed < 60.0
    report(1, "gradient fidelity", ok,
           f"max rel err {worst:.2e} over {checked} coords in {elapsed:.1f}s")


def test_criterion_2_normalization_oracle():
    cases = [
        (np.zeros((4, 4)), np.eye(4)),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), np.full((2, 2), 0.5)),
        (np.ones((3, 3)) - np.eye(3), np.full((3, 3), 1.0 / 3.0)),
    ]
    worst = max(np.abs(normalize_adjacency(a) - want).max() for a, want in cases)
    report(2, "adjacency normalization oracle", worst <= 1e-12,
           f"max deviation {worst:.2e}")


def test_criterion_3_zeros_init_pathology(dataset500):
    config = UNetConfig(feature_schedule=(16, 32, 32, 64), adjacency_init="zeros")
    model = GraphUNetModel(config, seed=0)
    gt2d, gt3d = records_to_arrays(dataset500[:64])
    mse(model.forward(gt2d), gt3d).backward()
    grads_zero = all(np.all(p.grad == 0.0) for p in model.parameters().values())

    before = {k: p.data.copy() for k, p in model.parameters().items()}
    err_before = eval_unet_mean_error(model, dataset500[:100])
    train_unet_stage2(model, dataset500[:100], epochs=5, batch_size=32, seed=0)
    err_after = eval_unet_mean_error(model, dataset500[:100])
    frozen = all(np.array_equal(before[k], p.data)
                 for k, p in model.parameters().items())
    ok = grads_zero and frozen and err_after == err_before
    report(3, "zeros-init pathology", ok,
           f"all grads zero: {grads_zero}, params frozen: {frozen}, "
           f"error {err_before:.2f} -> {err_after:.2f} mm")


def test_criterion_4_pooling_trainability(dataset500):
    train_recs, eval_recs = dataset500[:400], dataset500[400:]
    sigma, epochs, widths = 10.0, 160, (16, 32, 64, 128)
    zero_grad_steps = []

    def final_error(pooling: str, seed: int) -> float:
        config = UNetConfig(feature_schedule=widths, pooling=pooling)
        model = GraphUNetModel(config, seed=seed)
        on_step = None
        if pooling == "trainable":
            def on_step(step, params):
                for name, p in params.items():
                    if name.endswith((".P", ".U")) and not np.any(p.grad != 0.0):
                        zero_grad_steps.append((seed, step, name))
        train_unet_stage2(model, train_recs, epochs=epochs, batch_size=64,
                          noise_sigma=sigma, seed=seed,
                          on_step=on_step)
        return float(np.mean([eval_unet_mean_error(model, eval_recs, sigma,
                                                   seed=100 + j)
                              for j in range(5)]))

    t0 = time.monotonic()
    wins = sum(final_error("trainable", seed) <= final_error("gpool", seed)
               for seed in range(20))
    elapsed = time.monotonic() - t0
    ok = not zero_grad_steps and wins >= 16 and elapsed <= 1800.0
    report(4, "pooling trainability", ok,
           f"trainable wins {wins}/20, zero-grad steps {len(zero_grad_steps)}, "
           f"{elapsed:.0f}s")


def test_criterion_5_denoising_monotonicity(stage2_unet, dataset500):
    errors = [eval_unet_mean_error(stage2_unet, dataset500, sigma, seed=5)
              for sigma in (0.0, 20.0, 50.0)]
    monotone = errors[0] < errors[1] < errors[2]

    gt2d, gt3d = records_to_arrays(dataset500)
    noisy = add_noise(gt2d, 20.0, np.random.default_rng([5, 3]))
    fresh = GraphUNetModel(UNetConfig(), seed=0)
    thresholds = default_thresholds(100.0, 101)
    trained = pcp_curve(unet_predictions(stage2_unet, noisy), gt3d, thresholds)
    untrained = pcp_curve(unet_predictions(fresh, noisy), gt3d, thresholds)
    dominates = (np.all(trained.fractions >= untrained.fractions)
                 and np.any(trained.fractions > untrained.fractions))
    ok = monotone and dominates
    report(5, "denoising monotonicity", ok,
           "errors " + " < ".join(f"{e:.1f}" for e in errors)
           + f" mm, curve dominance {dominates}")


def test_criterion_6_learning_progress(stage2_unet, dataset500, tmp_path):
    fresh = GraphUNetModel(UNetConfig(), seed=0)
    initial = eval_unet_mean_error(fresh, dataset500, 0.0, seed=5)
    final = eval_unet_mean_error(stage2_unet, dataset500, 0.0, seed=5)
    tenfold = final * 10.0 <= initial

    runs = run_ablation("adjacency_init", dataset500, (0, 1, 2), AblationConfig())
    rerun = run_ablation("adjacency_init", dataset500, (0, 1, 2), AblationConfig())
    first, second = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_summary_csv(runs, first)
    write_summary_csv(rerun, second)
    reproducible = runs == rerun and filecmp.cmp(first, second, shallow=False)

    error = {(r.variant, r.seed): r.mean_error_mm for r in runs}
    directional_wins = sum(
        error[("identity", s)] <= error[("ones", s)]
        and error[("identity", s)] <= error[("random", s)]
        for s in (0, 1, 2))
    ok = tenfold and reproducible and directional_wins >= 2
    report(6, "learning progress", ok,
           f"error {initial:.1f} -> {final:.1f} mm "
           f"({initial / final:.1f}x), table reproducible {reproducible}, "
           f"identity wins {directional_wins}/3 seeds")


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(77)
    preds = rng.normal(scale=30.0, size=(40, 29, 3))
    gts = rng.normal(scale=30.0, size=(40, 29, 3))
    thresholds = np.linspace(0.0, 60.0, 13)

    curve = pcp_curve(preds, gts, thresholds)
    per_sample = np.array([
        np.mean([np.linalg.norm(preds[s, k] - gts[s, k]) for k in range(29)])
        for s in range(40)])
    brute_fractions = np.array([np.sum(per_sample < t) / 40.0 for t in thresholds])
    pcp_dev = np.abs(curve.fractions - brute_fractions).max()

    f, t = curve.fractions, curve.thresholds
    brute_auc = sum((f[i] + f[i + 1]) / 2.0 * (t[i + 1] - t[i])
                    for i in range(len(t) - 1)) / (t[-1] - t[0])
    auc_dev = abs(auc(curve) - brute_auc)

    errs = per_joint_errors(preds, gts)
    agg_dev = max(
        abs(float(np.mean(errs["per_node"])) - errs["all"]),
        abs((21.0 * errs["hand"] + 8.0 * errs["object"]) / 29.0 - errs["all"]))

    ok = pcp_dev <= 1e-9 and auc_dev <= 1e-9 and agg_dev <= 1e-12
    report(7, "metric oracles", ok,
           f"pcp dev {pcp_dev:.2e}, auc dev {auc_dev:.2e}, "
           f"aggregation dev {agg_dev:.2e}")


def test_criterion_8_loss_contract():
    rng = np.random.default_rng(8)
    gt2d = rng.uniform(100.0, 500.0, size=(4, 29, 2))
    gt3d = rng.normal(scale=100.0, size=(4, 29, 3))
    init2d = Tensor(gt2d + np.array([10.0, 0.0]))
    loss = hope_loss_terms(init2d, Tensor(gt2d.copy()), Tensor(gt3d.copy()), gt2d, gt3d)[0]
    deviation = abs(float(loss.data) - 5.0)
    report(8, "loss contract", deviation <= 1e-12, f"deviation {deviation:.2e}")


def test_criterion_9_reproducibility(tmp_path):
    def run_twice(build_args):
        outs = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            os.makedirs(d, exist_ok=True)
            args, files = build_args(str(d))
            assert main(args) == 0
            outs.append(files)
        return all(filecmp.cmp(a, b, shallow=False)
                   for a, b in zip(*outs))

    data = str(tmp_path / "data.jsonl")

    def gen_args(d):
        out = os.path.join(d, "data.jsonl")
        return (["gen", "--n", "40", "--seed", "11", "--out", out], [out])

    gen_ok = run_twice(gen_args)
    assert main(["gen", "--n", "40", "--seed", "11", "--out", data]) == 0

    def train_args(d):
        ckpt = os.path.join(d, "ck")
        return (["train", "--data", data, "--out-ckpt", ckpt,
                 "--stage-epochs", "1,1,1", "--batch-size", "16",
                 "--seed", "0"],
                [ckpt + ".json", ckpt + ".bin", ckpt + "_log.csv"])

    train_ok = run_twice(train_args)

    def ablate_args(d):
        return (["ablate", "--suite", "pooling", "--data", data,
                 "--seeds", "0", "--epochs", "1", "--batch-size", "16",
                 "--widths", "4,8,8,16", "--out-dir", d],
                [os.path.join(d, "pooling_runs.csv"),
                 os.path.join(d, "pooling_summary.csv")])

    ablate_ok = run_twice(ablate_args)
    ok = gen_ok and train_ok and ablate_ok
    report(9, "reproducibility", ok,
           f"gen {gen_ok}, train {train_ok}, ablate {ablate_ok}")

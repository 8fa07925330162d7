"""Command-line front end.

Subcommands: gen, train, eval, ablate, gradcheck, export-adjacency.
Every command is deterministic under its --seed, and opens each file it
will write before any work.  Exit codes: 0 success, 2 bad or missing data
or an unwritable output, 3 numeric failure (divergence or a failed
gradient check), 1 every other graphlift error (a usage problem).  Set
GRAPHLIFT_VERBOSE=0 to silence progress lines; errors always go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .ablation import AblationConfig, SUITES, run_ablation, write_runs_csv, write_summary_csv
from .checkpoint import blob_path, manifest_path
from .errors import (
    CheckpointFormatError, DatasetFormatError, DegenerateGeometryError,
    DomainError, GraphLiftError, NumericError, TrainingDiverged,
)
from .gradcheck import TOLERANCE, grad_check
from .layers import AdaptiveGraphConvLayer, GPoolLayer, NodeMap, partition_matrix, uniform_init
from .metrics import auc, curve_to_csv, default_thresholds, pcp_curve, per_joint_errors
from .models import load_model, save_model
from .outputs import rewrite_csv
from .pipeline import HopePipeline, PipelineConfig, hope_loss_terms
from .synth import generate_dataset, load_dataset, save_dataset, records_to_arrays
from .tensor import Tensor, mse
from .training import (
    PRESET_EPOCHS, TrainConfig, mean_keypoint_error, pipeline_predictions, unet_predictions,
    train as train_pipeline,
)
from .unet import UNetConfig, GraphUNetModel
from .keypoints import NODE_NAMES

__all__ = ["main"]


def _verbose() -> bool:
    return os.environ.get("GRAPHLIFT_VERBOSE", "1") != "0"


def _info(msg: str) -> None:
    if _verbose():
        print(msg)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme."""

    def error(self, message):
        raise DomainError(message)


def _seed(text: str) -> int:
    """argparse type of a seed: numpy seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"a seed must be a non-negative integer, got {text!r}")
    return int(text)


def _int_list(text: str) -> tuple:
    """argparse type of a comma-separated list of integers (a ValueError is a usage error)."""
    return tuple(int(s) for s in text.split(","))


def _build_parser() -> _Parser:
    p = _Parser(prog="graphlift",
                description="Synthetic hand-object keypoint lifting: data "
                            "generation, training, evaluation and ablations.")
    sub = p.add_subparsers(dest="command", metavar="command")
    sub.required = True

    g = sub.add_parser("gen", help="generate a synthetic dataset",
                       description="Write n synthetic hand+box samples as JSON lines.")
    g.add_argument("--n", type=int, required=True, help="number of samples")
    g.add_argument("--seed", type=_seed, default=0, help="dataset seed (default 0)")
    g.add_argument("--out", required=True, help="output .jsonl path")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train the full cascade",
                       description="Run the three-stage schedule and write a "
                                   "checkpoint plus a per-step CSV log.")
    t.add_argument("--data", required=True, help="training dataset (.jsonl)")
    t.add_argument("--preset", choices=("desk", "paper"), default="desk",
                   help="epoch budget preset (default desk: 30/200/30)")
    t.add_argument("--out-ckpt", required=True,
                   help="checkpoint base path (writes .json and .bin)")
    t.add_argument("--log", default=None,
                   help="training log CSV (default <out-ckpt>_log.csv)")
    t.add_argument("--stage-epochs", type=_int_list, default=None, metavar="E1,E2,E3",
                   help="override the preset epoch counts")
    t.add_argument("--batch-size", type=int, default=32, help="default 32")
    t.add_argument("--noise-sigma", type=float, default=10.0,
                   help="stage-2 input noise in px (default 10)")
    t.add_argument("--seed", type=_seed, default=0, help="training seed (default 0)")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint",
                       description="Write PCP curves, AUC values and per-joint "
                                   "error breakdowns for a checkpoint.")
    e.add_argument("--data", required=True, help="evaluation dataset (.jsonl)")
    e.add_argument("--ckpt", required=True, help="checkpoint base path")
    e.add_argument("--report", required=True, help="output directory for CSVs")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="run an ablation suite",
                       description="Train every variant of one suite under an "
                                   "identical budget and tabulate errors.")
    a.add_argument("--suite", choices=sorted(SUITES), required=True)
    a.add_argument("--data", required=True, help="dataset (.jsonl)")
    a.add_argument("--out-dir", required=True, help="directory for result CSVs")
    a.add_argument("--seeds", type=lambda text: tuple(_seed(s) for s in text.split(",")),
                   default="0,1,2", metavar="S0,S1,...",
                   help="comma-separated seeds (default 0,1,2)")
    a.add_argument("--epochs", type=int, default=30,
                   help="training epochs per run (default 30)")
    a.add_argument("--batch-size", type=int, default=64, help="default 64")
    a.add_argument("--widths", type=_int_list, default="16,32,64,128", metavar="W0,W1,...",
                   help="U-Net feature widths (default 16,32,64,128)")
    a.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (default 1)")
    a.set_defaults(func=cmd_ablate)

    c = sub.add_parser("gradcheck", help="finite-difference gradient check",
                       description="Compare analytic gradients against central "
                                   "differences and report the worst parameter.")
    c.add_argument("--target", choices=("layers", "unet", "pipeline"),
                   default="layers", help="what to check (default layers)")
    c.add_argument("--seed", type=_seed, default=0, help="default 0")
    c.set_defaults(func=cmd_gradcheck)

    x = sub.add_parser("export-adjacency", help="dump learned adjacency kernels",
                       description="Write one CSV per adaptive layer of a "
                                   "checkpoint: a size line then the matrix rows.")
    x.add_argument("--ckpt", required=True, help="checkpoint base path")
    x.add_argument("--out-dir", required=True, help="directory for the CSVs")
    x.set_defaults(func=cmd_export_adjacency)
    return p


# ---- commands ---------------------------------------------------------------


def cmd_gen(args) -> int:
    _check_output_files([args.out])
    records = generate_dataset(args.n, args.seed)
    save_dataset(args.out, records)
    _info(f"wrote {len(records)} samples to {args.out}")
    return 0


def _check_output_files(paths) -> None:
    """Raise, before any work, the OSError that writing one of `paths` would
    raise: open each as its writer does, without truncating it, and remove
    a file that only this check created."""
    for path in paths:
        existed = os.path.lexists(path)
        open(path, "ab").close()
        if not existed:
            os.remove(path)


def _make_output_dir(directory: str, paths) -> None:
    """Make `directory` and its missing parents, then run
    _check_output_files(paths).  If either raises, remove the directory
    levels this call made, deepest first, and re-raise, so a command that
    fails its write check leaves no new directory behind."""
    made, level = [], os.path.abspath(directory)
    while not os.path.lexists(level):
        made.append(level)
        level = os.path.dirname(level)
    try:
        os.makedirs(directory, exist_ok=True)
        _check_output_files(paths)
    except OSError:
        for level in made:
            if os.path.isdir(level):
                os.rmdir(level)
        raise


def _require_distinct(paths, message: str) -> None:
    """A usage error when two of `paths` name one file (through links too)."""
    if len({os.path.realpath(p) for p in paths}) < len(paths):
        raise DomainError(message)


def cmd_train(args) -> int:
    log_path = args.log if args.log is not None else args.out_ckpt + "_log.csv"
    outputs = (manifest_path(args.out_ckpt), blob_path(args.out_ckpt), log_path)
    _require_distinct(outputs + (args.data,), f"--data, --log, {outputs[0]} and "
                      f"{outputs[1]} must be four different files")
    epochs = PRESET_EPOCHS[args.preset] if args.stage_epochs is None else args.stage_epochs
    config = TrainConfig(stage_epochs=epochs, preset=args.preset,
                         batch_size=args.batch_size, noise_sigma=args.noise_sigma,
                         seed=args.seed)
    records = load_dataset(args.data)
    _make_output_dir(os.path.dirname(os.path.abspath(args.out_ckpt)), outputs)
    pipeline = HopePipeline(PipelineConfig(), seed=args.seed)
    try:
        log = train_pipeline(pipeline, records, config)
    except TrainingDiverged as e:
        save_model(args.out_ckpt, pipeline)
        e.log.write_csv(log_path)
        print(f"training diverged: {e}; last finite state saved to "
              f"{args.out_ckpt}", file=sys.stderr)
        return 3
    save_model(args.out_ckpt, pipeline)
    log.write_csv(log_path)
    _info(f"trained {pipeline.num_parameters()} parameters over "
          f"{len(log.rows)} steps; checkpoint at {args.out_ckpt}, log at {log_path}")
    return 0


# The files eval writes into its --report directory, without ".csv".
_EVAL_REPORTS = ("curve_2d", "curve_3d", "curve_3d_hand", "curve_3d_object",
                 "per_joint", "summary")


def cmd_eval(args) -> int:
    out = {n: os.path.join(args.report, n + ".csv") for n in _EVAL_REPORTS}
    _require_distinct([args.data, *out.values()],
                      f"--data must not be one of the report files eval writes to {args.report}")
    records = load_dataset(args.data)
    model = load_model(args.ckpt)
    _make_output_dir(args.report, (path for name, path in out.items()
                                   if name != "curve_2d" or isinstance(model, HopePipeline)))
    gt2d, gt3d = records_to_arrays(records)
    thresholds = default_thresholds()
    summary: list[tuple[str, float]] = []

    if isinstance(model, HopePipeline):
        refined2d, pred3d = pipeline_predictions(model, records)
        c2d = pcp_curve(refined2d, gt2d, thresholds)
        curve_to_csv(c2d, out["curve_2d"])
        summary.append(("auc_2d", auc(c2d)))
        summary.append(("mean_error_2d_px", mean_keypoint_error(refined2d, gt2d)))
    else:
        pred3d = unet_predictions(model, gt2d)

    for subset in ("all", "hand", "object"):
        name = "curve_3d" if subset == "all" else f"curve_3d_{subset}"
        curve = pcp_curve(pred3d, gt3d, thresholds, subset=subset)
        curve_to_csv(curve, out[name])
        summary.append((f"auc_3d_{subset}" if subset != "all" else "auc_3d",
                        auc(curve)))

    errs = per_joint_errors(pred3d, gt3d)
    rewrite_csv(out["per_joint"], [("node", "name", "mean_error_mm"),
                                   *zip(range(len(NODE_NAMES)), NODE_NAMES, errs["per_node"])])
    summary.append(("mean_error_3d_mm", errs["all"]))
    summary.append(("mean_error_3d_hand_mm", errs["hand"]))
    summary.append(("mean_error_3d_object_mm", errs["object"]))
    for jt, v in errs["joint_types"].items():
        summary.append((f"error_{jt}_mm", v))
    for f, v in errs["fingers"].items():
        summary.append((f"error_{f}_mm", v))

    rewrite_csv(out["summary"], [("metric", "value"), *summary])
    _info(f"report written to {args.report} "
          f"(mean 3D error {errs['all']:.2f} mm)")
    return 0


def cmd_ablate(args) -> int:
    runs_csv, summary_csv = (os.path.join(args.out_dir, f"{args.suite}_{name}.csv")
                             for name in ("runs", "summary"))
    _require_distinct([args.data, runs_csv, summary_csv],
                      f"--data must not be {runs_csv} or {summary_csv}")
    if args.jobs < 1:
        raise DomainError(f"--jobs must be at least 1, got {args.jobs}")
    config = AblationConfig(epochs=args.epochs, batch_size=args.batch_size,
                            unet_widths=args.widths)
    records = load_dataset(args.data)
    _make_output_dir(args.out_dir, [runs_csv, summary_csv])
    runs = run_ablation(args.suite, records, args.seeds, config, jobs=args.jobs)
    write_runs_csv(runs, runs_csv)
    write_summary_csv(runs, summary_csv)
    for r in runs:
        flag = "" if r.status == "ok" else f"  [{r.status}]"
        _info(f"{r.variant:>10}  seed {r.seed}  "
              f"{r.initial_error_mm:10.2f} -> {r.mean_error_mm:10.2f} mm{flag}")
    _info(f"results in {args.out_dir}")
    return 0


def _gradcheck_cases(target: str, seed: int):
    """Named (fn, params) closures to run through grad_check."""
    rng = np.random.default_rng(seed)
    cases = []

    if target == "layers":
        x6 = Tensor(rng.normal(size=(6, 5)))
        t6 = rng.normal(size=(6, 4))
        agc = AdaptiveGraphConvLayer(rng.random((6, 6)), 5, 4, "relu", rng)
        cases.append(("adaptive_conv", lambda: mse(agc.forward(x6), t6),
                      agc.parameters()))

        pool = NodeMap(uniform_init(rng, (3, 6), 6), "P")
        t3 = rng.normal(size=(3, 5))
        cases.append(("pool", lambda: mse(pool.forward(x6), t3),
                      pool.parameters()))

        unpool = NodeMap(uniform_init(rng, (6, 3), 3), "U")
        x3 = Tensor(rng.normal(size=(3, 5)))
        t6b = rng.normal(size=(6, 5))
        cases.append(("unpool", lambda: mse(unpool.forward(x3), t6b),
                      unpool.parameters()))

        gpool = GPoolLayer(6, 3, 5, rng)
        t3b = rng.normal(size=(3, 5))
        cases.append(("gpool", lambda: mse(gpool.forward(x6)[0], t3b),
                      gpool.parameters()))

        fixed = NodeMap(partition_matrix([[0, 1], [2, 3, 4], [5]], 6), "P", trainable=False)
        xf = Tensor(rng.normal(size=(6, 5)), requires_grad=True, name="x")
        tf = rng.normal(size=(3, 5))
        cases.append(("fixed_pool", lambda: mse(fixed.forward(xf), tf), {"x": xf}))

        cfg = PipelineConfig(feature_width=32, refine_widths=(8, 4), raster_grid=8)
        stub = HopePipeline(cfg, seed=seed).stub
        coords = rng.uniform(100, 500, size=(2, 29, 2))
        t2 = rng.normal(size=(2, 29, 2))
        cases.append(("stub_encoder",
                      lambda: mse(stub.encode_batch(coords)[1], t2),
                      stub.parameters()))
    elif target == "unet":
        model = GraphUNetModel(UNetConfig(feature_schedule=(8, 16, 32, 64)), seed=seed)
        x = rng.uniform(100, 500, size=(2, 29, 2))
        t = rng.normal(scale=100.0, size=(2, 29, 3))
        cases.append(("unet", lambda: mse(model.forward(x), t), model.parameters()))
    elif target == "pipeline":
        cfg = PipelineConfig(
            unet=UNetConfig(feature_schedule=(8, 16, 32, 64)),
            feature_width=32, refine_widths=(8, 4), raster_grid=8)
        pipe = HopePipeline(cfg, seed=seed)
        coords = rng.uniform(100, 500, size=(2, 29, 2))
        gt3d = rng.normal(scale=100.0, size=(2, 29, 3))

        def loss():
            init2d, refined, pred3d = pipe.forward_batch(coords)
            return hope_loss_terms(init2d, refined, pred3d, coords, gt3d)[0]

        cases.append(("pipeline", loss, pipe.parameters()))
    else:
        raise DomainError(f"unknown gradcheck target {target!r}")
    return cases


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng([args.seed, 7])
    worst = 0.0
    failed = False
    for name, fn, params in _gradcheck_cases(args.target, args.seed):
        report = grad_check(fn, params, rng=rng)
        status = "pass" if report.ok() else "FAIL"
        print(f"{name:>14}: max rel err {report.max_rel_err:.3e} over "
              f"{report.num_checked} coords  worst {report.worst_param}"
              f"{[int(i) for i in report.worst_index]}  {status}")
        worst = max(worst, report.max_rel_err)
        failed = failed or not report.ok()
    print(f"overall max relative error {worst:.3e} (tolerance {TOLERANCE:g})")
    return 3 if failed else 0


def cmd_export_adjacency(args) -> int:
    # load_model checks every name and shape against the checkpoint's config
    kernels = {os.path.join(args.out_dir, k.replace(".", "_") + ".csv"): p.data
               for k, p in sorted(load_model(args.ckpt).parameters().items())
               if k.endswith(".A")}
    if not kernels:
        raise DomainError("checkpoint has no adaptive adjacency kernels")
    _make_output_dir(args.out_dir, kernels)
    for path, a in kernels.items():
        rewrite_csv(path, [(a.shape[0],), *a.tolist()])
    _info(f"exported {len(kernels)} adjacency kernels to {args.out_dir}")
    return 0


# ---- entry point ------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (DatasetFormatError, CheckpointFormatError, DegenerateGeometryError,
            OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except GraphLiftError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1

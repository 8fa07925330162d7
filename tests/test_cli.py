"""End-to-end command-line checks, run in process through main(argv)."""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from graphlift import ablation, cli, training
from graphlift.checkpoint import load_checkpoint, save_checkpoint
from graphlift.cli import main
from graphlift.errors import GraphLiftError
from graphlift.metrics import PcpCurve, auc
from graphlift.keypoints import NODE_NAMES
from graphlift.models import FcBaselineModel, load_model, save_model
from graphlift.synth import load_dataset, save_dataset
from graphlift.training import LOG_COLUMNS, TrainingLog
from graphlift.unet import GraphUNetModel, UNetConfig


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "train.jsonl")
    assert main(["gen", "--n", "30", "--seed", "3", "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    base = str(tmp_path_factory.mktemp("ckpt") / "pipe")
    rc = main(["train", "--data", dataset, "--out-ckpt", base,
               "--stage-epochs", "1,1,1", "--batch-size", "16", "--seed", "0"])
    assert rc == 0
    return base


@pytest.fixture(scope="module")
def unet_ckpt(tmp_path_factory):
    base = str(tmp_path_factory.mktemp("ckpt") / "unet")
    model = GraphUNetModel(UNetConfig(feature_schedule=(4, 8, 8, 16)), seed=5)
    save_model(base, model)
    return base


def read_csv(path):
    with open(path) as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


def read_curve(path):
    header, rows = read_csv(path)
    assert header == ["threshold", "fraction"]
    return PcpCurve(*np.array(rows, dtype=np.float64).T)


# ---- gen ---------------------------------------------------------------------


def test_gen_is_deterministic(tmp_path):
    a, b, c = (str(tmp_path / n) for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    assert main(["gen", "--n", "20", "--seed", "7", "--out", a]) == 0
    assert main(["gen", "--n", "20", "--seed", "7", "--out", b]) == 0
    assert main(["gen", "--n", "20", "--seed", "8", "--out", c]) == 0
    assert filecmp.cmp(a, b, shallow=False)
    assert not filecmp.cmp(a, c, shallow=False)


def test_gen_output_passes_validation(dataset):
    assert len(load_dataset(dataset)) == 30


def test_gen_out_under_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "f").write_text("")
    assert main(["gen", "--n", "2", "--out", str(tmp_path / "f" / "x.jsonl")]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["nodir/x.jsonl", "adir"],
                         ids=["directory missing", "out is a directory"])
def test_gen_bad_output_path_exits_2_before_generating(tmp_path, monkeypatch, capsys, out):
    calls = []
    monkeypatch.setattr(cli, "generate_dataset", lambda *args: calls.append(args) or [])
    (tmp_path / "adir").mkdir()
    assert main(["gen", "--n", "10", "--seed", "1", "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err.startswith("data error")
    assert calls == []


def test_gen_file_name_too_long_exits_2(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "generate_dataset", lambda *args: calls.append(args) or [])
    out = tmp_path / ("x" * 300 + ".jsonl")
    assert main(["gen", "--n", "2", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error")
    assert "Traceback" not in err
    assert calls == []
    assert not os.listdir(tmp_path)


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "x.jsonl"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src, "GRAPHLIFT_VERBOSE": "0"}
    proc = subprocess.run([sys.executable, "-m", "graphlift", "gen", "--n", "2",
                           "--seed", "0", "--out", str(out)], env=env, timeout=120)
    assert proc.returncode == 0
    assert len(load_dataset(str(out))) == 2


def test_usage_errors_exit_1(tmp_path):
    out = str(tmp_path / "x.jsonl")
    assert main(["gen", "--n", "0", "--seed", "1", "--out", out]) == 1
    assert main(["gen", "--n", "5", "--no-such-flag", "--out", out]) == 1
    assert main([]) == 1


@pytest.mark.parametrize("command", ["gen", "train", "eval", "ablate", "gradcheck",
                                     "export-adjacency"])
def test_help_exits_0_and_lists_no_removed_flag(capsys, command):
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: graphlift {command}")
    for flag in ("--tol", "--eps", "--coords", "--threshold-limit"):
        assert flag not in out


# ---- train -------------------------------------------------------------------


def test_train_writes_checkpoint_and_log(trained, dataset):
    assert os.path.exists(trained + ".json")
    assert os.path.exists(trained + ".bin")
    header, rows = read_csv(trained + "_log.csv")
    assert header == list(LOG_COLUMNS)
    # 30 samples / batch 16 -> 2 steps per epoch, one epoch per stage
    assert [r[1] for r in rows] == ["1", "1", "2", "2", "3", "3"]
    cols = dict(zip(header, zip(*rows)))
    for stage, row in zip(cols["stage"], rows):
        blanks = {c for c, v in zip(header, row) if v == ""}
        if stage == "1":
            assert blanks == {"loss_3d"}
        elif stage == "2":
            assert blanks == {"loss_init2d", "loss_2d"}
        else:
            assert blanks == set()
    assert all(float(v) > 0 for v in cols["total"])


def test_train_missing_data_exits_2(tmp_path):
    rc = main(["train", "--data", str(tmp_path / "nope.jsonl"),
               "--out-ckpt", str(tmp_path / "ck")])
    assert rc == 2
    (tmp_path / "bad.jsonl").write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\xfa\n")
    rc = main(["train", "--data", str(tmp_path / "bad.jsonl"),
               "--out-ckpt", str(tmp_path / "ck")])
    assert rc == 2


def test_train_rejects_bad_stage_epochs(dataset, tmp_path):
    base = ["train", "--data", dataset, "--out-ckpt", str(tmp_path / "ck")]
    assert main(base + ["--stage-epochs", "1,2"]) == 1
    assert main(base + ["--stage-epochs", "a,b,c"]) == 1


@pytest.mark.parametrize("flags", [
    ["train", "--out-ckpt", "{tmp}/ck", "--batch-size", "0"],
    ["train", "--out-ckpt", "{tmp}/ck", "--stage-epochs", "1,2"],
    ["ablate", "--suite", "pooling", "--out-dir", "{tmp}/r", "--jobs", "0"],
    ["ablate", "--suite", "pooling", "--out-dir", "{tmp}/r", "--epochs", "0"],
    ["ablate", "--suite", "pooling", "--out-dir", "{tmp}/r", "--widths", "1,2"],
], ids=["train-batch-size", "train-stage-epochs", "ablate-jobs", "ablate-epochs",
        "ablate-widths"])
def test_bad_flag_is_a_usage_error_before_the_data_is_read(tmp_path, capsys, flags):
    argv = [a.format(tmp=tmp_path) for a in flags]
    assert main(argv + ["--data", str(tmp_path / "missing.jsonl")]) == 1
    assert capsys.readouterr().err.startswith("usage error")
    assert not os.listdir(tmp_path)


def test_train_divergence_exits_3_with_last_good_state(dataset, tmp_path, capsys):
    # one gt3d at 1e200 mm is finite, but its squared error overflows the 3D loss
    records = load_dataset(dataset)
    records[0].gt3d *= 1e200
    data = str(tmp_path / "overflowing.jsonl")
    save_dataset(data, records)
    base = str(tmp_path / "ck")
    with warnings.catch_warnings():
        # the finite check, not a numpy warning, must report the divergence
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["train", "--data", data, "--out-ckpt", base,
                   "--stage-epochs", "2,2,2", "--batch-size", "16", "--seed", "0"])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err
    header, rows = read_csv(base + "_log.csv")
    assert [r[header.index("stage")] for r in rows] == ["1"] * 4
    saved = load_model(base)
    for p in saved.parameters().values():
        assert np.all(np.isfinite(p.data))


@pytest.mark.parametrize("out_ckpt, log", [
    ("ck", "nodir/x/log.csv"), ("ck", "adir"), ("afile/ck", None), ("x" * 300, None),
    ("new/deeper/ck", "missing/log.csv"),
], ids=["log directory missing", "log is a directory", "checkpoint parent is a file",
        "checkpoint name too long", "new checkpoint directory, log directory missing"])
def test_train_bad_output_path_exits_2_before_training(
        dataset, tmp_path, monkeypatch, capsys, out_ckpt, log):
    calls = []
    monkeypatch.setattr(cli, "train_pipeline",
                        lambda *args: calls.append(args) or TrainingLog())
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    argv = ["train", "--data", dataset, "--out-ckpt", str(tmp_path / out_ckpt),
            "--stage-epochs", "1,1,1", "--batch-size", "16"]
    if log is not None:
        argv += ["--log", str(tmp_path / log)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("data error")
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == ["adir", "afile"]


@pytest.mark.parametrize("log", ["ck.json", "./ck.bin", "{data}"],
                         ids=["manifest", "blob", "data"])
def test_train_log_onto_the_checkpoint_or_the_data_exits_1_before_training(
        dataset, tmp_path, monkeypatch, capsys, log):
    calls = []
    monkeypatch.setattr(cli, "train_pipeline",
                        lambda *args: calls.append(args) or TrainingLog())
    monkeypatch.chdir(tmp_path)
    shutil.copy(dataset, "data.jsonl")
    data = (tmp_path / "data.jsonl").read_bytes()
    assert main(["train", "--data", "data.jsonl", "--out-ckpt", "ck",
                 "--log", log.format(data=tmp_path / "data.jsonl")]) == 1
    assert capsys.readouterr().err.startswith("usage error")
    assert calls == []
    assert os.listdir(tmp_path) == ["data.jsonl"]
    assert (tmp_path / "data.jsonl").read_bytes() == data


def test_only_training_sets_the_heap(dataset, unet_ckpt, tmp_path, monkeypatch):
    # the glibc thresholds last for the rest of the process: gen and eval,
    # which train nothing, must never set them
    calls = []
    monkeypatch.setattr(training, "_keep_freed_heap", lambda: calls.append(1))
    assert main(["gen", "--n", "4", "--seed", "1", "--out", str(tmp_path / "d.jsonl")]) == 0
    assert main(["eval", "--data", dataset, "--ckpt", unet_ckpt,
                 "--report", str(tmp_path / "rep")]) == 0
    assert calls == []
    assert main(["train", "--data", dataset, "--out-ckpt", str(tmp_path / "ck"),
                 "--stage-epochs", "1,0,1", "--batch-size", "16"]) == 0
    assert len(calls) == 2                      # once per stage that takes a step


def test_train_creates_missing_checkpoint_directory(dataset, tmp_path, monkeypatch):
    # the default log lands next to the checkpoint, in the directory train makes
    monkeypatch.setattr(cli, "train_pipeline", lambda *args: TrainingLog())
    base = str(tmp_path / "runs" / "deeper" / "ck")
    assert main(["train", "--data", dataset, "--out-ckpt", base]) == 0
    for suffix in (".json", ".bin", "_log.csv"):
        assert os.path.isfile(base + suffix)
    load_model(base)


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
def test_train_rejects_non_finite_noise_sigma(dataset, tmp_path, sigma):
    base = str(tmp_path / "ck")
    assert main(["train", "--data", dataset, "--out-ckpt", base,
                 "--noise-sigma", sigma]) == 1
    assert not os.path.exists(base + ".json")


def test_train_non_finite_batch_exits_3_with_last_good_state(dataset, tmp_path, capsys):
    # 1e308 is a finite sigma, but the noisy stage-2 inputs overflow.
    base = str(tmp_path / "ck")
    rc = main(["train", "--data", dataset, "--out-ckpt", base,
               "--stage-epochs", "1,1,1", "--batch-size", "16",
               "--noise-sigma", "1e308", "--seed", "0"])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err
    header, rows = read_csv(base + "_log.csv")
    assert [r[header.index("stage")] for r in rows] == ["1", "1"]
    for p in load_model(base).parameters().values():
        assert np.all(np.isfinite(p.data))


# ---- eval --------------------------------------------------------------------


def test_eval_report_files_and_auc_consistency(trained, dataset, tmp_path):
    report = str(tmp_path / "report")
    assert main(["eval", "--data", dataset, "--ckpt", trained,
                 "--report", report]) == 0
    names = {"curve_2d.csv", "curve_3d.csv", "curve_3d_hand.csv",
             "curve_3d_object.csv", "per_joint.csv", "summary.csv"}
    assert names <= set(os.listdir(report))

    header, rows = read_csv(os.path.join(report, "summary.csv"))
    assert header == ["metric", "value"]
    summary = {k: float(v) for k, v in rows}
    for curve_name, key in [("curve_2d.csv", "auc_2d"),
                            ("curve_3d.csv", "auc_3d"),
                            ("curve_3d_hand.csv", "auc_3d_hand"),
                            ("curve_3d_object.csv", "auc_3d_object")]:
        curve = read_curve(os.path.join(report, curve_name))
        assert abs(auc(curve) - summary[key]) <= 1e-9

    header, rows = read_csv(os.path.join(report, "per_joint.csv"))
    assert header == ["node", "name", "mean_error_mm"]
    assert [r[1] for r in rows] == list(NODE_NAMES)
    per_node = np.array([float(r[2]) for r in rows])
    assert abs(per_node.mean() - summary["mean_error_3d_mm"]) < 1e-9


def test_eval_rerun_rewrites_every_report_file_on_its_inode(
        trained, dataset, tmp_path, monkeypatch):
    """A second eval overwrites each report file in place: same inode, same
    bytes, and each is cut only to its full new length, never to zero."""
    report = str(tmp_path / "report")
    argv = ["eval", "--data", dataset, "--ckpt", trained, "--report", report]
    assert main(argv) == 0
    first = {}
    for name in os.listdir(report):
        with open(os.path.join(report, name), "rb") as fh:
            first[name] = (os.fstat(fh.fileno()).st_ino, fh.read())
    assert len(first) == 6
    cuts = {}
    real_ftruncate = os.ftruncate

    def ftruncate(fd, length):
        cuts[os.fstat(fd).st_ino] = length
        real_ftruncate(fd, length)
    monkeypatch.setattr(os, "ftruncate", ftruncate)
    assert main(argv) == 0
    for name, (inode, data) in first.items():
        path = os.path.join(report, name)
        assert os.stat(path).st_ino == inode
        assert cuts[inode] == len(data)
        with open(path, "rb") as fh:
            assert fh.read() == data


def test_eval_report_path_that_is_a_file_exits_2(trained, dataset, tmp_path, capsys):
    report = tmp_path / "report"
    report.write_text("")
    assert main(["eval", "--data", dataset, "--ckpt", trained,
                 "--report", str(report)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("report", ["per_joint", "summary"])
def test_eval_report_that_is_a_directory_exits_2_and_writes_no_report(
        trained, dataset, tmp_path, capsys, report):
    rep = tmp_path / "rep"
    (rep / f"{report}.csv").mkdir(parents=True)
    assert main(["eval", "--data", dataset, "--ckpt", trained, "--report", str(rep)]) == 2
    assert capsys.readouterr().err.startswith("data error")
    assert os.listdir(rep) == [f"{report}.csv"]


def test_eval_data_that_is_a_report_file_exits_1_before_reading(
        trained, dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    os.mkdir("rep")
    shutil.copy(dataset, "rep/summary.csv")
    data = (tmp_path / "rep" / "summary.csv").read_bytes()
    monkeypatch.setattr(cli, "load_dataset", lambda path: pytest.fail("data was read"))
    assert main(["eval", "--data", "./rep/../rep/summary.csv", "--ckpt", trained,
                 "--report", "rep"]) == 1
    assert capsys.readouterr().err.startswith("usage error")
    assert os.listdir("rep") == ["summary.csv"]
    assert (tmp_path / "rep" / "summary.csv").read_bytes() == data


def test_eval_unet_checkpoint_writes_3d_curves_over_the_fixed_sweep(
        unet_ckpt, dataset, tmp_path):
    report = str(tmp_path / "report")
    # 2D refinement metrics only exist for the full cascade, so eval neither
    # writes nor checks curve_2d.csv
    os.makedirs(os.path.join(report, "curve_2d.csv"))
    assert main(["eval", "--data", dataset, "--ckpt", unet_ckpt, "--report", report]) == 0
    assert not os.listdir(os.path.join(report, "curve_2d.csv"))
    for name in ("curve_3d", "curve_3d_hand", "curve_3d_object"):
        curve = read_curve(os.path.join(report, name + ".csv"))
        np.testing.assert_array_equal(curve.thresholds, np.linspace(0.0, 50.0, 51))


def test_eval_missing_checkpoint_exits_2(dataset, tmp_path):
    rc = main(["eval", "--data", dataset, "--ckpt", str(tmp_path / "ghost"),
               "--report", str(tmp_path / "r")])
    assert rc == 2
    (tmp_path / "ghost.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "ghost.bin").write_bytes(b"")
    rc = main(["eval", "--data", dataset, "--ckpt", str(tmp_path / "ghost"),
               "--report", str(tmp_path / "r")])
    assert rc == 2


@pytest.mark.parametrize("edit", ["renamed", "transposed", "constant changed"])
def test_eval_checkpoint_that_does_not_fit_its_config_exits_2(
        unet_ckpt, dataset, tmp_path, capsys, edit):
    with open(unet_ckpt + ".json") as fh:
        manifest = json.load(fh)
    params = manifest["params"]
    if edit == "renamed":
        params["final.X"] = params.pop("final.W")
    elif edit == "transposed":
        assert params["final.W"]["shape"] == [4, 3]
        params["final.W"]["shape"] = [3, 4]
    else:   # an earlier release's key, at a value other than its one constant
        manifest["config"]["unet"]["input_scale"] = 100.0
    base = str(tmp_path / "mismatch")
    with open(base + ".json", "w") as fh:
        json.dump(manifest, fh)
    shutil.copyfile(unet_ckpt + ".bin", base + ".bin")
    report = str(tmp_path / "report")
    assert main(["eval", "--data", dataset, "--ckpt", base, "--report", report]) == 2
    assert "data error" in capsys.readouterr().err
    assert not os.path.exists(report)


# ---- ablate ------------------------------------------------------------------


def test_ablate_writes_tables_deterministically(dataset, tmp_path):
    args = ["ablate", "--suite", "pooling", "--data", dataset,
            "--seeds", "0", "--epochs", "1", "--batch-size", "16",
            "--widths", "4,8,8,16"]
    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(args + ["--out-dir", d1]) == 0
    assert main(args + ["--out-dir", d2]) == 0

    header, rows = read_csv(os.path.join(d1, "pooling_runs.csv"))
    assert [r[header.index("variant")] for r in rows] == \
        ["trainable", "gpool", "fixed"]
    _, summary_rows = read_csv(os.path.join(d1, "pooling_summary.csv"))
    assert len(summary_rows) == 3
    for name in ("pooling_runs.csv", "pooling_summary.csv"):
        assert filecmp.cmp(os.path.join(d1, name), os.path.join(d2, name),
                           shallow=False)


def test_every_derived_csv_is_lf_terminated(dataset, tmp_path):
    ck = str(tmp_path / "ck")
    assert main(["train", "--data", dataset, "--out-ckpt", ck, "--stage-epochs", "1,1,1",
                 "--batch-size", "16", "--seed", "0"]) == 0
    assert main(["eval", "--data", dataset, "--ckpt", ck,
                 "--report", str(tmp_path / "rep")]) == 0
    assert main(["export-adjacency", "--ckpt", ck, "--out-dir", str(tmp_path / "adj")]) == 0
    assert main(["ablate", "--suite", "pooling", "--data", dataset, "--seeds", "0",
                 "--epochs", "1", "--batch-size", "16", "--widths", "4,8,8,16",
                 "--out-dir", str(tmp_path / "abl")]) == 0
    written = sorted(tmp_path.rglob("*.csv"))
    # the log, 6 eval reports, 11 adjacency kernels and 2 ablation tables
    assert len(written) == 20
    for path in written:
        data = path.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, path.name


def test_ablate_out_dir_that_is_a_file_exits_2(dataset, tmp_path, capsys):
    out = tmp_path / "r"
    out.write_text("")
    assert main(["ablate", "--suite", "pooling", "--data", dataset, "--out-dir", str(out),
                 "--seeds", "0", "--epochs", "1", "--widths", "4,8,8,16"]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("table", ["pooling_runs.csv", "pooling_summary.csv"])
def test_ablate_table_that_is_a_directory_exits_2_before_any_cell(
        dataset, tmp_path, monkeypatch, capsys, table):
    cells = []
    monkeypatch.setattr(ablation, "run_one", lambda *args: cells.append(args))
    out = tmp_path / "r"
    (out / table).mkdir(parents=True)
    assert main(["ablate", "--suite", "pooling", "--data", dataset, "--out-dir", str(out),
                 "--seeds", "0", "--epochs", "1", "--widths", "4,8,8,16"]) == 2
    assert capsys.readouterr().err.startswith("data error")
    assert cells == []
    assert os.listdir(out) == [table]


@pytest.mark.parametrize("table", ["pooling_runs.csv", "pooling_summary.csv"])
def test_ablate_data_that_is_an_output_table_exits_1_before_any_cell(
        dataset, tmp_path, monkeypatch, capsys, table):
    trained = []
    monkeypatch.setattr(ablation, "train_unet_stage2",
                        lambda *args, **kwargs: trained.append(args))
    out = tmp_path / "r"
    out.mkdir()
    shutil.copy(dataset, out / table)
    data = (out / table).read_bytes()
    assert main(["ablate", "--suite", "pooling", "--data", str(out / table),
                 "--out-dir", str(out), "--seeds", "0", "--epochs", "1"]) == 1
    assert capsys.readouterr().err.startswith("usage error")
    assert trained == []
    assert os.listdir(out) == [table]
    assert (out / table).read_bytes() == data


def test_ablate_rejects_bad_arguments(dataset, tmp_path):
    out = str(tmp_path / "r")
    common = ["ablate", "--data", dataset, "--out-dir", out]
    assert main(common + ["--suite", "nonsense"]) == 1
    assert main(common + ["--suite", "pooling", "--seeds", "x"]) == 1
    assert main(common + ["--suite", "pooling", "--jobs", "0"]) == 1
    assert main(common + ["--suite", "pooling", "--batch-size", "0"]) == 1
    assert main(common + ["--suite", "pooling", "--batch-size", "-4"]) == 1
    assert main(common + ["--suite", "pooling", "--widths", "4,x,8,16"]) == 1
    assert not os.path.exists(out)


def test_ablate_rejects_wrong_width_count_before_any_cell(dataset, tmp_path, monkeypatch):
    trained = []
    monkeypatch.setattr(ablation, "train_unet_stage2",
                        lambda *args, **kwargs: trained.append(args))
    out = str(tmp_path / "r")
    assert main(["ablate", "--suite", "architecture", "--data", dataset, "--out-dir", out,
                 "--seeds", "0", "--epochs", "1", "--widths", "4,8,8"]) == 1
    assert not os.path.exists(out)
    assert trained == []


@pytest.mark.parametrize("command", [
    ["gen", "--n", "5", "--seed", "-1", "--out", "{tmp}/x.jsonl"],
    ["train", "--data", "{data}", "--out-ckpt", "{tmp}/ck", "--seed", "-1"],
    ["ablate", "--suite", "pooling", "--data", "{data}", "--out-dir", "{tmp}/r",
     "--seeds", "0,-1"],
    ["gradcheck", "--seed", "-1"],
], ids=["gen", "train", "ablate", "gradcheck"])
def test_negative_seed_is_a_usage_error(dataset, tmp_path, capsys, command):
    argv = [a.format(tmp=tmp_path, data=dataset) for a in command]
    assert main(argv) == 1
    assert "non-negative" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


# ---- gradcheck ---------------------------------------------------------------


def test_gradcheck_layers_passes(capsys):
    assert main(["gradcheck", "--target", "layers", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("pass") >= 6
    assert "overall max relative error" in out


def _error_classes(cls=GraphLiftError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


# The documented exit code and stderr prefix of each error; any other
# graphlift error is a usage error.
EXIT_CODES = {"DatasetFormatError": (2, "data error"), "CheckpointFormatError": (2, "data error"),
              "DegenerateGeometryError": (2, "data error"),
              "NumericError": (3, "numeric error"), "TrainingDiverged": (3, "numeric error")}


@pytest.mark.parametrize("error", list(_error_classes()), ids=lambda c: c.__name__)
def test_every_graphlift_error_exits_with_its_documented_code(monkeypatch, capsys, error):
    def fail(args):
        raise error("what went wrong")
    monkeypatch.setattr(cli, "cmd_gradcheck", fail)
    code, prefix = EXIT_CODES.get(error.__name__, (1, "usage error"))
    assert main(["gradcheck"]) == code
    assert capsys.readouterr().err == f"{prefix}: what went wrong\n"


# ---- export-adjacency ---------------------------------------------------------


def test_export_adjacency_round_trips(unet_ckpt, tmp_path):
    out = str(tmp_path / "adj")
    assert main(["export-adjacency", "--ckpt", unet_ckpt,
                 "--out-dir", out]) == 0
    arrays, _ = load_checkpoint(unet_ckpt)
    kernels = {k: v for k, v in arrays.items() if k.endswith(".A")}
    files = sorted(os.listdir(out))
    assert len(files) == len(kernels)
    for name, expected in kernels.items():
        path = os.path.join(out, name.replace(".", "_") + ".csv")
        with open(path) as fh:
            size = int(fh.readline())
            got = np.array([[float(v) for v in line.split(",")] for line in fh])
        assert size == expected.shape[0]
        np.testing.assert_array_equal(got, expected)
    # the outermost layers act on the full 29-node graph
    for full in ("enc0_A.csv", "final_A.csv"):
        with open(os.path.join(out, full)) as fh:
            assert fh.readline().strip() == "29"


@pytest.mark.parametrize("shape", [(3,), (), (2, 3)], ids=["vector", "scalar", "non-square"])
def test_export_adjacency_rejects_a_kernel_of_the_wrong_shape(unet_ckpt, tmp_path, capsys, shape):
    model = load_model(unet_ckpt)
    params = dict(model.parameters())
    params["enc0.A"] = np.ones(shape)
    base = str(tmp_path / "bad")
    save_checkpoint(base, params, model.config_dict())
    out = str(tmp_path / "adj")
    assert main(["export-adjacency", "--ckpt", base, "--out-dir", out]) == 2
    assert "enc0.A" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_export_adjacency_file_that_is_a_directory_exits_2_and_writes_no_csv(
        trained, tmp_path, capsys):
    out = tmp_path / "adj"
    (out / "unet_final_A.csv").mkdir(parents=True)
    assert main(["export-adjacency", "--ckpt", trained, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("data error")
    assert os.listdir(out) == ["unet_final_A.csv"]


def test_export_adjacency_requires_adaptive_layers(tmp_path):
    base = str(tmp_path / "fc")
    save_model(base, FcBaselineModel(hidden=(8, 8), seed=0))
    assert main(["export-adjacency", "--ckpt", base,
                 "--out-dir", str(tmp_path / "adj")]) == 1

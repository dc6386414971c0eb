"""End-to-end command-line tests: every subcommand is exercised through
main() with outputs going to pytest temp dirs."""

import contextlib
import ctypes
import json
import os

import numpy as np
import pytest

from stereomatch import cli
from stereomatch.cli import main
from stereomatch.fileio import read_pfm, save_sample, write_pfm
from stereomatch.model import StereoModel
from stereomatch.runconfig import load_run_config
from stereomatch.synthetic import synth_stereo

TINY_CFG = """
# small model, small images: enough to exercise every code path
seed = 3
backbone.stem_channels = 4
backbone.channels = 6,8,10,12
matching.max_disparity = 32
matching.corr_channels = 4
train.steps = 3
train.height = 32
train.width = 64
train.train_samples = 2
train.eval_samples = 1
train.mode = blobs
"""


def write_cfg(tmp_path, text=TINY_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def make_bundle(tmp_path, name, seed, height=32, width=64, mode="slanted_planes"):
    sample = synth_stereo(seed, height=height, width=width, max_disparity=32,
                          mode=mode)
    directory = tmp_path / name
    directory.mkdir()
    save_sample(str(directory), sample)
    return directory


def test_infer_writes_disparity_and_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    bundle = make_bundle(tmp_path, "s0", seed=11)
    out = tmp_path / "out"
    rc = main(["infer", str(bundle / "left.ppm"), str(bundle / "right.ppm"),
               "--config", cfg, "--out", str(out), "--save-d0"])
    assert rc == 0

    disp, _ = read_pfm((out / "disp.pfm").read_bytes())
    assert disp.shape == (32, 64)
    d0, _ = read_pfm((out / "d0.pfm").read_bytes())
    assert d0.shape == (8, 16)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "infer"
    assert manifest["seed"] == 3
    assert manifest["results"]["outputs"] == ["d0.pfm", "disp.pfm"]
    assert "matching.max_disparity=32" in manifest["config"]
    assert manifest["timings_s"]["forward"] > 0
    assert not (out / "manifest.json.tmp").exists()


MANIFEST_KEYS = {"command", "environment", "seed", "out_dir", "config", "timings_s", "results"}
REPORT_KEYS = {"epe_px", "d1_percent", "gt1_percent", "gt2_percent", "gt3_percent",
               "valid_pixel_count"}


@pytest.mark.parametrize("case,status,timings,results", [
    ("infer", 0, {"build", "forward"}, {"outputs"}),
    ("infer-gt", 0, {"build", "forward"}, {"outputs", "metrics"}),
    ("train", 0, {"setup", "train", "eval"},
     {"steps", "rejected_steps", "first_loss", "final_loss", "metrics", "outputs"}),
    ("eval", 0, {"eval"}, {"per_sample", "aggregate", "outputs"}),
    ("eval-pred", 0, set(), {"aggregate", "outputs"}),
    ("gradcheck", 0, {"suite"}, {"checks", "worst", "passed", "outputs"}),
    ("gradcheck-fail", 1, {"suite"}, {"checks", "worst", "passed", "outputs"}),
    ("ablate", 0, {"sweep"}, {"axis", "rows", "detach_checks", "outputs"}),
])
def test_every_manifest_holds_its_pinned_keys(tmp_path, monkeypatch, case, status,
                                              timings, results):
    """What each command records, key by key; eval and gradcheck write a
    manifest only with --out, and a failing gradcheck still writes one.  A
    fresh output directory holds exactly the files that `outputs` lists and
    the manifest."""
    error = 1.0 if case == "gradcheck-fail" else 0.0
    monkeypatch.setattr(cli, "gradcheck_suite", lambda: [("probe", lambda: error)])
    cfg = write_cfg(tmp_path, text=TINY_CFG.replace("train.steps = 3", "train.steps = 1"))
    data = tmp_path / "data"
    data.mkdir()
    bundle = make_bundle(data, "s000", seed=23)
    pair = [str(bundle / "left.ppm"), str(bundle / "right.ppm")]
    gt = ["--gt", str(bundle / "disp.pfm"), "--mask", str(bundle / "mask.pgm")]
    argv = {
        "infer": ["infer", *pair],
        "infer-gt": ["infer", *pair, *gt],
        "train": ["train"],
        "eval": ["eval", str(data)],
        "eval-pred": ["eval", "--pred", str(bundle / "disp.pfm"), *gt],
        "gradcheck": ["gradcheck"],
        "gradcheck-fail": ["gradcheck"],
        "ablate": ["ablate", "--axis", "detach"],
    }[case] + ["--config", cfg]

    if argv[0] in ("eval", "gradcheck"):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(argv) == status
        assert list(cwd.iterdir()) == []
        assert list(tmp_path.rglob("manifest.json")) == []

    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == status
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == argv[0]
    assert manifest["out_dir"] == str(out)
    assert set(manifest["timings_s"]) == timings
    assert set(manifest["results"]) == results
    outputs = {"infer": ["disp.pfm"], "infer-gt": ["disp.pfm"],
               "train": ["loss_log.txt", "metrics.txt", "model.ckpt"],
               "eval": ["metrics.txt"], "ablate": ["table.txt"]}.get(case, [])
    assert manifest["results"]["outputs"] == outputs
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["manifest.json"])

    got = manifest["results"]
    reports = {
        "infer-gt": lambda: [got["metrics"]],
        "train": lambda: [got["metrics"]],
        "eval": lambda: [got["per_sample"]["s000"], got["aggregate"]],
        "eval-pred": lambda: [got["aggregate"]],
        "ablate": lambda: [row["metrics"] for row in got["rows"]],
    }.get(case, list)()
    assert all(set(report) == REPORT_KEYS for report in reports)
    if case == "ablate":
        assert [set(row) for row in got["rows"]] == [
            {"name", "overrides", "config", "param_count", "final_loss", "metrics"}] * 2
    if case.startswith("gradcheck"):
        assert got["passed"] is (status == 0)


def test_infer_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    bundle = make_bundle(tmp_path, "s0", seed=12)
    args = ["infer", str(bundle / "left.ppm"), str(bundle / "right.ppm"),
            "--config", cfg, "--save-d0"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("disp.pfm", "d0.pfm"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second


def test_rerun_removes_the_earlier_runs_other_outputs(tmp_path, capsys):
    """A rerun into an earlier run's directory removes the files the earlier
    manifest lists and the new run does not write, so the directory holds
    one run's files.  A listed name that is not a plain file name is not
    followed, and other files in the directory stay."""
    cfg = write_cfg(tmp_path)
    bundle = make_bundle(tmp_path, "s0", seed=12)
    args = ["infer", str(bundle / "left.ppm"), str(bundle / "right.ppm"), "--config", cfg]
    out = tmp_path / "out"
    assert main(args + ["--out", str(out), "--save-d0"]) == 0
    (out / "notes.txt").write_text("kept")
    outside = tmp_path / "outside.pfm"
    outside.write_text("kept")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["results"]["outputs"] += ["../outside.pfm", str(outside)]
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(args + ["--out", str(out), "--seed", "5"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["disp.pfm", "manifest.json", "notes.txt"]
    assert outside.read_text() == "kept"


@pytest.mark.parametrize("text", ["{not json", '{"results": {"outputs": "disp.pfm"}}', "[]"])
def test_unreadable_earlier_manifest_exits_2_before_the_run(tmp_path, capsys, text):
    cfg = write_cfg(tmp_path)
    bundle = make_bundle(tmp_path, "s0", seed=12)
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    assert main(["infer", str(bundle / "left.ppm"), str(bundle / "right.ppm"),
                 "--config", cfg, "--out", str(out)]) == 2
    assert "earlier manifest" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_rerun_from_manifest_config_reproduces_outputs(tmp_path):
    # the manifest embeds the fully resolved configuration; feeding it back
    # in as a config file must reproduce the run bit for bit
    cfg = write_cfg(tmp_path)
    bundle = make_bundle(tmp_path, "s0", seed=13)
    pair = [str(bundle / "left.ppm"), str(bundle / "right.ppm")]
    assert main(["infer"] + pair + ["--config", cfg, "--out", str(tmp_path / "a")]) == 0

    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    replay = write_cfg(tmp_path, text=manifest["config"], name="replay.cfg")
    assert main(["infer"] + pair + ["--config", replay, "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "disp.pfm").read_bytes()
            == (tmp_path / "b" / "disp.pfm").read_bytes())


def test_infer_with_gt_reports_metrics(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    bundle = make_bundle(tmp_path, "s0", seed=14)
    out = tmp_path / "out"
    rc = main(["infer", str(bundle / "left.ppm"), str(bundle / "right.ppm"),
               "--config", cfg, "--out", str(out),
               "--gt", str(bundle / "disp.pfm"), "--mask", str(bundle / "mask.pgm")])
    assert rc == 0
    assert "epe=" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["metrics"]["epe_px"] > 0


def test_infer_missing_file_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["infer", str(tmp_path / "nope.ppm"), str(tmp_path / "nope.ppm"),
               "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_infer_size_mismatch_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    small = make_bundle(tmp_path, "small", seed=15)
    large = make_bundle(tmp_path, "large", seed=15, height=64, width=128)
    rc = main(["infer", str(small / "left.ppm"), str(large / "right.ppm"),
               "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "shapes differ" in capsys.readouterr().err


@pytest.mark.parametrize("target,blob,message", [
    pytest.param("checkpoint", b"STCKPT1\nxyz\n", "entry count", id="ckpt-count-not-int"),
    pytest.param("checkpoint", b"STCKPT1\n1\n\n", "malformed entry header",
                 id="ckpt-empty-header"),
    pytest.param("checkpoint", b"STCKPT1\n1\nstem.conv.weight 4 x 3 3\n",
                 "malformed entry header", id="ckpt-dims-not-int"),
    pytest.param("checkpoint", b"STCKPT1\n1\nstem\xff 4\n", "malformed entry header",
                 id="ckpt-non-ascii-header"),
    pytest.param("left", b"P6 -1 4 255\n", "non-positive", id="ppm-negative-width"),
    pytest.param("left", b"P6 -2 -2 255\n" + bytes(12), "non-positive", id="ppm-negative-dims"),
    pytest.param("left", b"P6\n1_0 +1\n2_55\n" + bytes(30), "non-decimal netpbm width",
                 id="ppm-underscore-and-sign"),
    pytest.param("gt", b"Pf\n+1 1_0\n-1.0\n" + bytes(40), "non-decimal PFM width",
                 id="pfm-sign-and-underscore"),
    pytest.param("gt", b"Pf\n64 32\n-1_0\n" + bytes(4 * 64 * 32),
                 "non-decimal or non-finite PFM scale", id="pfm-scale-underscore"),
])
def test_infer_malformed_input_exits_2(tmp_path, capsys, target, blob, message):
    cfg = write_cfg(tmp_path)
    bundle = make_bundle(tmp_path, "s0", seed=18)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(blob)
    left = str(bad) if target == "left" else str(bundle / "left.ppm")
    argv = ["infer", left, str(bundle / "right.ppm"), "--config", cfg,
            "--out", str(tmp_path / "out")]
    if target in ("checkpoint", "gt"):
        argv += [f"--{target}", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("case", ["checkpoint-dir", "config-dir", "left-dir", "gt-dir",
                                  "eval-dataset-file", "out-is-file", "config-not-utf8"])
def test_path_of_the_wrong_kind_exits_2(tmp_path, capsys, case):
    cfg = write_cfg(tmp_path)
    bundle = make_bundle(tmp_path, "s0", seed=19)
    left, right = str(bundle / "left.ppm"), str(bundle / "right.ppm")
    a_dir, a_file = str(bundle), str(bundle / "disp.pfm")
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"seed = 3\n# caf\xe9\n")
    out = str(tmp_path / "out")
    argv, named = {
        "checkpoint-dir": (["infer", left, right, "--checkpoint", a_dir], a_dir),
        "config-dir": (["infer", left, right, "--config", a_dir], a_dir),
        "left-dir": (["infer", a_dir, right], a_dir),
        "gt-dir": (["infer", left, right, "--gt", a_dir], a_dir),
        "eval-dataset-file": (["eval", a_file], a_file),
        "out-is-file": (["infer", left, right, "--out", a_file], a_file),
        "config-not-utf8": (["infer", left, right, "--config", str(latin1)], str(latin1)),
    }[case]
    if "--config" not in argv:
        argv += ["--config", cfg]
    if "--out" not in argv:
        argv += ["--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("under", ["", "sub"])
def test_out_under_a_file_exits_2_before_training(tmp_path, capsys, monkeypatch, under):
    """An --out that is a file, or lies under one, exits 2 with one error
    line before any training step, and creates nothing."""
    cfg = write_cfg(tmp_path)
    a_file = tmp_path / "a_file"
    a_file.write_bytes(b"kept")

    def no_fit(*args, **kwargs):
        raise AssertionError("fit ran although --out cannot be a directory")

    monkeypatch.setattr(cli, "fit", no_fit)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["train", "--config", cfg, "--out", str(a_file / under)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(a_file) in err
    assert a_file.read_bytes() == b"kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, text="bogus_knob = 1\n")
    rc = main(["gradcheck", "--config", cfg])
    assert rc == 2
    assert "bogus_knob" in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path)
    bundle = make_bundle(tmp_path, "s0", seed=16)
    pair = [str(bundle / "left.ppm"), str(bundle / "right.ppm")]
    assert main(["infer"] + pair + ["--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["infer"] + pair + ["--config", cfg, "--seed", "99",
                                    "--out", str(tmp_path / "b")]) == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert "seed=99" in manifest["config"]
    # different seed, different weights, different prediction
    assert ((tmp_path / "a" / "disp.pfm").read_bytes()
            != (tmp_path / "b" / "disp.pfm").read_bytes())


def test_train_writes_checkpoint_log_and_metrics(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    rc = main(["train", "--config", cfg, "--out", str(out)])
    assert rc == 0

    log = (out / "loss_log.txt").read_text().splitlines()
    assert len(log) == 3
    assert log[0].startswith("step=1 lr=0.001 loss=")
    assert (out / "model.ckpt").stat().st_size > 0
    assert "epe=" in (out / "metrics.txt").read_text()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["results"]["steps"] == 3
    assert manifest["results"]["rejected_steps"] == 0
    assert manifest["results"]["final_loss"] > 0
    assert "trained 3 steps" in capsys.readouterr().out


def test_failed_text_write_keeps_the_earlier_file(tmp_path, capsys, monkeypatch):
    """A rerun whose second output fails halfway through its write exits 2,
    leaves that file of the earlier run byte for byte and no temporary file
    behind, and leaves no manifest, so the directory does not claim the mix
    of two runs' files."""
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    before = (out / "metrics.txt").read_bytes()

    class HalfWriter:
        def __init__(self, f):
            self.f = f

        def write(self, blob):
            self.f.write(blob[: len(blob) // 2])
            raise OSError("disk full")

    real, names = cli.atomic_write, []

    @contextlib.contextmanager
    def failing_atomic_write(path):
        names.append(os.path.basename(path))
        with real(path) as f:
            yield HalfWriter(f) if len(names) == 2 else f

    monkeypatch.setattr(cli, "atomic_write", failing_atomic_write)
    # another seed logs other losses and metrics, so an overwrite would show
    assert main(["train", "--config", cfg, "--seed", "4", "--out", str(out)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert names == ["loss_log.txt", "metrics.txt"]
    assert (out / "metrics.txt").read_bytes() == before
    assert not (out / "manifest.json").exists()
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("case", ["gt-malformed", "gt-wrong-size", "mask-malformed"])
def test_bad_ground_truth_writes_nothing(tmp_path, capsys, monkeypatch, case):
    """A bad --gt or --mask exits 2 before the model is built: a fresh
    output directory is not made, and an earlier run's directory keeps every
    byte."""
    cfg = write_cfg(tmp_path)
    bundle = make_bundle(tmp_path, "s0", seed=18)
    pair = [str(bundle / "left.ppm"), str(bundle / "right.ppm")]
    earlier = tmp_path / "earlier"
    assert main(["infer", *pair, "--config", cfg, "--out", str(earlier)]) == 0
    before = {p.name: p.read_bytes() for p in earlier.iterdir()}

    bad = tmp_path / "bad.bin"
    bad.write_bytes({
        "gt-malformed": b"Pf\n64 32\n-1_0\n" + bytes(4 * 64 * 32),
        "gt-wrong-size": write_pfm(np.ones((16, 32), np.float32)),
        "mask-malformed": b"P5\n64 32\n2_55\n" + bytes(64 * 32),
    }[case])
    gt = ["--gt", str(bad)] if case.startswith("gt") else [
        "--gt", str(bundle / "disp.pfm"), "--mask", str(bad)]
    build, built = cli._build_model, []
    monkeypatch.setattr(cli, "_build_model", lambda *a: built.append(a) or build(*a))
    for out in (tmp_path / "fresh", earlier):
        assert main(["infer", *pair, *gt, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "fresh").exists()
    assert {p.name: p.read_bytes() for p in earlier.iterdir()} == before
    assert built == []


def test_train_then_infer_from_checkpoint(tmp_path):
    cfg = write_cfg(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    bundle = make_bundle(tmp_path, "s0", seed=17, mode="blobs")
    rc = main(["infer", str(bundle / "left.ppm"), str(bundle / "right.ppm"),
               "--config", cfg, "--checkpoint", str(run / "model.ckpt"),
               "--out", str(tmp_path / "out")])
    assert rc == 0


def test_eval_pred_equals_gt_is_all_zero(tmp_path, capsys):
    gt = np.random.default_rng(0).uniform(1.0, 20.0, (32, 64)).astype(np.float32)
    path = tmp_path / "gt.pfm"
    path.write_bytes(write_pfm(gt))
    rc = main(["eval", "--pred", str(path), "--gt", str(path)])
    assert rc == 0
    line = capsys.readouterr().out
    assert "epe=0.0000" in line
    assert "d1=0.0000" in line


def test_manifest_records_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    gt = np.random.default_rng(0).uniform(1.0, 20.0, (32, 64)).astype(np.float32)
    path = tmp_path / "gt.pfm"
    path.write_bytes(write_pfm(gt))
    out = tmp_path / "out"
    assert main(["eval", "--pred", str(path), "--gt", str(path), "--out", str(out)]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert env["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == f"{blas['name']} {blas['version']}"
    assert env["threads"]["OMP_NUM_THREADS"] == "1"
    assert all(k.endswith("_NUM_THREADS") for k in env["threads"])
    assert env["dtype"] == "float32"
    assert env["cpus"] == len(os.sched_getaffinity(0))
    if hasattr(ctypes.CDLL(None), "mallopt"):
        assert env["malloc"] == {"mmap_threshold": 32 << 20, "trim_threshold": 1 << 30}
    else:
        assert env["malloc"] is None


def test_eval_dataset_prints_per_sample_and_aggregate(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    data = tmp_path / "data"
    data.mkdir()
    make_bundle(data, "s000", seed=21)
    make_bundle(data, "s001", seed=22, mode="blobs")
    out = tmp_path / "out"
    rc = main(["eval", str(data), "--config", cfg, "--out", str(out)])
    assert rc == 0

    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("s000: epe=")
    assert lines[1].startswith("s001: epe=")
    assert lines[2].startswith("aggregate: epe=")

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["results"]["per_sample"]) == {"s000", "s001"}
    assert manifest["results"]["aggregate"]["valid_pixel_count"] > 0
    assert "aggregate:" in (out / "metrics.txt").read_text()


def test_eval_without_input_exits_2(tmp_path, capsys):
    assert main(["eval"]) == 2
    assert "dataset directory" in capsys.readouterr().err


def test_gradcheck_all_blocks_pass(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["gradcheck", "--out", str(out)])
    assert rc == 0

    stdout = capsys.readouterr().out
    for block in ("conv2d_x", "batch_norm_train", "backbone_stage",
                  "correlation_left", "attention_volume", "cgf_geometry",
                  "encoder_stage", "decoder_stage", "top2_regression",
                  "superpixel_upsample", "total_loss"):
        assert f"{block:<22} max_rel=" in stdout
    assert "FAIL" not in stdout

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["passed"] is True
    assert manifest["results"]["worst"] <= 1e-4
    assert len(manifest["results"]["checks"]) >= 40


def test_ablate_detach_writes_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, text=TINY_CFG.replace("train.steps = 3",
                                                    "train.steps = 2"))
    out = tmp_path / "out"
    rc = main(["ablate", "--axis", "detach", "--config", cfg, "--out", str(out)])
    assert rc == 0

    table = (out / "table.txt").read_text().splitlines()
    assert table[0].startswith("backprop_context")
    assert table[1].startswith("detach_context")
    assert "forward_bit_identical=True" in table[2]
    assert "zero_grads_match_context_only_params=True" in table[2]

    manifest = json.loads((out / "manifest.json").read_text())
    rows = manifest["results"]["rows"]
    assert [r["name"] for r in rows] == ["backprop_context", "detach_context"]
    assert [r["overrides"] for r in rows] == [{"cgf.detach_context": "false"},
                                              {"cgf.detach_context": "true"}]
    assert rows[0]["param_count"] == rows[1]["param_count"]
    assert manifest["results"]["detach_checks"]["forward_bit_identical"] is True
    # each row is the manifest's config plus its overrides, as `train` would run it
    for row in rows:
        rc = load_run_config(manifest["config"], row["overrides"])
        assert rc.model.cgf.detach_context == (row["name"] == "detach_context")
        assert StereoModel(rc.model).param_count() == row["param_count"]
        assert load_run_config(row["config"]) == rc
    # and its recorded run file reruns it as `train`, unedited
    row = rows[1]
    rerun = tmp_path / "rerun"
    assert main(["train", "--config", write_cfg(tmp_path, row["config"], "row.cfg"),
                 "--out", str(rerun)]) == 0
    results = json.loads((rerun / "manifest.json").read_text())["results"]
    assert results["final_loss"] == row["final_loss"]
    assert results["metrics"] == row["metrics"]


def test_ablate_honours_train_mode_and_batch_size(tmp_path, capsys, monkeypatch):
    """Every row and the detach check train on the configured synthetic mode,
    in batches of train.batch_size, with an optimizer built from the run's
    train parameters (so a non-default train.lr reaches every row)."""
    import stereomatch.ablation as ablation
    import stereomatch.training as training

    modes, batch_sizes, adam_params = [], [], []
    make_dataset, fit, adam = training.make_dataset, ablation.fit, ablation.Adam

    def recording_make_dataset(*args, **kwargs):
        samples = make_dataset(*args, **kwargs)
        modes.append(args[5])
        return samples

    def recording_fit(model, optim, dataset, steps, **kwargs):
        batch_sizes.extend(s.left.shape[0] for s in dataset)
        return fit(model, optim, dataset, steps, **kwargs)

    def recording_adam(model, train=None):
        adam_params.append(train)
        return adam(model, train)

    monkeypatch.setattr(training, "make_dataset", recording_make_dataset)
    monkeypatch.setattr(ablation, "make_dataset", recording_make_dataset)
    monkeypatch.setattr(ablation, "fit", recording_fit)
    monkeypatch.setattr(ablation, "Adam", recording_adam)
    cfg = write_cfg(tmp_path, text=TINY_CFG.replace("train.steps = 3", "train.steps = 1")
                    + "train.batch_size = 2\ntrain.lr = 0.0007\n")
    assert main(["ablate", "--axis", "detach", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    assert modes == ["blobs"] * 3  # the shared train and held-out split, then the detach check
    assert batch_sizes == [2, 2]
    assert len(adam_params) == 2
    assert all(p is not None and p.lr == 0.0007 for p in adam_params)


def test_ablate_zero_steps_reports_no_loss(tmp_path, capsys):
    cfg = write_cfg(tmp_path, text=TINY_CFG.replace("train.steps = 3", "train.steps = 0"))
    out = tmp_path / "out"
    assert main(["ablate", "--axis", "detach", "--config", cfg, "--out", str(out)]) == 0
    table = (out / "table.txt").read_text().splitlines()
    assert all("loss=none" in line for line in table[:2])
    rows = json.loads((out / "manifest.json").read_text())["results"]["rows"]
    assert [r["final_loss"] for r in rows] == [None, None]


def test_ablate_detach_without_cgf_exits_2_before_training(tmp_path, capsys, monkeypatch):
    """With no CGF block the two detach rows are one model, so the sweep
    exits 2 before it makes data or trains a step, and writes nothing."""
    import stereomatch.ablation as ablation

    def never(*args, **kwargs):
        raise AssertionError("the detach sweep ran without a CGF block")

    for name in ("split", "fit", "make_dataset"):
        monkeypatch.setattr(ablation, name, never)
    cfg = write_cfg(tmp_path, text=TINY_CFG + "cgf.positions =\n")
    out = tmp_path / "out"
    assert main(["ablate", "--axis", "detach", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: ablation axis 'detach' needs a CGF block, "
                   "but cgf.positions is empty\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["lr", "lr_decay_factor"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1e-3", "1e37"])
def test_train_rejects_non_finite_or_negative_lr(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path, text=TINY_CFG + f"train.{key} = {value}\n")
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert f"train.{key}" in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


def test_train_rejects_negative_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err and "Traceback" not in err
    assert not (out / "model.ckpt").exists()


def test_ablate_unknown_axis_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["ablate", "--axis", "nonsense"])
    assert err.value.code == 2  # argparse's own usage error

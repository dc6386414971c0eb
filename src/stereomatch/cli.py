"""Command-line interface: infer / train / eval / gradcheck / ablate.

Every command writes a manifest.json into its output directory (atomically,
via rename) recording the resolved configuration, seed, timings, and results,
so any run can be reproduced from the manifest alone.  Exit codes: 0 success,
1 internal failure (including gradient checks out of tolerance), 2 user or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import numpy as np

from . import autodiff as ad
from .ablation import AXES, ablate
from .autodiff import Tensor
from .errors import ConfigError, DataFormatError, ShapeError, StereoMatchError
from .fileio import atomic_write, load_sample, read_pfm, read_pgm, read_ppm, write_pfm
from .gradchecks import GRADCHECK_TOLERANCE, gradcheck_suite
from .metrics import evaluate, valid_mask_from_gt
from .model import DTYPE, StereoModel
from .runconfig import RunConfig, load_run_config, run_config_to_text
from .training import Adam, fit, heldout_metrics, load_checkpoint, save_checkpoint, split


# ---------------------------------------------------------------------------
# shared plumbing

def _resolve_config(args) -> RunConfig:
    text = None
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as f:
            try:
                text = f.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config file {args.config} is not UTF-8 text: {exc}") from exc
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
    return load_run_config(text, overrides)


def _write_manifest(out_dir: str, manifest: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "manifest.json")
    with atomic_write(path) as f:
        f.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _environment() -> dict:
    """The build and settings that byte-identical reruns depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "dtype": np.dtype(DTYPE).name,  # the model's compute dtype
        "cpus": len(os.sched_getaffinity(0)),  # speed only: a split conv gives the same bits
    }


def _manifest_base(command: str, rc: RunConfig, out_dir: str) -> dict:
    return {
        "command": command,
        "environment": _environment(),
        "seed": rc.model.seed,
        "out_dir": out_dir,
        "config": run_config_to_text(rc),
        "timings_s": {},
        "results": {},
    }


def _load_image(path: str) -> Tensor:
    with open(path, "rb") as f:
        img = read_ppm(f.read())
    return Tensor(img.transpose(2, 0, 1)[None] / 255.0)


def _build_model(rc: RunConfig, checkpoint: str | None) -> StereoModel:
    model = StereoModel(rc.model)
    if checkpoint:
        load_checkpoint(model, checkpoint)
    model.eval()
    return model


def _load_gt(gt_path: str, mask_path: str | None, max_disparity: int):
    """Ground-truth disparity (float64) and its validity mask: the PGM at
    mask_path (255 = valid) if given, else the standard rule on the PFM."""
    with open(gt_path, "rb") as f:
        gt, _ = read_pfm(f.read())
    gt = gt.astype(np.float64)
    if mask_path:
        with open(mask_path, "rb") as f:
            return gt, read_pgm(f.read()) == 255
    return gt, valid_mask_from_gt(gt, max_disparity)


# ---------------------------------------------------------------------------
# commands

def cmd_infer(args) -> int:
    rc = _resolve_config(args)
    started = time.perf_counter()
    model = _build_model(rc, args.checkpoint)
    left = _load_image(args.left)
    right = _load_image(args.right)
    build_s = time.perf_counter() - started

    started = time.perf_counter()
    with ad.no_grad():
        d0, d1 = model(left, right)
    forward_s = time.perf_counter() - started

    os.makedirs(args.out, exist_ok=True)
    outputs = {"disp.pfm": d1.values.data[0, 0]}
    if args.save_d0:
        outputs["d0.pfm"] = d0.values.data[0, 0]
    for name, field in outputs.items():
        with atomic_write(os.path.join(args.out, name)) as f:
            f.write(write_pfm(field.astype(np.float32)))

    manifest = _manifest_base("infer", rc, args.out)
    manifest["timings_s"] = {"build": build_s, "forward": forward_s}
    manifest["results"]["outputs"] = sorted(outputs)
    if args.gt:
        gt, mask = _load_gt(args.gt, args.mask, rc.model.matching.max_disparity)
        report = evaluate(d1.values.data[0, 0], gt, mask)
        manifest["results"]["metrics"] = report.as_dict()
        print(report.to_line())
    _write_manifest(args.out, manifest)
    print(f"wrote {', '.join(sorted(outputs))} to {args.out}")
    return 0


def cmd_train(args) -> int:
    rc = _resolve_config(args)
    t = rc.train
    started = time.perf_counter()
    model = StereoModel(rc.model)
    optim = Adam(model, t)
    train_batches, held = split(t, rc.model.matching.max_disparity)
    setup_s = time.perf_counter() - started

    log_lines = []

    def on_step(i, value):
        log_lines.append(f"step={i + 1} lr={optim.current_lr():g} loss={value:.6f}")

    started = time.perf_counter()
    report = fit(model, optim, train_batches, t.steps, on_step=on_step)
    train_s = time.perf_counter() - started

    started = time.perf_counter()
    metrics = heldout_metrics(model, held)
    eval_s = time.perf_counter() - started

    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(model, os.path.join(args.out, "model.ckpt"))
    with open(os.path.join(args.out, "loss_log.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(log_lines) + ("\n" if log_lines else ""))
    with open(os.path.join(args.out, "metrics.txt"), "w", encoding="utf-8") as f:
        f.write(metrics.to_line() + "\n")

    manifest = _manifest_base("train", rc, args.out)
    manifest["timings_s"] = {"setup": setup_s, "train": train_s, "eval": eval_s}
    manifest["results"] = {
        "steps": t.steps,
        "rejected_steps": report.rejected_steps,
        "first_loss": report.losses[0] if report.losses else None,
        "final_loss": report.losses[-1] if report.losses else None,
        "metrics": metrics.as_dict(),
        "outputs": ["loss_log.txt", "metrics.txt", "model.ckpt"],
    }
    _write_manifest(args.out, manifest)
    if report.losses:
        print(f"trained {t.steps} steps: loss {report.losses[0]:.4f} -> "
              f"{report.losses[-1]:.4f}")
    print(metrics.to_line())
    return 0


def _eval_files(args, rc: RunConfig, manifest: dict) -> int:
    with open(args.pred, "rb") as f:
        pred, _ = read_pfm(f.read())
    gt, mask = _load_gt(args.gt, args.mask, rc.model.matching.max_disparity)
    report = evaluate(pred.astype(np.float64), gt, mask)
    print(report.to_line())
    manifest["results"] = {"aggregate": report.as_dict()}
    if args.out:
        _write_manifest(args.out, manifest)
    return 0


def cmd_eval(args) -> int:
    rc = _resolve_config(args)
    manifest = _manifest_base("eval", rc, args.out or "")
    if args.pred:
        if not args.gt:
            raise ConfigError("--pred needs --gt to compare against")
        return _eval_files(args, rc, manifest)
    if not args.dataset:
        raise ConfigError("eval needs either a dataset directory or --pred/--gt")

    model = _build_model(rc, args.checkpoint)
    names = sorted(
        d for d in os.listdir(args.dataset)
        if os.path.isdir(os.path.join(args.dataset, d))
    )
    if not names:
        raise ConfigError(f"no sample directories under {args.dataset}")
    per_sample = {}
    pooled = {"pred": [], "gt": [], "mask": []}
    started = time.perf_counter()
    for name in names:
        sample = load_sample(os.path.join(args.dataset, name))
        with ad.no_grad():
            _, d1 = model(sample.left, sample.right)
        report = evaluate(d1.values, sample.gt_disparity, sample.valid_mask)
        per_sample[name] = report.as_dict()
        print(f"{name}: {report.to_line()}")
        pooled["pred"].append(d1.values.data.ravel())
        pooled["gt"].append(sample.gt_disparity.ravel())
        pooled["mask"].append(sample.valid_mask.ravel())
    aggregate = evaluate(np.concatenate(pooled["pred"]),
                         np.concatenate(pooled["gt"]),
                         np.concatenate(pooled["mask"]))
    print(f"aggregate: {aggregate.to_line()}")

    manifest["timings_s"] = {"eval": time.perf_counter() - started}
    manifest["results"] = {"per_sample": per_sample, "aggregate": aggregate.as_dict()}
    if args.out:
        _write_manifest(args.out, manifest)
        with open(os.path.join(args.out, "metrics.txt"), "w", encoding="utf-8") as f:
            for name in names:
                f.write(f"{name}: epe={per_sample[name]['epe_px']:.4f}\n")
            f.write(f"aggregate: {aggregate.to_line()}\n")
    return 0


def cmd_gradcheck(args) -> int:
    rc = _resolve_config(args)
    started = time.perf_counter()
    results = {}
    worst = 0.0
    for name, thunk in gradcheck_suite():
        err = float(thunk())
        results[name] = err
        worst = max(worst, err)
        status = "PASS" if err <= GRADCHECK_TOLERANCE else "FAIL"
        print(f"{name:<22} max_rel={err:.3e}  {status}")
    elapsed = time.perf_counter() - started
    passed = worst <= GRADCHECK_TOLERANCE
    print(f"{len(results)} checks, worst {worst:.3e}, "
          f"{'all within' if passed else 'EXCEEDS'} {GRADCHECK_TOLERANCE:g} "
          f"({elapsed:.1f}s)")
    if args.out:
        manifest = _manifest_base("gradcheck", rc, args.out)
        manifest["timings_s"] = {"suite": elapsed}
        manifest["results"] = {"checks": results, "worst": worst, "passed": passed}
        _write_manifest(args.out, manifest)
    return 0 if passed else 1


def cmd_ablate(args) -> int:
    rc = _resolve_config(args)
    started = time.perf_counter()
    report = ablate(
        rc.model, args.axis, rc.train,
        on_row=lambda row: print(f"finished row: {row.name}", file=sys.stderr),
    )
    elapsed = time.perf_counter() - started
    lines = report.lines()
    for line in lines:
        print(line)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "table.txt"), "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        manifest = _manifest_base("ablate", rc, args.out)
        manifest["timings_s"] = {"sweep": elapsed}
        manifest["results"] = {
            "axis": report.axis,
            "rows": [
                {
                    "name": r.name,
                    "param_count": r.param_count,
                    "final_loss": r.final_loss,
                    "metrics": r.metrics.as_dict(),
                }
                for r in report.rows
            ],
            "detach_checks": report.detach_checks,
        }
        _write_manifest(args.out, manifest)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stereomatch",
        description="Stereo disparity estimation: train, infer, evaluate, "
                    "gradient-check, and run ablation sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None):
        p.add_argument("--config", help="key=value run configuration file")
        p.add_argument("--seed", type=int, help="override the model seed")
        p.add_argument("--out", default=out_default, help="output directory")

    p = sub.add_parser("infer", help="predict disparity for one stereo pair")
    p.add_argument("left", help="left image (binary PPM)")
    p.add_argument("right", help="right image (binary PPM)")
    common(p, out_default="runs/infer")
    p.add_argument("--checkpoint", help="trained weights to load")
    p.add_argument("--gt", help="ground-truth PFM for metrics in the manifest")
    p.add_argument("--mask", help="validity mask PGM (255 = valid)")
    p.add_argument("--save-d0", action="store_true",
                   help="also write the coarse prediction as d0.pfm")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("train", help="train on synthetic stereograms")
    common(p, out_default="runs/train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on sample bundles")
    p.add_argument("dataset", nargs="?",
                   help="directory of sample bundle subdirectories")
    common(p)
    p.add_argument("--checkpoint", help="trained weights to load")
    p.add_argument("--pred", help="evaluate this disparity PFM instead of a model")
    p.add_argument("--gt", help="ground-truth PFM (file mode)")
    p.add_argument("--mask", help="validity mask PGM (255 = valid)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference audit of every block")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="architecture sweep along one axis")
    common(p, out_default="runs/ablate")
    p.add_argument("--axis", required=True, choices=AXES)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StereoMatchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())

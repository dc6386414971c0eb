"""Command-line interface: infer / train / eval / gradcheck / ablate.

`main` resolves the configuration, runs the command, and owns the output
directory (infer, train and ablate always have one; eval and gradcheck only
with --out); an --out that is a file or lies under one fails before the
command runs, and so does an earlier manifest.json there that cannot be
read.  A command fills in only the manifest's timings and results and
returns its exit status with its output files as {name: bytes}; it writes
nothing.  Once the command has returned, `main` removes any earlier
manifest.json and the files it lists under results.outputs (plain file names
only) that this run does not write, writes each file, then writes the
manifest last, listing the files under results.outputs and recording the
resolved configuration, seed, timings and results, so any run can be
reproduced from the manifest alone.  A command that stops on an error writes
nothing, and a directory whose manifest exists holds that run's outputs and
no other run's.  Every file is written atomically, via rename.  Exit codes:
0 success, 1 internal failure (including gradient checks out of tolerance),
2 user or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import traceback
from dataclasses import asdict

import numpy as np

from . import autodiff as ad
from .ablation import AXES, ablate
from .errors import ConfigError, DataFormatError, ShapeError, StereoMatchError
from .fileio import atomic_write, load_image, load_sample, read_pfm, read_pgm, write_pfm
from .gradchecks import GRADCHECK_TOLERANCE, gradcheck_suite
from .metrics import evaluate, valid_mask_from_gt
from .model import DTYPE, StereoModel
from .runconfig import RunConfig, load_run_config, run_config_to_text
from .training import Adam, checkpoint_bytes, fit, heldout_metrics, load_checkpoint, split


# ---------------------------------------------------------------------------
# shared plumbing

def _resolve_config(args) -> RunConfig:
    text = None
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            try:
                text = f.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config file {args.config} is not UTF-8 text: {exc}") from exc
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return load_run_config(text, overrides)


def _environment() -> dict:
    """The build and settings that byte-identical reruns depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "dtype": np.dtype(DTYPE).name,  # the model's compute dtype
        "cpus": len(os.sched_getaffinity(0)),  # speed only: a split conv gives the same bits
        "malloc": ad.MALLOC_POLICY,  # speed and residency only, None where not glibc
    }


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


def _earlier_outputs(out: str) -> list[str]:
    """The plain file names that an earlier manifest.json in `out` lists
    under results.outputs; none when there is no manifest."""
    path = os.path.join(out, "manifest.json")
    try:
        with open(path, "rb") as f:
            manifest = json.loads(f.read())
    except FileNotFoundError:
        return []
    except ValueError as exc:  # not UTF-8 or not JSON
        raise DataFormatError(f"earlier manifest {path} is unreadable: {exc}") from None
    results = manifest.get("results") if isinstance(manifest, dict) else None
    outputs = results.get("outputs", []) if isinstance(results, dict) else None
    if not isinstance(outputs, list) or not all(isinstance(n, str) for n in outputs):
        raise DataFormatError(f"earlier manifest {path} has no list of file names "
                              f"under results.outputs")
    return [n for n in outputs if n == os.path.basename(n) and n not in ("", ".", "..")]


# ---------------------------------------------------------------------------
# commands

def cmd_infer(args, rc: RunConfig, manifest: dict) -> tuple[int, dict]:
    started = time.perf_counter()
    left = load_image(args.left)
    right = load_image(args.right)
    if args.gt:  # a bad ground truth fails before the forward
        gt, mask = _load_gt(args.gt, args.mask, rc.model.matching.max_disparity)
        if gt.shape != left.shape[2:] or mask.shape != gt.shape:
            raise ShapeError(f"--gt {gt.shape} and its mask {mask.shape} "
                             f"must match the images' {left.shape[2:]}")
    model = _build_model(rc, args.checkpoint)
    build_s = time.perf_counter() - started

    started = time.perf_counter()
    with ad.no_grad():
        d0, d1 = model(left, right)
    manifest["timings_s"] = {"build": build_s, "forward": time.perf_counter() - started}

    files = {"disp.pfm": write_pfm(d1.values.data[0, 0])}
    if args.save_d0:
        files["d0.pfm"] = write_pfm(d0.values.data[0, 0])
    if args.gt:
        report = evaluate(d1.values.data[0, 0], gt, mask)
        manifest["results"]["metrics"] = asdict(report)
        print(report.to_line())
    return 0, files


def cmd_train(args, rc: RunConfig, manifest: dict) -> tuple[int, dict]:
    t = rc.train
    started = time.perf_counter()
    model = StereoModel(rc.model)
    optim = Adam(model, t)
    train_batches, held = split(t, rc.model.matching.max_disparity)
    setup_s = time.perf_counter() - started

    log_lines = []

    def on_step(i, value):
        log_lines.append(f"step={i + 1} lr={optim.current_lr():g} loss={value:.6f}\n")

    started = time.perf_counter()
    report = fit(model, optim, train_batches, t.steps, on_step=on_step)
    train_s = time.perf_counter() - started

    started = time.perf_counter()
    metrics = heldout_metrics(model, held)
    eval_s = time.perf_counter() - started

    manifest["timings_s"] = {"setup": setup_s, "train": train_s, "eval": eval_s}
    manifest["results"] = {
        "steps": t.steps,
        "rejected_steps": report.rejected_steps,
        "first_loss": report.losses[0] if report.losses else None,
        "final_loss": report.losses[-1] if report.losses else None,
        "metrics": asdict(metrics),
    }
    if report.losses:
        print(f"trained {t.steps} steps: loss {report.losses[0]:.4f} -> "
              f"{report.losses[-1]:.4f}")
    print(metrics.to_line())
    return 0, {"model.ckpt": checkpoint_bytes(model),
               "loss_log.txt": "".join(log_lines).encode(),
               "metrics.txt": f"{metrics.to_line()}\n".encode()}


def cmd_eval(args, rc: RunConfig, manifest: dict) -> tuple[int, dict]:
    if args.pred:
        if not args.gt:
            raise ConfigError("--pred needs --gt to compare against")
        with open(args.pred, "rb") as f:
            pred, _ = read_pfm(f.read())
        gt, mask = _load_gt(args.gt, args.mask, rc.model.matching.max_disparity)
        report = evaluate(pred.astype(np.float64), gt, mask)
        print(report.to_line())
        manifest["results"] = {"aggregate": asdict(report)}
        return 0, {}
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
        per_sample[name] = asdict(report)
        print(f"{name}: {report.to_line()}")
        pooled["pred"].append(d1.values.data.ravel())
        pooled["gt"].append(sample.gt_disparity.ravel())
        pooled["mask"].append(sample.valid_mask.ravel())
    aggregate = evaluate(np.concatenate(pooled["pred"]),
                         np.concatenate(pooled["gt"]),
                         np.concatenate(pooled["mask"]))
    print(f"aggregate: {aggregate.to_line()}")

    manifest["timings_s"] = {"eval": time.perf_counter() - started}
    manifest["results"] = {"per_sample": per_sample, "aggregate": asdict(aggregate)}
    lines = [f"{name}: epe={r['epe_px']:.4f}\n" for name, r in per_sample.items()]
    lines.append(f"aggregate: {aggregate.to_line()}\n")
    return 0, {"metrics.txt": "".join(lines).encode()}


def cmd_gradcheck(args, rc: RunConfig, manifest: dict) -> tuple[int, dict]:
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
    manifest["timings_s"] = {"suite": elapsed}
    manifest["results"] = {"checks": results, "worst": worst, "passed": passed}
    return (0 if passed else 1), {}


def cmd_ablate(args, rc: RunConfig, manifest: dict) -> tuple[int, dict]:
    started = time.perf_counter()
    report = ablate(
        rc.model, args.axis, rc.train,
        on_row=lambda row: print(f"finished row: {row.name}", file=sys.stderr),
    )
    elapsed = time.perf_counter() - started
    lines = report.lines()
    for line in lines:
        print(line)
    manifest["timings_s"] = {"sweep": elapsed}
    manifest["results"] = asdict(report)
    return 0, {"table.txt": ("\n".join(lines) + "\n").encode()}


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
        rc = _resolve_config(args)
        if args.out:  # an --out that cannot become a directory fails before the run
            nearest = os.path.abspath(args.out)
            while not os.path.lexists(nearest):
                nearest = os.path.dirname(nearest)
            if not os.path.isdir(nearest):
                raise ConfigError(f"--out {args.out}: {nearest} is not a directory")
            earlier = _earlier_outputs(args.out)
        manifest = {
            "command": args.command,
            "environment": _environment(),
            "seed": rc.model.seed,
            "out_dir": args.out or "",
            "config": run_config_to_text(rc),
            "timings_s": {},
            "results": {},
        }
        status, files = args.func(args, rc, manifest)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            # the manifest first: a directory with a manifest holds its run's files
            for name in ["manifest.json", *(n for n in earlier if n not in files)]:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(args.out, name))
            outputs = manifest["results"]["outputs"] = sorted(files)
            files["manifest.json"] = (json.dumps(manifest, indent=2, sort_keys=True)
                                      + "\n").encode()
            written = [*outputs, "manifest.json"]  # the manifest last
            for name in written:
                with atomic_write(os.path.join(args.out, name)) as f:
                    f.write(files[name])
            print(f"wrote {', '.join(written)} to {args.out}")
        return status
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

"""Measurement loop, statistics and metric assembly for one benchmark run.

An untraced run sets its workload up :data:`SETUP_REPEATS` times (reporting
the median), then runs ops in a closed loop with one client for the given
number of seconds and reports the end-to-end metrics.  A traced run installs
the :class:`~perfbench.tracer.Tracer`, sets up once, runs most of the window
traced, removes the wrappers, runs the rest untraced to measure the tracing
overhead, and reports the per-layer metrics.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from perfbench.tracer import (COMPONENTS, CONV_OPS, OP_BUCKETS, Tracer,
                              leftover_wrappers)
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
TRACED_SHARE = 0.75     # of a traced run's window; the rest runs untraced

END_TO_END = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s",
              "pairs_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for comp in COMPONENTS:
        units[f"{comp}.fwd_s"] = "s"
        units[f"{comp}.bwd_s"] = "s"
    for op in OP_BUCKETS:
        units[f"autodiff.{op}.calls"] = "count"
        units[f"autodiff.{op}.fwd_s"] = "s"
        units[f"autodiff.{op}.bwd_s"] = "s"
        if op in CONV_OPS:
            units[f"autodiff.{op}.gmacs"] = "GMAC"
            units[f"autodiff.{op}.gmacs_per_s"] = "GMAC/s"
    units.update({
        "autodiff.backward_s": "s", "autodiff.nodes": "count",
        "training.adam_s": "s", "training.params": "count",
        "fileio.decode_s": "s", "fileio.encode_s": "s",
        "metrics.evaluate_s": "s", "synthetic.generate_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# -- the closed loop -------------------------------------------------------------


class Window:
    """Op times and failures of one timed window."""

    def __init__(self):
        self.durations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0


def run_window(workload, seconds: float, tracer: Tracer | None = None) -> Window:
    """Run ops back to back until `seconds` have passed (and the workload's
    minimum is done, unless an op already failed).  Only ``op`` is timed, and
    only ``op`` feeds the tracer's per-op totals; ``before_op`` and ``check``
    run in the window but outside the op."""
    win = Window()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or (not workload.minimum_done() and win.failed == 0)):
        win.attempted += 1
        ok = False
        try:
            workload.before_op()
            if tracer is not None:
                tracer.in_op = True
            t0 = time.perf_counter()
            try:
                result = workload.op()
            finally:
                if tracer is not None:
                    tracer.in_op = False
            win.durations.append(time.perf_counter() - t0)
            ok = workload.check(result)
        except Exception:
            traceback.print_exc()
        win.failed += not ok
    win.elapsed = time.perf_counter() - start
    return win


def tail(durations: list[float]) -> tuple[float, int]:
    """Nearest-rank value of the highest whole percentile with at least ten
    samples above it, and that percentile.  Up to 20 samples no percentile
    above the median qualifies, so the median (p50) is reported."""
    n = len(durations)
    pct = math.floor(100 * (n - 10) / n) if n > 20 else 50
    if pct == 50:
        return statistics.median(durations), pct
    rank = math.ceil(pct / 100 * n)
    return sorted(durations)[rank - 1], pct


# -- environment -------------------------------------------------------------------


def environment(seed: int) -> dict:
    from stereomatch.autodiff import Tensor
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "dtype": str(Tensor(0.0).data.dtype),
        "seed": seed,
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- runs --------------------------------------------------------------------------


def untraced(name: str, seed: int, seconds: float, import_s: float = 0.0,
             setup_repeats: int = SETUP_REPEATS, **options) -> dict:
    setup = []
    for _ in range(setup_repeats):
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed, **options)
        workload.prepare()
        setup.append(time.perf_counter() - t0)
    win = run_window(workload, seconds)
    tail_s, tail_pct = tail(win.durations)
    metrics = {
        "setup_s": import_s + statistics.median(setup),
        "op_s.p50": statistics.median(win.durations),
        "op_s.tail": tail_s,
        "pairs_per_s": len(win.durations) / win.elapsed,   # one op is one pair
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "workload": workload.info(), "ops": len(win.durations),
        "tail_percentile": tail_pct, "window_s": win.elapsed,
        "error_rate": win.failed / win.attempted,
        "import_s": import_s, "setup_repeats_s": setup, "op_s": win.durations,
    }
    return _result(win, metrics, END_TO_END, info)


def traced(name: str, seed: int, seconds: float, spans_path=None, **options) -> dict:
    tracer = Tracer()
    with tracer:
        workload = WORKLOADS[name](seed, **options)
        workload.prepare()
        setup = tracer.reset()
        win = run_window(workload, seconds * TRACED_SHARE, tracer)
        totals = tracer.reset()
    leftover = leftover_wrappers()
    plain = run_window(workload, seconds * (1.0 - TRACED_SHARE))
    if spans_path is not None:
        tracer.write_spans(spans_path)

    n = len(win.durations)
    metrics = {}
    for comp in COMPONENTS:
        metrics[f"{comp}.fwd_s"] = totals.comp_fwd[comp] / n
        metrics[f"{comp}.bwd_s"] = totals.comp_bwd[comp] / n
    for op in OP_BUCKETS:
        metrics[f"autodiff.{op}.calls"] = totals.op_calls[op] / n
        metrics[f"autodiff.{op}.fwd_s"] = totals.op_fwd[op] / n
        metrics[f"autodiff.{op}.bwd_s"] = totals.op_bwd[op] / n
        if op in CONV_OPS:
            gmacs = totals.op_macs[op] / n / 1e9
            fwd = totals.op_fwd[op] / n
            metrics[f"autodiff.{op}.gmacs"] = gmacs
            metrics[f"autodiff.{op}.gmacs_per_s"] = gmacs / fwd if fwd else 0.0
    traced_p50 = statistics.median(win.durations)
    plain_p50 = statistics.median(plain.durations)
    metrics.update({
        "autodiff.backward_s": totals.layer["autodiff.backward"] / n,
        "autodiff.nodes": totals.nodes / n,
        "training.adam_s": totals.layer["training.adam"] / n,
        "training.params": workload.params,
        "fileio.decode_s": totals.layer["fileio.decode"] / n,
        "fileio.encode_s": totals.layer["fileio.encode"] / n,
        "metrics.evaluate_s": totals.layer["metrics.evaluate"] / n,
        "synthetic.generate_s": setup.layer["synthetic.generate"],
        "trace.overhead_s": traced_p50 - plain_p50,
    })
    component_s = sum(totals.comp_fwd.values()) + sum(totals.comp_bwd.values())
    info = {
        "workload": workload.info(), "traced_ops": n, "untraced_ops": len(plain.durations),
        "traced_op_s.p50": traced_p50, "untraced_op_s.p50": plain_p50,
        "traced_op_s.mean": sum(win.durations) / n,
        "component_self_s.mean": component_s / n,
        "unattributed_bwd_s.mean": totals.comp_bwd["none"] / n,
        "spans": len(tracer.spans), "leftover_wrappers": leftover,
    }
    merged = Window()
    merged.durations = win.durations + plain.durations
    merged.attempted = win.attempted + plain.attempted
    merged.failed = win.failed + plain.failed + len(leftover)
    return _result(merged, metrics, per_layer_units(), info)


def _result(win: Window, metrics: dict, units: dict, info: dict) -> dict:
    return {
        "correct": win.failed == 0,
        "attempted": win.attempted,
        "failed": win.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        "info": info,
    }


def summary_lines(result: dict) -> list[str]:
    """Human-readable lines: every end-to-end metric the workload defines."""
    info = result["info"]
    lines = [f"# {k} = {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    if "error_rate" in info:
        lines.append(f"# error_rate = {info['error_rate']:.6g} "
                     f"({result['failed']}/{result['attempted']} ops failed)")
        lines.append(f"# op_s.tail is p{info['tail_percentile']} of {info['ops']} ops")
        if info["workload"].get("heldout_epe_px") is not None:
            lines.append(f"# heldout_epe_px = {info['workload']['heldout_epe_px']!r} px")
    return lines

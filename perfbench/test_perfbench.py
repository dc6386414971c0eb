"""Self-tests of the benchmark harness and tracer (small sizes, a few seconds).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.tracer import Tracer, leftover_wrappers  # noqa: E402
from perfbench.workloads import InferWorkload, d1_in_range  # noqa: E402

SMALL = {
    "train_64x128": {"steps": 2, "train_pairs": 2, "heldout_pairs": 1},
    "infer_256x512": {"height": 64, "width": 128},
}


def _namespaces() -> dict:
    """Identity snapshot of every stereomatch module global and class attribute."""
    snap = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("stereomatch"):
            continue
        for attr, value in vars(module).items():
            snap[(mod_name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    snap[(mod_name, attr, cattr)] = id(cvalue)
    return snap


@pytest.fixture(scope="module")
def runs() -> dict:
    out = {}
    for name, options in SMALL.items():
        out[name, 0] = harness.untraced(name, 3, 0.05, setup_repeats=1, **options)
        out[name, 1] = harness.traced(name, 3, 0.05, **options)
    return out


def test_wrappers_installed_then_fully_removed():
    import stereomatch.autodiff  # noqa: F401  (so the snapshot covers the engine)
    before = _namespaces()
    with Tracer():
        assert leftover_wrappers()
    assert leftover_wrappers() == []
    assert _namespaces() == before


def test_traced_run_removes_its_wrappers(runs):
    for name in SMALL:
        assert runs[name, 1]["info"]["leftover_wrappers"] == []
    assert leftover_wrappers() == []


@pytest.mark.parametrize("name,key", [("train_64x128", "loss_digest"),
                                      ("train_64x128", "heldout_epe_px"),
                                      ("infer_256x512", "d1_digest")])
def test_traced_and_untraced_outputs_are_bit_identical(runs, name, key):
    assert runs[name, 0]["info"]["workload"][key] == runs[name, 1]["info"]["workload"][key]


def test_runs_are_correct(runs):
    for result in runs.values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_component_self_times_fit_in_op_time(runs):
    for name in SMALL:
        info = runs[name, 1]["info"]
        assert 0 < info["component_self_s.mean"] <= info["traced_op_s.mean"]


def test_counts_repeat_exactly(runs):
    again = harness.traced("train_64x128", 3, 0.05, **SMALL["train_64x128"])
    first = runs["train_64x128", 1]["metrics"]
    for key, value in again["metrics"].items():
        if key.endswith((".calls", ".gmacs", ".nodes", ".params")):
            assert value == first[key], key
    assert first["autodiff.nodes"]["value"] > 0
    assert first["training.params"]["value"] > 0


def test_infer_range_check_rejects_shifted_d1(runs):
    maxd = 64
    shape = (1, 1, 64, 128)
    w = InferWorkload(3, height=64, width=128)
    w.prepare()
    d1, pfm = w.op()
    assert d1_in_range(d1, shape, maxd)
    assert not d1_in_range(d1 + maxd, shape, maxd)           # above max_disparity - 4
    assert not d1_in_range(d1 - d1.max() - 1.0, shape, maxd)  # below zero
    assert not d1_in_range(np.full(shape, np.nan), shape, maxd)
    assert not d1_in_range(d1[..., :64], shape, maxd)
    assert w.check((d1, pfm))
    assert not w.check((d1 + maxd, pfm))


def test_tail_percentile_leaves_ten_samples_beyond():
    durations = [float(i) for i in range(1, 45)]
    value, pct = harness.tail(durations)
    assert pct == 77 and sum(d > value for d in durations) == 10
    assert harness.tail([3.0, 1.0, 2.0, 4.0]) == (2.5, 50)


def test_result_lists_exactly_the_declared_metrics(runs):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        declared = {m["name"]: m["unit"] for m in bench[kind]}
        got = {k: v["unit"] for k, v in runs["train_64x128", trace]["metrics"].items()}
        assert got == declared

"""Sweep construction and the gradient-flow evidence for the detach row."""

import copy
from dataclasses import asdict, replace

import numpy as np
import pytest

from stereomatch.ablation import AXES, ablate, config_rows, verify_detach
from stereomatch.aggregation import CgfConfig
from stereomatch.backbone import BackboneConfig
from stereomatch.correlation import MatchingConfig
from stereomatch.errors import ConfigError
from stereomatch.model import ModelConfig
from stereomatch.runconfig import load_run_config
from stereomatch.training import TrainParams


def tiny_base(**overrides):
    kw = dict(
        backbone=BackboneConfig(stem_channels=4, channels=(8, 10, 12, 14)),
        matching=MatchingConfig(max_disparity=32, corr_channels=4),
        seed=0,
    )
    kw.update(overrides)
    return ModelConfig(**kw)


def test_afv_axis_has_the_four_expected_rows():
    rows = config_rows(tiny_base(), "afv")
    assert [name for name, _ in rows] == ["baseline", "afv", "cgf", "afv_cgf"]
    flags = [(cfg.afv_enabled, cfg.cgf.positions) for _, cfg in rows]
    assert flags == [(False, ()), (True, ()), (False, ("decoder",)),
                     (True, ("decoder",))]


def test_position_axis_covers_all_placements():
    rows = config_rows(tiny_base(), "cgf_position")
    assert [cfg.cgf.positions for _, cfg in rows] == [
        (), ("encoder",), ("decoder",), ("encoder", "decoder")]
    # placements must not silently change unrelated switches
    assert all(cfg.afv_enabled for _, cfg in rows)


def test_detach_axis_rows_differ_only_in_flag():
    rows = config_rows(tiny_base(), "detach")
    (_, on), (_, off) = rows
    assert not on.cgf.detach_context
    assert off.cgf.detach_context
    assert on.cgf.positions == off.cgf.positions
    assert on.seed == off.seed


def test_unknown_axis_rejected():
    with pytest.raises(ConfigError, match="axis"):
        config_rows(tiny_base(), "dropout")
    assert set(AXES) == {"afv", "cgf_position", "detach"}


def test_base_is_not_mutated():
    base = tiny_base()
    config_rows(base, "afv")
    config_rows(base, "detach")
    assert base.cgf.positions == ("decoder",)
    assert not base.cgf.detach_context
    assert base.afv_enabled


# every row as (name, ModelConfig fields it sets, CgfConfig fields it sets)
PINNED_ROWS = {
    "afv": [
        ("baseline", {"afv_enabled": False}, {"positions": ()}),
        ("afv", {"afv_enabled": True}, {"positions": ()}),
        ("cgf", {"afv_enabled": False}, {"positions": ("decoder",)}),
        ("afv_cgf", {"afv_enabled": True}, {"positions": ("decoder",)}),
    ],
    "cgf_position": [
        ("none", {}, {"positions": ()}),
        ("encoder", {}, {"positions": ("encoder",)}),
        ("decoder", {}, {"positions": ("decoder",)}),
        ("encoder_decoder", {}, {"positions": ("encoder", "decoder")}),
    ],
    "detach": [
        ("backprop_context", {}, {"detach_context": False}),
        ("detach_context", {}, {"detach_context": True}),
    ],
}


@pytest.mark.parametrize("base", [
    tiny_base(),
    tiny_base(seed=7, afv_enabled=False,
              cgf=CgfConfig(positions=("encoder",), detach_context=True)),
], ids=["default-switches", "flipped-switches"])
def test_every_row_is_base_with_only_its_pinned_fields(base):
    """All ten rows, field by field: a row sets exactly its pinned fields,
    keeps every other field of base, and leaves base as it was."""
    before = copy.deepcopy(base)
    assert list(AXES) == list(PINNED_ROWS)
    for axis, pinned in PINNED_ROWS.items():
        rows = config_rows(base, axis)
        assert [name for name, _ in rows] == [name for name, _, _ in pinned]
        for (name, cfg), (_, model_fields, cgf_fields) in zip(rows, pinned):
            expected = replace(base, cgf=replace(base.cgf, **cgf_fields), **model_fields)
            assert asdict(cfg) == asdict(expected), (axis, name)
    assert asdict(base) == asdict(before)


def test_detach_axis_needs_a_cgf_block():
    base = tiny_base(cgf=CgfConfig(positions=()))
    with pytest.raises(ConfigError, match="'detach' needs a CGF block"):
        config_rows(base, "detach")
    with pytest.raises(ConfigError, match="'detach' needs a CGF block"):
        verify_detach(base, TrainParams(height=32, width=64, data_seed=5))
    assert [name for name, _ in config_rows(base, "afv")] == list(AXES["afv"])


def test_verify_detach_reports_expected_split():
    checks = verify_detach(tiny_base(), TrainParams(height=32, width=64, data_seed=5))
    assert checks["forward_bit_identical"]
    assert checks["zero_grads_match_context_only_params"]
    assert checks["zero_grad_params"] == checks["context_only_params"]
    assert len(checks["zero_grad_params"]) > 0
    assert all(".project." in n for n in checks["zero_grad_params"])


def test_ablate_runs_every_row_and_reports():
    report = ablate(tiny_base(), "detach", TrainParams(
        steps=2, height=32, width=64, train_samples=1, eval_samples=1))
    assert [r.name for r in report.rows] == ["backprop_context", "detach_context"]
    # equal parameter budgets: the flag changes gradients, not the graph
    assert report.rows[0].param_count == report.rows[1].param_count
    for row in report.rows:
        assert np.isfinite(row.final_loss)
        assert row.metrics.valid_pixel_count > 0
    assert report.detach_checks is not None
    assert report.detach_checks["forward_bit_identical"]
    assert any("detach check" in line for line in report.lines())


def test_each_row_records_its_resolved_run_file():
    """Parsing a row's config text gives that row's ModelConfig and the
    run's TrainParams."""
    base, train = tiny_base(), TrainParams(steps=1, height=32, width=64,
                                           train_samples=1, eval_samples=1)
    report = ablate(base, "afv", train)
    for row, (name, cfg) in zip(report.rows, config_rows(base, "afv")):
        rc = load_run_config(row.config)
        assert row.name == name and rc.model == cfg and rc.train == train


def test_ablate_afv_axis_param_ordering():
    report = ablate(tiny_base(), "afv", TrainParams(
        steps=1, height=32, width=64, train_samples=1, eval_samples=1))
    counts = {r.name: r.param_count for r in report.rows}
    assert counts["baseline"] < counts["afv"]
    assert counts["baseline"] < counts["cgf"]
    assert counts["afv_cgf"] == max(counts.values())
    lines = report.lines()
    assert len(lines) == 4 and "params=" in lines[0]

"""Ablation sweeps over the attention volume, fusion placement, and the
context-gradient toggle.

Each row of an axis in `AXES` is a set of run-config overrides, written as a
run file writes them (`cgf.positions=` is the empty list) and applied with
`runconfig.apply_pairs`.  Every row trains with the run's `TrainParams` on
one shared `training.split`, exactly as `stereomatch train` does with the
run's config plus the row's overrides, and is scored with
`training.heldout_metrics`, so rows differ only in architecture.  Each row
records that resolved run file, which `stereomatch train --config` reruns.
The detach axis additionally verifies the gradient-flow claim it encodes:
stopping the context branch must zero the gradients of exactly the parameters
that have no other route to the loss (the fusers' projection layers), while
leaving forward values untouched.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .metrics import MetricsReport
from .model import ModelConfig, StereoModel
from .runconfig import RunConfig, apply_pairs, run_config_to_text
from .training import (
    Adam, TrainParams, fit, heldout_metrics, make_dataset, sample_loss, split,
)

AXES = {
    "afv": {
        "baseline": {"afv_enabled": "false", "cgf.positions": ""},
        "afv": {"afv_enabled": "true", "cgf.positions": ""},
        "cgf": {"afv_enabled": "false", "cgf.positions": "decoder"},
        "afv_cgf": {"afv_enabled": "true", "cgf.positions": "decoder"},
    },
    "cgf_position": {
        "none": {"cgf.positions": ""},
        "encoder": {"cgf.positions": "encoder"},
        "decoder": {"cgf.positions": "decoder"},
        "encoder_decoder": {"cgf.positions": "encoder,decoder"},
    },
    "detach": {
        "backprop_context": {"cgf.detach_context": "false"},
        "detach_context": {"cgf.detach_context": "true"},
    },
}


@dataclass
class AblationRow:
    name: str
    overrides: dict  # the run-config keys this row sets, as AXES lists them
    config: str  # the row's resolved run file: `stereomatch train --config` reruns it
    param_count: int
    final_loss: float | None  # None when the run trains zero steps
    metrics: MetricsReport


@dataclass
class AblationReport:
    axis: str
    rows: list
    detach_checks: dict | None = None

    def lines(self) -> list:
        width = max(len(r.name) for r in self.rows)
        out = [
            f"{r.name:<{width}}  params={r.param_count:<8d} "
            f"loss={'none' if r.final_loss is None else format(r.final_loss, '.4f')}"
            f"  {r.metrics.to_line()}"
            for r in self.rows
        ]
        if self.detach_checks is not None:
            out.append(
                "detach check: forward_bit_identical="
                f"{self.detach_checks['forward_bit_identical']} "
                f"zero_grads_match_context_only_params="
                f"{self.detach_checks['zero_grads_match_context_only_params']}"
            )
        return out


def config_rows(base: ModelConfig, axis: str) -> list:
    """(name, config) for each row of one sweep axis: the row's overrides
    applied to a copy of base, which stays as it was.  The detach rows toggle
    the CGF blocks' context gradient, so without a CGF block they would be
    one model twice and the detach check would pass on nothing."""
    if axis not in AXES:
        raise ConfigError(f"unknown ablation axis {axis!r}; expected one of {tuple(AXES)}")
    if axis == "detach" and not base.cgf.positions:
        raise ConfigError("ablation axis 'detach' needs a CGF block, "
                          "but cgf.positions is empty")
    return [(name, apply_pairs(RunConfig(model=deepcopy(base)), pairs).model.validate())
            for name, pairs in AXES[axis].items()]


def _context_only_params(model: StereoModel) -> list:
    """Parameters whose entire loss path runs through the fused context
    branch: the projection layers inside every fusion block.  (The attention
    volume has a projection layer too, but it sits on the main volume path.)"""
    return [
        name for name, _ in model.named_parameters()
        if ".fusers." in name and ".project." in name
    ]


def verify_detach(base: ModelConfig, train: TrainParams) -> dict:
    """Gradient-flow evidence for the detach row.

    Builds the models of the two `detach` rows, which share their weights,
    checks their forwards agree bit-for-bit, then backpropagates the training loss of the run's first
    training sample through the detached model and splits parameters by exact
    zero-ness of their gradients.
    """
    attached, detached = (StereoModel(cfg) for _, cfg in config_rows(base, "detach"))
    sample = make_dataset(train.data_seed, 1, train.height, train.width,
                          base.matching.max_disparity, train.mode,
                          train.constant_disparity)[0]
    attached.eval()
    detached.eval()
    with ad.no_grad():
        a = attached(sample.left, sample.right)[1].values.data
        b = detached(sample.left, sample.right)[1].values.data
    forward_ok = bool(np.array_equal(a, b))

    detached.train()
    detached.zero_grad()
    loss = sample_loss(detached, sample)
    params = list(detached.named_parameters())
    ad.backward(loss, ensure=[p for _, p in params])
    zero = sorted(name for name, p in params if not np.any(p.grad))
    expected = sorted(_context_only_params(detached))
    return {
        "forward_bit_identical": forward_ok,
        "zero_grad_params": zero,
        "context_only_params": expected,
        "zero_grads_match_context_only_params": zero == expected,
    }


def ablate(base: ModelConfig, axis: str, train: TrainParams,
           on_row=None) -> AblationReport:
    """Train every configuration along one axis as `stereomatch train` would,
    on one shared split, and score each on the held-out batch."""
    configs = config_rows(base, axis)  # a bad axis fails before any data is made
    train_batches, held = split(train, base.matching.max_disparity)
    rows = []
    for name, cfg in configs:
        model = StereoModel(cfg)
        report = fit(model, Adam(model, train), train_batches, train.steps)
        row = AblationRow(
            name=name,
            overrides=dict(AXES[axis][name]),
            config=run_config_to_text(RunConfig(model=cfg, train=train)),
            param_count=model.param_count(),
            final_loss=report.losses[-1] if report.losses else None,
            metrics=heldout_metrics(model, held),
        )
        rows.append(row)
        if on_row is not None:
            on_row(row)
    checks = verify_detach(base, train) if axis == "detach" else None
    return AblationReport(axis=axis, rows=rows, detach_checks=checks)

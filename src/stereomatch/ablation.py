"""Ablation sweeps over the attention volume, fusion placement, and the
context-gradient toggle.

Every row of a sweep trains the same synthetic split with the same seeds, so
rows differ only in architecture.  The detach axis additionally verifies the
gradient-flow claim it encodes: stopping the context branch must zero the
gradients of exactly the parameters that have no other route to the loss
(the fusers' projection layers), while leaving forward values untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .metrics import MetricsReport, evaluate
from .model import ModelConfig, StereoModel
from .training import (
    Adam, OptimConfig, batches, fit, make_dataset, sample_loss, stack_samples,
)

AXES = ("afv", "cgf_position", "detach")


@dataclass
class AblationRow:
    name: str
    config: ModelConfig
    param_count: int
    final_loss: float
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
            f"loss={r.final_loss:.4f}  {r.metrics.to_line()}"
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


def _with(base: ModelConfig, *, afv=None, positions=None, detach=None) -> ModelConfig:
    cgf = base.cgf
    if positions is not None or detach is not None:
        cgf = replace(
            cgf,
            positions=cgf.positions if positions is None else tuple(positions),
            detach_context=cgf.detach_context if detach is None else detach,
        )
    return replace(
        base,
        cgf=cgf,
        afv_enabled=base.afv_enabled if afv is None else afv,
    )


def config_rows(base: ModelConfig, axis: str) -> list:
    """Named configurations for one sweep axis."""
    if axis == "afv":
        return [
            ("baseline", _with(base, afv=False, positions=())),
            ("afv", _with(base, afv=True, positions=())),
            ("cgf", _with(base, afv=False, positions=("decoder",))),
            ("afv_cgf", _with(base, afv=True, positions=("decoder",))),
        ]
    if axis == "cgf_position":
        return [
            ("none", _with(base, positions=())),
            ("encoder", _with(base, positions=("encoder",))),
            ("decoder", _with(base, positions=("decoder",))),
            ("encoder_decoder", _with(base, positions=("encoder", "decoder"))),
        ]
    if axis == "detach":
        return [
            ("backprop_context", _with(base, detach=False)),
            ("detach_context", _with(base, detach=True)),
        ]
    raise ConfigError(f"unknown ablation axis {axis!r}; expected one of {AXES}")


def _context_only_params(model: StereoModel) -> list:
    """Parameters whose entire loss path runs through the fused context
    branch: the projection layers inside every fusion block.  (The attention
    volume has a projection layer too, but it sits on the main volume path.)"""
    return [
        name for name, _ in model.named_parameters()
        if ".fusers." in name and ".project." in name
    ]


def verify_detach(base: ModelConfig, height: int, width: int, data_seed: int,
                  mode: str = "slanted_planes", constant_disparity: float = 0.0) -> dict:
    """Gradient-flow evidence for the detach row.

    Builds the two rows with identical weights, checks their forwards agree
    bit-for-bit, then backpropagates the training loss through the detached
    model and splits parameters by exact zero-ness of their gradients.
    """
    sample = make_dataset(data_seed, 1, height, width, base.matching.max_disparity,
                          mode, constant_disparity)[0]
    attached = StereoModel(_with(base, detach=False))
    detached = StereoModel(_with(base, detach=True))
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


def ablate(base: ModelConfig, axis: str, *, steps: int = 50, data_seed: int = 0,
           height: int = 64, width: int = 128, train_samples: int = 4,
           eval_samples: int = 2, optim: OptimConfig | None = None,
           mode: str = "slanted_planes", constant_disparity: float = 0.0,
           batch_size: int = 1, on_row=None) -> AblationReport:
    """Train and evaluate every configuration along one axis, on synthetic
    data of the given mode, in batches of batch_size samples."""
    rows = []
    for name, cfg in config_rows(base, axis):
        model = StereoModel(cfg)
        train = make_dataset(data_seed, train_samples, height, width,
                             cfg.matching.max_disparity, mode, constant_disparity)
        held = make_dataset(data_seed + 10_000, eval_samples, height, width,
                            cfg.matching.max_disparity, mode, constant_disparity)
        report = fit(model, Adam(model, optim or OptimConfig()),
                     batches(train, batch_size), steps)
        model.eval()
        batch = stack_samples(held)
        with ad.no_grad():
            _, d1 = model(batch.left, batch.right)
        row = AblationRow(
            name=name,
            config=cfg,
            param_count=model.param_count(),
            final_loss=report.losses[-1],
            metrics=evaluate(d1.values, batch.gt_disparity, batch.valid_mask),
        )
        rows.append(row)
        if on_row is not None:
            on_row(row)
    checks = None
    if axis == "detach":
        checks = verify_detach(base, height, width, data_seed, mode, constant_disparity)
    return AblationReport(axis=axis, rows=rows, detach_checks=checks)

"""Disparity evaluation metrics over a validity mask."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ShapeError


@dataclass
class MetricsReport:
    epe_px: float
    d1_percent: float
    gt1_percent: float
    gt2_percent: float
    gt3_percent: float
    valid_pixel_count: int

    def to_line(self) -> str:
        def fmt(v: float) -> str:
            return "nan" if math.isnan(v) else f"{v:.4f}"

        return (
            f"epe={fmt(self.epe_px)} d1={fmt(self.d1_percent)} "
            f"gt1={fmt(self.gt1_percent)} gt2={fmt(self.gt2_percent)} "
            f"gt3={fmt(self.gt3_percent)} valid={self.valid_pixel_count}"
        )


def valid_mask_from_gt(gt: np.ndarray, max_disparity: int) -> np.ndarray:
    """Standard validity rule for loaded datasets: positive ground truth
    below the disparity search range."""
    gt = np.asarray(gt)
    return (gt > 0) & (gt < max_disparity)


def evaluate(pred, gt, mask) -> MetricsReport:
    """EPE, D1 and >k px outlier rates over the masked pixels.

    D1 counts pixels whose error exceeds max(3 px, 5% of the true disparity);
    all thresholds use strict inequality, and a NaN error, which compares
    false with everything, counts as an outlier.  An empty mask yields a
    report with valid_pixel_count 0 and NaN metrics.
    """
    pred = pred.data if isinstance(pred, Tensor) else np.asarray(pred, dtype=np.float64)
    gt = gt.data if isinstance(gt, Tensor) else np.asarray(gt, dtype=np.float64)
    mask = np.asarray(mask).astype(bool)
    if pred.shape != gt.shape or gt.shape != mask.shape:
        raise ShapeError(
            f"evaluate shapes differ: pred {pred.shape}, gt {gt.shape}, mask {mask.shape}"
        )
    count = int(mask.sum())
    if count == 0:
        nan = float("nan")
        return MetricsReport(nan, nan, nan, nan, nan, 0)
    err = np.abs(pred[mask] - gt[mask])
    gt_valid = gt[mask]
    d1_threshold = np.maximum(3.0, 0.05 * gt_valid)

    def outlier_percent(threshold):
        return float(100.0 * (~(err <= threshold)).mean())

    return MetricsReport(
        epe_px=float(err.mean()),
        d1_percent=outlier_percent(d1_threshold),
        gt1_percent=outlier_percent(1.0),
        gt2_percent=outlier_percent(2.0),
        gt3_percent=outlier_percent(3.0),
        valid_pixel_count=count,
    )

"""Evaluation metrics: EPE, D1 outlier rule, >k px rates, mask handling."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from stereomatch import autodiff as ad
from stereomatch.errors import ShapeError
from stereomatch.metrics import MetricsReport, evaluate, valid_mask_from_gt


def full_mask(shape):
    return np.ones(shape, dtype=bool)


def test_perfect_prediction():
    gt = np.random.default_rng(0).uniform(1, 40, (1, 1, 6, 6))
    r = evaluate(gt.copy(), gt, full_mask(gt.shape))
    assert r.epe_px == 0.0
    assert r.d1_percent == 0.0
    assert r.gt1_percent == r.gt2_percent == r.gt3_percent == 0.0
    assert r.valid_pixel_count == 36


def test_d1_uses_relative_threshold_at_large_disparity():
    # 3.5 px error at gt=100: the D1 cutoff is max(3, 5) = 5, so it is not a
    # D1 outlier, but it does exceed the plain 3 px threshold.
    gt = np.full((1, 1, 1, 2), 100.0)
    pred = gt + np.array([[[[3.5, 0.0]]]])
    r = evaluate(pred, gt, full_mask(gt.shape))
    assert r.d1_percent == 0.0
    assert r.gt3_percent == 50.0


def test_d1_absolute_floor_at_small_disparity():
    gt = np.full((1, 1, 1, 2), 10.0)  # 5% of 10 = 0.5 < 3, floor applies
    pred = gt + np.array([[[[2.9, 3.1]]]])
    r = evaluate(pred, gt, full_mask(gt.shape))
    assert r.d1_percent == 50.0


def test_thresholds_are_strict():
    gt = np.full((1, 1, 2, 2), 50.0)
    r = evaluate(gt + 1.0, gt, full_mask(gt.shape))
    assert r.epe_px == 1.0
    assert r.gt1_percent == 0.0  # exactly 1 px is not "> 1 px"
    assert r.gt2_percent == 0.0
    r2 = evaluate(gt + 2.0, gt, full_mask(gt.shape))
    assert r2.gt1_percent == 100.0
    assert r2.gt2_percent == 0.0


def test_nan_and_inf_errors_are_outliers():
    gt = np.full((1, 1, 1, 4), 10.0)
    for bad in (np.nan, np.inf):
        r = evaluate(np.full(gt.shape, bad), gt, full_mask(gt.shape))
        assert r.d1_percent == r.gt1_percent == r.gt2_percent == r.gt3_percent == 100.0
    pred = gt + np.array([[[[np.nan, 0.5, 1.5, 4.0]]]])
    r = evaluate(pred, gt, full_mask(gt.shape))
    assert (r.gt1_percent, r.gt2_percent, r.gt3_percent, r.d1_percent) == (75.0, 50.0, 50.0, 50.0)
    assert math.isnan(r.epe_px)


def test_rates_are_nested():
    rng = np.random.default_rng(1)
    gt = rng.uniform(5, 60, (1, 1, 16, 16))
    pred = gt + rng.standard_normal(gt.shape) * 3.0
    r = evaluate(pred, gt, full_mask(gt.shape))
    assert r.gt1_percent >= r.gt2_percent >= r.gt3_percent
    assert r.d1_percent <= r.gt3_percent  # D1 threshold is >= 3 px


def test_masked_pixels_do_not_contribute():
    rng = np.random.default_rng(2)
    gt = rng.uniform(1, 30, (1, 1, 5, 5))
    pred = gt + 0.25
    mask = rng.random(gt.shape) > 0.4
    base = evaluate(pred, gt, mask)
    pred2 = pred.copy()
    pred2[~mask] = 9e9
    again = evaluate(pred2, gt, mask)
    assert asdict(again) == asdict(base)


def test_empty_mask_yields_nan_report():
    gt = np.ones((1, 1, 3, 3))
    r = evaluate(gt, gt, np.zeros_like(gt, bool))
    assert r.valid_pixel_count == 0
    assert math.isnan(r.epe_px) and math.isnan(r.d1_percent)
    assert "epe=nan" in r.to_line()


def test_epe_is_mean_absolute_error():
    gt = np.zeros((1, 1, 1, 4))
    pred = np.array([[[[1.0, -2.0, 0.5, 0.0]]]])
    r = evaluate(pred, gt, full_mask(gt.shape))
    assert np.isclose(r.epe_px, (1.0 + 2.0 + 0.5 + 0.0) / 4)


def test_accepts_tensor_inputs():
    gt = np.full((1, 1, 2, 2), 8.0)
    r = evaluate(ad.Tensor(gt + 0.5), ad.Tensor(gt), full_mask(gt.shape))
    assert np.isclose(r.epe_px, 0.5)


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        evaluate(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 3)),
                 np.ones((1, 1, 2, 3), bool))


def test_valid_mask_rule():
    gt = np.array([[0.0, -1.0, 0.5, 63.9, 64.0, 70.0]])
    mask = valid_mask_from_gt(gt, max_disparity=64)
    assert mask.tolist() == [[False, False, True, True, False, False]]


def test_report_line_format():
    r = MetricsReport(1.23456, 10.0, 30.0, 20.0, 10.0, 42)
    line = r.to_line()
    assert line == "epe=1.2346 d1=10.0000 gt1=30.0000 gt2=20.0000 gt3=10.0000 valid=42"
    assert asdict(r)["valid_pixel_count"] == 42

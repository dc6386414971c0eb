"""Matching cost volume construction.

Three steps: a cosine-similarity correlation volume between left and right
quarter-resolution features, a learned lift of that single channel to a small
channel stack (attention weights over disparity candidates), and the
attention feature volume — left features broadcast along disparity and gated
elementwise by those weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .autodiff.tensor import _node
from .errors import ConfigError, ShapeError

# Added to the cosine denominator to keep the norm product away from zero.
EPSILON = 1e-8


@dataclass
class MatchingConfig:
    max_disparity: int = 64  # full-resolution pixels
    corr_channels: int = 8

    def validate(self) -> "MatchingConfig":
        if self.max_disparity < 4 or self.max_disparity % 4 != 0:
            raise ConfigError(
                f"matching.max_disparity must be a positive multiple of 4, got {self.max_disparity}"
            )
        if self.corr_channels < 1:
            raise ConfigError(f"matching.corr_channels must be >= 1, got {self.corr_channels}")
        return self


def _shift_dot(a: Tensor, b: Tensor, num_disp: int) -> Tensor:
    """Map two [B,C,H,W] tensors to [B,1,D,H,W]: slice d is the channel sum
    of `a` times `b` shifted right by d columns, with exact zeros in the d
    columns the shift leaves empty.  No [B,C,D,H,W] array is built."""
    width = a.shape[3]
    x, y = a.data, b.data
    out = np.zeros((a.shape[0], 1, num_disp) + a.shape[2:], np.result_type(x, y))
    for d in range(num_disp):
        out[:, 0, d, :, d:] = (x[..., d:] * y[..., : width - d]).sum(axis=1)

    def bw(g):
        ga = np.zeros(x.shape, np.result_type(x, y, g))
        gb = np.zeros_like(ga)
        for d in range(num_disp):
            gd = g[:, :, d, :, d:]
            ga[..., d:] += gd * y[..., : width - d]
            gb[..., : width - d] += gd * x[..., d:]
        return ga, gb

    return _node(out, (a, b), bw)


def build_correlation(f_l: Tensor, f_r: Tensor, cfg: MatchingConfig) -> Tensor:
    """Cosine similarity between left features and d-shifted right features.

    Returns a [B,1,D,H,W] volume on the features' grid, one pixel of that
    grid per step along D.  Entry (b, 0, d, y, x) compares f_l at column x
    with f_r at column x - d; candidates that would reach past the left image
    border are exactly zero.  EPSILON keeps the norm product away from zero.
    """
    if f_l.shape != f_r.shape:
        raise ShapeError(f"feature shapes differ: {f_l.shape} vs {f_r.shape}")
    if f_l.ndim != 4:
        raise ShapeError(f"expected [B,C,H,W] features, got {f_l.shape}")
    width = f_l.shape[3]
    num_disp = cfg.max_disparity // 4
    if num_disp > width:
        raise ShapeError(
            f"max_disparity/4 = {num_disp} exceeds quarter-resolution width {width}"
        )

    # Norms once per image; 1e-30 under the sqrt keeps its gradient finite at
    # exactly-zero feature vectors without moving any realistic value.
    norm_l = ad.sqrt(ad.add(ad.tsum(ad.mul(f_l, f_l), axis=1, keepdims=True), 1e-30))
    norm_r = ad.sqrt(ad.add(ad.tsum(ad.mul(f_r, f_r), axis=1, keepdims=True), 1e-30))

    numer = _shift_dot(f_l, f_r, num_disp)
    norms = _shift_dot(norm_l, norm_r, num_disp)
    return ad.div(numer, ad.add(norms, EPSILON))


class CorrelationLift(nn.Module):
    """Grow the 1-channel correlation volume to `corr_channels` channels with
    a per-disparity-slice 3x3 conv (kernel 1x3x3) + BatchNorm + leaky ReLU."""

    def __init__(self, cfg: MatchingConfig, rng: np.random.Generator):
        self.block = nn.ConvBnLeaky(1, cfg.corr_channels, (1, 3, 3), rng)

    def forward(self, volume: Tensor) -> Tensor:
        if volume.shape[1] != 1:
            raise ShapeError(f"lift expects a 1-channel volume, got {volume.shape}")
        return self.block(volume)


class AttentionFeatureVolume(nn.Module):
    """Gate broadcast left features with the lifted correlation attention.

    The left features are first mapped to the attention channel count with a
    bias-free 1x1 conv, so zero features stay exactly zero, then broadcast
    along the disparity axis and multiplied elementwise with the attention.
    """

    def __init__(self, feature_channels: int, cfg: MatchingConfig, rng: np.random.Generator):
        self.project = nn.Conv(feature_channels, cfg.corr_channels, (1, 1), rng, bias=False)

    def forward(self, a_corr: Tensor, f_l: Tensor) -> Tensor:
        batch, channels, _, height, width = a_corr.shape
        if f_l.shape[2] != height or f_l.shape[3] != width:
            raise ShapeError(
                f"feature extent {f_l.shape[2:]} does not match volume extent {(height, width)}"
            )
        projected = self.project(f_l)
        if projected.shape[1] != channels:
            raise ShapeError(
                f"projected features have {projected.shape[1]} channels, "
                f"attention volume has {channels}"
            )
        return ad.mul(a_corr, ad.reshape(projected, (batch, channels, 1, height, width)))

"""End-to-end stereo model: features -> matching volume -> aggregation ->
disparity at quarter and full resolution."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .aggregation import CgfConfig, Decoder, Encoder
from .autodiff import Tensor
from .backbone import Backbone, BackboneConfig, FeaturePyramid, MergeUpsample
from .correlation import (
    AttentionFeatureVolume,
    CorrelationLift,
    MatchingConfig,
    build_correlation,
)
from .errors import ConfigError, ShapeError
from .regression import DisparityMap, SuperpixelUpsample, top2_regression

# The model's compute dtype: parameters, buffers, activations, gradients and
# Adam state.  The ops, standalone layers, oracles and gradient checks stay
# float64; checkpoints store float64.
DTYPE = np.float32


@dataclass
class ModelConfig:
    seed: int = 0
    afv_enabled: bool = True
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    matching: MatchingConfig = field(default_factory=MatchingConfig)
    cgf: CgfConfig = field(default_factory=CgfConfig)

    def validate(self) -> "ModelConfig":
        self.backbone.validate()
        self.matching.validate()
        self.cgf.validate()
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.matching.max_disparity % 32 != 0:
            raise ConfigError(
                f"max_disparity must be a multiple of 32 so the quarter-resolution "
                f"volume depth ({self.matching.max_disparity} // 4) survives three "
                f"halvings, got {self.matching.max_disparity}"
            )
        return self


class StereoModel(nn.Module):
    """Siamese feature extraction, cosine correlation, attention feature
    volume (optional), hourglass aggregation with context fusion, top-2
    regression and superpixel upsampling.

    All parameters are drawn in float64 from a single generator seeded by
    config.seed, then cast to DTYPE, so two models built from equal configs
    are bit-identical.  The forward casts the images to DTYPE.
    """

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        c4, c8, c16, c32 = config.backbone.channels
        self.backbone = Backbone(config.backbone, rng)
        self.merge = MergeUpsample(config.backbone, rng)
        self.lift = CorrelationLift(config.matching, rng)
        self.afv = None
        if config.afv_enabled:
            self.afv = AttentionFeatureVolume(c4, config.matching, rng)
        self.encoder = Encoder(config.matching.corr_channels, (c8, c16, c32),
                               config.cgf, rng)
        self.decoder = Decoder(config.matching.corr_channels, (c8, c16, c32),
                               config.cgf, rng)
        self.upsampler = SuperpixelUpsample(c4, rng)
        self.cast(DTYPE)

    def forward(self, left: Tensor, right: Tensor) -> tuple[DisparityMap, DisparityMap]:
        if left.shape != right.shape:
            raise ShapeError(
                f"left/right shapes differ: {left.shape} vs {right.shape}"
            )
        # Release what the decoder, where a no-grad forward peaks, does not
        # read: in a no-grad forward nothing else holds these arrays.
        ctx = self._features(left)
        feat_r = self._features(right)
        corr = build_correlation(ctx.f4, feat_r.f4, self.config.matching)
        del feat_r
        volume = self.lift(corr)
        del corr
        if self.afv is not None:
            volume = self.afv(volume, ctx.f4)
        cost = self.decoder(self.encoder(volume, ctx), ctx)
        d0 = top2_regression(cost)
        d1 = self.upsampler(d0, ctx.f4)
        return d0, d1

    def _features(self, image: Tensor) -> FeaturePyramid:
        """The merged pyramid of one image, cast to DTYPE."""
        return self.merge(self.backbone(Tensor(image.data.astype(DTYPE, copy=False))))

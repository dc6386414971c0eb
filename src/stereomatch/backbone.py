"""Multi-scale 2-D feature extraction and the coarse-to-fine merge path.

A small stack of strided conv blocks produces features at 1/4, 1/8, 1/16 and
1/32 of the input resolution; a second pass walks back up, upsampling each
coarser map and merging it with the skip connection below it.  The merged
features at every scale are what the matching stages consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


@dataclass
class BackboneConfig:
    stem_channels: int = 16
    channels: tuple[int, int, int, int] = (32, 48, 64, 96)

    def validate(self) -> "BackboneConfig":
        if self.stem_channels < 1:
            raise ConfigError(f"backbone.stem_channels must be >= 1, got {self.stem_channels}")
        self.channels = tuple(int(c) for c in self.channels)
        if len(self.channels) != 4:
            raise ConfigError(
                f"backbone.channels needs one count per scale 1/4..1/32 (4 values), "
                f"got {self.channels}"
            )
        if any(c < 1 for c in self.channels):
            raise ConfigError(f"backbone.channels must all be >= 1, got {self.channels}")
        return self


@dataclass
class FeaturePyramid:
    """Per-scale feature maps; fN sits at 1/N of the input resolution."""

    f4: Tensor
    f8: Tensor
    f16: Tensor
    f32: Tensor


class _Block(nn.Module):
    """conv3x3 stride 2 + BatchNorm + leaky ReLU, held as `body` so that
    checkpoint entries keep their `stages.<i>.0.body.*` names."""

    def __init__(self, in_ch, out_ch, rng):
        self.body = nn.ConvBnLeaky(in_ch, out_ch, (3, 3), rng, stride=2)

    def forward(self, x):
        return self.body(x)


class Backbone(nn.Module):
    """Stem (stride 2) plus four one-block stages that each stride by 2,
    yielding features at 1/4, 1/8, 1/16, 1/32 resolution."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator):
        cfg.validate()
        self.stem = nn.ConvBnLeaky(3, cfg.stem_channels, (3, 3), rng, stride=2)
        ins = (cfg.stem_channels,) + cfg.channels[:-1]
        # the inner one-entry list keeps the `stages.<i>.0.body.*` checkpoint names
        self.stages = [[_Block(i, o, rng)] for i, o in zip(ins, cfg.channels)]

    def forward(self, image: Tensor) -> FeaturePyramid:
        if image.ndim != 4 or image.shape[1] != 3:
            raise ShapeError(f"backbone expects [B,3,H,W] images, got {image.shape}")
        height, width = image.shape[2], image.shape[3]
        for axis, extent in ((2, height), (3, width)):
            if extent < 32 or extent % 32 != 0:
                raise ShapeError(
                    f"image axis {axis} has extent {extent}; extents must be "
                    f"multiples of 32 (and >= 32) so every pyramid level is integral"
                )
        x = self.stem(image)
        maps = []
        for (block,) in self.stages:
            x = block(x)
            maps.append(x)
        return FeaturePyramid(*maps)


class MergeUpsample(nn.Module):
    """Walk the pyramid coarse-to-fine: transposed conv (k=4, s=2) on the
    coarser map, concatenate the skip, merge with a 3x3 conv.  Every scale's
    output passes through at least one conv of this module, so zeroed merge
    parameters produce an all-zero refined pyramid."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator):
        c4, c8, c16, c32 = cfg.channels
        self.top = nn.ConvBnLeaky(c32, c32, (3, 3), rng)
        self.up16 = nn.Conv(c32, c16, (4, 4), rng, stride=2, padding=1, transpose=True)
        self.merge16 = nn.ConvBnLeaky(2 * c16, c16, (3, 3), rng)
        self.up8 = nn.Conv(c16, c8, (4, 4), rng, stride=2, padding=1, transpose=True)
        self.merge8 = nn.ConvBnLeaky(2 * c8, c8, (3, 3), rng)
        self.up4 = nn.Conv(c8, c4, (4, 4), rng, stride=2, padding=1, transpose=True)
        self.merge4 = nn.ConvBnLeaky(2 * c4, c4, (3, 3), rng)

    def forward(self, pyr: FeaturePyramid) -> FeaturePyramid:
        f32 = self.top(pyr.f32)
        f16 = self.merge16(ad.concat([self.up16(f32), pyr.f16], axis=1))
        f8 = self.merge8(ad.concat([self.up8(f16), pyr.f8], axis=1))
        f4 = self.merge4(ad.concat([self.up4(f8), pyr.f4], axis=1))
        return FeaturePyramid(f4, f8, f16, f32)

"""Cost volume aggregation: 3D encoder, context-geometry fusion, 3D decoder.

The encoder halves disparity/height/width three times while growing channels
C -> 2C -> 4C -> 6C.  The fusion block injects image-content ("context")
features into the cost-volume ("geometry") features through a sigmoid
attention: the context decides, per voxel, how much of itself to add.  The
decoder walks back up to quarter resolution with transposed convs, additive
skips, and optional fusion before every upsampling step, ending in a
single-channel pre-softmax matching cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .backbone import FeaturePyramid
from .errors import ConfigError, ShapeError

_VALID_POSITIONS = ("encoder", "decoder")
# In-plane extent of the CGF convs: CGI-Stereo fuses with 1x5x5 kernels.
FUSION_KERNEL = 5


@dataclass
class CgfConfig:
    positions: tuple[str, ...] = ("decoder",)
    detach_context: bool = False

    def validate(self) -> "CgfConfig":
        self.positions = tuple(self.positions)
        for p in self.positions:
            if p not in _VALID_POSITIONS:
                raise ConfigError(
                    f"cgf.positions entries must be in {_VALID_POSITIONS}, got {p!r}"
                )
        if len(set(self.positions)) != len(self.positions):
            raise ConfigError(f"cgf.positions has duplicates: {self.positions}")
        return self


@dataclass
class GeometryPyramid:
    """Encoder outputs; g4 is the (untouched) input volume at 1/4 resolution,
    g32 the B x 6C x D/32 x H/32 x W/32 bottleneck."""

    g4: Tensor
    g8: Tensor
    g16: Tensor
    g32: Tensor


class ContextGeometryFusion(nn.Module):
    """Attention-gated injection of 2-D context features into a 3-D volume.

    The context map is projected (bias-free 1x1) to the volume's channel
    count and broadcast along disparity.  A first in-plane conv of the sum
    feeds a sigmoid to produce per-voxel attention; the attended context is
    added back and a second conv (+ BatchNorm + leaky ReLU) produces the
    fused volume.  The two convs have separate parameters.
    """

    def __init__(self, geom_channels: int, ctx_channels: int, kernel: int,
                 rng: np.random.Generator):
        k = (1, kernel, kernel)
        self.project = nn.Conv(ctx_channels, geom_channels, (1, 1), rng, bias=False)
        self.attend = nn.Conv(geom_channels, geom_channels, k, rng)
        self.fuse = nn.ConvBnLeaky(geom_channels, geom_channels, k, rng)

    def forward(self, g: Tensor, ctx: Tensor, detach_context: bool = False) -> Tensor:
        if g.ndim != 5 or ctx.ndim != 4:
            raise ShapeError(f"fusion expects 5-D geometry and 4-D context, got {g.shape}, {ctx.shape}")
        if ctx.shape[2:] != g.shape[3:]:
            raise ShapeError(
                f"context extent {ctx.shape[2:]} does not match geometry extent {g.shape[3:]}"
            )
        projected = self.project(ctx)
        if projected.shape[1] != g.shape[1]:
            raise ShapeError(
                f"projected context has {projected.shape[1]} channels, "
                f"geometry has {g.shape[1]}"
            )
        if detach_context:
            projected = projected.detach()
        context = ad.reshape(projected, g.shape[:2] + (1,) + ctx.shape[2:])
        attention = ad.sigmoid(self.attend(ad.add(g, context)))
        return self.fuse(ad.add(g, ad.mul(attention, context)))


class _DownsampleBlock(nn.Module):
    """conv3d k=3 s=2 then conv3d k=3 s=1, each + BatchNorm + leaky ReLU."""

    def __init__(self, in_ch, out_ch, rng):
        self.down = nn.ConvBnLeaky(in_ch, out_ch, (3, 3, 3), rng, stride=2)
        self.post = nn.ConvBnLeaky(out_ch, out_ch, (3, 3, 3), rng)

    def forward(self, x):
        return self.post(self.down(x))


class _UpsampleBlock(nn.Module):
    """Transposed conv3d k=4 s=2 + BN + leaky ReLU; after the caller adds the
    skip, two conv3d k=3 s=1 blocks refine the merged volume."""

    def __init__(self, in_ch, out_ch, rng):
        self.up = nn.Conv(in_ch, out_ch, (4, 4, 4), rng, stride=2, padding=1, bias=False,
                          transpose=True)
        self.up_bn = nn.BatchNorm(out_ch)
        self.refine1 = nn.ConvBnLeaky(out_ch, out_ch, (3, 3, 3), rng)
        self.refine2 = nn.ConvBnLeaky(out_ch, out_ch, (3, 3, 3), rng)

    def forward(self, x, skip):
        y = self.up_bn(self.up(x))
        if y.shape != skip.shape:
            raise ShapeError(f"skip shape {skip.shape} does not match upsampled {y.shape}")
        # one statement per step, so that a no-grad forward frees each input
        # once the next step has read it
        y = ad.add(y, skip)
        y = self.refine1(y)
        return self.refine2(y)


class Encoder(nn.Module):
    def __init__(self, base_channels: int, ctx_channels: tuple[int, int, int],
                 cfg: CgfConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        c = base_channels
        plan = [(c, 2 * c), (2 * c, 4 * c), (4 * c, 6 * c)]
        self.blocks = [_DownsampleBlock(i, o, rng) for i, o in plan]
        self.fusers = None
        if "encoder" in cfg.positions:
            self.fusers = [
                ContextGeometryFusion(out_ch, ctx_ch, FUSION_KERNEL, rng)
                for (_, out_ch), ctx_ch in zip(plan, ctx_channels)
            ]

    def forward(self, volume: Tensor, ctx: FeaturePyramid) -> GeometryPyramid:
        g = volume
        for axis, extent in enumerate(g.shape[2:]):
            if extent % 8 != 0:
                raise ShapeError(
                    f"volume axis {2 + axis} has extent {extent}; three halvings "
                    f"require multiples of 8"
                )
        skips = [ctx.f8, ctx.f16, ctx.f32]
        outs = []
        for i, block in enumerate(self.blocks):
            g = block(g)
            if self.fusers is not None:
                g = self.fusers[i](g, skips[i], self.cfg.detach_context)
            outs.append(g)
        return GeometryPyramid(volume, *outs)


class Decoder(nn.Module):
    def __init__(self, base_channels: int, ctx_channels: tuple[int, int, int],
                 cfg: CgfConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        c = base_channels
        self.fusers = None
        if "decoder" in cfg.positions:
            # matching-scale context: 1/32, 1/16, 1/8 (same channel pairs as
            # the encoder's fusers, so both placements cost equal parameters)
            c8, c16, c32 = ctx_channels
            self.fusers = [
                ContextGeometryFusion(6 * c, c32, FUSION_KERNEL, rng),
                ContextGeometryFusion(4 * c, c16, FUSION_KERNEL, rng),
                ContextGeometryFusion(2 * c, c8, FUSION_KERNEL, rng),
            ]
        self.up1 = _UpsampleBlock(6 * c, 4 * c, rng)
        self.up2 = _UpsampleBlock(4 * c, 2 * c, rng)
        self.up3 = _UpsampleBlock(2 * c, c, rng)
        # No bias: the top-2 readout is invariant to a uniform shift of the
        # cost volume, so a bias here could never receive gradient signal.
        self.head = nn.Conv(c, 1, (3, 3, 3), rng, bias=False)

    def forward(self, pyr: GeometryPyramid, ctx: FeaturePyramid) -> Tensor:
        detach = self.cfg.detach_context
        contexts = [ctx.f32, ctx.f16, ctx.f8]
        skips = [pyr.g16, pyr.g8, pyr.g4]
        g = pyr.g32
        for i, block in enumerate((self.up1, self.up2, self.up3)):
            if self.fusers is not None:
                g = self.fusers[i](g, contexts[i], detach)
            g = block(g, skips[i])
        return self.head(g)

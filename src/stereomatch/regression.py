"""Disparity read-out: top-2 soft-argmax and learned convex upsampling.

The aggregated cost volume is reduced to a quarter-resolution disparity map
by softmaxing only the two best-scoring candidates per pixel, then brought to
full resolution as a per-pixel convex combination of the 3x3 coarse
neighborhood with weights predicted from the quarter-resolution context
features (16 fine positions per coarse cell, 9 weights each).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .autodiff.conv import _COLUMNS
from .autodiff.tensor import _node
from .errors import ShapeError


@dataclass
class DisparityMap:
    """Disparity field [B,1,h,w] in pixels of its own grid."""

    values: Tensor


def top2_softargmax(cost: Tensor) -> Tensor:
    """Per-pixel expectation over a 2-way softmax of the two largest costs.

    cost: [B,1,D,H,W] -> [B,1,H,W], with finite costs.  Ties resolve to the
    smaller disparity index first, as a stable sort would: the best index is
    the first argmax, the runner-up the first argmax once the best is masked
    to -inf (an infinite cost could tie with that mask).  Gradients flow only
    through the two selected cost values; the selection itself is treated as
    constant.
    """
    if cost.ndim != 5 or cost.shape[1] != 1:
        raise ShapeError(f"expected [B,1,D,H,W] cost, got {cost.shape}")
    num_disp = cost.shape[2]
    if num_disp < 2:
        raise ShapeError(f"top-2 selection needs D >= 2, got D={num_disp}")

    c = cost.data[:, 0]  # [B,D,H,W]
    i1 = np.argmax(c, axis=1)
    v1 = np.take_along_axis(c, i1[:, None], axis=1)[:, 0]
    rest = c.copy()
    np.put_along_axis(rest, i1[:, None], -np.inf, axis=1)
    i2 = np.argmax(rest, axis=1)
    v2 = np.take_along_axis(c, i2[:, None], axis=1)[:, 0]
    # v1 >= v2, so exp(v2 - v1) <= 1 and nothing overflows.
    e2 = np.exp(v2 - v1)
    w1 = 1.0 / (1.0 + e2)
    w2 = e2 / (1.0 + e2)
    # indices in the cost's dtype: an int64 array would promote float32
    d0 = w1 * i1.astype(c.dtype) + w2 * i2.astype(c.dtype)

    def bw(g):
        gg = g[:, 0]
        coef = gg * w1 * w2 * (i1 - i2).astype(c.dtype)
        dc = np.zeros_like(c)
        np.put_along_axis(dc, i1[:, None], coef[:, None], axis=1)
        np.put_along_axis(dc, i2[:, None], -coef[:, None], axis=1)
        return (dc[:, None],)

    return _node(d0[:, None], (cost,), bw)


def top2_regression(cost: Tensor) -> DisparityMap:
    return DisparityMap(top2_softargmax(cost))


def _neighbors(padded: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Rows r0:r1 of each pixel's 3x3 neighborhood from an edge-padded
    [B,h+2,w+2] map, as [B,9,r1-r0,w]; channel k = (dy+1)*3 + (dx+1)."""
    w = padded.shape[2] - 2
    return np.stack([padded[:, r0 + dy : r1 + dy, dx : dx + w]
                     for dy in range(3) for dx in range(3)], axis=1)


def _fold3x3(g: np.ndarray) -> np.ndarray:
    """The adjoint of the edge-clamped unfold: [B,9,h,w] -> [B,1,h,w]."""
    batch, _, h, w = g.shape
    padded = np.zeros((batch, h + 2, w + 2), g.dtype)
    for k in range(9):
        dy, dx = divmod(k, 3)
        padded[:, dy : dy + h, dx : dx + w] += g[:, k]
    rows = padded[:, 1:-1, :].copy()
    rows[:, 0, :] += padded[:, 0, :]
    rows[:, -1, :] += padded[:, -1, :]
    out = rows[:, :, 1:-1].copy()
    out[:, :, 0] += rows[:, :, 0]
    out[:, :, -1] += rows[:, :, -1]
    return out[:, None]


def unfold3x3(x: Tensor) -> Tensor:
    """Stack each pixel's 3x3 neighborhood into 9 channels, clamping at the
    image edge.  x: [B,1,h,w] -> [B,9,h,w]; channel k = (dy+1)*3 + (dx+1)."""
    if x.ndim != 4 or x.shape[1] != 1:
        raise ShapeError(f"unfold3x3 expects [B,1,h,w], got {x.shape}")
    padded = np.pad(x.data[:, 0], ((0, 0), (1, 1), (1, 1)), mode="edge")
    return _node(_neighbors(padded, 0, x.shape[2]), (x,), lambda g: (_fold3x3(g),))


def pixel_shuffle(x: Tensor, factor: int) -> Tensor:
    """Rearrange [B, C*r*r, h, w] -> [B, C, r*h, r*w]; channel index
    c*r*r + ri*r + ci lands on output pixel (i*r + ri, j*r + ci)."""
    batch, ch, h, w = x.shape
    r = factor
    if ch % (r * r) != 0:
        raise ShapeError(f"pixel_shuffle: {ch} channels not divisible by {r * r}")
    cout = ch // (r * r)
    out = (
        x.data.reshape(batch, cout, r, r, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(batch, cout, h * r, w * r)
    )

    def bw(g):
        back = (
            g.reshape(batch, cout, h, r, w, r)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(batch, ch, h, w)
        )
        return (back,)

    return _node(out, (x,), bw)


def convex_upsample(logits: Tensor, d0: Tensor, scale: int) -> Tensor:
    """RAFT's convex upsampling (Teed and Deng, arXiv:2003.12039) as one node.

    logits [B, 9*r*r, h, w] and d0 [B,1,h,w] -> [B,1,r*h,r*w] with r =
    scale: fine pixel (i*r + ri, j*r + ci) is r times the weighted sum of
    d0's edge-clamped 3x3 neighborhood of (i, j), with weights the softmax
    over the 9 logits of channels k*r*r + ri*r + ci.  That is softmax,
    unfold3x3, multiply, sum and pixel_shuffle composed, with the same
    arithmetic in the same order, computed a band of rows at a time so that
    no full-size [B,9,r*r,h,w] array is made.  The backward recomputes the
    weights from the logits."""
    if d0.ndim != 4 or d0.shape[1] != 1:
        raise ShapeError(f"expected [B,1,h,w] disparity, got {d0.shape}")
    batch, _, h, w = d0.shape
    cells = scale * scale
    if logits.shape != (batch, 9 * cells, h, w):
        raise ShapeError(f"expected [{batch},{9 * cells},{h},{w}] logits, got {logits.shape}")
    lg = logits.data.reshape(batch, 9, cells, h, w)
    padded = np.pad(d0.data[:, 0], ((0, 0), (1, 1), (1, 1)), mode="edge")
    dtype = np.result_type(lg, padded)
    factor = dtype.type(scale)
    step = max(1, _COLUMNS // (9 * cells * batch * w))
    bands = [(r0, min(h, r0 + step)) for r0 in range(0, h, step)]

    def band(r0, r1):
        """The band's softmax weights [B,9,cells,n,w], its neighbors
        [B,9,1,n,w] and their convex combination [B,cells,n,w]."""
        e = lg[:, :, :, r0:r1] - lg[:, :, :, r0:r1].max(axis=1, keepdims=True)
        np.exp(e, out=e)
        e /= e.sum(axis=1, keepdims=True)
        near = _neighbors(padded, r0, r1)[:, :, None]
        return e, near, (e * near).sum(axis=1)

    out = np.empty((batch, 1, h * scale, w * scale), dtype)
    fine = out.reshape(batch, h, scale, w, scale)  # a view: [b, i, ri, j, ci]
    for r0, r1 in bands:
        combined = band(r0, r1)[2]
        combined *= factor
        fine[:, r0:r1] = combined.reshape(batch, scale, scale, -1, w).transpose(0, 3, 1, 4, 2)

    def bw(g):
        g_fine = g.reshape(batch, h, scale, w, scale)
        g_logits = np.empty(lg.shape, dtype)
        g_near = np.empty((batch, 9, h, w), dtype)
        for r0, r1 in bands:
            weights, near, combined = band(r0, r1)
            g_comb = g_fine[:, r0:r1].transpose(0, 2, 4, 1, 3).reshape(batch, cells, -1, w)
            g_comb = g_comb * factor  # out of place: g may be a view of a shared array
            g_near[:, :, r0:r1] = (weights * g_comb[:, None]).sum(axis=2)
            # softmax's adjoint: weight * (its neighbor - the combination) * g
            part = near - combined[:, None]
            part *= g_comb[:, None]
            part *= weights
            g_logits[:, :, :, r0:r1] = part
        return g_logits.reshape(logits.shape), _fold3x3(g_near)

    return _node(out, (logits, d0), bw)


class SuperpixelUpsample(nn.Module):
    """Predict, from the quarter-resolution context features, a softmax over
    the 9 coarse neighbors for each of the 16 fine positions per coarse cell;
    the full-resolution disparity is the convex combination scaled by 4."""

    SCALE = 4
    HIDDEN = 32  # channels between the two convs

    def __init__(self, ctx_channels: int, rng: np.random.Generator):
        self.conv1 = nn.Conv(ctx_channels, self.HIDDEN, (3, 3), rng)
        self.conv2 = nn.Conv(self.HIDDEN, 9 * self.SCALE * self.SCALE, (3, 3), rng)

    def forward(self, d0: DisparityMap, ctx_f4: Tensor) -> DisparityMap:
        values = d0.values
        if values.ndim != 4 or values.shape[1] != 1:
            raise ShapeError(f"expected [B,1,h,w] disparity, got {values.shape}")
        if ctx_f4.shape[2:] != values.shape[2:]:
            raise ShapeError(
                f"context extent {ctx_f4.shape[2:]} != disparity extent {values.shape[2:]}"
            )
        logits = self.conv2(ad.leaky_relu(self.conv1(ctx_f4), nn.LEAKY_SLOPE))
        return DisparityMap(convex_upsample(logits, values, self.SCALE))

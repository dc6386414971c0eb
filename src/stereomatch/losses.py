"""Training loss: masked smooth-L1 on both disparity outputs.

The quarter-resolution prediction is bilinearly upsampled (values scaled by
the resolution ratio) so both terms compare against the same full-resolution
ground truth under the same validity mask.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .autodiff.tensor import _node
from .errors import ShapeError

# CGI-Stereo's weights: 0.3 on the upsampled coarse term, 1.0 on the full one.
LAMBDA0 = 0.3
LAMBDA1 = 1.0


def _lerp_matrix(n_src: int, scale: int) -> np.ndarray:
    """Dense [n_src*scale, n_src] matrix for half-pixel-aligned linear
    interpolation with edge clamping."""
    n_dst = n_src * scale
    dst = np.arange(n_dst)
    src = (dst + 0.5) / scale - 0.5
    i0 = np.floor(src).astype(int)
    frac = src - i0
    lo = np.clip(i0, 0, n_src - 1)
    hi = np.clip(i0 + 1, 0, n_src - 1)
    m = np.zeros((n_dst, n_src))
    np.add.at(m, (dst, lo), 1.0 - frac)
    np.add.at(m, (dst, hi), frac)
    return m


def bilinear_upsample(x: Tensor, scale: int) -> Tensor:
    """Separable bilinear upsampling of [B,C,h,w] by an integer factor.

    Implemented as two dense interpolation matrices so the backward pass is
    their exact transpose.
    """
    if x.ndim != 4:
        raise ShapeError(f"bilinear_upsample expects [B,C,h,w], got {x.shape}")
    if scale < 1:
        raise ShapeError(f"scale must be >= 1, got {scale}")
    _, _, h, w = x.shape
    mh = _lerp_matrix(h, scale)
    mw = _lerp_matrix(w, scale)
    out = np.einsum("bchw,Hh,Ww->bcHW", x.data, mh, mw, optimize=True)

    def bw(g):
        return (np.einsum("bcHW,Hh,Ww->bchw", g, mh, mw, optimize=True),)

    return _node(out, (x,), bw)


def upsample_disparity(d0_values: Tensor, scale: int = 4) -> Tensor:
    """Bring a coarse disparity field to full resolution: bilinear on the
    grid, times `scale` on the values (disparity is measured in pixels of
    its own grid)."""
    return ad.mul(bilinear_upsample(d0_values, scale), float(scale))


def smooth_l1(pred: Tensor, gt: np.ndarray, mask: np.ndarray, beta: float = 1.0) -> Tensor:
    """Mean over masked pixels of the Huber-style penalty
    0.5*e^2/beta for |e| < beta, |e| - 0.5*beta otherwise."""
    gt = np.asarray(gt, dtype=np.float64)
    mask = np.asarray(mask).astype(bool)
    if pred.shape != gt.shape or gt.shape != mask.shape:
        raise ShapeError(
            f"smooth_l1 shapes differ: pred {pred.shape}, gt {gt.shape}, mask {mask.shape}"
        )
    count = int(mask.sum())
    if count == 0:
        raise ShapeError("smooth_l1: mask selects zero pixels; no valid supervision")
    err = ad.sub(pred, Tensor(gt))
    abs_err = ad.absval(err)
    # The two branches agree in value and slope at |e| = beta, so freezing
    # the branch choice at the evaluation point is gradient-exact.
    quad_zone = ((abs_err.data < beta) & mask).astype(np.float64)
    lin_zone = ((abs_err.data >= beta) & mask).astype(np.float64)
    quad = ad.mul(ad.mul(err, err), 0.5 / beta)
    lin = ad.sub(abs_err, 0.5 * beta)
    total = ad.add(
        ad.tsum(ad.mul(quad, quad_zone)),
        ad.tsum(ad.mul(lin, lin_zone)),
    )
    return ad.div(total, float(count))


def total_loss(d0_upsampled: Tensor, d1: Tensor, gt: np.ndarray, mask: np.ndarray) -> Tensor:
    """LAMBDA0 * smooth-L1(d0) + LAMBDA1 * smooth-L1(d1), both outputs already
    at full resolution."""
    term0 = smooth_l1(d0_upsampled, gt, mask)
    term1 = smooth_l1(d1, gt, mask)
    return ad.add(ad.mul(term0, LAMBDA0), ad.mul(term1, LAMBDA1))

"""Convolution primitives (2-D and 3-D) and their transposed counterparts.

Everything runs on three kernels of one strided correlation: its forward, its
kernel gradient and its input gradient (the exact adjoint of the forward).
The transposed convolution *is* that adjoint applied as a forward op, so the
inner-product identity ``<conv(x), y> == <x, conv_transpose(y)>`` holds up to
roundoff.  The forward and the kernel gradient pick one of two lowerings to
GEMMs by the stride and the column matrix, ``B·Ci·∏K·∏O`` elements:

* a stride-1 call above ``_COLUMNS`` elements (large maps, few channels) runs
  kn2row / flat shift, with no im2col buffer: on the zero-padded input
  flattened row-major each kernel tap reads one contiguous run, so with the
  last axis's taps stacked once, each remaining tap is one GEMM accumulated on
  the output grid (for the kernel gradient, with the cotangent on that grid).
* every other call gathers its columns (im2col) from a window view of the
  zero-padded input at the conv's own stride, in tiles of whole rows of the
  first output axis, each at most ``_COLUMNS`` elements but at least one row.
  Per tile, the forward is one GEMM with the kernel as a free [Co, Ci·∏K]
  view, written into the tile's rows of the output, and the kernel gradient
  one GEMM ``g·colsᵀ`` with the batch folded in, summed over the tiles.

The input gradient of a strided call whose columns fit ``_COLUMNS`` is col2im:
``Wᵀ·g``, then one strided add per tap into the padded input grid and a crop.
Any other input gradient is polyphase: one stride-1 correlation per stride
phase (a stride-1 call is the one phase), written straight to every stride-th
input position, so no multiply-add hits a structural zero.
"""

from __future__ import annotations

import itertools
from math import prod

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ShapeError
from .tensor import Tensor, _lift, _node

__all__ = [
    "conv2d",
    "conv3d",
    "conv_transpose2d",
    "conv_transpose3d",
]

# GEMM columns per kn2row block: every tap runs on one block before the next,
# so the block's output and products stay in cache while they are summed.
_BLOCK = 4096
# Column-matrix elements (B·Ci·∏K·∏O), 2 MiB in float32: the most that one
# gathered tile holds, and the size above which a stride-1 call takes kn2row,
# whose GEMMs on views beat the gather for large maps with few channels.
_COLUMNS = 1 << 19


def _norm_tuple(value, n: int, name: str) -> tuple[int, ...]:
    if isinstance(value, int):
        value = (value,) * n
    value = tuple(int(v) for v in value)
    if len(value) != n:
        raise ShapeError(f"{name} must have {n} entries, got {value}")
    return value


def _out_spatial(spatial, kshape, stride, pads) -> tuple[int, ...]:
    """Output extents of a strided correlation over the padded spatial axes."""
    osp = []
    for ax, (n, k, s, (lo, hi)) in enumerate(zip(spatial, kshape, stride, pads)):
        if n + lo + hi < k:
            raise ShapeError(
                f"spatial axis {ax}: padded extent {n + lo + hi} is smaller "
                f"than kernel extent {k}"
            )
        osp.append((n + lo + hi - k) // s + 1)
    return tuple(osp)


def _small(b, c, kshape, osp) -> bool:
    """Whether a call's column matrix, B·C·∏K·∏O elements, is within the budget."""
    return b * c * prod(kshape) * prod(osp) <= _COLUMNS


def _pad(x, pads):
    """x [B,C,*S] zero-padded by pads, one (lo, hi) pair per spatial axis: lo
    zeros before, hi after; a negative side drops that many entries of x
    instead.  A view of x when no side is positive."""
    keep = (slice(None), slice(None))
    x = x[keep + tuple(slice(max(0, -lo), n + min(0, hi)) for n, (lo, hi) in zip(x.shape[2:], pads))]
    lo, hi = [max(0, a) for a, _ in pads], [max(0, b) for _, b in pads]
    if not any(lo) and not any(hi):
        return x
    padded = np.zeros(x.shape[:2] + tuple(a + n + b for a, n, b in zip(lo, x.shape[2:], hi)), x.dtype)
    padded[keep + tuple(slice(a, a + n) for a, n in zip(lo, x.shape[2:]))] = x
    return padded


def _tiles(x, kshape, stride, pads, osp):
    """Yield (rows, window) per tile of the im2col gather of x [B,C,*S],
    zero-padded by pads.  rows is a slice of the first output axis, as many
    rows as fit _COLUMNS but at least one, and window the read-only view
    [B,C,*K,rows,*O[1:]] whose entry (b, c, k, o) is padded position o·s + k.
    Copying a window gathers its tile's columns."""
    padded = _pad(x, pads)
    spatial = padded.strides[2:]
    view = as_strided(
        padded,
        padded.shape[:2] + tuple(kshape) + tuple(osp),
        padded.strides[:2] + spatial + tuple(q * s for q, s in zip(spatial, stride)),
        writeable=False,
    )
    step = max(1, _COLUMNS // (prod(x.shape[:2]) * prod(kshape) * prod(osp[1:])))
    lead = (slice(None),) * (2 + len(kshape))
    for start in range(0, osp[0], step):
        rows = slice(start, start + step)
        yield rows, view[lead + (rows,)]


def _lowering(x, kshape, pads):
    """Flat-shift lowering (kn2row) of a stride-1 correlation of x [B,C,*S],
    zero-padded by pads as in _pad, with a kernel of kshape: GEMMs on views,
    no im2col.

    The padded x is the grid P = O + K − 1.  On it, flattened row-major, the
    tap (a, b, ..., c) reads the contiguous run from a·P1·P2 + b·P2 + c.
    Stacking the last axis's k taps once (k shifted copies of the grid) makes
    each leading tap one view `stack[:, :, o:o + span]` of [B, C·k, span] whose
    inner axis pairs with `w[:, :, a, b, :]`; its column n is the output at
    position n of the output grid [O0, P1, ..., P_last], where [:, :O1, ...]
    is valid.  The padded grid is freed once the stack is built, before the
    caller allocates its output grid.

    Returns the output grid, the index of its valid part, the span, and the
    list of (leading tap, view).
    """
    osp = _out_spatial(x.shape[2:], kshape, (1,) * len(kshape), pads)
    grid = _pad(x, pads)
    (b, c), spatial = grid.shape[:2], grid.shape[2:]
    size = prod(spatial)
    pitch = [prod(spatial[i + 1 :]) for i in range(len(spatial))]
    span = 1 + sum((o - 1) * q for o, q in zip(osp, pitch))
    k, length = kshape[-1], size - kshape[-1] + 1
    flat = grid.reshape(b, c, size)
    stack = np.empty((b, c, k, length), x.dtype)
    for t in range(k):
        stack[:, :, t] = flat[:, :, t : t + length]
    del grid, flat  # only the stack stays alive while the GEMMs run
    stack = stack.reshape(b, c * k, length)
    views = []
    for lead in itertools.product(*(range(n) for n in kshape[:-1])):
        o = sum(a * q for a, q in zip(lead, pitch))
        views.append((lead, stack[:, :, o : o + span]))
    valid = (slice(None), slice(None)) + tuple(slice(o) for o in osp)
    return (osp[0],) + spatial[1:], valid, span, views


def _corr_forward(x, w, stride, pads) -> np.ndarray:
    """Plain strided correlation of x [B,Ci,*S] with w [Co,Ci,*K] -> [B,Co,*O],
    on the kn2row path returned as a view of the output grid."""
    (b, c), co, kshape = x.shape[:2], len(w), w.shape[2:]
    osp = _out_spatial(x.shape[2:], kshape, stride, pads)
    dtype = np.result_type(x, w)
    if max(stride) > 1 or _small(b, c, kshape, osp):
        out = np.empty((b, co) + osp, dtype)
        wm = w.reshape(co, -1)
        for rows, window in _tiles(x, kshape, stride, pads, osp):
            np.matmul(wm, window.reshape(b, wm.shape[1], -1), out=out[:, :, rows].reshape(b, co, -1))
        return out
    ogrid, valid, span, views = _lowering(x, kshape, pads)
    acc = np.zeros((b, co) + ogrid, dtype)
    flat = acc.reshape(b, co, -1)[:, :, :span]
    gemms = [(w[(slice(None), slice(None)) + lead].reshape(co, -1), view) for lead, view in views]
    for start in range(0, span, _BLOCK):
        cols = slice(start, start + _BLOCK)
        block = flat[:, :, cols]
        for wt, view in gemms:
            block += wt @ view[:, :, cols]
    return acc[valid]


def _corr_kernel_grad(x, g, stride, pads, kshape) -> np.ndarray:
    """Gradient of the correlation above with respect to the kernel: per tile,
    one GEMM of g with the gathered columns, or the kn2row loop with g
    embedded on the output grid."""
    (b, c), co, nsp = x.shape[:2], g.shape[1], len(kshape)
    if max(stride) > 1 or _small(b, c, kshape, g.shape[2:]):
        # columns ordered [Ci,*K,B,*O]: the batch folds into the GEMM's inner axis
        order = (1, *range(2, 2 + nsp), 0, *range(2 + nsp, 2 + 2 * nsp))
        parts = (
            g[:, :, rows].swapaxes(0, 1).reshape(co, -1)
            @ window.transpose(order).reshape(c * prod(kshape), -1).T
            for rows, window in _tiles(x, kshape, stride, pads, g.shape[2:])
        )
        gw = next(parts)
        for part in parts:
            gw += part
        return gw.reshape((co, c) + tuple(kshape))
    ogrid, valid, span, views = _lowering(x, kshape, pads)
    gg = np.zeros((b, co) + ogrid, np.result_type(x, g))
    gg[valid] = g
    gflat = gg.reshape(b, co, -1)[:, :, :span]
    gw = np.zeros((co, c) + tuple(kshape), gg.dtype)
    for start in range(0, span, _BLOCK):
        cols = slice(start, start + _BLOCK)
        block = gflat[:, :, cols]
        for lead, view in views:
            gemm = block @ view[:, :, cols].swapaxes(1, 2)
            gw[(slice(None), slice(None)) + lead] += gemm.sum(axis=0).reshape(co, c, -1)
    return gw


def _corr_input_grad(g, w, stride, padding, in_spatial) -> np.ndarray:
    """Adjoint of the correlation: scatter g [B,Co,*O] back to [B,Ci,*S].

    A strided call whose columns fit the budget is col2im: the columns Wᵀ·g,
    each tap's added at every stride-th position of the padded input grid
    from the tap on, then the crop to the input.  Any other call is
    polyphase, and a stride-1 call is its one phase, whose correlation may
    gather.  Kernel taps r, r+s, r+2s, ... of an axis only reach padded
    input positions r (mod s), so each stride phase r is one stride-1 full
    correlation of g with its flipped, channel-swapped sub-kernel, whose entry
    j lands on padded position r + s*j.  Per axis, the phase's correlation is
    padded so that it yields exactly the entries j in [first, stop) that land
    inside the input: lo = ksub - 1 - first zeros before g (negative when the
    phase starts inside g) and hi = stop - O after it (negative when the
    input ends before the full correlation does).  Each result is written
    straight to its input positions; a tail that no tap reaches stays zero.
    """
    nsp, (b, co), kshape = len(in_spatial), g.shape[:2], w.shape[2:]
    keep, spatial = (slice(None), slice(None)), tuple(range(2, 2 + nsp))
    if max(stride) > 1 and _small(b, w.shape[1], kshape, g.shape[2:]):
        cols = w.reshape(co, -1).T @ g.reshape(b, co, -1)
        cols = cols.reshape((b, w.shape[1]) + kshape + g.shape[2:])
        grid = np.zeros(
            (b, w.shape[1]) + tuple(n + 2 * p for n, p in zip(in_spatial, padding)), cols.dtype
        )
        for tap in np.ndindex(*kshape):
            at = tuple(slice(t, t + s * (o - 1) + 1, s) for t, s, o in zip(tap, stride, g.shape[2:]))
            grid[keep + at] += cols[keep + tap]
        return np.ascontiguousarray(
            grid[keep + tuple(slice(p, p + n) for p, n in zip(padding, in_spatial))]
        )
    out = np.zeros(g.shape[:1] + w.shape[1:2] + tuple(in_spatial), np.result_type(g, w))
    for phase in np.ndindex(*(min(s, k) for s, k in zip(stride, w.shape[2:]))):
        pads, at = [], []
        for r, s, p, n, o, k in zip(phase, stride, padding, in_spatial, g.shape[2:], w.shape[2:]):
            ksub = (k - 1 - r) // s + 1
            first = -(-(p - r) // s)
            stop = min(-(-(p + n - r) // s), o + ksub - 1)
            pads.append((ksub - 1 - first, stop - o))
            at.append(slice(r + s * first - p, r + s * stop - p, s))
        if any(sl.start >= sl.stop for sl in at):
            continue  # no input position of this phase is reached
        sub = w[keep + tuple(slice(r, None, s) for r, s in zip(phase, stride))]
        w_sub = np.flip(sub, axis=spatial).swapaxes(0, 1)
        out[keep + tuple(at)] = _corr_forward(g, w_sub, (1,) * nsp, pads)
    return out


def _conv(x, w, bias, stride, padding, nsp, op, transpose) -> Tensor:
    """One conv node.  A conv correlates x with w [Co,Ci,*K]; a transposed
    conv applies the adjoint of that map with w [Ci,Co,*K].  Each direction's
    backward is the other direction, so the two share every kernel."""
    x, w = _lift(x), _lift(w)
    if x.ndim != nsp + 2:
        raise ShapeError(f"{op}: input must have {nsp + 2} axes, got shape {x.shape}")
    if w.ndim != nsp + 2:
        raise ShapeError(f"{op}: kernel must have {nsp + 2} axes, got shape {w.shape}")
    stride = _norm_tuple(stride, nsp, f"{op} stride")
    padding = _norm_tuple(padding, nsp, f"{op} padding")
    if any(s < 1 for s in stride):
        raise ShapeError(f"{op}: stride must be positive, got {stride}")
    if any(p < 0 for p in padding):
        raise ShapeError(f"{op}: padding must be non-negative, got {padding}")
    cin, cout = (w.shape[0], w.shape[1]) if transpose else (w.shape[1], w.shape[0])
    if x.shape[1] != cin:
        raise ShapeError(
            f"{op}: input channel axis has extent {x.shape[1]} but kernel expects {cin}"
        )
    kshape = w.shape[2:]
    if transpose:
        out_spatial = tuple(
            (x.shape[2 + i] - 1) * stride[i] - 2 * padding[i] + kshape[i] for i in range(nsp)
        )
        for ax, extent in enumerate(out_spatial):
            if extent < 1:
                raise ShapeError(
                    f"{op}: computed output extent {extent} on spatial axis {ax} "
                    f"(input {x.shape[2 + ax]}, kernel {kshape[ax]}, stride {stride[ax]}, "
                    f"padding {padding[ax]})"
                )
    parents = [x, w]
    if bias is not None:
        bias = _lift(bias)
        if bias.shape != (cout,):
            raise ShapeError(f"{op}: bias shape {bias.shape} != ({cout},)")
        parents.append(bias)

    pads = tuple((p, p) for p in padding)
    if transpose:
        out = _corr_input_grad(x.data, w.data, stride, padding, out_spatial)
    else:
        out = np.ascontiguousarray(_corr_forward(x.data, w.data, stride, pads))
    if bias is not None:
        out += bias.data.reshape((1, -1) + (1,) * nsp)

    def bw(g):
        gx = None  # an input that needs no gradient, such as an image, gets none
        if transpose:
            if x.requires_grad:
                gx = np.ascontiguousarray(_corr_forward(g, w.data, stride, pads))
            gw = _corr_kernel_grad(g, x.data, stride, pads, kshape)
        else:
            if x.requires_grad:
                gx = _corr_input_grad(g, w.data, stride, padding, x.shape[2:])
            gw = _corr_kernel_grad(x.data, g, stride, pads, kshape)
        if bias is None:
            return gx, gw
        gb = g.sum(axis=(0,) + tuple(range(2, 2 + nsp)))
        return gx, gw, gb

    return _node(out, parents, bw)


def conv2d(x, w, bias=None, stride=1, padding=0) -> Tensor:
    """Correlate x [B,Ci,H,W] with w [Co,Ci,kh,kw] -> [B,Co,H',W'] (zero padding)."""
    return _conv(x, w, bias, stride, padding, 2, "conv2d", False)


def conv3d(x, w, bias=None, stride=1, padding=0) -> Tensor:
    """Correlate x [B,Ci,D,H,W] with w [Co,Ci,kd,kh,kw] -> [B,Co,D',H',W'].

    Stride and padding may differ per spatial axis (depth axis included).
    """
    return _conv(x, w, bias, stride, padding, 3, "conv3d", False)


def conv_transpose2d(x, w, bias=None, stride=1, padding=0) -> Tensor:
    """Adjoint of :func:`conv2d` with the same kernel layout [Cin,Cout,kh,kw]
    seen from this op's point of view: x [B,Cin,H,W] -> [B,Cout,H',W'] with
    H' = (H-1)*stride - 2*padding + kh."""
    return _conv(x, w, bias, stride, padding, 2, "conv_transpose2d", True)


def conv_transpose3d(x, w, bias=None, stride=1, padding=0) -> Tensor:
    """Adjoint of :func:`conv3d`; kernel layout [Cin,Cout,kd,kh,kw]."""
    return _conv(x, w, bias, stride, padding, 3, "conv_transpose3d", True)

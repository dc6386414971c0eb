"""Convolution primitives (2-D and 3-D) and their transposed counterparts.

Everything runs on three kernels of one strided correlation: its forward, its
kernel gradient and its input gradient (the exact adjoint of the forward).
The transposed convolution *is* that adjoint applied as a forward op, so the
inner-product identity ``<conv(x), y> == <x, conv_transpose(y)>`` holds up to
roundoff.

The forward and the kernel gradient gather their columns (im2col) from a
window view of the zero-padded input at the conv's own stride, in tiles over
the first two output axes of at most ``_COLUMNS`` elements each (the column
matrix is ``B·Ci·∏K·∏O`` elements): whole rows of the first axis while one
row fits, else one row and as many entries of the second axis as fit, at
least one.  Per tile, the forward is one GEMM with the kernel as a free
[Co, Ci·∏K] view, written into the tile's slice of the output, and the kernel
gradient one GEMM ``cols·gᵀ`` with the batch folded in, summed over the
tiles and transposed once.

When the process may use two CPUs, a forward of at least ``_SPLIT`` column
elements (four tiles) runs the second half of its tiles on a worker thread
while the caller runs the first; numpy releases the GIL in the gather copy
and the GEMM, so the halves overlap.  Each tile is the serial loop's GEMM
and writes only its own slice of the output, so the bits are the same.

The input gradient of a strided call whose columns fit ``_COLUMNS`` is col2im:
``Wᵀ·g``, then one strided add per tap into the padded input grid and a crop.
Any other input gradient is polyphase: one stride-1 correlation per stride
phase, written straight to every stride-th input position, so no multiply-add
hits a structural zero.  A stride-1 call is the one phase, and its
correlation is the result.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import cache
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

# Column-matrix elements (B·Ci·∏K·∏O), 512 KiB in float32: the most that one
# gathered tile holds, so that a tile's gather and GEMM stay in cache, and the
# most that col2im's column matrix holds.
_COLUMNS = 1 << 17
_SPLIT = 4 * _COLUMNS  # column-matrix elements from which a forward splits over two threads


@cache
def _worker() -> ThreadPoolExecutor | None:
    """The one thread that runs the second half of a split forward's tiles,
    made on first use; None when the process may use only one CPU."""
    return ThreadPoolExecutor(1) if len(os.sched_getaffinity(0)) > 1 else None


os.register_at_fork(after_in_child=_worker.cache_clear)  # a forked child has no worker thread


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
    """Yield (at, window) per tile of the im2col gather of x [B,C,*S],
    zero-padded by pads.  at indexes the tile in the first two output axes:
    as many whole rows of the first as fit _COLUMNS while one row fits, else
    one row and as many entries of the second as fit, at least one.  window
    is the read-only view [B,C,*K,*tile] whose entry (b, c, k, o) is padded
    position o·s + k.  Copying a window gathers its tile's columns."""
    padded = _pad(x, pads)
    spatial = padded.strides[2:]
    view = as_strided(
        padded,
        padded.shape[:2] + tuple(kshape) + tuple(osp),
        padded.strides[:2] + spatial + tuple(q * s for q, s in zip(spatial, stride)),
        writeable=False,
    )
    per = prod(x.shape[:2]) * prod(kshape) * prod(osp[2:])  # columns per entry of the second output axis
    rows = _COLUMNS // (per * osp[1])
    cols = osp[1] if rows else max(1, _COLUMNS // per)
    rows = max(1, rows)
    lead = (slice(None),) * (2 + len(kshape))
    for r in range(0, osp[0], rows):
        for c in range(0, osp[1], cols):
            at = (slice(r, r + rows), slice(c, c + cols))
            yield at, view[lead + at]


def _corr_forward(x, w, stride, pads) -> np.ndarray:
    """Plain strided correlation of x [B,Ci,*S] with w [Co,Ci,*K] -> [B,Co,*O]."""
    b, co, kshape = len(x), len(w), w.shape[2:]
    osp = _out_spatial(x.shape[2:], kshape, stride, pads)
    out = np.empty((b, co) + osp, np.result_type(x, w))
    wm = w.reshape(co, -1)

    def run(tiles):
        for at, window in tiles:
            # the tile's slice of out spans whole trailing axes, so this reshape is a view
            dst = out[(slice(None),) * 2 + at].reshape(b, co, -1)
            np.matmul(wm, window.reshape(b, wm.shape[1], -1), out=dst)

    tiles = _tiles(x, kshape, stride, pads, osp)
    worker = _worker() if b * wm.shape[1] * prod(osp) >= _SPLIT else None
    if worker is None:
        run(tiles)
        return out
    tiles = list(tiles)
    half = len(tiles) // 2
    rest = worker.submit(run, tiles[half:])
    try:
        run(tiles[:half])
    finally:
        rest.result()  # no tile runs after the call returns, and its error is raised here
    return out


def _corr_kernel_grad(x, g, stride, pads, kshape) -> np.ndarray:
    """Gradient of the correlation above with respect to the kernel: per tile,
    one GEMM ``cols·gᵀ``, summed over the tiles and transposed at the end."""
    (b, c), co, nsp = x.shape[:2], g.shape[1], len(kshape)
    # columns ordered [Ci,*K,B,*O]: the batch folds into the GEMM's inner axis
    order = (1, *range(2, 2 + nsp), 0, *range(2 + nsp, 2 + 2 * nsp))
    parts = (
        window.transpose(order).reshape(c * prod(kshape), -1)
        @ g[(slice(None),) * 2 + at].swapaxes(0, 1).reshape(co, -1).T
        for at, window in _tiles(x, kshape, stride, pads, g.shape[2:])
    )
    gw = next(parts)
    for part in parts:
        gw += part
    return np.ascontiguousarray(gw.T).reshape((co, c) + tuple(kshape))


def _corr_input_grad(g, w, stride, padding, in_spatial) -> np.ndarray:
    """Adjoint of the correlation: scatter g [B,Co,*O] back to [B,Ci,*S].

    A strided call whose columns fit the budget is col2im: the columns Wᵀ·g,
    each tap's added at every stride-th position of the padded input grid
    from the tap on, then the crop to the input.  Any other call is
    polyphase, and a stride-1 call is its one phase.  Kernel taps r, r+s,
    r+2s, ... of an axis only reach padded input positions r (mod s), so each
    stride phase r is one stride-1 full correlation of g with its flipped,
    channel-swapped sub-kernel, whose entry j lands on padded position
    r + s*j.  Per axis, the phase's correlation is padded so that it yields
    exactly the entries j in [first, stop) that land inside the input:
    lo = ksub - 1 - first zeros before g (negative when the phase starts
    inside g) and hi = stop - O after it (negative when the input ends before
    the full correlation does).  Each result is written straight to its input
    positions; a tail that no tap reaches stays zero.  The one phase of a
    stride-1 call covers the input, so its correlation is the result.
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
    if max(stride) == 1:  # first = p and stop = p + n on every axis
        pads = [(k - 1 - p,) * 2 for k, p in zip(kshape, padding)]
        return _corr_forward(g, np.flip(w, axis=spatial).swapaxes(0, 1), stride, pads)
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
        out = _corr_forward(x.data, w.data, stride, pads)
    if bias is not None:
        out += bias.data.reshape((1, -1) + (1,) * nsp)

    def bw(g):
        gx = None  # an input that needs no gradient, such as an image, gets none
        if transpose:
            if x.requires_grad:
                gx = _corr_forward(g, w.data, stride, pads)
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

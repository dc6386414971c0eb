"""Convolution primitives (2-D and 3-D) and their transposed counterparts.

The forward pass is a strided cross-correlation built from
``sliding_window_view`` + ``tensordot``.  The input-gradient routine is the
exact adjoint of the forward map, computed per stride phase: one stride-1
correlation of the cotangent with that phase's channel-swapped,
spatially-flipped sub-kernel, written to every stride-th input position, so no
multiply-add hits a structural zero.  The transposed convolution *is* that
adjoint applied as a forward op.  Sharing one code path guarantees the
inner-product identity ``<conv(x), y> == <x, conv_transpose(y)>`` up to
roundoff.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from .tensor import Tensor, _lift, _node

__all__ = [
    "conv2d",
    "conv3d",
    "conv_transpose2d",
    "conv_transpose3d",
]

def _norm_tuple(value, n: int, name: str) -> tuple[int, ...]:
    if isinstance(value, int):
        value = (value,) * n
    value = tuple(int(v) for v in value)
    if len(value) != n:
        raise ShapeError(f"{name} must have {n} entries, got {value}")
    return value


def _windows(x, kshape, stride, padding) -> np.ndarray:
    """Kernel-sized windows of the zero-padded x [B,C,*S], one per output
    position: [B,C,*O,*K]."""
    nsp = x.ndim - 2
    if any(padding):
        x = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in padding])
    for ax in range(nsp):
        if x.shape[2 + ax] < kshape[ax]:
            raise ShapeError(
                f"spatial axis {ax}: padded extent {x.shape[2 + ax]} is smaller "
                f"than kernel extent {kshape[ax]}"
            )
    win = sliding_window_view(x, kshape, axis=tuple(range(2, 2 + nsp)))
    return win[(slice(None), slice(None)) + tuple(slice(None, None, s) for s in stride)]


def _corr_forward(x, w, stride, padding) -> np.ndarray:
    """Plain strided correlation of x [B,Ci,*S] with w [Co,Ci,*K] -> [B,Co,*O]."""
    nsp = x.ndim - 2
    win = _windows(x, w.shape[2:], stride, padding)
    axes_x = [1] + list(range(2 + nsp, 2 + 2 * nsp))
    axes_w = [1] + list(range(2, 2 + nsp))
    out = np.tensordot(win, w, axes=(axes_x, axes_w))
    return np.ascontiguousarray(np.moveaxis(out, -1, 1))


def _corr_kernel_grad(x, g, stride, padding, kshape) -> np.ndarray:
    """Gradient of the correlation above with respect to the kernel."""
    spatial = list(range(2, x.ndim))
    win = _windows(x, kshape, stride, padding)
    return np.tensordot(g, win, axes=([0] + spatial, [0] + spatial))


def _corr_input_grad(g, w, stride, padding, in_spatial) -> np.ndarray:
    """Adjoint of the correlation: scatter g [B,Co,*O] back to [B,Ci,*S].

    Polyphase: kernel taps r, r+s, r+2s, ... of an axis only reach padded
    input positions r (mod s), so each stride phase r is one stride-1 full
    correlation of g with its flipped, channel-swapped sub-kernel, written to
    the positions r::s of the padded input.  The buffer also covers any tail
    no tap reaches (left zero); the padding is cropped away.
    """
    nsp = len(in_spatial)
    osp, kshape = g.shape[2:], w.shape[2:]
    size = tuple(
        max(stride[i] * (osp[i] - 1 - (-kshape[i] // stride[i])), padding[i] + in_spatial[i])
        for i in range(nsp)
    )
    out = np.zeros(g.shape[:1] + w.shape[1:2] + size, dtype=np.result_type(g, w))
    keep, spatial = (slice(None), slice(None)), tuple(range(2, 2 + nsp))
    for phase in np.ndindex(*(min(s, k) for s, k in zip(stride, kshape))):
        sub = w[keep + tuple(slice(r, None, s) for r, s in zip(phase, stride))]
        w_sub = np.flip(sub, axis=spatial).swapaxes(0, 1)
        dxp = _corr_forward(g, w_sub, (1,) * nsp, tuple(k - 1 for k in sub.shape[2:]))
        at = tuple(slice(r, r + s * n, s) for r, s, n in zip(phase, stride, dxp.shape[2:]))
        out[keep + at] = dxp
    crop = keep + tuple(slice(padding[i], padding[i] + in_spatial[i]) for i in range(nsp))
    return np.ascontiguousarray(out[crop])


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

    if transpose:
        out = _corr_input_grad(x.data, w.data, stride, padding, out_spatial)
    else:
        out = _corr_forward(x.data, w.data, stride, padding)
    if bias is not None:
        out = out + bias.data.reshape((1, -1) + (1,) * nsp)

    def bw(g):
        if transpose:
            gx = _corr_forward(g, w.data, stride, padding)
            gw = _corr_kernel_grad(g, x.data, stride, padding, kshape)
        else:
            gx = _corr_input_grad(g, w.data, stride, padding, x.shape[2:])
            gw = _corr_kernel_grad(x.data, g, stride, padding, kshape)
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

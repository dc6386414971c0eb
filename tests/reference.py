"""Slow, loop-based reference implementations used as oracles by the tests.

Everything here is written in the most literal way possible (scalar loops,
extended precision where it is cheap) and deliberately shares no code with
the package under test.
"""

from __future__ import annotations

import itertools

import numpy as np


def conv2d_naive(x, w, bias=None, stride=(1, 1), padding=(0, 0)):
    batch, cin, height, width = x.shape
    cout, cin_w, kh, kw = w.shape
    assert cin == cin_w
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho = (height + 2 * ph - kh) // sh + 1
    wo = (width + 2 * pw - kw) // sw + 1
    out = np.zeros((batch, cout, ho, wo))
    for b in range(batch):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[b, ci, i * sh + u, j * sw + v] * w[co, ci, u, v]
                    if bias is not None:
                        acc += bias[co]
                    out[b, co, i, j] = acc
    return out


def conv3d_naive(x, w, bias=None, stride=(1, 1, 1), padding=(0, 0, 0)):
    batch, cin, depth, height, width = x.shape
    cout, cin_w, kd, kh, kw = w.shape
    assert cin == cin_w
    sd, sh, sw = stride
    pd, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    do = (depth + 2 * pd - kd) // sd + 1
    ho = (height + 2 * ph - kh) // sh + 1
    wo = (width + 2 * pw - kw) // sw + 1
    out = np.zeros((batch, cout, do, ho, wo))
    for b in range(batch):
        for co in range(cout):
            for z in range(do):
                for i in range(ho):
                    for j in range(wo):
                        acc = 0.0
                        for ci in range(cin):
                            for t in range(kd):
                                for u in range(kh):
                                    for v in range(kw):
                                        acc += (
                                            xp[b, ci, z * sd + t, i * sh + u, j * sw + v]
                                            * w[co, ci, t, u, v]
                                        )
                        if bias is not None:
                            acc += bias[co]
                        out[b, co, z, i, j] = acc
    return out


def conv_kernel_grad_naive(x, g, kshape, stride, padding):
    """Kernel gradient of a 2-D or 3-D correlation of x [B,Ci,*S] with a
    kernel [Co,Ci,*kshape] whose output cotangent is g [B,Co,*O]:
    gw[co, ci, *u] = sum over b and output positions o of
    g[b, co, *o] * x_padded[b, ci, *(o * stride + u)]."""
    batch, cin = x.shape[:2]
    cout, osp = g.shape[1], g.shape[2:]
    xp = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in padding])
    gw = np.zeros((cout, cin) + tuple(kshape))
    for co in range(cout):
        for ci in range(cin):
            for u in itertools.product(*(range(k) for k in kshape)):
                acc = 0.0
                for b in range(batch):
                    for o in itertools.product(*(range(n) for n in osp)):
                        at = tuple(oi * si + ui for oi, si, ui in zip(o, stride, u))
                        acc += g[(b, co) + o] * xp[(b, ci) + at]
                gw[(co, ci) + u] = acc
    return gw


def conv_transpose2d_naive(x, w, bias=None, stride=(1, 1), padding=(0, 0)):
    batch, c1, height, width = x.shape
    c1_w, c2, kh, kw = w.shape
    assert c1 == c1_w
    sh, sw = stride
    ph, pw = padding
    ho = (height - 1) * sh + kh
    wo = (width - 1) * sw + kw
    canvas = np.zeros((batch, c2, ho, wo))
    for b in range(batch):
        for ci in range(c1):
            for i in range(height):
                for j in range(width):
                    for co in range(c2):
                        for u in range(kh):
                            for v in range(kw):
                                canvas[b, co, i * sh + u, j * sw + v] += (
                                    x[b, ci, i, j] * w[ci, co, u, v]
                                )
    out = canvas[:, :, ph : ho - ph, pw : wo - pw]
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return out


def conv_transpose3d_naive(x, w, bias=None, stride=(1, 1, 1), padding=(0, 0, 0)):
    batch, c1, depth, height, width = x.shape
    c1_w, c2, kd, kh, kw = w.shape
    assert c1 == c1_w
    sd, sh, sw = stride
    pd, ph, pw = padding
    do = (depth - 1) * sd + kd
    ho = (height - 1) * sh + kh
    wo = (width - 1) * sw + kw
    canvas = np.zeros((batch, c2, do, ho, wo))
    for b in range(batch):
        for ci in range(c1):
            for z in range(depth):
                for i in range(height):
                    for j in range(width):
                        for co in range(c2):
                            for t in range(kd):
                                for u in range(kh):
                                    for v in range(kw):
                                        canvas[
                                            b, co, z * sd + t, i * sh + u, j * sw + v
                                        ] += x[b, ci, z, i, j] * w[ci, co, t, u, v]
    out = canvas[:, :, pd : do - pd, ph : ho - ph, pw : wo - pw]
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1, 1)
    return out


def softmax_highprec(x, axis):
    """Softmax evaluated in extended precision without max subtraction."""
    xl = np.asarray(x, dtype=np.longdouble)
    e = np.exp(xl - xl.max(axis=axis, keepdims=True))
    return (e / e.sum(axis=axis, keepdims=True)).astype(np.float64)


def correlation_naive(f_left, f_right, num_disp, eps):
    """Per-pixel cosine similarity between left features and d-shifted right
    features; candidates reaching past the left image border score zero."""
    batch, cch, height, width = f_left.shape
    out = np.zeros((batch, 1, num_disp, height, width))
    for b in range(batch):
        for d in range(num_disp):
            for y in range(height):
                for x in range(width):
                    if x - d < 0:
                        continue
                    a = f_left[b, :, y, x]
                    c = f_right[b, :, y, x - d]
                    na = np.sqrt(np.dot(a, a) + 1e-30)
                    nc = np.sqrt(np.dot(c, c) + 1e-30)
                    out[b, 0, d, y, x] = np.dot(a, c) / (na * nc + eps)
    return out


def top2_softargmax_naive(cost):
    """Full-sort reference for the top-2 softmax disparity estimate.

    Ties pick the smaller disparity index first.
    """
    batch, one, num_disp, height, width = cost.shape
    assert one == 1
    out = np.zeros((batch, 1, height, width))
    for b in range(batch):
        for y in range(height):
            for x in range(width):
                values = cost[b, 0, :, y, x]
                order = sorted(range(num_disp), key=lambda d: (-values[d], d))
                i, j = order[0], order[1]
                vi, vj = values[i], values[j]
                m = max(vi, vj)
                ei, ej = np.exp(vi - m), np.exp(vj - m)
                wi = ei / (ei + ej)
                out[b, 0, y, x] = wi * i + (1.0 - wi) * j
    return out


def adam_trajectory_naive(theta0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-stepped Adam on a single scalar parameter, one grad per step."""
    theta = float(theta0)
    m = 0.0
    v = 0.0
    history = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1**t)
        vhat = v / (1.0 - beta2**t)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)
        history.append(theta)
    return history


def smooth_l1_naive(pred, gt, mask, beta):
    """Masked-mean smooth L1 evaluated with scalar branches."""
    total = 0.0
    count = 0
    flat_pred = np.asarray(pred).reshape(-1)
    flat_gt = np.asarray(gt).reshape(-1)
    flat_mask = np.asarray(mask).reshape(-1)
    for p, g, m in zip(flat_pred, flat_gt, flat_mask):
        if not m:
            continue
        diff = abs(p - g)
        if diff < beta:
            total += 0.5 * diff * diff / beta
        else:
            total += diff - 0.5 * beta
        count += 1
    return total / count


def project1x1_naive(ctx, weight):
    """Scalar-loop 1x1 channel projection of [B,Ci,H,W] with [Co,Ci,1,1]."""
    batch, cin, height, width = ctx.shape
    cout = weight.shape[0]
    out = np.zeros((batch, cout, height, width))
    for b in range(batch):
        for co in range(cout):
            for y in range(height):
                for x in range(width):
                    acc = 0.0
                    for ci in range(cin):
                        acc += ctx[b, ci, y, x] * weight[co, ci, 0, 0]
                    out[b, co, y, x] = acc
    return out


def batchnorm_train_naive(x, gamma, beta, eps=1e-5):
    axes = (0,) + tuple(range(2, x.ndim))
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    cshape = (1, -1) + (1,) * (x.ndim - 2)
    xhat = (x - mu) / np.sqrt(var + eps)
    return gamma.reshape(cshape) * xhat + beta.reshape(cshape)


def cgf_naive(g, ctx, proj_w, att_w, att_b, fuse_w, fuse_gamma, fuse_beta,
              kernel=5, slope=0.2):
    """Scalar-loop composition of the fusion block: attention from a
    sigmoid of an in-plane conv of (geometry + expanded context), then a
    second conv of (geometry + attended context) with train-mode batch norm
    and a leaky ReLU."""
    pad = (0, (kernel - 1) // 2, (kernel - 1) // 2)
    ce = project1x1_naive(ctx, proj_w)[:, :, None, :, :]  # broadcast along D
    ce = np.broadcast_to(ce, g.shape)
    pre = g + ce
    att_logits = conv3d_naive(pre, att_w, att_b, (1, 1, 1), pad)
    att = 1.0 / (1.0 + np.exp(-att_logits))
    fused_in = g + att * ce
    y = conv3d_naive(fused_in, fuse_w, None, (1, 1, 1), pad)
    y = batchnorm_train_naive(y, fuse_gamma, fuse_beta)
    return np.where(y >= 0, y, slope * y)


def bilinear_sample_row_naive(row, u):
    """Sample a 1-D signal at continuous position u with edge clamping."""
    n = len(row)
    i0 = int(np.floor(u))
    i0 = min(max(i0, 0), n - 1)
    i1 = min(i0 + 1, n - 1)
    frac = u - np.floor(u)
    return (1.0 - frac) * row[i0] + frac * row[i1]

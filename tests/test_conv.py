"""Convolution primitives against scalar-loop oracles, plus adjoint identity."""

import os
import subprocess
import sys
import tracemalloc
from math import prod
from pathlib import Path

import numpy as np
import pytest

from stereomatch import autodiff as ad
from stereomatch.autodiff import conv
from stereomatch.errors import ShapeError

from reference import (
    conv2d_naive,
    conv3d_naive,
    conv_kernel_grad_naive,
    conv_transpose2d_naive,
    conv_transpose3d_naive,
)


@pytest.fixture
def rng():
    """A fresh generator per test and case, so adding or reordering cases
    leaves the data of every other test unchanged."""
    return np.random.default_rng(20)


@pytest.fixture
def lowerings(monkeypatch):
    """Iterate ``lowerings()`` to run a case once per lowering.  First the
    column budget is 0: every forward and kernel gradient gathers one
    (row, column) tile at a time, one entry of the first two output axes,
    and every input gradient is polyphase.  Then the budget is above every
    test shape: every forward and kernel gradient gathers in one tile, and a
    strided input gradient is col2im.  So the oracles, the adjoint identity
    and the gradchecks cover multi-tile and one-tile gathers, col2im and the
    polyphase adjoint.  Each step yields the lowering's name."""

    def each():
        for name, budget in (("(row, column) tiles", 0), ("one tile", 1 << 40)):
            monkeypatch.setattr(conv, "_COLUMNS", budget)
            yield name

    return each


@pytest.mark.parametrize(
    "shape,kshape,stride,padding",
    [
        ((1, 1, 5, 5), (1, 1, 3, 3), (1, 1), (0, 0)),
        ((2, 3, 6, 7), (4, 3, 3, 3), (1, 1), (1, 1)),
        ((1, 2, 8, 8), (3, 2, 3, 3), (2, 2), (1, 1)),
        ((1, 2, 7, 9), (2, 2, 4, 4), (2, 2), (1, 1)),
        ((1, 3, 5, 5), (2, 3, 1, 1), (1, 1), (0, 0)),
        ((1, 1, 6, 6), (1, 1, 3, 3), (3, 2), (2, 1)),
    ],
)
def test_conv2d_matches_naive(shape, kshape, stride, padding, rng, lowerings):
    x = rng.standard_normal(shape)
    w = rng.standard_normal(kshape)
    b = rng.standard_normal(kshape[0])
    want = conv2d_naive(x, w, b, stride, padding)
    for lowering in lowerings():
        got = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), stride, padding)
        assert got.shape == want.shape
        assert np.allclose(got.data, want, atol=1e-12), lowering


def test_conv2d_output_shape_formula():
    x = ad.Tensor(np.zeros((1, 1, 11, 13)))
    w = ad.Tensor(np.zeros((1, 1, 3, 5)))
    out = ad.conv2d(x, w, stride=(2, 3), padding=(1, 2))
    assert out.shape == (1, 1, (11 + 2 - 3) // 2 + 1, (13 + 4 - 5) // 3 + 1)


@pytest.mark.parametrize(
    "shape,kshape,stride,padding",
    [
        ((1, 1, 4, 4, 4), (2, 1, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
        ((1, 2, 5, 4, 6), (2, 2, 1, 3, 3), (1, 1, 1), (0, 1, 1)),
        ((1, 2, 6, 6, 6), (3, 2, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
        ((1, 1, 5, 6, 6), (1, 1, 1, 5, 5), (1, 1, 1), (0, 2, 2)),
        ((1, 2, 4, 5, 5), (2, 2, 3, 3, 3), (1, 2, 2), (1, 1, 1)),
    ],
)
def test_conv3d_matches_naive(shape, kshape, stride, padding, rng, lowerings):
    x = rng.standard_normal(shape)
    w = rng.standard_normal(kshape)
    b = rng.standard_normal(kshape[0])
    want = conv3d_naive(x, w, b, stride, padding)
    for lowering in lowerings():
        got = ad.conv3d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), stride, padding)
        assert got.shape == want.shape
        assert np.allclose(got.data, want, atol=1e-12), lowering


def test_conv_rejects_bad_shapes():
    x = ad.Tensor(np.zeros((1, 3, 5, 5)))
    with pytest.raises(ShapeError):
        ad.conv2d(x, ad.Tensor(np.zeros((2, 4, 3, 3))))  # channel mismatch
    with pytest.raises(ShapeError):
        ad.conv2d(x, ad.Tensor(np.zeros((2, 3, 7, 7))))  # kernel larger than input
    with pytest.raises(ShapeError):
        ad.conv2d(x, ad.Tensor(np.zeros((2, 3, 3, 3))), stride=0)
    with pytest.raises(ShapeError):
        ad.conv3d(x, ad.Tensor(np.zeros((2, 3, 3, 3))))  # rank mismatch


@pytest.mark.parametrize(
    "shape,kshape,stride,padding",
    [
        ((1, 2, 4, 4), (2, 3, 3, 3), (1, 1), (1, 1)),
        ((1, 2, 3, 5), (2, 1, 4, 4), (2, 2), (1, 1)),
        ((2, 1, 3, 3), (1, 2, 2, 2), (2, 2), (0, 0)),
        ((1, 2, 3, 4), (2, 3, 1, 1), (2, 2), (0, 0)),  # k < s: empty phases
        ((1, 2, 3, 4), (2, 3, 2, 2), (3, 3), (0, 0)),
        ((1, 2, 3, 4), (2, 3, 3, 3), (3, 2), (2, 1)),  # uneven stride and padding
        ((1, 2, 4, 5), (2, 3, 3, 3), (2, 2), (2, 2)),  # padding >= stride
        ((1, 2, 6, 6), (2, 3, 3, 3), (1, 1), (3, 3)),  # padding >= kernel: starts inside x
    ],
)
def test_conv_transpose2d_matches_naive(shape, kshape, stride, padding, rng, lowerings):
    x = rng.standard_normal(shape)
    w = rng.standard_normal(kshape)
    b = rng.standard_normal(kshape[1])
    want = conv_transpose2d_naive(x, w, b, stride, padding)
    for lowering in lowerings():
        got = ad.conv_transpose2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), stride, padding)
        assert got.shape == want.shape
        assert np.allclose(got.data, want, atol=1e-12), lowering


def test_conv_transpose3d_matches_naive(rng, lowerings):
    x = rng.standard_normal((1, 2, 2, 3, 3))
    w = rng.standard_normal((2, 2, 4, 4, 4))
    b = rng.standard_normal(2)
    want = conv_transpose3d_naive(x, w, b, (2, 2, 2), (1, 1, 1))
    for lowering in lowerings():
        got = ad.conv_transpose3d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), (2, 2, 2), (1, 1, 1))
        assert got.shape == (1, 2, 4, 6, 6)
        assert np.allclose(got.data, want, atol=1e-12), lowering


def test_conv_transpose3d_k3_s2_matches_naive(rng, lowerings):
    """The adjoint of the encoder's k=3, s=2, p=1 downsample: phases of 2 and
    1 taps per axis."""
    x = rng.standard_normal((1, 2, 3, 4, 4))
    w = rng.standard_normal((2, 3, 3, 3, 3))
    b = rng.standard_normal(3)
    want = conv_transpose3d_naive(x, w, b, (2, 2, 2), (1, 1, 1))
    for lowering in lowerings():
        got = ad.conv_transpose3d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), 2, 1)
        assert got.shape == (1, 3, 5, 7, 7)
        assert np.allclose(got.data, want, atol=1e-12), lowering


def test_conv2d_input_grad_leaves_unreached_input_zero(rng, lowerings):
    """7x9 input, k=4, s=2: no window reaches the last row or column, so
    their input gradient is exactly zero; the rest is the scattered
    cotangent."""
    xd = rng.standard_normal((1, 2, 7, 9))
    w = rng.standard_normal((3, 2, 4, 4))
    g = rng.standard_normal((1, 3, 2, 3))
    want = np.zeros(xd.shape)
    want[:, :, :6, :8] = conv_transpose2d_naive(g, w, None, (2, 2), (0, 0))
    for lowering in lowerings():
        x = ad.Tensor(xd, requires_grad=True)
        out = ad.conv2d(x, ad.Tensor(w), None, 2, 0)
        ad.backward(ad.tsum(ad.mul(out, ad.Tensor(g))))
        assert np.allclose(x.grad, want, atol=1e-12), lowering
        assert not x.grad[:, :, 6:, :].any() and not x.grad[:, :, :, 8:].any()
        lhs, rhs = float((out.data * g).sum()), float((x.data * x.grad).sum())
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) <= 1e-10


@pytest.mark.parametrize(
    "op,xs,ks,stride,padding",
    [
        ("conv2d", (1, 2, 8, 8), (3, 2, 3, 3), (2, 2), (0, 0)),  # tail no tap reaches
        ("conv2d", (1, 2, 7, 6), (2, 2, 3, 3), (2, 2), (2, 3)),  # padding >= stride
        ("conv2d", (1, 2, 5, 6), (2, 2, 3, 3), (1, 1), (3, 4)),  # padding >= kernel
        ("conv3d", (1, 2, 5, 8, 7), (2, 2, 3, 3, 3), (1, 3, 2), (2, 1, 3)),  # uneven strides
        ("conv3d", (1, 2, 8, 8, 8), (2, 2, 3, 3, 3), (2, 2, 2), (0, 0, 0)),  # tail in 3-D
        ("conv2d", (2, 3, 6, 7), (2, 3, 3, 3), (2, 2), (1, 1)),  # batch 2
        # the polyphase adjoint pads each phase's correlation by -1 on some side
        ("conv3d", (1, 2, 4, 6, 7), (2, 2, 3, 3, 3), (1, 2, 2), (3, 3, 3)),
    ],
)
def test_input_grad_matches_naive(op, xs, ks, stride, padding, rng, lowerings):
    """x.grad of <op(x, w), g> is the scalar-loop scatter of g onto the
    padded input, cropped to x: exactly zero on a tail that no tap reaches."""
    xd = rng.standard_normal(xs)
    w = rng.standard_normal(ks)
    osp = tuple((n + 2 * p - k) // s + 1 for n, p, k, s in zip(xs[2:], padding, ks[2:], stride))
    g = rng.standard_normal(xs[:1] + ks[:1] + osp)
    naive = conv_transpose2d_naive if op == "conv2d" else conv_transpose3d_naive
    scattered = naive(g, w, None, stride, (0,) * len(stride))
    padded = np.zeros(xs[:2] + tuple(n + 2 * p for n, p in zip(xs[2:], padding)))
    padded[tuple(slice(n) for n in scattered.shape)] = scattered
    want = padded[(slice(None),) * 2 + tuple(slice(p, p + n) for n, p in zip(xs[2:], padding))]
    for lowering in lowerings():
        x = ad.Tensor(xd, requires_grad=True)
        out = getattr(ad, op)(x, ad.Tensor(w), None, stride, padding)
        ad.backward(ad.tsum(ad.mul(out, ad.Tensor(g))))
        assert np.allclose(x.grad, want, rtol=0, atol=1e-12), lowering
        assert np.count_nonzero(x.grad) == np.count_nonzero(want)


@pytest.mark.parametrize("op", ["conv2d", "conv3d"])
def test_input_needing_no_gradient_skips_the_input_grad(op, rng, monkeypatch):
    """A conv on a leaf input that needs no gradient (an image) never runs the
    input-gradient correlation; its kernel and bias gradients equal, bit for
    bit, those of the run that computes the input gradient."""
    nsp = 2 if op == "conv2d" else 3
    x = rng.standard_normal((1, 2) + (6,) * nsp)
    w = rng.standard_normal((3, 2) + (3,) * nsp)
    b = rng.standard_normal(3)
    calls = []
    real = conv._corr_input_grad
    monkeypatch.setattr(conv, "_corr_input_grad", lambda *a: calls.append(a) or real(*a))

    def grads(x_needs_grad):
        tx = ad.Tensor(x, requires_grad=x_needs_grad)
        tw, tb = ad.Tensor(w, requires_grad=True), ad.Tensor(b, requires_grad=True)
        out = getattr(ad, op)(tx, tw, tb, 2, 1)
        g = np.random.default_rng(1).standard_normal(out.shape)
        ad.backward(ad.tsum(ad.mul(out, ad.Tensor(g))))
        return tx.grad, tw.grad, tb.grad

    gx, gw, gb = grads(True)
    assert len(calls) == 1 and gx is not None
    calls.clear()
    leaf_gx, leaf_gw, leaf_gb = grads(False)
    assert calls == [] and leaf_gx is None
    assert np.array_equal(leaf_gw, gw) and np.array_equal(leaf_gb, gb)


def _traced(run):
    """run()'s result and the peak of the memory it allocates."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conv_transpose3d_allocates_no_dilated_buffer(rng):
    """Peak allocation of one k=4, s=2, p=1 transposed conv stays below a
    quarter of the im2col of a stride-dilated input (the padded output extent
    times K^3 taps per input channel)."""
    cin, cout, k, spatial = 16, 8, 4, (8, 16, 32)
    x = ad.Tensor(rng.standard_normal((1, cin) + spatial))
    w = ad.Tensor(rng.standard_normal((cin, cout, k, k, k)))
    assert not conv._small(1, cout, (k,) * 3, spatial)  # measures the polyphase adjoint
    padded_out = [(n - 1) * 2 + k for n in spatial]
    dilated_im2col = cin * int(np.prod(padded_out)) * k**3 * x.data.itemsize
    out, peak = _traced(lambda: ad.conv_transpose3d(x, w, stride=2, padding=1))
    assert out.shape == (1, cout, 16, 32, 64)
    assert peak < dilated_im2col / 4


def test_conv3d_stride1_peak_is_a_few_copies_of_its_input(rng):
    """Peak allocation of one stride-1 3x3x3 conv3d at a decoder-like shape
    stays within (k + 2) copies of its padded input: the padded input, one
    tile's columns (at most the budget) and the output.  An untiled im2col
    copy would take k^3 copies."""
    cin, cout, k, spatial = 8, 8, 3, (8, 32, 64)
    x = ad.Tensor(rng.standard_normal((1, cin) + spatial))
    w = ad.Tensor(rng.standard_normal((cout, cin, k, k, k)))
    assert not conv._small(1, cin, (k,) * 3, spatial)  # gathers in several tiles
    padded = cin * int(np.prod([n + 2 for n in spatial])) * x.data.itemsize
    out, peak = _traced(lambda: ad.conv3d(x, w, stride=1, padding=1))
    assert out.shape == (1, cout) + spatial
    assert peak < (k + 2) * padded


def test_conv3d_stride1_input_grad_peak_is_a_few_copies_of_its_cotangent(rng):
    """Peak allocation of the input gradient of the stride-1 3x3x3 conv3d
    above stays within (k + 2) copies of its padded cotangent: the padded
    cotangent, one tile's columns (at most the budget) and the gathered
    correlation, which is the result.  A padded result with a cropped copy
    would add two more."""
    cin, cout, k, spatial = 8, 8, 3, (8, 32, 64)
    g = rng.standard_normal((1, cout) + spatial)
    w = rng.standard_normal((cout, cin, k, k, k))
    assert not conv._small(1, cin, (k,) * 3, spatial)  # gathers in several tiles
    padded = cout * int(np.prod([n + 2 for n in spatial])) * g.itemsize
    gx, peak = _traced(lambda: conv._corr_input_grad(g, w, (1, 1, 1), (1, 1, 1), spatial))
    assert gx.shape == (1, cin) + spatial
    assert peak < (k + 2) * padded


def test_stride1_input_grad_returns_its_one_correlation(rng):
    """A stride-1 input gradient is one correlation whose output is the
    result: its peak is one tile's columns, the padded cotangent and the
    result, with no zeroed result for the correlation to be copied into."""
    cin, cout, k, spatial = 8, 8, 3, (8, 32, 64)
    g = rng.standard_normal((1, cout) + spatial).astype(np.float32)
    w = rng.standard_normal((cout, cin, k, k, k)).astype(np.float32)
    padded = cout * prod(n + 2 for n in spatial) * g.itemsize
    gx, peak = _traced(lambda: conv._corr_input_grad(g, w, (1, 1, 1), (1, 1, 1), spatial))
    assert gx.shape == (1, cin) + spatial and gx.dtype == np.float32
    assert peak <= conv._COLUMNS * g.itemsize + padded + gx.nbytes


def test_gather_peak_is_the_columns_plus_padded_input_and_result(rng):
    """On the gather path each kernel of a 3x3x3 conv3d holds at most one
    tile's columns (the budget), the zero-padded input grid and its result:
    no second copy of the columns.  The first conv's column matrix nearly
    fills the budget, so it is one tile; its input gradient is col2im's
    padded grid, filled tap by tap, and its crop.  The second's is above the
    budget, so its forward and kernel gradient gather in tiles of output rows
    and each tile's forward GEMM writes straight into its rows of the result.
    The third is stride 1 and one output row is above the budget, so its
    tiles split the second output axis."""
    k, one, pads = 3, (1, 1, 1), ((1, 1),) * 3
    cases = [
        (32, 16, (2, 16, 16), (1, 2, 2), (2, 8, 8), True),
        (8, 8, (8, 32, 64), (2, 2, 2), (4, 16, 32), False),
        (8, 8, (4, 32, 64), one, (4, 32, 64), False),
    ]
    for cin, cout, spatial, stride, osp, fits in cases:
        assert conv._COLUMNS // 2 < cin * k**3 * prod(osp)
        assert (cin * k**3 * prod(osp) <= conv._COLUMNS) == fits
        assert (cin * k**3 * prod(osp[1:]) > conv._COLUMNS) == (stride == one)
        x = rng.standard_normal((1, cin) + spatial)
        w = rng.standard_normal((cout, cin, k, k, k))
        g = rng.standard_normal((1, cout) + osp)
        columns = conv._COLUMNS * x.itemsize
        padded = cin * prod(n + 2 for n in spatial) * x.itemsize
        kernels = {
            "forward": (lambda: conv._corr_forward(x, w, stride, pads), g.nbytes),
            "kernel grad": (lambda: conv._corr_kernel_grad(x, g, stride, pads, w.shape[2:]), w.nbytes),
        }
        if fits:
            kernels["input grad"] = (lambda: conv._corr_input_grad(g, w, stride, one, spatial), x.nbytes)
        for name, (run, result) in kernels.items():
            out, peak = _traced(run)
            assert out.nbytes == result
            assert peak <= columns + padded + result, (name, spatial)


def test_infer_sized_stride1_conv_gathers_in_tiles_that_split_the_second_axis(rng, monkeypatch):
    """At the default budget one output row of an infer-sized stride-1
    conv3d, a whole 64x128 plane, is above the budget.  So its forward, its
    input gradient (the one phase of the polyphase adjoint) and its kernel
    gradient each gather in tiles of one row and part of the second output
    axis.  Each tile holds at most the budget of columns, and the tiles cover
    every output position exactly once."""
    calls, real = [], conv._tiles

    def counted(*a):
        calls.append([])
        for at, window in real(*a):
            calls[-1].append((at, window.size))
            yield at, window

    monkeypatch.setattr(conv, "_tiles", counted)
    x = ad.Tensor(rng.standard_normal((1, 8, 16, 64, 128)).astype(np.float32), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((8, 8, 3, 3, 3)).astype(np.float32), requires_grad=True)
    ad.backward(ad.tsum(ad.conv3d(x, w, None, 1, 1)))
    assert x.grad is not None and w.grad is not None
    assert len(calls) == 3
    for tiles in calls:
        cover = np.zeros((16, 64), int)
        for at, columns in tiles:
            assert columns <= conv._COLUMNS
            assert len(range(16)[at[0]]) == 1 and len(range(64)[at[1]]) < 64
            cover[at] += 1
        assert (cover == 1).all()


def test_import_starts_no_thread():
    """Importing the package and every module starts no thread, and neither
    does a conv3d forward whose column matrix (3.5 M elements) spans many
    tiles: every tile runs on the calling thread."""
    code = (
        "import pkgutil, threading, importlib\n"
        "import numpy as np\n"
        "before = threading.active_count()\n"
        "import stereomatch\n"
        "for m in pkgutil.walk_packages(stereomatch.__path__, 'stereomatch.'):\n"
        "    importlib.import_module(m.name)\n"
        "from stereomatch import autodiff as ad\n"
        "x = np.ones((1, 8, 8, 32, 64), np.float32)\n"
        "ad.conv3d(x, np.ones((8, 8, 3, 3, 3), np.float32), None, 1, 1)\n"
        "print(before, threading.active_count())\n"
    )
    src = str(Path(conv.__file__).parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    before, after = run.stdout.split()
    assert before == after


def test_corr_forward_with_negative_pads_matches_naive(rng, lowerings):
    """The polyphase input gradient pads each stride phase's correlation per
    side, negatively where the phase starts or ends inside the cotangent:
    the gather, in one tile and in (row, column) tiles, at stride 1 and 2,
    drops a negative side's entries and zero-pads a positive one."""
    x = rng.standard_normal((2, 3, 7, 8))
    w = rng.standard_normal((2, 3, 3, 2))
    padded = np.pad(x[:, :, 1:, :-2], ((0, 0), (0, 0), (0, 2), (1, 0)))
    for stride in ((2, 1), (1, 1)):
        want = conv2d_naive(padded, w, None, stride)
        for lowering in lowerings():
            got = conv._corr_forward(x, w, stride, ((-1, 2), (1, -2)))
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0, atol=1e-12), (lowering, stride)


@pytest.mark.parametrize("op", ["conv2d", "conv3d", "conv_transpose2d", "conv_transpose3d"])
def test_conv_rejects_negative_padding(op):
    """A negative padding would crop the input (or widen a transposed
    output) instead of padding it; every public op names itself and refuses."""
    nsp = 3 if op.endswith("3d") else 2
    x = ad.Tensor(np.zeros((1, 1) + (5,) * nsp))
    w = ad.Tensor(np.zeros((1, 1) + (3,) * nsp))
    for padding in (-1, (1,) * (nsp - 1) + (-1,)):
        with pytest.raises(ShapeError, match=f"{op}: padding"):
            getattr(ad, op)(x, w, padding=padding)


@pytest.mark.parametrize(
    "op,xs,ks,stride,padding",
    [
        ("conv2d", (1, 2, 5, 6), (3, 2, 3, 3), (1, 1), (1, 1)),
        ("conv2d", (1, 2, 7, 7), (3, 2, 3, 3), (2, 2), (1, 1)),
        ("conv2d", (1, 2, 8, 9), (2, 2, 3, 3), (3, 2), (2, 1)),  # uneven stride and padding
        ("conv2d", (1, 2, 7, 9), (3, 2, 1, 1), (2, 2), (0, 0)),  # k < s: empty phases
        ("conv2d", (2, 2, 6, 5), (3, 2, 3, 2), (1, 2), (1, 0)),  # batch 2
        ("conv3d", (1, 2, 4, 5, 5), (2, 2, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
        ("conv3d", (1, 2, 5, 5, 5), (3, 2, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
        ("conv3d", (1, 2, 4, 8, 9), (2, 2, 1, 3, 3), (1, 3, 2), (0, 2, 1)),
        ("conv3d", (1, 2, 3, 4, 5), (2, 2, 1, 1, 1), (2, 2, 2), (0, 0, 0)),
        ("conv3d", (2, 2, 3, 4, 4), (2, 2, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
        ("conv_transpose2d", (1, 3, 3, 4), (3, 2, 3, 3), (1, 1), (1, 1)),
        ("conv_transpose2d", (1, 3, 4, 4), (3, 2, 3, 3), (2, 2), (1, 1)),
        ("conv_transpose2d", (1, 2, 3, 4), (2, 3, 3, 3), (3, 2), (2, 1)),
        ("conv_transpose2d", (1, 2, 3, 4), (2, 3, 1, 1), (2, 2), (0, 0)),
        ("conv_transpose2d", (2, 2, 3, 3), (2, 2, 4, 4), (2, 2), (1, 1)),
        ("conv_transpose3d", (1, 2, 2, 3, 3), (2, 2, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
        ("conv_transpose3d", (1, 2, 3, 3, 3), (2, 3, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
        ("conv_transpose3d", (1, 2, 2, 3, 4), (2, 2, 1, 3, 3), (1, 3, 2), (0, 2, 1)),
        ("conv_transpose3d", (1, 2, 2, 2, 3), (2, 2, 1, 1, 1), (2, 2, 2), (0, 0, 0)),
        ("conv_transpose3d", (2, 2, 2, 2, 3), (2, 2, 4, 4, 4), (2, 2, 2), (1, 1, 1)),
    ],
)
def test_kernel_grad_matches_naive(op, xs, ks, stride, padding, rng, lowerings):
    """w.grad of <op(x, w), g> against the scalar-loop kernel gradient.  A
    transposed conv is the adjoint of a conv with the same kernel, so its
    kernel gradient is that conv's with the roles of x and g swapped."""
    x = rng.standard_normal(xs)
    wd = rng.standard_normal(ks)
    g = rng.standard_normal(getattr(ad, op)(ad.Tensor(x), ad.Tensor(wd), None, stride, padding).shape)
    if op.startswith("conv_transpose"):
        want = conv_kernel_grad_naive(g, x, ks[2:], stride, padding)
    else:
        want = conv_kernel_grad_naive(x, g, ks[2:], stride, padding)
    for lowering in lowerings():
        w = ad.Tensor(wd, requires_grad=True)
        out = getattr(ad, op)(ad.Tensor(x), w, None, stride, padding)
        ad.backward(ad.tsum(ad.mul(out, ad.Tensor(g))))
        assert w.grad.shape == want.shape
        assert np.allclose(w.grad, want, rtol=0, atol=1e-12), lowering


def test_conv_transpose_doubles_extent_with_k4_s2_p1():
    x = ad.Tensor(np.zeros((1, 3, 2, 5, 7)))
    w = ad.Tensor(np.zeros((3, 2, 4, 4, 4)))
    out = ad.conv_transpose3d(x, w, stride=2, padding=1)
    assert out.shape == (1, 2, 4, 10, 14)


def test_conv_transpose_rejects_negative_extent():
    x = ad.Tensor(np.zeros((1, 1, 1, 1, 1)))
    w = ad.Tensor(np.zeros((1, 1, 2, 2, 2)))
    with pytest.raises(ShapeError):
        ad.conv_transpose3d(x, w, stride=1, padding=1)


@pytest.mark.parametrize(
    "xs,ks,stride,padding,nd",
    [
        ((1, 2, 6, 6), (3, 2, 3, 3), (1, 1), (1, 1), 2),
        ((1, 2, 8, 8), (3, 2, 4, 4), (2, 2), (1, 1), 2),
        ((1, 3, 9, 5), (2, 3, 3, 3), (3, 1), (0, 1), 2),
        ((1, 2, 4, 6, 6), (3, 2, 4, 4, 4), (2, 2, 2), (1, 1, 1), 3),
        ((1, 2, 4, 5, 5), (2, 2, 1, 5, 5), (1, 1, 1), (0, 2, 2), 3),
        ((1, 2, 7, 9), (3, 2, 1, 1), (2, 2), (0, 0), 2),  # k < s: empty phases
        ((1, 2, 8, 11), (3, 2, 2, 2), (3, 3), (0, 0), 2),
        ((1, 2, 5, 7, 9), (3, 2, 3, 3, 3), (2, 2, 2), (1, 1, 1), 3),
        ((1, 2, 8, 9), (3, 2, 3, 3), (3, 2), (2, 1), 2),  # uneven stride and padding
        ((1, 2, 7, 9), (2, 2, 3, 3), (2, 2), (2, 3), 2),  # padding >= stride
        ((1, 2, 5, 6), (2, 2, 3, 3), (1, 1), (3, 4), 2),  # padding >= kernel
        ((1, 2, 5, 7, 7), (2, 2, 3, 3, 3), (1, 3, 2), (2, 1, 3), 3),  # uneven strides
    ],
)
def test_adjoint_identity(xs, ks, stride, padding, nd, rng, lowerings):
    """<conv(x), y> == <x, conv_transpose(y)> for a shared kernel.

    Shapes are stride-compatible so the transpose lands exactly back on the
    convolution's input extent.
    """
    x = rng.standard_normal(xs)
    w = rng.standard_normal(ks)
    fconv = ad.conv2d if nd == 2 else ad.conv3d
    tconv = ad.conv_transpose2d if nd == 2 else ad.conv_transpose3d
    y = rng.standard_normal(fconv(ad.Tensor(x), ad.Tensor(w), None, stride, padding).shape)
    for lowering in lowerings():
        cx = fconv(ad.Tensor(x), ad.Tensor(w), None, stride, padding)
        # conv_transpose sees the kernel from the other side: [Co,Ci,*K] -> feed as-is
        ty = tconv(ad.Tensor(y), ad.Tensor(w), None, stride, padding)
        assert ty.shape == tuple(xs)
        lhs = float((cx.data * y).sum())
        rhs = float((x * ty.data).sum())
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale <= 1e-10, lowering


def test_conv2d_gradcheck(rng, lowerings):
    x = rng.standard_normal((1, 2, 5, 5))
    w = ad.Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
    b = ad.Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
    probe = rng.standard_normal((1, 3, 3, 3))
    xt = ad.Tensor(x)

    def wrt_x(t):
        return ad.tsum(ad.mul(ad.conv2d(t, w, b, (2, 2), (1, 1)), ad.Tensor(probe)))

    def wrt_w(t):
        return ad.tsum(ad.mul(ad.conv2d(xt, t, b, (2, 2), (1, 1)), ad.Tensor(probe)))

    def wrt_b(t):
        return ad.tsum(ad.mul(ad.conv2d(xt, w, t, (2, 2), (1, 1)), ad.Tensor(probe)))

    for lowering in lowerings():
        assert ad.grad_check(wrt_x, x) <= 1e-4, lowering
        assert ad.grad_check(wrt_w, w.data.copy()) <= 1e-4, lowering
        assert ad.grad_check(wrt_b, b.data.copy()) <= 1e-4, lowering


def test_conv3d_gradcheck(rng, lowerings):
    x = rng.standard_normal((1, 2, 3, 4, 4))
    w = ad.Tensor(rng.standard_normal((2, 2, 1, 3, 3)) * 0.5, requires_grad=True)
    b = ad.Tensor(rng.standard_normal(2) * 0.1, requires_grad=True)
    probe = rng.standard_normal((1, 2, 3, 4, 4))
    xt = ad.Tensor(x)

    def wrt_x(t):
        return ad.tsum(ad.mul(ad.conv3d(t, w, b, 1, (0, 1, 1)), ad.Tensor(probe)))

    def wrt_w(t):
        return ad.tsum(ad.mul(ad.conv3d(xt, t, b, 1, (0, 1, 1)), ad.Tensor(probe)))

    for lowering in lowerings():
        assert ad.grad_check(wrt_x, x) <= 1e-4, lowering
        assert ad.grad_check(wrt_w, w.data.copy()) <= 1e-4, lowering


def test_conv3d_stride2_gradcheck(rng, lowerings):
    """The input gradient of the encoder's k=3, s=2 downsample."""
    x = rng.standard_normal((1, 2, 5, 5, 5))
    w = ad.Tensor(rng.standard_normal((3, 2, 3, 3, 3)) * 0.5)
    probe = rng.standard_normal((1, 3, 3, 3, 3))

    def wrt_x(t):
        return ad.tsum(ad.mul(ad.conv3d(t, w, None, 2, 1), ad.Tensor(probe)))

    for lowering in lowerings():
        assert ad.grad_check(wrt_x, x) <= 1e-4, lowering


def test_conv_transpose3d_gradcheck(rng, lowerings):
    x = rng.standard_normal((1, 2, 2, 3, 3))
    w = ad.Tensor(rng.standard_normal((2, 1, 4, 4, 4)) * 0.5, requires_grad=True)
    b = ad.Tensor(rng.standard_normal(1) * 0.1, requires_grad=True)
    xt = ad.Tensor(x)

    def scalar(out):
        return ad.tsum(ad.mul(out, out))

    def wrt_x(t):
        return scalar(ad.conv_transpose3d(t, w, b, 2, 1))

    def wrt_w(t):
        return scalar(ad.conv_transpose3d(xt, t, b, 2, 1))

    def wrt_b(t):
        return scalar(ad.conv_transpose3d(xt, w, t, 2, 1))

    for lowering in lowerings():
        assert ad.grad_check(wrt_x, x) <= 1e-4, lowering
        assert ad.grad_check(wrt_w, w.data.copy()) <= 1e-4, lowering
        assert ad.grad_check(wrt_b, b.data.copy()) <= 1e-4, lowering


def test_gradcheck_subsampling_is_deterministic(rng):
    x = rng.standard_normal((1, 1, 6, 6))
    w = ad.Tensor(rng.standard_normal((1, 1, 3, 3)), requires_grad=True)

    def program(t):
        out = ad.conv2d(t, w, None, 1, 1)
        return ad.tsum(ad.mul(out, out))

    a = ad.grad_check(program, x, max_coords=10, seed=3)
    b = ad.grad_check(program, x, max_coords=10, seed=3)
    assert a == b
    assert a <= 1e-4

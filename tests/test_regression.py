"""Top-2 soft-argmax, neighborhood unfold, pixel shuffle, convex upsampling."""

import numpy as np
import pytest

from stereomatch import autodiff as ad
from stereomatch.errors import ShapeError
from stereomatch import regression
from stereomatch.regression import (
    DisparityMap,
    SuperpixelUpsample,
    convex_upsample,
    pixel_shuffle,
    top2_regression,
    top2_softargmax,
    unfold3x3,
)

from reference import top2_softargmax_naive


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestTop2:
    def test_dominant_mode(self):
        cost = np.zeros((1, 1, 8, 2, 2))
        cost[0, 0, 5] = 10.0
        d0 = top2_softargmax(ad.Tensor(cost)).data
        want = 5 * sigmoid(10.0) + 0 * sigmoid(-10.0)  # runner-up is index 0
        assert np.allclose(d0, want, atol=1e-12)

    def test_exact_tie_gives_midpoint(self):
        cost = np.full((1, 1, 6, 1, 1), -1.0)
        cost[0, 0, 3] = 2.0
        cost[0, 0, 4] = 2.0
        d0 = top2_softargmax(ad.Tensor(cost)).data
        assert np.allclose(d0, 3.5, atol=1e-15)

    def test_tie_prefers_smaller_index(self):
        cost = np.zeros((1, 1, 5, 1, 1))  # all equal: top-2 are indices 0, 1
        d0 = top2_softargmax(ad.Tensor(cost)).data
        assert np.allclose(d0, 0.5, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_full_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        cost = rng.standard_normal((2, 1, 7, 3, 4)) * 3.0
        got = top2_softargmax(ad.Tensor(cost)).data
        want = top2_softargmax_naive(cost)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_planted_ties_match_stable_argsort_oracle(self, dtype):
        """The two selected indices equal the first two of a stable argsort
        over D, ties included: forward values and the gradient, which lands
        on exactly those two indices, agree bit for bit."""
        rng = np.random.default_rng(11)
        c = rng.integers(-3, 4, (2, 12, 5, 6)).astype(dtype)  # ties everywhere
        c[0, :, 0, 0] = 1.5  # every candidate ties
        c[0, :, 0, 1] = -2.0
        c[0, [4, 9], 0, 1] = 3.0  # the best two tie
        c[1, :, 1, 1] = 0.0
        c[1, [2, 5, 7], 1, 1] = [4.0, 2.5, 2.5]  # the runner-up ties
        g = rng.standard_normal((2, 1, 5, 6)).astype(dtype)

        order = np.argsort(-c, axis=1, kind="stable")
        i1, i2 = order[:, :1], order[:, 1:2]
        v1 = np.take_along_axis(c, i1, axis=1)[:, 0]
        v2 = np.take_along_axis(c, i2, axis=1)[:, 0]
        e2 = np.exp(v2 - v1)
        w1, w2 = 1.0 / (1.0 + e2), e2 / (1.0 + e2)
        want = w1 * i1[:, 0].astype(dtype) + w2 * i2[:, 0].astype(dtype)
        coef = g[:, 0] * w1 * w2 * (i1 - i2)[:, 0].astype(dtype)
        want_grad = np.zeros_like(c)
        np.put_along_axis(want_grad, i1, coef[:, None], axis=1)
        np.put_along_axis(want_grad, i2, -coef[:, None], axis=1)

        cost = ad.Tensor(c[:, None], requires_grad=True)
        d0 = top2_softargmax(cost)
        ad.backward(ad.tsum(ad.mul(d0, ad.Tensor(g))), ensure=[cost])
        assert np.array_equal(d0.data[:, 0], want)
        assert np.array_equal(cost.grad[:, 0], want_grad)
        assert d0.data[0, 0, 0, 0] == 0.5 and d0.data[0, 0, 0, 1] == 6.5
        assert d0.data[1, 0, 1, 1] == pytest.approx(2 + 3 * np.exp(-1.5) / (1 + np.exp(-1.5)))

    def test_shift_invariance(self):
        # costs on a 1/8 grid so adding 7.25 is exact in binary, making the
        # invariance checkable bit-for-bit rather than up to rounding noise
        rng = np.random.default_rng(9)
        cost = rng.integers(-64, 64, (1, 1, 6, 4, 4)) / 8.0
        base = top2_softargmax(ad.Tensor(cost)).data
        shifted = top2_softargmax(ad.Tensor(cost + 7.25)).data
        assert np.array_equal(base, shifted)

    def test_convex_between_selected_indices(self):
        rng = np.random.default_rng(10)
        cost = rng.standard_normal((1, 1, 9, 5, 6))
        order = np.argsort(-cost[:, 0], axis=1, kind="stable")
        lo = np.minimum(order[:, 0], order[:, 1])
        hi = np.maximum(order[:, 0], order[:, 1])
        d0 = top2_softargmax(ad.Tensor(cost)).data[:, 0]
        assert np.all(d0 > lo - 1e-12)
        assert np.all(d0 < hi + 1e-12)

    def test_rejects_too_few_disparities(self):
        with pytest.raises(ShapeError):
            top2_softargmax(ad.Tensor(np.zeros((1, 1, 1, 2, 2))))
        top2_softargmax(ad.Tensor(np.zeros((1, 1, 2, 2, 2))))  # D=2 is fine

    def test_wrapper_keeps_resolution(self):
        vol = ad.Tensor(np.random.default_rng(0).random((1, 1, 4, 2, 2)))
        d0 = top2_regression(vol)
        assert isinstance(d0, DisparityMap)
        assert d0.values.shape == (1, 1, 2, 2)

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 4, 2, 2), (1, 1, 4, 2)])
    def test_wrapper_rejects_non_cost_volumes(self, shape):
        # a 1-D input has no channel axis to read: ShapeError, not IndexError
        with pytest.raises(ShapeError):
            top2_regression(ad.Tensor(np.zeros(shape)))

    def test_gradcheck(self):
        # seed chosen so every pixel has a clear top-2 margin vs the rest;
        # selection is then locally constant and FD is valid
        rng = np.random.default_rng(3)
        cost = rng.standard_normal((1, 1, 5, 3, 3)) * 2.0
        probe = rng.standard_normal((1, 1, 3, 3))

        def program(t):
            return ad.tsum(ad.mul(top2_softargmax(t), ad.Tensor(probe)))

        assert ad.grad_check(program, cost, step=1e-4) <= 1e-4


class TestUnfold:
    def test_center_channel_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 1, 4, 5))
        out = unfold3x3(ad.Tensor(x)).data
        assert out.shape == (2, 9, 4, 5)
        assert np.array_equal(out[:, 4:5], x)

    def test_edges_clamp(self):
        x = np.arange(6.0).reshape(1, 1, 2, 3)
        out = unfold3x3(ad.Tensor(x)).data
        # top-left neighbor of pixel (0,0) clamps to (0,0) itself
        assert out[0, 0, 0, 0] == x[0, 0, 0, 0]
        # bottom-right neighbor of pixel (1,2) clamps to itself
        assert out[0, 8, 1, 2] == x[0, 0, 1, 2]
        # interior: left neighbor of (0,1) is (0,0)
        assert out[0, 3, 0, 1] == x[0, 0, 0, 0]

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 3, 4))
        probe = rng.standard_normal((1, 9, 3, 4))

        def program(t):
            return ad.tsum(ad.mul(unfold3x3(t), ad.Tensor(probe)))

        assert ad.grad_check(program, x) <= 1e-4


class TestPixelShuffle:
    def test_layout(self):
        x = np.arange(16.0).reshape(1, 16, 1, 1)
        out = pixel_shuffle(ad.Tensor(x), 4).data
        assert out.shape == (1, 1, 4, 4)
        # channel ri*4+ci lands at pixel (ri, ci)
        assert np.array_equal(out[0, 0], np.arange(16.0).reshape(4, 4))

    def test_roundtrip_gradcheck(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 2, 3))
        probe = rng.standard_normal((1, 1, 4, 6))

        def program(t):
            return ad.tsum(ad.mul(pixel_shuffle(t, 2), ad.Tensor(probe)))

        assert ad.grad_check(program, x) <= 1e-4

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ShapeError):
            pixel_shuffle(ad.Tensor(np.zeros((1, 7, 2, 2))), 2)


def composed_upsample(logits, d0, scale):
    """The convex upsampler as the ops it fuses: softmax, unfold3x3,
    multiply, sum over the neighbors, pixel_shuffle and the scale."""
    batch, _, h, w = d0.shape
    cells = scale * scale
    weights = ad.softmax(ad.reshape(logits, (batch, 9, cells, h, w)), axis=1)
    near = ad.reshape(unfold3x3(d0), (batch, 9, 1, h, w))
    fine = pixel_shuffle(ad.tsum(ad.mul(weights, near), axis=1), scale)
    return ad.mul(fine, float(scale))


class TestConvexUpsample:
    """The one-node upsampler against the chain of ops it replaces."""

    def run(self, fn, logits, d0, probe):
        lt = ad.Tensor(logits.copy(), requires_grad=True)
        dt = ad.Tensor(d0.copy(), requires_grad=True)
        out = fn(lt, dt, 2)
        ad.backward(ad.tsum(ad.mul(out, ad.Tensor(probe))))
        return out.data, lt.grad, dt.grad

    # 1 is a band of one row, 4 an uneven split of 5 rows, 1 << 17 one band
    @pytest.mark.parametrize("band_rows", [1, 4, 1 << 17])
    def test_matches_composed_chain_in_float64(self, band_rows, monkeypatch):
        """Values bit for bit, gradients to 1e-12, whatever the band height."""
        monkeypatch.setattr(regression, "_COLUMNS", 9 * 4 * 2 * 6 * band_rows)
        rng = np.random.default_rng(30)
        logits = rng.standard_normal((2, 36, 5, 6)) * 3.0
        d0 = rng.uniform(0.0, 12.0, (2, 1, 5, 6))
        probe = rng.standard_normal((2, 1, 10, 12))
        got = self.run(convex_upsample, logits, d0, probe)
        want = self.run(composed_upsample, logits, d0, probe)
        assert np.array_equal(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_float32_value_is_bitwise_the_composed_chain(self):
        """What keeps the model's d1 bits: the node does the chain's
        arithmetic in the chain's order."""
        rng = np.random.default_rng(31)
        logits = (rng.standard_normal((1, 144, 6, 8)) * 3.0).astype(np.float32)
        d0 = rng.uniform(0.0, 12.0, (1, 1, 6, 8)).astype(np.float32)
        got = convex_upsample(ad.Tensor(logits), ad.Tensor(d0), 4).data
        want = composed_upsample(ad.Tensor(logits), ad.Tensor(d0), 4).data
        assert got.dtype == np.float32 and np.array_equal(got, want)

    def test_gradcheck(self):
        rng = np.random.default_rng(32)
        logits = rng.standard_normal((1, 36, 3, 4))
        d0 = rng.standard_normal((1, 1, 3, 4))
        probe = ad.Tensor(rng.standard_normal((1, 1, 6, 8)))

        def program(fn):
            return lambda t: ad.tsum(ad.mul(fn(t), probe))

        assert ad.grad_check(program(lambda t: convex_upsample(t, ad.Tensor(d0), 2)),
                             logits) <= 1e-4
        assert ad.grad_check(program(lambda t: convex_upsample(ad.Tensor(logits), t, 2)),
                             d0) <= 1e-4

    def test_logit_shape_checked(self):
        with pytest.raises(ShapeError):
            convex_upsample(ad.Tensor(np.zeros((1, 35, 2, 2))),
                            ad.Tensor(np.zeros((1, 1, 2, 2))), 2)


class TestSuperpixelUpsample:
    def build(self, ctx_channels=6, seed=0):
        return SuperpixelUpsample(ctx_channels, np.random.default_rng(seed))

    def test_constant_field_scales_by_four(self):
        up = self.build()
        rng = np.random.default_rng(1)
        d0 = DisparityMap(ad.Tensor(np.full((1, 1, 4, 8), 2.75)))
        ctx = ad.Tensor(rng.standard_normal((1, 6, 4, 8)))
        d1 = up(d0, ctx)
        assert d1.values.shape == (1, 1, 16, 32)
        assert np.allclose(d1.values.data, 4 * 2.75, atol=1e-10)

    def test_one_hot_center_weights_pick_nearest(self):
        up = self.build()
        up.conv2.weight.data[...] = 0.0
        up.conv2.bias.data[...] = 0.0
        # channel layout is k*16 + p; slam the center neighbor (k=4) for all p
        for p in range(16):
            up.conv2.bias.data[4 * 16 + p] = 50.0
        rng = np.random.default_rng(2)
        coarse = rng.standard_normal((1, 1, 3, 4))
        d0 = DisparityMap(ad.Tensor(coarse))
        d1 = up(d0, ad.Tensor(rng.standard_normal((1, 6, 3, 4)))).values.data
        want = 4.0 * np.repeat(np.repeat(coarse, 4, axis=2), 4, axis=3)
        assert np.allclose(d1, want, atol=1e-8)

    def test_convex_hull_bound(self):
        up = self.build(seed=3)
        rng = np.random.default_rng(4)
        coarse = rng.uniform(0.0, 10.0, (1, 1, 5, 6))
        ctx = ad.Tensor(rng.standard_normal((1, 6, 5, 6)) * 2.0)
        d1 = up(DisparityMap(ad.Tensor(coarse)), ctx).values.data
        padded = np.pad(coarse, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge")
        for fy in range(20):
            for fx in range(24):
                cy, cx = fy // 4, fx // 4
                block = padded[0, 0, cy : cy + 3, cx : cx + 3]
                v = d1[0, 0, fy, fx] / 4.0
                assert block.min() - 1e-9 <= v <= block.max() + 1e-9

    def test_shape_mismatch_rejected(self):
        up = self.build()
        d0 = DisparityMap(ad.Tensor(np.zeros((1, 1, 4, 4))))
        with pytest.raises(ShapeError):
            up(d0, ad.Tensor(np.zeros((1, 6, 4, 5))))

    def test_gradcheck_through_upsampler(self):
        up = self.build(ctx_channels=2, seed=5)
        rng = np.random.default_rng(6)
        coarse = rng.standard_normal((1, 1, 2, 3))
        ctx = rng.standard_normal((1, 2, 2, 3))
        ctx_t = ad.Tensor(ctx)
        probe = rng.standard_normal((1, 1, 8, 12))

        def wrt_d0(t):
            out = up(DisparityMap(t), ctx_t).values
            return ad.tsum(ad.mul(out, ad.Tensor(probe)))

        assert ad.grad_check(wrt_d0, coarse, step=1e-4) <= 1e-4

        d0_t = ad.Tensor(coarse)

        def wrt_ctx(t):
            out = up(DisparityMap(d0_t), t).values
            return ad.tsum(ad.mul(out, ad.Tensor(probe)))

        assert ad.grad_check(wrt_ctx, ctx, step=1e-4) <= 1e-4

"""Smooth-L1 training loss, bilinear prediction upsampling, the two-term total."""

import numpy as np
import pytest

from stereomatch import autodiff as ad
from stereomatch.errors import ShapeError
from stereomatch.losses import (
    bilinear_upsample,
    smooth_l1,
    total_loss,
    upsample_disparity,
)

from reference import smooth_l1_naive


class TestSmoothL1:
    def test_perfect_prediction_is_zero(self):
        gt = np.random.default_rng(0).uniform(1, 30, (1, 1, 4, 6))
        loss = smooth_l1(ad.Tensor(gt.copy()), gt, np.ones_like(gt, dtype=bool))
        assert loss.data == 0.0

    def test_quadratic_closed_form(self):
        gt = np.full((1, 1, 2, 2), 5.0)
        loss = smooth_l1(ad.Tensor(gt + 0.5), gt, np.ones_like(gt, bool), beta=1.0)
        assert np.isclose(loss.item(), 0.125, atol=1e-15)

    def test_linear_closed_form(self):
        gt = np.full((1, 1, 3, 3), 5.0)
        loss = smooth_l1(ad.Tensor(gt - 2.0), gt, np.ones_like(gt, bool), beta=1.0)
        assert np.isclose(loss.item(), 1.5, atol=1e-15)

    def test_empty_mask_rejected(self):
        gt = np.ones((1, 1, 2, 2))
        with pytest.raises(ShapeError, match="zero pixels"):
            smooth_l1(ad.Tensor(gt), gt, np.zeros_like(gt, bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            smooth_l1(ad.Tensor(np.ones((1, 1, 2, 2))), np.ones((1, 1, 2, 3)),
                      np.ones((1, 1, 2, 3), bool))

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_branches_match_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.uniform(0, 20, (2, 1, 5, 7))
        pred = gt + rng.standard_normal(gt.shape) * 1.5  # straddles beta
        mask = rng.random(gt.shape) > 0.3
        got = smooth_l1(ad.Tensor(pred), gt, mask, beta=1.0).item()
        want = smooth_l1_naive(pred, gt, mask, 1.0)
        assert np.isclose(got, want, rtol=1e-12)

    def test_invalid_pixels_are_ignored(self):
        rng = np.random.default_rng(5)
        gt = rng.uniform(1, 10, (1, 1, 4, 4))
        pred = gt + 0.3
        mask = np.zeros_like(gt, bool)
        mask[0, 0, :2] = True
        base = smooth_l1(ad.Tensor(pred), gt, mask).item()
        pred2 = pred.copy()
        pred2[~mask] = 1e6  # garbage outside the mask
        assert smooth_l1(ad.Tensor(pred2), gt, mask).item() == base

    def test_gradcheck_across_both_branches(self):
        rng = np.random.default_rng(6)
        gt = rng.uniform(0, 8, (1, 1, 3, 4))
        # errors well inside each zone so the frozen branch masks stay valid
        # under the finite-difference step
        pred = gt + np.where(rng.random(gt.shape) > 0.5, 2.5, 0.3)
        mask = np.ones_like(gt, bool)
        mask[0, 0, 0, 0] = False

        def program(t):
            return smooth_l1(t, gt, mask, beta=1.0)

        assert ad.grad_check(program, pred, step=1e-4) <= 1e-4

    def test_masked_pixels_get_zero_gradient(self):
        gt = np.zeros((1, 1, 2, 2))
        pred = ad.Tensor(np.ones_like(gt) * 3.0, requires_grad=True)
        mask = np.array([[[[True, False], [True, False]]]])
        ad.backward(smooth_l1(pred, gt, mask))
        assert np.array_equal(pred.grad[0, 0, :, 1], [0.0, 0.0])
        assert np.all(pred.grad[0, 0, :, 0] != 0.0)


class TestBilinearUpsample:
    def test_constant_stays_constant(self):
        x = ad.Tensor(np.full((1, 2, 3, 5), 1.75))
        out = bilinear_upsample(x, 4)
        assert out.shape == (1, 2, 12, 20)
        assert np.allclose(out.data, 1.75, atol=1e-14)

    def test_matches_scalar_half_pixel_sampling(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 1, 1, 6))
        out = bilinear_upsample(ad.Tensor(x), 4).data[0, 0, 0]
        row = x[0, 0, 0]
        for j in range(24):
            u = (j + 0.5) / 4 - 0.5
            # clamp like the implementation does at the borders
            if u < 0:
                want = row[0]
            elif u > len(row) - 1:
                want = row[-1]
            else:
                i0 = int(np.floor(u))
                f = u - i0
                want = (1 - f) * row[i0] + f * row[min(i0 + 1, len(row) - 1)]
            assert np.isclose(out[j], want, atol=1e-13)

    def test_separable_rows_and_columns(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 1, 4, 1))
        col = bilinear_upsample(ad.Tensor(x), 2).data[0, 0, :, 0]
        xt = bilinear_upsample(ad.Tensor(x.transpose(0, 1, 3, 2)), 2).data[0, 0, 0, :]
        assert np.allclose(col, xt, atol=1e-15)

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 2, 3, 4))
        probe = rng.standard_normal((1, 2, 6, 8))

        def program(t):
            return ad.tsum(ad.mul(bilinear_upsample(t, 2), ad.Tensor(probe)))

        assert ad.grad_check(program, x) <= 1e-4

    def test_rejects_bad_rank(self):
        with pytest.raises(ShapeError):
            bilinear_upsample(ad.Tensor(np.zeros((2, 3, 4))), 2)

    def test_disparity_values_scale_with_grid(self):
        d = ad.Tensor(np.full((1, 1, 2, 2), 3.0))
        out = upsample_disparity(d, scale=4)
        assert out.shape == (1, 1, 8, 8)
        assert np.allclose(out.data, 12.0, atol=1e-14)


class TestTotalLoss:
    def test_perfect_predictions(self):
        gt = np.random.default_rng(10).uniform(1, 20, (1, 1, 8, 8))
        mask = np.ones_like(gt, bool)
        loss = total_loss(ad.Tensor(gt.copy()), ad.Tensor(gt.copy()), gt, mask)
        assert loss.item() == 0.0

    def test_weighting_of_coarse_term(self):
        gt = np.full((1, 1, 4, 4), 10.0)
        mask = np.ones_like(gt, bool)
        # coarse branch off by exactly 1 px (linear regime => 0.5 each pixel,
        # times LAMBDA0 = 0.3), fine branch perfect
        loss = total_loss(ad.Tensor(gt + 1.0), ad.Tensor(gt.copy()), gt, mask)
        assert np.isclose(loss.item(), 0.15, atol=1e-15)

    def test_gradcheck_through_both_terms(self):
        rng = np.random.default_rng(11)
        gt = rng.uniform(2, 10, (1, 1, 8, 8))
        mask = rng.random(gt.shape) > 0.2
        d0 = rng.uniform(0, 3, (1, 1, 2, 2))
        d1 = gt + rng.standard_normal(gt.shape) * 2.0
        d1_t = ad.Tensor(d1)

        def wrt_d0(t):
            return total_loss(upsample_disparity(t, 4), d1_t, gt, mask)

        assert ad.grad_check(wrt_d0, d0, step=1e-4) <= 1e-4

        d0_t = ad.Tensor(d0)

        def wrt_d1(t):
            return total_loss(upsample_disparity(d0_t, 4), t, gt, mask)

        assert ad.grad_check(wrt_d1, d1, step=1e-4) <= 1e-4

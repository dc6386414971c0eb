"""Correlation volume, channel lift, and attention feature volume."""

import tracemalloc

import numpy as np
import pytest

from stereomatch import autodiff as ad
from stereomatch.correlation import (
    AttentionFeatureVolume,
    CorrelationLift,
    MatchingConfig,
    build_correlation,
)
from stereomatch.errors import ConfigError, ShapeError

from reference import correlation_naive, project1x1_naive


def cfg16(**kw):
    return MatchingConfig(max_disparity=16, **kw).validate()


def test_identical_features_give_unit_zero_disparity_slice():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((1, 4, 5, 8)) + 0.5
    vol = build_correlation(ad.Tensor(f), ad.Tensor(f), cfg16())
    assert vol.shape == (1, 1, 4, 5, 8)
    assert np.allclose(vol.data[0, 0, 0], 1.0, atol=1e-6)


def test_orthogonal_features_give_zero():
    f_l = np.zeros((1, 2, 1, 4))
    f_r = np.zeros((1, 2, 1, 4))
    f_l[0, 0, 0, :] = 1.0  # left points along channel 0
    f_r[0, 1, 0, :] = 1.0  # right along channel 1
    vol = build_correlation(ad.Tensor(f_l), ad.Tensor(f_r), cfg16())
    assert np.allclose(vol.data[0, 0, 0], 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_matches_scalar_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    f_l = rng.standard_normal((1, 4, 6, 8))
    f_r = rng.standard_normal((1, 4, 6, 8))
    got = build_correlation(ad.Tensor(f_l), ad.Tensor(f_r), cfg16()).data
    want = correlation_naive(f_l, f_r, 4, 1e-8)
    assert np.abs(got - want).max() <= 1e-10


def test_out_of_range_candidates_are_exact_zero():
    rng = np.random.default_rng(3)
    f_l = rng.standard_normal((2, 3, 4, 8)) + 1.0
    f_r = rng.standard_normal((2, 3, 4, 8)) + 1.0
    vol = build_correlation(ad.Tensor(f_l), ad.Tensor(f_r), cfg16()).data
    for d in range(4):
        if d:
            assert np.all(vol[:, :, d, :, :d] == 0.0)
        assert np.all(vol[:, :, d, :, d:] != 0.0)


def test_values_bounded_by_unit_cosine():
    rng = np.random.default_rng(4)
    f_l = rng.standard_normal((1, 8, 6, 10)) * 100.0
    f_r = rng.standard_normal((1, 8, 6, 10)) * 1e-3
    vol = build_correlation(ad.Tensor(f_l), ad.Tensor(f_r), MatchingConfig(max_disparity=24))
    assert vol.data.max() <= 1.0 + 1e-6
    assert vol.data.min() >= -1.0 - 1e-6


def test_swap_transpose_relation():
    """V_lr(d,y,x) equals the opposite-direction volume at column x-d."""
    rng = np.random.default_rng(5)
    f_l = rng.standard_normal((1, 3, 2, 8))
    f_r = rng.standard_normal((1, 3, 2, 8))
    v_lr = build_correlation(ad.Tensor(f_l), ad.Tensor(f_r), cfg16()).data
    width, num_disp = 8, 4
    for d in range(num_disp):
        for y in range(2):
            for x in range(d, width):
                a = f_r[0, :, y, x - d]
                b = f_l[0, :, y, x]
                na = np.sqrt((a * a).sum() + 1e-30)
                nb = np.sqrt((b * b).sum() + 1e-30)
                v_rl = (a * b).sum() / (na * nb + 1e-8)
                assert abs(v_lr[0, 0, d, y, x] - v_rl) <= 1e-12


def _graph_size(out):
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_graph_size_does_not_grow_with_disparity_range():
    rng = np.random.default_rng(8)
    sizes = []
    for max_disparity in (16, 64):
        f_l = ad.Tensor(rng.standard_normal((1, 3, 2, 16)), requires_grad=True)
        f_r = ad.Tensor(rng.standard_normal((1, 3, 2, 16)), requires_grad=True)
        vol = build_correlation(f_l, f_r, MatchingConfig(max_disparity=max_disparity))
        sizes.append(_graph_size(vol))
    assert sizes[0] == sizes[1]


def test_volume_peak_stays_below_one_feature_sized_volume():
    """At [1,32,64,128] features and D = 16 the correlation allocates less
    than one float64 [B,C,D,H,W] volume (33.5 MB): no shifted copy of the
    features along D and no product of that size is built."""
    rng = np.random.default_rng(13)
    shape = (1, 32, 64, 128)
    f_l, f_r = ad.Tensor(rng.standard_normal(shape)), ad.Tensor(rng.standard_normal(shape))
    volume_bytes = int(np.prod(shape)) * 16 * 8
    tracemalloc.start()
    try:
        vol = build_correlation(f_l, f_r, MatchingConfig(max_disparity=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vol.shape == (1, 1, 16, 64, 128)
    assert peak < volume_bytes


@pytest.mark.parametrize("wrt_right", [False, True])
def test_gradcheck_every_coordinate_at_full_range(wrt_right):
    """D == width: every column has at least one zero-filled candidate."""
    rng = np.random.default_rng(9)
    f_l = rng.standard_normal((2, 3, 2, 4))
    f_r = rng.standard_normal((2, 3, 2, 4))
    probe = ad.Tensor(rng.standard_normal((2, 1, 4, 2, 4)))

    def program(t):
        left, right = (ad.Tensor(f_l), t) if wrt_right else (t, ad.Tensor(f_r))
        return ad.tsum(ad.mul(build_correlation(left, right, cfg16()), probe))

    assert ad.grad_check(program, f_r if wrt_right else f_l) <= 1e-4


def test_rejects_oversized_disparity_range():
    f = ad.Tensor(np.ones((1, 2, 4, 3)))
    with pytest.raises(ShapeError):
        build_correlation(f, f, cfg16())


def test_matching_config_validation():
    with pytest.raises(ConfigError):
        MatchingConfig(max_disparity=10).validate()
    with pytest.raises(ConfigError):
        MatchingConfig(corr_channels=0).validate()


def test_lift_shape_and_zero_map():
    cfg = MatchingConfig(max_disparity=32, corr_channels=8)
    lift = CorrelationLift(cfg, np.random.default_rng(0))
    vol = ad.Tensor(np.random.default_rng(1).random((1, 1, 8, 16, 32)))
    out = lift(vol)
    assert out.shape == (1, 8, 8, 16, 32)
    for p in lift.parameters():
        p.data[...] = 0.0
    zeroed = lift(vol)
    assert np.allclose(zeroed.data, 0.0, atol=1e-12)


def test_lift_rejects_multichannel():
    cfg = cfg16()
    lift = CorrelationLift(cfg, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        lift(ad.Tensor(np.zeros((1, 2, 4, 4, 4))))


def test_lift_gradcheck():
    cfg = MatchingConfig(max_disparity=8, corr_channels=3)
    lift = CorrelationLift(cfg, np.random.default_rng(2))
    x = np.random.default_rng(3).standard_normal((1, 1, 2, 4, 4))
    probe = np.random.default_rng(4).standard_normal((1, 3, 2, 4, 4))

    def program(t):
        out = lift(t)
        return ad.tsum(ad.mul(out, ad.Tensor(probe)))

    assert ad.grad_check(program, x, step=1e-4) <= 1e-4


class TestAttentionFeatureVolume:
    def make(self, corr_channels=4, feat_channels=6, seed=0):
        cfg = MatchingConfig(max_disparity=16, corr_channels=corr_channels)
        return AttentionFeatureVolume(feat_channels, cfg, np.random.default_rng(seed))

    def test_unit_attention_returns_broadcast_projection(self):
        afv = self.make()
        rng = np.random.default_rng(1)
        f_l = rng.standard_normal((1, 6, 3, 5))
        ones = ad.Tensor(np.ones((1, 4, 4, 3, 5)))
        out = afv(ones, ad.Tensor(f_l)).data
        proj = project1x1_naive(f_l, afv.project.weight.data)
        for d in range(4):
            assert np.allclose(out[:, :, d], proj, atol=1e-12)

    def test_zero_features_annihilate(self):
        afv = self.make()
        vol = ad.Tensor(np.random.default_rng(2).random((1, 4, 4, 3, 5)))
        out = afv(vol, ad.Tensor(np.zeros((1, 6, 3, 5))))
        assert np.all(out.data == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_fiber_oracle(self, seed):
        afv = self.make(seed=seed)
        rng = np.random.default_rng(100 + seed)
        f_l = rng.standard_normal((1, 6, 3, 4))
        a_corr = rng.standard_normal((1, 4, 5, 3, 4))
        out = afv(ad.Tensor(a_corr), ad.Tensor(f_l)).data
        proj = project1x1_naive(f_l, afv.project.weight.data)
        worst = 0.0
        for c in range(4):
            for d in range(5):
                for y in range(3):
                    for x in range(4):
                        want = a_corr[0, c, d, y, x] * proj[0, c, y, x]
                        worst = max(worst, abs(out[0, c, d, y, x] - want))
        assert worst <= 1e-10

    def test_extent_mismatch_rejected(self):
        afv = self.make()
        vol = ad.Tensor(np.zeros((1, 4, 4, 3, 5)))
        with pytest.raises(ShapeError):
            afv(vol, ad.Tensor(np.zeros((1, 6, 3, 6))))

    def test_gradient_reaches_both_images(self):
        cfg = MatchingConfig(max_disparity=16, corr_channels=3)
        rng = np.random.default_rng(7)
        lift = CorrelationLift(cfg, rng)
        afv = AttentionFeatureVolume(5, cfg, rng)
        f_l = ad.Tensor(rng.standard_normal((1, 5, 4, 6)), requires_grad=True)
        f_r = ad.Tensor(rng.standard_normal((1, 5, 4, 6)), requires_grad=True)
        volume = afv(lift(build_correlation(f_l, f_r, cfg)), f_l)
        ad.backward(ad.tsum(ad.mul(volume, volume)), ensure=(f_l, f_r))
        assert np.any(f_l.grad != 0.0)
        assert np.any(f_r.grad != 0.0)

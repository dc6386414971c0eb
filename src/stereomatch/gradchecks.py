"""Finite-difference audit: every primitive op and composite block checked
against central differences.

`gradcheck_suite()` returns named thunks, each giving one check's max relative
error; `stereomatch gradcheck` runs them against `GRADCHECK_TOLERANCE`.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .aggregation import ContextGeometryFusion, _DownsampleBlock, _UpsampleBlock
from .autodiff import Tensor, grad_check
from .backbone import Backbone, BackboneConfig, FeaturePyramid, MergeUpsample
from .correlation import (
    AttentionFeatureVolume,
    CorrelationLift,
    MatchingConfig,
    build_correlation,
)
from .losses import bilinear_upsample, smooth_l1, total_loss, upsample_disparity
from .nn import LEAKY_SLOPE
from .regression import (
    DisparityMap,
    SuperpixelUpsample,
    convex_upsample,
    pixel_shuffle,
    top2_softargmax,
    unfold3x3,
)

GRADCHECK_TOLERANCE = 1e-4


def _probed(build_output):
    """Wrap a tensor-valued function into a scalar one with a fixed probe."""
    def fn(t):
        out = build_output(t)
        probe = np.random.default_rng(1234).standard_normal(out.shape)
        return ad.tsum(ad.mul(out, Tensor(probe)))
    return fn


def gradcheck_suite():
    """Named thunks, each returning the max relative error of one primitive
    or composite block against central finite differences."""
    rng = np.random.default_rng(42)
    x34 = rng.standard_normal((3, 4))
    y34 = rng.standard_normal((3, 4)) * 0.5 + 2.0   # bounded away from zero
    pos34 = np.abs(rng.standard_normal((3, 4))) + 0.5
    off34 = rng.standard_normal((3, 4))
    off34 += np.where(off34 >= 0, 0.3, -0.3)        # clear of kinks at zero
    # own generator, so the draws from rng below do not shift
    y354 = np.random.default_rng(5).standard_normal((3, 5, 4))

    checks = [
        ("add", lambda: grad_check(_probed(lambda t: ad.add(t, Tensor(y34))), x34)),
        ("sub", lambda: grad_check(_probed(lambda t: ad.sub(Tensor(y34), t)), x34)),
        ("mul", lambda: grad_check(_probed(lambda t: ad.mul(t, Tensor(y34))), x34)),
        ("div", lambda: grad_check(_probed(lambda t: ad.div(t, Tensor(y34))), x34)),
        ("exp", lambda: grad_check(_probed(ad.exp), x34)),
        ("sqrt", lambda: grad_check(_probed(ad.sqrt), pos34)),
        ("absval", lambda: grad_check(_probed(ad.absval), off34)),
        ("sigmoid", lambda: grad_check(_probed(ad.sigmoid), 3.0 * x34)),
        ("leaky_relu", lambda: grad_check(_probed(lambda t: ad.leaky_relu(t, LEAKY_SLOPE)), off34)),
        ("softmax", lambda: grad_check(_probed(lambda t: ad.softmax(t, axis=1)), 2.0 * x34)),
        ("tsum", lambda: grad_check(_probed(lambda t: ad.tsum(t, axis=0, keepdims=True)), x34)),
        ("reshape", lambda: grad_check(_probed(lambda t: ad.reshape(t, (4, 3))), x34)),
        ("mul_broadcast", lambda: grad_check(
            _probed(lambda t: ad.mul(ad.reshape(t, (3, 1, 4)), Tensor(y354))), x34)),
        ("concat", lambda: grad_check(
            _probed(lambda t: ad.concat([t, Tensor(y34), t], axis=1)), x34)),
    ]

    # each channel's batch is mirrored (x[1] = -x[0]) and kept 0.3 clear of
    # 0, so with beta = 0 every output, train or eval, keeps clear of the
    # leaky kink (checked below) and no finite-difference step crosses it
    bn_rng = np.random.default_rng(9)
    bn_half = bn_rng.standard_normal((1, 3, 4, 4))
    bn_half += np.where(bn_half >= 0, 0.3, -0.3)
    bn_x = np.concatenate([bn_half, -bn_half])
    bn_gamma = bn_rng.uniform(0.8, 1.2, 3)
    bn_mean, bn_var = bn_rng.standard_normal(3), bn_rng.uniform(0.5, 2.0, 3)
    bn_eval_x = bn_x + bn_mean.reshape(1, 3, 1, 1)

    def bn(x, gamma, training, slope=LEAKY_SLOPE):
        mean, var = (np.zeros(3), np.ones(3)) if training else (bn_mean, bn_var)
        return ad.batch_norm(x, gamma, Tensor(np.zeros(3)), mean, var,
                             training=training, negative_slope=slope)

    # batch norm writes its output into its input's array, so every call
    # below gets its own copy; grad_check copies the points it probes
    for training, x in ((True, bn_x), (False, bn_eval_x)):
        margin = np.abs(bn(Tensor(x.copy()), Tensor(bn_gamma), training, slope=1.0).data).min()
        if margin <= 0.1:
            raise RuntimeError(f"batch-norm gradcheck input only {margin:.3g} from the kink")

    checks += [
        ("batch_norm_train", lambda: grad_check(_probed(
            lambda t: bn(t, Tensor(bn_gamma), True)), bn_x)),
        ("batch_norm_eval", lambda: grad_check(_probed(
            lambda t: bn(t, Tensor(bn_gamma), False)), bn_eval_x)),
        ("batch_norm_gamma", lambda: grad_check(_probed(
            lambda t: bn(Tensor(bn_x.copy()), t, True)), bn_gamma)),
        ("batch_norm_eval_gamma", lambda: grad_check(_probed(
            lambda t: bn(Tensor(bn_eval_x.copy()), t, False)), bn_gamma)),
    ]

    cx = rng.standard_normal((1, 2, 6, 7))
    cw = rng.standard_normal((3, 2, 3, 3)) * 0.5
    cb = rng.standard_normal(3)
    c3x = rng.standard_normal((1, 2, 4, 5, 6))
    c3w = rng.standard_normal((2, 2, 1, 3, 3)) * 0.5
    tx = rng.standard_normal((1, 3, 4, 4))
    tw = rng.standard_normal((3, 2, 4, 4)) * 0.4
    t3x = rng.standard_normal((1, 2, 2, 3, 3))
    t3w = rng.standard_normal((2, 2, 4, 4, 4)) * 0.4

    checks += [
        ("conv2d_x", lambda: grad_check(_probed(
            lambda t: ad.conv2d(t, Tensor(cw), Tensor(cb), stride=(2, 1), padding=(1, 2))), cx)),
        ("conv2d_w", lambda: grad_check(_probed(
            lambda t: ad.conv2d(Tensor(cx), t, Tensor(cb), stride=(2, 1), padding=(1, 2))), cw)),
        ("conv2d_b", lambda: grad_check(_probed(
            lambda t: ad.conv2d(Tensor(cx), Tensor(cw), t, padding=(1, 1))), cb)),
        ("conv3d_x", lambda: grad_check(_probed(
            lambda t: ad.conv3d(t, Tensor(c3w), None, padding=(0, 1, 1))), c3x)),
        ("conv3d_w", lambda: grad_check(_probed(
            lambda t: ad.conv3d(Tensor(c3x), t, None, padding=(0, 1, 1))), c3w)),
        ("conv_transpose2d_x", lambda: grad_check(_probed(
            lambda t: ad.conv_transpose2d(t, Tensor(tw), None, stride=2, padding=1)), tx)),
        ("conv_transpose2d_w", lambda: grad_check(_probed(
            lambda t: ad.conv_transpose2d(Tensor(tx), t, None, stride=2, padding=1)), tw)),
        ("conv_transpose3d_x", lambda: grad_check(_probed(
            lambda t: ad.conv_transpose3d(t, Tensor(t3w), None, stride=2, padding=1)), t3x)),
        ("conv_transpose3d_w", lambda: grad_check(_probed(
            lambda t: ad.conv_transpose3d(Tensor(t3x), t, None, stride=2, padding=1)), t3w)),
    ]

    up_x = rng.standard_normal((1, 2, 3, 4))
    plane = rng.standard_normal((1, 1, 3, 4))
    shuffle_x = rng.standard_normal((1, 8, 2, 3))
    # own generator, so the draws from rng below do not shift
    convex_rng = np.random.default_rng(11)
    convex_logits = convex_rng.standard_normal((1, 36, 2, 3))
    convex_d0 = convex_rng.standard_normal((1, 1, 2, 3))
    top2_x = np.random.default_rng(3).standard_normal((1, 1, 5, 3, 3)) * 2.0

    checks += [
        ("bilinear_upsample", lambda: grad_check(_probed(
            lambda t: bilinear_upsample(t, 2)), up_x)),
        ("unfold3x3", lambda: grad_check(_probed(unfold3x3), plane)),
        ("pixel_shuffle", lambda: grad_check(_probed(
            lambda t: pixel_shuffle(t, 2)), shuffle_x)),
        ("convex_upsample_logits", lambda: grad_check(_probed(
            lambda t: convex_upsample(t, Tensor(convex_d0), 2)), convex_logits)),
        ("convex_upsample_d0", lambda: grad_check(_probed(
            lambda t: convex_upsample(Tensor(convex_logits), t, 2)), convex_d0)),
        ("top2_regression", lambda: grad_check(_probed(top2_softargmax), top2_x)),
    ]

    # composite blocks, weights drawn once per suite run
    wrng = np.random.default_rng(7)
    tiny = BackboneConfig(stem_channels=4, channels=(6, 8, 10, 12))
    backbone = Backbone(tiny, np.random.default_rng(0))
    merge = MergeUpsample(tiny, np.random.default_rng(1))
    image = wrng.uniform(0.0, 1.0, (1, 3, 32, 32))
    # f32 gets 2x2 spatial extent: train-mode batch norm over a single value
    # per channel would flatten the map to beta and zero the gradient.
    pyr_maps = [wrng.standard_normal((1, c, 64 // s, 64 // s))
                for c, s in zip(tiny.channels, (4, 8, 16, 32))]

    def merge_f4(t):
        pyr = FeaturePyramid(Tensor(pyr_maps[0]), Tensor(pyr_maps[1]),
                             Tensor(pyr_maps[2]), t)
        return merge(pyr).f4

    mcfg = MatchingConfig(max_disparity=16, corr_channels=4)
    fl = wrng.standard_normal((1, 4, 6, 8))
    fr = wrng.standard_normal((1, 4, 6, 8))
    lift = CorrelationLift(mcfg, np.random.default_rng(2))
    afv = AttentionFeatureVolume(4, mcfg, np.random.default_rng(3))
    vol = wrng.standard_normal((1, 1, 4, 6, 8))

    def corr_fn(wrt_right):
        def build(t):
            left = Tensor(fl) if wrt_right else t
            right = t if wrt_right else Tensor(fr)
            return build_correlation(left, right, mcfg)
        return _probed(build)

    def afv_volume(t):
        return afv(lift(build_correlation(t, Tensor(fr), mcfg)), t)

    cgf = ContextGeometryFusion(2, 3, 3, np.random.default_rng(4))
    cgf_g = wrng.standard_normal((1, 2, 2, 4, 4))
    cgf_ctx = wrng.standard_normal((1, 3, 4, 4))
    down = _DownsampleBlock(2, 4, np.random.default_rng(5))
    up = _UpsampleBlock(4, 2, np.random.default_rng(6))
    up_in = wrng.standard_normal((1, 4, 2, 2, 2))
    up_skip = wrng.standard_normal((1, 2, 4, 4, 4))
    sup = SuperpixelUpsample(2, np.random.default_rng(8))
    sup_d0 = wrng.standard_normal((1, 1, 2, 3))
    sup_ctx = wrng.standard_normal((1, 2, 2, 3))

    gt = wrng.uniform(2.0, 10.0, (1, 1, 8, 8))
    mask = wrng.random((1, 1, 8, 8)) > 0.2
    pred = gt + np.where(wrng.random((1, 1, 8, 8)) > 0.5, 2.5, 0.3)
    coarse = wrng.uniform(0.5, 2.0, (1, 1, 2, 2))

    checks += [
        ("backbone_stage", lambda: grad_check(
            _probed(lambda t: backbone(t).f4), image, max_coords=48, seed=0)),
        ("merge_stage", lambda: grad_check(
            _probed(merge_f4), pyr_maps[3], max_coords=48, seed=5)),
        ("correlation_left", lambda: grad_check(corr_fn(False), fl, max_coords=64, seed=1)),
        ("correlation_right", lambda: grad_check(corr_fn(True), fr, max_coords=64, seed=2)),
        ("correlation_lift", lambda: grad_check(_probed(lift), vol)),
        ("attention_volume", lambda: grad_check(
            _probed(afv_volume), fl, max_coords=64, seed=3)),
        ("cgf_geometry", lambda: grad_check(_probed(
            lambda t: cgf(t, Tensor(cgf_ctx))), cgf_g)),
        ("cgf_context", lambda: grad_check(_probed(
            lambda t: cgf(Tensor(cgf_g), t)), cgf_ctx)),
        ("encoder_stage", lambda: grad_check(_probed(down), cgf_g, max_coords=64, seed=4)),
        ("decoder_stage", lambda: grad_check(_probed(
            lambda t: up(t, Tensor(up_skip))), up_in)),
        ("superpixel_upsample", lambda: grad_check(_probed(
            lambda t: sup(DisparityMap(t), Tensor(sup_ctx)).values), sup_d0)),
        ("smooth_l1_loss", lambda: grad_check(
            lambda t: smooth_l1(t, gt, mask, 1.0), pred)),
        ("total_loss", lambda: grad_check(
            lambda t: total_loss(upsample_disparity(t, 4), Tensor(pred), gt, mask),
            coarse)),
    ]
    return checks

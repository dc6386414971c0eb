"""Encoder/decoder shapes, fusion block oracle, detach semantics, parameter
count ordering across fusion placements."""

import numpy as np
import pytest

from stereomatch import autodiff as ad
from stereomatch.aggregation import (
    CgfConfig,
    ContextGeometryFusion,
    Decoder,
    Encoder,
    _DownsampleBlock,
)
from stereomatch.backbone import FeaturePyramid
from stereomatch.errors import ConfigError, ShapeError

from reference import cgf_naive

CTX = (10, 12, 14)  # context channels at 1/8, 1/16, 1/32


def make_ctx(batch, d_unused, h4, w4, rng):
    return FeaturePyramid(
        f4=ad.Tensor(rng.standard_normal((batch, 8, h4, w4))),
        f8=ad.Tensor(rng.standard_normal((batch, CTX[0], h4 // 2, w4 // 2))),
        f16=ad.Tensor(rng.standard_normal((batch, CTX[1], h4 // 4, w4 // 4))),
        f32=ad.Tensor(rng.standard_normal((batch, CTX[2], h4 // 8, w4 // 8))),
    )


def quarter_volume(batch, c, d, h, w, rng):
    return ad.Tensor(rng.standard_normal((batch, c, d, h, w)))


def test_cgf_config_validation():
    with pytest.raises(ConfigError):
        CgfConfig(positions=("middle",)).validate()
    with pytest.raises(ConfigError):
        CgfConfig(positions=("decoder", "decoder")).validate()
    assert CgfConfig(positions=()).validate().positions == ()


def test_encoder_bottleneck_shape_toy_config():
    rng = np.random.default_rng(0)
    enc = Encoder(8, CTX, CgfConfig(positions=()), np.random.default_rng(1))
    vol = quarter_volume(1, 8, 16, 16, 32, rng)
    pyr = enc(vol, make_ctx(1, 16, 16, 32, rng))
    assert pyr.g8.shape == (1, 16, 8, 8, 16)
    assert pyr.g16.shape == (1, 32, 4, 4, 8)
    assert pyr.g32.shape == (1, 48, 2, 2, 4)
    assert pyr.g4 is vol


def test_encoder_rejects_non_divisible_extents():
    rng = np.random.default_rng(2)
    enc = Encoder(4, CTX, CgfConfig(positions=()), np.random.default_rng(3))
    with pytest.raises(ShapeError, match="8"):
        enc(quarter_volume(1, 4, 12, 16, 16, rng), make_ctx(1, 12, 16, 16, rng))


def test_encoder_zero_params_zero_pyramid():
    rng = np.random.default_rng(4)
    enc = Encoder(4, CTX, CgfConfig(positions=()), np.random.default_rng(5))
    for p in enc.parameters():
        p.data[...] = 0.0
    pyr = enc(quarter_volume(1, 4, 8, 8, 8, rng), make_ctx(1, 8, 8, 8, rng))
    for g in (pyr.g8, pyr.g16, pyr.g32):
        assert np.allclose(g.data, 0.0, atol=1e-12)


def test_downsample_block_gradcheck():
    block = _DownsampleBlock(2, 3, np.random.default_rng(6))
    x = np.random.default_rng(7).standard_normal((1, 2, 4, 4, 4))
    probe = np.random.default_rng(8).standard_normal((1, 3, 2, 2, 2))

    def program(t):
        return ad.tsum(ad.mul(block(t), ad.Tensor(probe)))

    assert ad.grad_check(program, x, step=1e-4, max_coords=64) <= 1e-4


class TestFusionBlock:
    def build(self, geom_ch=2, ctx_ch=3, kernel=5, seed=0):
        return ContextGeometryFusion(geom_ch, ctx_ch, kernel, np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_composition(self, seed):
        fusion = self.build(seed=seed)
        rng = np.random.default_rng(200 + seed)
        g = rng.standard_normal((1, 2, 2, 4, 4))
        ctx = rng.standard_normal((1, 3, 4, 4))
        got = fusion(ad.Tensor(g), ad.Tensor(ctx)).data
        want = cgf_naive(
            g, ctx,
            fusion.project.weight.data,
            fusion.attend.weight.data, fusion.attend.bias.data,
            fusion.fuse.conv.weight.data,
            fusion.fuse.bn.gamma.data, fusion.fuse.bn.beta.data,
        )
        assert np.abs(got - want).max() <= 1e-10

    def test_zero_context_reduces_to_plain_conv(self):
        fusion = self.build()
        rng = np.random.default_rng(1)
        g = rng.standard_normal((1, 2, 3, 4, 4))
        out = fusion(ad.Tensor(g), ad.Tensor(np.zeros((1, 3, 4, 4)))).data
        want = fusion.fuse(ad.Tensor(g)).data
        assert np.allclose(out, want, atol=1e-12)

    def test_zero_attention_conv_gives_half_gate(self):
        fusion = self.build()
        fusion.attend.weight.data[...] = 0.0
        fusion.attend.bias.data[...] = 0.0
        rng = np.random.default_rng(2)
        g = rng.standard_normal((1, 2, 2, 4, 4))
        ctx = rng.standard_normal((1, 3, 4, 4))
        out = fusion(ad.Tensor(g), ad.Tensor(ctx)).data
        # with A_s = 0.5 the block is fuse(g + 0.5 * broadcast context)
        proj = fusion.project(ad.Tensor(ctx)).data
        want = fusion.fuse(ad.Tensor(g + 0.5 * proj[:, :, None])).data
        assert np.allclose(out, want, atol=1e-12)

    def test_detach_keeps_values_changes_grads(self):
        fusion = self.build()
        rng = np.random.default_rng(3)
        g = rng.standard_normal((1, 2, 2, 4, 4))
        ctx = rng.standard_normal((1, 3, 4, 4))

        plain = fusion(ad.Tensor(g), ad.Tensor(ctx), detach_context=False)
        truncated = fusion(ad.Tensor(g), ad.Tensor(ctx), detach_context=True)
        assert np.array_equal(plain.data, truncated.data)

        ctx_leaf = ad.Tensor(ctx, requires_grad=True)
        out = fusion(ad.Tensor(g), ctx_leaf, detach_context=True)
        fusion.zero_grad()
        ad.backward(ad.tsum(ad.mul(out, out)), ensure=[ctx_leaf, fusion.project.weight])
        assert np.all(ctx_leaf.grad == 0.0)
        assert np.all(fusion.project.weight.grad == 0.0)

        ctx_leaf2 = ad.Tensor(ctx, requires_grad=True)
        fusion.zero_grad()
        out2 = fusion(ad.Tensor(g), ctx_leaf2, detach_context=False)
        ad.backward(ad.tsum(ad.mul(out2, out2)), ensure=[ctx_leaf2, fusion.project.weight])
        assert np.any(ctx_leaf2.grad != 0.0)
        assert np.any(fusion.project.weight.grad != 0.0)

    def test_spatial_mismatch_rejected(self):
        fusion = self.build()
        with pytest.raises(ShapeError):
            fusion(ad.Tensor(np.zeros((1, 2, 2, 4, 4))), ad.Tensor(np.zeros((1, 3, 4, 5))))

    def test_gradcheck_small(self):
        fusion = self.build(kernel=3, seed=9)
        rng = np.random.default_rng(10)
        g = rng.standard_normal((1, 2, 2, 3, 3))
        ctx = rng.standard_normal((1, 3, 3, 3))
        ctx_t = ad.Tensor(ctx)
        probe = rng.standard_normal((1, 2, 2, 3, 3))

        def wrt_g(t):
            return ad.tsum(ad.mul(fusion(t, ctx_t), ad.Tensor(probe)))

        assert ad.grad_check(wrt_g, g, step=1e-4) <= 1e-4

        g_t = ad.Tensor(g)

        def wrt_ctx(t):
            return ad.tsum(ad.mul(fusion(g_t, t), ad.Tensor(probe)))

        assert ad.grad_check(wrt_ctx, ctx, step=1e-4) <= 1e-4


def run_encode_decode(positions, seed=11, detach=False, c=4, batch=1):
    cfg = CgfConfig(positions=positions, detach_context=detach)
    rng_p = np.random.default_rng(seed)
    enc = Encoder(c, CTX, cfg, rng_p)
    dec = Decoder(c, CTX, cfg, rng_p)
    rng_d = np.random.default_rng(seed + 1)
    vol = quarter_volume(batch, c, 8, 8, 16, rng_d)
    ctx = make_ctx(batch, 8, 8, 16, rng_d)
    out = dec(enc(vol, ctx), ctx)
    return enc, dec, out


def test_decode_output_shape_and_baseline():
    for positions in ((), ("encoder",), ("decoder",), ("encoder", "decoder")):
        enc, dec, out = run_encode_decode(positions)
        assert out.shape == (1, 1, 8, 8, 16)


def test_toy_config_decode_shape():
    """Quarter-resolution 1-channel cost for the 64x128, D=64, C=8 setup."""
    cfg = CgfConfig(positions=("decoder",))
    rng = np.random.default_rng(12)
    enc = Encoder(8, CTX, cfg, rng)
    dec = Decoder(8, CTX, cfg, rng)
    data = np.random.default_rng(13)
    vol = quarter_volume(1, 8, 16, 16, 32, data)
    ctx = make_ctx(1, 16, 16, 32, data)
    out = dec(enc(vol, ctx), ctx)
    assert out.shape == (1, 1, 16, 16, 32)


def test_param_count_ordering_over_positions():
    counts = {}
    for positions in ((), ("encoder",), ("decoder",), ("encoder", "decoder")):
        cfg = CgfConfig(positions=positions)
        rng = np.random.default_rng(0)
        counts[positions] = (
            Encoder(4, CTX, cfg, rng).param_count()
            + Decoder(4, CTX, cfg, rng).param_count()
        )
    assert counts[()] < counts[("encoder",)]
    assert counts[("encoder",)] == counts[("decoder",)]
    assert counts[("decoder",)] < counts[("encoder", "decoder")]


def test_decoder_detach_zeroes_context_projection_grads():
    enc, dec, out = run_encode_decode(("encoder", "decoder"), detach=True)
    params = enc.parameters() + dec.parameters()
    ad.backward(ad.tsum(ad.mul(out, out)), ensure=params)
    for module in (enc, dec):
        for name, p in module.named_parameters():
            if ".project." in name:
                assert np.all(p.grad == 0.0), f"context path leaked into {name}"
            else:
                assert np.any(p.grad != 0.0), f"dead parameter {name}"


def test_detach_forward_values_bit_identical():
    _, _, plain = run_encode_decode(("encoder", "decoder"), detach=False)
    _, _, truncated = run_encode_decode(("encoder", "decoder"), detach=True)
    assert np.array_equal(plain.data, truncated.data)

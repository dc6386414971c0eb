"""Feature pyramid shapes, determinism, merge path, gradient flow."""

import numpy as np
import pytest

from stereomatch import autodiff as ad
from stereomatch.backbone import Backbone, BackboneConfig, MergeUpsample
from stereomatch.errors import ConfigError, ShapeError


def tiny_cfg():
    return BackboneConfig(stem_channels=4, channels=(6, 8, 10, 12))


def levels(pyr):
    return (pyr.f4, pyr.f8, pyr.f16, pyr.f32)


def test_pyramid_shapes_32():
    net = Backbone(tiny_cfg(), np.random.default_rng(0))
    pyr = net(ad.Tensor(np.zeros((1, 3, 32, 32))))
    assert pyr.f4.shape == (1, 6, 8, 8)
    assert pyr.f8.shape == (1, 8, 4, 4)
    assert pyr.f16.shape == (1, 10, 2, 2)
    assert pyr.f32.shape == (1, 12, 1, 1)
    # checkpoints name each stage's conv `stages.<i>.0.body.*`
    stage_names = {n.rsplit(".", 2)[0] for n, _ in net.named_parameters()
                   if n.startswith("stages.")}
    assert stage_names == {f"stages.{i}.0.body" for i in range(4)}


def test_pyramid_shapes_64x128():
    net = Backbone(tiny_cfg(), np.random.default_rng(0))
    pyr = net(ad.Tensor(np.zeros((1, 3, 64, 128))))
    assert pyr.f4.shape == (1, 6, 16, 32)
    assert pyr.f32.shape == (1, 12, 2, 4)


def test_rejects_misaligned_input():
    net = Backbone(tiny_cfg(), np.random.default_rng(0))
    with pytest.raises(ShapeError, match="32"):
        net(ad.Tensor(np.zeros((1, 3, 48, 64))))
    with pytest.raises(ShapeError):
        net(ad.Tensor(np.zeros((1, 3, 64, 60))))
    with pytest.raises(ShapeError):
        net(ad.Tensor(np.zeros((1, 1, 64, 64))))


def test_same_seed_bit_identical():
    rng = np.random.default_rng(5)
    image = rng.random((1, 3, 32, 64))
    out_a = Backbone(tiny_cfg(), np.random.default_rng(3))(ad.Tensor(image))
    out_b = Backbone(tiny_cfg(), np.random.default_rng(3))(ad.Tensor(image))
    for a, b in zip(levels(out_a), levels(out_b)):
        assert np.array_equal(a.data, b.data)
    out_c = Backbone(tiny_cfg(), np.random.default_rng(4))(ad.Tensor(image))
    assert not np.array_equal(out_a.f4.data, out_c.f4.data)


def test_config_validation():
    with pytest.raises(ConfigError):
        BackboneConfig(channels=(1, 2, 3)).validate()
    with pytest.raises(ConfigError):
        BackboneConfig(stem_channels=0).validate()


def test_merge_preserves_extents():
    cfg = tiny_cfg()
    rng = np.random.default_rng(1)
    net = Backbone(cfg, np.random.default_rng(0))
    merge = MergeUpsample(cfg, np.random.default_rng(2))
    pyr = net(ad.Tensor(rng.random((1, 3, 64, 128))))
    refined = merge(pyr)
    for raw, out in zip(levels(pyr), levels(refined)):
        assert out.shape == raw.shape


def test_zeroed_merge_params_give_zero_features():
    cfg = tiny_cfg()
    net = Backbone(cfg, np.random.default_rng(0))
    merge = MergeUpsample(cfg, np.random.default_rng(3))
    for p in merge.parameters():
        p.data[...] = 0.0
    pyr = net(ad.Tensor(np.random.default_rng(4).random((1, 3, 32, 64))))
    refined = merge(pyr)
    for out in levels(refined):
        assert np.allclose(out.data, 0.0, atol=1e-12)


def test_gradient_reaches_every_parameter():
    cfg = tiny_cfg()
    net = Backbone(cfg, np.random.default_rng(0))
    merge = MergeUpsample(cfg, np.random.default_rng(6))
    image = ad.Tensor(np.random.default_rng(7).random((1, 3, 32, 64)))
    refined = merge(net(image))
    loss = ad.tsum(ad.mul(refined.f4, refined.f4))
    params = net.parameters() + merge.parameters()
    ad.backward(loss, ensure=params)
    for name, p in list(net.named_parameters()) + list(merge.named_parameters()):
        assert p.grad is not None
        assert np.any(p.grad != 0.0), f"dead parameter {name}"


def test_f4_gradient_depends_on_coarsest_stage():
    cfg = tiny_cfg()
    net = Backbone(cfg, np.random.default_rng(0))
    merge = MergeUpsample(cfg, np.random.default_rng(8))
    image = ad.Tensor(np.random.default_rng(9).random((1, 3, 32, 64)))
    refined = merge(net(image))
    ad.backward(ad.tsum(ad.mul(refined.f4, refined.f4)))
    stage32 = net.stages[3][0]
    grads = [p.grad for _, p in stage32.named_parameters()]
    assert all(g is not None for g in grads)
    assert any(np.any(g != 0.0) for g in grads)

"""Whole-pipeline composition: shapes, determinism, config plumbing."""

import ctypes
import hashlib
import resource
import statistics
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from stereomatch import autodiff as ad
from stereomatch.aggregation import CgfConfig
from stereomatch.backbone import BackboneConfig
from stereomatch.correlation import MatchingConfig
from stereomatch.errors import ConfigError, ShapeError
from stereomatch.model import ModelConfig, StereoModel
from stereomatch.synthetic import synth_stereo
from stereomatch.training import sample_loss


def tiny_config(**overrides):
    kw = dict(
        backbone=BackboneConfig(stem_channels=4, channels=(8, 10, 12, 14)),
        matching=MatchingConfig(max_disparity=32, corr_channels=4),
        seed=0,
    )
    kw.update(overrides)
    return ModelConfig(**kw)


def tiny_pair(seed=0):
    s = synth_stereo(seed, height=32, width=64, max_disparity=32)
    return s


class TestForward:
    def test_output_shapes_and_resolutions(self):
        model = StereoModel(tiny_config())
        s = tiny_pair()
        d0, d1 = model(s.left, s.right)
        assert d0.values.shape == (1, 1, 8, 16)
        assert d1.values.shape == (1, 1, 32, 64)

    def test_same_config_builds_identical_models(self):
        a = StereoModel(tiny_config())
        b = StereoModel(tiny_config())
        for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data), name

    def test_forward_is_deterministic(self):
        model = StereoModel(tiny_config())
        model.eval()
        s = tiny_pair()
        first = model(s.left, s.right)[1].values.data
        second = model(s.left, s.right)[1].values.data
        assert np.array_equal(first, second)

    def test_seed_changes_parameters(self):
        a = StereoModel(tiny_config(seed=0))
        b = StereoModel(tiny_config(seed=1))
        assert not np.array_equal(a.backbone.stem.conv.weight.data,
                                  b.backbone.stem.conv.weight.data)

    def test_afv_toggle_changes_values_not_shapes(self):
        s = tiny_pair()
        with_afv = StereoModel(tiny_config(afv_enabled=True))
        without = StereoModel(tiny_config(afv_enabled=False))
        da = with_afv(s.left, s.right)[1].values
        db = without(s.left, s.right)[1].values
        assert da.shape == db.shape
        assert not np.array_equal(da.data, db.data)
        assert with_afv.param_count() > without.param_count()

    def test_mismatched_pair_rejected(self):
        model = StereoModel(tiny_config())
        a = ad.Tensor(np.zeros((1, 3, 32, 64)))
        b = ad.Tensor(np.zeros((1, 3, 32, 32)))
        with pytest.raises(ShapeError):
            model(a, b)

    def test_batch_of_two(self):
        model = StereoModel(tiny_config())
        s = tiny_pair()
        left = ad.Tensor(np.concatenate([s.left.data, s.left.data]))
        right = ad.Tensor(np.concatenate([s.right.data, s.right.data]))
        d0, d1 = model(left, right)
        assert d0.values.shape == (2, 1, 8, 16)
        assert d1.values.shape == (2, 1, 32, 64)


def test_max_disparity_must_fit_aggregation():
    with pytest.raises(ConfigError, match="multiple of 32"):
        StereoModel(tiny_config(matching=MatchingConfig(max_disparity=48, corr_channels=4)))


def test_every_parameter_receives_gradient():
    model = StereoModel(tiny_config())
    s = tiny_pair(seed=3)
    d0, d1 = model(s.left, s.right)
    loss = ad.add(ad.tsum(ad.mul(d0.values, d0.values)),
                  ad.tsum(ad.mul(d1.values, d1.values)))
    params = [p for _, p in model.named_parameters()]
    ad.backward(loss, ensure=params)
    for name, p in model.named_parameters():
        assert p.grad is not None and np.any(p.grad != 0.0), name


@pytest.mark.parametrize("config,count,first_buffer,digest", [
    pytest.param(ModelConfig(), 161, 105, "e6025fa56fd09da7", id="default"),
    pytest.param(ModelConfig(seed=3, cgf=CgfConfig(positions=("encoder", "decoder"))),
                 185, 123, "b5db7273276cc06f", id="cgf-encoder-decoder"),
])
def test_state_order_is_pinned(config, count, first_buffer, digest):
    """Checkpoints store the state in this order, so changing it breaks every
    saved checkpoint: every parameter in module order, children after their
    parent's own entries, then every buffer in the same walk.  The digest is
    the sha256 prefix of the names joined by newlines."""
    names = list(StereoModel(config).state_arrays())
    assert len(names) == count
    assert names[:3] == ["backbone.stem.conv.weight", "backbone.stem.bn.gamma",
                         "backbone.stem.bn.beta"]
    assert "running" not in names[first_buffer - 1]
    assert names[first_buffer:first_buffer + 2] == [
        "backbone.stem.bn.running_mean", "backbone.stem.bn.running_var"]
    assert names[-1] == "decoder.up3.refine2.bn.running_var"
    assert hashlib.sha256("\n".join(names).encode()).hexdigest()[:16] == digest


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no mallopt (not glibc)")
def test_steady_no_grad_forward_faults_in_no_pages():
    """Importing the engine keeps freed heap memory mapped, so once a few
    forwards have grown the heap, a forward reuses the pages the last one
    freed.  Under glibc's dynamic trim threshold each 64x128 forward faulted
    in about 355 pages again."""
    model = StereoModel(ModelConfig())
    model.eval()
    s = synth_stereo(0, 64, 128, 192, "slanted_planes")

    def faults():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with ad.no_grad():
            model(s.left, s.right)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    for _ in range(8):  # warm-up: the heap reaches its high-water mark
        faults()
    assert statistics.median(faults() for _ in range(7)) == 0


def test_batch_norm_inputs_are_conv_outputs_read_by_nothing_else(monkeypatch):
    """Batch norm writes its output into its input's array.  That is safe in
    the model because, in a default train-step graph, the input of each of
    the 37 batch-norm nodes is a conv output whose only reader is that
    node."""
    conv_outputs, bn_nodes = set(), []
    for op in ("conv2d", "conv3d", "conv_transpose2d", "conv_transpose3d"):
        def conv(*args, _real=getattr(ad, op)):
            out = _real(*args)
            conv_outputs.add(id(out))
            return out
        monkeypatch.setattr(ad, op, conv)
    real_bn = ad.batch_norm

    def bn(*args, **kwargs):
        bn_nodes.append(real_bn(*args, **kwargs))
        return bn_nodes[-1]

    monkeypatch.setattr(ad, "batch_norm", bn)
    model = StereoModel(ModelConfig())
    model.train()
    loss = sample_loss(model, synth_stereo(0, 64, 128, 64, "slanted_planes"))
    readers, seen, stack = Counter(), set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            readers.update(id(p) for p in node._parents)
            stack.extend(node._parents)
    assert len(bn_nodes) == 37
    for out in bn_nodes:
        x = out._parents[0]
        assert id(x) in conv_outputs and readers[id(x)] == 1


def test_no_grad_forward_peak_at_256x512():
    """tracemalloc peak of a default no-grad forward at 256x512 beyond what
    was live before it: 22.6 MB measured, in the last decoder block.  It
    read 32.1 MB while the forward held the image casts, the right
    pyramid, the correlation volume and each decoder block's batch-norm
    output through the rest of the forward (24.2 MB holding only the
    right pyramid, 25.8 MB only the casts) and the upsampler was a chain
    of full-size ops (31.1 MB)."""
    model = StereoModel(ModelConfig())
    model.eval()
    s = synth_stereo(0, 256, 512, 64, "slanted_planes")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ad.no_grad():
            model(s.left, s.right)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 24e6, peak / 1e6

"""Module state, initialization, and layer wiring."""

import numpy as np
import pytest

from stereomatch import autodiff as ad
from stereomatch import nn


def test_parameter_registration_and_count():
    rng = np.random.default_rng(0)
    block = nn.ConvBnLeaky(3, 8, (3, 3), rng)
    names = [n for n, _ in block.named_parameters()]
    assert names == ["conv.weight", "bn.gamma", "bn.beta"]
    assert block.param_count() == 8 * 3 * 3 * 3 + 8 + 8
    buffer_names = [n for n, _ in block.named_buffers()]
    assert buffer_names == ["bn.running_mean", "bn.running_var"]


def test_init_bounds_and_determinism():
    w1 = nn.Conv(4, 6, (3, 3), np.random.default_rng(7)).weight.data
    w2 = nn.Conv(4, 6, (3, 3), np.random.default_rng(7)).weight.data
    assert np.array_equal(w1, w2)
    bound = np.sqrt(1.0 / (4 * 9))
    assert np.abs(w1).max() <= bound
    assert np.abs(w1).max() > 0.5 * bound  # actually fills the range


class _Holder(nn.Module):
    """A module whose children sit in a plain list and a nested list."""

    def __init__(self, rng):
        super().__init__()
        self.head = nn.ConvBnLeaky(1, 2, (3, 3), rng)
        self.flat = [nn.Conv(2, 2, (1, 1), rng) for _ in range(2)]
        self.nested = [[nn.ConvBnLeaky(2, 2, (1, 1), rng)], []]
        self.padding = (nn.Conv(2, 2, (1, 1), rng),)  # tuples are not state


def test_train_eval_recurses():
    holder = _Holder(np.random.default_rng(0))
    blocks = [holder.head, *holder.flat, holder.nested[0][0]]
    assert holder.training
    holder.eval()
    assert not holder.training
    for child in blocks:
        assert not child.training
    assert not holder.head.bn.training and not holder.nested[0][0].bn.training
    holder.train()
    assert holder.training
    for child in blocks:
        assert child.training
    assert holder.head.bn.training and holder.nested[0][0].bn.training


def test_zero_grad():
    rng = np.random.default_rng(0)
    conv = nn.Conv(1, 1, (3, 3), rng)
    x = ad.Tensor(np.ones((1, 1, 4, 4)))
    out = conv(x)
    ad.backward(ad.tsum(ad.mul(out, out)))
    assert conv.weight.grad is not None
    conv.zero_grad()
    assert conv.weight.grad is None and conv.bias.grad is None


def test_conv_layer_default_padding_preserves_extent():
    rng = np.random.default_rng(1)
    conv = nn.Conv(2, 5, (3, 3), rng)
    out = conv(ad.Tensor(np.zeros((1, 2, 6, 8))))
    assert out.shape == (1, 5, 6, 8)
    conv3 = nn.Conv(2, 4, (1, 5, 5), rng)
    out3 = conv3(ad.Tensor(np.zeros((1, 2, 4, 6, 8))))
    assert out3.shape == (1, 4, 4, 6, 8)
    assert conv3.padding == (0, 2, 2)


def test_conv_transpose_layer_upsamples():
    rng = np.random.default_rng(2)
    up = nn.Conv(4, 2, (4, 4, 4), rng, stride=2, padding=1, transpose=True)
    out = up(ad.Tensor(np.zeros((1, 4, 2, 3, 4))))
    assert out.shape == (1, 2, 4, 6, 8)


def test_bias_free_conv_has_no_bias_param():
    rng = np.random.default_rng(3)
    conv = nn.Conv(2, 3, (1, 1), rng, bias=False)
    assert conv.bias is None
    assert [n for n, _ in conv.named_parameters()] == ["weight"]


def test_batchnorm_layer_updates_buffers_in_train_only():
    rng = np.random.default_rng(4)
    bn = nn.BatchNorm(2)
    x = rng.standard_normal((2, 2, 4, 4)) + 3.0
    bn(ad.Tensor(x.copy()))  # a copy each time: the layer consumes its input
    after_train = bn.running_mean.copy()
    assert not np.allclose(after_train, 0.0)
    bn.eval()
    bn(ad.Tensor(x.copy()))
    assert np.array_equal(bn.running_mean, after_train)


def test_state_arrays_roundtrip_identity():
    rng = np.random.default_rng(5)
    block = nn.ConvBnLeaky(2, 3, (3, 3, 3), rng)
    state = block.state_arrays()
    assert set(state) == {
        "conv.weight", "bn.gamma", "bn.beta", "bn.running_mean", "bn.running_var",
    }
    # state holds the live arrays, not copies
    state["bn.running_mean"][...] = 9.0
    assert np.all(block.bn.running_mean == 9.0)


def test_module_list():
    rng = np.random.default_rng(6)
    holder = _Holder(rng)
    assert [n for n, _ in holder.named_children()] == [
        "head", "flat.0", "flat.1", "nested.0.0",
    ]
    assert [n for n, _ in holder.named_parameters()] == [
        "head.conv.weight", "head.bn.gamma", "head.bn.beta",
        "flat.0.weight", "flat.0.bias", "flat.1.weight", "flat.1.bias",
        "nested.0.0.conv.weight", "nested.0.0.bn.gamma", "nested.0.0.bn.beta",
    ]
    assert [n for n, _ in holder.named_buffers()] == [
        "head.bn.running_mean", "head.bn.running_var",
        "nested.0.0.bn.running_mean", "nested.0.0.bn.running_var",
    ]
    assert holder.param_count() == (2 * 9 + 2 + 2) + 2 * (4 + 2) + (4 + 2 + 2)
    # an entry appended after assignment is state too
    holder.flat.append(nn.Conv(2, 2, (1, 1), rng))
    assert "flat.2.weight" in holder.state_arrays()
    holder.flat.append(3)
    with pytest.raises(TypeError, match="flat.3"):
        holder.param_count()



def test_reassigned_attribute_leaves_the_state():
    """Reassigning an attribute drops what it held: a parameter set to
    None, a module replaced by a list and a list set to None leave no state
    behind, while a name set to a parameter again keeps the place of its
    first assignment."""
    rng = np.random.default_rng(7)
    m = nn.Module()
    m.w = nn.Parameter(np.ones(2))
    m.x = nn.Conv(1, 1, (1, 1), rng)
    m.v = nn.Parameter(np.zeros(1))
    m.w = None
    assert list(m.state_arrays()) == ["v", "x.weight", "x.bias"]
    m.x = [nn.Conv(1, 1, (1, 1), rng, bias=False)]
    assert list(m.state_arrays()) == ["v", "x.0.weight"]
    m.x = None
    assert list(m.state_arrays()) == ["v"]
    m.w = nn.Parameter(np.ones(1))
    m.v = nn.Parameter(np.ones(3))
    assert list(m.state_arrays()) == ["w", "v"] and m.param_count() == 4


@pytest.mark.parametrize("op", ["conv2d", "conv3d", "conv_transpose2d", "conv_transpose3d"])
def test_conv_layer_calls_public_op_at_call_time(monkeypatch, op):
    # the layer is built before the op is replaced, so it must look the op
    # up on the autodiff package when it runs, not hold a reference to it
    nd = int(op[-2])
    conv = nn.Conv(2, 3, (3,) * nd, np.random.default_rng(8),
                   transpose=op.startswith("conv_transpose"))
    calls = []
    original = getattr(ad, op)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(f"stereomatch.autodiff.{op}", spy)
    out = conv(ad.Tensor(np.zeros((1, 2) + (4,) * nd)))
    assert len(calls) == 1
    assert calls[0][1] is conv.weight and calls[0][2] is conv.bias
    assert out.shape[1] == 3


def test_conv_weight_layout_and_init_follow_the_direction():
    forward = nn.Conv(2, 5, (1, 3, 3), np.random.default_rng(9))
    transposed = nn.Conv(2, 5, (1, 3, 3), np.random.default_rng(9), transpose=True)
    assert forward.weight.shape == (5, 2, 1, 3, 3)
    assert transposed.weight.shape == (2, 5, 1, 3, 3)
    # same fan-in and draw order (weight, then bias): identical values
    assert np.array_equal(forward.weight.data.ravel(), transposed.weight.data.ravel())
    assert np.array_equal(forward.bias.data, transposed.bias.data)

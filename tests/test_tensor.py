"""Core engine behaviour: values, broadcasting, graph mechanics, gradients."""

import numpy as np
import pytest

from stereomatch import autodiff as ad
from stereomatch.autodiff.tensor import BN_EPS, BN_MOMENTUM, GAMMA_FLOOR
from stereomatch.errors import ConfigError, GraphError, ShapeError
from stereomatch.nn import LEAKY_SLOPE

from reference import softmax_highprec


def test_tensor_is_float64():
    t = ad.Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.shape == (2, 2)
    assert not t.requires_grad


def test_float32_stays_float32():
    """A float32 array stays float32, a Python number takes the dtype of the
    tensor it meets, and a float32 leaf under a float64 node gets a float32
    gradient."""
    x = np.array([0.5, -1.5, 2.0], dtype=np.float32)
    t = ad.Tensor(x, requires_grad=True)
    assert t.data is x
    for out in (ad.add(t, 1e-30), ad.sub(1.0, t), ad.mul(t, 0.2), ad.div(t, 3),
                ad.add(ad.mul(t, t), 1e-30)):
        assert out.data.dtype == np.float32
    g = np.array([0.1, 0.2, 0.3])
    ad.backward(ad.tsum(ad.mul(t, ad.Tensor(g))))
    assert t.grad.dtype == np.float32
    assert np.array_equal(t.grad, g.astype(np.float32))


def test_elementwise_values():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = np.abs(rng.standard_normal((3, 4))) + 0.5
    ta, tb = ad.Tensor(a), ad.Tensor(b)
    assert np.array_equal(ad.add(ta, tb).data, a + b)
    assert np.array_equal(ad.sub(ta, tb).data, a - b)
    assert np.array_equal(ad.mul(ta, tb).data, a * b)
    assert np.array_equal(ad.div(ta, tb).data, a / b)
    assert np.array_equal(ad.exp(ta).data, np.exp(a))
    assert np.array_equal(ad.absval(ta).data, np.abs(a))
    assert np.array_equal(ad.sqrt(tb).data, np.sqrt(b))


def test_broadcast_values_and_grads():
    x = ad.Tensor(np.arange(3.0).reshape(3, 1), requires_grad=True)
    y = ad.Tensor(np.arange(4.0).reshape(1, 4), requires_grad=True)
    out = ad.tsum(ad.mul(x, y))
    ad.backward(out)
    assert x.grad.shape == (3, 1)
    assert y.grad.shape == (1, 4)
    assert np.allclose(x.grad[:, 0], np.full(3, y.data.sum()))
    assert np.allclose(y.grad[0, :], np.full(4, x.data.sum()))


def test_broadcast_mismatch_raises():
    with pytest.raises(ShapeError):
        ad.add(ad.Tensor(np.zeros((3, 2))), ad.Tensor(np.zeros((4, 2))))


def test_shared_subexpression_accumulates():
    x = ad.Tensor([3.0], requires_grad=True)
    out = ad.tsum(ad.add(x, x))
    ad.backward(out)
    assert np.allclose(x.grad, [2.0])


def test_backward_requires_scalar():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        ad.backward(ad.mul(x, 2.0))


def test_backward_twice_rejected():
    x = ad.Tensor([1.0], requires_grad=True)
    out = ad.tsum(ad.mul(x, x))
    ad.backward(out)
    with pytest.raises(GraphError):
        ad.backward(out)


def test_loss_on_a_swept_graph_rejected():
    """A second loss that shares a swept subgraph, or is built on top of a
    swept loss, raises before it writes any gradient.  Without the check the
    shared node would feed the first loss's gradient (or, freed, none) into
    the second sweep: x.grad would read 10 or 2 instead of 2 + 6 = 8."""
    x = ad.Tensor([1.0], requires_grad=True)
    y = ad.mul(x, 2.0)
    l1 = ad.tsum(y)
    l2 = ad.tsum(ad.mul(y, 3.0))
    ad.backward(l1)
    assert np.array_equal(x.grad, [2.0])
    with pytest.raises(GraphError):
        ad.backward(l2)
    assert np.array_equal(x.grad, [2.0])
    assert not l2._spent and l2.grad is None
    on_top = ad.mul(l1, 2.0)
    with pytest.raises(GraphError):
        ad.backward(on_top)
    assert np.array_equal(x.grad, [2.0])
    assert not on_top._spent and on_top.grad is None


def test_sweep_frees_every_interior_node():
    """After a sweep the loss and every interior node hold no gradient, rule
    or parents; leaves keep their gradients, and an ensured tensor that the
    sweep never reached still gets zeros."""
    x = ad.Tensor([1.0, -2.0], requires_grad=True)
    w = ad.Tensor([3.0, 0.5], requires_grad=True)
    unused = ad.Tensor([5.0], requires_grad=True)
    h = ad.mul(x, w)
    doubled = ad.add(h, h)  # hands one array to both parents
    scaled = ad.mul(doubled, 0.1)
    e = ad.exp(scaled)
    loss = ad.tsum(e)
    ad.backward(loss, ensure=(x, w, unused))
    for node in (h, doubled, scaled, e, loss):
        assert node._spent
        assert node.grad is None and node._backward is None and node._parents == ()
    want = 0.2 * np.exp(0.2 * x.data * w.data)
    assert np.allclose(x.grad, w.data * want)
    assert np.allclose(w.grad, x.data * want)
    assert np.array_equal(unused.grad, np.zeros(1))


def test_grad_accumulates_across_graphs():
    x = ad.Tensor([2.0], requires_grad=True)
    ad.backward(ad.tsum(ad.mul(x, 3.0)))
    ad.backward(ad.tsum(ad.mul(x, 4.0)))
    assert np.allclose(x.grad, [7.0])


def test_off_path_tensor_gets_zero_grad():
    x = ad.Tensor([1.0, 1.0], requires_grad=True)
    unused = ad.Tensor([5.0], requires_grad=True)
    ad.backward(ad.tsum(x), ensure=(x, unused))
    assert np.array_equal(unused.grad, np.zeros(1))
    assert np.array_equal(x.grad, np.ones(2))


def test_detach_blocks_gradient():
    x = ad.Tensor([1.5, -0.5], requires_grad=True)
    out = ad.tsum(ad.mul(x.detach(), 3.0))
    ad.backward(out, ensure=(x,))
    assert np.array_equal(x.grad, np.zeros(2))
    assert np.array_equal(x.detach().data, x.data)


def test_no_grad_suspends_recording():
    x = ad.Tensor([1.0], requires_grad=True)
    with ad.no_grad():
        out = ad.mul(x, x)
    assert not out.requires_grad
    assert ad.is_grad_enabled()


def test_sigmoid_saturation_stays_open():
    y = ad.sigmoid(ad.Tensor([1000.0, -1000.0, 0.0]))
    assert 0.0 < y.data[1] < y.data[2] < y.data[0] < 1.0
    assert y.data[0] > 0.999
    assert y.data[1] < 1e-6
    assert np.isclose(y.data[2], 0.5)


def test_sigmoid_float32_stays_open():
    """In float32 the clamp bounds are float32's neighbours of 0 and 1, so
    saturated outputs and their gradients stay nonzero."""
    t = ad.Tensor(np.array([100.0, -100.0], dtype=np.float32), requires_grad=True)
    y = ad.sigmoid(t)
    assert y.data.dtype == np.float32
    assert 0.0 < y.data[1] < y.data[0] < 1.0
    ad.backward(ad.tsum(y))
    assert t.grad.dtype == np.float32 and (t.grad > 0).all()


def test_leaky_relu_values():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    y = ad.leaky_relu(ad.Tensor(x), 0.2)
    assert np.allclose(y.data, np.where(x >= 0, x, 0.2 * x))


def test_leaky_relu_is_bitwise_the_masked_product():
    """Values and gradients equal where(x >= 0, x, slope * x) and
    g * where(x >= 0, 1, slope) bit for bit, with signed zeros, infinities,
    NaN and subnormals among the inputs."""
    tiny = np.nextafter(0.0, 1.0)
    x = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, tiny, -tiny,
                  2.5e-310, -2.5e-310, -1e308, -3.0, 0.7])
    g = np.random.default_rng(11).standard_normal(x.shape)
    g[:2] = [-0.0, 0.0]
    t = ad.Tensor(x, requires_grad=True)
    y = ad.leaky_relu(t, 0.2)
    ad.backward(ad.tsum(ad.mul(y, ad.Tensor(g))))
    want = np.where(x >= 0, x, 0.2 * x)
    assert np.array_equal(y.data, want, equal_nan=True)
    assert np.array_equal(np.signbit(y.data), np.signbit(want))
    want_grad = g * np.where(x >= 0, 1.0, 0.2)
    assert np.array_equal(t.grad, want_grad)
    assert np.array_equal(np.signbit(t.grad), np.signbit(want_grad))
    with pytest.raises(ConfigError):
        ad.leaky_relu(t, 1.5)  # max(x, slope * x) would pick slope * x for x > 0


def test_softmax_matches_highprec_and_normalizes():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 7)) * 3.0
    y = ad.softmax(ad.Tensor(x), axis=1).data
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(y, softmax_highprec(x, 1), atol=1e-12)


def test_softmax_extreme_inputs():
    y = ad.softmax(ad.Tensor([[1000.0, 0.0]]), axis=1).data
    assert np.all(np.isfinite(y))
    assert y[0, 0] > 1.0 - 1e-12
    assert y[0, 1] < 1e-12


def test_reshape_concat_values():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 6))
    t = ad.Tensor(x)
    assert np.array_equal(ad.reshape(t, (3, 4)).data, x.reshape(3, 4))
    two = ad.concat([t, t], axis=0)
    assert np.array_equal(two.data, np.concatenate([x, x], axis=0))


@pytest.mark.parametrize("shapes,axis", [
    pytest.param([(2, 3), (2, 4)], 0, id="off-axis-extent"),
    pytest.param([(2, 3), (2, 3, 1)], 0, id="rank"),
    pytest.param([(2, 3)], 2, id="axis-one-part"),
    pytest.param([(2, 3), (2, 3)], -3, id="axis-two-parts"),
    pytest.param([], 0, id="empty"),
])
def test_concat_shape_errors_are_shape_errors(shapes, axis):
    with pytest.raises(ShapeError, match=r"concat: cannot join shapes \[") as err:
        ad.concat([ad.Tensor(np.zeros(s)) for s in shapes], axis=axis)
    assert all(str(s) in str(err.value) for s in shapes)


def test_tsum_axis_keepdims():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 4))
    t = ad.Tensor(x)
    assert np.allclose(ad.tsum(t).data, x.sum())
    assert np.allclose(ad.tsum(t, axis=1).data, x.sum(axis=1))
    assert np.allclose(ad.tsum(t, axis=(0, 2), keepdims=True).data, x.sum(axis=(0, 2), keepdims=True))


@pytest.mark.parametrize(
    "name,program",
    [
        ("add", lambda t: ad.tsum(ad.mul(ad.add(t, 1.3), ad.Tensor(_W)))),
        ("sub", lambda t: ad.tsum(ad.mul(ad.sub(2.0, t), ad.Tensor(_W)))),
        ("mul", lambda t: ad.tsum(ad.mul(ad.mul(t, t), ad.Tensor(_W)))),
        ("div", lambda t: ad.tsum(ad.mul(ad.div(1.7, t), ad.Tensor(_W)))),
        ("exp", lambda t: ad.tsum(ad.mul(ad.exp(t), ad.Tensor(_W)))),
        ("sigmoid", lambda t: ad.tsum(ad.mul(ad.sigmoid(t), ad.Tensor(_W)))),
        ("leaky_relu", lambda t: ad.tsum(ad.mul(ad.leaky_relu(t, 0.2), ad.Tensor(_W)))),
        ("softmax", lambda t: ad.tsum(ad.mul(ad.softmax(t, 1), ad.Tensor(_W)))),
        ("reshape", lambda t: ad.tsum(ad.mul(ad.reshape(t, (4, 5)), ad.Tensor(_W.reshape(4, 5))))),
        ("concat", lambda t: ad.tsum(ad.mul(ad.concat([t, t], 1), ad.Tensor(np.concatenate([_W, 2 * _W], 1))))),
        ("sum_axis", lambda t: ad.tsum(ad.mul(ad.tsum(t, axis=0, keepdims=True), ad.Tensor(_W[:1])))),
    ],
)
def test_gradcheck_elementwise_and_shape_ops(name, program):
    rng = np.random.default_rng(17)
    # keep inputs away from kinks (abs/leaky at 0) and poles (div/sqrt at 0)
    x = rng.uniform(0.4, 1.6, size=(4, 5)) * np.where(rng.random((4, 5)) < 0.5, -1.0, 1.0)
    if name in ("div", "sqrt"):
        x = np.abs(x) + 0.5
    err = ad.grad_check(program, x, step=1e-4 if name == "softmax" else 1e-3)
    assert err <= 1e-4, f"{name}: {err}"


_W = np.random.default_rng(99).standard_normal((4, 5))


def test_gradcheck_sqrt_and_abs():
    rng = np.random.default_rng(4)
    pos = rng.uniform(0.5, 2.0, size=(3, 3))
    err = ad.grad_check(lambda t: ad.tsum(ad.mul(ad.sqrt(t), ad.Tensor(_W[:3, :3]))), pos)
    assert err <= 1e-4
    signed = pos * np.where(rng.random((3, 3)) < 0.5, -1.0, 1.0)
    err = ad.grad_check(lambda t: ad.tsum(ad.mul(ad.absval(t), ad.Tensor(_W[:3, :3]))), signed)
    assert err <= 1e-4


def test_gradcheck_broadcast_mul():
    # a unit middle axis, as when a [B,C,1,H,W] map gates a [B,C,D,H,W] volume:
    # the gradient of each operand is reduced back to its own shape
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 1, 4))
    w = rng.standard_normal((3, 5, 4))
    probe = ad.Tensor(rng.standard_normal((3, 5, 4)))
    err = ad.grad_check(lambda t: ad.tsum(ad.mul(ad.mul(t, ad.Tensor(w)), probe)), x)
    assert err <= 1e-4
    err = ad.grad_check(lambda t: ad.tsum(ad.mul(ad.mul(ad.Tensor(x), t), probe)), w)
    assert err <= 1e-4


class TestBatchNorm:
    """Plain batch norm is the fused node at slope 1.0; the model's slope is
    checked against the composed chain (batch norm at 1.0, then leaky_relu)."""

    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.standard_normal((2, 3, 5, 5)) * 4.0 + 7.0)
        gamma = ad.Tensor(np.ones(3), requires_grad=True)
        beta = ad.Tensor(np.zeros(3), requires_grad=True)
        rm, rv = np.zeros(3), np.ones(3)
        y = ad.batch_norm(x, gamma, beta, rm, rv, training=True, negative_slope=1.0)
        got_mean = y.data.mean(axis=(0, 2, 3))
        got_var = y.data.var(axis=(0, 2, 3))
        assert np.allclose(got_mean, 0.0, atol=1e-10)
        assert np.allclose(got_var, 1.0, atol=1e-3)

    def test_running_stats_update(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 2, 4, 4)) * 3.0 + 1.0
        gamma = ad.Tensor(np.ones(2), requires_grad=True)
        beta = ad.Tensor(np.zeros(2), requires_grad=True)
        rm, rv = np.zeros(2), np.ones(2)
        # a copy: the node writes its output into its input's array
        ad.batch_norm(ad.Tensor(x.copy()), gamma, beta, rm, rv, training=True,
                      negative_slope=1.0)
        assert BN_MOMENTUM == 0.1
        mu = x.mean(axis=(0, 2, 3))
        n = x.size // 2
        var_unbiased = x.var(axis=(0, 2, 3)) * n / (n - 1)
        assert np.allclose(rm, 0.1 * mu)
        assert np.allclose(rv, 0.9 * 1.0 + 0.1 * var_unbiased)

    def test_eval_uses_running_stats(self):
        x = np.full((1, 1, 2, 2), 5.0)
        gamma = ad.Tensor(np.array([2.0]), requires_grad=True)
        beta = ad.Tensor(np.array([1.0]), requires_grad=True)
        rm, rv = np.array([3.0]), np.array([4.0])
        y = ad.batch_norm(ad.Tensor(x), gamma, beta, rm, rv, training=False,
                          negative_slope=1.0)
        assert BN_EPS == 1e-5
        assert np.allclose(y.data, 2.0 * (5.0 - 3.0) / np.sqrt(4.0 + 1e-5) + 1.0, rtol=1e-15)
        assert np.array_equal(rm, [3.0]) and np.array_equal(rv, [4.0])

    def test_constant_channel_maps_to_beta(self):
        x = np.full((2, 1, 3, 3), 9.0)
        gamma = ad.Tensor(np.array([1.7]), requires_grad=True)
        beta = ad.Tensor(np.array([-0.3]), requires_grad=True)
        y = ad.batch_norm(ad.Tensor(x), gamma, beta, np.zeros(1), np.ones(1), training=True,
                          negative_slope=1.0)
        assert np.all(np.isfinite(y.data))
        assert np.allclose(y.data, -0.3)

    @pytest.mark.parametrize("slope", [0.0, -0.2, 1.5])
    def test_slope_outside_zero_one_rejected(self, slope):
        # at slope 0 the sign of the output no longer tells the sides apart
        with pytest.raises(ConfigError):
            ad.batch_norm(ad.Tensor(np.ones((2, 1, 2))), ad.Tensor(np.ones(1)),
                          ad.Tensor(np.zeros(1)), np.zeros(1), np.ones(1),
                          training=True, negative_slope=slope)

    def test_gradcheck_train_mode(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 2, 3, 3))
        w = rng.standard_normal((2, 2, 3, 3))
        gamma = ad.Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        beta = ad.Tensor(rng.standard_normal(2), requires_grad=True)

        def wrt_x(t):
            rm, rv = np.zeros(2), np.ones(2)
            y = ad.batch_norm(t, gamma, beta, rm, rv, training=True, negative_slope=1.0)
            return ad.tsum(ad.mul(y, ad.Tensor(w)))

        assert ad.grad_check(wrt_x, x, step=1e-4) <= 1e-4

        def wrt_gamma(t):
            rm, rv = np.zeros(2), np.ones(2)
            y = ad.batch_norm(ad.Tensor(x.copy()), t, beta, rm, rv, training=True,
                              negative_slope=1.0)
            return ad.tsum(ad.mul(y, ad.Tensor(w)))

        assert ad.grad_check(wrt_gamma, gamma.data.copy(), step=1e-4) <= 1e-4

    def test_gradcheck_eval_mode(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 2, 3, 3))
        w = rng.standard_normal((1, 2, 3, 3))
        gamma = ad.Tensor(np.array([1.2, 0.8]), requires_grad=True)
        beta = ad.Tensor(np.array([0.1, -0.2]), requires_grad=True)
        rm, rv = np.array([0.3, -0.1]), np.array([1.4, 0.9])

        def wrt_x(t):
            y = ad.batch_norm(t, gamma, beta, rm, rv, training=False, negative_slope=1.0)
            return ad.tsum(ad.mul(y, ad.Tensor(w)))

        assert ad.grad_check(wrt_x, x) <= 1e-4

    def test_eval_is_one_node_matching_the_composed_chain(self):
        """Eval mode at slope 1.0 is one graph node whose value equals that
        of sub/mul/mul/add on the running statistics bit for bit, and whose
        x, gamma and beta gradients, which read the normalized input back
        from the output, agree with the chain's to 1e-12."""
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 4, 5))
        gamma, beta = rng.uniform(0.5, 1.5, 3), rng.standard_normal(3)
        rm, rv = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
        probe = ad.Tensor(rng.standard_normal(x.shape))
        cshape = (1, 3, 1, 1)

        def run(fused):
            xt = ad.Tensor(x.copy(), requires_grad=True)
            gt = ad.Tensor(gamma, requires_grad=True)
            bt = ad.Tensor(beta, requires_grad=True)
            if fused:
                y = ad.batch_norm(xt, gt, bt, rm, rv, training=False, negative_slope=1.0)
                assert y._parents == (xt, gt, bt)
            else:
                inv = 1.0 / np.sqrt(rv + 1e-5)
                xn = ad.mul(ad.sub(xt, rm.reshape(cshape)), inv.reshape(cshape))
                y = ad.add(ad.mul(xn, ad.reshape(gt, cshape)), ad.reshape(bt, cshape))
            ad.backward(ad.tsum(ad.mul(y, probe)))
            return y.data, xt.grad, gt.grad, bt.grad

        (value, *grads), (want, *chain) = run(True), run(False)
        assert np.array_equal(value, want)
        for got, ref in zip(grads, chain):
            assert np.allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    def test_fused_leaky_equals_batch_norm_then_leaky_relu(self, training):
        """At the model's slope the fused node matches batch norm at 1.0
        followed by leaky_relu: bit for bit in eval mode, within 1e-12 in
        train mode, for the value and the running buffers; the x, gamma and
        beta gradients agree to 1e-12 in both modes, because the fused node
        reads the normalized input back from its output.  beta straddles 0,
        so both sides of the kink occur."""
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 3, 4, 5)) * 2.0 + 0.5
        gamma, beta = rng.uniform(0.5, 1.5, 3), np.array([-0.4, 0.0, 0.6])
        probe = ad.Tensor(rng.standard_normal(x.shape))
        mean0, var0 = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)

        def run(fused):
            xt = ad.Tensor(x.copy(), requires_grad=True)
            gt = ad.Tensor(gamma, requires_grad=True)
            bt = ad.Tensor(beta, requires_grad=True)
            rm, rv = mean0.copy(), var0.copy()
            if fused:
                y = ad.batch_norm(xt, gt, bt, rm, rv, training=training,
                                  negative_slope=LEAKY_SLOPE)
                assert y._parents == (xt, gt, bt)
            else:
                y = ad.leaky_relu(ad.batch_norm(xt, gt, bt, rm, rv, training=training,
                                                negative_slope=1.0), LEAKY_SLOPE)
            ad.backward(ad.tsum(ad.mul(y, probe)))
            return y.data, rm, rv, xt.grad, gt.grad, bt.grad

        fused, chain = run(True), run(False)
        assert (fused[0] < 0).any() and (fused[0] > 0).any()
        for i, (got, want) in enumerate(zip(fused, chain)):
            if training or i >= 3:
                assert np.allclose(got, want, rtol=0, atol=1e-12)
            else:
                assert np.array_equal(got, want)

    def test_output_is_written_into_the_input(self):
        """The node consumes its input: its output is x's own array and keeps
        x's dtype.  An input that is read-only or not C-contiguous is copied
        first and left as it was."""
        rng = np.random.default_rng(15)
        gamma, beta = ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3))

        def bn(x):
            return ad.batch_norm(ad.Tensor(x), gamma, beta, np.zeros(3), np.ones(3),
                                 training=True, negative_slope=LEAKY_SLOPE).data

        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        y = bn(x)
        assert y is x and y.dtype == np.float32
        frozen = rng.standard_normal((2, 3, 4, 4))
        frozen.flags.writeable = False
        strided = rng.standard_normal((2, 4, 4, 3)).transpose(0, 3, 1, 2)
        for x in (frozen, strided):
            before = x.copy()
            y = bn(x)
            assert not np.shares_memory(y, x) and np.array_equal(x, before)
            assert np.array_equal(y, bn(before))

    @staticmethod
    def _composed(xt, gt, bt, rm, rv, training):
        """Batch norm and leaky ReLU from primitive ops, the oracle."""
        cshape, axes = (1, -1, 1, 1), (0, 2, 3)
        if training:
            n = xt.size // xt.shape[1]
            xc = ad.sub(xt, ad.div(ad.tsum(xt, axis=axes, keepdims=True), n))
            var = ad.div(ad.tsum(ad.mul(xc, xc), axis=axes, keepdims=True), n)
        else:
            xc, var = ad.sub(xt, rm.reshape(cshape)), ad.Tensor(rv.reshape(cshape))
        xn = ad.div(xc, ad.sqrt(ad.add(var, BN_EPS)))
        z = ad.add(ad.mul(xn, ad.reshape(gt, cshape)), ad.reshape(bt, cshape))
        return ad.leaky_relu(z, LEAKY_SLOPE)

    @pytest.mark.parametrize("training", [True, False])
    def test_matches_composed_chain_on_both_sides_of_the_gamma_floor(self, training):
        """Channels with |gamma| at or above GAMMA_FLOOR read the normalized
        input back from the output; the others (gamma 0, 0.01 and -0.04
        here) keep it, since their output holds too little of it.  Either
        way the value and the x, gamma and beta gradients match the composed
        float64 chain to 1e-12, and a zero gamma gives finite gradients."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 5, 4, 4)) * 2.0 + 0.5
        gamma = np.array([1.0, 0.0, 0.01, -0.04, GAMMA_FLOOR])
        beta = np.array([-0.4, 0.3, 0.05, 0.0, 0.6])
        mean0, var0 = rng.standard_normal(5), rng.uniform(0.5, 2.0, 5)
        probe = ad.Tensor(rng.standard_normal(x.shape))

        def run(fused):
            xt = ad.Tensor(x.copy(), requires_grad=True)
            gt = ad.Tensor(gamma, requires_grad=True)
            bt = ad.Tensor(beta, requires_grad=True)
            rm, rv = mean0.copy(), var0.copy()
            if fused:
                y = ad.batch_norm(xt, gt, bt, rm, rv, training=training,
                                  negative_slope=LEAKY_SLOPE)
            else:
                y = self._composed(xt, gt, bt, rm, rv, training)
            ad.backward(ad.tsum(ad.mul(y, probe)))
            return y.data, xt.grad, gt.grad, bt.grad

        fused, chain = run(True), run(False)
        assert (fused[0] < 0).any() and (fused[0] > 0).any()
        for got, want in zip(fused, chain):
            assert np.isfinite(got).all()
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    def test_backward_leaves_incoming_gradient_untouched(self, training):
        """add hands one gradient array to both parents, so a backward that
        wrote into it would corrupt its sibling's: each of two fused nodes
        under one add gets the gradients it gets alone."""
        rng = np.random.default_rng(14)
        xs = [rng.standard_normal((2, 3, 4, 4)) for _ in range(2)]
        gamma, beta = rng.uniform(0.5, 1.5, 3), rng.standard_normal(3)
        probe = ad.Tensor(rng.standard_normal((2, 3, 4, 4)))

        def fused(x):
            xt = ad.Tensor(x.copy(), requires_grad=True)
            gt = ad.Tensor(gamma, requires_grad=True)
            bt = ad.Tensor(beta, requires_grad=True)
            y = ad.batch_norm(xt, gt, bt, np.zeros(3), np.ones(3), training=training,
                              negative_slope=LEAKY_SLOPE)
            return y, (xt, gt, bt)

        alone = []
        for x in xs:
            y, leaves = fused(x)
            ad.backward(ad.tsum(ad.mul(y, probe)))
            alone.append([t.grad for t in leaves])
        (ya, leaves_a), (yb, leaves_b) = fused(xs[0]), fused(xs[1])
        ad.backward(ad.tsum(ad.mul(ad.add(ya, yb), probe)))
        for leaves, want in zip((leaves_a, leaves_b), alone):
            for t, w in zip(leaves, want):
                assert np.array_equal(t.grad, w)

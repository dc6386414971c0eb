"""Reverse-mode automatic differentiation over float64 or float32 numpy arrays.

Each operation produces a new :class:`Tensor` that remembers its parents and
a backward rule.  :func:`backward` replays the recorded graph once in reverse
topological order, accumulates gradients into every leaf that requires them
and frees each node as it passes it.  Values are plain ``numpy`` arrays
throughout; nothing here is lazy.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ConfigError, GraphError, ShapeError

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "exp",
    "sqrt",
    "absval",
    "sigmoid",
    "leaky_relu",
    "reshape",
    "concat",
    "tsum",
    "softmax",
    "batch_norm",
]

_GRAD_ENABLED = True
# batch norm's running-statistics momentum and variance epsilon, PyTorch's
# defaults, which the paper's code keeps
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
# below this |gamma| a batch-norm channel keeps its normalized input for the
# backward rather than recovering it from the output (see batch_norm)
GAMMA_FLOOR = 0.05


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


class no_grad:
    """Context manager that suspends graph recording (forward values only)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


class Tensor:
    """A float array plus the bookkeeping needed for reverse-mode autodiff.

    Attributes
    ----------
    data:
        The value, a ``numpy.ndarray`` of dtype float32 when given a float32
        array and float64 for any other input.  The model computes in float32;
        every op, oracle and gradient check also runs in float64.  Treated as
        immutable once the tensor has entered a graph (optimizers may rewrite
        leaf data between graph lifetimes), with one exception:
        :func:`batch_norm` consumes its input, writing its output into the
        input's array, so a tensor passed to it must be one that nothing
        else reads afterwards, such as a fresh conv output.
    grad:
        Accumulated gradient, ``None`` until populated by :func:`backward`.
        After a sweep only leaves (and tensors passed as ``ensure``) hold
        one; an interior node drops its gradient once its rule has run.
    requires_grad:
        Whether gradients should flow into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_spent")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple["Tensor", ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None
        self._spent = False

    # -- conveniences -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a value-identical tensor through which no gradient flows."""
        return Tensor(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _lift(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Lift both operands; a Python number takes the dtype of the tensor it
    meets, so a constant never promotes a float32 computation."""
    if isinstance(a, Tensor) and isinstance(b, (int, float)):
        b = np.asarray(b, a.data.dtype)
    elif isinstance(b, Tensor) and isinstance(a, (int, float)):
        a = np.asarray(a, b.data.dtype)
    return _lift(a), _lift(b)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """Create a graph node; records parents only while gradients are enabled."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def backward(loss: Tensor, ensure: Iterable[Tensor] = ()) -> None:
    """Run one reverse pass from scalar `loss`.

    Accumulates ``grad`` into every leaf that requires gradients and lies on
    a path to `loss`.  The sweep frees the graph as it passes: once a node's
    backward rule has run, the node drops its gradient, its rule (and with it
    the activations the rule saved) and its parents, and is marked spent.
    After the sweep only leaves, and the tensors in `ensure`, hold gradients.
    Tensors in `ensure` that the sweep never reaches get an explicit all-zero
    gradient so callers can treat every parameter uniformly.  A graph may be
    swept only once: a sweep whose walk reaches a spent node, from the same
    loss or from a new loss built on the old graph, raises before it writes
    any gradient.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    ensure = tuple(ensure)
    keep = {id(t) for t in ensure}

    # Iterative post-order walk; graphs are deep enough that recursion is unsafe.
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._spent:
            raise GraphError("backward reached a graph that was already swept; rebuild it first")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        _sweep(topo.pop(), keep)

    for tensor in ensure:
        if tensor.requires_grad and tensor.grad is None:
            tensor.grad = np.zeros_like(tensor.data)


def _sweep(node: Tensor, keep: set[int]) -> None:
    """Run an interior node's backward rule into its parents' gradients, then
    free the node (its gradient too, unless its id is in `keep`).  A leaf
    keeps its gradient.  What the rule saved or returned dies with this
    frame, before the next node's rule runs."""
    if node._backward is None:
        return
    node_grad, rule, parents = node.grad, node._backward, node._parents
    if id(node) not in keep:
        node.grad = None
    node._backward, node._parents, node._spent = None, (), True
    if node_grad is None:
        return
    for parent, grad in zip(parents, rule(node_grad)):
        if grad is None or not parent.requires_grad:
            continue
        # a float64 node (say, the loss against float64 ground truth)
        # hands a float32 parent a float32 gradient
        grad = grad.astype(parent.data.dtype, copy=False)
        if parent.grad is None:
            parent.grad = grad
        else:
            # out of place: add's rule hands one array to both its parents
            parent.grad = parent.grad + grad


# -- elementwise arithmetic --------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_broadcast(a, b, "add")

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(a.data + b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_broadcast(a, b, "sub")

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(a.data - b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_broadcast(a, b, "mul")

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(a.data * b.data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_broadcast(a, b, "div")

    def bw(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _node(a.data / b.data, (a, b), bw)


def exp(t) -> Tensor:
    t = _lift(t)
    out_data = np.exp(t.data)

    def bw(g):
        return (g * out_data,)

    return _node(out_data, (t,), bw)


def sqrt(t) -> Tensor:
    t = _lift(t)
    out_data = np.sqrt(t.data)

    def bw(g):
        return (g * 0.5 / out_data,)

    return _node(out_data, (t,), bw)


def absval(t) -> Tensor:
    t = _lift(t)

    def bw(g):
        return (g * np.sign(t.data),)

    return _node(np.abs(t.data), (t,), bw)


def sigmoid(t) -> Tensor:
    """Logistic function with outputs clamped to the open interval (0, 1)."""
    t = _lift(t)
    # Branch on sign so neither exp overflows; then keep strictly inside (0, 1)
    # for downstream code that divides by y or (1 - y).
    x = t.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)
    zero, one = x.dtype.type(0), x.dtype.type(1)
    np.clip(out_data, np.nextafter(zero, one), np.nextafter(one, zero), out=out_data)

    def bw(g):
        return (g * out_data * (1.0 - out_data),)

    return _node(out_data, (t,), bw)


def leaky_relu(t, negative_slope: float) -> Tensor:
    """x where x >= 0, else negative_slope * x, for a slope in [0, 1]: then
    max(x, slope * x) picks exactly that, so no mask is kept."""
    if not 0.0 <= negative_slope <= 1.0:
        raise ConfigError(f"leaky_relu: negative_slope must be in [0, 1], got {negative_slope}")
    t = _lift(t)
    out_data = t.data * negative_slope
    np.maximum(t.data, out_data, out=out_data)

    def bw(g):
        grad = _leaky_slope(t.data, t.data.dtype.type(negative_slope))
        grad *= g
        return (grad,)

    return _node(out_data, (t,), bw)


def _leaky_slope(x: np.ndarray, slope) -> np.ndarray:
    """The leaky derivative at x, 1.0 where x >= 0 and else slope (of x's
    dtype): the mask times (1 - slope), plus slope, is exactly one of the two
    for a slope in [0, 1], without the branches of np.where."""
    grad = (x >= 0) * (1 - slope)
    grad += slope
    return grad


# -- shape manipulation -------------------------------------------------------


def reshape(t, shape: tuple[int, ...]) -> Tensor:
    t = _lift(t)
    try:
        out_data = t.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {t.shape} to {shape}") from None
    in_shape = t.shape

    def bw(g):
        return (g.reshape(in_shape),)

    return _node(out_data, (t,), bw)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    parts = [_lift(t) for t in tensors]
    try:
        out_data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:  # numpy's AxisError is a ValueError too
        shapes = ", ".join(str(p.shape) for p in parts)
        raise ShapeError(f"concat: cannot join shapes [{shapes}] on axis {axis}: {exc}") from None
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        grads = []
        for i in range(len(parts)):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(index)])
        return tuple(grads)

    return _node(out_data, parts, bw)


def tsum(t, axis=None, keepdims: bool = False) -> Tensor:
    t = _lift(t)
    in_shape = t.shape
    if axis is None:
        axes = tuple(range(t.ndim))
    elif isinstance(axis, int):
        axes = (axis % t.ndim,)
    else:
        axes = tuple(a % t.ndim for a in axis)

    def bw(g):
        if not keepdims:
            kept = list(g.shape)
            for a in sorted(axes):
                kept.insert(a, 1)
            g = g.reshape(kept)
        return (np.broadcast_to(g, in_shape),)

    return _node(t.data.sum(axis=axes, keepdims=keepdims), (t,), bw)


# -- composites used widely ---------------------------------------------------


def softmax(t: Tensor, axis: int) -> Tensor:
    """Max-stabilized softmax along `axis`, composed from primitives."""
    t = _lift(t)
    shift = sub(t, np.max(t.data, axis=axis, keepdims=True))
    e = exp(shift)
    return div(e, tsum(e, axis=axis, keepdims=True))


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    *,
    training: bool,
    negative_slope: float,
) -> Tensor:
    """Batch normalization over all axes except axis 1 (channels), then a
    leaky ReLU, as one node; slope 1.0 gives plain batch norm.  Eval mode
    normalizes with the running buffers; training mode with the batch
    statistics, updating the buffers in place to ``(1 - BN_MOMENTUM) * old +
    BN_MOMENTUM * new`` (unbiased variance in the buffer, biased in the
    normalization).  Both compute ``(x - mean) * inv * gamma + beta``, with
    ``inv = 1 / sqrt(var + BN_EPS)``, in that order.

    The node consumes its input (in-place activated batch norm, Rota Bulò et
    al., arXiv:1712.02616): the output is written into ``x.data`` itself,
    which keeps x's dtype, so nothing may read ``x.data`` after this call.
    Only an array that is not writeable or not C-contiguous is copied
    first.  The backward recovers the normalized input from the output,
    ``xhat = (leaky^-1(y) - beta) / gamma``; a channel whose ``|gamma|`` is
    below `GAMMA_FLOOR` keeps its normalized input instead."""
    # the backward reads the leaky derivative from the sign of the output,
    # which tells the two sides apart only for a positive slope
    if not 0.0 < negative_slope <= 1.0:
        raise ConfigError(f"batch_norm: negative_slope must be in (0, 1], got {negative_slope}")
    x = _lift(x)
    if x.ndim < 2:
        raise ShapeError(f"batch_norm expects a channel axis, got shape {x.shape}")
    channels = x.shape[1]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ShapeError(
            f"batch_norm: gamma/beta must have shape ({channels},), "
            f"got {gamma.shape} and {beta.shape}"
        )
    cshape = (1, channels) + (1,) * (x.ndim - 2)
    axes = (0,) + tuple(range(2, x.ndim))
    count = x.data.size // channels

    # C order, so that out_data.reshape(-1) below is a view
    out_data = x.data
    if not (out_data.flags.c_contiguous and out_data.flags.writeable):
        out_data = np.array(out_data, order="C")
    if training:
        mean = out_data.mean(axis=axes, keepdims=True)
        out_data -= mean
        var = np.square(out_data).mean(axis=axes)  # bit for bit x.var, one pass fewer
        for buf, new in ((running_mean, mean.reshape(channels)),
                         (running_var, var * count / max(count - 1, 1))):
            buf *= 1.0 - BN_MOMENTUM
            buf += BN_MOMENTUM * new
    else:
        out_data -= running_mean.reshape(cshape)
        var = running_var
    inv = (1.0 / np.sqrt(var + BN_EPS)).reshape(cshape)
    gamma_c = gamma.data.reshape(cshape)
    beta_c = beta.data.reshape(cshape)
    out_data *= inv
    low = np.abs(gamma.data) < GAMMA_FLOOR
    kept = out_data[:, low] if low.any() else None  # those channels' xhat, a copy
    divisor = np.where(low, 1, gamma.data).reshape(cshape)
    out_data *= gamma_c
    out_data += beta_c
    # max(v, slope * v) in place, in blocks: no full-size temporary
    slope = out_data.dtype.type(negative_slope)
    flat = out_data.reshape(-1)
    tmp = np.empty(min(flat.size, 1 << 16), flat.dtype)
    for i in range(0, flat.size, 1 << 16):
        part = flat[i : i + tmp.size]
        np.maximum(part, np.multiply(part, slope, out=tmp[: part.size]), out=part)

    def bw(g):
        dy = _leaky_slope(out_data, slope)
        xhat = out_data / dy  # leaky^-1(y): y over the leaky's slope at y
        dy *= g
        xhat -= beta_c
        xhat /= divisor
        if kept is not None:
            xhat[:, low] = kept
        dx = np.multiply(dy, xhat)
        dgamma = dx.sum(axis=axes)
        dbeta = dy.sum(axis=axes)
        np.multiply(dy, gamma_c, out=dx)
        dx *= inv
        if training:
            # the batch statistics depend on x: subtract their share
            xhat *= dgamma.reshape(cshape)
            xhat += dbeta.reshape(cshape)
            xhat *= gamma_c * inv / count
            dx -= xhat
        return dx, dgamma, dbeta

    return _node(out_data, (x, gamma, beta), bw)

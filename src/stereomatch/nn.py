"""Minimal layer system: modules whose state is their attributes; common layers.

Parameters are initialized uniformly in ``[-b, b]`` with ``b = sqrt(1/fan_in)``
from an explicitly passed ``numpy.random.Generator``, so a model built twice
from the same seed is bit-identical.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class Parameter(Tensor):
    """A tensor that is always trainable."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = math.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Base class whose state is its own attributes, walked in the order they
    were first assigned: an attribute holding a `Parameter` is a parameter,
    one holding a numpy array is a buffer, one holding a `Module` is a child,
    and entry i of a list attribute `name` is the child `name.i`, recursively
    for nested lists.  Anything else, tuples included, is not state."""

    training = True

    # -- traversal ----------------------------------------------------------

    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        """Child modules by name, list entries flattened in list order."""

        def walk(name, value):
            if isinstance(value, list):
                for i, entry in enumerate(value):
                    yield from walk(f"{name}.{i}", entry)
            elif isinstance(value, Module):
                yield name, value
            else:
                raise TypeError(f"{name} holds a {type(value).__name__}, not a Module")

        for name, value in vars(self).items():
            if isinstance(value, (Module, list)):
                yield from walk(name, value)

    def _named(self, kind, prefix=""):
        for name, value in vars(self).items():
            if isinstance(value, kind):
                yield prefix + name, value
        for cname, child in self.named_children():
            yield from child._named(kind, prefix + cname + ".")

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        return self._named(Parameter)

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        return self._named(np.ndarray)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Parameters and buffers, keyed by dotted path, in a stable order."""
        state = {name: p.data for name, p in self.named_parameters()}
        for name, b in self.named_buffers():
            state[name] = b
        return state

    def cast(self, dtype) -> "Module":
        """Convert every parameter and buffer, here and in every child, to
        dtype; the new arrays replace the old ones."""
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                value.data = value.data.astype(dtype)
            elif isinstance(value, np.ndarray):
                setattr(self, name, value.astype(dtype))
        for _, child in self.named_children():
            child.cast(dtype)
        return self

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- mode / grads -------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for _, child in self.named_children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


# negative slope of every leaky ReLU in the model
LEAKY_SLOPE = 0.2


class Conv(Module):
    """2-D or 3-D convolution, or its transpose; the length of `kernel`
    picks the dimension.  Padding defaults to (k - 1) // 2 per axis, which
    keeps the extent of a stride-1 conv.  The op is looked up on the
    autodiff package at each call, so a wrapper installed there after the
    layer was built (the benchmark's tracer, a test's spy) is the one used."""

    def __init__(self, in_ch, out_ch, kernel, rng, stride=1, padding=None, bias=True,
                 transpose=False):
        kernel = tuple(kernel)
        self.op = f"conv_transpose{len(kernel)}d" if transpose else f"conv{len(kernel)}d"
        self.stride = stride
        self.padding = tuple((k - 1) // 2 for k in kernel) if padding is None else padding
        fan_in = in_ch * math.prod(kernel)
        channels = (in_ch, out_ch) if transpose else (out_ch, in_ch)
        self.weight = Parameter(uniform_fan_in(rng, channels + kernel, fan_in))
        self.bias = Parameter(uniform_fan_in(rng, (out_ch,), fan_in)) if bias else None

    def forward(self, x):
        return getattr(ad, self.op)(x, self.weight, self.bias, self.stride, self.padding)


class BatchNorm(Module):
    """Batch normalization over every axis except the channel axis, then the
    model's leaky ReLU, as one graph node; works for both 4-D and 5-D
    activations."""

    def __init__(self, channels: int):
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x):
        return ad.batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                             training=self.training, negative_slope=LEAKY_SLOPE)


class ConvBnLeaky(Module):
    """conv -> BatchNorm -> leaky ReLU block (conv runs bias-free since the
    norm would cancel a bias anyway)."""

    def __init__(self, in_ch, out_ch, kernel, rng, stride=1):
        self.conv = Conv(in_ch, out_ch, kernel, rng, stride, bias=False)
        self.bn = BatchNorm(out_ch)

    def forward(self, x):
        return self.bn(self.conv(x))

"""Self-contained reverse-mode autodiff engine used by the whole package."""

from . import tensor as _tensor
from .conv import conv2d, conv3d, conv_transpose2d, conv_transpose3d
from .gradcheck import grad_check
from .tensor import *  # noqa: F403 -- exactly the names in tensor.__all__

__all__ = _tensor.__all__ + [
    "conv2d", "conv3d", "conv_transpose2d", "conv_transpose3d", "grad_check",
]

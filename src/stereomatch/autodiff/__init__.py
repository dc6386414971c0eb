"""Self-contained reverse-mode autodiff engine used by the whole package.

Importing the engine fixes glibc's allocation thresholds once, so that the
arrays one forward frees stay mapped for the next: blocks under
`MMAP_THRESHOLD` come from the heap, and the heap is handed back to the
kernel only past `TRIM_THRESHOLD`.  Setting either value switches off
glibc's dynamic thresholds, and either one alone faults in more pages per
forward than the default, so the trim threshold is set only once the mmap
threshold has been.  `MALLOC_POLICY` records what was applied; it is None
where there is no `mallopt` (musl, macOS) and nothing was changed.
"""

import ctypes

from . import tensor as _tensor
from .conv import conv2d, conv3d, conv_transpose2d, conv_transpose3d
from .gradcheck import grad_check
from .tensor import *  # noqa: F403 -- exactly the names in tensor.__all__

__all__ = _tensor.__all__ + [
    "conv2d", "conv3d", "conv_transpose2d", "conv_transpose3d", "grad_check",
]

MMAP_THRESHOLD = 32 << 20  # glibc's own cap for its dynamic mmap threshold
TRIM_THRESHOLD = 1 << 30  # far above any forward's or train step's heap
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # <malloc.h>


def _keep_freed_arrays_mapped() -> dict | None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    if mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        return None
    trimmed = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return {"mmap_threshold": MMAP_THRESHOLD,
            "trim_threshold": TRIM_THRESHOLD if trimmed else None}


MALLOC_POLICY = _keep_freed_arrays_mapped()

"""Finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, backward, no_grad

__all__ = ["grad_check"]


def grad_check(
    fn: Callable[[Tensor], Tensor],
    x,
    step: float = 1e-3,
    max_coords: int | None = None,
    seed: int = 0,
) -> float:
    """Compare reverse-mode gradients of scalar program `fn` against central
    finite differences at `x`.

    Returns the worst relative error over the checked coordinates, where the
    relative error of a pair (a, n) is |a - n| / max(|a|, |n|, 1e-8).  When
    `max_coords` is given, a seeded subsample of input coordinates is checked
    instead of all of them (useful for whole-pipeline programs).  Every call
    of `fn` gets its own copy of the point, so `fn` may consume its input's
    data, as `batch_norm` does.
    """
    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    probe = Tensor(base.copy(), requires_grad=True)
    out = fn(probe)
    if out.size != 1:
        raise ShapeError(f"grad_check needs a scalar program, got shape {out.shape}")
    backward(out, ensure=(probe,))
    analytic = probe.grad.reshape(-1)

    flat = base.reshape(-1)
    coords = np.arange(flat.size)
    if max_coords is not None and max_coords < flat.size:
        rng = np.random.default_rng(seed)
        coords = rng.choice(flat.size, size=max_coords, replace=False)
        coords.sort()

    worst = 0.0
    with no_grad():
        for i in coords:
            saved = flat[i]
            flat[i] = saved + step
            f_plus = fn(Tensor(base.copy())).item()
            flat[i] = saved - step
            f_minus = fn(Tensor(base.copy())).item()
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(analytic[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst

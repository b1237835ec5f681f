"""Trend/seasonal split by edge-replicated moving average.

The trend is the centered moving average of the window (edges replicated so
the length is preserved); the seasonal part is the residual, so the two
components always reconstruct the input exactly. The moving average is
linear, so the differentiable trend's backward pass is its transpose,
`kernels.moving_average_adjoint`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernels
from .tensor import Tensor, custom_op


class DecompositionError(ValueError):
    pass


def check_kernel(kernel: int, length: int) -> None:
    """A moving-average kernel must be odd and within [1, length]."""
    if kernel % 2 == 0:
        raise DecompositionError(f"kernel must be odd, got {kernel}")
    if not 1 <= kernel <= length:
        raise DecompositionError(f"kernel {kernel} outside [1, {length}]")


class Parts(NamedTuple):
    x_t: np.ndarray   # trend
    x_s: np.ndarray   # seasonal


def decompose_batch(x: np.ndarray, kernel: int) -> Parts:
    """A (T,) window or (N, T) rows decomposed at once."""
    x = np.asarray(x, dtype=np.float64)
    check_kernel(kernel, x.shape[-1])
    x_t = kernels.moving_average(x, kernel)
    return Parts(x_t, x - x_t)


decompose = decompose_batch   # the name the acceptance suite imports


def trend_component(x: Tensor, kernel: int) -> Tensor:
    """Differentiable moving average for graph inputs (1-D or 2-D rows)."""
    check_kernel(kernel, x.shape[-1])
    out = kernels.moving_average(x.data, kernel)
    return custom_op(out, (x,), (lambda g: kernels.moving_average_adjoint(g, kernel),))

"""Trend/seasonal split by edge-replicated moving average.

The trend is the centered moving average of the window (edges replicated so
the length is preserved); the seasonal part is the residual, so the two
components always reconstruct the input exactly. The moving average is the
sparse linear operator `A` of `kernels.moving_average_operator`, so the
differentiable trend's backward pass is the transpose, `g @ A`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .tensor import Tensor, custom_op


class DecompositionError(ValueError):
    pass


def _check_kernel(kernel: int, length: int) -> None:
    if kernel % 2 == 0:
        raise DecompositionError(f"kernel must be odd, got {kernel}")
    if not 1 <= kernel <= length:
        raise DecompositionError(f"kernel {kernel} outside [1, {length}]")


@dataclass
class DecomposedWindow:
    x_t: np.ndarray
    x_s: np.ndarray
    kernel: int


def decompose(x: np.ndarray, kernel: int) -> DecomposedWindow:
    x = np.asarray(x, dtype=np.float64)
    _check_kernel(kernel, x.shape[-1])
    x_t = kernels.moving_average(x, kernel)
    return DecomposedWindow(x_t=x_t, x_s=x - x_t, kernel=kernel)


def decompose_batch(x: np.ndarray, kernel: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, T) rows decomposed at once; returns (trend, seasonal)."""
    x = np.asarray(x, dtype=np.float64)
    _check_kernel(kernel, x.shape[-1])
    x_t = kernels.moving_average(x, kernel)
    return x_t, x - x_t


def trend_component(x: Tensor, kernel: int) -> Tensor:
    """Differentiable moving average for graph inputs (1-D or 2-D rows).

    The operator is linear, so the backward pass is its transpose.
    """
    _check_kernel(kernel, x.shape[-1])
    a = kernels.moving_average_operator(x.shape[-1], kernel)
    out = kernels.moving_average(x.data, kernel)
    return custom_op(out, (x,), (lambda g: g @ a,))

"""Adam optimizer with bias correction over Tensor parameters."""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from .tensor import Tensor


class MissingGradError(ValueError):
    """A parameter handed to the optimizer has no gradient buffer."""


class Adam:
    """Bias-corrected Adam over flat buffers. Each parameter's `data` and
    `grad` become views of its slice of `values` and `grads` (the last Adam
    built over a parameter owns its storage); `m` and `v` are per-parameter
    views of the moments. step() updates in place, then zeroes the grads."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise MissingGradError(f"parameter {p.name or '<unnamed>'} has no grad buffer")
            if any(q is p for q in self.params[:i]):
                raise ValueError(f"parameter {p.name or '<unnamed>'} is listed twice")
        self.lr, self.beta1, self.beta2, self.eps, self.t = lr, beta1, beta2, eps, 0
        bounds = list(accumulate((p.size for p in self.params), initial=0))
        self.values, self.grads, self._m, self._v = flat = [np.zeros(bounds[-1]) for _ in range(4)]
        values, grads, self.m, self.v = ([f[lo:hi].reshape(p.shape) for p, lo, hi
                                          in zip(self.params, bounds, bounds[1:])] for f in flat)
        for p, value, grad in zip(self.params, values, grads):
            value[...], grad[...] = p.data, p.grad
            p.data, p.grad = value, grad

    def step(self) -> None:
        # the bits of m = b1 * m + (1 - b1) * g and so on, per parameter
        self.t += 1
        self._m *= self.beta1
        self._m += (1.0 - self.beta1) * self.grads
        self._v *= self.beta2
        self._v += (1.0 - self.beta2) * (self.grads * self.grads)
        update = self.lr * (self._m / (1.0 - self.beta1 ** self.t))
        update /= np.sqrt(self._v / (1.0 - self.beta2 ** self.t)) + self.eps
        self.values -= update
        self.grads[...] = 0.0

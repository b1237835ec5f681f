"""Adam optimizer with bias correction over Tensor parameters."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor


class MissingGradError(ValueError):
    """A parameter handed to the optimizer has no gradient buffer."""


class Adam:
    """Standard Adam update (bias-corrected first/second moments). step()
    updates in place and zeroes the gradients afterwards."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        for p in self.params:
            if p.grad is None:
                raise MissingGradError(f"parameter {p.name or '<unnamed>'} has no grad buffer")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.zero_grad()

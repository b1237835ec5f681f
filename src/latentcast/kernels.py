"""Hot numeric kernels in numpy.

Two loop families dominate training time: the edge-padded moving average used
by the trend/seasonal split (applied per batch inside the differentiable
linear decoder path) and the O(N^2 d) pairwise-distance sums of the domain
regularizer. tests/test_kernels.py checks each against brute-force loops or
finite differences.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# ---------------------------------------------------------------------------
# Edge-padded moving average (rows of a 2-D array) and its adjoint
# ---------------------------------------------------------------------------

def moving_average(x: np.ndarray, kernel: int) -> np.ndarray:
    """Centered moving average over the last axis, edges replicated."""
    x = np.asarray(x, dtype=np.float64)
    if kernel == 1:
        return x.copy()
    pad = (kernel - 1) // 2
    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad, pad)], mode="edge")
    return sliding_window_view(xp, kernel, axis=-1).mean(axis=-1)


def moving_average_adjoint(g: np.ndarray, kernel: int) -> np.ndarray:
    """Transpose of the moving-average operator applied to upstream grads."""
    g = np.asarray(g, dtype=np.float64)
    if kernel == 1:
        return g.copy()
    pad = (kernel - 1) // 2
    t = g.shape[-1]
    gz = np.pad(g, [(0, 0)] * (g.ndim - 1) + [(kernel - 1, kernel - 1)], mode="constant")
    # gxp[p] = mean-window sum of upstream grads hitting padded position p
    gxp = sliding_window_view(gz, kernel, axis=-1).sum(axis=-1) / kernel
    out = gxp[..., pad:pad + t].copy()
    # replicated edge samples absorb every window that ran off the ends
    out[..., 0] += gxp[..., :pad].sum(axis=-1)
    out[..., t - 1] += gxp[..., pad + t:].sum(axis=-1)
    return out


# ---------------------------------------------------------------------------
# Pairwise L2-distance sums over ordered sample pairs
# ---------------------------------------------------------------------------

def pair_dist_sum(z: np.ndarray) -> float:
    z = np.asarray(z, dtype=np.float64)
    d = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=-1))
    return float(d.sum())


def pair_dist_grad(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    diff = z[:, None, :] - z[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=-1))
    with np.errstate(divide="ignore"):
        w = np.where(d > 0.0, 1.0 / np.where(d > 0.0, d, 1.0), 0.0)
    return 2.0 * (diff * w[:, :, None]).sum(axis=1)


def cross_pair_dist_sum(z: np.ndarray, dom: np.ndarray) -> tuple[float, int]:
    z = np.asarray(z, dtype=np.float64)
    dom = np.asarray(dom, dtype=np.int64)
    mask = dom[:, None] != dom[None, :]
    d = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=-1))
    return float(d[mask].sum()), int(mask.sum())


def cross_pair_dist_grad(z: np.ndarray, dom: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    dom = np.asarray(dom, dtype=np.int64)
    mask = (dom[:, None] != dom[None, :]).astype(np.float64)
    diff = z[:, None, :] - z[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=-1))
    with np.errstate(divide="ignore"):
        w = np.where(d > 0.0, 1.0 / np.where(d > 0.0, d, 1.0), 0.0)
    return 2.0 * (diff * (w * mask)[:, :, None]).sum(axis=1)

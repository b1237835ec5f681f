"""Hot numeric kernels in numpy.

Two operators carry the method: the edge-replicated moving average used by
the trend/seasonal split, and the O(N^2 d) pairwise-distance sums of the
domain regularizer.

The moving average is a fixed linear map, so it is kept as one sparse (T, T)
matrix `A` per (length, kernel): the trend of rows `x` is `x @ A.T`, and the
backward pass of anything built on it is `g @ A`. The pairwise kernel returns
the sum and its gradient from one difference tensor. tests/test_kernels.py
checks both against brute-force loops or finite differences.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import sparse


# ---------------------------------------------------------------------------
# Edge-replicated moving average as a sparse linear operator
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def moving_average_operator(length: int, kernel: int) -> sparse.csr_array:
    """(length, length) matrix of the centered moving average.

    Row i holds `kernel` entries of 1/kernel at columns i - pad .. i + pad,
    clipped to [0, length - 1]: a window running off an end repeats the edge
    column, and CSR sums the duplicates, which is exactly edge replication.
    The cached matrix is shared between callers, so its arrays are read-only.
    """
    pad = (kernel - 1) // 2
    cols = np.arange(length)[:, None] + np.arange(-pad, pad + 1)[None, :]
    indices = np.clip(cols, 0, length - 1).ravel()
    indptr = np.arange(0, length * kernel + 1, kernel)
    data = np.full(length * kernel, 1.0 / kernel)
    a = sparse.csr_array((data, indices, indptr), shape=(length, length))
    for arr in (a.data, a.indices, a.indptr):
        arr.flags.writeable = False
    return a


def moving_average(x: np.ndarray, kernel: int) -> np.ndarray:
    """Centered moving average of a 1-D window or of each row of a 2-D
    array, edges replicated."""
    x = np.asarray(x, dtype=np.float64)
    a = moving_average_operator(x.shape[-1], kernel)
    # dense @ sparse comes back in Fortran order; the trend feeds row-major
    # matmuls, so it is returned in C order like every other window array
    return np.ascontiguousarray(x @ a.T)


# ---------------------------------------------------------------------------
# Pairwise L2-distance sums over ordered sample pairs
# ---------------------------------------------------------------------------

def pair_dist_sum(z: np.ndarray, mask: np.ndarray | None = None
                  ) -> tuple[float, np.ndarray]:
    """Sum of ||z_i - z_j|| over ordered pairs (i, j), and its gradient in z.

    With an (N, N) boolean `mask`, only the pairs it marks count. Coincident
    rows (distance 0) add nothing to the sum or the gradient. The gradient is
    written into the difference buffer in place, so one (N, N, d) tensor
    serves the sum and the gradient.
    """
    z = np.asarray(z, dtype=np.float64)
    diff = z[:, None, :] - z[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=-1))
    total = float(d.sum() if mask is None else d[mask].sum())
    w = np.where(d > 0.0, 1.0 / np.where(d > 0.0, d, 1.0), 0.0)
    if mask is not None:
        w *= mask
    diff *= w[:, :, None]
    return total, 2.0 * diff.sum(axis=1)

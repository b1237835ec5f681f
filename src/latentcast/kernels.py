"""Hot numeric kernels in numpy.

Two operators carry the method: the edge-replicated moving average used by
the trend/seasonal split, and the O(N^2 d) pairwise-distance sums of the
domain regularizer.

The moving average is a fixed linear map, so it is kept as one sparse (T, T)
matrix `A` per (length, kernel): the trend of rows `x` is `x @ A.T`, and the
backward pass of anything built on it is `g @ A`. The pairwise kernel returns
the sum and its gradient: it computes the squared distances of the upper
triangle only, in tiles of rows sized to stay in cache, and mirrors each tile
into the lower triangle; its gradient is one (N, N) @ (N, d) product. Its
memory is a few (N, N) arrays plus one tile of rows.
It needs a symmetric mask. tests/test_kernels.py checks both kernels against
brute-force loops, finite differences, the difference-tensor reference and,
bit for bit, the column-loop kernel the tiles replaced.
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
    # a @ x.T, not x @ a.T, which builds a transposed operator on every call;
    # the product comes back in Fortran order, and the trend feeds row-major
    # matmuls, so it is returned in C order like every other window array
    return np.ascontiguousarray((a @ x.T).T)


# ---------------------------------------------------------------------------
# Pairwise L2-distance sums over ordered sample pairs
# ---------------------------------------------------------------------------

# Doubles in one row tile of the pair kernel's (d, rows, N - lo) difference
# array: 32,768 (256 KB) stays in L2. The tile's row count scales down with
# the latent width d, so a wide latent never gets a larger tile.
PAIR_TILE_ELEMENTS = 32_768


def pair_dist_sum(z: np.ndarray, mask: np.ndarray | None = None
                  ) -> tuple[float, np.ndarray]:
    """Sum of ||z_i - z_j|| over ordered pairs (i, j), and its gradient in z.

    With an (N, N) boolean `mask`, only the pairs it marks count. The mask
    must be symmetric (pair (i, j) counts iff (j, i) does), because the
    gradient adds both orders of a pair as one weight `W = mask / ||z_i - z_j||`:
    row k of the gradient is `2 * sum_j W_kj (z_k - z_j)`, taken as
    `2 * (z * rowsum(W) - W @ z)`. Coincident rows (distance 0) add nothing
    to the sum or the gradient.

    The squared distances of the upper triangle are computed in tiles of
    rows [lo, hi): one (d, rows, N - lo) array of per-column differences,
    squared in place and reduced over its outer axis, which adds the columns
    one after another. The distances' (rows, N - lo) block goes to rows
    lo:hi, columns lo: of the (N, N) distance matrix, and its transpose to
    rows lo:, columns lo:hi. (a - b)^2 == (b - a)^2 exactly, so the matrix
    is exactly symmetric, and each unordered pair is computed once.
    Summing per-column differences keeps coincident rows at distance exactly
    0; the Gram identity ||a||^2 + ||b||^2 - 2 a.b would leave them a small
    nonzero distance through cancellation. Memory is a few (N, N) arrays
    plus one tile of at most max(`PAIR_TILE_ELEMENTS`, N * d) doubles, never
    an (N, N, d) tensor. `scipy.spatial.distance.pdist` gives the same bits
    faster, but importing `scipy.spatial` adds about 8 MB to the peak
    resident memory, near a tenth of a CLI run's.
    """
    z = np.asarray(z, dtype=np.float64)
    n, width = z.shape
    zt = np.ascontiguousarray(z.T)
    d = np.empty((n, n))
    rows = max(1, PAIR_TILE_ELEMENTS // max(1, width * n))   # width * n is 0 for an empty z
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        diff = zt[:, lo:hi, None] - zt[:, None, lo:]
        np.multiply(diff, diff, out=diff)
        tile = diff.sum(axis=0)
        np.sqrt(tile, out=tile)
        d[lo:hi, lo:] = tile
        d[lo:, lo:hi] = tile.T
    total = float(d.sum() if mask is None else d[mask].sum())
    counted = d > 0.0 if mask is None else np.logical_and(d > 0.0, mask)
    w = np.divide(1.0, d, out=np.zeros((n, n)), where=counted)
    return total, 2.0 * (z * w.sum(axis=1)[:, None] - w @ z)

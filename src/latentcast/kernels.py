"""Hot numeric kernels in numpy: the edge-replicated moving average of the
trend/seasonal split and its adjoint, sums of shifted slices that add their
terms in the order of the sparse (T, T) operator's products `A @ x.T` and
`g @ A`, and the O(N^2 d) pairwise-distance sum of the domain regularizer
and its gradient. tests/test_kernels.py checks them against brute-force
loops, finite differences and, bit for bit, the sparse operator, the
difference-tensor reference and the column-loop kernel the row tiles replaced.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Edge-replicated moving average and its adjoint
# ---------------------------------------------------------------------------

def _window_sums(padded: np.ndarray, length: int) -> np.ndarray:
    # the sums of consecutive rows of `padded`, `length` of them, added in row
    # order from 0.0 (first + 0.0 is 0.0 + first, which turns -0.0 into 0.0)
    out = padded[:length] + 0.0
    for p in range(1, padded.shape[0] - length + 1):
        out += padded[p:p + length]
    return out


def moving_average(x: np.ndarray, kernel: int) -> np.ndarray:
    """Centered moving average of a 1-D window or of each row of a 2-D
    array, edges replicated: the window sums of edge-padded transposed blocks
    of 1,024 rows, which stay in cache, scaled by 1/kernel, in C order."""
    x = np.asarray(x, dtype=np.float64)
    pad, length = (kernel - 1) // 2, x.shape[-1]
    rows = x.reshape(-1, length)
    out = np.empty(rows.shape)
    for lo in range(0, rows.shape[0], 1024):
        block = slice(lo, lo + 1024)
        padded = np.empty((length + 2 * pad, rows[block].shape[0]))
        np.multiply(rows[block].T, 1.0 / kernel, out=padded[pad:pad + length])
        padded[:pad] = padded[pad]            # the first and last steps, replicated
        padded[pad + length:] = padded[pad + length - 1]
        out[block] = _window_sums(padded, length).T
    return out.reshape(x.shape)


def moving_average_adjoint(g: np.ndarray, kernel: int) -> np.ndarray:
    """The transpose of `moving_average` applied to `g`, for kernel <= T:
    the window sums of the zero-padded rows, but an end column c also gets
    the replicated entries, pad + 1 - |c - r| copies of row r, which the
    sparse product adds one at a time in ascending r."""
    g = np.asarray(g, dtype=np.float64)
    pad, length = (kernel - 1) // 2, g.shape[-1]
    rows = g.reshape(-1, length)
    padded = np.zeros((length + 2 * pad, rows.shape[0]))
    np.multiply(rows.T, 1.0 / kernel, out=padded[pad:pad + length])
    out = _window_sums(padded, length)
    for c in (0, length - 1):
        out[c] = 0.0
        for r in range(max(0, c - pad), min(length, c + pad + 1)):
            for _ in range(pad + 1 - abs(c - r)):
                out[c] += padded[pad + r]
    return np.ascontiguousarray(out.T).reshape(g.shape)


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
    an (N, N, d) tensor.
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

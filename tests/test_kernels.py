"""Kernel correctness: the numpy kernels against brute-force loops, finite
differences, the sparse moving-average operator and the difference-tensor
reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import sparse

import latentcast.tensor as T
from latentcast import kernels
from latentcast.decomposition import decompose_batch, trend, trend_component
from latentcast.tensor import Tensor


def brute_moving_average(x, kernel):
    pad = (kernel - 1) // 2
    t = x.shape[-1]
    out = np.zeros_like(x, dtype=float)
    for i in range(t):
        acc = 0.0
        for p in range(i - pad, i + pad + 1):
            acc += x[min(max(p, 0), t - 1)]
        out[i] = acc / kernel
    return out


def brute_pair_sum(z):
    total = 0.0
    for i in range(z.shape[0]):
        for j in range(z.shape[0]):
            total += np.linalg.norm(z[i] - z[j])
    return total


def brute_cross_sum(z, dom):
    total, count = 0.0, 0
    for i in range(z.shape[0]):
        for j in range(z.shape[0]):
            if dom[i] != dom[j]:
                total += np.linalg.norm(z[i] - z[j])
                count += 1
    return total, count


def sparse_operator(length, kernel):
    # the reference for bits: the (length, length) CSR matrix of the moving
    # average. Row i holds `kernel` entries of 1/kernel at columns
    # i - pad .. i + pad clipped to the ends, so a window running off an end
    # repeats the edge column, and the product sums the duplicates one by one
    pad = (kernel - 1) // 2
    cols = np.arange(length)[:, None] + np.arange(-pad, pad + 1)[None, :]
    indices = np.clip(cols, 0, length - 1).ravel()
    indptr = np.arange(0, length * kernel + 1, kernel)
    data = np.full(length * kernel, 1.0 / kernel)
    return sparse.csr_array((data, indices, indptr), shape=(length, length))


@pytest.mark.parametrize("kernel", [1, 3, 5, 9, 13])
def test_moving_average_matches_bruteforce(kernel):
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=17)
        got = kernels.moving_average(x, kernel)
        assert np.allclose(got, brute_moving_average(x, kernel), atol=1e-12)


def test_moving_average_worked_example():
    got = kernels.moving_average(np.array([1.0, 2, 3, 4, 5]), 3)
    assert np.allclose(got, [4 / 3, 2, 3, 4, 14 / 3], atol=1e-12)


@pytest.mark.parametrize("kernel", [1, 3, 5, 9, 13])
@pytest.mark.parametrize("length", ["kernel", 17])
def test_operator_columns_are_bruteforce_impulse_responses(kernel, length):
    # column j of the operator is the moving average of the j-th impulse:
    # the reference matrix, the forward kernel on each impulse and the
    # adjoint on each impulse (row j of A) all give it
    length = kernel if length == "kernel" else length
    eye = np.eye(length)
    expected = np.stack([brute_moving_average(eye[j], kernel) for j in range(length)],
                        axis=1)
    assert np.allclose(sparse_operator(length, kernel).toarray(), expected, atol=1e-15)
    assert np.allclose(kernels.moving_average(eye, kernel).T, expected, atol=1e-15)
    assert np.allclose(kernels.moving_average_adjoint(eye, kernel), expected, atol=1e-15)


def operator_case(n, half, extra, seed):
    # 1-D windows (n == 0) and (n, T) rows at kernel 1-61, their operator,
    # and half of the rows (none for a 1-D window). A fifth of the rows are
    # -0.0, which the product sums from +0.0 into +0.0
    kernel = 2 * half + 1
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, kernel + extra) if n else kernel + extra)
    x *= 10.0 ** rng.integers(-3, 4)
    x[rng.random(x.shape[:-1]) < 0.2] = -0.0
    return kernel, x, sparse_operator(x.shape[-1], kernel), rng.permutation(n)[:(n + 1) // 2]


def same_bits(a, b):
    # bit for bit: np.array_equal takes -0.0 for 0.0
    return a.shape == b.shape and a.tobytes() == b.tobytes()


OPERATOR_CASES = dict(n=st.integers(0, 300), half=st.integers(0, 30),
                      extra=st.integers(0, 120), seed=st.integers(0, 2 ** 16))


@given(**OPERATOR_CASES)
# the workloads' shapes: 64, 256 and 1,088 rows of 60 steps at kernel 9
@example(n=64, half=4, extra=51, seed=0)
@example(n=1088, half=4, extra=51, seed=1)
# two blocks of 1,024 rows and a one-row third, as a whole window set is
@example(n=2049, half=4, extra=51, seed=2)
def test_moving_average_is_the_operator_product_bit_for_bit(n, half, extra, seed):
    # any subset of the rows gets the same bits as the whole set, so a
    # minibatch that decomposes its own rows gets its rows' bits of the set
    kernel, x, a, rows = operator_case(n, half, extra, seed)
    got = kernels.moving_average(x, kernel)
    assert got.flags.c_contiguous
    assert same_bits(got, (a @ x.T).T)
    if n:
        assert same_bits(kernels.moving_average(x[rows], kernel), got[rows])


@given(**OPERATOR_CASES)
@example(n=64, half=4, extra=51, seed=0)
@example(n=256, half=4, extra=51, seed=1)
# one step and one kernel: both end columns are the same column
@example(n=3, half=0, extra=0, seed=2)
# kernel == T: every row's window runs off one end
@example(n=5, half=30, extra=0, seed=3)
def test_adjoint_is_the_operator_product_bit_for_bit(n, half, extra, seed):
    # the end columns sum the edge's duplicate entries in the sparse
    # product's order; any subset of the rows gets the same bits
    kernel, g, a, rows = operator_case(n, half, extra, seed)
    got = kernels.moving_average_adjoint(g, kernel)
    assert got.flags.c_contiguous
    assert same_bits(got, g @ a)
    if n:
        assert same_bits(kernels.moving_average_adjoint(g[rows], kernel), got[rows])


@pytest.mark.parametrize("kernel", [1, 3, 5, 7])
@given(n=st.integers(1, 3), extra=st.integers(0, 30), seed=st.integers(0, 2 ** 16))
def test_adjoint_is_transpose(kernel, n, extra, seed):
    # <A x, g> == <x, A^T g>, with A^T g taken from the graph's backward pass;
    # relative to the sums of absolute products, which bound each side's
    # rounding error
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(n, kernel + extra)), requires_grad=True)
    g = rng.normal(size=x.shape)
    ax = kernels.moving_average(x.data, kernel)
    T.tsum(trend_component(x, kernel) * Tensor(g)).backward()
    lhs, rhs = np.sum(ax * g), np.sum(x.data * x.grad)
    scale = max(np.sum(np.abs(ax * g)), np.sum(np.abs(x.data * x.grad)))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_long_series_decomposes_with_a_sparse_operator():
    # a whole series, as the decompose command sees it; a dense (T, T)
    # operator would not fit in memory at this length, and the shifted sums
    # hold a few copies of the series, not one per kernel tap
    length, kernel = 100_000, 9
    x = np.random.default_rng(4).normal(size=length)
    tracemalloc.start()
    try:
        x_t, x_s = decompose_batch(x, kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(x_t + x_s - x)) <= 1e-12
    assert peak <= 4 * x.nbytes < kernel * x.nbytes


def test_a_window_set_is_averaged_in_blocks_of_rows():
    # a whole set's trend is computed at once (stage 2's validation pass);
    # the transposed padding and the window sums are held for one block of
    # rows at a time, so the peak is about the output (the whole set in one
    # block held about three copies of it)
    x = np.random.default_rng(5).normal(size=(20_000, 60))
    tracemalloc.start()
    try:
        kernels.moving_average(x, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * x.nbytes


def test_a_set_trend_holds_no_seasonal_part():
    # `decomposition.trend` computes the trend alone, the bits of the split's
    # trend, and peaks at about its output (it peaked at twice that while it
    # went through the split and dropped the seasonal part)
    x = np.random.default_rng(6).normal(size=(20_000, 60))
    tracemalloc.start()
    try:
        x_t = trend(x, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * x.nbytes
    assert x_t.tobytes() == decompose_batch(x, 9).x_t.tobytes()


def test_pairwise_sums_match_bruteforce():
    rng = np.random.default_rng(2)
    for n in (2, 3, 7, 12):
        z = rng.normal(size=(n, 4))
        dom = rng.integers(0, 3, size=n)
        assert abs(kernels.pair_dist_sum(z)[0] - brute_pair_sum(z)) < 1e-9
        mask = dom[:, None] != dom[None, :]
        got_s, _ = kernels.pair_dist_sum(z, mask)
        exp_s, exp_c = brute_cross_sum(z, dom)
        assert int(mask.sum()) == exp_c
        assert abs(got_s - exp_s) < 1e-9


def test_pairwise_grads_match_finite_differences():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(5, 3))
    dom = np.array([0, 0, 1, 1, 2])
    h = 1e-6

    for mask in (None, dom[:, None] != dom[None, :]):
        fn = lambda a: kernels.pair_dist_sum(a, mask)[0]
        g = kernels.pair_dist_sum(z, mask)[1]
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                num = (fn(zp) - fn(zm)) / (2 * h)
                assert abs(g[i, j] - num) < 1e-5


def brute_pair_grad(z, dom=None):
    # d/dz_k of sum_{i,j} ||z_i - z_j||, with the zero-distance pairs left out
    grad = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[0]):
            if dom is not None and dom[i] == dom[j]:
                continue
            d = np.linalg.norm(z[i] - z[j])
            if d > 0.0:
                grad[i] += (z[i] - z[j]) / d
                grad[j] -= (z[i] - z[j]) / d
    return grad


def test_coincident_rows_contribute_nothing():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(6, 3))
    z[3] = z[0]
    z[4] = z[0]
    dom = np.array([0, 1, 2, 0, 1, 2])
    for mask, brute_dom in ((None, None), (dom[:, None] != dom[None, :], dom)):
        total, grad = kernels.pair_dist_sum(z, mask)
        exp = brute_pair_sum(z) if brute_dom is None else brute_cross_sum(z, dom)[0]
        assert abs(total - exp) < 1e-9
        assert np.all(np.isfinite(grad))
        assert np.allclose(grad, brute_pair_grad(z, brute_dom), atol=1e-12)
    # the coincident rows alone: every distance is zero, and so is the grad
    total, grad = kernels.pair_dist_sum(z[[0, 3, 4]])
    assert total == 0.0
    assert np.array_equal(grad, np.zeros((3, 3)))


def reference_pair_dist_sum(z, mask=None):
    # the slow reference: one (N, N, d) difference tensor serves the sum and
    # the gradient, so it needs no symmetric mask and no matrix product
    z = np.asarray(z, dtype=np.float64)
    diff = z[:, None, :] - z[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=-1))
    total = float(d.sum() if mask is None else d[mask].sum())
    w = np.where(d > 0.0, 1.0 / np.where(d > 0.0, d, 1.0), 0.0)
    if mask is not None:
        w *= mask
    diff *= w[:, :, None]
    return total, 2.0 * diff.sum(axis=1)


@given(n=st.integers(2, 300), width=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       domains=st.none() | st.integers(1, 6), coincident=st.integers(0, 5),
       scale=st.sampled_from((1e-3, 1.0, 1e3)), shift=st.sampled_from((0.0, 10.0)))
# the wide-cli batch: 256 windows, d_z = 8, 12 training domains
@example(n=256, width=8, seed=0, domains=None, coincident=0, scale=1.0, shift=0.0)
@example(n=256, width=8, seed=1, domains=12, coincident=2, scale=1.0, shift=0.0)
def test_pair_kernel_matches_reference(n, width, seed, domains, coincident, scale, shift):
    rng = np.random.default_rng(seed)
    z = scale * (rng.normal(size=(n, width)) + shift)
    copies = rng.choice(np.arange(1, n), size=min(coincident, n - 1), replace=False)
    z[copies] = z[0]
    mask = None
    if domains is not None:
        dom = rng.integers(0, domains, size=n)
        mask = dom[:, None] != dom[None, :]

    total, grad = kernels.pair_dist_sum(z, mask)
    exp_total, exp_grad = reference_pair_dist_sum(z, mask)
    assert abs(total - exp_total) <= 1e-12 * exp_total
    assert np.max(np.abs(grad - exp_grad)) <= 1e-12 * np.max(np.abs(exp_grad))
    # the coincident rows stay at distance exactly 0 inside the full batch
    group = np.isin(np.arange(n), np.append(copies, 0))
    assert kernels.pair_dist_sum(z, group[:, None] & group[None, :])[0] == 0.0


def column_loop_pair_dist_sum(z, mask=None):
    # the slow reference for bits: the kernel before row tiles, which adds
    # the squared distances of all N^2 ordered pairs one latent column at a
    # time; the tiled kernel must give every output bit of it
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    d = np.zeros((n, n))
    step = np.empty((n, n))
    for col in z.T:
        np.subtract.outer(col, col, out=step)
        np.multiply(step, step, out=step)
        d += step
    np.sqrt(d, out=d)
    total = float(d.sum() if mask is None else d[mask].sum())
    counted = d > 0.0 if mask is None else np.logical_and(d > 0.0, mask)
    w = np.divide(1.0, d, out=np.zeros((n, n)), where=counted)
    return total, 2.0 * (z * w.sum(axis=1)[:, None] - w @ z)


@given(n=st.integers(2, 300), width=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       domains=st.none() | st.integers(1, 6), coincident=st.integers(0, 5))
# at width 8 and the default tile budget: n one below a multiple of the
# tile's 16 rows, equal to one, and one past one; at width 64 from n = 257
# on, every tile is one row; a batch of two is one tile
@example(n=255, width=8, seed=0, domains=None, coincident=0)
@example(n=256, width=8, seed=1, domains=12, coincident=2)
@example(n=241, width=8, seed=2, domains=3, coincident=1)
@example(n=257, width=64, seed=3, domains=4, coincident=3)
@example(n=2, width=1, seed=4, domains=None, coincident=1)
def test_tiled_pair_kernel_equals_column_loop_bit_for_bit(n, width, seed, domains,
                                                          coincident):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, width))
    z[rng.choice(np.arange(1, n), size=min(coincident, n - 1), replace=False)] = z[0]
    mask = None
    if domains is not None:
        dom = rng.integers(0, domains, size=n)
        mask = dom[:, None] != dom[None, :]

    total, grad = kernels.pair_dist_sum(z, mask)
    exp_total, exp_grad = column_loop_pair_dist_sum(z, mask)
    assert total == exp_total
    assert np.array_equal(grad, exp_grad)


def test_pair_kernel_memory_is_quadratic_in_the_batch():
    # a few (N, N) buffers, never the (N, N, d) difference tensor
    n, width = 256, 64
    rng = np.random.default_rng(6)
    z = rng.normal(size=(n, width))
    dom = rng.integers(0, 4, size=n)
    tracemalloc.start()
    try:
        kernels.pair_dist_sum(z, dom[:, None] != dom[None, :])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n * 8 < n * n * width * 8

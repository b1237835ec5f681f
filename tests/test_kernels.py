"""Kernel correctness: the numpy kernels against brute-force loops and
finite differences."""

import numpy as np
import pytest

import latentcast.tensor as T
from latentcast import kernels
from latentcast.decomposition import decompose, trend_component
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
    length = kernel if length == "kernel" else length
    eye = np.eye(length)
    expected = np.stack([brute_moving_average(eye[j], kernel) for j in range(length)],
                        axis=1)
    got = kernels.moving_average_operator(length, kernel).toarray()
    assert np.allclose(got, expected, atol=1e-15)


@pytest.mark.parametrize("kernel", [1, 3, 5, 7])
def test_adjoint_is_transpose(kernel):
    # <A x, g> == <x, A^T g>, with A^T g taken from the graph's backward pass
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = Tensor(rng.normal(size=11), requires_grad=True)
        g = rng.normal(size=11)
        lhs = np.dot(kernels.moving_average(x.data, kernel), g)
        T.tsum(trend_component(x, kernel) * Tensor(g)).backward()
        rhs = np.dot(x.data, x.grad)
        assert abs(lhs - rhs) < 1e-12


def test_long_series_decomposes_with_a_sparse_operator():
    # a whole series, as the decompose command sees it; a dense (T, T)
    # operator would not fit in memory at this length
    length, kernel = 100_000, 9
    x = np.random.default_rng(4).normal(size=length)
    parts = decompose(x, kernel)
    assert np.max(np.abs(parts.x_t + parts.x_s - x)) <= 1e-12
    assert kernels.moving_average_operator(length, kernel).nnz <= length * kernel


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

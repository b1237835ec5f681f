"""Kernel correctness: the numpy kernels against brute-force loops and
finite differences."""

import numpy as np
import pytest

from latentcast import kernels


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


@pytest.mark.parametrize("kernel", [1, 3, 5, 7])
def test_adjoint_is_transpose(kernel):
    # <A x, y> == <x, A^T y> for the linear moving-average operator
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=11)
        y = rng.normal(size=11)
        lhs = np.dot(kernels.moving_average(x, kernel), y)
        rhs = np.dot(x, kernels.moving_average_adjoint(y, kernel))
        assert abs(lhs - rhs) < 1e-12


def test_pairwise_sums_match_bruteforce():
    rng = np.random.default_rng(2)
    for n in (2, 3, 7, 12):
        z = rng.normal(size=(n, 4))
        dom = rng.integers(0, 3, size=n)
        assert abs(kernels.pair_dist_sum(z) - brute_pair_sum(z)) < 1e-9
        got_s, got_c = kernels.cross_pair_dist_sum(z, dom)
        exp_s, exp_c = brute_cross_sum(z, dom)
        assert got_c == exp_c
        assert abs(got_s - exp_s) < 1e-9


def test_pairwise_grads_match_finite_differences():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(5, 3))
    dom = np.array([0, 0, 1, 1, 2])
    h = 1e-6

    for fn, grad_fn in [
        (lambda a: kernels.pair_dist_sum(a), lambda a: kernels.pair_dist_grad(a)),
        (lambda a: kernels.cross_pair_dist_sum(a, dom)[0],
         lambda a: kernels.cross_pair_dist_grad(a, dom)),
    ]:
        g = grad_fn(z)
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                num = (fn(zp) - fn(zm)) / (2 * h)
                assert abs(g[i, j] - num) < 1e-5

"""Trend/seasonal split: worked example, exact reconstruction, edge
behavior, and the differentiable path."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import latentcast.tensor as T
from latentcast.decomposition import DecompositionError, decompose_batch, trend_component
from latentcast.tensor import Tensor, grad_check


def test_worked_example_kernel3():
    parts = decompose_batch(np.array([1.0, 2, 3, 4, 5]), 3)
    assert np.allclose(parts.x_t, [4 / 3, 2, 3, 4, 14 / 3], atol=1e-12)
    assert np.allclose(parts.x_s, [-1 / 3, 0, 0, 0, 1 / 3], atol=1e-12)


def test_kernel_one_is_identity():
    x = np.array([3.0, -1.0, 7.0])
    parts = decompose_batch(x, 1)
    assert np.array_equal(parts.x_t, x)
    assert np.array_equal(parts.x_s, np.zeros(3))


def test_constant_input_all_trend():
    x = np.full(9, 4.2)
    for kernel in (1, 3, 5, 9):
        parts = decompose_batch(x, kernel)
        assert np.allclose(parts.x_t, x, atol=1e-12)
        assert np.allclose(parts.x_s, 0.0, atol=1e-12)


@pytest.mark.parametrize("kernel", [1, 5, 9, 13])
@given(n=st.integers(1, 4), extra=st.integers(0, 40), log_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2 ** 16))
def test_exact_reconstruction(kernel, n, extra, log_scale, seed):
    x = np.random.default_rng(seed).normal(size=(n, kernel + extra)) * 10.0 ** log_scale
    x_t, x_s = decompose_batch(x, kernel)
    # x_s is x - x_t rounded once, so x_t + x_s can miss x only by two
    # roundings of values at most twice the row's largest magnitude
    bound = 2.0 * np.finfo(np.float64).eps * np.max(np.abs(x), axis=1, keepdims=True)
    assert np.all(np.abs(x_t + x_s - x) <= bound)


def test_linear_ramp_interior_trend_equals_ramp():
    x = np.arange(20.0) * 0.7 + 3.0
    kernel = 5
    parts = decompose_batch(x, kernel)
    lo = (kernel - 1) // 2
    assert np.allclose(parts.x_t[lo:20 - lo], x[lo:20 - lo], atol=1e-12)


def test_translation_equivariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=15)
    base = decompose_batch(x, 5)
    shifted = decompose_batch(x + 10.0, 5)
    assert np.allclose(shifted.x_t, base.x_t + 10.0, atol=1e-10)


def test_errors():
    x = np.arange(6.0)
    with pytest.raises(DecompositionError):
        decompose_batch(x, 4)
    with pytest.raises(DecompositionError):
        decompose_batch(x, 7)


def test_batch_matches_single():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 12))
    x_t, x_s = decompose_batch(x, 5)
    for i in range(4):
        parts = decompose_batch(x[i], 5)
        assert np.allclose(x_t[i], parts.x_t, atol=1e-12)
        assert np.allclose(x_s[i], parts.x_s, atol=1e-12)


def test_trend_component_gradient():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(3, 10)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 10)))

    def f():
        return T.tsum(T.square(trend_component(x, 5)) * w)

    assert grad_check(f, [x]) < 1e-6

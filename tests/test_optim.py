"""Adam recurrence, hand-evaluated for the first steps."""

import numpy as np
import pytest

from latentcast.optim import Adam, MissingGradError
from latentcast.tensor import Tensor


def make_param(value=0.0):
    return Tensor([value], requires_grad=True, name="p")


def test_first_step_is_minus_lr():
    # hand evaluation at t=1: m_hat = g, v_hat = g^2, step = -lr*g/(|g|+eps)
    p = make_param(0.0)
    opt = Adam([p], lr=0.1)
    p.grad[...] = 1.0
    opt.step()
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    assert abs(p.data[0] - expected) < 1e-15
    assert abs(p.data[0] + 0.1) < 1e-8
    assert np.array_equal(p.grad, [0.0])   # grads zeroed after the step


def test_two_steps_constant_grad_monotone():
    # t=2: m=0.19/0.19=1, v=0.001999/0.001999=1 -> another ~-0.1 step
    p = make_param(0.0)
    opt = Adam([p], lr=0.1)
    values = [0.0]
    for _ in range(2):
        p.grad[...] = 1.0
        opt.step()
        values.append(float(p.data[0]))
    assert values[1] > values[2]
    assert abs(values[2] + 0.2) < 1e-7
    assert opt.t == 2


def test_zero_gradient_leaves_param_unchanged():
    p = make_param(1.5)
    opt = Adam([p], lr=0.1)
    opt.step()
    assert p.data[0] == 1.5


def test_missing_grad_names_parameter():
    frozen = Tensor([1.0], name="frozen_weight")
    with pytest.raises(MissingGradError) as err:
        Adam([frozen], lr=0.1)
    assert "frozen_weight" in str(err.value)


def test_moment_buffers_match_shapes():
    p = Tensor(np.zeros((3, 2)), requires_grad=True, name="w")
    opt = Adam([p], lr=0.01)
    assert opt.m[0].shape == (3, 2) and opt.v[0].shape == (3, 2)

"""Adam recurrence, hand-evaluated for the first steps, and the flat-buffer
update pinned bit for bit to the per-parameter one."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

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


class PerParameterAdam:
    """The update `Adam` made before it ran over flat buffers: one pass of
    numpy calls per parameter, over plain arrays, as the reference."""

    def __init__(self, values, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.values = [v.copy() for v in values]
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(v) for v in values]
        self.v = [np.zeros_like(v) for v in values]
        self.t = 0

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, g in enumerate(grads):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            self.values[i] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@given(shapes=st.lists(array_shapes(min_dims=0, max_dims=3, max_side=4), min_size=1, max_size=5),
       steps=st.integers(1, 6), lr=st.sampled_from([1e-3, 3e-2, 0.5]),
       seed=st.integers(0, 2**32 - 1))
def test_flat_update_is_bit_equal_to_the_per_parameter_update(shapes, steps, lr, seed):
    rng = np.random.default_rng(seed)
    params = [Tensor(rng.normal(size=shape), requires_grad=True, name=f"p{i}")
              for i, shape in enumerate(shapes)]
    ref = PerParameterAdam([p.data for p in params], lr)
    opt = Adam(params, lr=lr)
    for _ in range(steps):
        # grads over six decades, some exactly zero, accumulated as backward does
        grads = [rng.normal(size=p.shape) * 10.0 ** rng.uniform(-3, 3, size=p.shape)
                 * (rng.random(p.shape) < 0.8) for p in params]
        for p, g in zip(params, grads):
            p.grad += g
        opt.step()
        ref.step(grads)
        for i, p in enumerate(params):
            assert p.data.tobytes() == ref.values[i].tobytes()
            assert opt.m[i].tobytes() == ref.m[i].tobytes()
            assert opt.v[i].tobytes() == ref.v[i].tobytes()
            assert not p.grad.any()


def test_no_parameters_step_as_a_no_op():
    opt = Adam([], lr=0.1)
    opt.step()
    assert opt.t == 1 and opt.values.size == opt.grads.size == 0


def test_a_parameter_listed_twice_is_refused_by_name():
    p, q = make_param(1.0), Tensor([2.0], requires_grad=True, name="q")
    data = p.data
    with pytest.raises(ValueError, match="^parameter p is listed twice$"):
        Adam([p, q, p], lr=0.1)
    assert p.data is data   # a refused optimizer takes over no storage


def test_parameters_are_views_of_the_buffers_of_the_last_adam_built():
    w = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True, name="w")
    b = make_param(7.0)
    w.grad[...] = 1.0
    first = Adam([w, b], lr=0.1)
    # values and grads are copied in; each parameter is a view of its slice
    assert first.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
    assert first.grads.tolist() == [1.0] * 6 + [0.0]
    for p in (w, b):
        assert np.shares_memory(p.data, first.values)
        assert np.shares_memory(p.grad, first.grads)
    b.grad += 2.0
    assert first.grads[6] == 2.0
    second = Adam([b], lr=0.1)
    assert np.shares_memory(b.data, second.values)
    assert not np.shares_memory(b.data, first.values)
    assert np.shares_memory(w.data, first.values)

"""Autodiff engine: forward values, backward gradients against finite
differences, shape/domain errors, and graph semantics."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

import latentcast.tensor as T
from latentcast.nets import GRUCell
from latentcast.tensor import (GraphError, MathDomainError, ShapeError, Tensor,
                               grad_check, no_grad)


def test_matmul_identity():
    a = Tensor([[1.0, 2], [3, 4]])
    eye = Tensor([[1.0, 0], [0, 1]])
    assert np.array_equal((a @ eye).data, a.data)


def test_softplus_at_zero():
    assert abs(T.softplus(Tensor([0.0])).data[0] - np.log(2.0)) < 1e-12


@given(x=arrays(np.float64, st.integers(1, 64), elements=st.floats(-800.0, 800.0)))
# -38 and -40: where sigmoid's tanh form is already 0; -709.78: expit's
# smallest nonzero value, a subnormal 5.6e-309
@example(x=np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, -38.0, -40.0, -708.4,
                     -709.78, -709.79, 710.0, -745.0, 800.0, -800.0]))
def test_softplus_derivative_is_expit_to_four_ulps(x):
    # relative, not absolute: at the sigma floor dL/dsigma grows like
    # 1/sigma^3, so a derivative of 4e-18 at x = -40 still moves the weights,
    # and it must not become 0 where expit is not. Below x = -709.78 expit's
    # exp(-x) overflows and it returns 0; there the derivative is subnormal
    a = Tensor(x, requires_grad=True)
    T.tsum(T.softplus(a)).backward()
    want = expit(x)
    nonzero = want > 0
    assert np.all(np.abs(a.grad - want)[nonzero] <= 4 * np.finfo(np.float64).eps * want[nonzero])
    assert np.all(a.grad[nonzero] > 0)
    assert np.all(a.grad[~nonzero] < np.finfo(np.float64).tiny)


def test_concat_slice_inverse_pair():
    c = T.concat([Tensor([1.0, 2]), Tensor([3.0])])
    assert np.array_equal(c.data, [1, 2, 3])
    assert np.array_equal(T.slice_last(c, 0, 2).data, [1, 2])


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2, 3], requires_grad=True)
    T.tsum(T.square(x)).backward()
    assert np.allclose(x.grad, [2, 4, 6])


def test_backward_mean():
    x = Tensor([1.0, 2, 3, 4], requires_grad=True)
    T.tmean(x).backward()
    assert np.allclose(x.grad, [0.25] * 4)


def test_unreachable_leaf_has_zero_grad():
    x = Tensor([1.0, 2], requires_grad=True)
    y = Tensor([5.0, 6], requires_grad=True)
    T.tsum(x * x).backward()
    assert np.array_equal(y.grad, [0.0, 0.0])


def test_gradient_linearity():
    base = np.array([0.3, -1.2, 2.0])
    x = Tensor(base, requires_grad=True)
    T.tsum(T.square(x)).backward()
    T.tsum(T.exp(x)).backward()
    combined = x.grad.copy()
    x2 = Tensor(base, requires_grad=True)
    (T.tsum(T.square(x2)) + T.tsum(T.exp(x2))).backward()
    assert np.allclose(combined, x2.grad, atol=1e-14)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2], requires_grad=True)
    with pytest.raises(GraphError):
        (x * 2.0).backward()


def test_backward_twice_is_an_error():
    x = Tensor([1.0, 2], requires_grad=True)
    loss = T.tsum(x * x)
    loss.backward()
    with pytest.raises(GraphError):
        loss.backward()


def test_backward_through_a_consumed_intermediate_is_an_error():
    x = Tensor([1.0, 2], requires_grad=True)
    h = x * x
    T.tsum(h).backward()
    with pytest.raises(GraphError):
        T.tsum(h * 2.0).backward()


def test_intermediate_grad_is_allocated_by_backward():
    x = Tensor([1.0, 2], requires_grad=True)
    h = T.tanh(x)
    loss = T.tsum(h * h)
    assert h.grad is None and loss.grad is None
    loss.backward()
    assert np.allclose(h.grad, 2.0 * h.data)


def test_backward_through_a_consumed_gru_output_is_an_error():
    # a released node has no parents, like a leaf; it must not be taken for
    # one, which would silently drop the gradient that should reach the cell
    rng = np.random.default_rng(0)
    cell = GRUCell(rng, 1, 3, "c")
    out = cell(Tensor(rng.normal(size=(2, 4, 1))))
    T.tsum(out).backward()
    grads = [p.grad.copy() for p in cell.params()]
    with pytest.raises(GraphError):
        T.tsum(out * 2.0).backward()
    assert all(np.array_equal(p.grad, g) for p, g in zip(cell.params(), grads))


def test_backward_releases_what_the_vjps_captured():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    w = np.array([0.5, -1.0, 2.0])
    held_by_graph = weakref.ref(w)
    loss = T.tsum(T.tanh(x * Tensor(w)))   # only the product's node holds w
    del w
    assert held_by_graph() is not None
    loss.backward()
    assert held_by_graph() is None
    assert loss.grad == 1.0 and np.isfinite(loss.data)


def test_released_graph_grads_are_the_vjps_values():
    # bit-equal to the vjps applied by hand in backward's order, so releasing
    # the graph changes no value; an intermediate the caller holds keeps its grad
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = rng.normal(size=(5, 4))
    h = T.tanh(x @ w)
    T.tsum(h * Tensor(c)).backward()
    y = np.tanh(x.data @ w.data)
    gy = c * (1.0 - y * y)
    assert np.array_equal(h.grad, c)
    assert np.array_equal(x.grad, gy @ w.data.T)
    assert np.array_equal(w.grad, x.data.T @ gy)


def test_first_accumulation_stores_a_copy():
    # tsum hands back a read-only broadcast view and add the upstream array
    # itself; kept as a grad buffer instead of a copy, either is written
    # through by the next accumulation
    w = np.array([0.5, -1.0, 2.0])
    for tsum_first in (True, False):
        x = Tensor([1.0, -2, 3], requires_grad=True)
        h = x * 3.0
        parts = [T.tsum(h), T.tsum(h * Tensor(w))]
        if not tsum_first:
            parts.reverse()
        (parts[0] + parts[1]).backward()
        assert np.array_equal(h.grad, 1.0 + w)
        assert np.array_equal(x.grad, 3.0 * (1.0 + w))
    x = Tensor([1.0, -2, 3], requires_grad=True)
    h = x * 3.0
    s = T.add(h, h)
    T.tsum(s * Tensor(w)).backward()
    assert np.array_equal(s.grad, w)
    assert np.array_equal(h.grad, 2.0 * w)


def test_backward_leaves_no_reference_cycles():
    # a trained step's graph is freed by reference counting once the loss is
    # dropped; left to the cycle collector, dead graphs pile up until it runs
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    w = Tensor(np.full((3, 1), 0.5), requires_grad=True)
    gc.collect()
    gc.disable()
    try:
        loss = T.tsum(T.tanh(x * 2.0) @ w)
        loss.backward()
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError) as err:
        T.add(Tensor([1.0, 2]), Tensor([1.0, 2, 3]))
    assert "(2,)" in str(err.value) and "(3,)" in str(err.value)
    with pytest.raises(ShapeError):
        Tensor([[1.0, 2]]) @ Tensor([[1.0, 2]])


def test_domain_errors():
    with pytest.raises(MathDomainError):
        T.log(Tensor([1.0, 0.0]))
    with pytest.raises(MathDomainError):
        T.div(Tensor([1.0]), Tensor([0.0]))


def test_scalar_broadcast_only():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    T.tsum(x * 2.0).backward()
    assert np.allclose(x.grad, 2.0)
    with pytest.raises(ShapeError):
        T.mul(x, Tensor(np.ones(3)))


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div], ids=["add", "sub", "mul", "div"])
def test_only_a_constant_scalar_broadcasts(op):
    # a 0-d operand that needs a grad would need its contribution summed over
    # the other operand's shape; no model op sends one, so the engine refuses it
    vec = Tensor(np.ones(5), requires_grad=True)
    for a, b in ((Tensor(2.0, requires_grad=True), vec), (vec, Tensor(2.0, requires_grad=True))):
        with pytest.raises(ShapeError, match=r"\(\) and \(5,\)|\(5,\) and \(\)"):
            op(a, b)
    for a, b in ((Tensor(2.0), vec), (vec, Tensor(2.0))):
        assert op(a, b).shape == (5,)


def test_matmul_takes_2d_operands_only():
    mat, vec = Tensor(np.ones((3, 3))), Tensor(np.ones(3))
    for a, b in ((vec, mat), (mat, vec), (vec, vec)):
        with pytest.raises(ShapeError, match=r"need \(N, K\) @ \(K, M\)"):
            a @ b


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div], ids=["add", "sub", "mul", "div"])
def test_one_element_operand_is_not_a_scalar(op):
    # only a 0-d operand broadcasts; a (1, 1) block against a (1, 2) one is a
    # width mismatch, whichever side it is on
    one, two = Tensor(np.ones((1, 1))), Tensor(np.ones((1, 2)))
    for a, b in ((one, two), (two, one)):
        with pytest.raises(ShapeError, match=r"\(1, 1\) and \(1, 2\)|\(1, 2\) and \(1, 1\)"):
            op(a, b)
    assert op(two, Tensor(2.0)).shape == (1, 2)


def test_add_bias_grads():
    m = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    T.tsum(T.add_bias(m, b)).backward()
    assert np.allclose(m.grad, 1.0)
    assert np.allclose(b.grad, 4.0)


def test_grad_check_simple():
    x = Tensor([1.0, 2.0], requires_grad=True)
    err = grad_check(lambda: T.tsum(T.square(x)), [x])
    assert err < 1e-8


def test_grad_check_constant():
    x = Tensor([1.0, 2.0], requires_grad=True)
    err = grad_check(lambda: T.tsum(x * 0.0), [x])
    assert err == 0.0


PRIMITIVE_CASES = [
    ("matmul", lambda a, b: T.tsum(a @ b), (3, 2), (2, 4)),
    ("add", lambda a, b: T.tsum(a + b), (5,), (5,)),
    ("sub", lambda a, b: T.tsum(a - b), (5,), (5,)),
    ("mul", lambda a, b: T.tsum(a * b), (5,), (5,)),
    ("div", lambda a, b: T.tsum(a / (T.square(b) + 1.0)), (5,), (5,)),
    ("exp", lambda a, b: T.tsum(T.exp(a) * b), (4,), (4,)),
    ("log", lambda a, b: T.tsum(T.log(T.square(a) + 1.0) + b), (4,), (4,)),
    ("tanh", lambda a, b: T.tsum(T.tanh(a) * b), (4,), (4,)),
    ("sigmoid", lambda a, b: T.tsum(T.sigmoid(a) * b), (4,), (4,)),
    ("softplus", lambda a, b: T.tsum(T.softplus(a) * b), (4,), (4,)),
    ("square", lambda a, b: T.tsum(T.square(a) + b), (4,), (4,)),
    ("sum_last_axis", lambda a, b: T.tsum(T.tsum(a, axis=-1) * b), (3, 4), (3,)),
    ("sum_axis", lambda a, b: T.tsum(T.tsum(a, axis=0) * T.tsum(b, axis=0)), (3, 4), (2, 4)),
    ("mean", lambda a, b: T.tmean(a) * T.tmean(b), (3, 4), (6,)),
    ("concat", lambda a, b: T.tsum(T.square(T.concat([a, b]))), (2, 3), (2, 2)),
    ("slice", lambda a, b: T.tsum(T.slice_last(a, 1, 3) * T.slice_last(b, 0, 2)), (2, 4), (2, 3)),
    ("transpose", lambda a, b: T.tsum(a.T @ b), (3, 2), (3, 4)),
    ("add_bias", lambda a, b: T.tsum(T.square(T.add_bias(a, b))), (3, 4), (4,)),
    ("matmul_vec_mat", lambda a, b: T.tsum(a @ b), (1, 3), (3, 4)),
    ("matmul_mat_vec", lambda a, b: T.tsum(a @ b), (3, 2), (2, 1)),
    ("matmul_dot", lambda a, b: T.tsum(a @ b), (1, 4), (4, 1)),
    ("mul_scalar", lambda a, b: T.tsum(T.square(a * 2.5) + 0.5 * b), (2, 3), (2, 3)),
    ("reshape", lambda a, b: T.tsum(T.square(T.reshape(a, (3, 4))) * b), (2, 6), (3, 4)),
]


@pytest.mark.parametrize("name,fn,sa,sb", PRIMITIVE_CASES)
def test_every_primitive_grad_checks_over_seeds(name, fn, sa, sb):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal(sa), requires_grad=True)
        b = Tensor(rng.standard_normal(sb), requires_grad=True)
        worst = max(worst, grad_check(lambda: fn(a, b), [a, b], step=1e-5))
    assert worst < 1e-4, f"{name}: max rel err {worst}"


def test_forward_backward_reproducible():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        loss = T.tmean(T.square(T.tanh(x @ w)))
        loss.backward()
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_no_grad_blocks_graph():
    x = Tensor([1.0, 2], requires_grad=True)
    with no_grad():
        out = T.tsum(T.square(x))
    assert not out.requires_grad
    out.backward()   # no-op, not an error
    assert np.array_equal(x.grad, [0.0, 0.0])


def test_no_nan_inf_on_finite_inputs():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal(50) * 5.0)
    for fn in (T.exp, T.tanh, T.sigmoid, T.softplus, T.square):
        assert np.isfinite(fn(x).data).all()

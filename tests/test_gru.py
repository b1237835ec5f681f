"""The fused recurrent op against slow references: finite differences, the
composed per-step graph of engine primitives, and per-step copies of the
encoder, teacher-forcing and sampling loops built on it."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import latentcast.tensor as T
from latentcast.cvae import BiGruEncoder
from latentcast.forecaster import SIGMA_FLOOR, RecurrentDecoder
from latentcast.nets import GRUCell, dropout
from latentcast.tensor import Tensor, grad_check, no_grad


def composed_step(cell, x, h):
    """One GRU step as a graph of engine primitives: the slow reference."""
    hid = cell.hidden
    px = T.add_bias(x @ cell.wx, cell.b)
    ph = h @ cell.wh
    r = T.sigmoid(T.slice_last(px, 0, hid) + T.slice_last(ph, 0, hid))
    u = T.sigmoid(T.slice_last(px, hid, 2 * hid) + T.slice_last(ph, hid, 2 * hid))
    c = T.tanh(T.slice_last(px, 2 * hid, 3 * hid) + r * T.slice_last(ph, 2 * hid, 3 * hid))
    return u * h + (1.0 - u) * c


def step_input(dec, value, feats):
    if dec.feat_dim == 0:
        return value
    if feats is None:
        feats = np.zeros((value.shape[0], dec.feat_dim))
    return T.concat([value, Tensor(feats)])


def condition(dec, x_prime, a):
    n, length = x_prime.shape
    h = Tensor(np.zeros((n, dec.cell.hidden)))
    for t in range(length):
        feats = a[:, t, :] if (a is not None and dec.feat_dim) else None
        h = composed_step(dec.cell, step_input(dec, T.slice_last(x_prime, t, t + 1), feats), h)
    return h


def stepwise_teacher_forced(dec, x_prime, a, y, rng, training):
    length = x_prime.shape[1]
    h = condition(dec, x_prime, a)
    prev = T.slice_last(x_prime, length - 1, length)
    mus, sigmas = [], []
    for s in range(dec.horizon):
        h = composed_step(dec.cell, step_input(dec, prev, None), h)
        hd = dropout(h, dec.drop, rng, training)
        mus.append(dec.mu_head(hd))
        sigmas.append(T.softplus(dec.sigma_head(hd)) + SIGMA_FLOOR)
        prev = Tensor(y[:, s:s + 1])
    return T.concat(mus), T.concat(sigmas)


def repeat_then_condition_sampler(dec, x_prime, a, n_paths, rng):
    """The sampler that copies each window n_paths times and conditions
    every copy."""
    n, length = x_prime.shape
    with no_grad():
        xp = Tensor(np.repeat(x_prime.data, n_paths, axis=0))
        rep_a = np.repeat(a, n_paths, axis=0) if (a is not None and dec.feat_dim) else None
        h = condition(dec, xp, rep_a)
        prev = T.slice_last(xp, length - 1, length)
        draws = np.empty((n * n_paths, dec.horizon))
        for s in range(dec.horizon):
            h = composed_step(dec.cell, step_input(dec, prev, None), h)
            mu = dec.mu_head(h).data[:, 0]
            sigma = T.softplus(dec.sigma_head(h)).data[:, 0] + SIGMA_FLOOR
            step = mu + sigma * rng.standard_normal(n * n_paths)
            draws[:, s] = step
            prev = Tensor(step[:, None])
    return draws.reshape(n, n_paths, dec.horizon)


def _cell(seed, in_dim, hidden):
    rng = np.random.default_rng(seed)
    cell = GRUCell(rng, in_dim, hidden, "c")
    cell.b.data[...] = rng.normal(size=3 * hidden)   # nonzero biases reach every gate term
    return cell, rng


def _rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))) if a.size else 0.0


@pytest.mark.parametrize("in_dim", [1, 3], ids=["value_only", "with_features"])
@pytest.mark.parametrize("keep", ["one", "all"])
@pytest.mark.parametrize("with_h0", [False, True], ids=["zero_state", "h0"])
def test_fused_gru_grad_checks(in_dim, keep, with_h0):
    cell, rng = _cell(0, in_dim, 3)
    n, length = 2, 4
    xs = Tensor(rng.normal(size=(n, length, in_dim)), requires_grad=True)
    h0 = Tensor(rng.normal(size=(n, 3)), requires_grad=True) if with_h0 else None
    k = 1 if keep == "one" else length
    w = Tensor(rng.normal(size=(k, n, 3)))
    params = [xs] + ([h0] if with_h0 else []) + cell.params()
    assert grad_check(lambda: T.tsum(cell(xs, h0, keep=k) * w), params) < 1e-7


@given(n=st.integers(1, 4), length=st.integers(1, 6), in_dim=st.integers(1, 3),
       hidden=st.integers(1, 5), keep_frac=st.floats(0.0, 1.0), with_h0=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_fused_gru_equals_composed_graph(n, length, in_dim, hidden, keep_frac, with_h0, seed):
    cell, rng = _cell(seed, in_dim, hidden)
    keep = 1 + int(keep_frac * (length - 1))
    x = rng.normal(size=(n, length, in_dim))
    h0 = rng.normal(size=(n, hidden)) if with_h0 else np.zeros((n, hidden))
    w = rng.normal(size=(keep, n, hidden))

    xs = Tensor(x, requires_grad=True)
    h0_fused = Tensor(h0, requires_grad=True) if with_h0 else None
    out = cell(xs, h0_fused, keep=keep)
    T.tsum(out * Tensor(w)).backward()
    fused = [xs.grad] + [p.grad.copy() for p in cell.params()]
    if with_h0:
        fused.append(h0_fused.grad)

    T.zero_grads(cell.params())
    steps = [Tensor(x[:, t], requires_grad=True) for t in range(length)]
    h = h0_ref = Tensor(h0, requires_grad=True)
    states = []
    for x_t in steps:
        h = composed_step(cell, x_t, h)
        states.append(h)
    kept = states[length - keep:]
    want = np.stack([s.data for s in kept])
    if n == 1 and in_dim > 1:
        # numpy computes the reference's one-row input product with a
        # matrix-vector BLAS routine, which rounds differently from the
        # fused op's matrix-matrix product
        assert _rel_err(out.data, want) <= 1e-13
    else:
        assert np.array_equal(out.data, want)
    loss = T.tsum(kept[0] * Tensor(w[0]))
    for s, w_s in zip(kept[1:], w[1:]):
        loss = loss + T.tsum(s * Tensor(w_s))
    loss.backward()
    ref = [np.stack([x_t.grad for x_t in steps], axis=1)] + [p.grad for p in cell.params()]
    if with_h0:
        ref.append(h0_ref.grad)
    for got, want in zip(fused, ref):
        assert _rel_err(got, want) <= 1e-10


def test_fused_gru_rejects_bad_shapes():
    cell, _ = _cell(0, 2, 3)
    with pytest.raises(T.ShapeError):
        cell(Tensor(np.zeros((2, 4, 3))))
    with pytest.raises(T.ShapeError):
        cell(Tensor(np.zeros((2, 4, 2))), h0=Tensor(np.zeros((2, 4))))
    with pytest.raises(ValueError):
        cell(Tensor(np.zeros((2, 4, 2))), keep=5)


def test_bigru_encoder_equals_per_step_loops():
    rng = np.random.default_rng(1)
    enc = BiGruEncoder(rng, 5, 4, 3, drop=0.3, name="enc")
    x = Tensor(rng.normal(size=(3, 5)))
    mu, logvar = enc(x, rng=np.random.default_rng(2), training=True)

    hf = hb = Tensor(np.zeros((3, 4)))
    for t in range(5):
        hf = composed_step(enc.fwd, T.slice_last(x, t, t + 1), hf)
    for t in reversed(range(5)):
        hb = composed_step(enc.bwd, T.slice_last(x, t, t + 1), hb)
    h = dropout(T.concat([hf, hb]), 0.3, np.random.default_rng(2), True)
    assert np.array_equal(mu.data, enc.mu_head(h).data)
    assert np.array_equal(logvar.data, enc.logvar_head(h).data)


def test_bigru_encoder_rejects_grad_inputs():
    enc = BiGruEncoder(np.random.default_rng(0), 4, 3, 2, drop=0.0, name="enc")
    with pytest.raises(T.GraphError):
        enc(Tensor(np.zeros((2, 4)), requires_grad=True))


@pytest.mark.parametrize("feat_dim,horizon", [(0, 3), (2, 3), (2, 1)])
def test_teacher_forced_equals_per_step_loop(feat_dim, horizon):
    dec = RecurrentDecoder(np.random.default_rng(3), feat_dim, 4, horizon, drop=0.25)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5))
    a = rng.normal(size=(3, 5, feat_dim)) if feat_dim else None
    y = rng.normal(size=(3, horizon))

    def run(fn):
        T.zero_grads(dec.params())
        xp = Tensor(x, requires_grad=True)
        mu, sigma = fn(dec, xp, a, y, np.random.default_rng(5), True)
        T.tsum(mu * 1.3 + T.log(sigma)).backward()
        return [mu.data, sigma.data, xp.grad] + [p.grad.copy() for p in dec.params()]

    fused = run(lambda d, xp, a_, y_, r, tr: d.teacher_forced(xp, a_, y_, rng=r, training=tr))
    ref = run(stepwise_teacher_forced)
    assert np.array_equal(fused[0], ref[0]) and np.array_equal(fused[1], ref[1])
    for got, want in zip(fused[2:], ref[2:]):
        assert _rel_err(got, want) <= 1e-10


@pytest.mark.parametrize("feat_dim,windows", [(0, 3), (2, 3), (2, 1)])
def test_sample_paths_equal_repeat_then_condition_sampler(feat_dim, windows):
    dec = RecurrentDecoder(np.random.default_rng(6), feat_dim, 8, 4, drop=0.1)
    rng = np.random.default_rng(7)
    xp = Tensor(rng.normal(size=(windows, 6)))
    a = rng.normal(size=(windows, 6, feat_dim)) if feat_dim else None
    got = dec.sample_paths(xp, a, 7, np.random.default_rng(8))
    want = repeat_then_condition_sampler(dec, xp, a, 7, np.random.default_rng(8))
    if windows == 1:
        # conditioning one window multiplies one-row states, which numpy
        # hands to a matrix-vector BLAS routine that rounds differently
        assert _rel_err(got, want) <= 1e-12
    else:
        assert np.array_equal(got, want)

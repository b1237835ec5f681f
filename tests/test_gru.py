"""The fused recurrent op against slow references: finite differences, the
composed per-step graph of engine primitives, and per-step copies of the
encoder, teacher-forcing and sampling loops built on it; the gate formula
against `expit`."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

import latentcast.tensor as T
from latentcast.cvae import BiGruEncoder
from latentcast.forecaster import SIGMA_FLOOR, RecurrentDecoder, row_blocks
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
def test_fused_gru_grad_checks(in_dim, keep):
    cell, rng = _cell(0, in_dim, 3)
    n, length = 2, 4
    xs = Tensor(rng.normal(size=(n, length, in_dim)), requires_grad=True)
    k = 1 if keep == "one" else length
    w = Tensor(rng.normal(size=(k, n, 3)))
    assert grad_check(lambda: T.tsum(cell(xs, keep=k) * w), [xs] + cell.params()) < 1e-7


@given(n=st.integers(1, 4), length=st.integers(1, 6), in_dim=st.integers(1, 3),
       hidden=st.integers(1, 5), keep_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 16))
def test_fused_gru_equals_composed_graph(n, length, in_dim, hidden, keep_frac, seed):
    cell, rng = _cell(seed, in_dim, hidden)
    keep = 1 + int(keep_frac * (length - 1))
    x = rng.normal(size=(n, length, in_dim))
    w = rng.normal(size=(keep, n, hidden))

    xs = Tensor(x, requires_grad=True)
    with no_grad():
        inferred = cell(xs, keep=keep)
    out = cell(xs, keep=keep)
    # the inference path keeps no tape but takes the same steps
    assert np.array_equal(inferred.data, out.data)
    assert inferred._parents == () and not inferred.requires_grad
    assert out._parents != ()
    T.tsum(out * Tensor(w)).backward()
    fused = [xs.grad] + [p.grad.copy() for p in cell.params()]

    T.zero_grads(cell.params())
    steps = [Tensor(x[:, t], requires_grad=True) for t in range(length)]
    h = Tensor(np.zeros((n, hidden)))
    states = []
    for x_t in steps:
        h = composed_step(cell, x_t, h)
        states.append(h)
    kept = states[length - keep:]
    want = np.stack([s.data for s in kept])
    assert np.array_equal(out.data, want)
    loss = T.tsum(kept[0] * Tensor(w[0]))
    for s, w_s in zip(kept[1:], w[1:]):
        loss = loss + T.tsum(s * Tensor(w_s))
    loss.backward()
    ref = [np.stack([x_t.grad for x_t in steps], axis=1)] + [p.grad for p in cell.params()]
    for got, want in zip(fused, ref):
        assert _rel_err(got, want) <= 1e-10


@given(x=arrays(np.float64, st.integers(1, 64), elements=st.floats(-800.0, 800.0)))
@example(x=np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 710.0, -745.0, 800.0, -800.0]))
def test_gate_formula_is_within_machine_epsilon_of_expit(x):
    # the fused op's gates and tensor.sigmoid compute 0.5 + 0.5*tanh(x/2).
    # Where the result is in [0.5, 1], both sides are multiples of 2**-53;
    # the formula is within one such unit of the logistic function and
    # expit within less than 1.5, so they differ by at most two units, eps.
    # Below 0.5 the bound is tighter.
    # The error is absolute, not relative, in the far negative tail, which
    # is enough for gates that multiply O(1) values.
    y = T.sigmoid(Tensor(x)).data
    assert np.max(np.abs(y - expit(x))) <= np.finfo(np.float64).eps
    assert np.all((y >= 0.0) & (y <= 1.0))


@pytest.mark.parametrize("in_dim", [1, 3], ids=["value_only", "with_features"])
@given(n=st.integers(2, 6), hidden=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
def test_step_equals_one_step_sequence(in_dim, n, hidden, seed):
    # the sequence's second step starts from the first one's state
    cell, rng = _cell(seed, in_dim, hidden)
    xs = rng.normal(size=(n, 2, in_dim))
    states = cell(Tensor(xs), keep=2).data
    got = cell.step(xs[:, 1], states[0])
    assert isinstance(got, np.ndarray)
    assert np.array_equal(got, states[1])


def test_fused_gru_rejects_bad_shapes():
    cell, _ = _cell(0, 2, 3)
    with pytest.raises(T.ShapeError):
        cell(Tensor(np.zeros((2, 4, 3))))
    with pytest.raises(ValueError):
        cell(Tensor(np.zeros((2, 4, 2))), keep=5)


def test_bigru_encoder_equals_per_step_loops():
    rng = np.random.default_rng(1)
    enc = BiGruEncoder(rng, 5, 4, drop=0.3, name="enc")
    x = Tensor(rng.normal(size=(3, 5)))
    features = enc(x, rng=np.random.default_rng(2), training=True)

    hf = hb = Tensor(np.zeros((3, 4)))
    for t in range(5):
        hf = composed_step(enc.fwd, T.slice_last(x, t, t + 1), hf)
    for t in reversed(range(5)):
        hb = composed_step(enc.bwd, T.slice_last(x, t, t + 1), hb)
    h = dropout(T.concat([hf, hb]), 0.3, np.random.default_rng(2), True)
    assert np.array_equal(features.data, h.data)


def test_bigru_encoder_rejects_grad_inputs():
    enc = BiGruEncoder(np.random.default_rng(0), 4, 3, drop=0.0, name="enc")
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


# (windows, paths): the sampler steps its windows * paths rows in blocks of
# SAMPLE_BLOCK_ROWS (256); 257 rows end in a merged one-row tail, 520 in two
# blocks and 8 rows
SAMPLER_SIZES = {"3": (3, 7), "1": (1, 7), "one_block": (32, 8), "block_plus_1": (257, 1),
                 "two_blocks_plus_8": (5, 104)}


@pytest.mark.parametrize("feat_dim,size", [
    pytest.param(feat_dim, size, id=f"{feat_dim}-{size}")
    for feat_dim, size in [(0, "3"), (2, "3"), (2, "1")]
    + [(f, s) for s in ("one_block", "block_plus_1", "two_blocks_plus_8") for f in (0, 2)]])
def test_sample_paths_equal_repeat_then_condition_sampler(feat_dim, size):
    windows, paths = SAMPLER_SIZES[size]
    dec = RecurrentDecoder(np.random.default_rng(6), feat_dim, 8, 4, drop=0.1)
    rng = np.random.default_rng(7)
    xp = Tensor(rng.normal(size=(windows, 6)))
    a = rng.normal(size=(windows, 6, feat_dim)) if feat_dim else None
    rng_got, rng_want = np.random.default_rng(8), np.random.default_rng(8)
    got = dec.sample_paths(xp, a, paths, rng_got)
    want = repeat_then_condition_sampler(dec, xp, a, paths, rng_want)
    if windows == 1:
        # conditioning one window multiplies one-row states, which numpy
        # hands to a matrix-vector BLAS routine that rounds differently
        assert _rel_err(got, want) <= 1e-12
    else:
        assert np.array_equal(got, want)
    # both samplers used up the same draws
    assert np.array_equal(rng_got.standard_normal(3), rng_want.standard_normal(3))


@pytest.mark.parametrize("hidden", [8, 32, 64])
@pytest.mark.parametrize("in_dim", [1, 3], ids=["value_only", "with_features"])
def test_step_over_row_blocks_equals_one_step_over_all_rows(in_dim, hidden):
    # the sampler's row blocks rely on this: a block of two or more rows goes
    # through the same BLAS matrix product as the whole array, and every row's
    # result is the same (a one-row block goes to matrix-vector routines and
    # may differ in the last bits, so the sampler never makes one)
    cell, rng = _cell(hidden, in_dim, hidden)
    rows = 700
    x = rng.normal(size=(rows, in_dim))
    h = rng.normal(size=(rows, hidden))
    want = cell.step(x, h)
    for size in (2, 3, 5, 64, 255, 256, 257, 699):
        got = np.concatenate([cell.step(x[lo:hi], h[lo:hi])
                              for lo, hi in row_blocks(rows, size)])
        assert np.array_equal(got, want), size


@pytest.mark.parametrize("rows", [1, 2, 255, 256, 257, 3840])
def test_one_wide_projection_equals_matmul(rows):
    # each output of a one-wide product is a single multiply, so `np.dot`
    # and `@` agree bit for bit whatever route numpy takes
    cell, rng = _cell(rows, 1, 16)
    x = rng.normal(size=(rows, 1))
    assert np.array_equal(cell._project(x), x @ cell.wx.data + cell.b.data)

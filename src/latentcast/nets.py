"""Small neural building blocks: Glorot-initialized linear layers, a gated
recurrent cell run over whole sequences, and inverted dropout."""

from __future__ import annotations

import weakref

import numpy as np

from . import tensor as T
from .tensor import Tensor


def glorot(rng: np.random.Generator, shape: tuple[int, ...],
           fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Linear:
    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int, name: str):
        self.w = Tensor(glorot(rng, (in_dim, out_dim), in_dim, out_dim),
                        requires_grad=True, name=f"{name}.w")
        self.b = Tensor(np.zeros(out_dim), requires_grad=True, name=f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        """(N, in_dim) rows -> (N, out_dim)."""
        return T.add_bias(x @ self.w, self.b)

    def params(self) -> list[Tensor]:
        return [self.w, self.b]


class GRUCell:
    """Gated recurrent unit; gate layout [reset | update | candidate].

    One call runs the cell over a whole sequence as one graph node: each step
    projects its own inputs as `step` does, the recurrence runs in numpy, and
    backward is hand-written backpropagation through time
    (Appleyard et al. 2016, arXiv:1604.01946). `step` runs one step on plain
    arrays, with no graph, through the same step code.

    The reset and update gates are the logistic function computed as
    0.5 + 0.5*tanh(x/2), within machine epsilon (2**-52) of `expit` and
    cheaper. The forward uses the same float operations in the same order as
    a per-step graph of engine primitives (`tensor.sigmoid` uses the same
    formula) and the same per-step products, so its values are bit-equal to
    that graph, one-row batches included.

    A call that records a graph node writes what backpropagation through
    time reads into one flat float64 tape buffer of N*H*(5T + 1) floats, as
    three step-major blocks: the T + 1 states from the zero state on
    (T + 1, N, H); per step the [reset | update] gates and the candidate
    (T, N, 3H); per step the candidate slice of h @ wh (T, N, H). Its
    backward, one pass shared by the node's vjps, overwrites each step's
    entries with that step's grads once it has read them (memory-efficient
    BPTT, Gruslys et al. 2016, arXiv:1606.03401): the second block becomes
    the grad of h @ wh and the third the candidate's input grad, which one
    copy then moves into the second, now the grad of the input projections.
    So every product reads a contiguous (T*N, 3H) view of the buffer, as
    with separate grad arrays, and no grad array the size of the tape is
    made. A second pass would read grads as gates: it raises GraphError.

    The cell keeps at most one spare buffer, the one its last taped call's
    graph released (`Tensor.backward` drops the node's vjps once they have
    run, or the graph is dropped unrun). The next taped call takes it if it
    is large enough, so training steps reuse one buffer instead of handing
    it back to the allocator, and the kernel, every step. An untaped call
    (validation, evaluation, sampling) drops the spare, so no buffer
    outlives training or sits under a validation pass.
    """

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int, name: str):
        self.hidden = hidden
        self.wx = Tensor(glorot(rng, (in_dim, 3 * hidden), in_dim, hidden),
                         requires_grad=True, name=f"{name}.wx")
        self.wh = Tensor(glorot(rng, (hidden, 3 * hidden), hidden, hidden),
                         requires_grad=True, name=f"{name}.wh")
        self.b = Tensor(np.zeros(3 * hidden), requires_grad=True, name=f"{name}.b")
        self._spare: np.ndarray | None = None

    def _project(self, x: np.ndarray) -> np.ndarray:
        """(M, D) inputs -> (M, 3H) input projections, bias included.

        `np.dot`, not `@`: the values are the same, but for a one-wide input
        (the encoders, a decoder without features) numpy's `matmul` takes a
        path several times slower."""
        px = np.dot(x, self.wx.data)
        px += self.b.data
        return px

    def _step(self, px: np.ndarray, h: np.ndarray, h_next: np.ndarray | None = None,
              gates: np.ndarray | None = None, phc: np.ndarray | None = None) -> np.ndarray:
        """One step from the input projection px (N, 3H) and the state h
        (N, H) to the next state, written into `h_next` if given. A taped
        step also writes its [reset | update] gates and candidate into
        `gates` (N, 3H) and the candidate slice of h @ wh into `phc` (N, H)."""
        hid = self.hidden
        ph = h @ self.wh.data
        ru = np.add(0.5, 0.5 * np.tanh(0.5 * (px[:, :2 * hid] + ph[:, :2 * hid])),
                    out=None if gates is None else gates[:, :2 * hid])
        r, u = ru[:, :hid], ru[:, hid:]
        c = np.tanh(px[:, 2 * hid:] + r * ph[:, 2 * hid:],
                    out=None if gates is None else gates[:, 2 * hid:])
        if phc is not None:
            phc[...] = ph[:, 2 * hid:]
        return np.add(u * h, (1.0 - u) * c, out=h_next)

    def step(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """One step on plain arrays, without a graph: (N, D) inputs and the
        (N, H) state -> the next (N, H) state. Bit-equal to the step a
        sequence call takes from the state `h` with the inputs `x`."""
        return self._step(self._project(x), h)

    def _take_tape(self, size: int) -> np.ndarray:
        """A buffer of at least `size` floats for a taped call: the spare if
        it is large enough, else a new one (a too-small spare is freed first)."""
        spare, self._spare = self._spare, None
        if spare is not None and spare.size >= size:
            return spare
        del spare
        return np.empty(size)

    def __call__(self, xs: Tensor, keep: int = 1) -> Tensor:
        """The last `keep` states of the cell run over (N, T, D) inputs from
        the zero state, step-major: (keep, N, H).

        One loop runs the steps and writes the kept states into the output.
        Only a call that records a graph node tapes its steps; otherwise
        (under `no_grad`, or with no parent requiring grad) it drops the
        spare buffer and keeps no tape."""
        hid = self.hidden
        if xs.ndim != 3 or xs.shape[2] != self.wx.shape[0]:
            raise T.ShapeError(f"GRUCell expects (N, T, {self.wx.shape[0]}) inputs, got {xs.shape}")
        n, length, in_dim = xs.shape
        if not 1 <= keep <= length:
            raise ValueError(f"keep must be in [1, {length}], got {keep}")
        wx, wh = self.wx.data, self.wh.data
        parents = [xs, self.wx, self.wh, self.b]

        # step-major throughout, so every per-step slice is contiguous
        x_flat = xs.data.transpose(1, 0, 2).reshape(length * n, in_dim)
        x_steps = x_flat.reshape(length, n, in_dim)
        out = np.empty((keep, n, hid))
        taped = T.records(parents)
        if taped:
            nh = n * hid
            buf = self._take_tape((5 * length + 1) * nh)
            states = buf[:(length + 1) * nh].reshape(length + 1, n, hid)   # states[t] enters step t
            gates = buf[(length + 1) * nh:(4 * length + 1) * nh].reshape(length, n, 3 * hid)
            phcs = buf[(4 * length + 1) * nh:(5 * length + 1) * nh].reshape(length, n, hid)
            h = states[0]
            h[...] = 0.0
            tape = (states[1:], gates, phcs)   # what step t writes to
        else:
            self._spare = None
            h = np.zeros((n, hid))
            tape = ()
        for t in range(length):
            h = self._step(self._project(x_steps[t]), h, *(a[t] for a in tape))
            if t >= length - keep:
                out[t - length + keep] = h
        if not taped:
            return Tensor(out)

        memo: dict[str, np.ndarray] = {}

        def bptt(g: np.ndarray) -> dict[str, np.ndarray]:
            """Grads of the input projections and wh, written over the tape;
            one pass per backward, shared by every parent's vjp."""
            if "g" in memo:
                if memo["g"] is g:
                    return memo
                raise T.GraphError("GRUCell tape already consumed: its backward has "
                                   "overwritten the gates with grads")
            dh = np.zeros((n, hid))
            for t in reversed(range(length)):
                if t >= length - keep:
                    dh = dh + g[t - length + keep]
                r, u, c = gates[t, :, :hid], gates[t, :, hid:2 * hid], gates[t, :, 2 * hid:]
                dpc = dh * (1.0 - u) * (1.0 - c * c)   # grad of the candidate's input slice
                dr = dpc * phcs[t] * r * (1.0 - r)
                du = dh * (states[t] - c) * u * (1.0 - u)
                dpc_r = dpc * r
                dh_u = dh * u
                # every read of step t's entries is above: the grad of h @ wh
                # and the candidate's input grad go over them
                gates[t, :, :hid] = dr
                gates[t, :, hid:2 * hid] = du
                gates[t, :, 2 * hid:] = dpc_r
                phcs[t] = dpc
                dh = dh_u + gates[t] @ wh.T
            dph = gates.reshape(length * n, 3 * hid)
            memo.update(g=g, dwh=states[:-1].reshape(length * n, hid).T @ dph)
            gates[:, :, 2 * hid:] = phcs
            memo["dpx"] = dph   # now the grad of the input projections
            return memo

        # the graph releases the buffer when it drops the vjps, and bptt with them
        weakref.finalize(bptt, setattr, self, "_spare", buf)
        vjps = [lambda g: (bptt(g)["dpx"] @ wx.T).reshape(length, n, in_dim).transpose(1, 0, 2),
                lambda g: x_flat.T @ bptt(g)["dpx"],
                lambda g: bptt(g)["dwh"],
                lambda g: bptt(g)["dpx"].sum(axis=0)]
        return T.custom_op(out, parents, vjps)

    def params(self) -> list[Tensor]:
        return [self.wx, self.wh, self.b]


def dropout(x: Tensor, p: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)

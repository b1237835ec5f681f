"""Small neural building blocks: Glorot-initialized linear layers, a gated
recurrent cell run over whole sequences, and inverted dropout."""

from __future__ import annotations

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

    A call that records a graph node keeps, for its backward, exactly what
    backpropagation through time reads: the inputs as step-major rows
    (T*N, D), the T + 1 states from the zero state on (N, H each), and per
    step the [reset | update] gates (N, 2H), the candidate (N, H) and a copy
    of the candidate slice of h @ wh (N, H). The first vjp to run adds the
    grads of the input projections (T*N, 3H) and of wh, which the other vjps
    share. `Tensor.backward` frees all of it once the node's vjps have run.
    """

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int, name: str):
        self.hidden = hidden
        self.wx = Tensor(glorot(rng, (in_dim, 3 * hidden), in_dim, hidden),
                         requires_grad=True, name=f"{name}.wx")
        self.wh = Tensor(glorot(rng, (hidden, 3 * hidden), hidden, hidden),
                         requires_grad=True, name=f"{name}.wh")
        self.b = Tensor(np.zeros(3 * hidden), requires_grad=True, name=f"{name}.b")

    def _project(self, x: np.ndarray) -> np.ndarray:
        """(M, D) inputs -> (M, 3H) input projections, bias included.

        `np.dot`, not `@`: the values are the same, but for a one-wide input
        (the encoders, a decoder without features) numpy's `matmul` takes a
        path several times slower."""
        px = np.dot(x, self.wx.data)
        px += self.b.data
        return px

    def _step(self, px: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, ...]:
        """One step from the input projection px (N, 3H) and the state h
        (N, H): the next state, the [reset | update] gates, the candidate
        and h @ wh."""
        hid = self.hidden
        ph = h @ self.wh.data
        ru = 0.5 + 0.5 * np.tanh(0.5 * (px[:, :2 * hid] + ph[:, :2 * hid]))
        r, u = ru[:, :hid], ru[:, hid:]
        c = np.tanh(px[:, 2 * hid:] + r * ph[:, 2 * hid:])
        h_next = u * h + (1.0 - u) * c
        return h_next, ru, c, ph

    def step(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """One step on plain arrays, without a graph: (N, D) inputs and the
        (N, H) state -> the next (N, H) state. Bit-equal to the step a
        sequence call takes from the state `h` with the inputs `x`."""
        return self._step(self._project(x), h)[0]

    def __call__(self, xs: Tensor, keep: int = 1) -> Tensor:
        """The last `keep` states of the cell run over (N, T, D) inputs from
        the zero state, step-major: (keep, N, H).

        One loop runs the steps and writes the kept states into the output.
        It tapes every step's state, gates and candidate for the backward
        only when the call records a graph node; otherwise (under `no_grad`,
        or with no parent requiring grad) the tape stays empty."""
        hid = self.hidden
        if xs.ndim != 3 or xs.shape[2] != self.wx.shape[0]:
            raise T.ShapeError(f"GRUCell expects (N, T, {self.wx.shape[0]}) inputs, got {xs.shape}")
        n, length, in_dim = xs.shape
        if not 1 <= keep <= length:
            raise ValueError(f"keep must be in [1, {length}], got {keep}")
        wx, wh = self.wx.data, self.wh.data
        parents = [xs, self.wx, self.wh, self.b]
        taped = T.records(parents)

        # step-major throughout, so every per-step slice is contiguous
        x_flat = xs.data.transpose(1, 0, 2).reshape(length * n, in_dim)
        x_steps = x_flat.reshape(length, n, in_dim)
        out = np.empty((keep, n, hid))
        h = np.zeros((n, hid))
        hs = [h]   # the tape: hs[t] enters step t
        gates, cands, phcs = [], [], []   # reset | update, candidate, candidate slice of h @ wh
        for t in range(length):
            h, ru, c, ph = self._step(self._project(x_steps[t]), h)
            if t >= length - keep:
                out[t - length + keep] = h
            if taped:
                hs.append(h)
                gates.append(ru)
                cands.append(c)
                phcs.append(ph[:, 2 * hid:].copy())   # a view would keep all of ph

        tape: dict[str, np.ndarray] = {}

        def bptt(g: np.ndarray) -> dict[str, np.ndarray]:
            """Grads of the pre-activations and wh; one pass per backward,
            shared by every parent's vjp."""
            if tape.get("g") is g:
                return tape
            dph = np.empty((length, n, 3 * hid))      # grad of h @ wh, per step
            dpc = np.empty((length, n, hid))          # grad of the candidate's input slice
            dh = np.zeros((n, hid))
            for t in reversed(range(length)):
                if t >= length - keep:
                    dh = dh + g[t - length + keep]
                r, u, c = gates[t][:, :hid], gates[t][:, hid:], cands[t]
                dpc[t] = dh * (1.0 - u) * (1.0 - c * c)
                dph[t, :, :hid] = dpc[t] * phcs[t] * r * (1.0 - r)
                dph[t, :, hid:2 * hid] = dh * (hs[t] - c) * u * (1.0 - u)
                dph[t, :, 2 * hid:] = dpc[t] * r
                dh = dh * u + dph[t] @ wh.T
            dph_flat = dph.reshape(length * n, 3 * hid)
            h_prev = np.stack(hs[:-1]).reshape(length * n, hid)
            tape.update(g=g, dwh=h_prev.T @ dph_flat)
            dph[:, :, 2 * hid:] = dpc                 # dph now holds the grad of px
            tape["dpx"] = dph_flat
            return tape

        vjps = [lambda g: (bptt(g)["dpx"] @ wx.T).reshape(length, n, in_dim).transpose(1, 0, 2),
                lambda g: x_flat.T @ bptt(g)["dpx"],
                lambda g: bptt(g)["dwh"],
                lambda g: bptt(g)["dpx"].sum(axis=0)]
        # untaped, custom_op records no node and the vjps are dropped
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

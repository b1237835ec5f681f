"""Small neural building blocks: Glorot-initialized linear layers, a gated
recurrent cell run over whole sequences, and inverted dropout."""

from __future__ import annotations

import numpy as np
from scipy.special import expit

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
        if x.ndim == 2:
            return T.add_bias(x @ self.w, self.b)
        return x @ self.w + self.b

    def params(self) -> list[Tensor]:
        return [self.w, self.b]


class GRUCell:
    """Gated recurrent unit; gate layout [reset | update | candidate].

    One call runs the cell over a whole sequence as one graph node: the input
    projection of every step is a single GEMM, the recurrence runs in numpy,
    and backward is hand-written backpropagation through time (Appleyard et
    al. 2016, arXiv:1604.01946). The forward uses the same float operations
    in the same order as a per-step graph of engine primitives, so its values
    are bit-equal to it wherever numpy sends both to the same BLAS routine
    (a one-row step product goes to a matrix-vector routine instead).
    """

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int, name: str):
        self.hidden = hidden
        self.wx = Tensor(glorot(rng, (in_dim, 3 * hidden), in_dim, hidden),
                         requires_grad=True, name=f"{name}.wx")
        self.wh = Tensor(glorot(rng, (hidden, 3 * hidden), hidden, hidden),
                         requires_grad=True, name=f"{name}.wh")
        self.b = Tensor(np.zeros(3 * hidden), requires_grad=True, name=f"{name}.b")

    def __call__(self, xs: Tensor, h0: Tensor | None = None, keep: int = 1) -> Tensor:
        """The last `keep` states of the cell run over (N, T, D) inputs from
        h0 (zeros when None), step-major: (keep, N, H)."""
        hid = self.hidden
        if xs.ndim != 3 or xs.shape[2] != self.wx.shape[0]:
            raise T.ShapeError(f"GRUCell expects (N, T, {self.wx.shape[0]}) inputs, got {xs.shape}")
        n, length, in_dim = xs.shape
        if not 1 <= keep <= length:
            raise ValueError(f"keep must be in [1, {length}], got {keep}")
        if h0 is not None and h0.shape != (n, hid):
            raise T.ShapeError(f"GRUCell expects an initial state of shape {(n, hid)}, got {h0.shape}")
        wx, wh = self.wx.data, self.wh.data

        # step-major throughout, so every per-step slice is contiguous
        x_flat = xs.data.transpose(1, 0, 2).reshape(length * n, in_dim)
        px = (x_flat @ wx).reshape(length, n, 3 * hid) + self.b.data
        hs = [np.zeros((n, hid)) if h0 is None else h0.data]   # hs[t] enters step t
        gates, cands, phcs = [], [], []   # reset | update, candidate, candidate slice of h @ wh
        for t in range(length):
            ph = hs[t] @ wh
            ru = expit(px[t, :, :2 * hid] + ph[:, :2 * hid])
            u = ru[:, hid:]
            c = np.tanh(px[t, :, 2 * hid:] + ru[:, :hid] * ph[:, 2 * hid:])
            hs.append(u * hs[t] + (1.0 - u) * c)
            gates.append(ru)
            cands.append(c)
            phcs.append(ph[:, 2 * hid:])

        tape: dict[str, np.ndarray] = {}

        def bptt(g: np.ndarray) -> dict[str, np.ndarray]:
            """Grads of the pre-activations, h0 and wh; one pass per backward,
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
            tape.update(g=g, dh0=dh, dwh=h_prev.T @ dph_flat)
            dph[:, :, 2 * hid:] = dpc                 # dph now holds the grad of px
            tape["dpx"] = dph_flat
            return tape

        parents = [xs, self.wx, self.wh, self.b]
        vjps = [lambda g: (bptt(g)["dpx"] @ wx.T).reshape(length, n, in_dim).transpose(1, 0, 2),
                lambda g: x_flat.T @ bptt(g)["dpx"],
                lambda g: bptt(g)["dwh"],
                lambda g: bptt(g)["dpx"].sum(axis=0)]
        if h0 is not None:
            parents.append(h0)
            vjps.append(lambda g: bptt(g)["dh0"])
        return T.custom_op(np.stack(hs[length - keep + 1:]), parents, vjps)

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

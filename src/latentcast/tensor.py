"""Reverse-mode automatic differentiation over dense row-major numpy arrays.

A Tensor wraps an ndarray plus an optional gradient buffer. Every operation
on grad-enabled tensors records one graph node through `custom_op`: its value,
its parents and one vector-Jacobian product per parent. `Tensor.backward()`
walks that graph once in reverse topological order and is the only code that
accumulates gradients. Elementwise broadcasting is restricted to
scalar-with-tensor so shape mistakes fail loudly. Every tensor holds float64,
which the finite-difference checks need.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import expit


class ShapeError(ValueError):
    """Operand shapes incompatible for the attempted op."""


class MathDomainError(ValueError):
    """Input outside an op's mathematical domain (log <= 0, div by 0, ...)."""


class GraphError(RuntimeError):
    """Misuse of the autodiff graph (non-scalar loss, reused graph, ...)."""


_grad_mode = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / FD probes)."""
    global _grad_mode
    prev = _grad_mode
    _grad_mode = False
    try:
        yield
    finally:
        _grad_mode = prev


# upstream grad -> one parent's grad contribution
Vjp = Callable[[np.ndarray], np.ndarray]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_vjps", "_consumed")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjps: tuple[Vjp | None, ...] = ()
        self._consumed = False

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # -- gradient bookkeeping -------------------------------------------

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self) -> None:
        """Populate grads of every grad-enabled tensor reachable from self.

        Self must be scalar. This is the only code that writes gradients: in
        reverse topological order, each node hands its grad to its parents'
        vjps, and each contribution is reduced onto the parent's shape and
        added to the parent's grad, which the first contribution creates as a
        copy. The traversed graph is marked consumed; a second backward
        through it raises GraphError. Leaf grads accumulate (+=), so separate
        passes over fresh graphs sum, matching d(l1+l2) = dl1 + dl2.
        """
        if self.size != 1:
            raise GraphError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._consumed:
            raise GraphError("backward on a graph that was already consumed")
        if not self.requires_grad:
            self._consumed = True
            return

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._consumed and node._parents:
                raise GraphError("backward through an intermediate of a consumed graph")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            node._consumed = True
            if node.grad is None:
                continue
            for p, vjp in zip(node._parents, node._vjps):
                if p.requires_grad and vjp is not None:
                    contribution = _fit(vjp(node.grad), p.shape)
                    if p.grad is None:
                        p.grad = np.array(contribution, dtype=np.float64)
                    else:
                        p.grad += contribution

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return tsum(self, axis)

    def mean(self, axis=None):
        return tmean(self, axis)

    def transpose(self):
        return transpose(self)

    @property
    def T(self):
        return transpose(self)


def custom_op(data: np.ndarray, parents: Sequence[Tensor],
              vjps: Sequence[Vjp | None]) -> Tensor:
    """The one graph-node constructor: a forward value, its parents and, per
    parent, a vector-Jacobian product.

    vjps[i] maps the upstream grad to parents[i]'s contribution (None for a
    non-differentiable input); `Tensor.backward` reduces a contribution of
    the full shape onto a scalar parent and does all accumulation. A vjp may
    capture arrays but not the node it belongs to, so a graph holds no
    reference cycle.
    """
    out = Tensor(data)
    if _grad_mode and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjps = tuple(vjps)
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _fit(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce an upstream grad onto a (possibly scalar) operand shape."""
    if grad.shape == shape:
        return grad
    return np.sum(grad).reshape(shape) if int(np.prod(shape)) == 1 else grad.reshape(shape)


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ and neither is scalar")


def _identity(g: np.ndarray) -> np.ndarray:
    return g


# -- primitives ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("add", a, b)
    return custom_op(a.data + b.data, (a, b), (_identity, _identity))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("sub", a, b)
    return custom_op(a.data - b.data, (a, b), (_identity, np.negative))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("mul", a, b)
    x, y = a.data, b.data
    return custom_op(x * y, (a, b), (lambda g: g * y, lambda g: g * x))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("div", a, b)
    x, y = a.data, b.data
    if np.any(y == 0.0):
        raise MathDomainError("div: zero denominator")
    return custom_op(x / y, (a, b), (lambda g: g / y, lambda g: -g * x / (y * y)))


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ShapeError(f"matmul: only 1-D/2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    x, y = a.data, b.data
    if x.ndim == 1 and y.ndim == 1:
        vjps = (lambda g: g * y, lambda g: g * x)
    else:
        vjps = ((lambda g: np.outer(g, y)) if y.ndim == 1 else (lambda g: g @ y.T),
                (lambda g: np.outer(x, g)) if x.ndim == 1 else (lambda g: x.T @ g))
    return custom_op(x @ y, (a, b), vjps)


def add_bias(mat, vec) -> Tensor:
    """Row-broadcast bias add: (N, M) + (M,). The one sanctioned non-scalar
    broadcast; generic add stays strict."""
    mat, vec = _as_tensor(mat), _as_tensor(vec)
    if mat.ndim != 2 or vec.ndim != 1 or mat.shape[1] != vec.shape[0]:
        raise ShapeError(f"add_bias: need (N, M) and (M,), got {mat.shape} and {vec.shape}")
    return custom_op(mat.data + vec.data[None, :], (mat, vec),
                     (_identity, lambda g: g.sum(axis=0)))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    y = np.exp(a.data)
    return custom_op(y, (a,), (lambda g: g * y,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    if np.any(x <= 0.0):
        raise MathDomainError("log: nonpositive input")
    return custom_op(np.log(x), (a,), (lambda g: g / x,))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)
    return custom_op(y, (a,), (lambda g: g * (1.0 - y * y),))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    y = expit(a.data)
    return custom_op(y, (a,), (lambda g: g * y * (1.0 - y),))


def softplus(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    return custom_op(np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0), (a,),
                     (lambda g: g * expit(x),))


def square(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    return custom_op(x * x, (a,), (lambda g: g * 2.0 * x,))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data < 0.0):
        raise MathDomainError("sqrt: negative input")
    y = np.sqrt(a.data)
    return custom_op(y, (a,), (lambda g: g / (2.0 * y),))


def _unreduce(g: np.ndarray, axis, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only broadcast of a reduction's grad back over its input shape."""
    return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape)


def tsum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape
    return custom_op(np.sum(a.data, axis=axis), (a,),
                     (lambda g: _unreduce(g, axis, shape),))


def tmean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape
    count = a.size if axis is None else shape[axis]
    return custom_op(np.mean(a.data, axis=axis), (a,),
                     (lambda g: _unreduce(g, axis, shape) / count,))


def concat(parts: Iterable) -> Tensor:
    """Concatenate along the last axis."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat: empty input")
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead or p.ndim != parts[0].ndim:
            raise ShapeError(
                f"concat: leading dims differ, {parts[0].shape} vs {p.shape}"
            )
    bounds = list(accumulate((p.shape[-1] for p in parts), initial=0))
    vjps = [lambda g, lo=lo, hi=hi: g[..., lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return custom_op(np.concatenate([p.data for p in parts], axis=-1), parts, vjps)


def slice_last(a, start: int, stop: int) -> Tensor:
    """Slice [start:stop] along the last axis."""
    a = _as_tensor(a)
    shape = a.shape
    if not (0 <= start <= stop <= shape[-1]):
        raise ShapeError(f"slice_last: [{start}:{stop}] out of range for last dim {shape[-1]}")

    def vjp(g):
        full = np.zeros(shape)
        full[..., start:stop] = g
        return full
    return custom_op(a.data[..., start:stop].copy(), (a,), (vjp,))


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose: 2-D only, got shape {a.shape}")
    return custom_op(a.data.T.copy(), (a,), (np.transpose,))


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    """Same entries in row-major order, new shape (one entry may be -1)."""
    a = _as_tensor(a)
    in_shape = a.shape
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot reshape {in_shape} to {shape}") from None
    return custom_op(data, (a,), (lambda g: g.reshape(in_shape),))


# -- utilities -----------------------------------------------------------


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.zero_grad()


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale grads in place so their global L2 norm is at most max_norm."""
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], step: float = 1e-5) -> float:
    """Max relative error between backward grads and central differences.

    f rebuilds the scalar loss from `params` on every call. Error per
    coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    params = list(params)
    zero_grads(params)
    out = f()
    if out.size != 1:
        raise GraphError("grad_check: f must return a scalar")
    if not np.isfinite(out.data).all():
        raise MathDomainError("grad_check: non-finite evaluation at the base point")
    out.backward()
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    with no_grad():
        for p, ga in zip(params, analytic):
            flat = p.data.reshape(-1)
            gflat = ga.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                f_plus = float(f().data)
                flat[i] = orig - step
                f_minus = float(f().data)
                flat[i] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise MathDomainError("grad_check: non-finite evaluation during probing")
                numeric = (f_plus - f_minus) / (2.0 * step)
                err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]))
                if err > worst:
                    worst = err
    return worst

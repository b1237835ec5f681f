"""Reverse-mode automatic differentiation over dense row-major numpy arrays.

A Tensor wraps an ndarray plus an optional gradient buffer. Operations on
grad-enabled tensors record a dynamic graph (parents + a backprop closure on
the result); `Tensor.backward()` walks that graph once in reverse topological
order. Elementwise broadcasting is restricted to scalar-with-tensor so shape
mistakes fail loudly. Every tensor holds float64, which the finite-difference
checks need.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np


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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backprop", "_consumed")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backprop: Callable[[], None] | None = None
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

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.size == 1 else _nonscalar(self)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # -- gradient bookkeeping -------------------------------------------

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def backward(self) -> None:
        """Populate grads of every grad-enabled tensor reachable from self.

        Self must be scalar. The traversed graph is marked consumed; a second
        backward through it raises GraphError. Leaf grads accumulate (+=), so
        separate passes over fresh graphs sum, matching d(l1+l2) = dl1 + dl2.
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
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backprop is not None:
                node._backprop()
                # the closure refers back to its node: dropping it lets the graph
                # be freed once the loss is released, not at the next gc pass
                node._backprop = None
            node._consumed = True

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


def _nonscalar(t: Tensor):
    raise GraphError(f"item() on non-scalar tensor of shape {t.shape}")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(data: np.ndarray, parents: Sequence[Tensor]) -> Tensor:
    out = Tensor(data)
    if _grad_mode and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.grad = np.zeros_like(out.data)
        out._parents = tuple(parents)
    return out


def _fit(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce an upstream grad onto a (possibly scalar) operand shape."""
    if grad.shape == shape:
        return grad
    return np.sum(grad).reshape(shape) if int(np.prod(shape)) == 1 else grad.reshape(shape)


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ and neither is scalar")


# -- primitives ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("add", a, b)
    out = _node(a.data + b.data, (a, b))
    if out._parents:
        def backprop():
            if a.requires_grad:
                a.grad += _fit(out.grad, a.shape)
            if b.requires_grad:
                b.grad += _fit(out.grad, b.shape)
        out._backprop = backprop
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("sub", a, b)
    out = _node(a.data - b.data, (a, b))
    if out._parents:
        def backprop():
            if a.requires_grad:
                a.grad += _fit(out.grad, a.shape)
            if b.requires_grad:
                b.grad -= _fit(out.grad, b.shape)
        out._backprop = backprop
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("mul", a, b)
    out = _node(a.data * b.data, (a, b))
    if out._parents:
        def backprop():
            if a.requires_grad:
                a.grad += _fit(out.grad * b.data, a.shape)
            if b.requires_grad:
                b.grad += _fit(out.grad * a.data, b.shape)
        out._backprop = backprop
    return out


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("div", a, b)
    if np.any(b.data == 0.0):
        raise MathDomainError("div: zero denominator")
    out = _node(a.data / b.data, (a, b))
    if out._parents:
        def backprop():
            if a.requires_grad:
                a.grad += _fit(out.grad / b.data, a.shape)
            if b.requires_grad:
                b.grad += _fit(-out.grad * a.data / (b.data * b.data), b.shape)
        out._backprop = backprop
    return out


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ShapeError(f"matmul: only 1-D/2-D operands, got {a.shape} @ {b.shape}")
    inner_a = a.shape[-1]
    inner_b = b.shape[0]
    if inner_a != inner_b:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = _node(a.data @ b.data, (a, b))
    if out._parents:
        def backprop():
            g = out.grad
            if a.ndim == 2 and b.ndim == 2:
                if a.requires_grad:
                    a.grad += g @ b.data.T
                if b.requires_grad:
                    b.grad += a.data.T @ g
            elif a.ndim == 1 and b.ndim == 2:
                if a.requires_grad:
                    a.grad += g @ b.data.T
                if b.requires_grad:
                    b.grad += np.outer(a.data, g)
            elif a.ndim == 2 and b.ndim == 1:
                if a.requires_grad:
                    a.grad += np.outer(g, b.data)
                if b.requires_grad:
                    b.grad += a.data.T @ g
            else:
                if a.requires_grad:
                    a.grad += g * b.data
                if b.requires_grad:
                    b.grad += g * a.data
        out._backprop = backprop
    return out


def add_bias(mat, vec) -> Tensor:
    """Row-broadcast bias add: (N, M) + (M,). The one sanctioned non-scalar
    broadcast; generic add stays strict."""
    mat, vec = _as_tensor(mat), _as_tensor(vec)
    if mat.ndim != 2 or vec.ndim != 1 or mat.shape[1] != vec.shape[0]:
        raise ShapeError(f"add_bias: need (N, M) and (M,), got {mat.shape} and {vec.shape}")
    out = _node(mat.data + vec.data[None, :], (mat, vec))
    if out._parents:
        def backprop():
            if mat.requires_grad:
                mat.grad += out.grad
            if vec.requires_grad:
                vec.grad += out.grad.sum(axis=0)
        out._backprop = backprop
    return out


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = _node(np.exp(a.data), (a,))
    if out._parents:
        def backprop():
            a.grad += out.grad * out.data
        out._backprop = backprop
    return out


def log(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        raise MathDomainError("log: nonpositive input")
    out = _node(np.log(a.data), (a,))
    if out._parents:
        def backprop():
            a.grad += out.grad / a.data
        out._backprop = backprop
    return out


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = _node(np.tanh(a.data), (a,))
    if out._parents:
        def backprop():
            a.grad += out.grad * (1.0 - out.data * out.data)
        out._backprop = backprop
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    pos = x >= 0
    out = np.empty_like(x)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out = _node(_sigmoid(a.data), (a,))
    if out._parents:
        def backprop():
            a.grad += out.grad * out.data * (1.0 - out.data)
        out._backprop = backprop
    return out


def softplus(a) -> Tensor:
    a = _as_tensor(a)
    out = _node(np.log1p(np.exp(-np.abs(a.data))) + np.maximum(a.data, 0.0), (a,))
    if out._parents:
        def backprop():
            a.grad += out.grad * _sigmoid(a.data)
        out._backprop = backprop
    return out


def square(a) -> Tensor:
    a = _as_tensor(a)
    out = _node(a.data * a.data, (a,))
    if out._parents:
        def backprop():
            a.grad += out.grad * 2.0 * a.data
        out._backprop = backprop
    return out


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data < 0.0):
        raise MathDomainError("sqrt: negative input")
    out = _node(np.sqrt(a.data), (a,))
    if out._parents:
        def backprop():
            a.grad += out.grad / (2.0 * out.data)
        out._backprop = backprop
    return out


def tsum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    out = _node(np.sum(a.data, axis=axis), (a,))
    if out._parents:
        def backprop():
            g = out.grad if axis is None else np.expand_dims(out.grad, axis)
            a.grad += np.broadcast_to(g, a.shape)
        out._backprop = backprop
    return out


def tmean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    out = _node(np.mean(a.data, axis=axis), (a,))
    if out._parents:
        count = a.size if axis is None else a.shape[axis]
        def backprop():
            g = out.grad if axis is None else np.expand_dims(out.grad, axis)
            a.grad += np.broadcast_to(g, a.shape) / count
        out._backprop = backprop
    return out


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
    out = _node(np.concatenate([p.data for p in parts], axis=-1), (*parts,))
    if out._parents:
        widths = [p.shape[-1] for p in parts]
        def backprop():
            off = 0
            for p, w in zip(parts, widths):
                if p.requires_grad:
                    p.grad += out.grad[..., off:off + w]
                off += w
        out._backprop = backprop
    return out


def slice_last(a, start: int, stop: int) -> Tensor:
    """Slice [start:stop] along the last axis."""
    a = _as_tensor(a)
    dim = a.shape[-1]
    if not (0 <= start <= stop <= dim):
        raise ShapeError(f"slice_last: [{start}:{stop}] out of range for last dim {dim}")
    out = _node(a.data[..., start:stop].copy(), (a,))
    if out._parents:
        def backprop():
            a.grad[..., start:stop] += out.grad
        out._backprop = backprop
    return out


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose: 2-D only, got shape {a.shape}")
    out = _node(a.data.T.copy(), (a,))
    if out._parents:
        def backprop():
            a.grad += out.grad.T
        out._backprop = backprop
    return out


def custom_op(data: np.ndarray, parents: Sequence[Tensor],
              grad_fns: Sequence[Callable[[np.ndarray], np.ndarray] | None]) -> Tensor:
    """Build a graph node from an externally computed forward value.

    grad_fns[i] maps the upstream grad to parents[i]'s grad contribution
    (None for non-differentiable inputs). Used by kernel-backed ops.
    """
    parents = tuple(parents)
    out = _node(np.asarray(data, dtype=np.float64), parents)
    if out._parents:
        def backprop():
            for p, fn in zip(parents, grad_fns):
                if p.requires_grad and fn is not None:
                    p.grad += fn(out.grad)
        out._backprop = backprop
    return out


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

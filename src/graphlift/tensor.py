"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray plus an optional gradient.  Operations build a
directed acyclic graph of closures; calling backward() on a scalar result
walks the graph in reverse topological order and accumulates gradients
into every tensor that requires them.

Gradients are accumulated without buffers: backward() clears every
gradient on the tape, the first contribution a tensor receives becomes
its gradient as it is (often a view of another gradient, or a read-only
broadcast view), and each later contribution allocates the sum.  A
tensor that receives none gets zeros just before its own closure runs.
No gradient is ever written in place, so views that alias each other
are safe; callers must not write into .grad either.

All arithmetic is done in 64-bit floats.  Broadcasting follows numpy
rules; gradients of broadcast operands are summed back down to the
operand's own shape.  A product of a stacked operand with a 2-D matrix,
(..., n, k) @ (k, o), runs as one flattened (N, k) @ (k, o) GEMM in both
directions, so the weight gradient never materializes a per-batch
(B, k, o) stack.

Inside `with no_grad():` operations record nothing: results have
requires_grad=False and no parents, so inference keeps no closures or
intermediates alive.
"""

from __future__ import annotations

import contextlib
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError, NumericError

__all__ = [
    "Tensor",
    "no_grad",
    "matmul",
    "relu",
    "sigmoid",
    "concat_features",
    "mse",
]


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Record no autodiff tape inside the block.

    Op results made inside it have requires_grad=False and no parents,
    even when an operand requires grad; leaves keep their own flag.  The
    flag is process-global (one module variable, not per thread) and is
    restored on exit, also when the block raises, so blocks nest.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _accumulate(t: "Tensor", g: np.ndarray) -> None:
    """Add the contribution `g` to t.grad.

    The first write adopts `g` itself, without a buffer or an add; a later
    write allocates the sum.  No gradient is ever written in place, so a
    gradient may be a view of another (or read-only) without harm.
    """
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Extra leading axes were added by broadcasting: sum them away.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Axes of size 1 in the target were stretched: sum with keepdims.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor constructed from non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple = ()
        self._backward = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple, backward) -> "Tensor":
        """Internal constructor for op results.  Skips the finite check;
        training-loop code is responsible for detecting divergence."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.name = None
        out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    # ---- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single element, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    # ---- autodiff ------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise DimensionError(
                f"backward() starts from a scalar, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            if node._backward is not None:
                node._backward(node.grad)

    # ---- arithmetic ----------------------------------------------------

    @staticmethod
    def _lift(other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self, other
        out = Tensor._from_op(a.data + b.data, (a, b), None)
        if out.requires_grad:
            def backward(g):
                if a.requires_grad:
                    _accumulate(a, _unbroadcast(g, a.data.shape))
                if b.requires_grad:
                    _accumulate(b, _unbroadcast(g, b.data.shape))
            out._backward = backward
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self, other
        out = Tensor._from_op(a.data - b.data, (a, b), None)
        if out.requires_grad:
            def backward(g):
                if a.requires_grad:
                    _accumulate(a, _unbroadcast(g, a.data.shape))
                if b.requires_grad:
                    _accumulate(b, _unbroadcast(-g, b.data.shape))
            out._backward = backward
        return out

    def __mul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self, other
        out = Tensor._from_op(a.data * b.data, (a, b), None)
        if out.requires_grad:
            def backward(g):
                if a.requires_grad:
                    _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
                if b.requires_grad:
                    _accumulate(b, _unbroadcast(g * a.data, b.data.shape))
            out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self, other
        out = Tensor._from_op(a.data / b.data, (a, b), None)
        if out.requires_grad:
            def backward(g):
                if a.requires_grad:
                    _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
                if b.requires_grad:
                    _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))
            out._backward = backward
        return out

    # ---- shape ops -----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.data.shape
        out = Tensor._from_op(a.data.reshape(shape), (a,), None)
        if out.requires_grad:
            def backward(g):
                _accumulate(a, g.reshape(old))
            out._backward = backward
        return out

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)
        out = Tensor._from_op(np.asarray(out_data), (a,), None)
        if out.requires_grad:
            def backward(g):
                if axis is None:
                    _accumulate(a, np.broadcast_to(g, a.data.shape))
                else:
                    gg = g if keepdims else np.expand_dims(g, axis)
                    _accumulate(a, np.broadcast_to(gg, a.data.shape))
            out._backward = backward
        return out

    def sqrt(self) -> "Tensor":
        a = self
        root = np.sqrt(a.data)
        out = Tensor._from_op(root, (a,), None)
        if out.requires_grad:
            def backward(g):
                _accumulate(a, g * (0.5 / root))
            out._backward = backward
        return out


# ---- free functions ----------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy-style batch broadcasting.

    Both operands must have at least 2 dimensions; the last axis of `a`
    must match the second-to-last axis of `b`.  Leading axes broadcast,
    and gradients of broadcast operands are summed back down.  A stacked
    `a` times a 2-D `b` takes the flattened GEMM path instead: the
    weight gradient is a(N, k).T @ g(N, o) with no broadcast to undo.
    """
    a = Tensor._lift(a)
    b = Tensor._lift(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul needs 2-D or higher operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.data.shape} vs {b.data.shape}"
        )
    if b.data.ndim == 2 and a.data.ndim > 2:
        return _matmul_flat(a, b)
    out = Tensor._from_op(a.data @ b.data, (a, b), None)
    if out.requires_grad:
        def backward(g):
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))
        out._backward = backward
    return out


def _matmul_flat(a: Tensor, b: Tensor) -> Tensor:
    """(..., n, k) @ (k, o) as one (N, k) @ (k, o) GEMM, N = prod(...) * n."""
    k, o = b.data.shape
    out = Tensor._from_op((a.data.reshape(-1, k) @ b.data).reshape(*a.data.shape[:-1], o),
                          (a, b), None)
    if out.requires_grad:
        def backward(g):
            g2 = g.reshape(-1, o)
            if a.requires_grad:
                _accumulate(a, (g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accumulate(b, a.data.reshape(-1, k).T @ g2)
        out._backward = backward
    return out


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0).  The gradient at exactly 0 is 0."""
    x = Tensor._lift(x)
    mask = x.data > 0
    out = Tensor._from_op(np.where(mask, x.data, 0.0), (x,), None)
    if out.requires_grad:
        def backward(g):
            _accumulate(x, np.where(mask, g, 0.0))
        out._backward = backward
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    x = Tensor._lift(x)
    d = x.data
    s = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                 np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    out = Tensor._from_op(s, (x,), None)
    if out.requires_grad:
        def backward(g):
            _accumulate(x, g * s * (1.0 - s))
        out._backward = backward
    return out


def concat_features(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last (feature) axis, broadcasting the others.

    The leading axes of the operands broadcast against each other by numpy
    rules, so a (B, 1, F) operand joins a (B, n, k) one as n copies of its
    row without being repeated first: each operand is assigned straight
    into one output array, and each operand's gradient slice is summed
    back down to its own shape.  Zero-width operands are legal and
    contribute nothing.
    """
    ts = [Tensor._lift(t) for t in tensors]
    if not ts:
        raise DomainError("concat_features needs at least one tensor")
    try:
        lead = np.broadcast_shapes(*(t.data.shape[:-1] for t in ts))
    except ValueError:
        raise DimensionError(
            "concat_features operands' leading shapes do not broadcast: "
            + " vs ".join(str(t.data.shape) for t in ts)
        ) from None
    widths = [t.data.shape[-1] for t in ts]
    offsets = np.cumsum([0] + widths)
    out_data = np.empty(lead + (offsets[-1],))
    for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
        out_data[..., lo:hi] = t.data
    out = Tensor._from_op(out_data, tuple(ts), None)
    if out.requires_grad:
        def backward(g):
            for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
                if t.requires_grad and hi > lo:
                    _accumulate(t, _unbroadcast(g[..., lo:hi], t.data.shape))
        out._backward = backward
    return out


def mse(pred: Tensor, target) -> Tensor:
    """Mean squared error over all elements; returns a scalar tensor."""
    pred = Tensor._lift(pred)
    tgt = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    if pred.data.shape != tgt.shape:
        raise DimensionError(
            f"mse operands must match exactly: {pred.data.shape} vs {tgt.shape}"
        )
    if pred.data.size == 0:
        raise DomainError("mse of empty tensors")
    # A diverging model overflows here; the training loop's finite check
    # reports that, so numpy's own warning is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pred.data - tgt
        val = np.asarray(np.mean(diff * diff))
    out = Tensor._from_op(val, (pred,), None)
    if out.requires_grad:
        scale = 2.0 / diff.size
        def backward(g):
            _accumulate(pred, g * scale * diff)
        out._backward = backward
    return out

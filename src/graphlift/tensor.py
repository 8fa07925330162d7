"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray plus an optional gradient.  An op computes its
forward value and hands it to _record with one edge per operand: the
operand and a function that maps the upstream gradient to that
operand's share of it.  Calling backward() on a scalar result walks the
edges in reverse topological order and accumulates gradients into every
tensor that requires them.  Only backward() sums a share back down to a
broadcast operand's shape and adds it to a gradient; an op never does.

Gradients are accumulated without buffers: backward() clears every
gradient on the tape, the first contribution a tensor receives becomes
its gradient as it is (often a view of another gradient, or a read-only
broadcast view), and each later contribution allocates the sum.  A
tensor that receives none gets zeros just before its own edges run.
No gradient is ever written in place, so views that alias each other
are safe; callers must not write into .grad either.

All arithmetic is done in 64-bit floats.  Broadcasting follows numpy
rules; gradients of broadcast operands are summed back down to the
operand's own shape.  A product of a stacked operand with a 2-D matrix,
(..., n, k) @ (k, o), runs as one flattened (N, k) @ (k, o) GEMM in both
directions, so the weight gradient never materializes a per-batch
(B, k, o) stack.

Inside `with no_grad():` operations record nothing: results have
requires_grad=False and no edges, so inference keeps no gradient
functions or intermediates alive.
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

    Op results made inside it have requires_grad=False and no edges,
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


def _same(g: np.ndarray) -> np.ndarray:
    return g


def _record(data: np.ndarray, *edges) -> "Tensor":
    """The result of an op: `data` plus its edges into the tape.

    Each edge is (operand, grad_fn), where grad_fn(g) returns the
    operand's share of the result's gradient g before broadcasting is
    undone.  Only edges into operands that require grad are kept, and
    none inside no_grad(), so a constant operand's grad_fn never runs.
    Skips the finite check; training-loop code detects divergence.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.name = None
    out._edges = [e for e in edges if e[0].requires_grad] if _GRAD_ENABLED else ()
    out.requires_grad = bool(out._edges)
    return out


class Tensor:
    """A float64 array with an optional gradient and its edges to operands."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_edges")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor constructed from non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._edges = ()

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
            for p, _ in node._edges:
                if id(p) not in visited:
                    stack.append((p, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            g = node.grad
            if g is None:
                g = node.grad = np.zeros_like(node.data)
            for p, grad_fn in node._edges:
                _accumulate(p, _unbroadcast(grad_fn(g), p.data.shape))

    # ---- arithmetic ----------------------------------------------------

    @staticmethod
    def _lift(other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    def __add__(self, other) -> "Tensor":
        b = Tensor._lift(other)
        return _record(self.data + b.data, (self, _same), (b, _same))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        b = Tensor._lift(other)
        return _record(self.data - b.data, (self, _same), (b, np.negative))

    def __mul__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)
        return _record(a.data * b.data,
                       (a, lambda g: g * b.data), (b, lambda g: g * a.data))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)
        return _record(a.data / b.data, (a, lambda g: g / b.data),
                       (b, lambda g: -g * a.data / (b.data * b.data)))

    # ---- shape ops -----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        old = self.data.shape
        return _record(self.data.reshape(shape), (self, lambda g: g.reshape(old)))

    def sum(self) -> "Tensor":
        shape = self.data.shape
        return _record(np.asarray(self.data.sum()),
                       (self, lambda g: np.broadcast_to(g, shape)))

    def sqrt(self) -> "Tensor":
        root = np.sqrt(self.data)
        return _record(root, (self, lambda g: g * (0.5 / root)))


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
    return _record(a.data @ b.data,
                   (a, lambda g: g @ np.swapaxes(b.data, -1, -2)),
                   (b, lambda g: np.swapaxes(a.data, -1, -2) @ g))


def _matmul_flat(a: Tensor, b: Tensor) -> Tensor:
    """(..., n, k) @ (k, o) as one (N, k) @ (k, o) GEMM, N = prod(...) * n."""
    k, o = b.data.shape
    return _record((a.data.reshape(-1, k) @ b.data).reshape(*a.data.shape[:-1], o),
                   (a, lambda g: (g.reshape(-1, o) @ b.data.T).reshape(a.data.shape)),
                   (b, lambda g: a.data.reshape(-1, k).T @ g.reshape(-1, o)))


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0).  The gradient at exactly 0 is 0.

    Bitwise equal to np.where(x > 0, x, 0.0) forward and
    np.where(x > 0, g, 0.0) backward for finite g, at a tenth of the cost.
    A NaN pre-activation propagates as NaN; it is not mapped to 0.
    """
    x = Tensor._lift(x)
    mask = x.data > 0

    def grad(g):
        d = g * mask
        d += 0.0        # -0.0 (a negative g times False) becomes +0.0
        return d
    return _record(np.maximum(x.data, 0.0), (x, grad))


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    x = Tensor._lift(x)
    d = x.data
    s = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                 np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    return _record(s, (x, lambda g: g * s * (1.0 - s)))


def concat_features(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last (feature) axis.

    Every operand must have the same leading shape; nothing broadcasts.
    Zero-width operands are legal and contribute nothing; they receive an
    empty gradient.
    """
    ts = [Tensor._lift(t) for t in tensors]
    if not ts:
        raise DomainError("concat_features needs at least one tensor")
    if len({t.data.shape[:-1] for t in ts}) > 1:
        raise DimensionError(
            "concat_features operands' leading shapes differ: "
            + " vs ".join(str(t.data.shape) for t in ts)
        )
    offsets = np.cumsum([0] + [t.data.shape[-1] for t in ts])
    edges = [(t, lambda g, lo=lo, hi=hi: g[..., lo:hi])
             for t, lo, hi in zip(ts, offsets[:-1], offsets[1:])]
    return _record(np.concatenate([t.data for t in ts], axis=-1), *edges)


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
    scale = 2.0 / diff.size
    return _record(val, (pred, lambda g: g * scale * diff))

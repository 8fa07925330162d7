"""Graph layers: adaptive graph convolution (and its shared-input form
for the refinement's first layer), the node-axis map used for pooling
and unpooling, and the gPool baseline.

All layers accept node-feature tensors shaped (n, k) or batched
(B, n, k); the node axis is always second to last.  The one exception,
SharedInputGraphConv, takes a packed (B, shared + n·own) row per sample
and returns (B, n, out) node features.  Pooling and
unpooling are one layer, NodeMap: the product M @ X along the node axis
with a trainable matrix (P or U) or a constant group-mean/broadcast
matrix from partition_matrix.  gPool (Gao & Ji, Graph U-Nets) is a
separate layer because it gathers a data-dependent top-k subset of rows
rather than applying a fixed-shape matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError
from .tensor import Tensor, _record, matmul, relu, sigmoid

__all__ = [
    "AdaptiveGraphConvLayer", "SharedInputGraphConv", "NodeMap", "GPoolLayer",
    "partition_matrix", "uniform_init",
]


def uniform_init(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    """Uniform in +-1/sqrt(fan_in)."""
    if fan_in < 1:
        raise DomainError(f"fan_in must be positive, got {fan_in}")
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _check_node_features(x: Tensor, n: int, what: str) -> None:
    if x.ndim not in (2, 3) or x.shape[-2] != n:
        raise DimensionError(f"{what} expects {n} node rows, got shape {x.shape}")


class AdaptiveGraphConvLayer:
    """Y = act(A @ X @ W) with both the kernel A and the weights W trainable.

    A is used exactly as stored (it may go negative during training);
    normalization is an initialization-time concern only.
    """

    def __init__(self, adjacency_init: np.ndarray, in_features: int,
                 out_features: int, activation: str, rng: np.random.Generator):
        a = np.asarray(adjacency_init, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"adjacency init must be square, got {a.shape}")
        if activation not in ("relu", "linear"):
            raise DomainError(f"activation must be 'relu' or 'linear', got {activation!r}")
        self.A = Tensor(a.copy(), requires_grad=True, name="A")
        self.W = Tensor(uniform_init(rng, (in_features, out_features), in_features),
                        requires_grad=True, name="W")
        self.activation = activation
        self.n = a.shape[0]
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        y = matmul(self.A, self._product(x))
        if self.activation == "relu":
            y = relu(y)
        return y

    def _product(self, x: Tensor) -> Tensor:
        """X @ W for node features x."""
        _check_node_features(x, self.n, "graph conv")
        if x.shape[-1] != self.in_features:
            raise DimensionError(
                f"graph conv expects {self.in_features} input features, got {x.shape[-1]}"
            )
        return matmul(x, self.W)

    def parameters(self) -> dict[str, Tensor]:
        return {"A": self.A, "W": self.W}


class SharedInputGraphConv(AdaptiveGraphConvLayer):
    """act(A @ X @ W) where every node's row of X is one shared vector f
    joined with that node's own values: X = [1·f, S].

    forward takes the packed per-sample input x = [f ‖ s_1 … s_n], shaped
    (B, shared + n·own), and computes X @ W = 1·(f @ W_f) + S @ W_s, where
    W_f = W[:shared] and W_s = W[shared:], without building the
    (B, n, shared + own) rows of X.  A and W, their initialization and
    the rng draws are those of AdaptiveGraphConvLayer(adjacency_init,
    shared + own, out_features, ...), so checkpoints of either load into
    the other.
    """

    def __init__(self, adjacency_init: np.ndarray, shared: int, own: int,
                 out_features: int, activation: str, rng: np.random.Generator):
        super().__init__(adjacency_init, shared + own, out_features, activation, rng)
        self.shared = shared

    def _product(self, x: Tensor) -> Tensor:
        f_w, n, k = self.shared, self.n, self.in_features - self.shared
        if x.ndim != 2 or x.shape[1] != f_w + n * k:
            raise DimensionError(f"shared-input graph conv expects (B, {f_w + n * k}) "
                                 f"packed input, got shape {x.shape}")
        b, o = x.shape[0], self.out_features
        w = self.W.data
        f = x.data[:, :f_w]                              # (B, shared)
        s = x.data[:, f_w:].reshape(b * n, k)            # (B·n, own), a copy
        y = (s @ w[f_w:]).reshape(b, n, o)
        y += (f @ w[:f_w])[:, None, :]

        def grad_x(g):                                   # [(Σ_n g) @ W_f.T ‖ g @ W_s.T]
            out = np.empty(x.data.shape)
            np.matmul(g.sum(axis=1), w[:f_w].T, out=out[:, :f_w])
            np.matmul(g, w[f_w:].T, out=out[:, f_w:].reshape(b, n, k))
            return out

        def grad_w(g):                                   # [f.T @ Σ_n g ; S.T @ g]
            out = np.empty(w.shape)
            np.matmul(f.T, g.sum(axis=1), out=out[:f_w])
            np.matmul(s.T, g.reshape(b * n, o), out=out[f_w:])
            return out
        return _record(y, (x, grad_x), (self.W, grad_w))


class NodeMap:
    """X' = M @ X along the node axis, M shaped (n_out, n_in).

    Pooling (n_out < n_in) and unpooling (n_out > n_in) are both this
    product.  A trainable map reports its matrix under `name` from
    parameters(), which is how the U-Net's checkpoint names pool{i}.P and
    unpool{i}.U arise; a fixed map (trainable=False) has no parameters.
    """

    def __init__(self, matrix: np.ndarray, name: str, trainable: bool = True):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise DimensionError(f"node map {name} must be a matrix, got shape {m.shape}")
        self.matrix = Tensor(m.copy(), requires_grad=trainable, name=name)
        self.n_out, self.n_in = m.shape

    def forward(self, x: Tensor) -> Tensor:
        _check_node_features(x, self.n_in, "node map")
        return matmul(self.matrix, x)

    def parameters(self) -> dict[str, Tensor]:
        if not self.matrix.requires_grad:
            return {}
        return {self.matrix.name: self.matrix}


# ---- gPool baseline ------------------------------------------------------


class GPoolLayer:
    """Top-k gated pooling with a trainable projection vector p.

    Scores are y = X p / |p|; the n_out best-scoring nodes are kept in
    score-descending order (equal scores keep the lowest index first) and
    each kept row is scaled by sigmoid(score).  forward returns the pooled
    rows and the selected indices, which the decoder uses to scatter
    features back.  Accepts (n, k) or batched (B, n, k) input.
    """

    def __init__(self, n_in: int, n_out: int, features: int, rng: np.random.Generator):
        if not 0 < n_out < n_in:
            raise DimensionError(f"gpool must shrink the node count, got {n_in} -> {n_out}")
        self.p = Tensor(uniform_init(rng, (features, 1), features), requires_grad=True, name="p")
        self.n_in = n_in
        self.n_out = n_out
        self.features = features

    def forward(self, x: Tensor) -> tuple[Tensor, np.ndarray]:
        _check_node_features(x, self.n_in, "gpool")
        if x.shape[-1] != self.features:
            raise DimensionError(
                f"gpool expects {self.features} features, got {x.shape[-1]}"
            )
        squeeze = x.ndim == 2
        if squeeze:
            x = x.reshape(1, *x.shape)
        norm = (self.p * self.p).sum().sqrt()
        scores = matmul(x, self.p) / norm                        # (B, n, 1)
        flat = scores.data[..., 0]                               # (B, n)
        order = np.argsort(-flat, axis=-1, kind="stable")
        idx = order[:, :self.n_out]                              # (B, k)
        gate = sigmoid(_gather_rows_batched(scores, idx))
        pooled = _gather_rows_batched(x, idx) * gate
        if squeeze:
            pooled = pooled.reshape(self.n_out, self.features)
            idx = idx[0]
        return pooled, idx

    def parameters(self) -> dict[str, Tensor]:
        return {"p": self.p}


def _gather_rows_batched(x: Tensor, idx: np.ndarray) -> Tensor:
    """out[b, i, :] = x[b, idx[b, i], :] with gradient scatter.

    The indices in each idx[b] must be distinct: the backward pass writes
    by fancy-index assignment, which overwrites repeated rows instead of
    summing them.  Top-k selections never repeat an index.
    """
    b = np.arange(idx.shape[0])[:, None]

    def scatter(g):
        buf = np.zeros_like(x.data)
        buf[b, idx] = g
        return buf
    return _record(x.data[b, idx], (x, scatter))


def scatter_rows_batched(x: Tensor, idx: np.ndarray, num_nodes: int) -> Tensor:
    """Inverse of the batched gather: place rows at idx, zeros elsewhere.

    Same precondition as _gather_rows_batched: the indices in each idx[b]
    are distinct, or the assignment keeps only the last row written.
    """
    if x.ndim != 3:
        raise DimensionError(f"scatter expects batched (B, k, f) input, got {x.shape}")
    b = np.arange(idx.shape[0])[:, None]
    buf = np.zeros((x.shape[0], num_nodes, x.shape[2]), dtype=np.float64)
    buf[b, idx] = x.data
    return _record(buf, (x, lambda g: g[b, idx]))


# ---- constant maps for the fixed-grouping baseline ---------------------


def _validate_partition(grouping, n_in: int) -> list[list[int]]:
    groups = [list(g) for g in grouping]
    seen: set[int] = set()
    for g in groups:
        if not g:
            raise DomainError("empty group in partition")
        for i in g:
            if not (0 <= i < n_in):
                raise DomainError(f"group index {i} out of range for {n_in} nodes")
            if i in seen:
                raise DomainError(f"node {i} appears in more than one group")
            seen.add(i)
    if len(seen) != n_in:
        raise DomainError(f"partition covers {len(seen)} of {n_in} nodes")
    return groups


def partition_matrix(grouping, n_in: int, mode: str = "mean") -> np.ndarray:
    """Constant node-map matrix for a node partition.

    mode 'mean': (n_groups x n_in) row per group with 1/len(group) weights,
    the pooling map (each output node is its group's mean row).
    mode 'broadcast': its transpose pattern with unit weights, the matching
    unpooling map (each member copies its group's row).
    """
    groups = _validate_partition(grouping, n_in)
    if mode == "mean":
        m = np.zeros((len(groups), n_in))
        for gi, g in enumerate(groups):
            m[gi, g] = 1.0 / len(g)
        return m
    if mode == "broadcast":
        m = np.zeros((n_in, len(groups)))
        for gi, g in enumerate(groups):
            m[g, gi] = 1.0
        return m
    raise DomainError(f"unknown partition matrix mode {mode!r}")

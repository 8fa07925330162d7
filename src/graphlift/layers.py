"""Graph layers: adaptive graph convolution (and its shared-input form
for the refinement's first layer), the node-axis map used for pooling
and unpooling, and the gPool baseline.

All layers accept node-feature tensors shaped (n, k) or batched
(B, n, k); the node axis is always second to last.  The one exception,
SharedInputGraphConv, takes a packed (B, shared + n·own) row per sample
and returns (B, n, out) node features.  Every pooling and unpooling is
a product M @ X along the node axis.  NodeMap applies one matrix to
every sample: a trainable P or U, or a constant group-mean map from
partition_matrix and its transposed support.  gPool (Gao & Ji, Graph
U-Nets) picks a data-dependent top-k subset of rows per sample, so its
M is the one-hot selection_matrix of that subset, built anew each
forward pass; the transpose of the same matrix unpools.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError
from .tensor import Tensor, _record, matmul, relu, sigmoid

__all__ = [
    "AdaptiveGraphConvLayer", "SharedInputGraphConv", "NodeMap", "GPoolLayer",
    "partition_matrix", "prefixed", "selection_matrix", "uniform_init",
]


def uniform_init(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    """Uniform in +-1/sqrt(fan_in)."""
    if fan_in < 1:
        raise DomainError(f"fan_in must be positive, got {fan_in}")
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def prefixed(parts) -> dict[str, Tensor]:
    """The parameters of each (prefix, module) pair in turn, each named
    "prefix.name"; the one builder of every composite model's names."""
    return {f"{prefix}.{k}": v for prefix, module in parts
            for k, v in module.parameters().items()}


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
        return matmul(self.matrix, x)

    def parameters(self) -> dict[str, Tensor]:
        if not self.matrix.requires_grad:
            return {}
        return {self.matrix.name: self.matrix}


# ---- gPool baseline ------------------------------------------------------


def selection_matrix(idx: np.ndarray, n: int) -> np.ndarray:
    """One-hot rows shaped (..., k, n): out[..., i, idx[..., i]] = 1.

    S @ X gathers the rows idx of X, and S.T @ Y places the rows of Y at
    idx with zeros elsewhere.  Both are exact, since every output sums
    one term times 1 and the rest times 0, and their gradients are the
    same products, so a row picked twice collects both shares and an
    unpicked row gets exactly 0.
    """
    s = np.zeros(idx.shape + (n,))
    np.put_along_axis(s, idx[..., None], 1.0, axis=-1)
    return s


class GPoolLayer:
    """Top-k gated pooling with a trainable projection vector p.

    Scores are y = X p / |p|; the n_out best-scoring nodes are kept in
    score-descending order (equal scores keep the lowest index first) and
    each kept row is scaled by sigmoid(score): S X * sigmoid(S y) with S
    the selection_matrix of the kept indices.  forward returns the pooled
    rows and S, (..., n_out, n_in), whose transpose the decoder unpools
    with; S.argmax(-1) gives the kept indices.  Accepts (n, k) or (B, n, k).
    """

    def __init__(self, n_in: int, n_out: int, features: int, rng: np.random.Generator):
        if not 0 < n_out < n_in:
            raise DimensionError(f"gpool must shrink the node count, got {n_in} -> {n_out}")
        self.p = Tensor(uniform_init(rng, (features, 1), features), requires_grad=True, name="p")
        self.n_in = n_in
        self.n_out = n_out

    def forward(self, x: Tensor) -> tuple[Tensor, np.ndarray]:
        if x.ndim not in (2, 3) or x.shape[-2] != self.n_in:
            raise DimensionError(f"gpool expects {self.n_in} node rows, got shape {x.shape}")
        norm = (self.p * self.p).sum().sqrt()
        scores = matmul(x, self.p) / norm                        # (..., n, 1)
        order = np.argsort(-scores.data[..., 0], axis=-1, kind="stable")
        idx = order[..., :self.n_out]                            # (..., k)
        s = Tensor(selection_matrix(idx, self.n_in))
        return matmul(s, x) * sigmoid(matmul(s, scores)), s.data

    def parameters(self) -> dict[str, Tensor]:
        return {"p": self.p}


# ---- constant maps for the fixed-grouping baseline ---------------------


def partition_matrix(grouping, n_in: int) -> np.ndarray:
    """The group-mean pooling map of a node partition, (n_groups x n_in):
    row g holds 1/len(group g) at the group's members, so output node g
    is its group's mean row.  Its support transposed, (M.T > 0) * 1.0, is
    the matching unpooling map: each member copies its group's row.

    The grouping is not checked; the program builds these maps only from
    keypoints.FIXED_POOL_GROUPS, whose tests check they are partitions.
    """
    m = np.zeros((len(grouping), n_in))
    for gi, g in enumerate(grouping):
        m[gi, list(g)] = 1.0 / len(g)
    return m

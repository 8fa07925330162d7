"""The graph U-Net: encoder convs with pooling, a bottleneck conv, and a
decoder that unpools, concatenates the matching encoder skip features,
and convolves back up to the full node count.

Input is 29 nodes x 2 pixel coordinates, output 29 nodes x 3 millimeter
coordinates.  Raw pixels and millimeters are poor numeric ranges for
unit-scale weights, so the model applies fixed affine constants: inputs
are mapped to (x - PIXEL_CENTER) / PIXEL_SCALE, roughly [-2, 2], and the
final features are multiplied by MM_SCALE.  A constant all-ones column is
appended to the normalized input: the graph layers carry no bias terms,
and without some constant channel a ReLU stack is positively homogeneous
in its input, which would forbid the inverse relation between 2D spread
and depth that the lift has to learn.  All of these are architecture
constants, not trainable, and the all-zero-parameter model still outputs
exactly zero.  The cascade and the baselines read the same constants.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .adjacency import ADJACENCY_INIT_VARIANTS, initial_adjacency
from .errors import CheckpointFormatError, DimensionError, DomainError
from .keypoints import FIXED_POOL_GROUPS, NODE_SCHEDULE, NUM_NODES
from .layers import (AdaptiveGraphConvLayer, GPoolLayer, NodeMap, partition_matrix,
                     prefixed, uniform_init)
from .tensor import Tensor, concat_features, matmul

__all__ = ["UNetConfig", "GraphUNetModel", "lift_input", "without_constants",
           "POOLING_VARIANTS", "PIXEL_CENTER", "PIXEL_SCALE", "MM_SCALE"]

POOLING_VARIANTS = ("trainable", "gpool", "fixed")

PIXEL_CENTER = 320.0   # px: pixel coordinates map to (x - PIXEL_CENTER) / PIXEL_SCALE
PIXEL_SCALE = 160.0    # px per unit of every normalized 2D input and 2D output
MM_SCALE = 250.0       # mm per unit of the 3D output


def without_constants(d: dict, constants: dict) -> dict:
    """A manifest's config dict less the keys that earlier releases stored
    for today's constants; a model trained under another value predicts wrongly."""
    d = dict(d)   # TypeError or ValueError if the config is not an object
    for key, value in constants.items():
        if d.get(key, value) != value:
            raise CheckpointFormatError(
                f"checkpoint config key {key!r} is {d[key]!r}; only {value!r} is supported")
    return {k: v for k, v in d.items() if k not in constants}


@dataclass(frozen=True)
class UNetConfig:
    feature_schedule: tuple = (64, 128, 256, 512)
    pooling: str = "trainable"
    adjacency_init: str = "identity"

    def __post_init__(self):
        fs = tuple(int(f) for f in self.feature_schedule)
        object.__setattr__(self, "feature_schedule", fs)
        if len(fs) != len(NODE_SCHEDULE):
            raise DomainError("feature schedule must have one width per node level")
        if any(f < 1 for f in fs):
            raise DomainError("feature widths must be positive")
        if self.pooling not in POOLING_VARIANTS:
            raise DomainError(f"pooling must be one of {POOLING_VARIANTS}, got {self.pooling!r}")
        if self.adjacency_init not in ADJACENCY_INIT_VARIANTS:
            raise DomainError(f"adjacency_init must be one of {ADJACENCY_INIT_VARIANTS}, "
                              f"got {self.adjacency_init!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "UNetConfig":
        return cls(**without_constants(d, {
            "node_schedule": list(NODE_SCHEDULE), "in_features": 2, "out_features": 3,
            "input_center": PIXEL_CENTER, "input_scale": PIXEL_SCALE,
            "output_scale": MM_SCALE}))


def lift_input(coords2d) -> Tensor:
    """(B, 29, 2) pixels -> (B, 29, 3): (x - PIXEL_CENTER) / PIXEL_SCALE with
    the constant ones column appended, the input map of every lift model."""
    x = coords2d if isinstance(coords2d, Tensor) else Tensor(coords2d)
    if x.ndim != 3 or x.shape[1:] != (NUM_NODES, 2):
        raise DimensionError(f"expected (B, {NUM_NODES}, 2) inputs, got {x.shape}")
    ones = Tensor(np.ones((x.shape[0], NUM_NODES, 1)))
    return concat_features([(x - PIXEL_CENTER) * (1.0 / PIXEL_SCALE), ones])


class GraphUNetModel:
    """Encoder/decoder graph network over a fixed node schedule."""

    def __init__(self, config: UNetConfig = UNetConfig(), seed: int = 0):
        self.config = config
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        ns, fs = NODE_SCHEDULE, config.feature_schedule
        levels = len(ns) - 1   # number of pool/unpool pairs

        def adj(n):
            return initial_adjacency(config.adjacency_init, n, rng)

        self.enc_convs = []
        self.pools = []
        for i in range(levels):
            # lift_input's 2 normalized coordinates and its constant ones column
            in_w = 3 if i == 0 else fs[i - 1]
            self.enc_convs.append(AdaptiveGraphConvLayer(adj(ns[i]), in_w, fs[i],
                                                         "relu", rng))
            self.pools.append(self._make_pool(ns[i], ns[i + 1], fs[i], rng))
        self.bottleneck = AdaptiveGraphConvLayer(adj(ns[-1]), fs[-2], fs[-1], "relu", rng)
        self.unpools = []
        self.dec_convs = []
        for i in reversed(range(levels)):
            self.unpools.append(self._make_unpool(self.pools[i], rng))
            self.dec_convs.append(AdaptiveGraphConvLayer(adj(ns[i]), fs[i] + fs[i + 1],
                                                         fs[i], "relu", rng))
        self.final = AdaptiveGraphConvLayer(adj(ns[0]), fs[0], 3, "linear", rng)
        if config.adjacency_init == "zeros":
            # the zero-kernel study zeroes every trainable matrix, not just A;
            # gPool projections stay put (a zero projection has no score scale)
            for name, p in self.parameters().items():
                if not name.endswith(".p"):
                    p.data[...] = 0.0

    def _make_pool(self, n_in, n_out, width, rng):
        if self.config.pooling == "trainable":
            return NodeMap(uniform_init(rng, (n_out, n_in), n_in), "P")
        if self.config.pooling == "gpool":
            return GPoolLayer(n_in, n_out, width, rng)
        return NodeMap(partition_matrix(FIXED_POOL_GROUPS[(n_in, n_out)], n_in), "P",
                       trainable=False)

    def _make_unpool(self, pool, rng):
        """The map back up through `pool`, from its n_out nodes to its n_in."""
        if self.config.pooling == "trainable":
            return NodeMap(uniform_init(rng, (pool.n_in, pool.n_out), pool.n_out), "U")
        if self.config.pooling == "gpool":
            return None   # decoder unpools with the transposed selection matrix
        return NodeMap((pool.matrix.data.T > 0) * 1.0, "U", trainable=False)

    def forward(self, coords2d) -> Tensor:
        """Lift (B, 29, 2) pixel keypoints to (B, 29, 3) millimeters."""
        gpool = self.config.pooling == "gpool"
        h = lift_input(coords2d)
        skips, selections = [], {}
        levels = len(NODE_SCHEDULE) - 1
        for i in range(levels):
            h = self.enc_convs[i].forward(h)
            skips.append(h)
            if gpool:
                h, selections[i] = self.pools[i].forward(h)
            else:
                h = self.pools[i].forward(h)
        h = self.bottleneck.forward(h)
        for j in range(levels):
            lvl = levels - 1 - j
            if gpool:
                h = matmul(Tensor(np.swapaxes(selections[lvl], -1, -2)), h)
            else:
                h = self.unpools[j].forward(h)
            h = concat_features([skips[lvl], h])
            h = self.dec_convs[j].forward(h)
        return self.final.forward(h) * MM_SCALE

    def parameters(self) -> dict[str, Tensor]:
        parts = []
        for i, (conv, pool) in enumerate(zip(self.enc_convs, self.pools)):
            parts += [(f"enc{i}", conv), (f"pool{i}", pool)]
        parts.append(("bottleneck", self.bottleneck))
        # the decoder runs from the deepest level up; gPool has no unpool layers
        for lvl, up, conv in zip(reversed(range(len(self.pools))), self.unpools, self.dec_convs):
            if up is not None:
                parts.append((f"unpool{lvl}", up))
            parts.append((f"dec{lvl}", conv))
        return prefixed(parts + [("final", self.final)])

    def config_dict(self) -> dict:
        return {"kind": "unet", "seed": self.seed, "unet": asdict(self.config)}

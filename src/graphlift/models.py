"""Baseline architectures for the ablation studies, plus checkpoint
save/load for every model kind.

The FC baseline is a 3-layer dense network over the flattened 58-long
coordinate vector.  The plain GCN baseline is three graph convolutions
over the fixed, renormalized skeleton adjacency (weights train, the
graph does not).  Both share the U-Net's input normalization, appended
constant column, and output scale so architecture is the only variable.
"""

from __future__ import annotations

import numpy as np

from .adjacency import normalize_adjacency
from .checkpoint import load_state, save_checkpoint
from .errors import CheckpointFormatError, DimensionError, DomainError
from .keypoints import NUM_NODES, skeleton_adjacency
from .layers import uniform_init
from .pipeline import HopePipeline, PipelineConfig
from .tensor import Tensor, matmul, relu
from .unet import GraphUNetModel, UNetConfig, lift_input

__all__ = ["FcBaselineModel", "PlainGcnModel", "save_model", "load_model"]


class _LiftModelBase:
    """Shared plumbing for (B, 29, 2) -> (B, 29, 3) models."""

    input_center = 320.0
    input_scale = 160.0
    output_scale = 250.0

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters().values())


class FcBaselineModel(_LiftModelBase):
    """Dense 3-layer lift over the flattened coordinate vector."""

    def __init__(self, hidden: tuple = (256, 256), seed: int = 0):
        self.hidden = tuple(int(h) for h in hidden)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        # input width: 29 nodes x (2 coords + 1 constant), flattened
        widths = [NUM_NODES * 3] + list(self.hidden) + [NUM_NODES * 3]
        self.weights = []
        for i, (a, b) in enumerate(zip(widths, widths[1:])):
            self.weights.append(Tensor(uniform_init(rng, (a, b), a),
                                       requires_grad=True, name=f"fc{i}.W"))

    def forward(self, coords2d) -> Tensor:
        h = lift_input(coords2d, self.input_center, self.input_scale)
        h = h.reshape(h.shape[0], NUM_NODES * 3)
        for w in self.weights[:-1]:
            h = relu(matmul(h, w))
        y = matmul(h, self.weights[-1]).reshape(h.shape[0], NUM_NODES, 3)
        return y * self.output_scale

    def parameters(self) -> dict[str, Tensor]:
        return {w.name: w for w in self.weights}

    def config_dict(self) -> dict:
        return {"kind": "fc", "seed": self.seed, "fc": {"hidden": list(self.hidden)}}


class PlainGcnModel(_LiftModelBase):
    """Three graph convolutions over the fixed renormalized skeleton."""

    def __init__(self, hidden: tuple = (128, 128), seed: int = 0):
        self.hidden = tuple(int(h) for h in hidden)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.adjacency = Tensor(normalize_adjacency(skeleton_adjacency()))
        widths = [3] + list(self.hidden) + [3]
        self.weights = []
        for i, (a, b) in enumerate(zip(widths, widths[1:])):
            self.weights.append(Tensor(uniform_init(rng, (a, b), a),
                                       requires_grad=True, name=f"conv{i}.W"))

    def forward(self, coords2d) -> Tensor:
        h = lift_input(coords2d, self.input_center, self.input_scale)
        last = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            h = matmul(self.adjacency, matmul(h, w))
            if i < last:
                h = relu(h)
        return h * self.output_scale

    def parameters(self) -> dict[str, Tensor]:
        return {w.name: w for w in self.weights}

    def config_dict(self) -> dict:
        return {"kind": "gcn", "seed": self.seed, "gcn": {"hidden": list(self.hidden)}}


def save_model(base: str, model) -> None:
    save_checkpoint(base, model.parameters(), model.config_dict())


def _build(config: dict):
    """A freshly initialized model of the kind and config a checkpoint names."""
    kind = config.get("kind")
    try:
        seed = int(config.get("seed", 0))
        if kind == "unet":
            return GraphUNetModel(UNetConfig(**config["unet"]), seed=seed)
        if kind == "pipeline":
            return HopePipeline(PipelineConfig.from_dict(config["pipeline"]), seed=seed)
        if kind == "fc":
            return FcBaselineModel(tuple(config["fc"]["hidden"]), seed=seed)
        if kind == "gcn":
            return PlainGcnModel(tuple(config["gcn"]["hidden"]), seed=seed)
    except (KeyError, TypeError, ValueError, DomainError) as e:
        raise CheckpointFormatError(f"checkpoint config is malformed: {e}")
    raise CheckpointFormatError(f"checkpoint has unknown model kind {kind!r}")


def load_model(base: str):
    """Rebuild a model of the checkpointed kind and read its parameters
    into it; the loaded values are never held beside a second copy."""
    try:
        return load_state(base, _build)
    except DimensionError as e:
        raise CheckpointFormatError(f"checkpoint parameters do not fit its config: {e}")

"""The full 2D-to-3D cascade: a stub feature encoder standing in for an
image backbone, a 3-layer adaptive graph network that refines the initial
2D estimate, and the graph U-Net that lifts 2D to 3D.

The stub rasterizes the sample's ground-truth 2D keypoints onto a 32x32
occupancy grid and applies trainable linear maps: grid -> 2048 features
-> 29x2 initial coordinates.  It keeps the cascade end-to-end trainable
without any image data.  Refinement consumes 2050-wide node features:
the same 2048 image features at every node plus that node's initial 2D
estimate.  Its first layer takes them packed per sample,
[features ‖ s_1 … s_29] of width 2048 + 29·2, and never builds the
(B, 29, 2050) rows (layers.SharedInputGraphConv).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import DimensionError, DomainError
from .layers import AdaptiveGraphConvLayer, SharedInputGraphConv, uniform_init
from .keypoints import NUM_NODES
from .tensor import Tensor, concat_features, matmul, mse
from .unet import GraphUNetModel, UNetConfig

__all__ = [
    "PipelineConfig", "HopeLossWeights", "StubFeatureProvider", "RefineNet",
    "HopePipeline", "hope_loss_terms", "rasterize_keypoints",
]


@dataclass(frozen=True)
class HopeLossWeights:
    alpha: float = 0.1
    beta: float = 0.1

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise DomainError("loss weights must be non-negative")


@dataclass(frozen=True)
class PipelineConfig:
    unet: UNetConfig = field(default_factory=UNetConfig)
    feature_width: int = 2048
    refine_widths: tuple = (512, 128)
    raster_grid: int = 32
    image_size: float = 640.0
    input_center: float = 320.0
    input_scale: float = 160.0
    stub_output_scale: float = 160.0
    refine_output_scale: float = 160.0

    def __post_init__(self):
        object.__setattr__(self, "refine_widths", tuple(int(w) for w in self.refine_widths))
        if self.feature_width < 1 or self.raster_grid < 1:
            raise DomainError("feature width and raster grid must be positive")
        if any(w < 1 for w in self.refine_widths):
            raise DomainError("refine widths must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        return cls(**{**d, "unet": UNetConfig(**d["unet"])})


def rasterize_keypoints(coords2d, grid: int = 32, image_size: float = 640.0) -> np.ndarray:
    """Binary occupancy grid, flattened row-major: (B, grid*grid).

    Keypoints are binned at image_size/grid pixels per cell; coordinates
    outside the image clamp to the border cells.
    """
    pts = np.asarray(coords2d, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[-1] != 2:
        raise DimensionError(f"expected (B, N, 2) keypoints, got {pts.shape}")
    cell = image_size / grid
    cols = np.clip((pts[..., 0] // cell).astype(np.intp), 0, grid - 1)
    rows = np.clip((pts[..., 1] // cell).astype(np.intp), 0, grid - 1)
    flat = rows * grid + cols                       # (B, N)
    out = np.zeros((pts.shape[0], grid * grid))
    b = np.repeat(np.arange(pts.shape[0]), pts.shape[1])
    out[b, flat.reshape(-1)] = 1.0
    return out


class StubFeatureProvider:
    """Maps a batch of samples to features plus initial 29x2 estimates by
    trainable linear maps over a keypoint raster: grid cells -> features
    -> initial 2D head (with a bias so the head can shift to image scale)."""

    def __init__(self, config: PipelineConfig, rng: np.random.Generator):
        g2 = config.raster_grid * config.raster_grid
        self.config = config
        self.W1 = Tensor(uniform_init(rng, (g2, config.feature_width), g2),
                         requires_grad=True, name="W1")
        self.W2 = Tensor(uniform_init(rng, (config.feature_width, NUM_NODES * 2),
                                      config.feature_width),
                         requires_grad=True, name="W2")
        self.b2 = Tensor(np.zeros(NUM_NODES * 2), requires_grad=True, name="b2")

    def encode_batch(self, coords2d_batch) -> tuple[Tensor, Tensor]:
        """(B, 29, 2) ground-truth pixels -> features (B, 2048), init2d (B, 29, 2)."""
        raster = rasterize_keypoints(coords2d_batch, self.config.raster_grid,
                                     self.config.image_size)
        features = matmul(Tensor(raster), self.W1)
        head = matmul(features, self.W2) + self.b2
        init2d = head.reshape(head.shape[0], NUM_NODES, 2) * self.config.stub_output_scale
        return features, init2d

    def parameters(self) -> dict[str, Tensor]:
        return {"W1": self.W1, "W2": self.W2, "b2": self.b2}


class RefineNet:
    """Three adaptive graph conv layers over 2050-wide node features
    (the 2048 image features shared by every node + that node's 2D
    estimate), returning refined 2D coordinates.  First two layers ReLU,
    the last linear.

    The first layer is a SharedInputGraphConv: it receives each sample's
    features and its 29 scaled estimates packed into one (B, 2048 + 58)
    row and computes the node features' product with its W by parts.
    Every layer's forward takes one Tensor, the previous layer's output.
    """

    def __init__(self, config: PipelineConfig, rng: np.random.Generator):
        self.config = config
        w0, w1 = config.refine_widths
        eye = np.eye(NUM_NODES)
        self.layers = [
            SharedInputGraphConv(eye, config.feature_width, 2, w0, "relu", rng),
            AdaptiveGraphConvLayer(eye, w0, w1, "relu", rng),
            AdaptiveGraphConvLayer(eye, w1, 2, "linear", rng),
        ]

    def forward(self, features: Tensor, init2d: Tensor) -> Tensor:
        """(B, feature_width) features and (B, 29, 2) estimates -> (B, 29, 2) pixels."""
        cfg = self.config
        if features.ndim != 2 or features.shape[-1] != cfg.feature_width:
            raise DimensionError(
                f"expected (B, {cfg.feature_width}) image features, got {features.shape}"
            )
        if init2d.ndim != 3 or init2d.shape[1:] != (NUM_NODES, 2):
            raise DimensionError(f"expected (B, {NUM_NODES}, 2) estimates, got {init2d.shape}")
        scaled = (init2d - cfg.input_center) * (1.0 / cfg.input_scale)
        h = concat_features([features, scaled.reshape(init2d.shape[0], NUM_NODES * 2)])
        for layer in self.layers:
            h = layer.forward(h)
        return h * cfg.refine_output_scale

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for k, v in layer.parameters().items():
                out[f"conv{i}.{k}"] = v
        return out


class HopePipeline:
    """stub -> 2D refinement -> graph U-Net, with named parameter groups for
    staged training."""

    def __init__(self, config: PipelineConfig = PipelineConfig(), seed: int = 0):
        self.config = config
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.stub = StubFeatureProvider(config, rng)
        self.refine = RefineNet(config, rng)
        self.unet = GraphUNetModel(config.unet, seed=int(rng.integers(0, 2**31 - 1)))

    def forward_batch(self, coords2d_batch) -> tuple[Tensor, Tensor, Tensor]:
        features, init2d = self.stub.encode_batch(coords2d_batch)
        refined = self.refine.forward(features, init2d)
        pred3d = self.unet.forward(refined)
        return init2d, refined, pred3d

    def stub_refine_parameters(self) -> dict[str, Tensor]:
        out = {f"stub.{k}": v for k, v in self.stub.parameters().items()}
        out.update({f"refine.{k}": v for k, v in self.refine.parameters().items()})
        return out

    def parameters(self) -> dict[str, Tensor]:
        out = self.stub_refine_parameters()
        out.update({f"unet.{k}": v for k, v in self.unet.parameters().items()})
        return out

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters().values())

    def config_dict(self) -> dict:
        return {"kind": "pipeline", "seed": self.seed, "pipeline": asdict(self.config)}


def hope_loss_terms(init2d, refined2d, pred3d, gt2d, gt3d,
                    weights: HopeLossWeights = HopeLossWeights()):
    """The three MSE terms and their weighted total (a scalar Tensor).

    2D terms are pixels squared, the 3D term millimeters squared; the
    weights pull them into a similar range.
    """
    l_init = mse(init2d, gt2d)
    l_2d = mse(refined2d, gt2d)
    l_3d = mse(pred3d, gt3d)
    total = l_init * weights.alpha + l_2d * weights.beta + l_3d
    return total, l_init, l_2d, l_3d

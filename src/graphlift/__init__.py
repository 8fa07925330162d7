"""graphlift: lifting 2D hand-object keypoints to 3D with an adaptive
graph U-Net, from-scratch autodiff included.

The public surface re-exports the pieces most callers need; each module
keeps the full detail (tensor autodiff, graph layers, the U-Net, the
stub-encoder cascade, synthetic data, metrics, training, ablations).
"""

from .errors import (
    GraphLiftError, UsageError, DimensionError, DomainError, NumericError,
    TrainingDiverged, DegenerateGeometryError, DatasetFormatError,
    CheckpointFormatError,
)
from .tensor import Tensor, matmul, relu, sigmoid, concat_features, mse
from .optim import SgdSchedule, SGD, Adam
from .gradcheck import GradCheckReport, grad_check
from .checkpoint import save_checkpoint, load_checkpoint, load_state
from .keypoints import (
    NUM_HAND_NODES, NUM_OBJECT_NODES, NUM_NODES, KeypointGraph, default_graph,
)
from .adjacency import normalize_adjacency, initial_adjacency, ADJACENCY_INIT_VARIANTS
from .layers import AdaptiveGraphConvLayer, NodeMap, GPoolLayer, partition_matrix
from .unet import (
    UNetConfig, GraphUNetModel, build_default_unet,
    DEFAULT_UNET_PARAM_COUNT, POOLING_VARIANTS,
)
from .hand import HandPoseParams, forward_kinematics
from .synth import (
    Camera, SampleRecord, GraspSpec, obb_from_points, project, add_noise,
    generate_sample, generate_dataset, save_dataset, load_dataset,
)
from .pipeline import (
    HopeLossWeights, PipelineConfig, StubFeatureProvider, RefineNet,
    HopePipeline, hope_loss, hope_loss_terms, predict,
)
from .training import (
    TrainConfig, TrainingLog, train, train_unet_stage2, stage_schedule,
    eval_unet_mean_error, eval_pipeline_errors,
)
from .metrics import PcpCurve, pcp, pcp_curve, auc, per_joint_errors
from .models import FcBaselineModel, PlainGcnModel, save_model, load_model
from .ablation import AblationConfig, AblationRun, run_ablation, SUITES

__version__ = "0.1.0"

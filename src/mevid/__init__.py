"""Multi-entity video representation learning at desk scale.

Learnable query embeddings cross-attend over frozen per-frame spatial
token grids to extract entity features; a small transformer fuses all
entities of all frames; frozen per-frame embeddings are scored on phase
classification, phase progression, rank correlation of frame matches,
and fine-grained retrieval.
"""

__version__ = "0.1.0"

from .features import (
    SyntheticSpec,
    VideoFeatures,
    generate_synthetic_dataset,
    load_mvff,
    select_layers,
    write_mvff,
)
from .model import Model, ModelConfig, save_checkpoint
from .tensor import Parameter, Tape, Tensor, grad_check
from .training import TrainConfig, sample_two_views, sequence_contrastive_loss, train

__all__ = [
    "Model",
    "ModelConfig",
    "Parameter",
    "SyntheticSpec",
    "Tape",
    "Tensor",
    "TrainConfig",
    "VideoFeatures",
    "generate_synthetic_dataset",
    "grad_check",
    "load_mvff",
    "sample_two_views",
    "save_checkpoint",
    "select_layers",
    "sequence_contrastive_loss",
    "train",
    "write_mvff",
]

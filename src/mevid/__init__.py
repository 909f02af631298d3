"""Multi-entity video representation learning at desk scale.

Learnable query embeddings cross-attend over frozen per-frame spatial
token grids to extract entity features; a small transformer fuses all
entities of all frames; frozen per-frame embeddings are scored on phase
classification, phase progression, rank correlation of frame matches,
and fine-grained retrieval.
"""

__version__ = "0.1.0"

"""Learnable spatial token pooling.

A fixed set of learnable query embeddings cross-attends over each frame's
spatial token grid, producing one feature vector per entity per frame.
Queries are shared across frames and videos, so entity index e means the
same thing everywhere. Each backbone layer gets its own queries and
key/value projections; per-layer entity features are concatenated and
mapped to the model width by one output projection.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .features import atomic_open
from .tensor import Parameter, Tensor

if TYPE_CHECKING:
    from .model import ModelConfig

# Pooling scores are q k^T * POOL_SCORE_SCALE / sqrt(d_q). Sharper than a
# transformer's 1 / sqrt(d_q), so that each query settles on one region
# of the frame; at 1 / sqrt(d_q), whether an entity found the actor
# depended on the rounding of the training run.
POOL_SCORE_SCALE = 4.0


def init_pooling_params(rng: np.random.Generator,
                        config: ModelConfig) -> dict[str, Parameter]:
    """Fan-in scaled Gaussian init; queries start non-saturating.

    Per selected layer l: `pool.layer{l}.queries` [E, d_q], `.key_proj`
    [D, d_q] and `.value_proj` [D, d_v]; then the shared `pool.out_proj`
    [L * d_v, d_model].
    """
    num_layers, channels = len(config.layer_select), config.channels
    query_dim, value_dim = config.query_dim, config.value_dim
    params = []
    for l in range(num_layers):
        params += [
            Parameter(f"pool.layer{l}.queries",
                      rng.standard_normal((config.entities, query_dim)) / math.sqrt(query_dim)),
            Parameter(f"pool.layer{l}.key_proj",
                      rng.standard_normal((channels, query_dim)) / math.sqrt(channels)),
            Parameter(f"pool.layer{l}.value_proj",
                      rng.standard_normal((channels, value_dim)) / math.sqrt(channels)),
        ]
    params.append(Parameter(
        "pool.out_proj",
        rng.standard_normal((num_layers * value_dim, config.model_dim))
        / math.sqrt(num_layers * value_dim),
    ))
    return {p.name: p for p in params}


def extract_entities_from_arrays(
        layers: list[np.ndarray],
        params: dict[str, Parameter]) -> tuple[Tensor, list[np.ndarray]]:
    """Cross-attend learnable queries over each layer's [B, T, S, D] token
    grids: B sequences of T frames, all frames pooled alike.

    Returns the entity tokens and the attention that produced them. The
    tokens are a [B, T*E, d_model] tensor, frame-major within each
    sequence (frame t, entity e lives at row t*E + e), and stay connected
    to the graph. The maps are one [B*T, E, S] row-stochastic array per
    layer, frame-major over the sequences, off the graph; with one
    sequence, row t is frame t.
    """
    num_layers = sum(1 for name in params if name.endswith(".queries"))
    if len(layers) != num_layers:
        raise ValueError(
            f"features have {len(layers)} layers, params expect {num_layers}"
        )
    if layers[0].ndim != 4:
        raise ValueError(f"expected [B, T, S, D] token grids, got shape {layers[0].shape}")
    channels = params["pool.layer0.key_proj"].shape[0]
    if layers[0].shape[3] != channels:
        raise ValueError(
            f"feature channels {layers[0].shape[3]} do not match "
            f"projection rows {channels}"
        )
    b, t, s, _ = layers[0].shape
    e, query_dim = params["pool.layer0.queries"].shape
    out_proj = params["pool.out_proj"]

    score_scale = POOL_SCORE_SCALE / math.sqrt(query_dim)
    per_layer, maps = [], []
    for l in range(num_layers):
        pre = f"pool.layer{l}."
        x = Tensor(layers[l].reshape(b * t, s, channels), dtype=out_proj.dtype)  # [B*T, S, D]
        # q k^T = (q W_k^T) x^T and weights v = (weights x) W_v: the
        # projections act on E queries and mixes, never on the S tokens
        query_keys = T.matmul(params[pre + "queries"],
                              T.swap_last(params[pre + "key_proj"]))  # [E, D]
        mixed, attn = T.scaled_dot_attention(query_keys, x, x, score_scale=score_scale)
        per_layer.append(T.matmul(mixed, params[pre + "value_proj"]))  # [B*T, E, d_v]
        maps.append(attn)                                               # [B*T, E, S]

    stacked = per_layer[0] if len(per_layer) == 1 else T.concat(per_layer, axis=2)
    flat = T.reshape(stacked, (b, t * e, stacked.shape[2]))
    return T.matmul(flat, out_proj), maps                        # [B, T*E, d_model]


# ---------------------------------------------------------------------------
# attention map export


def export_attention(values: np.ndarray, path) -> None:
    """Write a [G, G] map as a binary PGM (P5, maxval 255), min-max
    normalized to [0, 255] in float64.

    A constant map has no range to stretch; it renders as mid-gray 128.
    """
    v = np.asarray(values, dtype=np.float64)
    rows, cols = v.shape
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        pixels = np.full(v.shape, 128, dtype=np.uint8)
    else:
        pixels = np.round((v - lo) / (hi - lo) * 255.0).astype(np.uint8)
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    with atomic_open(path) as fh:
        fh.write(header + pixels.tobytes())

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
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Parameter, Tensor


def init_pooling_params(
    rng: np.random.Generator,
    num_layers: int,
    channels: int,
    num_entities: int,
    query_dim: int,
    value_dim: int,
    model_dim: int,
) -> dict[str, Parameter]:
    """Fan-in scaled Gaussian init; queries start non-saturating.

    Per layer l: `pool.layer{l}.queries` [E, d_q], `.key_proj` [D, d_q]
    and `.value_proj` [D, d_v]; then the shared `pool.out_proj`
    [L * d_v, d_model].
    """
    if num_entities < 1:
        raise ValueError(f"need at least one entity, got {num_entities}")
    params = []
    for l in range(num_layers):
        params += [
            Parameter(f"pool.layer{l}.queries",
                      rng.standard_normal((num_entities, query_dim)) / math.sqrt(query_dim)),
            Parameter(f"pool.layer{l}.key_proj",
                      rng.standard_normal((channels, query_dim)) / math.sqrt(channels)),
            Parameter(f"pool.layer{l}.value_proj",
                      rng.standard_normal((channels, value_dim)) / math.sqrt(channels)),
        ]
    params.append(Parameter(
        "pool.out_proj",
        rng.standard_normal((num_layers * value_dim, model_dim))
        / math.sqrt(num_layers * value_dim),
    ))
    return {p.name: p for p in params}


@dataclass
class EntitySet:
    """Per-frame entity features of B sequences, with the attention that
    produced them.

    `features` is a [B, T*E, d_model] tensor, frame-major within each
    sequence (frame t, entity e lives at row t*E + e), and stays connected
    to the graph. `attention` holds one [B*T, E, S] row-stochastic tensor
    per layer, frame-major over the sequences; with one sequence, row t is
    frame t.
    """

    features: Tensor
    num_frames: int
    num_entities: int
    attention: list[Tensor]


def extract_entities_from_arrays(layers: list[np.ndarray],
                                 params: dict[str, Parameter]) -> EntitySet:
    """Cross-attend learnable queries over each layer's [B, T, S, D] token
    grids: B sequences of T frames, all frames pooled alike."""
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
    e, d_q = params["pool.layer0.queries"].shape
    out_proj = params["pool.out_proj"]

    per_layer, maps = [], []
    for l in range(num_layers):
        pre = f"pool.layer{l}."
        x = Tensor(layers[l].reshape(b * t, s, channels), dtype=out_proj.dtype)  # [B*T, S, D]
        k = T.matmul(x, params[pre + "key_proj"], sequences=b)    # [B*T, S, d_q]
        v = T.matmul(x, params[pre + "value_proj"], sequences=b)  # [B*T, S, d_v]
        scores = T.matmul(params[pre + "queries"], T.swap_last(k),
                          sequences=b)                            # [B*T, E, S]
        attn = T.softmax(T.scale(scores, 1.0 / math.sqrt(d_q)), axis=2)
        per_layer.append(T.matmul(attn, v, high_precision=True))  # [B*T, E, d_v]
        maps.append(attn)

    stacked = per_layer[0] if len(per_layer) == 1 else T.concat(per_layer, axis=2)
    flat = T.reshape(stacked, (b, t * e, stacked.shape[2]))
    out = T.matmul(flat, out_proj)                               # [B, T*E, d_model]
    return EntitySet(features=out, num_frames=t, num_entities=e, attention=maps)


# ---------------------------------------------------------------------------
# attention map export


@dataclass
class AttentionMap:
    """One entity's spatial attention over a square token grid."""

    grid_side: int
    values: np.ndarray  # [G, G], nonnegative, sums to 1

    def __post_init__(self):
        g = self.grid_side
        if self.values.shape != (g, g):
            raise ValueError(f"expected {g}x{g} map, got {self.values.shape}")
        if self.values.min() < 0 or abs(float(self.values.sum()) - 1.0) > 1e-5:
            raise ValueError("attention map must be nonnegative and sum to 1")


def attention_map(entities: EntitySet, frame: int, entity: int, layer: int,
                  grid_side: int) -> AttentionMap:
    row = entities.attention[layer].data[frame, entity]
    return AttentionMap(grid_side, row.reshape(grid_side, grid_side).astype(np.float64))


def export_attention(amap: AttentionMap, path) -> None:
    """Write a binary PGM (P5, maxval 255), min-max normalized to [0, 255].

    A constant map has no range to stretch; it renders as mid-gray 128.
    """
    v = amap.values
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        pixels = np.full(v.shape, 128, dtype=np.uint8)
    else:
        pixels = np.round((v - lo) / (hi - lo) * 255.0).astype(np.uint8)
    header = f"P5\n{amap.grid_side} {amap.grid_side}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pixels.tobytes())

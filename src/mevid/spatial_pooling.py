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


@dataclass
class PoolingParams:
    """Per-layer queries and projections plus the shared output map."""

    queries: list[Parameter]       # [E, d_q] per layer
    key_proj: list[Parameter]      # [D, d_q] per layer
    value_proj: list[Parameter]    # [D, d_v] per layer
    out_proj: Parameter            # [L * d_v, d_model]

    @property
    def num_entities(self) -> int:
        return self.queries[0].shape[0]

    @property
    def num_layers(self) -> int:
        return len(self.queries)

    @property
    def channels(self) -> int:
        return self.key_proj[0].shape[0]

    @property
    def dtype(self):
        return self.out_proj.dtype

    def named(self) -> dict[str, Parameter]:
        out = {}
        for l in range(self.num_layers):
            out[f"pool.layer{l}.queries"] = self.queries[l]
            out[f"pool.layer{l}.key_proj"] = self.key_proj[l]
            out[f"pool.layer{l}.value_proj"] = self.value_proj[l]
        out["pool.out_proj"] = self.out_proj
        return out


def init_pooling_params(
    rng: np.random.Generator,
    num_layers: int,
    channels: int,
    num_entities: int,
    query_dim: int,
    value_dim: int,
    model_dim: int,
) -> PoolingParams:
    """Fan-in scaled Gaussian init; queries start non-saturating."""
    if num_entities < 1:
        raise ValueError(f"need at least one entity, got {num_entities}")
    queries, keys, values = [], [], []
    for l in range(num_layers):
        queries.append(Parameter(
            f"pool.layer{l}.queries",
            rng.standard_normal((num_entities, query_dim)) / math.sqrt(query_dim),
        ))
        keys.append(Parameter(
            f"pool.layer{l}.key_proj",
            rng.standard_normal((channels, query_dim)) / math.sqrt(channels),
        ))
        values.append(Parameter(
            f"pool.layer{l}.value_proj",
            rng.standard_normal((channels, value_dim)) / math.sqrt(channels),
        ))
    out_proj = Parameter(
        "pool.out_proj",
        rng.standard_normal((num_layers * value_dim, model_dim))
        / math.sqrt(num_layers * value_dim),
    )
    return PoolingParams(queries, keys, values, out_proj)


@dataclass
class EntitySet:
    """Per-frame entity features with the attention that produced them.

    `features` is a [T*E, d_model] tensor in frame-major order (frame t,
    entity e lives at row t*E + e) and stays connected to the graph.
    `attention` holds one [T, E, S] row-stochastic tensor per layer.
    """

    features: Tensor
    num_frames: int
    num_entities: int
    attention: list[Tensor]

    def attention_array(self, layer: int) -> np.ndarray:
        return self.attention[layer].data


def extract_entities_from_arrays(layers: list[np.ndarray], params: PoolingParams) -> EntitySet:
    """Cross-attend learnable queries over each layer's [T, S, D] token grids."""
    if len(layers) != params.num_layers:
        raise ValueError(
            f"features have {len(layers)} layers, params expect {params.num_layers}"
        )
    if layers[0].shape[2] != params.channels:
        raise ValueError(
            f"feature channels {layers[0].shape[2]} do not match "
            f"projection rows {params.channels}"
        )
    t, s, _ = layers[0].shape
    e = params.num_entities
    d_q = params.queries[0].shape[1]
    dtype = params.dtype

    per_layer, maps = [], []
    for l in range(params.num_layers):
        x = Tensor(layers[l], dtype=dtype)                       # [T, S, D]
        k = T.matmul(x, params.key_proj[l])                      # [T, S, d_q]
        v = T.matmul(x, params.value_proj[l])                    # [T, S, d_v]
        scores = T.matmul(params.queries[l], T.swap_last(k))     # [T, E, S]
        attn = T.softmax(T.scale(scores, 1.0 / math.sqrt(d_q)), axis=2)
        per_layer.append(T.matmul(attn, v, high_precision=True))  # [T, E, d_v]
        maps.append(attn)

    stacked = per_layer[0] if len(per_layer) == 1 else T.concat(per_layer, axis=2)
    flat = T.reshape(stacked, (t * e, stacked.shape[2]))
    out = T.matmul(flat, params.out_proj)                        # [T*E, d_model]
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
    row = entities.attention_array(layer)[frame, entity]
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

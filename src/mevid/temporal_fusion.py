"""Multi-entity temporal fusion.

Entity features from every frame are tagged with a one-hot entity ID,
given a sinusoidal frame-position code, and fused by a small pre-norm
transformer over all T*E tokens at once. A linear input projection
absorbs the ID coordinates, so the transformer's parameter count does not
grow with the entity count beyond those input rows. Pooling reduces the
per-token outputs to one embedding per frame, either by designating
entity 0's token as the output (cls_style) or by averaging the frame's
tokens.

When the caller reads only some token rows (entity 0's, under cls_style),
the last block computes only those: every token still supplies keys and
values, but the queries, the attention output, the residual, the MLP and
the final norm run on the read rows alone. Each of those steps acts on a
row by itself, so the read rows come out as the full pass computes them
(CaiT's class-attention layers use the same split).

Also provides the fixed-width baseline: each frame's last-layer tokens
are mean-pooled to one vector and split into N tokens by a learned linear
layer, matching the fusion width of the multi-entity path without any
spatial pooling.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .tensor import Parameter, Tensor

if TYPE_CHECKING:
    from .model import ModelConfig

POOLING_MODES = ("cls_style", "average")
POS_RANGE = 32.0  # frame positions are rescaled onto [0, POS_RANGE]


def init_fusion_params(rng: np.random.Generator,
                       config: ModelConfig) -> dict[str, Parameter]:
    """`fusion.input.*`, then `fusion.block{i}.*` per block, then `fusion.final.*`."""
    d = config.model_dim
    hidden = config.mlp_ratio * d

    def linear(rows, cols):
        return rng.standard_normal((rows, cols)) / math.sqrt(rows)

    params = [
        Parameter("fusion.input.w", linear(config.token_dim, d)),
        Parameter("fusion.input.b", np.zeros(d)),
    ]
    for i in range(config.blocks):
        pre = f"fusion.block{i}."
        params += [
            Parameter(pre + "ln1_gamma", np.ones(d)),
            Parameter(pre + "ln1_beta", np.zeros(d)),
            Parameter(pre + "wq", linear(d, d)),
            Parameter(pre + "bq", np.zeros(d)),
            Parameter(pre + "wk", linear(d, d)),
            Parameter(pre + "bk", np.zeros(d)),
            Parameter(pre + "wv", linear(d, d)),
            Parameter(pre + "bv", np.zeros(d)),
            Parameter(pre + "wo", linear(d, d)),
            Parameter(pre + "bo", np.zeros(d)),
            Parameter(pre + "ln2_gamma", np.ones(d)),
            Parameter(pre + "ln2_beta", np.zeros(d)),
            Parameter(pre + "w1", linear(d, hidden)),
            Parameter(pre + "b1", np.zeros(hidden)),
            Parameter(pre + "w2", linear(hidden, d)),
            Parameter(pre + "b2", np.zeros(d)),
        ]
    params += [
        Parameter("fusion.final.gamma", np.ones(d)),
        Parameter("fusion.final.beta", np.zeros(d)),
    ]
    return {p.name: p for p in params}


def sinusoidal_encoding(timestamps: np.ndarray, dim: int, dtype=np.float32) -> np.ndarray:
    """Classic sin/cos position code over the given frame indices, along a
    new trailing axis."""
    t = np.asarray(timestamps, dtype=np.float64)[..., None]
    half = (dim + 1) // 2
    rates = np.exp(-math.log(10000.0) * (np.arange(half) / max(half, 1)))
    enc = np.zeros(t.shape[:-1] + (dim,))
    enc[..., 0::2] = np.sin(t * rates)
    enc[..., 1::2] = np.cos(t * rates[: dim // 2])
    return enc.astype(dtype)


def build_frame_tokens(tokens: Tensor, config: ModelConfig) -> Tensor:
    """Add the frame position code to [B, T*E, d_model] frame-major entity
    tokens, E = `config.entities`, and tag them with one-hot IDs.

    token(t, e) = concat(feature(t, e) + pos(t), onehot(e)), with the
    position code shared by a frame's entities. The code sees each
    sequence's own frame indices 0..T-1: a sampled view in training, the
    whole video in evaluation. A code that
    named the source frame would let the model fit the contrastive targets
    from position alone, with no pressure to read the frame content.
    Positions are rescaled so the last frame sits at `POS_RANGE`;
    sequences of different lengths then share one code range instead of
    forcing extrapolation.
    """
    b, n, _ = tokens.shape
    e, dtype = config.entities, tokens.dtype
    if n % e:
        raise ValueError(f"{n} tokens are not whole frames of E={e} entities")
    t = n // e

    positions = np.arange(t, dtype=np.float64) * (POS_RANGE / max(t - 1, 1.0))
    pos = config.pos_scale * sinusoidal_encoding(positions, config.model_dim, dtype)
    placed = T.add(tokens, Tensor(np.broadcast_to(np.repeat(pos, e, axis=0), tokens.shape),
                                  dtype=dtype))
    ids = np.broadcast_to(np.tile(np.eye(e, dtype=dtype), (t, 1)), (b, n, e))
    return T.concat([placed, Tensor(ids, dtype=dtype)], axis=2)


def _attention(x: Tensor, params: dict[str, Parameter], pre: str, heads: int,
               rows: np.ndarray | None = None) -> Tensor:
    """Self-attention over x's tokens; with `rows`, only those rows query."""
    xq = x if rows is None else T.take_rows(x, rows)
    q = T.bias_add(T.matmul(xq, params[pre + "wq"]), params[pre + "bq"])
    k = T.bias_add(T.matmul(x, params[pre + "wk"]), params[pre + "bk"])
    v = T.bias_add(T.matmul(x, params[pre + "wv"]), params[pre + "bv"])
    mixed, _ = T.scaled_dot_attention(q, k, v, heads)
    return T.bias_add(T.matmul(mixed, params[pre + "wo"]), params[pre + "bo"])


def fuse_tokens(tokens: Tensor, config: ModelConfig, params: dict[str, Parameter],
                rows: np.ndarray | None = None) -> Tensor:
    """Run the pre-norm fusion transformer over [B, N, token_dim] tokens,
    each sequence attending within itself, and return [B, N, model_dim].

    With `rows` (strictly increasing indices into N), return only those
    rows of every sequence, [B, len(rows), model_dim], equal to the full
    output's rows up to float32 rounding: past its keys and values, the
    last block computes nothing else."""
    if tokens.ndim != 3 or tokens.shape[2] != config.token_dim:
        raise ValueError(
            f"tokens of shape {tokens.shape} are not [B, N, {config.token_dim}]"
        )
    h = T.bias_add(T.matmul(tokens, params["fusion.input.w"]), params["fusion.input.b"])
    for i in range(config.blocks):
        pre = f"fusion.block{i}."
        read = rows if i == config.blocks - 1 else None
        normed = T.layer_norm(h, params[pre + "ln1_gamma"], params[pre + "ln1_beta"])
        if read is not None:
            h = T.take_rows(h, read)
        h = T.add(h, _attention(normed, params, pre, config.heads, read))
        normed = T.layer_norm(h, params[pre + "ln2_gamma"], params[pre + "ln2_beta"])
        m = T.gelu(T.bias_add(T.matmul(normed, params[pre + "w1"]), params[pre + "b1"]))
        m = T.bias_add(T.matmul(m, params[pre + "w2"]), params[pre + "b2"])
        h = T.add(h, m)
    return T.layer_norm(h, params["fusion.final.gamma"], params["fusion.final.beta"])


def read_rows(num_tokens: int, num_entities: int, mode: str) -> np.ndarray | None:
    """The rows of N = T*E frame-major tokens that `mode`'s pooling reads:
    entity 0's under cls_style, None (every row) under average."""
    if num_tokens % num_entities:
        raise ValueError(f"{num_tokens} tokens are not whole frames of {num_entities} entities")
    if mode == "cls_style":
        return np.arange(num_tokens // num_entities) * num_entities
    if mode == "average":
        return None
    raise ValueError(f"pooling must be one of {POOLING_MODES}, got {mode!r}")


def pool_output(outputs: Tensor, num_entities: int, mode: str) -> Tensor:
    """Reduce [B, T*E, d] fused tokens to [B, T, d] frame embeddings."""
    b, n, d = outputs.shape
    rows = read_rows(n, num_entities, mode)
    if rows is not None:
        return T.take_rows(outputs, rows)
    e = num_entities
    mean_w = Tensor(np.tile(np.eye(d) / e, (e, 1)), dtype=outputs.dtype)  # [E*d, d]
    return T.matmul(T.reshape(outputs, (b, n // e, e * d)), mean_w)


# ---------------------------------------------------------------------------
# fixed-width baseline


def init_fixed_width_params(rng: np.random.Generator,
                            config: ModelConfig) -> dict[str, Parameter]:
    """Learned split of a mean-pooled frame vector into N = `entities`
    fusion tokens: `split.w` [D, N * model_dim] and `split.b`."""
    width = config.entities * config.model_dim
    params = [
        Parameter("split.w",
                  rng.standard_normal((config.channels, width)) / math.sqrt(config.channels)),
        Parameter("split.b", np.zeros(width)),
    ]
    return {p.name: p for p in params}


def split_frame_tokens(last_layer: np.ndarray, params: dict[str, Parameter],
                       model_dim: int) -> Tensor:
    """Mean-pool a [B, T, S, D] grid per frame and split it into N tokens
    per frame, [B, T*N, model_dim] frame-major like pooled entities, so
    they proceed through ID tagging, fusion, and pooling alike.
    """
    frame_vecs = last_layer.mean(axis=2)                           # [B, T, D]
    x = Tensor(frame_vecs, dtype=params["split.w"].dtype)
    split = T.bias_add(T.matmul(x, params["split.w"]), params["split.b"])  # [B, T, N*d]
    return T.reshape(split, (last_layer.shape[0], -1, model_dim))

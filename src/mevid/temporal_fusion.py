"""Multi-entity temporal fusion.

Entity features from every frame are tagged with a one-hot entity ID,
given a sinusoidal frame-position code, and fused by a small pre-norm
transformer over all T*E tokens at once. A linear input projection
absorbs the ID coordinates, so the transformer's parameter count does not
grow with the entity count beyond those input rows. Pooling reduces the
per-token outputs to one embedding per frame, either by designating
entity 0's token as the output (cls_style) or by averaging the frame's
tokens.

Also provides the fixed-width baseline: each frame's last-layer tokens
are mean-pooled to one vector and split into N tokens by a learned linear
layer, matching the fusion width of the multi-entity path without any
spatial pooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .spatial_pooling import EntitySet
from .tensor import Parameter, Tensor

POOLING_MODES = ("cls_style", "average")
POS_RANGE = 32.0  # frame positions are rescaled onto [0, POS_RANGE]


@dataclass(frozen=True)
class FusionConfig:
    num_entities: int = 3
    model_dim: int = 128          # entity feature width; also the fusion width
    blocks: int = 3
    heads: int = 1
    mlp_ratio: int = 4
    pooling: str = "cls_style"
    pos_scale: float = 1.0        # amplitude of the sinusoidal frame code

    def __post_init__(self):
        if self.num_entities < 1:
            raise ValueError(f"need at least one entity, got {self.num_entities}")
        if self.blocks < 1:
            raise ValueError(f"need at least one block, got {self.blocks}")
        if self.model_dim % self.heads != 0:
            raise ValueError(
                f"fusion width {self.model_dim} not divisible by {self.heads} heads"
            )
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"pooling must be one of {POOLING_MODES}, got {self.pooling!r}")

    @property
    def token_dim(self) -> int:
        """Width of a tagged input token: entity feature plus one-hot ID."""
        return self.model_dim + self.num_entities


@dataclass
class BlockParams:
    ln1_gamma: Parameter
    ln1_beta: Parameter
    wq: Parameter
    bq: Parameter
    wk: Parameter
    bk: Parameter
    wv: Parameter
    bv: Parameter
    wo: Parameter
    bo: Parameter
    ln2_gamma: Parameter
    ln2_beta: Parameter
    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter


@dataclass
class FusionParams:
    input_w: Parameter            # [d_token, model_dim]
    input_b: Parameter
    blocks: list[BlockParams] = field(default_factory=list)
    final_gamma: Parameter = None
    final_beta: Parameter = None

    def named(self) -> dict[str, Parameter]:
        out = {"fusion.input.w": self.input_w, "fusion.input.b": self.input_b}
        for i, blk in enumerate(self.blocks):
            for fname in blk.__dataclass_fields__:
                out[f"fusion.block{i}.{fname}"] = getattr(blk, fname)
        out["fusion.final.gamma"] = self.final_gamma
        out["fusion.final.beta"] = self.final_beta
        return out

    def param_count(self) -> int:
        return sum(p.data.size for p in self.named().values())


def init_fusion_params(rng: np.random.Generator, config: FusionConfig) -> FusionParams:
    d = config.model_dim
    hidden = config.mlp_ratio * d

    def linear(rows, cols):
        return rng.standard_normal((rows, cols)) / math.sqrt(rows)

    params = FusionParams(
        input_w=Parameter("fusion.input.w", linear(config.token_dim, d)),
        input_b=Parameter("fusion.input.b", np.zeros(d)),
    )
    for i in range(config.blocks):
        pre = f"fusion.block{i}"
        params.blocks.append(BlockParams(
            ln1_gamma=Parameter(f"{pre}.ln1_gamma", np.ones(d)),
            ln1_beta=Parameter(f"{pre}.ln1_beta", np.zeros(d)),
            wq=Parameter(f"{pre}.wq", linear(d, d)),
            bq=Parameter(f"{pre}.bq", np.zeros(d)),
            wk=Parameter(f"{pre}.wk", linear(d, d)),
            bk=Parameter(f"{pre}.bk", np.zeros(d)),
            wv=Parameter(f"{pre}.wv", linear(d, d)),
            bv=Parameter(f"{pre}.bv", np.zeros(d)),
            wo=Parameter(f"{pre}.wo", linear(d, d)),
            bo=Parameter(f"{pre}.bo", np.zeros(d)),
            ln2_gamma=Parameter(f"{pre}.ln2_gamma", np.ones(d)),
            ln2_beta=Parameter(f"{pre}.ln2_beta", np.zeros(d)),
            w1=Parameter(f"{pre}.w1", linear(d, hidden)),
            b1=Parameter(f"{pre}.b1", np.zeros(hidden)),
            w2=Parameter(f"{pre}.w2", linear(hidden, d)),
            b2=Parameter(f"{pre}.b2", np.zeros(d)),
        ))
    params.final_gamma = Parameter("fusion.final.gamma", np.ones(d))
    params.final_beta = Parameter("fusion.final.beta", np.zeros(d))
    return params


def sinusoidal_encoding(timestamps: np.ndarray, dim: int, dtype=np.float32) -> np.ndarray:
    """Classic sin/cos position code over the given frame indices."""
    t = np.asarray(timestamps, dtype=np.float64)[:, None]
    half = (dim + 1) // 2
    rates = np.exp(-math.log(10000.0) * (np.arange(half) / max(half, 1)))[None, :]
    enc = np.zeros((t.shape[0], dim))
    enc[:, 0::2] = np.sin(t * rates)
    enc[:, 1::2] = np.cos(t * rates[:, : dim // 2])
    return enc.astype(dtype)


def build_frame_tokens(entities: EntitySet, config: FusionConfig,
                       timestamps: np.ndarray) -> Tensor:
    """Tag entity features with one-hot IDs and add the frame position code.

    token(t, e) = concat(feature(t, e), onehot(e)) + pos(timestamp[t]),
    with the position code shared by a frame's entities and zero on the
    E ID coordinates. Positions are rescaled so the last frame of any
    sequence sits at `POS_RANGE`; sequences of different lengths then
    share one code range instead of forcing extrapolation.
    """
    t, e = entities.num_frames, entities.num_entities
    if e != config.num_entities:
        raise ValueError(
            f"entity set has E={e}, fusion config expects E={config.num_entities}"
        )
    if len(timestamps) != t:
        raise ValueError(f"{len(timestamps)} timestamps for {t} frames")
    dtype = entities.features.dtype

    ids = np.tile(np.eye(e, dtype=dtype), (t, 1))                       # [T*E, E]
    tokens = T.concat([entities.features, Tensor(ids, dtype=dtype)], axis=1)

    ts = np.asarray(timestamps, dtype=np.float64)
    span = float(ts.max()) if t > 1 else 1.0
    positions = ts * (POS_RANGE / max(span, 1.0))
    pos = config.pos_scale * sinusoidal_encoding(positions, config.model_dim, dtype)
    padded = np.zeros((t * e, config.token_dim), dtype=dtype)
    padded[:, : config.model_dim] = np.repeat(pos, e, axis=0)
    return T.add(tokens, Tensor(padded, dtype=dtype))


def _attention(x: Tensor, blk: BlockParams, heads: int) -> Tensor:
    q = T.bias_add(T.matmul(x, blk.wq), blk.bq)
    k = T.bias_add(T.matmul(x, blk.wk), blk.bk)
    v = T.bias_add(T.matmul(x, blk.wv), blk.bv)
    if heads == 1:
        mixed = T.scaled_dot_attention(q, k, v)
    else:
        width = q.shape[1] // heads
        outs = []
        for h in range(heads):
            s = h * width
            outs.append(T.scaled_dot_attention(
                T.narrow(q, 1, s, width), T.narrow(k, 1, s, width),
                T.narrow(v, 1, s, width)))
        mixed = T.concat(outs, axis=1)
    return T.bias_add(T.matmul(mixed, blk.wo), blk.bo)


def fuse_tokens(tokens: Tensor, config: FusionConfig, params: FusionParams) -> Tensor:
    """Run the pre-norm fusion transformer; token count in == token count out."""
    if tokens.shape[1] != config.token_dim:
        raise ValueError(
            f"token dim {tokens.shape[1]} does not match config token dim {config.token_dim}"
        )
    h = T.bias_add(T.matmul(tokens, params.input_w), params.input_b)
    for blk in params.blocks:
        normed = T.layer_norm(h, blk.ln1_gamma, blk.ln1_beta)
        h = T.add(h, _attention(normed, blk, config.heads))
        normed = T.layer_norm(h, blk.ln2_gamma, blk.ln2_beta)
        m = T.gelu(T.bias_add(T.matmul(normed, blk.w1), blk.b1))
        m = T.bias_add(T.matmul(m, blk.w2), blk.b2)
        h = T.add(h, m)
    return T.layer_norm(h, params.final_gamma, params.final_beta)


def pool_output(outputs: Tensor, num_frames: int, num_entities: int, mode: str) -> Tensor:
    """Reduce [T*E, d] fused tokens to [T, d] frame embeddings."""
    t, e = num_frames, num_entities
    if outputs.shape[0] != t * e:
        raise ValueError(f"expected {t * e} tokens, got {outputs.shape[0]}")
    if mode == "cls_style":
        return T.take_rows(outputs, np.arange(t) * e)
    if mode == "average":
        d = outputs.shape[1]
        mean_w = Tensor(np.full((1, e), 1.0 / e), dtype=outputs.dtype)
        grouped = T.reshape(outputs, (t, e, d))
        return T.reshape(T.matmul(mean_w, grouped), (t, d))
    raise ValueError(f"pooling must be one of {POOLING_MODES}, got {mode!r}")


# ---------------------------------------------------------------------------
# fixed-width baseline


@dataclass
class FixedWidthParams:
    """Learned split of a mean-pooled frame vector into N fusion tokens."""

    split_w: Parameter            # [D, N * model_dim]
    split_b: Parameter

    @property
    def dtype(self):
        return self.split_w.dtype

    def named(self) -> dict[str, Parameter]:
        return {"split.w": self.split_w, "split.b": self.split_b}


def init_fixed_width_params(rng: np.random.Generator, channels: int,
                            num_splits: int, model_dim: int) -> FixedWidthParams:
    return FixedWidthParams(
        split_w=Parameter(
            "split.w",
            rng.standard_normal((channels, num_splits * model_dim)) / math.sqrt(channels),
        ),
        split_b=Parameter("split.b", np.zeros(num_splits * model_dim)),
    )


def split_frame_tokens(last_layer: np.ndarray, params: FixedWidthParams,
                       num_splits: int, model_dim: int) -> EntitySet:
    """Mean-pool a [T, S, D] grid per frame and split into N tokens per frame.

    The result mimics an entity set so the tokens proceed through ID
    tagging, fusion, and pooling exactly like pooled entities.
    """
    t = last_layer.shape[0]
    frame_vecs = last_layer.mean(axis=1)                           # [T, D]
    x = Tensor(frame_vecs, dtype=params.dtype)
    split = T.bias_add(T.matmul(x, params.split_w), params.split_b)  # [T, N*d]
    tokens = T.reshape(split, (t * num_splits, model_dim))
    return EntitySet(features=tokens, num_frames=t, num_entities=num_splits,
                     attention=[])

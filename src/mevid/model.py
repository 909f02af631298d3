"""Full trainable model: spatial pooling (or fixed-width split), temporal
fusion, and the projection head used only by the contrastive loss.

The checkpoint format (MVCK) serializes every named parameter; loading
validates names and shapes against the constructed configuration and
reports the exact mismatch.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass

import numpy as np

from . import spatial_pooling as sp
from . import temporal_fusion as tf
from . import tensor as T
from .features import VideoFeatures
from .tensor import Parameter, Tensor

ARCHITECTURES = ("entity", "fixed_width")


@dataclass(frozen=True)
class ModelConfig:
    arch: str = "entity"
    num_entities: int = 3         # split count for the fixed-width arch
    num_layers: int = 3           # selected backbone layers entering pooling
    channels: int = 32
    query_dim: int = 64
    value_dim: int = 64
    model_dim: int = 128
    blocks: int = 3
    heads: int = 1
    mlp_ratio: int = 4
    pooling: str = "cls_style"
    pos_scale: float = 1.0
    proj_hidden: int = 128
    proj_dim: int = 128

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"arch must be one of {ARCHITECTURES}, got {self.arch!r}")

    def fusion_config(self) -> tf.FusionConfig:
        return tf.FusionConfig(
            num_entities=self.num_entities,
            model_dim=self.model_dim,
            blocks=self.blocks,
            heads=self.heads,
            mlp_ratio=self.mlp_ratio,
            pooling=self.pooling,
            pos_scale=self.pos_scale,
        )


@dataclass
class ProjectionParams:
    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter

    def named(self) -> dict[str, Parameter]:
        return {"proj.w1": self.w1, "proj.b1": self.b1,
                "proj.w2": self.w2, "proj.b2": self.b2}


class Model:
    """Parameter container plus the frame-embedding forward pass."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.fusion_config = config.fusion_config()
        if config.arch == "entity":
            self.pooling = sp.init_pooling_params(
                rng, config.num_layers, config.channels, config.num_entities,
                config.query_dim, config.value_dim, config.model_dim)
            self.split = None
        else:
            self.pooling = None
            self.split = tf.init_fixed_width_params(
                rng, config.channels, config.num_entities, config.model_dim)
        self.fusion = tf.init_fusion_params(rng, self.fusion_config)
        d = config.model_dim
        self.projection = ProjectionParams(
            w1=Parameter("proj.w1", rng.standard_normal((d, config.proj_hidden)) / np.sqrt(d)),
            b1=Parameter("proj.b1", np.zeros(config.proj_hidden)),
            w2=Parameter("proj.w2",
                         rng.standard_normal((config.proj_hidden, config.proj_dim))
                         / np.sqrt(config.proj_hidden)),
            b2=Parameter("proj.b2", np.zeros(config.proj_dim)),
        )

    def parameters(self) -> dict[str, Parameter]:
        out = {}
        if self.pooling is not None:
            out.update(self.pooling.named())
        if self.split is not None:
            out.update(self.split.named())
        out.update(self.fusion.named())
        out.update(self.projection.named())
        return out

    def zero_grads(self) -> None:
        for p in self.parameters().values():
            p.zero_grad()

    def fusion_param_count(self) -> int:
        return self.fusion.param_count()

    # -- forward ------------------------------------------------------------

    def extract(self, features: VideoFeatures) -> sp.EntitySet:
        if self.config.arch != "entity":
            raise ValueError("attention extraction requires the entity architecture")
        return sp.extract_entities_from_arrays(features.layers, self.pooling)

    def embed_frames(self, layers: list[np.ndarray], timestamps: np.ndarray) -> Tensor:
        """Pooled per-frame embeddings for raw per-layer [T, S, D] arrays."""
        if self.config.arch == "entity":
            entities = sp.extract_entities_from_arrays(layers, self.pooling)
        else:
            entities = tf.split_frame_tokens(
                layers[-1], self.split, self.config.num_entities, self.config.model_dim)
        tokens = tf.build_frame_tokens(entities, self.fusion_config, timestamps)
        fused = tf.fuse_tokens(tokens, self.fusion_config, self.fusion)
        return tf.pool_output(fused, entities.num_frames, entities.num_entities,
                              self.config.pooling)

    def project(self, pooled: Tensor) -> Tensor:
        """Contrastive-loss head; evaluation uses the pooled embeddings."""
        h = T.gelu(T.bias_add(T.matmul(pooled, self.projection.w1), self.projection.b1))
        return T.bias_add(T.matmul(h, self.projection.w2), self.projection.b2)

    # -- state --------------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters().items()}

    def load_state(self, arrays: dict[str, np.ndarray], dtype=np.float32) -> None:
        own = self.parameters()
        missing = sorted(set(own) - set(arrays))
        unexpected = sorted(set(arrays) - set(own))
        if missing or unexpected:
            raise CheckpointMismatch(
                f"checkpoint/config mismatch: missing={missing} unexpected={unexpected}"
            )
        for name, p in own.items():
            arr = arrays[name]
            if tuple(arr.shape) != tuple(p.data.shape):
                raise CheckpointMismatch(
                    f"checkpoint/config mismatch: {name} has shape {arr.shape}, "
                    f"model expects {p.data.shape}"
                )
        for name, p in own.items():
            p.data = np.ascontiguousarray(arrays[name], dtype=dtype)
            p.grad = np.zeros_like(p.data)

    def astype(self, dtype) -> "Model":
        """Clone with parameters cast to `dtype` (for 64-bit grad checks)."""
        clone = Model(self.config, np.random.default_rng(0))
        clone.load_state(self.state_arrays(), dtype=dtype)
        return clone

    def bind(self, params: dict[str, Parameter]) -> None:
        """Point every parameter slot at the like-named external tensor.

        Lets a gradient checker drive the forward pass through its own
        parameter objects; shapes must match the configuration.
        """
        own = self.parameters()
        if set(own) != set(params):
            raise CheckpointMismatch(
                f"parameter names differ: missing={sorted(set(own) - set(params))} "
                f"unexpected={sorted(set(params) - set(own))}"
            )
        for name, p in own.items():
            if tuple(params[name].data.shape) != tuple(p.data.shape):
                raise CheckpointMismatch(
                    f"{name} has shape {params[name].data.shape}, "
                    f"model expects {p.data.shape}"
                )
        if self.pooling is not None:
            self.pooling = _rebound(self.pooling, params)
        if self.split is not None:
            self.split = _rebound(self.split, params)
        self.fusion = _rebound(self.fusion, params)
        self.projection = _rebound(self.projection, params)


def _rebound(value, table: dict[str, Parameter]):
    if isinstance(value, Parameter):
        return table[value.name]
    if isinstance(value, list):
        return [_rebound(v, table) for v in value]
    if dataclasses.is_dataclass(value):
        updates = {
            f.name: _rebound(getattr(value, f.name), table)
            for f in dataclasses.fields(value)
        }
        return dataclasses.replace(value, **updates)
    return value


class CheckpointMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# MVCK checkpoint format, version 1 (little-endian):
#   magic "MVCK", version u32, then per parameter:
#   name-length u32, name bytes (utf-8), rank u32, dims u32..., float32 payload.

_CK_MAGIC = b"MVCK"
_CK_VERSION = 1


def save_checkpoint_bytes(model: Model) -> bytes:
    chunks = [_CK_MAGIC, struct.pack("<I", _CK_VERSION)]
    for name, p in model.parameters().items():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", p.data.ndim))
        chunks.append(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
        chunks.append(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    return b"".join(chunks)


def save_checkpoint(model: Model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(save_checkpoint_bytes(model))


def load_checkpoint_bytes(raw: bytes) -> dict[str, np.ndarray]:
    if len(raw) < 8:
        raise ValueError("checkpoint shorter than its header")
    if raw[:4] != _CK_MAGIC:
        raise ValueError(f"bad checkpoint magic {raw[:4]!r}, expected {_CK_MAGIC!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != _CK_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    offset = 8
    arrays: dict[str, np.ndarray] = {}
    while offset < len(raw):
        try:
            (name_len,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            name = raw[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}I", raw, offset)
            offset += 4 * rank
        except struct.error as exc:
            raise ValueError(f"truncated checkpoint near byte {offset}") from exc
        count = int(np.prod(dims, dtype=np.int64)) if rank else 1
        if offset + 4 * count > len(raw):
            raise ValueError(f"truncated checkpoint payload for {name!r}")
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        offset += 4 * count
        if name in arrays:
            raise ValueError(f"duplicate checkpoint record {name!r}")
        arrays[name] = arr.reshape(dims).copy()
    return arrays


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        return load_checkpoint_bytes(fh.read())

"""Full trainable model: spatial pooling (or fixed-width split), temporal
fusion, and the projection head used only by the contrastive loss.

All weights live in one ordered table, `Model.params`, mapping a name to
its `Parameter`. Init builds it (pooling `pool.*` or split `split.*`,
then `fusion.*`, then `proj.*`, in RNG draw order); the forward pass
reads weights from it by name; Adam updates it in place; the grad
checker swaps in a float64 copy; and the MVCK checkpoint format writes
one record per entry in table order. Loading validates names and shapes
against the constructed configuration and reports the exact mismatch.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import spatial_pooling as sp
from . import temporal_fusion as tf
from . import tensor as T
from .features import VideoFeatures, atomic_open
from .tensor import Parameter, Tensor

ARCHITECTURES = ("entity", "fixed_width")


@dataclass(frozen=True)
class ModelConfig:
    """Fields are named as the run config's keys; `RunConfig` holds their
    defaults."""

    arch: str
    entities: int                 # split count for the fixed-width arch
    channels: int
    query_dim: int
    value_dim: int
    model_dim: int                # entity feature width; also the fusion width
    heads: int
    blocks: int
    mlp_ratio: int
    pooling: str
    pos_scale: float              # amplitude of the sinusoidal frame code
    layer_select: tuple[int, ...]  # backbone layers entering pooling
    proj_hidden: int
    proj_dim: int

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"arch must be one of {ARCHITECTURES}, got {self.arch!r}")
        for key in ("entities", "channels", "query_dim", "value_dim", "model_dim", "heads",
                    "blocks", "mlp_ratio", "proj_hidden", "proj_dim"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.model_dim % self.heads != 0:
            raise ValueError(
                f"model_dim {self.model_dim} is not divisible by heads {self.heads}")
        if self.pooling not in tf.POOLING_MODES:
            raise ValueError(
                f"pooling must be one of {tf.POOLING_MODES}, got {self.pooling!r}")
        if not np.isfinite(self.pos_scale):
            raise ValueError(f"pos_scale must be finite, got {self.pos_scale}")

    @property
    def token_dim(self) -> int:
        """Width of a tagged input token: entity feature plus one-hot ID."""
        return self.model_dim + self.entities


class Model:
    """The parameter table plus the frame-embedding forward pass."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        if config.arch == "entity":
            params = sp.init_pooling_params(rng, config)
        else:
            params = tf.init_fixed_width_params(rng, config)
        params.update(tf.init_fusion_params(rng, config))
        d, hidden = config.model_dim, config.proj_hidden
        for p in [
            Parameter("proj.w1", rng.standard_normal((d, hidden)) / np.sqrt(d)),
            Parameter("proj.b1", np.zeros(hidden)),
            Parameter("proj.w2",
                      rng.standard_normal((hidden, config.proj_dim)) / np.sqrt(hidden)),
            Parameter("proj.b2", np.zeros(config.proj_dim)),
        ]:
            params[p.name] = p
        self.params: dict[str, Parameter] = params

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def fusion_param_count(self) -> int:
        return sum(p.data.size for name, p in self.params.items()
                   if name.startswith("fusion."))

    # -- forward ------------------------------------------------------------

    def extract(self, features: VideoFeatures) -> list[np.ndarray]:
        """Pooling attention of one whole video: one [T, E, S] array per layer."""
        if self.config.arch != "entity":
            raise ValueError("attention extraction requires the entity architecture")
        return sp.extract_entities_from_arrays([l[None] for l in features.layers],
                                               self.params)[1]

    def embed_frames(self, layers: list[np.ndarray]) -> Tensor:
        """Pooled [B, T, d] per-frame embeddings of B sequences, given raw
        per-layer [B, T, S, D] arrays. Training runs every view of a step
        as one batch; evaluation runs one video.

        Under cls_style with E > 1 the fusion computes only the rows that
        pooling reads, and those rows are the frame embeddings."""
        config = self.config
        if config.arch == "entity":
            tokens, _ = sp.extract_entities_from_arrays(layers, self.params)
        else:
            tokens = tf.split_frame_tokens(layers[-1], self.params, config.model_dim)
        rows = None
        if config.entities > 1:
            rows = tf.read_rows(tokens.shape[1], config.entities, config.pooling)
        fused = tf.fuse_tokens(tf.build_frame_tokens(tokens, config), config, self.params, rows)
        if rows is not None:
            return fused
        return tf.pool_output(fused, config.entities, config.pooling)

    def project(self, pooled: Tensor) -> Tensor:
        """Contrastive-loss head over [B, T, d]; evaluation uses the pooled
        embeddings."""
        p = self.params
        h = T.gelu(T.bias_add(T.matmul(pooled, p["proj.w1"]), p["proj.b1"]))
        return T.bias_add(T.matmul(h, p["proj.w2"]), p["proj.b2"])

    # -- state --------------------------------------------------------------

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        own = self.params
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
            p.data = np.ascontiguousarray(arrays[name], dtype=np.float32)
            p.grad = np.zeros_like(p.data)


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
    for name, p in model.params.items():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", p.data.ndim))
        chunks.append(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
        chunks.append(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    return b"".join(chunks)


def save_checkpoint(model: Model, path) -> None:
    with atomic_open(path) as fh:
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
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite value in checkpoint record {name!r}")
        arrays[name] = arr.reshape(dims).copy()
    return arrays

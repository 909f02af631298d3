"""Frozen-backbone features: synthetic generation and binary file I/O.

The synthetic backbone produces per-frame spatial token grids where phase
identity is carried by a small "actor" patch moving over a static
per-video background — classification is only solvable by localizing the
actor. Real externally-extracted features can be ingested through the
MVFF binary format defined at the bottom of this module.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass, field

import numpy as np


class SpecError(ValueError):
    """Invalid synthetic dataset specification."""


class FormatError(ValueError):
    """Malformed MVFF payload."""


class MagicError(FormatError):
    pass


class VersionError(FormatError):
    pass


class TruncatedError(FormatError):
    pass


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the deterministic synthetic backbone. Fields are
    named as the run config's keys; `RunConfig` holds their defaults."""

    videos: int
    frames: int
    grid: int
    channels: int
    phases: int
    layers: int
    patch: int
    noise: float
    data_seed: int

    def __post_init__(self):
        for key in ("videos", "frames", "grid", "channels", "layers", "patch"):
            if getattr(self, key) < 1:
                raise SpecError(f"{key} must be positive, got {getattr(self, key)}")
        if self.phases < 2:
            raise SpecError(f"phases must be >= 2, got {self.phases}")
        if self.patch > self.grid:
            raise SpecError(f"patch {self.patch} exceeds grid {self.grid}")
        if not 0 <= self.noise < np.inf:
            raise SpecError(f"noise must be finite and >= 0, got {self.noise}")
        if 2 * self.phases > self.frames:
            raise SpecError(
                f"frames {self.frames} cannot hold phases {self.phases} of >= 2 frames each")
        if self.data_seed < 0:
            raise SpecError(f"data_seed must be >= 0, got {self.data_seed}")


@dataclass
class VideoFeatures:
    """Per-frame, per-layer spatial token grids with optional annotations.

    Every layer is a float32 array of shape [T, S, D]; all layers share
    identical T, S, D. A frame's time is its index, 0..T-1.
    """

    video_id: str
    layers: list[np.ndarray]
    labels: np.ndarray | None = None
    progression: np.ndarray | None = None

    def __post_init__(self):
        if not self.layers:
            raise ValueError("VideoFeatures needs at least one layer")
        shape = self.layers[0].shape
        for arr in self.layers:
            if arr.ndim != 3 or arr.shape != shape:
                raise ValueError(f"layer shapes differ: {arr.shape} vs {shape}")
        if self.labels is not None and len(self.labels) != self.num_frames:
            raise ValueError("labels length does not match frame count")
        if self.progression is not None and len(self.progression) != self.num_frames:
            raise ValueError("progression length does not match frame count")

    @property
    def num_frames(self) -> int:
        return self.layers[0].shape[0]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_tokens(self) -> int:
        return self.layers[0].shape[1]

    @property
    def channels(self) -> int:
        return self.layers[0].shape[2]


@dataclass
class VideoLayout:
    """Seed-reconstructible ground truth for one synthetic video."""

    video_id: str
    background: np.ndarray          # [D]
    durations: np.ndarray           # [K] frames per phase, each >= 2
    labels: np.ndarray              # [T] phase index per frame
    progression: np.ndarray         # [T] time to next boundary / T
    positions: np.ndarray           # [T, 2] actor patch top-left (row, col)


@dataclass
class DatasetLayout:
    """Ground truth shared by the whole dataset plus per-video layouts."""

    spec: SyntheticSpec
    phase_signatures: np.ndarray    # [K, D], shared across videos
    layer_maps: list[np.ndarray]    # [D, D] per layer; layer 0 is identity
    videos: list[VideoLayout] = field(default_factory=list)


def _phase_durations(rng: np.random.Generator, frames: int, phases: int) -> np.ndarray:
    extra = rng.multinomial(frames - 2 * phases, np.full(phases, 1.0 / phases))
    return (extra + 2).astype(np.int64)


def _actor_positions(rng: np.random.Generator, frames: int, grid: int, patch: int) -> np.ndarray:
    # Smooth sinusoidal drift of the patch top-left, clamped to the grid.
    span = grid - patch
    center = span / 2.0
    pos = np.zeros((frames, 2), dtype=np.int64)
    t = np.arange(frames)
    for axis in range(2):
        omega = rng.uniform(0.1, 0.5)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        path = center + center * np.sin(omega * t + phi)
        pos[:, axis] = np.clip(np.round(path), 0, span).astype(np.int64)
    return pos


def synthetic_layout(spec: SyntheticSpec) -> DatasetLayout:
    """Reconstruct the dataset's ground truth from its seed alone."""
    rng = np.random.default_rng(spec.data_seed)
    d = spec.channels
    # Signatures share a common "actor present" component; the per-phase
    # parts stay distinct. Phase identity needs the distinct parts, while
    # the actor itself remains one concept across phases.
    actor_common = rng.standard_normal((1, d))
    signatures = actor_common + rng.standard_normal((spec.phases, d))
    maps = [np.eye(d)]
    for _ in range(spec.layers - 1):
        maps.append(rng.standard_normal((d, d)) / np.sqrt(d))

    layout = DatasetLayout(
        spec=spec,
        phase_signatures=signatures.astype(np.float32),
        layer_maps=[m.astype(np.float32) for m in maps],
    )
    t_total = spec.frames
    for v in range(spec.videos):
        background = rng.standard_normal(d).astype(np.float32)
        durations = _phase_durations(rng, t_total, spec.phases)
        labels = np.repeat(np.arange(spec.phases), durations)
        boundaries = np.cumsum(durations)
        next_boundary = boundaries[labels]
        progression = ((next_boundary - np.arange(t_total)) / t_total).astype(np.float32)
        positions = _actor_positions(rng, t_total, spec.grid, spec.patch)
        layout.videos.append(
            VideoLayout(
                video_id=f"vid{v:04d}",
                background=background,
                durations=durations,
                labels=labels.astype(np.int64),
                progression=progression,
                positions=positions,
            )
        )
    return layout


def _patch_token_indices(pos: np.ndarray, grid: int, patch: int) -> np.ndarray:
    rows = pos[0] + np.arange(patch)
    cols = pos[1] + np.arange(patch)
    return (rows[:, None] * grid + cols[None, :]).reshape(-1)


def generate_synthetic_dataset(spec: SyntheticSpec) -> list[VideoFeatures]:
    """Generate the full dataset; a pure function of the spec (incl. seed)."""
    layout = synthetic_layout(spec)
    noise_rng = np.random.default_rng([spec.data_seed, 1])
    s = spec.grid * spec.grid
    videos = []
    for vl in layout.videos:
        base = np.tile(vl.background, (spec.frames, s, 1)).astype(np.float32)
        for t in range(spec.frames):
            tokens = _patch_token_indices(vl.positions[t], spec.grid, spec.patch)
            base[t, tokens] += layout.phase_signatures[vl.labels[t]]
        if spec.noise > 0:
            base += spec.noise * noise_rng.standard_normal(base.shape).astype(np.float32)
        layers = [np.ascontiguousarray(base @ m) for m in layout.layer_maps]
        videos.append(
            VideoFeatures(
                video_id=vl.video_id,
                layers=layers,
                labels=vl.labels.copy(),
                progression=vl.progression.copy(),
            )
        )
    return videos


def check_layer_select(layer_ids, num_layers: int) -> None:
    """`layer_select` must name at least one layer, strictly increasing,
    each in 0..num_layers-1."""
    if not layer_ids:
        raise ValueError("layer_select must name at least one layer")
    if any(b <= a for a, b in zip(layer_ids, layer_ids[1:])):
        raise ValueError(f"layer_select must be strictly increasing, got {tuple(layer_ids)}")
    for i in layer_ids:
        if not 0 <= i < num_layers:
            raise ValueError(f"layer_select id {i} out of range for {num_layers} layers")


def select_layers(features: VideoFeatures, layer_ids: list[int]) -> VideoFeatures:
    """Keep the listed layers, order preserved; see `check_layer_select`."""
    check_layer_select(layer_ids, features.num_layers)
    return VideoFeatures(
        video_id=features.video_id,
        layers=[features.layers[i] for i in layer_ids],
        labels=features.labels,
        progression=features.progression,
    )


@contextlib.contextmanager
def atomic_open(path):
    """A binary file that replaces `path` when the `with` block ends.

    It is written beside `path` under a temporary name, so `path` holds
    either its old bytes or all of the new ones. If the block raises, the
    temporary file is removed and `path` is left as it was.
    """
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# MVFF binary format, version 1 (little-endian):
#   magic "MVFF", version u32, T u32, L u32, S u32, D u32,
#   T*L*S*D float32 ordered [frame][layer][token][channel],
#   label flag u8; if 1: T u32 labels then T float32 progression values.
# A frame's time is its index, 0..T-1, so no timestamps are stored.

_MAGIC = b"MVFF"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIII")


def write_mvff(features: VideoFeatures, path) -> None:
    t, l = features.num_frames, features.num_layers
    s, d = features.num_tokens, features.channels
    has_labels = features.labels is not None or features.progression is not None
    if has_labels and (features.labels is None or features.progression is None):
        raise ValueError("MVFF v1 stores labels and progression together or not at all")

    grid = np.stack(features.layers, axis=1)  # [T, L, S, D]
    with atomic_open(path) as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, t, l, s, d))
        fh.write(np.ascontiguousarray(grid, dtype="<f4").tobytes())
        fh.write(struct.pack("<B", 1 if has_labels else 0))
        if has_labels:
            fh.write(np.ascontiguousarray(features.labels, dtype="<u4").tobytes())
            fh.write(np.ascontiguousarray(features.progression, dtype="<f4").tobytes())


def _check_finite(values: np.ndarray, what: str, index_names: str) -> None:
    if np.isfinite(values).all():
        return
    bad = ~np.isfinite(values)
    first = ", ".join(str(int(i)) for i in np.argwhere(bad)[0])
    raise FormatError(
        f"{int(bad.sum())} non-finite {what} values; the first is at {index_names} = [{first}]")


def load_mvff(path, video_id: str | None = None) -> VideoFeatures:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise TruncatedError(f"file is {len(raw)} bytes, shorter than the header")
    magic, version, t, l, s, d = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise MagicError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise VersionError(f"unsupported version {version}, expected {_VERSION}")
    for name, size in (("T", t), ("L", l), ("S", s), ("D", d)):
        if size == 0:
            raise FormatError(f"header field {name} is 0; every dimension must be positive")

    offset = _HEADER.size
    payload = t * l * s * d * 4
    if len(raw) < offset + payload + 1:
        raise TruncatedError(
            f"payload needs {payload + 1} bytes after header, found {len(raw) - offset}"
        )
    grid = np.frombuffer(raw, dtype="<f4", count=t * l * s * d, offset=offset)
    grid = grid.reshape(t, l, s, d)
    offset += payload
    flag = raw[offset]
    offset += 1
    labels = progression = None
    if flag == 1:
        block = t * 4 * 2
        if len(raw) < offset + block:
            raise TruncatedError(f"label block needs {block} bytes, found {len(raw) - offset}")
        labels = np.frombuffer(raw, dtype="<u4", count=t, offset=offset).astype(np.int64)
        offset += t * 4
        progression = np.frombuffer(raw, dtype="<f4", count=t, offset=offset).copy()
        offset += t * 4
    elif flag != 0:
        raise FormatError(f"label flag must be 0 or 1, got {flag}")
    if offset != len(raw):
        raise FormatError(f"{len(raw) - offset} trailing bytes after the MVFF record")
    _check_finite(grid, "feature", "[frame, layer, token, channel]")
    if progression is not None:
        _check_finite(progression, "progression", "frame")

    if video_id is None:
        video_id = os.path.splitext(os.path.basename(str(path)))[0]
    return VideoFeatures(
        video_id=video_id,
        layers=[np.ascontiguousarray(grid[:, i]) for i in range(l)],
        labels=labels,
        progression=progression,
    )

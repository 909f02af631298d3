"""Flat `key = value` run configuration.

One file drives every command: dataset generation, model construction,
training, and probe settings. Unknown keys are rejected by name, and the
rendered echo of a resolved config is itself a valid config file, so a
run can always be reproduced from its own log.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .features import SyntheticSpec
from .model import ModelConfig
from .training import TrainConfig


class ConfigError(ValueError):
    pass


def _parse_layer_list(text: str) -> tuple[int, ...]:
    try:
        ids = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"layer_select must be comma-separated integers, got {text!r}") from exc
    if not ids:
        raise ConfigError("layer_select must name at least one layer")
    return ids


@dataclass(frozen=True)
class RunConfig:
    # synthetic dataset
    videos: int = 40
    frames: int = 32
    grid: int = 8
    channels: int = 32
    phases: int = 4
    layers: int = 3
    patch: int = 3
    noise: float = 0.1
    data_seed: int = 0
    train_fraction: float = 0.8
    # model
    arch: str = "entity"
    entities: int = 3
    query_dim: int = 64
    value_dim: int = 64
    model_dim: int = 128
    heads: int = 1
    blocks: int = 3
    mlp_ratio: int = 4
    pooling: str = "cls_style"
    pos_scale: float = 1.0
    layer_select: tuple[int, ...] = (0, 1, 2)
    proj_hidden: int = 128
    proj_dim: int = 128
    # training
    view_len: int = 8
    scl_sigma: float = 3.0
    scl_temperature: float = 0.1
    lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    max_steps: int = 300
    batch: int = 4
    seed: int = 0
    # probes
    probe_epochs: int = 500
    probe_lr: float = 1.0
    ridge_lambda: float = 1e-4

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            num_videos=self.videos,
            frames_per_video=self.frames,
            grid_side=self.grid,
            channels=self.channels,
            num_phases=self.phases,
            num_layers=self.layers,
            actor_patch_side=self.patch,
            noise_sigma=self.noise,
            seed=self.data_seed,
        )

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            arch=self.arch,
            num_entities=self.entities,
            num_layers=len(self.layer_select),
            channels=self.channels,
            query_dim=self.query_dim,
            value_dim=self.value_dim,
            model_dim=self.model_dim,
            blocks=self.blocks,
            heads=self.heads,
            mlp_ratio=self.mlp_ratio,
            pooling=self.pooling,
            pos_scale=self.pos_scale,
            proj_hidden=self.proj_hidden,
            proj_dim=self.proj_dim,
        )

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return TrainConfig(
            view_len=self.view_len,
            scl_sigma=self.scl_sigma,
            scl_temperature=self.scl_temperature,
            lr=self.lr,
            beta1=self.beta1,
            beta2=self.beta2,
            adam_eps=self.adam_eps,
            max_steps=self.max_steps,
            batch_size=self.batch,
            seed=self.seed if seed is None else seed,
        )


# Each key is parsed by the type its `RunConfig` field declares; with
# postponed evaluation of annotations, `Field.type` is the annotation text.
_PARSE_AS = {"int": int, "float": float, "str": str, "tuple[int, ...]": _parse_layer_list}
_PARSER_OF = {f.name: _PARSE_AS[f.type] for f in fields(RunConfig)}


def _convert(key: str, text: str):
    try:
        return _PARSER_OF[key](text)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc


def _validate(config: RunConfig) -> RunConfig:
    try:
        config.synthetic_spec()
        config.model_config()
        config.train_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key in ("seed", "data_seed"):
        if getattr(config, key) < 0:
            raise ConfigError(f"{key} must be >= 0, got {getattr(config, key)}")
    if not 0.0 < config.train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {config.train_fraction}")
    for i in config.layer_select:
        if not 0 <= i < config.layers:
            raise ConfigError(
                f"layer_select id {i} out of range for {config.layers} layers")
    if any(b <= a for a, b in zip(config.layer_select, config.layer_select[1:])):
        raise ConfigError(f"layer_select must strictly increase, got {config.layer_select}")
    if config.probe_epochs < 1:
        raise ConfigError(f"probe_epochs must be >= 1, got {config.probe_epochs}")
    return config


def config_from_dict(values: dict[str, object]) -> RunConfig:
    unknown = sorted(set(values).difference(_PARSER_OF))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return _validate(RunConfig(**values))


def parse_config_text(text: str) -> RunConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSER_OF:
            raise ConfigError(f"unknown config key(s): {key}")
        if key in values:
            raise ConfigError(f"duplicate config key: {key}")
        values[key] = _convert(key, value)
    return config_from_dict(values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def render_config(config: RunConfig) -> str:
    """Echo the resolved configuration as a re-parseable config file."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if f.name == "layer_select":
            value = ",".join(str(i) for i in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"

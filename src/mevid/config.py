"""Flat `key = value` run configuration.

One file drives every command: dataset generation, model construction,
training, and probe settings. Unknown keys are rejected by name, and the
rendered echo of a resolved config is itself a valid config file, so a
run can always be reproduced from its own log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .features import SyntheticSpec, check_layer_select
from .model import ModelConfig
from .training import TrainConfig


class ConfigError(ValueError):
    pass


def _parse_layer_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"layer_select must be comma-separated integers, got {text!r}") from exc


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
    ridge_lambda: float = 1e-4

    def _section(self, cls):
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def synthetic_spec(self) -> SyntheticSpec:
        return self._section(SyntheticSpec)

    def model_config(self) -> ModelConfig:
        return self._section(ModelConfig)

    def train_config(self) -> TrainConfig:
        return self._section(TrainConfig)


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
    """Each section checks its own keys; here are the checks that span
    sections or concern keys that belong to none."""
    try:
        config.synthetic_spec()
        config.model_config()
        config.train_config()
        check_layer_select(config.layer_select, config.layers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not 0.0 < config.train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {config.train_fraction}")
    # the floor rule of `pipeline.split_video_ids`
    if math.floor(config.train_fraction * config.videos) < 1:
        raise ConfigError(f"videos {config.videos} with train_fraction "
                          f"{config.train_fraction} leaves the train split empty")
    if config.view_len > config.frames:
        raise ConfigError(f"view_len {config.view_len} exceeds frames {config.frames}")
    # written so that NaN fails the range
    if not 0.0 <= config.ridge_lambda < math.inf:
        raise ConfigError(f"ridge_lambda must be finite and >= 0, got {config.ridge_lambda}")
    return config


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
    return _validate(RunConfig(**values))


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

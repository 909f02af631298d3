import os
import re
from dataclasses import MISSING, fields

import pytest

import mevid
from mevid.cli import main
from mevid.config import ConfigError, RunConfig, parse_config_text
from mevid.features import SyntheticSpec
from mevid.model import ModelConfig
from mevid.training import TrainConfig


def test_every_float_key_takes_a_fraction():
    float_keys = [f.name for f in fields(RunConfig) if f.type == "float"]
    assert "ridge_lambda" in float_keys
    for key in float_keys:
        assert getattr(parse_config_text(f"{key} = 0.5\n"), key) == 0.5


def test_retrieval_k_is_rejected_by_name():
    # retrieval is always scored as AP@5, the name it is reported under
    with pytest.raises(ConfigError, match="retrieval_k"):
        parse_config_text("retrieval_k = 5\n")


@pytest.mark.parametrize("line", ["probe_epochs = 500", "probe_lr = 1.0"])
def test_probe_optimizer_keys_are_rejected_by_name(line, tmp_path, capsys):
    # the probe is fit to its optimum; no optimizer setting reaches it
    with pytest.raises(ConfigError, match=line.split(" = ")[0]):
        parse_config_text(line + "\n")
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
    assert line.split(" = ")[0] in capsys.readouterr().err


# the keys that belong to no section, each read as `config.<key>` by the
# pipeline or the command line
UNSECTIONED_KEYS = ("train_fraction", "ridge_lambda")


def test_every_key_feeds_a_section_or_a_named_reader():
    # a key that feeds nothing fails here: drop it, or give it a reader
    sectioned = {f.name for cls in (SyntheticSpec, ModelConfig, TrainConfig) for f in fields(cls)}
    for key in {f.name for f in fields(RunConfig)} - sectioned:
        assert key in UNSECTIONED_KEYS, f"{key} feeds no section and no listed reader"
    package = os.path.dirname(mevid.__file__)
    source = "".join(open(os.path.join(package, name), encoding="utf-8").read()
                     for name in ("pipeline.py", "cli.py"))
    for key in UNSECTIONED_KEYS:
        assert key not in sectioned, key
        assert re.search(rf"\bconfig\.{key}\b", source), f"nothing reads config.{key}"


@pytest.mark.parametrize("section", [SyntheticSpec, ModelConfig, TrainConfig])
def test_section_fields_are_run_config_keys_without_defaults(section):
    # each key has one name and one default, the one RunConfig declares
    keys = {f.name: f.type for f in fields(RunConfig)}
    for f in fields(section):
        assert keys.get(f.name) == f.type, f.name
        assert f.default is MISSING and f.default_factory is MISSING, f.name


def test_empty_train_split_rejected_by_name():
    # the split floors train_fraction * videos
    with pytest.raises(ConfigError, match="videos 1 with train_fraction 0.8"):
        parse_config_text("videos = 1\n")
    with pytest.raises(ConfigError, match="train_fraction 0.3"):
        parse_config_text("videos = 3\ntrain_fraction = 0.3\n")
    assert parse_config_text("videos = 3\n").videos == 3
    assert parse_config_text("videos = 2\ntrain_fraction = 0.5\n").videos == 2


def test_view_len_above_frames_rejected():
    with pytest.raises(ConfigError, match="view_len 40 exceeds frames 32"):
        parse_config_text("view_len = 40\n")
    assert parse_config_text("view_len = 32\n").view_len == 32

from dataclasses import MISSING, fields

import pytest

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


@pytest.mark.parametrize("section", [SyntheticSpec, ModelConfig, TrainConfig])
def test_section_fields_are_run_config_keys_without_defaults(section):
    # each key has one name and one default, the one RunConfig declares
    keys = {f.name: f.type for f in fields(RunConfig)}
    for f in fields(section):
        assert keys.get(f.name) == f.type, f.name
        assert f.default is MISSING and f.default_factory is MISSING, f.name

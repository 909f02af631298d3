from dataclasses import fields

import pytest

from mevid.config import ConfigError, RunConfig, parse_config_text


def test_every_float_key_takes_a_fraction():
    float_keys = [f.name for f in fields(RunConfig) if f.type == "float"]
    assert "ridge_lambda" in float_keys
    for key in float_keys:
        assert getattr(parse_config_text(f"{key} = 0.5\n"), key) == 0.5


def test_retrieval_k_is_rejected_by_name():
    # retrieval is always scored as AP@5, the name it is reported under
    with pytest.raises(ConfigError, match="retrieval_k"):
        parse_config_text("retrieval_k = 5\n")

import json
import os

import numpy as np
import pytest

from mevid.cli import main

SMALL_CFG = """
# desk-scale smoke configuration
videos = 6
frames = 16
grid = 4
channels = 8
phases = 3
layers = 2
patch = 2
noise = 0.1
layer_select = 0,1
entities = 3
query_dim = 8
value_dim = 8
model_dim = 16
heads = 2
mlp_ratio = 2
proj_hidden = 16
proj_dim = 16
view_len = 4
max_steps = 4
batch = 2
probe_epochs = 50
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def read_bytes_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestGen:
    def test_writes_videos_and_manifest(self, tmp_path, small_config, capsys):
        out = tmp_path / "data"
        assert main(["gen", "--config", small_config, "--out", str(out)]) == 0
        files = sorted(os.listdir(out))
        assert files.count("manifest.json") == 1
        assert sum(f.endswith(".mvff") for f in files) == 6

    def test_split_counts_follow_floor_rule(self, tmp_path, capsys):
        cfg = tmp_path / "forty.cfg"
        cfg.write_text("videos = 40\nframes = 8\ngrid = 2\nchannels = 4\n"
                       "phases = 2\nlayers = 1\npatch = 1\nlayer_select = 0\n")
        out = tmp_path / "data"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        splits = [e["split"] for e in manifest["videos"]]
        assert splits.count("train") == 32
        assert splits.count("test") == 8

    def test_rerun_bit_identical(self, tmp_path, small_config, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--config", small_config, "--out", str(out1)]) == 0
        assert main(["gen", "--config", small_config, "--out", str(out2)]) == 0
        assert read_bytes_tree(out1) == read_bytes_tree(out2)

    def test_resolved_echo_reproduces_run(self, tmp_path, small_config, capsys):
        out1 = tmp_path / "a"
        assert main(["gen", "--config", small_config, "--out", str(out1)]) == 0
        echo = capsys.readouterr().err
        lines = [l for l in echo.splitlines()
                 if "=" in l and not l.startswith("#") and not l.startswith("wrote")]
        cfg2 = tmp_path / "echo.cfg"
        cfg2.write_text("\n".join(lines))
        out2 = tmp_path / "b"
        assert main(["gen", "--config", str(cfg2), "--out", str(out2)]) == 0
        assert read_bytes_tree(out1) == read_bytes_tree(out2)


class TestPipelineCommands:
    @pytest.fixture()
    def trained(self, tmp_path, small_config):
        data = tmp_path / "data"
        ckpt = tmp_path / "model.mvck"
        assert main(["gen", "--config", small_config, "--out", str(data)]) == 0
        assert main(["train", "--config", small_config, "--data", str(data),
                     "--out", str(ckpt)]) == 0
        return data, ckpt

    def test_train_writes_checkpoint_and_trace(self, trained, capsys):
        data, ckpt = trained
        assert ckpt.exists()
        trace = ckpt.parent / (ckpt.name + ".loss.tsv")
        lines = trace.read_text().splitlines()
        assert len(lines) == 4  # max_steps
        step, loss = lines[0].split("\t")
        assert step == "0"
        float(loss)

    def test_eval_prints_exactly_four_metric_keys(self, trained, capsys, small_config):
        data, ckpt = trained
        assert main(["eval", str(ckpt), "--config", small_config,
                     "--data", str(data)]) == 0
        out = capsys.readouterr().out
        metrics = json.loads(out)
        assert set(metrics) == {"classification", "progression", "tau", "retrieval_ap5"}

    def test_attn_writes_one_pgm_per_frame_entity_layer(self, trained, capsys,
                                                        tmp_path, small_config):
        data, ckpt = trained
        maps = tmp_path / "maps"
        assert main(["attn", str(ckpt), "vid0000", "--config", small_config,
                     "--data", str(data), "--out", str(maps)]) == 0
        files = sorted(os.listdir(maps))
        # 16 frames x 3 entities x 2 selected layers
        assert len(files) == 96
        assert files[0].startswith("vid0000_f0_e0_l0")

    def test_checkpoint_config_mismatch_is_runtime_error(self, trained, tmp_path,
                                                         capsys, small_config):
        data, ckpt = trained
        other = tmp_path / "other.cfg"
        other.write_text(SMALL_CFG.replace("entities = 3", "entities = 2"))
        code = main(["eval", str(ckpt), "--config", str(other), "--data", str(data)])
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    def test_attn_unknown_video(self, trained, capsys, small_config):
        data, ckpt = trained
        code = main(["attn", str(ckpt), "nope", "--config", small_config,
                     "--data", str(data), "--out", "x"])
        assert code == 1


class TestTrials:
    def test_table_and_report(self, tmp_path, small_config, capsys):
        report = tmp_path / "report.json"
        assert main(["trials", "--config", small_config, "--seeds", "1,2",
                     "--out", str(report)]) == 0
        table = capsys.readouterr().out
        for name in ("classification", "progression", "tau", "retrieval_ap5"):
            assert name in table
        assert "±" in table
        payload = json.loads(report.read_text())
        assert len(payload["classification"]["values"]) == 2

    def test_single_seed_rejected(self, tmp_path, small_config, capsys):
        assert main(["trials", "--config", small_config, "--seeds", "7"]) == 2


class TestErrors:
    def test_unknown_key_named_and_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for key in ("entties", "epochs"):
            cfg.write_text(f"{key} = 2\n")
            code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")])
            assert code == 1
            assert key in capsys.readouterr().err

    def test_bad_value_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for line in ("videos = many", "max_steps = none", "max_steps = -3", "entities = 0"):
            cfg.write_text(line + "\n")
            assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1

    def test_missing_config_exit_one(self, tmp_path, capsys):
        assert main(["gen", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "d")]) == 1

    def test_usage_error_exit_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("videos = 4\nvideos = 5\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
        assert "duplicate" in capsys.readouterr().err

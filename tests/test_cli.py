import json
import os

import numpy as np
import pytest

from mevid.cli import main
from mevid.features import VideoFeatures, load_mvff, write_mvff

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

    def test_attn_grid_side_comes_from_the_data(self, trained, capsys, tmp_path):
        # the data has 4x4 grids; the model does not depend on `grid`
        data, ckpt = trained
        other = tmp_path / "grid8.cfg"
        other.write_text(SMALL_CFG.replace("grid = 4", "grid = 8"))
        maps = tmp_path / "maps"
        assert main(["attn", str(ckpt), "vid0000", "--config", str(other),
                     "--data", str(data), "--out", str(maps)]) == 0
        files = sorted(os.listdir(maps))
        assert len(files) == 96
        with open(maps / files[0], "rb") as fh:
            assert fh.read().startswith(b"P5\n4 4\n255\n")

    def test_attn_non_square_tokens_exit_one(self, trained, capsys, tmp_path,
                                             small_config):
        data, ckpt = trained
        video = load_mvff(data / "vid0000.mvff")
        cropped = tmp_path / "cropped"
        cropped.mkdir()
        write_mvff(VideoFeatures(video_id="vid0000",
                                 layers=[l[:, :6] for l in video.layers],
                                 labels=video.labels, progression=video.progression),
                   cropped / "vid0000.mvff")
        (cropped / "manifest.json").write_text(json.dumps(
            {"videos": [{"id": "vid0000", "file": "vid0000.mvff", "split": "test"}]}))
        capsys.readouterr()
        assert main(["attn", str(ckpt), "vid0000", "--config", small_config,
                     "--data", str(cropped), "--out", str(tmp_path / "maps")]) == 1
        assert "6 tokens" in capsys.readouterr().err

    def test_attn_reads_only_the_requested_video(self, trained, capsys, tmp_path,
                                                 small_config):
        data, ckpt = trained
        with open(data / "vid0005.mvff", "ab") as fh:
            fh.write(b"junk")
        maps = tmp_path / "maps"
        assert main(["attn", str(ckpt), "vid0000", "--config", small_config,
                     "--data", str(data), "--out", str(maps)]) == 0
        assert len(os.listdir(maps)) == 96

    def test_attn_fixed_width_rejected_before_reading_files(self, tmp_path, capsys):
        cfg = tmp_path / "fixed.cfg"
        cfg.write_text(SMALL_CFG + "arch = fixed_width\n")
        code = main(["attn", str(tmp_path / "none.mvck"), "vid0000", "--config", str(cfg),
                     "--data", str(tmp_path / "no_data"), "--out", str(tmp_path / "maps")])
        assert code == 1
        err = capsys.readouterr().err
        assert "arch" in err and "No such file" not in err

    def test_checkpoint_config_mismatch_is_runtime_error(self, trained, tmp_path,
                                                         capsys, small_config):
        data, ckpt = trained
        other = tmp_path / "other.cfg"
        other.write_text(SMALL_CFG.replace("entities = 3", "entities = 2"))
        code = main(["eval", str(ckpt), "--config", str(other), "--data", str(data)])
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    def test_eval_needs_train_and_two_test_videos_before_reading_files(
            self, tmp_path, capsys, small_config):
        # neither the listed MVFF files nor the checkpoint exist
        data = tmp_path / "data"
        data.mkdir()
        for splits in (["train", "train", "test"], ["test", "test", "test"]):
            (data / "manifest.json").write_text(json.dumps({"videos": [
                {"id": f"v{i}", "file": f"v{i}.mvff", "split": s}
                for i, s in enumerate(splits)]}))
            code = main(["eval", str(tmp_path / "none.mvck"), "--config", small_config,
                         "--data", str(data)])
            assert code == 1
            err = capsys.readouterr().err
            counts = f"{splits.count('train')} train / {splits.count('test')} test"
            assert counts in err and "No such file" not in err

    def test_train_rejects_a_video_shorter_than_view_len_before_step_0(
            self, tmp_path, capsys, small_config, monkeypatch):
        data = tmp_path / "data"
        assert main(["gen", "--config", small_config, "--out", str(data)]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        entry = next(e for e in manifest["videos"] if e["split"] == "train")
        video = load_mvff(data / entry["file"], video_id=entry["id"])
        write_mvff(VideoFeatures(video_id=video.video_id,
                                 layers=[l[:3] for l in video.layers],
                                 labels=video.labels[:3],
                                 progression=video.progression[:3]),
                   data / entry["file"])
        monkeypatch.setattr("mevid.pipeline.train_model", None)
        capsys.readouterr()
        ckpt = tmp_path / "m.mvck"
        assert main(["train", "--config", small_config, "--data", str(data),
                     "--out", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert "view_len 4" in err and f"3 frames of train video {entry['id']!r}" in err
        assert not ckpt.exists()

    def test_train_rejects_a_manifest_without_train_videos(self, tmp_path, capsys,
                                                           small_config):
        data = tmp_path / "data"
        assert main(["gen", "--config", small_config, "--out", str(data)]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        for entry in manifest["videos"]:
            entry["split"] = "test"
        (data / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["train", "--config", small_config, "--data", str(data),
                     "--out", str(tmp_path / "m.mvck")]) == 1
        assert "no train video" in capsys.readouterr().err

    def test_channels_other_than_the_data_exit_one_naming_key_and_video(
            self, tmp_path, capsys, small_config, monkeypatch):
        data = tmp_path / "data"
        assert main(["gen", "--config", small_config, "--out", str(data)]) == 0
        other = tmp_path / "six.cfg"
        other.write_text(SMALL_CFG.replace("channels = 8", "channels = 6"))
        monkeypatch.setattr("mevid.pipeline.train_model", None)
        for argv in (["train", "--out", str(tmp_path / "m.mvck")],
                     ["eval", str(tmp_path / "none.mvck")]):
            capsys.readouterr()
            assert main(argv + ["--config", str(other), "--data", str(data)]) == 1
            err = capsys.readouterr().err
            assert "channels = 6, but video 'vid0000' has 8 channels" in err
            assert "No such file" not in err

    def test_layer_select_past_the_data_layers_exit_one_naming_key_and_video(
            self, tmp_path, capsys, small_config, monkeypatch):
        data = tmp_path / "data"
        assert main(["gen", "--config", small_config, "--out", str(data)]) == 0
        other = tmp_path / "three.cfg"
        other.write_text(SMALL_CFG.replace("layers = 2", "layers = 3")
                         .replace("layer_select = 0,1", "layer_select = 0,2"))
        monkeypatch.setattr("mevid.pipeline.train_model", None)
        capsys.readouterr()
        assert main(["train", "--config", str(other), "--data", str(data),
                     "--out", str(tmp_path / "m.mvck")]) == 1
        assert ("layer_select = 0,2 names a layer past the 2 of video 'vid0000'"
                in capsys.readouterr().err)

    def test_train_videos_of_two_token_grids_exit_one_naming_the_video(
            self, tmp_path, capsys, small_config, monkeypatch):
        data = tmp_path / "data"
        assert main(["gen", "--config", small_config, "--out", str(data)]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        first, second = [e for e in manifest["videos"] if e["split"] == "train"][:2]
        video = load_mvff(data / second["file"], video_id=second["id"])
        write_mvff(VideoFeatures(video_id=video.video_id,
                                 layers=[l[:, :9] for l in video.layers],
                                 labels=video.labels, progression=video.progression),
                   data / second["file"])
        monkeypatch.setattr("mevid.pipeline.train_model", None)
        capsys.readouterr()
        assert main(["train", "--config", small_config, "--data", str(data),
                     "--out", str(tmp_path / "m.mvck")]) == 1
        err = capsys.readouterr().err
        assert "one token grid" in err
        assert f"{second['id']!r} has 9 tokens per frame, {first['id']!r} 16" in err

    def _rewrite_first(self, data, split, frames=None, labeled=True):
        """Rewrite the manifest's first `split` video, cut to `frames` frames
        and optionally without labels; returns its id."""
        manifest = json.loads((data / "manifest.json").read_text())
        entry = next(e for e in manifest["videos"] if e["split"] == split)
        video = load_mvff(data / entry["file"], video_id=entry["id"])
        keep = slice(frames)
        write_mvff(VideoFeatures(video_id=video.video_id,
                                 layers=[l[keep] for l in video.layers],
                                 labels=video.labels[keep] if labeled else None,
                                 progression=video.progression[keep] if labeled else None),
                   data / entry["file"])
        return entry["id"]

    def test_eval_rejects_an_unlabeled_video_before_reading_the_checkpoint(
            self, tmp_path, capsys, small_config):
        data = tmp_path / "data"
        assert main(["gen", "--config", small_config, "--out", str(data)]) == 0
        video_id = self._rewrite_first(data, "train", labeled=False)
        # training needs no labels
        assert main(["train", "--config", small_config, "--data", str(data),
                     "--out", str(tmp_path / "m.mvck")]) == 0
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "none.mvck"), "--config", small_config,
                     "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert f"video {video_id!r} is stored without them" in err
        assert "No such file" not in err

    def test_eval_rejects_a_one_frame_test_video_before_reading_the_checkpoint(
            self, tmp_path, capsys, small_config):
        data = tmp_path / "data"
        assert main(["gen", "--config", small_config, "--out", str(data)]) == 0
        video_id = self._rewrite_first(data, "test", frames=1)
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "none.mvck"), "--config", small_config,
                     "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert f"at least 2 frames per test video, and {video_id!r} has 1" in err
        assert "No such file" not in err

    @pytest.mark.parametrize("case,named", [
        ("test_entry_twice", "videos[6] ('v4') repeats"),
        ("split_Train", "videos[0] ('v0') has split 'Train'"),
        ("no_split", "videos[0] ('v0') has split None"),
        ("top_level_list", "must hold an object with a \"videos\" list"),
        ("cut_short", "manifest.json is not valid JSON"),
        ("not_utf8", "manifest.json is not valid JSON"),
    ], ids=["test_entry_twice", "split_Train", "no_split", "top_level_list", "cut_short",
            "not_utf8"])
    def test_malformed_manifest_rejected_before_reading_any_mvff(
            self, case, named, tmp_path, capsys, small_config, monkeypatch):
        entries = [{"id": f"v{i}", "file": f"v{i}.mvff", "split": "train" if i < 4 else "test"}
                   for i in range(6)]
        if case == "test_entry_twice":
            entries.append(dict(entries[4]))
        elif case == "split_Train":
            entries[0]["split"] = "Train"
        elif case == "no_split":
            del entries[0]["split"]
        manifest = entries if case == "top_level_list" else {"videos": entries}
        data = tmp_path / "data"
        data.mkdir()
        raw = {"cut_short": b'{"videos": [', "not_utf8": b"\xff\xfe{}"}
        (data / "manifest.json").write_bytes(raw.get(case, json.dumps(manifest).encode()))
        monkeypatch.setattr("mevid.cli.load_mvff", None)
        for argv in (["eval", str(tmp_path / "none.mvck")],
                     ["train", "--out", str(tmp_path / "m.mvck")]):
            capsys.readouterr()
            assert main(argv + ["--config", small_config, "--data", str(data)]) == 1
            err = capsys.readouterr().err
            assert named in err and "No such file" not in err

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
        assert main(["trials", "--config", small_config, "--seeds", "7"]) == 1
        assert "--seeds" in capsys.readouterr().err

    def test_repeated_seed_rejected_before_step_0(self, small_config, capsys, monkeypatch):
        monkeypatch.setattr("mevid.pipeline.train_model", None)
        assert main(["trials", "--config", small_config, "--seeds", "1,1"]) == 1
        assert "--seeds repeats a seed: '1,1'" in capsys.readouterr().err

    def test_fewer_than_two_test_videos_rejected_before_step_0(self, tmp_path, capsys,
                                                               monkeypatch):
        cfg = tmp_path / "five.cfg"
        cfg.write_text(SMALL_CFG.replace("videos = 6", "videos = 5"))
        monkeypatch.setattr("mevid.pipeline.train_model", None)
        assert main(["trials", "--config", str(cfg), "--seeds", "1,2"]) == 1
        err = capsys.readouterr().err
        assert "at least 1 train and 2 test videos" in err and "4 train / 1 test" in err


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
        for line in ("videos = many", "max_steps = none", "max_steps = -3", "entities = 0",
                     "seed = -1", "data_seed = -3", "heads = 0"):
            cfg.write_text(line + "\n")
            assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
        capsys.readouterr()
        cfg.write_text("layer_select = \n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
        assert "at least one layer" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "probe_lr = 0", "probe_lr = -1", "ridge_lambda = -1", "adam_eps = -1", "noise = nan",
        "query_dim = 0", "model_dim = 0", "proj_dim = 0", "beta1 = 1.0", "lr = nan",
        "scl_temperature = nan", "pos_scale = nan"])
    def test_value_that_would_run_wrong_is_rejected_by_name(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
        assert line.split(" = ")[0] in capsys.readouterr().err

    def test_negative_seed_override_exit_one(self, small_config, capsys):
        # a negative seed or data_seed in a config file: test_bad_value_exit_one
        assert main(["trials", "--config", small_config, "--seeds=-1,2"]) == 1
        assert "--seeds" in capsys.readouterr().err

    def test_seeds_are_set_only_in_the_config_file(self, tmp_path, small_config, capsys):
        for args in (["gen", "--out", str(tmp_path / "d")],
                     ["train", "--data", str(tmp_path), "--out", str(tmp_path / "m")]):
            assert main([*args, "--config", small_config, "--seed", "3"]) == 1
            assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_missing_config_exit_one(self, tmp_path, capsys):
        assert main(["gen", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "d")]) == 1

    def test_usage_error_exit_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_empty_train_split_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("videos = 1\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert "videos 1" in err and "train_fraction" in err
        assert not (tmp_path / "d").exists()

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("videos = 4\nvideos = 5\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
        assert "duplicate" in capsys.readouterr().err

import builtins
import dataclasses
import errno
import os
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mevid.cli import _write_manifest
from mevid.config import RunConfig
from mevid.features import (
    FormatError,
    MagicError,
    SpecError,
    SyntheticSpec,
    TruncatedError,
    VersionError,
    VideoFeatures,
    _patch_token_indices,
    generate_synthetic_dataset,
    load_mvff,
    select_layers,
    synthetic_layout,
    write_mvff,
)
from mevid.model import Model, load_checkpoint_bytes, save_checkpoint, save_checkpoint_bytes
from mevid.spatial_pooling import export_attention

SMALL = SyntheticSpec(videos=3, frames=16, grid=4, channels=8, phases=3, layers=2,
                      patch=2, noise=0.1, data_seed=7)


def _labels_runs(labels):
    runs = []
    for lab in labels:
        if not runs or runs[-1][0] != lab:
            runs.append([lab, 0])
        runs[-1][1] += 1
    return runs


class TestSyntheticGeneration:
    def test_deterministic(self):
        a = generate_synthetic_dataset(SMALL)
        b = generate_synthetic_dataset(SMALL)
        for va, vb in zip(a, b):
            assert va.video_id == vb.video_id
            for la, lb in zip(va.layers, vb.layers):
                assert np.array_equal(la, lb)
            assert np.array_equal(va.labels, vb.labels)
            assert np.array_equal(va.progression, vb.progression)

    def test_labels_are_contiguous_runs(self):
        for video in generate_synthetic_dataset(SMALL):
            runs = _labels_runs(video.labels)
            assert [r[0] for r in runs] == list(range(SMALL.phases))
            assert all(r[1] >= 2 for r in runs)
            assert sum(r[1] for r in runs) == SMALL.frames

    def test_noiseless_actor_tokens_carry_signature(self):
        spec = dataclasses.replace(SMALL, noise=0.0)
        layout = synthetic_layout(spec)
        videos = generate_synthetic_dataset(spec)
        for video, vl in zip(videos, layout.videos):
            for t in (0, 7, spec.frames - 1):
                tokens = _patch_token_indices(vl.positions[t], spec.grid, spec.patch)
                diff = video.layers[0][t, tokens] - vl.background
                sig = layout.phase_signatures[video.labels[t]]
                assert np.abs(diff - sig).max() < 1e-6
                outside = np.setdiff1d(np.arange(video.num_tokens), tokens)
                bg_diff = video.layers[0][t, outside] - vl.background
                assert np.abs(bg_diff).max() < 1e-6

    def test_noiseless_equal_label_and_position_equal_grids(self):
        # grid == patch pins the actor to (0, 0), so any same-phase frames match
        spec = SyntheticSpec(videos=1, frames=12, grid=2, channels=6, phases=2, layers=2,
                             patch=2, noise=0.0, data_seed=3)
        video = generate_synthetic_dataset(spec)[0]
        same = np.nonzero(video.labels == video.labels[0])[0]
        assert len(same) >= 2
        for layer in video.layers:
            for t in same[1:]:
                assert np.array_equal(layer[same[0]], layer[t])

    def test_progression_matches_boundary_arithmetic(self):
        for video in generate_synthetic_dataset(SMALL):
            labels = video.labels
            t_total = video.num_frames
            for t in range(t_total):
                boundary = t
                while boundary < t_total and labels[boundary] == labels[t]:
                    boundary += 1
                expected = (boundary - t) / t_total
                assert abs(video.progression[t] - expected) < 1e-6
            assert (video.progression > 0).all()
            assert (video.progression <= 1).all()

    def test_first_layer_is_identity_map_of_base(self):
        layout = synthetic_layout(SMALL)
        assert np.array_equal(layout.layer_maps[0], np.eye(SMALL.channels, dtype=np.float32))

    def test_impossible_phase_partition_rejected(self):
        with pytest.raises(SpecError, match="phases"):
            RunConfig(videos=1, frames=5, grid=4, channels=4, phases=3,
                      patch=2).synthetic_spec()

    def test_patch_larger_than_grid_rejected(self):
        with pytest.raises(SpecError):
            RunConfig(videos=1, frames=8, grid=2, channels=4, phases=2,
                      patch=3).synthetic_spec()

    def test_single_phase_rejected(self):
        with pytest.raises(SpecError):
            RunConfig(videos=1, frames=8, grid=2, channels=4, phases=1,
                      patch=1).synthetic_spec()


class TestMvffFormat:
    def _roundtrip(self, tmp_path, video):
        path = tmp_path / f"{video.video_id}.mvff"
        write_mvff(video, path)
        return path, load_mvff(path)

    def test_round_trip_bit_identical(self, tmp_path):
        video = generate_synthetic_dataset(SMALL)[0]
        _, loaded = self._roundtrip(tmp_path, video)
        assert loaded.video_id == video.video_id
        for la, lb in zip(video.layers, loaded.layers):
            assert np.array_equal(la, lb)
        assert np.array_equal(loaded.labels, video.labels)
        assert np.array_equal(loaded.progression, video.progression)
        assert loaded.num_frames == video.num_frames

    def test_byte_accounting(self, tmp_path):
        t, s, d = 2, 4, 3
        video = VideoFeatures(video_id="v", layers=[np.zeros((t, s, d), dtype=np.float32)])
        path = tmp_path / "v.mvff"
        write_mvff(video, path)
        # header 24 + payload T*L*S*D*4 + label flag byte
        assert path.stat().st_size == 24 + t * 1 * s * d * 4 + 1

        labeled = VideoFeatures(
            video_id="v",
            layers=[np.zeros((t, s, d), dtype=np.float32)],
            labels=np.array([0, 1]), progression=np.array([0.5, 0.25], dtype=np.float32))
        write_mvff(labeled, path)
        assert path.stat().st_size == 24 + t * s * d * 4 + 1 + t * 4 + t * 4

    def test_bad_magic(self, tmp_path):
        video = generate_synthetic_dataset(SMALL)[0]
        path, _ = self._roundtrip(tmp_path, video)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(MagicError, match="XXXX"):
            load_mvff(path)

    def test_version_mismatch(self, tmp_path):
        video = generate_synthetic_dataset(SMALL)[0]
        path, _ = self._roundtrip(tmp_path, video)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            load_mvff(path)

    def test_truncated_payload(self, tmp_path):
        video = generate_synthetic_dataset(SMALL)[0]
        path, _ = self._roundtrip(tmp_path, video)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TruncatedError):
            load_mvff(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        video = generate_synthetic_dataset(SMALL)[0]
        path, _ = self._roundtrip(tmp_path, video)
        path.write_bytes(path.read_bytes() + b"junkjunk")
        with pytest.raises(FormatError, match="8 trailing bytes"):
            load_mvff(path)

    def test_non_finite_values_rejected(self, tmp_path):
        video = generate_synthetic_dataset(SMALL)[0]
        path, _ = self._roundtrip(tmp_path, video)
        clean = path.read_bytes()
        t, l, s, d = video.num_frames, len(video.layers), *video.layers[0].shape[1:]
        header, payload = 24, t * l * s * d * 4
        for offset, value, message in [
            (header, np.nan, r"1 non-finite feature values; .* = \[0, 0, 0, 0\]"),
            (header + 4 * (l * s * d + s * d + 2), np.inf,
             r"1 non-finite feature values; .* = \[1, 1, 0, 2\]"),
            (header + payload + 1 + 4 * t + 4 * 3, -np.inf,
             r"1 non-finite progression values; .* = \[3\]"),
        ]:
            raw = bytearray(clean)
            raw[offset:offset + 4] = np.float32(value).tobytes()
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatError, match=message):
                load_mvff(path)

    @pytest.mark.parametrize("field", ["T", "L", "S", "D"])
    def test_zero_dimension_rejected(self, tmp_path, field):
        dims = {"T": 2, "L": 1, "S": 1, "D": 1, field: 0}
        path = tmp_path / "zero.mvff"
        path.write_bytes(struct.pack("<4sIIIII", b"MVFF", 1, dims["T"], dims["L"],
                                     dims["S"], dims["D"]) + b"\x00")
        with pytest.raises(FormatError, match=f"field {field} is 0"):
            load_mvff(path)

    def test_bad_label_flag(self, tmp_path):
        t, s, d = 2, 1, 1
        video = VideoFeatures(video_id="v", layers=[np.zeros((t, s, d), dtype=np.float32)])
        path = tmp_path / "v.mvff"
        write_mvff(video, path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="flag"):
            load_mvff(path)

    def test_labels_without_progression_rejected(self, tmp_path):
        video = VideoFeatures(video_id="v",
                              layers=[np.zeros((2, 1, 1), dtype=np.float32)],
                              labels=np.array([0, 1]))
        with pytest.raises(ValueError, match="together"):
            write_mvff(video, tmp_path / "v.mvff")

    @given(
        t=st.integers(2, 8), l=st.integers(1, 3), s=st.integers(1, 16),
        d=st.integers(1, 16), labeled=st.booleans(), seed=st.integers(0, 2 ** 16),
    )
    def test_round_trip_property(self, tmp_path_factory, t, l, s, d, labeled, seed):
        rng = np.random.default_rng(seed)
        video = VideoFeatures(
            video_id="prop",
            layers=[rng.standard_normal((t, s, d)).astype(np.float32) for _ in range(l)],
            labels=rng.integers(0, 4, t) if labeled else None,
            progression=rng.uniform(0, 1, t).astype(np.float32) if labeled else None)
        path = tmp_path_factory.mktemp("mvff") / "prop.mvff"
        write_mvff(video, path)
        loaded = load_mvff(path)
        for la, lb in zip(video.layers, loaded.layers):
            assert np.array_equal(la, lb)
        if labeled:
            assert np.array_equal(loaded.labels, video.labels)
            assert np.array_equal(loaded.progression, video.progression)
        else:
            assert loaded.labels is None and loaded.progression is None


class TestSelectLayers:
    def test_select_all_is_identity(self):
        video = generate_synthetic_dataset(SMALL)[0]
        out = select_layers(video, [0, 1])
        assert out.num_layers == video.num_layers
        for la, lb in zip(out.layers, video.layers):
            assert np.array_equal(la, lb)

    def test_select_last(self):
        spec = dataclasses.replace(SMALL, layers=3)
        video = generate_synthetic_dataset(spec)[0]
        out = select_layers(video, [2])
        assert out.num_layers == 1
        assert np.array_equal(out.layers[0], video.layers[2])

    def test_out_of_range_rejected(self):
        spec = dataclasses.replace(SMALL, layers=3)
        video = generate_synthetic_dataset(spec)[0]
        with pytest.raises(ValueError, match="out of range"):
            select_layers(video, [1, 3])

    def test_non_increasing_rejected(self):
        video = generate_synthetic_dataset(SMALL)[0]
        with pytest.raises(ValueError, match="increasing"):
            select_layers(video, [1, 0])


class _DiskFullAfter:
    """A binary file that takes `room` bytes, then fails as a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, data):
        data = bytes(data)
        if len(data) > self.room:
            self.fh.write(data[: self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _full_disk_open(room):
    real_open = builtins.open

    def fake_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _DiskFullAfter(fh, room) if mode[0] in "wx" and "b" in mode else fh

    return fake_open


TINY = RunConfig(entities=2, layer_select=(0,), channels=4, query_dim=2, value_dim=2,
                 model_dim=4, blocks=1, mlp_ratio=1, proj_hidden=2, proj_dim=2)


class TestAtomicWrites:
    @pytest.mark.parametrize("room", [0, 30, 500])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, room):
        videos = generate_synthetic_dataset(SMALL)[:2]
        models = [Model(TINY.model_config(), np.random.default_rng(i)) for i in range(2)]
        # ten entries, about 900 bytes, so every `room` fails mid-file
        manifests = [[{"id": f"vid{j:04d}", "file": f"vid{j:04d}.mvff", "split": "train"}
                      for j in range(i, i + 10)] for i in range(2)]
        maps = [np.random.default_rng(i).random((32, 32)) for i in range(2)]
        writers = {"v.mvff": lambda path, i: write_mvff(videos[i], path),
                   "m.mvck": lambda path, i: save_checkpoint(models[i], path),
                   "manifest.json": lambda path, i: _write_manifest(path.parent, manifests[i]),
                   # 1,037 bytes, so every `room` fails mid-file too
                   "a.pgm": lambda path, i: export_attention(maps[i], path)}
        for name, write in writers.items():
            folder = tmp_path / name.replace(".", "_")
            folder.mkdir()
            path = folder / name
            write(path, 0)
            before = path.read_bytes()
            with monkeypatch.context() as m:
                m.setattr(builtins, "open", _full_disk_open(room))
                with pytest.raises(OSError, match="No space"):
                    write(path, 1)
            assert path.read_bytes() == before, name
            assert os.listdir(folder) == [name]
            write(path, 1)
            assert path.read_bytes() != before
            assert os.listdir(folder) == [name]


class TestParserFuzz:
    @given(st.sampled_from(["mvck", "mvff"]), st.data())
    def test_mutated_files_parse_or_raise_value_error(self, tmp_path_factory, fmt, data):
        """Truncated, bit-flipped or extended MVCK and MVFF bytes either load
        or raise `ValueError` (`FormatError` is one); nothing else escapes."""
        rng = np.random.default_rng(0)
        path = tmp_path_factory.mktemp("fuzz") / "v.mvff"
        if fmt == "mvck":
            raw = save_checkpoint_bytes(Model(TINY.model_config(), rng))
        else:
            write_mvff(VideoFeatures(
                video_id="v",
                layers=[rng.standard_normal((3, 2, 2)).astype(np.float32) for _ in range(2)],
                labels=np.array([0, 1, 1]),
                progression=np.array([0.0, 0.5, 1.0], dtype=np.float32)), path)
            raw = path.read_bytes()
        mutated = bytearray(raw)
        # half the flips land in the first 32 bytes, where the headers are
        position = st.one_of(st.integers(0, 31), st.integers(0, len(raw) - 1))
        for pos, bit in data.draw(st.lists(st.tuples(position, st.integers(0, 7)),
                                           max_size=4)):
            mutated[pos] ^= 1 << bit
        cut = data.draw(st.one_of(st.none(), st.integers(0, len(raw))))
        mutated = mutated[:cut] + data.draw(st.binary(max_size=12))
        try:
            if fmt == "mvck":
                load_checkpoint_bytes(bytes(mutated))
            else:
                path.write_bytes(bytes(mutated))
                load_mvff(path)
        except ValueError:
            pass

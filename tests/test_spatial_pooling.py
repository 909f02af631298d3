import dataclasses
import math

import numpy as np
import pytest

from mevid import spatial_pooling as sp
from mevid import tensor as T
from mevid.config import RunConfig
from mevid.features import VideoFeatures
from mevid.model import Model
from mevid.tensor import Tape, Tensor, grad_check


def make_features(rng, t=3, s=16, d=8, layers=2):
    return VideoFeatures(
        video_id="v",
        layers=[rng.standard_normal((t, s, d)).astype(np.float32) for _ in range(layers)])


def one_sequence(layers):
    """[T, S, D] grids as a batch of one sequence."""
    return [layer[None] for layer in layers]


def make_params(rng, layers=2, d=8, e=2, d_q=4, d_v=4, d_model=6):
    config = RunConfig(layer_select=tuple(range(layers)), channels=d, entities=e,
                       query_dim=d_q, value_dim=d_v, model_dim=d_model).model_config()
    return sp.init_pooling_params(rng, config)


class TestExtractEntities:
    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        _, maps = sp.extract_entities_from_arrays(one_sequence(make_features(rng).layers),
                                                  make_params(rng))
        for att in maps:
            assert np.abs(att.sum(axis=2) - 1.0).max() < 1e-5
            assert (att >= 0).all()

    def test_identical_tokens_make_queries_irrelevant(self):
        rng = np.random.default_rng(1)
        t, s, d = 2, 10, 8
        token = rng.standard_normal(d).astype(np.float32)
        layers = [np.tile(token, (t, s, 1)) for _ in range(2)]
        video = VideoFeatures(video_id="v", layers=layers)
        params_a = make_params(np.random.default_rng(2))
        params_b = make_params(np.random.default_rng(3))
        # same projections, different queries
        for l in range(2):
            for name in (f"pool.layer{l}.key_proj", f"pool.layer{l}.value_proj"):
                params_b[name].data = params_a[name].data.copy()
        params_b["pool.out_proj"].data = params_a["pool.out_proj"].data.copy()

        out_a = sp.extract_entities_from_arrays(one_sequence(video.layers), params_a)[0].data
        out_b = sp.extract_entities_from_arrays(one_sequence(video.layers), params_b)[0].data
        assert np.abs(out_a - out_b).max() < 1e-5

        # and the value equals the token's projections pushed through out_proj
        parts = [token @ params_a[f"pool.layer{l}.value_proj"].data for l in range(2)]
        expected = np.concatenate(parts) @ params_a["pool.out_proj"].data
        assert np.abs(out_a - expected).max() < 1e-4

    def test_saturated_token_dominates(self):
        # W_K = identity, one token aligned with the query at magnitude 100,
        # all others orthogonal: attention collapses onto that token.
        rng = np.random.default_rng(4)
        d = d_q = 4
        params = make_params(rng, 1, d, 1, d_q, 3, 3)
        params["pool.layer0.key_proj"].data = np.eye(d, dtype=np.float32)
        q = params["pool.layer0.queries"].data[0]
        q_unit = q / np.linalg.norm(q)
        basis = np.linalg.svd(np.outer(q_unit, q_unit))[0][:, 1:]  # orthogonal complement
        tokens = np.zeros((1, 5, d), dtype=np.float32)
        tokens[0, 0] = 100.0 * q
        for j in range(1, 5):
            tokens[0, j] = basis[:, (j - 1) % 3]
        video = VideoFeatures(video_id="v", layers=[tokens])
        out, _ = sp.extract_entities_from_arrays(one_sequence(video.layers), params)
        expected = ((tokens[0, 0] @ params["pool.layer0.value_proj"].data)
                    @ params["pool.out_proj"].data)
        assert np.abs(out.data[0, 0] - expected).max() < 1e-4

    def test_time_constancy(self):
        rng = np.random.default_rng(5)
        frame = rng.standard_normal((1, 12, 8)).astype(np.float32)
        layers = [np.concatenate([frame, frame], axis=0) for _ in range(2)]
        video = VideoFeatures(video_id="v", layers=layers)
        out, _ = sp.extract_entities_from_arrays(one_sequence(video.layers), make_params(rng))
        e = 2  # make_params' entity count
        assert np.array_equal(out.data[0, :e], out.data[0, e:])

    def test_token_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        video = make_features(rng, t=2, s=9)
        params = make_params(rng)
        perm = rng.permutation(9)
        permuted = VideoFeatures(video_id="v", layers=[layer[:, perm] for layer in video.layers])
        base, base_maps = sp.extract_entities_from_arrays(one_sequence(video.layers), params)
        swapped, swapped_maps = sp.extract_entities_from_arrays(one_sequence(permuted.layers),
                                                                params)
        assert np.abs(base.data - swapped.data).max() < 1e-6
        for att_a, att_b in zip(base_maps, swapped_maps):
            assert np.abs(att_a[:, :, perm] - att_b).max() < 1e-7

    def test_no_saturation_at_init(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            s, d = 16, 8
            grids = rng.standard_normal((3, s, d))
            grids /= np.linalg.norm(grids, axis=2, keepdims=True)  # unit-norm tokens
            video = VideoFeatures(video_id="v", layers=[grids.astype(np.float32)])
            params = make_params(rng, 1, d, 3, 8, 8, 8)
            _, maps = sp.extract_entities_from_arrays(one_sequence(video.layers), params)
            assert maps[0].max() < 0.9

    def test_gradients(self):
        rng = np.random.default_rng(7)
        video = make_features(rng, t=2, s=4, d=5)
        params = make_params(rng, 2, 5, 2, 3, 3, 4)

        def f(p):
            out, _ = sp.extract_entities_from_arrays(one_sequence(video.layers), p)
            from mevid import tensor as T
            return T.sum_all(T.mul(out, out))

        report = grad_check(f, params)
        assert report.passed and report.max_rel_error < 1e-5, report

    def test_layer_count_mismatch(self):
        rng = np.random.default_rng(8)
        video = make_features(rng, layers=1)
        with pytest.raises(ValueError, match="layers"):
            sp.extract_entities_from_arrays(one_sequence(video.layers), make_params(rng, layers=2))

    def test_channel_mismatch(self):
        rng = np.random.default_rng(9)
        video = make_features(rng, d=6)
        with pytest.raises(ValueError, match="channels"):
            sp.extract_entities_from_arrays(one_sequence(video.layers), make_params(rng, d=8))

    def test_single_entity_gradients(self):
        rng = np.random.default_rng(13)
        video = make_features(rng, t=2, s=4, d=5, layers=1)
        params = make_params(rng, 1, 5, 1, 3, 3, 4)

        def f(p):
            out, _ = sp.extract_entities_from_arrays(one_sequence(video.layers), p)
            from mevid import tensor as T
            return T.sum_all(T.mul(out, out))

        report = grad_check(f, params)
        assert report.passed and report.max_rel_error < 1e-5, report


def keys_first_entities(layers, params):
    """The pooling before reassociation: k = x W_k and v = x W_v over every
    token, then softmax(q k^T s) v at the same scale s."""
    b, t, s, d = layers[0].shape
    queries = params["pool.layer0.queries"]
    score_scale = sp.POOL_SCORE_SCALE / math.sqrt(queries.shape[1])
    per_layer, maps = [], []
    for l, layer in enumerate(layers):
        pre = f"pool.layer{l}."
        x = Tensor(layer.reshape(b * t, s, d))
        k = T.matmul(x, params[pre + "key_proj"])
        v = T.matmul(x, params[pre + "value_proj"])
        scores = T.matmul(params[pre + "queries"], T.swap_last(k))
        weights = T.softmax(T.scale(scores, score_scale), axis=-1)
        per_layer.append(T.matmul(weights, v, high_precision=True))
        maps.append(weights.data)
    stacked = T.concat(per_layer, axis=2)
    flat = T.reshape(stacked, (b, -1, stacked.shape[2]))
    return T.matmul(flat, params["pool.out_proj"]), maps


class TestReassociatedPooling:
    def test_matches_keys_first_formula(self):
        # the default pooling shapes: 3 layers of 8x8 tokens, 32 channels,
        # E = 3, d_q = d_v = 64; two sequences of four frames
        rng = np.random.default_rng(21)
        config = RunConfig().model_config()
        params = sp.init_pooling_params(rng, config)
        layers = [rng.standard_normal((2, 4, 64, 32)).astype(np.float32) for _ in range(3)]
        up = rng.standard_normal((2, 4 * 3, config.model_dim)).astype(np.float32)

        def run(extract):
            for p in params.values():
                p.zero_grad()
            with Tape() as tape:
                tokens, maps = extract(layers, params)
                loss = T.sum_all(T.mul(tokens, Tensor(up)))
            tape.backward(loss)
            return tokens.data, maps, {n: p.grad.copy() for n, p in params.items()}

        tokens, maps, grads = run(sp.extract_entities_from_arrays)
        ref_tokens, ref_maps, ref_grads = run(keys_first_entities)
        assert np.abs(tokens - ref_tokens).max() <= 1e-5 * np.abs(ref_tokens).max()
        for att, ref in zip(maps, ref_maps, strict=True):
            assert att.shape == ref.shape
            assert np.abs(att - ref).max() <= 1e-6
        largest = max(float(np.abs(g).max()) for g in ref_grads.values())
        assert list(grads) == list(ref_grads)
        gaps = {n: float(np.abs(grads[n] - ref_grads[n]).max()) for n in grads}
        assert max(gaps.values()) <= 1e-5 * largest, gaps


class TestAttentionExport:
    def test_constant_map_renders_mid_gray(self, tmp_path):
        path = tmp_path / "c.pgm"
        sp.export_attention(np.full((4, 4), 1 / 16), path)
        raw = path.read_bytes()
        header = b"P5\n4 4\n255\n"
        assert raw[: len(header)] == header
        assert raw[len(header):] == bytes([128] * 16)

    def test_payload_size_for_grid_8(self, tmp_path):
        rng = np.random.default_rng(0)
        v = rng.uniform(0.5, 1.0, (8, 8))
        path = tmp_path / "g.pgm"
        sp.export_attention(v / v.sum(), path)
        raw = path.read_bytes()
        header = b"P5\n8 8\n255\n"
        assert len(raw) == len(header) + 64

    def test_one_hot_map(self, tmp_path):
        v = np.zeros((4, 4))
        v[1, 2] = 1.0
        path = tmp_path / "h.pgm"
        sp.export_attention(v, path)
        pixels = np.frombuffer(path.read_bytes()[len(b"P5\n4 4\n255\n"):], dtype=np.uint8)
        assert sorted(pixels.tolist())[-1] == 255
        assert (pixels == 255).sum() == 1
        assert (pixels == 0).sum() == 15

    def test_model_extract_gives_one_t_e_s_map_per_layer(self):
        rng = np.random.default_rng(1)
        video = make_features(rng, t=3, s=16)
        config = RunConfig(layer_select=(0, 1), channels=8, entities=2, query_dim=4,
                           value_dim=4, model_dim=6).model_config()
        model = Model(config, rng)
        maps = model.extract(video)
        assert len(maps) == 2
        for layer, att in enumerate(maps):
            assert att.shape == (3, 2, 16)
            assert np.abs(att.sum(axis=2) - 1.0).max() < 1e-5
            # row t is frame t
            alone = model.extract(VideoFeatures(video_id="v", layers=[
                l[1:2] for l in video.layers]))[layer]
            assert np.abs(att[1] - alone[0]).max() < 1e-6
        with pytest.raises(ValueError, match="entity architecture"):
            Model(dataclasses.replace(config, arch="fixed_width"), rng).extract(video)

import numpy as np
import pytest

from mevid import spatial_pooling as sp
from mevid.features import VideoFeatures
from mevid.tensor import grad_check


def make_features(rng, t=3, s=16, d=8, layers=2):
    return VideoFeatures(
        video_id="v", num_frames=t,
        layers=[rng.standard_normal((t, s, d)).astype(np.float32) for _ in range(layers)],
        timestamps=np.arange(t))


def make_params(rng, layers=2, d=8, e=2, d_q=4, d_v=4, d_model=6):
    return sp.init_pooling_params(rng, layers, d, e, d_q, d_v, d_model)


class TestExtractEntities:
    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        ents = sp.extract_entities_from_arrays(make_features(rng).layers, make_params(rng))
        for layer in range(2):
            att = ents.attention_array(layer)
            assert np.abs(att.sum(axis=2) - 1.0).max() < 1e-5
            assert (att >= 0).all()

    def test_identical_tokens_make_queries_irrelevant(self):
        rng = np.random.default_rng(1)
        t, s, d = 2, 10, 8
        token = rng.standard_normal(d).astype(np.float32)
        layers = [np.tile(token, (t, s, 1)) for _ in range(2)]
        video = VideoFeatures(video_id="v", num_frames=t, layers=layers,
                              timestamps=np.arange(t))
        params_a = make_params(np.random.default_rng(2))
        params_b = make_params(np.random.default_rng(3))
        # same projections, different queries
        for l in range(2):
            params_b.key_proj[l].data = params_a.key_proj[l].data.copy()
            params_b.value_proj[l].data = params_a.value_proj[l].data.copy()
        params_b.out_proj.data = params_a.out_proj.data.copy()

        out_a = sp.extract_entities_from_arrays(video.layers, params_a).features.data
        out_b = sp.extract_entities_from_arrays(video.layers, params_b).features.data
        assert np.abs(out_a - out_b).max() < 1e-5

        # and the value equals the token's projections pushed through out_proj
        parts = [token @ params_a.value_proj[l].data for l in range(2)]
        expected = np.concatenate(parts) @ params_a.out_proj.data
        assert np.abs(out_a - expected).max() < 1e-4

    def test_saturated_token_dominates(self):
        # W_K = identity, one token aligned with the query at magnitude 100,
        # all others orthogonal: attention collapses onto that token.
        rng = np.random.default_rng(4)
        d = d_q = 4
        params = sp.init_pooling_params(rng, 1, d, 1, d_q, 3, 3)
        params.key_proj[0].data = np.eye(d, dtype=np.float32)
        q = params.queries[0].data[0]
        q_unit = q / np.linalg.norm(q)
        basis = np.linalg.svd(np.outer(q_unit, q_unit))[0][:, 1:]  # orthogonal complement
        tokens = np.zeros((1, 5, d), dtype=np.float32)
        tokens[0, 0] = 100.0 * q
        for j in range(1, 5):
            tokens[0, j] = basis[:, (j - 1) % 3]
        video = VideoFeatures(video_id="v", num_frames=1, layers=[tokens],
                              timestamps=np.arange(1))
        ents = sp.extract_entities_from_arrays(video.layers, params)
        expected = (tokens[0, 0] @ params.value_proj[0].data) @ params.out_proj.data
        assert np.abs(ents.features.data[0] - expected).max() < 1e-4

    def test_time_constancy(self):
        rng = np.random.default_rng(5)
        frame = rng.standard_normal((1, 12, 8)).astype(np.float32)
        layers = [np.concatenate([frame, frame], axis=0) for _ in range(2)]
        video = VideoFeatures(video_id="v", num_frames=2, layers=layers,
                              timestamps=np.arange(2))
        ents = sp.extract_entities_from_arrays(video.layers, make_params(rng))
        e = ents.num_entities
        assert np.array_equal(ents.features.data[:e], ents.features.data[e:])

    def test_token_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        video = make_features(rng, t=2, s=9)
        params = make_params(rng)
        perm = rng.permutation(9)
        permuted = VideoFeatures(
            video_id="v", num_frames=2,
            layers=[layer[:, perm] for layer in video.layers],
            timestamps=np.arange(2))
        base = sp.extract_entities_from_arrays(video.layers, params)
        swapped = sp.extract_entities_from_arrays(permuted.layers, params)
        assert np.abs(base.features.data - swapped.features.data).max() < 1e-6
        for layer in range(2):
            att_a = base.attention_array(layer)[:, :, perm]
            att_b = swapped.attention_array(layer)
            assert np.abs(att_a - att_b).max() < 1e-7

    def test_no_saturation_at_init(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            s, d = 16, 8
            grids = rng.standard_normal((3, s, d))
            grids /= np.linalg.norm(grids, axis=2, keepdims=True)  # unit-norm tokens
            video = VideoFeatures(video_id="v", num_frames=3,
                                  layers=[grids.astype(np.float32)],
                                  timestamps=np.arange(3))
            params = sp.init_pooling_params(rng, 1, d, 3, 8, 8, 8)
            ents = sp.extract_entities_from_arrays(video.layers, params)
            assert ents.attention_array(0).max() < 0.9

    def test_gradients(self):
        rng = np.random.default_rng(7)
        video = make_features(rng, t=2, s=4, d=5)
        params = sp.init_pooling_params(rng, 2, 5, 2, 3, 3, 4)
        named = params.named()

        def f(p):
            rebuilt = sp.PoolingParams(
                queries=[p[f"pool.layer{l}.queries"] for l in range(2)],
                key_proj=[p[f"pool.layer{l}.key_proj"] for l in range(2)],
                value_proj=[p[f"pool.layer{l}.value_proj"] for l in range(2)],
                out_proj=p["pool.out_proj"])
            out = sp.extract_entities_from_arrays(video.layers, rebuilt)
            from mevid import tensor as T
            return T.sum_all(T.mul(out.features, out.features))

        report = grad_check(f, named)
        assert report.passed and report.max_rel_error < 1e-5, report

    def test_layer_count_mismatch(self):
        rng = np.random.default_rng(8)
        video = make_features(rng, layers=1)
        with pytest.raises(ValueError, match="layers"):
            sp.extract_entities_from_arrays(video.layers, make_params(rng, layers=2))

    def test_channel_mismatch(self):
        rng = np.random.default_rng(9)
        video = make_features(rng, d=6)
        with pytest.raises(ValueError, match="channels"):
            sp.extract_entities_from_arrays(video.layers, make_params(rng, d=8))

    def test_single_entity_gradients(self):
        rng = np.random.default_rng(13)
        video = make_features(rng, t=2, s=4, d=5, layers=1)
        params = sp.init_pooling_params(rng, 1, 5, 1, 3, 3, 4)

        def f(p):
            rebuilt = sp.PoolingParams(
                queries=[p["pool.layer0.queries"]],
                key_proj=[p["pool.layer0.key_proj"]],
                value_proj=[p["pool.layer0.value_proj"]],
                out_proj=p["pool.out_proj"])
            out = sp.extract_entities_from_arrays(video.layers, rebuilt)
            from mevid import tensor as T
            return T.sum_all(T.mul(out.features, out.features))

        report = grad_check(f, params.named())
        assert report.passed and report.max_rel_error < 1e-5, report


class TestAttentionExport:
    def test_constant_map_renders_mid_gray(self, tmp_path):
        amap = sp.AttentionMap(4, np.full((4, 4), 1 / 16))
        path = tmp_path / "c.pgm"
        sp.export_attention(amap, path)
        raw = path.read_bytes()
        header = b"P5\n4 4\n255\n"
        assert raw[: len(header)] == header
        assert raw[len(header):] == bytes([128] * 16)

    def test_payload_size_for_grid_8(self, tmp_path):
        rng = np.random.default_rng(0)
        v = rng.uniform(0.5, 1.0, (8, 8))
        amap = sp.AttentionMap(8, v / v.sum())
        path = tmp_path / "g.pgm"
        sp.export_attention(amap, path)
        raw = path.read_bytes()
        header = b"P5\n8 8\n255\n"
        assert len(raw) == len(header) + 64

    def test_one_hot_map(self, tmp_path):
        v = np.zeros((4, 4))
        v[1, 2] = 1.0
        amap = sp.AttentionMap(4, v)
        path = tmp_path / "h.pgm"
        sp.export_attention(amap, path)
        pixels = np.frombuffer(path.read_bytes()[len(b"P5\n4 4\n255\n"):], dtype=np.uint8)
        assert sorted(pixels.tolist())[-1] == 255
        assert (pixels == 255).sum() == 1
        assert (pixels == 0).sum() == 15

    def test_map_validation(self):
        with pytest.raises(ValueError):
            sp.AttentionMap(3, np.full((3, 3), 1.0))  # sums to 9
        with pytest.raises(ValueError):
            sp.AttentionMap(2, np.full((3, 3), 1 / 9))  # wrong side

    def test_attention_map_from_entity_set(self):
        rng = np.random.default_rng(1)
        video = make_features(rng, s=16)
        ents = sp.extract_entities_from_arrays(video.layers, make_params(rng))
        amap = sp.attention_map(ents, frame=1, entity=0, layer=1, grid_side=4)
        assert amap.values.shape == (4, 4)
        assert abs(amap.values.sum() - 1.0) < 1e-5

import struct

import numpy as np
import pytest

from mevid import temporal_fusion as tf
from mevid import tensor as T
from mevid.model import (
    Model,
    ModelConfig,
    load_checkpoint_bytes,
    save_checkpoint_bytes,
)
from mevid.spatial_pooling import EntitySet
from mevid.tensor import Tensor, grad_check

CFG = tf.FusionConfig(num_entities=3, model_dim=8, blocks=3, heads=2, mlp_ratio=2)


def entity_set(rng, t=4, e=3, d=8):
    feats = rng.standard_normal((t * e, d)).astype(np.float32)
    return EntitySet(features=Tensor(feats), num_frames=t, num_entities=e, attention=[])


class TestBuildFrameTokens:
    def test_id_suffix(self):
        rng = np.random.default_rng(0)
        ents = entity_set(rng)
        tokens = tf.build_frame_tokens(ents, CFG, np.arange(4)).data
        assert tokens.shape == (12, CFG.model_dim + 3)
        # position code is zero on the ID coordinates, so the suffix survives
        ids = tokens[:, CFG.model_dim:]
        assert np.array_equal(ids, np.tile(np.eye(3, dtype=np.float32), (4, 1)))
        assert np.array_equal(ids[0], [1.0, 0.0, 0.0])

    def test_frame_zero_code_is_sin0_cos1(self):
        rng = np.random.default_rng(1)
        ents = entity_set(rng, t=2)
        tokens = tf.build_frame_tokens(ents, CFG, np.arange(2)).data
        pe0 = tokens[0, : CFG.model_dim] - ents.features.data[0]
        assert np.allclose(pe0[0::2], 0.0, atol=1e-6)
        assert np.allclose(pe0[1::2], 1.0, atol=1e-6)

    def test_identical_frames_differ_only_by_position_code(self):
        rng = np.random.default_rng(2)
        frame = rng.standard_normal((3, CFG.model_dim)).astype(np.float32)
        ents = EntitySet(features=Tensor(np.tile(frame, (2, 1))), num_frames=2,
                         num_entities=3, attention=[])
        tokens = tf.build_frame_tokens(ents, CFG, np.arange(2)).data
        diff = tokens[3:] - tokens[:3]
        assert np.allclose(diff, diff[0], atol=1e-6)  # same shift for all entities
        assert np.allclose(diff[:, CFG.model_dim:], 0.0)

    def test_entity_count_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="E="):
            tf.build_frame_tokens(entity_set(rng, e=2), CFG, np.arange(4))


class TestFusion:
    def _params(self, seed=0):
        return tf.init_fusion_params(np.random.default_rng(seed), CFG)

    def test_token_count_preserved(self):
        params = self._params()
        for t, e in [(2, 3), (5, 3)]:
            rng = np.random.default_rng(t)
            tokens = tf.build_frame_tokens(entity_set(rng, t=t, e=e),
                                           CFG, np.arange(t))
            out = tf.fuse_tokens(tokens, CFG, params)
            assert out.shape == (t * e, CFG.model_dim)

    def test_within_frame_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        params = self._params()
        t, e = 5, 3
        tokens = tf.build_frame_tokens(entity_set(rng, t=t), CFG, np.arange(t)).data
        perm = np.arange(t * e).reshape(t, e)[:, [0, 2, 1]].reshape(-1)
        base = tf.fuse_tokens(Tensor(tokens), CFG, params).data
        swapped = tf.fuse_tokens(Tensor(tokens[perm]), CFG, params).data
        assert np.array_equal(base[perm], swapped)

    def test_cls_pooling_bitwise_invariant_fixing_entity_zero(self):
        rng = np.random.default_rng(5)
        params = self._params()
        t, e = 5, 3
        tokens = tf.build_frame_tokens(entity_set(rng, t=t), CFG, np.arange(t)).data
        perm = np.arange(t * e).reshape(t, e)[:, [0, 2, 1]].reshape(-1)
        pool = lambda arr: tf.pool_output(
            tf.fuse_tokens(Tensor(arr), CFG, params), t, e, "cls_style").data
        assert np.array_equal(pool(tokens), pool(tokens[perm]))

    def test_average_pooling_invariant_any_permutation(self):
        rng = np.random.default_rng(6)
        params = self._params()
        t, e = 4, 3
        tokens = tf.build_frame_tokens(entity_set(rng, t=t), CFG, np.arange(t)).data
        perm = np.arange(t * e).reshape(t, e)[:, [2, 0, 1]].reshape(-1)
        pool = lambda arr: tf.pool_output(
            tf.fuse_tokens(Tensor(arr), CFG, params), t, e, "average").data
        assert np.abs(pool(tokens) - pool(tokens[perm])).max() < 1e-6

    def test_gradients_through_build_fuse_pool(self):
        small = tf.FusionConfig(num_entities=2, model_dim=4, blocks=2, heads=2,
                                mlp_ratio=2)
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((4 * 2, 4)).astype(np.float32)
        params = tf.init_fusion_params(rng, small)
        named = params.named()

        def f(p):
            rebuilt = tf.FusionParams(
                input_w=p["fusion.input.w"], input_b=p["fusion.input.b"],
                blocks=[tf.BlockParams(**{
                    fname: p[f"fusion.block{i}.{fname}"]
                    for fname in tf.BlockParams.__dataclass_fields__})
                    for i in range(small.blocks)],
                final_gamma=p["fusion.final.gamma"], final_beta=p["fusion.final.beta"])
            ents = EntitySet(features=Tensor(feats, dtype=p["fusion.input.w"].dtype),
                             num_frames=4, num_entities=2, attention=[])
            tokens = tf.build_frame_tokens(ents, small, np.arange(4))
            out = tf.pool_output(tf.fuse_tokens(tokens, small, rebuilt), 4, 2, "average")
            return T.sum_all(T.mul(out, out))

        report = grad_check(f, named)
        assert report.passed and report.max_rel_error < 1e-5, report


class TestPooling:
    def test_single_entity_modes_agree(self):
        rng = np.random.default_rng(8)
        out = Tensor(rng.standard_normal((6, 5)).astype(np.float32))
        a = tf.pool_output(out, 6, 1, "cls_style").data
        b = tf.pool_output(out, 6, 1, "average").data
        assert np.allclose(a, b, atol=1e-7)

    def test_average_of_identical_tokens(self):
        row = np.random.default_rng(9).standard_normal((1, 5)).astype(np.float32)
        out = Tensor(np.tile(row, (6, 1)))
        pooled = tf.pool_output(out, 2, 3, "average").data
        assert np.allclose(pooled, np.tile(row, (2, 1)), atol=1e-6)

    def test_cls_returns_entity_zero_exactly(self):
        rng = np.random.default_rng(10)
        arr = rng.standard_normal((8, 5)).astype(np.float32)
        pooled = tf.pool_output(Tensor(arr), 4, 2, "cls_style").data
        assert np.array_equal(pooled, arr[0::2])

    def test_bad_mode_and_count(self):
        out = Tensor(np.zeros((6, 4)))
        with pytest.raises(ValueError, match="pooling"):
            tf.pool_output(out, 2, 3, "max")
        with pytest.raises(ValueError, match="tokens"):
            tf.pool_output(out, 2, 2, "average")


class TestFixedWidthBaseline:
    def test_token_count_matches_entity_width(self):
        rng = np.random.default_rng(11)
        last = rng.standard_normal((5, 16, 6)).astype(np.float32)
        params = tf.init_fixed_width_params(rng, 6, 3, CFG.model_dim)
        ents = tf.split_frame_tokens(last, params, 3, CFG.model_dim)
        assert ents.features.shape == (15, CFG.model_dim)
        assert ents.num_entities == 3

    def test_identity_split_gives_equal_tokens(self):
        # d_model == channels lets the split be stacked identity blocks
        rng = np.random.default_rng(12)
        d = CFG.model_dim
        last = rng.standard_normal((3, 4, d)).astype(np.float32)
        params = tf.init_fixed_width_params(rng, d, 3, d)
        params.split_w.data = np.concatenate([np.eye(d, dtype=np.float32)] * 3, axis=1)
        params.split_b.data = np.zeros(3 * d, dtype=np.float32)
        ents = tf.split_frame_tokens(last, params, 3, d)
        grouped = ents.features.data.reshape(3, 3, d)
        frame_mean = last.mean(axis=1)
        for n in range(3):
            assert np.abs(grouped[:, n] - frame_mean).max() < 1e-6

    def test_fusion_param_count_matches_entity_arch(self):
        mtf = Model(ModelConfig(arch="entity", num_entities=3, num_layers=1,
                                channels=8, query_dim=4, value_dim=4, model_dim=8,
                                heads=2, mlp_ratio=2), np.random.default_rng(0))
        fwb = Model(ModelConfig(arch="fixed_width", num_entities=3, num_layers=1,
                                channels=8, query_dim=4, value_dim=4, model_dim=8,
                                heads=2, mlp_ratio=2), np.random.default_rng(1))
        assert mtf.fusion_param_count() == fwb.fusion_param_count()

    def test_param_count_depends_on_entities_only_via_input_rows(self):
        counts = {}
        for e in (1, 3, 5):
            model = Model(ModelConfig(arch="entity", num_entities=e, num_layers=1,
                                      channels=8, query_dim=4, value_dim=4,
                                      model_dim=8, heads=2, mlp_ratio=2),
                          np.random.default_rng(0))
            counts[e] = model.fusion_param_count()
        d = 8
        assert counts[3] - counts[1] == 2 * d
        assert counts[5] - counts[3] == 2 * d


class TestDeterminismAndCheckpoint:
    def _model(self, seed=3):
        return Model(ModelConfig(num_entities=2, num_layers=2, channels=8,
                                 query_dim=4, value_dim=4, model_dim=8, heads=2,
                                 mlp_ratio=2, proj_hidden=8, proj_dim=8),
                     np.random.default_rng(seed))

    def test_same_seed_bit_identical_params_and_outputs(self):
        m1, m2 = self._model(), self._model()
        for (n1, p1), (n2, p2) in zip(m1.parameters().items(), m2.parameters().items()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)
        rng = np.random.default_rng(0)
        layers = [rng.standard_normal((3, 4, 8)).astype(np.float32) for _ in range(2)]
        out1 = m1.embed_frames(layers, np.arange(3)).data
        out2 = m2.embed_frames(layers, np.arange(3)).data
        assert np.array_equal(out1, out2)

    def test_checkpoint_round_trip(self):
        model = self._model()
        raw = save_checkpoint_bytes(model)
        assert raw[:4] == b"MVCK"
        arrays = load_checkpoint_bytes(raw)
        assert set(arrays) == set(model.parameters())
        for name, p in model.parameters().items():
            assert np.array_equal(arrays[name], p.data)

    def test_checkpoint_bad_magic(self):
        raw = b"XXXX" + save_checkpoint_bytes(self._model())[4:]
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint_bytes(raw)

    def test_checkpoint_truncation(self):
        raw = save_checkpoint_bytes(self._model())
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint_bytes(raw[: len(raw) - 3])

    def test_checkpoint_duplicate_record_rejected(self):
        raw = save_checkpoint_bytes(self._model())
        record = (struct.pack("<I", 7) + b"proj.b2" + struct.pack("<II", 1, 8)
                  + np.ones(8, dtype="<f4").tobytes())
        load_checkpoint_bytes(raw)
        with pytest.raises(ValueError, match="duplicate.*proj.b2"):
            load_checkpoint_bytes(raw + record)

    def test_load_state_mismatch_names_the_problem(self):
        model = self._model()
        other = Model(ModelConfig(num_entities=3, num_layers=2, channels=8,
                                  query_dim=4, value_dim=4, model_dim=8, heads=2,
                                  mlp_ratio=2, proj_hidden=8, proj_dim=8),
                      np.random.default_rng(0))
        arrays = load_checkpoint_bytes(save_checkpoint_bytes(other))
        with pytest.raises(ValueError, match="mismatch"):
            model.load_state(arrays)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            tf.FusionConfig(num_entities=3, model_dim=9, heads=2)

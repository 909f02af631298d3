import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from mevid import temporal_fusion as tf
from mevid import tensor as T
from mevid.config import RunConfig
from mevid.model import Model, load_checkpoint_bytes, save_checkpoint_bytes
from mevid.tensor import Tensor, grad_check

CFG = RunConfig(entities=3, model_dim=8, blocks=3, heads=2, mlp_ratio=2).model_config()


def entity_tokens(rng, t=4, e=3, d=8):
    """One sequence of T frames with E entity tokens each, frame-major."""
    return Tensor(rng.standard_normal((1, t * e, d)).astype(np.float32))


class TestBuildFrameTokens:
    def test_id_suffix(self):
        rng = np.random.default_rng(0)
        ents = entity_tokens(rng)
        tokens = tf.build_frame_tokens(ents, CFG).data[0]
        assert tokens.shape == (12, CFG.model_dim + 3)
        # position code is zero on the ID coordinates, so the suffix survives
        ids = tokens[:, CFG.model_dim:]
        assert np.array_equal(ids, np.tile(np.eye(3, dtype=np.float32), (4, 1)))
        assert np.array_equal(ids[0], [1.0, 0.0, 0.0])

    def test_frame_zero_code_is_sin0_cos1(self):
        rng = np.random.default_rng(1)
        ents = entity_tokens(rng, t=2)
        tokens = tf.build_frame_tokens(ents, CFG).data[0]
        pe0 = tokens[0, : CFG.model_dim] - ents.data[0, 0]
        assert np.allclose(pe0[0::2], 0.0, atol=1e-6)
        assert np.allclose(pe0[1::2], 1.0, atol=1e-6)

    def test_identical_frames_differ_only_by_position_code(self):
        rng = np.random.default_rng(2)
        frame = rng.standard_normal((3, CFG.model_dim)).astype(np.float32)
        ents = Tensor(np.tile(frame, (1, 2, 1)))
        tokens = tf.build_frame_tokens(ents, CFG).data[0]
        diff = tokens[3:] - tokens[:3]
        assert np.allclose(diff, diff[0], atol=1e-6)  # same shift for all entities
        assert np.allclose(diff[:, CFG.model_dim:], 0.0)

    @pytest.mark.parametrize("pos_scale", [1.0, 0.37])
    def test_bitwise_equal_to_zero_padded_code(self, pos_scale):
        # concat(feature + pos, onehot) against concat(feature, onehot) plus
        # the code zero-padded over the ID coordinates: the same floats, in
        # the output and in the features' gradient
        config = dataclasses.replace(CFG, pos_scale=pos_scale)
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((2, 5 * 3, CFG.model_dim)).astype(np.float32)
        up = rng.standard_normal((2, 5 * 3, CFG.token_dim)).astype(np.float32)

        def padded_formula(tokens, config):
            b, n, _ = tokens.shape
            e, t = config.entities, n // config.entities
            ids = np.broadcast_to(np.tile(np.eye(e, dtype=np.float32), (t, 1)), (b, n, e))
            tagged = T.concat([tokens, Tensor(ids)], axis=2)
            positions = np.arange(t, dtype=np.float64) * (tf.POS_RANGE / max(t - 1, 1.0))
            pos = config.pos_scale * tf.sinusoidal_encoding(positions, config.model_dim)
            padded = np.zeros((b, n, config.token_dim), dtype=np.float32)
            padded[:, :, : config.model_dim] = np.repeat(pos, e, axis=0)
            return T.add(tagged, Tensor(padded))

        def run(build):
            x = T.Parameter("x", feats)
            with T.Tape() as tape:
                out = build(x, config)
                loss = T.sum_all(T.mul(out, Tensor(up)))
            tape.backward(loss)
            return out.data.tobytes(), x.grad.tobytes()

        assert run(tf.build_frame_tokens) == run(padded_formula)

    def test_entity_count_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="E="):
            tf.build_frame_tokens(entity_tokens(rng, e=2), CFG)


class TestFusion:
    def _params(self, seed=0):
        return tf.init_fusion_params(np.random.default_rng(seed), CFG)

    def test_token_count_preserved(self):
        params = self._params()
        for t, e in [(2, 3), (5, 3)]:
            rng = np.random.default_rng(t)
            tokens = tf.build_frame_tokens(entity_tokens(rng, t=t, e=e), CFG)
            out = tf.fuse_tokens(tokens, CFG, params)
            assert out.shape == (1, t * e, CFG.model_dim)

    def test_within_frame_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        params = self._params()
        t, e = 5, 3
        tokens = tf.build_frame_tokens(entity_tokens(rng, t=t), CFG).data[0]
        perm = np.arange(t * e).reshape(t, e)[:, [0, 2, 1]].reshape(-1)
        base = tf.fuse_tokens(Tensor(tokens[None]), CFG, params).data[0]
        swapped = tf.fuse_tokens(Tensor(tokens[perm][None]), CFG, params).data[0]
        assert np.array_equal(base[perm], swapped)

    def test_cls_pooling_bitwise_invariant_fixing_entity_zero(self):
        rng = np.random.default_rng(5)
        params = self._params()
        t, e = 5, 3
        tokens = tf.build_frame_tokens(entity_tokens(rng, t=t), CFG).data[0]
        perm = np.arange(t * e).reshape(t, e)[:, [0, 2, 1]].reshape(-1)
        pool = lambda arr: tf.pool_output(
            tf.fuse_tokens(Tensor(arr[None]), CFG, params), e, "cls_style").data
        assert np.array_equal(pool(tokens), pool(tokens[perm]))

    def test_pruned_cls_rows_bitwise_invariant_fixing_entity_zero(self):
        # criterion 3's cls property on the path the model runs: the last
        # block computes only entity 0's rows
        rng = np.random.default_rng(5)
        params = self._params()
        t, e = 5, 3
        tokens = tf.build_frame_tokens(entity_tokens(rng, t=t), CFG).data[0]
        perm = np.arange(t * e).reshape(t, e)[:, [0, 2, 1]].reshape(-1)
        rows = tf.read_rows(t * e, e, "cls_style")
        fuse = lambda arr: tf.fuse_tokens(Tensor(arr[None]), CFG, params, rows).data
        assert fuse(tokens).shape == (1, t, CFG.model_dim)
        assert np.array_equal(fuse(tokens), fuse(tokens[perm]))

    @pytest.mark.parametrize("e, rows", [(3, [0, 3, 6, 9]), (3, [1, 7]), (1, [0, 1, 2, 3])],
                             ids=["cls_rows", "any_rows", "e1_every_row"])
    def test_rows_are_rows_of_the_full_output(self, e, rows):
        config = dataclasses.replace(CFG, entities=e)
        params = tf.init_fusion_params(np.random.default_rng(9), config)
        rng = np.random.default_rng(10)
        tokens = tf.build_frame_tokens(entity_tokens(rng, t=4, e=e), config)
        full = tf.fuse_tokens(tokens, config, params).data
        pruned = tf.fuse_tokens(tokens, config, params, np.array(rows)).data
        assert pruned.shape == (1, len(rows), config.model_dim)
        assert np.abs(pruned - full[:, rows]).max() <= 1e-6

    def test_read_rows_is_what_pooling_reads(self):
        rng = np.random.default_rng(11)
        out = Tensor(rng.standard_normal((2, 12, 4)).astype(np.float32))
        rows = tf.read_rows(12, 3, "cls_style")
        assert rows.tolist() == [0, 3, 6, 9]
        assert np.array_equal(tf.pool_output(out, 3, "cls_style").data, out.data[:, rows])
        assert tf.read_rows(12, 3, "average") is None

    def test_average_pooling_invariant_any_permutation(self):
        rng = np.random.default_rng(6)
        params = self._params()
        t, e = 4, 3
        tokens = tf.build_frame_tokens(entity_tokens(rng, t=t), CFG).data[0]
        perm = np.arange(t * e).reshape(t, e)[:, [2, 0, 1]].reshape(-1)
        pool = lambda arr: tf.pool_output(
            tf.fuse_tokens(Tensor(arr[None]), CFG, params), e, "average").data
        assert np.abs(pool(tokens) - pool(tokens[perm])).max() < 1e-6

    def test_gradients_through_build_fuse_pool(self):
        small = RunConfig(entities=2, model_dim=4, blocks=2, heads=2,
                          mlp_ratio=2).model_config()
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((1, 4 * 2, 4)).astype(np.float32)
        params = tf.init_fusion_params(rng, small)

        def f(p):
            tokens = tf.build_frame_tokens(Tensor(feats, dtype=p["fusion.input.w"].dtype), small)
            out = tf.pool_output(tf.fuse_tokens(tokens, small, p), 2, "average")
            return T.sum_all(T.mul(out, out))

        report = grad_check(f, params)
        assert report.passed and report.max_rel_error < 1e-5, report

    @staticmethod
    def per_head_attention(x, params, pre, heads, rows=None):
        """Reference: each head narrowed out of q, k and v, attended on its
        own, and the heads concatenated back."""
        xq = x if rows is None else T.take_rows(x, rows)
        q, k, v = (T.bias_add(T.matmul(inp, params[pre + "w" + n]), params[pre + "b" + n])
                   for inp, n in zip((xq, x, x), "qkv"))
        width = q.shape[2] // heads
        outs = [T.scaled_dot_attention(*(T.narrow(t, 2, h * width, width) for t in (q, k, v)))[0]
                for h in range(heads)]
        mixed = T.concat(outs, axis=2)
        return T.bias_add(T.matmul(mixed, params[pre + "wo"]), params[pre + "bo"])

    @pytest.mark.parametrize("heads", [2, 4])
    def test_stacked_heads_bitwise_equal_to_per_head_loop(self, heads, monkeypatch):
        config = RunConfig(entities=3, model_dim=32, blocks=2, heads=heads,
                           mlp_ratio=2).model_config()
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((4, 6 * 3, 32)).astype(np.float32)
        weights = rng.standard_normal((4, 6 * 3, 32)).astype(np.float32)

        def run():
            params = tf.init_fusion_params(np.random.default_rng(0), config)
            with T.Tape() as tape:
                out = tf.fuse_tokens(tf.build_frame_tokens(Tensor(feats), config),
                                     config, params)
                loss = T.add(T.sum_all(T.mul(out, Tensor(weights))),
                             T.sum_all(T.mul(out, out)))
            tape.backward(loss)
            return out.data, {name: p.grad for name, p in params.items()}

        got = run()
        monkeypatch.setattr(tf, "_attention", self.per_head_attention)
        want = run()
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].keys() == want[1].keys()
        for name in want[1]:
            assert got[1][name].tobytes() == want[1][name].tobytes(), name


class TestPooling:
    def test_single_entity_modes_agree(self):
        rng = np.random.default_rng(8)
        out = Tensor(rng.standard_normal((1, 6, 5)).astype(np.float32))
        a = tf.pool_output(out, 1, "cls_style").data
        b = tf.pool_output(out, 1, "average").data
        assert np.allclose(a, b, atol=1e-7)

    def test_average_of_identical_tokens(self):
        row = np.random.default_rng(9).standard_normal((1, 5)).astype(np.float32)
        out = Tensor(np.tile(row, (1, 6, 1)))
        pooled = tf.pool_output(out, 3, "average").data[0]
        assert np.allclose(pooled, np.tile(row, (2, 1)), atol=1e-6)

    def test_cls_returns_entity_zero_exactly(self):
        rng = np.random.default_rng(10)
        arr = rng.standard_normal((8, 5)).astype(np.float32)
        pooled = tf.pool_output(Tensor(arr[None]), 2, "cls_style").data[0]
        assert np.array_equal(pooled, arr[0::2])

    def test_bad_mode_and_count(self):
        out = Tensor(np.zeros((1, 6, 4)))
        with pytest.raises(ValueError, match="pooling"):
            tf.pool_output(out, 3, "max")
        with pytest.raises(ValueError, match="tokens"):
            tf.pool_output(out, 4, "average")  # 6 tokens, not whole frames of 4


class TestFixedWidthBaseline:
    def test_token_count_matches_entity_width(self):
        rng = np.random.default_rng(11)
        last = rng.standard_normal((1, 5, 16, 6)).astype(np.float32)
        params = tf.init_fixed_width_params(rng, dataclasses.replace(CFG, channels=6))
        tokens = tf.split_frame_tokens(last, params, CFG.model_dim)
        assert tokens.shape == (1, 5 * CFG.entities, CFG.model_dim)

    def test_identity_split_gives_equal_tokens(self):
        # d_model == channels lets the split be stacked identity blocks
        rng = np.random.default_rng(12)
        d = CFG.model_dim
        last = rng.standard_normal((3, 4, d)).astype(np.float32)
        params = tf.init_fixed_width_params(rng, dataclasses.replace(CFG, channels=d))
        params["split.w"].data = np.concatenate([np.eye(d, dtype=np.float32)] * 3, axis=1)
        params["split.b"].data = np.zeros(3 * d, dtype=np.float32)
        tokens = tf.split_frame_tokens(last[None], params, d)
        grouped = tokens.data.reshape(3, 3, d)
        frame_mean = last.mean(axis=1)
        for n in range(3):
            assert np.abs(grouped[:, n] - frame_mean).max() < 1e-6

    def test_fusion_param_count_matches_entity_arch(self):
        mtf = Model(RunConfig(arch="entity", entities=3, layer_select=(0,),
                              channels=8, query_dim=4, value_dim=4, model_dim=8,
                              heads=2, mlp_ratio=2).model_config(),
                    np.random.default_rng(0))
        fwb = Model(RunConfig(arch="fixed_width", entities=3, layer_select=(0,),
                              channels=8, query_dim=4, value_dim=4, model_dim=8,
                              heads=2, mlp_ratio=2).model_config(),
                    np.random.default_rng(1))
        assert mtf.fusion_param_count() == fwb.fusion_param_count()

    def test_param_count_depends_on_entities_only_via_input_rows(self):
        counts = {}
        for e in (1, 3, 5):
            model = Model(RunConfig(arch="entity", entities=e, layer_select=(0,),
                                    channels=8, query_dim=4, value_dim=4,
                                    model_dim=8, heads=2, mlp_ratio=2).model_config(),
                          np.random.default_rng(0))
            counts[e] = model.fusion_param_count()
        d = 8
        assert counts[3] - counts[1] == 2 * d
        assert counts[5] - counts[3] == 2 * d


class TestDeterminismAndCheckpoint:
    def _model(self, seed=3):
        return Model(RunConfig(entities=2, layer_select=(0, 1), channels=8,
                               query_dim=4, value_dim=4, model_dim=8, heads=2,
                               mlp_ratio=2, proj_hidden=8, proj_dim=8).model_config(),
                     np.random.default_rng(seed))

    def test_same_seed_bit_identical_params_and_outputs(self):
        m1, m2 = self._model(), self._model()
        for (n1, p1), (n2, p2) in zip(m1.params.items(), m2.params.items()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)
        rng = np.random.default_rng(0)
        layers = [rng.standard_normal((1, 3, 4, 8)).astype(np.float32) for _ in range(2)]
        out1 = m1.embed_frames(layers).data
        out2 = m2.embed_frames(layers).data
        assert np.array_equal(out1, out2)

    def test_checkpoint_round_trip(self):
        model = self._model()
        raw = save_checkpoint_bytes(model)
        assert raw[:4] == b"MVCK"
        arrays = load_checkpoint_bytes(raw)
        assert set(arrays) == set(model.params)
        for name, p in model.params.items():
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

    def test_checkpoint_non_finite_value_rejected(self):
        for name, value in (("pool.layer0.queries", np.inf), ("proj.b2", np.nan)):
            model = self._model()
            model.params[name].data.reshape(-1)[0] = value
            with pytest.raises(ValueError, match=f"non-finite.*{name}"):
                load_checkpoint_bytes(save_checkpoint_bytes(model))

    def test_default_init_is_pinned(self):
        # init draw order, parameter names and record order at the defaults
        golden = {
            "entity": (66, 682432,
                       "0e34e0d3a8e8acc40137fd0936c7b68a18e6aa14d221e716deff6bcb26ff7152"),
            "fixed_width": (58, 657664,
                            "aa812416d8cc23c60bbee974531f25d30321b1091972a80e3586737d5365e35f"),
        }
        for arch, (records, values, digest) in golden.items():
            model = Model(RunConfig(arch=arch).model_config(), np.random.default_rng(0))
            raw = save_checkpoint_bytes(model)
            arrays = load_checkpoint_bytes(raw)
            assert len(arrays) == records, arch
            assert sum(a.size for a in arrays.values()) == values, arch
            assert hashlib.sha256(raw).hexdigest() == digest, arch

    def test_load_state_mismatch_names_the_problem(self):
        model = self._model()
        other = Model(RunConfig(entities=3, layer_select=(0, 1), channels=8,
                                query_dim=4, value_dim=4, model_dim=8, heads=2,
                                mlp_ratio=2, proj_hidden=8, proj_dim=8).model_config(),
                      np.random.default_rng(0))
        arrays = load_checkpoint_bytes(save_checkpoint_bytes(other))
        with pytest.raises(ValueError, match="mismatch"):
            model.load_state(arrays)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            RunConfig(entities=3, model_dim=9, heads=2).model_config()

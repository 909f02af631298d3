import math

import numpy as np
import pytest

from mevid import spatial_pooling as sp
from mevid import temporal_fusion as tf
from mevid import tensor as T
from mevid import training as tr
from mevid.features import SyntheticSpec, generate_synthetic_dataset
from mevid.model import Model, save_checkpoint_bytes
from mevid.config import RunConfig, parse_config_text
from mevid.pipeline import SeedOutcome, dataset_from_config, run_trials, summarize
from mevid.tensor import Parameter, Tape, Tensor

SPEC = SyntheticSpec(videos=4, frames=16, grid=4, channels=8, phases=3, layers=2,
                     patch=2, noise=0.1, data_seed=5)
MODEL = RunConfig(entities=2, layer_select=(0, 1), channels=8, query_dim=4,
                  value_dim=4, model_dim=8, heads=2, mlp_ratio=2,
                  proj_hidden=8, proj_dim=8).model_config()


def loss_of_one_video(z1, t1, z2, t2, sigma, tau):
    """`sequence_contrastive_loss` of a batch holding one video."""
    return tr.sequence_contrastive_loss(
        T.reshape(z1, (1, *z1.shape)), np.asarray(t1)[None],
        T.reshape(z2, (1, *z2.shape)), np.asarray(t2)[None], sigma, tau)


def small_train_config(**over):
    base = dict(view_len=4, max_steps=4, batch=2, seed=9)
    base.update(over)
    return RunConfig(**base).train_config()


class TestViewSampling:
    def test_sorted_and_in_range(self):
        video = generate_synthetic_dataset(SPEC)[0]
        for idx in tr.sample_two_views(video, 8, seed=3):
            assert (np.diff(idx) > 0).all()
            assert idx.min() >= 0 and idx.max() < video.num_frames
            assert len(idx) == 8

    def test_same_seed_same_views(self):
        video = generate_synthetic_dataset(SPEC)[0]
        a1, a2 = tr.sample_two_views(video, 8, seed=42)
        b1, b2 = tr.sample_two_views(video, 8, seed=42)
        assert np.array_equal(a1, b1)
        assert np.array_equal(a2, b2)

    def test_too_short_video(self):
        video = generate_synthetic_dataset(SPEC)[0]
        with pytest.raises(ValueError, match="frames"):
            tr.sample_two_views(video, 17, seed=0)

    def test_uniform_coverage(self):
        # every frame appears in a view with frequency ~ view_len / T
        spec = SyntheticSpec(videos=1, frames=32, grid=2, channels=4, phases=2, layers=1,
                             patch=1, noise=0.0, data_seed=1)
        video = generate_synthetic_dataset(spec)[0]
        hits = np.zeros(32)
        draws = 1000
        for s in range(draws):
            idx1, _ = tr.sample_two_views(video, 16, seed=s)
            hits[idx1] += 1
        freq = hits / draws
        assert np.abs(freq - 0.5).max() <= 0.05


class TestSequenceContrastiveLoss:
    def test_loss_zero_when_predictions_equal_targets(self):
        # two frames with symmetric targets; cosine rows built so the
        # softmax predictions reproduce the Gaussian targets exactly
        sigma, tau = 1.0, 0.1
        t = np.array([0, 1])
        g = tr.gaussian_targets(t, t, sigma, np.float64).astype(np.float64)
        u = tau * np.log(g)
        a = np.zeros((2, 2))
        for i in range(2):
            mean = u[i].mean()
            spread = ((u[i] - mean) ** 2).sum()
            kappa = -mean + math.sqrt(max(0.0, (1.0 - spread) / 2))
            a[i] = u[i] + kappa
            assert abs(np.linalg.norm(a[i]) - 1.0) < 1e-12
        z1 = Tensor(a.astype(np.float32))
        z2 = Tensor(np.eye(2, dtype=np.float32))
        loss = loss_of_one_video(z1, t, z2, t, sigma, tau)
        assert 0.0 <= loss.item() < 1e-6

    def test_gaussian_target_values_and_kl(self):
        # independent scalar computation of the target row and its KL
        # against a uniform prediction
        sigma = 1.0
        w0, w1 = math.exp(0.0), math.exp(-0.5)
        g_row = np.array([w0, w1]) / (w0 + w1)
        assert np.abs(g_row - [0.6225, 0.3775]).max() < 1e-4
        kl = sum(gi * math.log(gi / 0.5) for gi in g_row)
        assert abs(kl - 0.0302) < 1e-4

        # z1 equidistant from both z2 rows -> uniform prediction row;
        # the reverse direction has single-column targets with zero KL
        z1 = Tensor(np.array([[1.0, 0.0]], dtype=np.float32))
        z2 = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=np.float32))
        loss = loss_of_one_video(z1, np.array([0]), z2,
                                 np.array([0, 1]), sigma, 1.0)
        assert abs(loss.item() - 0.5 * kl) < 1e-5

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n1, n2 = rng.integers(2, 6, 2)
            z1 = Tensor(rng.standard_normal((n1, 5)).astype(np.float32))
            z2 = Tensor(rng.standard_normal((n2, 5)).astype(np.float32))
            t1 = np.sort(rng.choice(20, n1, replace=False))
            t2 = np.sort(rng.choice(20, n2, replace=False))
            loss = loss_of_one_video(z1, t1, z2, t2, 3.0, 0.1)
            assert loss.item() >= 0.0

    def test_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(1)
        z1 = rng.standard_normal((4, 6)).astype(np.float32)
        z2 = rng.standard_normal((4, 6)).astype(np.float32)
        t1, t2 = np.arange(4), np.arange(4) + 2
        base = loss_of_one_video(Tensor(z1), t1, Tensor(z2), t2, 2.0, 0.1)
        scaled = z1.copy()
        scaled[2] *= 117.0
        out = loss_of_one_video(Tensor(scaled), t1, Tensor(z2), t2, 2.0, 0.1)
        assert abs(base.item() - out.item()) < 1e-6

    def test_invariant_to_timestamp_translation(self):
        rng = np.random.default_rng(2)
        z1 = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        z2 = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        t1, t2 = np.arange(4), np.array([1, 3, 5, 7])
        a = loss_of_one_video(z1, t1, z2, t2, 2.0, 0.1)
        b = loss_of_one_video(z1, t1 + 1000, z2, t2 + 1000, 2.0, 0.1)
        assert abs(a.item() - b.item()) < 1e-6

    def test_zero_norm_embedding_rejected(self):
        z1 = Tensor(np.zeros((2, 4), dtype=np.float32))
        z2 = Tensor(np.ones((2, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="zero-norm"):
            loss_of_one_video(z1, np.arange(2), z2, np.arange(2), 1.0, 0.1)

    def test_batch_is_mean_of_videos(self):
        b = 9
        rng = np.random.default_rng(5)
        z1 = rng.standard_normal((b, 4, 5)).astype(np.float32)
        z2 = rng.standard_normal((b, 4, 5)).astype(np.float32)
        t1 = np.sort(rng.choice(12, (b, 4)), axis=1)
        t2 = np.sort(rng.choice(12, (b, 4)), axis=1)
        batch = tr.sequence_contrastive_loss(Tensor(z1), t1, Tensor(z2), t2, 2.0, 0.1)
        total = np.float32(0.0)
        for v in range(b):
            total = total + loss_of_one_video(Tensor(z1[v]), t1[v], Tensor(z2[v]), t2[v],
                                              2.0, 0.1).data
        mean = total * np.float32(1.0 / b)
        assert abs(batch.item() - float(mean)) <= 1e-6 * float(mean), (batch.item(), mean)

    def test_batch_grads_match_finite_differences(self):
        # three videos, views of four and five frames
        rng = np.random.default_rng(6)
        params = {"z1": Parameter("z1", rng.standard_normal((3, 4, 5))),
                  "z2": Parameter("z2", rng.standard_normal((3, 5, 5)))}
        t1 = np.sort(rng.choice(12, (3, 4)), axis=1)
        t2 = np.sort(rng.choice(12, (3, 5)), axis=1)

        def f(p):
            return tr.sequence_contrastive_loss(p["z1"], t1, p["z2"], t2, 2.0, 0.5)

        report = T.grad_check(f, params)
        assert report.passed, report

    def test_batched_targets_equal_per_video_targets(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            b, n1, n2 = rng.integers(1, 6, 3)
            t1 = np.sort(rng.choice(40, (b, n1)), axis=1)
            t2 = np.sort(rng.choice(40, (b, n2)), axis=1)
            want = np.stack([tr.gaussian_targets(a, c, 3.0) for a, c in zip(t1, t2)])
            assert tr.gaussian_targets(t1, t2, 3.0).tobytes() == want.tobytes()

    def test_view_count_mismatch_rejected(self):
        z = Tensor(np.ones((2, 3, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="timestamp"):
            tr.sequence_contrastive_loss(z, np.zeros((1, 3)), z, np.zeros((2, 3)), 1.0, 0.1)


class TestAdam:
    def _params(self, values):
        return {"w": Parameter("w", values)}

    def test_zero_gradient_fresh_state_no_motion(self):
        params = self._params([1.0, -2.0])
        state = tr.AdamState(params)
        tr.adam_step(params, state, small_train_config())
        assert np.array_equal(params["w"].data, np.array([1.0, -2.0], dtype=np.float32))

    def test_first_step_is_signed_learning_rate(self):
        config = small_train_config(lr=0.01)
        params = self._params([0.0, 0.0, 0.0])
        params["w"].grad = np.array([0.5, -3.0, 1e-3], dtype=np.float32)
        state = tr.AdamState(params)
        tr.adam_step(params, state, config)
        expected = -config.lr * np.sign([0.5, -3.0, 1e-3])
        assert np.abs(params["w"].data - expected).max() < config.lr * 1e-3

    def test_deterministic(self):
        def run():
            params = self._params([0.3, 0.7])
            state = tr.AdamState(params)
            for step in range(5):
                params["w"].grad = np.array([0.1 * step, -0.2], dtype=np.float32)
                tr.adam_step(params, state, small_train_config(lr=0.05))
            return params["w"].data.copy()

        assert np.array_equal(run(), run())

    def test_state_shape_mismatch(self):
        params = self._params([1.0])
        state = tr.AdamState(params)
        state.m["w"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            tr.adam_step(params, state, small_train_config())


class TestTrainLoop:
    def test_zero_learning_rate_keeps_parameters(self):
        data = generate_synthetic_dataset(SPEC)
        config = small_train_config(lr=0.0)
        init = Model(MODEL, np.random.default_rng(config.seed))
        result = tr.train(data, MODEL, config)
        for name, p in result.model.params.items():
            assert np.array_equal(p.data, init.params[name].data), name

    def test_loss_trace_finite_and_counted(self):
        data = generate_synthetic_dataset(SPEC)
        config = small_train_config(max_steps=5)  # stops mid-pass
        result = tr.train(data, MODEL, config)
        assert len(result.loss_trace) == 5
        assert all(np.isfinite(v) for v in result.loss_trace)

    def test_backbone_features_never_mutated(self):
        data = generate_synthetic_dataset(SPEC)
        before = [[layer.copy() for layer in video.layers] for video in data]
        tr.train(data, MODEL, small_train_config())
        for video, saved in zip(data, before):
            for layer, old in zip(video.layers, saved):
                assert np.array_equal(layer, old)

    def test_repeat_runs_bit_identical(self):
        data = generate_synthetic_dataset(SPEC)
        config = small_train_config()
        a = tr.train(data, MODEL, config)
        b = tr.train(data, MODEL, config)
        assert save_checkpoint_bytes(a.model) == save_checkpoint_bytes(b.model)
        assert a.loss_trace == b.loss_trace

    def test_nan_loss_aborts_with_step(self, monkeypatch):
        data = generate_synthetic_dataset(SPEC)

        def poisoned(model, batch, seeds, config):
            return Tensor(np.float32("nan"))

        monkeypatch.setattr(tr, "_step_loss", poisoned)
        with pytest.raises(tr.TrainingDiverged, match="step 0"):
            tr.train(data, MODEL, small_train_config())

    def test_non_finite_gradient_aborts_naming_the_first_parameter(self, monkeypatch):
        data = generate_synthetic_dataset(SPEC)
        seen = {}
        zero_grads, backward = Model.zero_grads, Tape.backward

        def remember(model):
            seen["params"] = model.params
            seen["before"] = {n: p.data.copy() for n, p in model.params.items()}
            zero_grads(model)

        def poisoned(tape, loss):
            backward(tape, loss)
            names = list(seen["params"])
            seen["params"][names[9]].grad.flat[0] = np.nan
            seen["params"][names[3]].grad.flat[-1] = np.inf
            seen["name"] = names[3]

        def adam(*args):
            raise AssertionError("Adam ran on a non-finite gradient")

        monkeypatch.setattr(Model, "zero_grads", remember)
        monkeypatch.setattr(Tape, "backward", poisoned)
        monkeypatch.setattr(tr, "adam_step", adam)
        with pytest.raises(tr.TrainingDiverged) as info:
            tr.train(data, MODEL, small_train_config())
        assert str(info.value) == f"non-finite gradient of {seen['name']} at step 0"
        for name, p in seen["params"].items():
            assert np.array_equal(p.data, seen["before"][name]), name

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            tr.train([], MODEL, small_train_config())

    def test_negative_max_steps_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            small_train_config(max_steps=-3)

    def test_fixed_width_trains_with_any_split_count(self):
        for splits in (2, 4):
            config = parse_config_text(
                "videos = 6\nframes = 16\ngrid = 4\nchannels = 8\nphases = 3\n"
                "layers = 2\npatch = 2\nlayer_select = 0,1\nquery_dim = 8\n"
                "value_dim = 8\nmodel_dim = 16\nheads = 2\nmlp_ratio = 2\n"
                "proj_hidden = 16\nproj_dim = 16\nview_len = 4\nmax_steps = 4\n"
                f"batch = 2\narch = fixed_width\nentities = {splits}\n")
            videos, split_of = dataset_from_config(config)
            outcome = run_trials(config, [1], videos, split_of)[0]
            assert len(outcome.loss_trace) == 4
            assert all(np.isfinite(v) for v in outcome.loss_trace)

    def test_trace_format(self):
        text = tr.format_loss_trace([0.123456789, 2.0])
        lines = text.splitlines()
        assert lines[0] == "0\t0.123457"
        assert lines[1] == "1\t2"


def reference_step_loss(model, batch, seeds, config):
    """A training step as one-sequence forwards on one tape: each view
    alone, each video's loss alone, added first to last, then averaged."""
    total = None
    for video, seed in zip(batch, seeds):
        idx1, idx2 = tr.sample_two_views(video, config.view_len, seed)
        z = []
        for idx in (idx1, idx2):
            layers = [layer[idx][None] for layer in video.layers]
            pooled = model.embed_frames(layers)
            z.append(model.project(pooled))
        loss_v = tr.sequence_contrastive_loss(
            z[0], idx1[None], z[1], idx2[None],
            config.scl_sigma, config.scl_temperature)
        total = loss_v if total is None else T.add(total, loss_v)
    return T.scale(total, 1.0 / len(batch))


class TestBatchedStep:
    # (overrides, slice of the training videos forming the batch); the last
    # case is the short final batch of a pass (32 training videos, batch 3)
    CASES = {
        "heads2": (dict(heads=2), slice(0, 4)),
        "fixed_width": (dict(arch="fixed_width"), slice(4, 8)),
        "average_e1_short_batch": (
            dict(pooling="average", entities=1, batch=3, layer_select=(0, 2)),
            slice(30, 32)),
    }

    @staticmethod
    def _loss_and_grads(model, step_loss, batch, seeds, config):
        model.zero_grads()
        with Tape() as tape:
            loss = step_loss(model, batch, seeds, config)
        tape.backward(loss)
        return loss.item(), {n: p.grad.copy() for n, p in model.params.items()}

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_one_sequence_at_a_time(self, case):
        # a batched linear is one row-merged gemm, so the step agrees with
        # one-sequence forwards to float32 rounding, not bit for bit; the
        # gradient gap is measured against the step's largest gradient, as
        # grad_check measures it
        over, picked = self.CASES[case]
        run = RunConfig(**over)
        videos, split_of = dataset_from_config(run)
        train_videos = [v for v in videos if split_of[v.video_id] == "train"]
        assert len(train_videos) == 32
        batch = train_videos[picked]
        seeds = [int(s) for s in np.random.default_rng(1).integers(2 ** 63, size=len(batch))]
        model = Model(run.model_config(), np.random.default_rng(2))
        config = run.train_config()

        loss, grads = self._loss_and_grads(model, tr._step_loss, batch, seeds, config)
        ref_loss, ref_grads = self._loss_and_grads(
            model, reference_step_loss, batch, seeds, config)
        assert abs(loss - ref_loss) <= 1e-6 * abs(ref_loss), (loss, ref_loss)
        assert list(grads) == list(ref_grads)
        largest = max(float(np.abs(g).max()) for g in ref_grads.values())
        gaps = {name: float(np.abs(grads[name] - ref_grads[name]).max()) for name in grads}
        assert max(gaps.values()) <= 1e-5 * largest, gaps


def full_embed_frames(model, layers):
    """Reference: every fused row computed, then pooled by `pool_output`."""
    config = model.config
    if config.arch == "entity":
        tokens, _ = sp.extract_entities_from_arrays(layers, model.params)
    else:
        tokens = tf.split_frame_tokens(layers[-1], model.params, config.model_dim)
    fused = tf.fuse_tokens(tf.build_frame_tokens(tokens, config), config, model.params)
    return tf.pool_output(fused, config.entities, config.pooling)


class TestPrunedFusion:
    # the last fusion block computes only the rows that cls_style pooling
    # reads; each case is a step of 4 videos, 8 sequences
    CASES = {
        "default": dict(),
        "multihead": dict(heads=4, view_len=16, frames=64),
        "fixed_width": dict(arch="fixed_width"),
        "e1": dict(entities=1),
    }

    @staticmethod
    def _setup(over):
        run = RunConfig(**over)
        videos, split_of = dataset_from_config(run)
        batch = [v for v in videos if split_of[v.video_id] == "train"][:4]
        seeds = [int(s) for s in np.random.default_rng(3).integers(2 ** 63, size=len(batch))]
        model = Model(run.model_config(), np.random.default_rng(4))
        return model, batch, seeds, run.train_config()

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_full_fusion_and_pooling(self, case, monkeypatch):
        model, batch, seeds, config = self._setup(self.CASES[case])
        layers = [np.stack([v.layers[i][:config.view_len] for v in batch])
                  for i in range(len(batch[0].layers))]
        pruned = model.embed_frames(layers).data
        loss, grads = TestBatchedStep._loss_and_grads(model, tr._step_loss, batch, seeds,
                                                      config)
        monkeypatch.setattr(Model, "embed_frames", full_embed_frames)
        full = model.embed_frames(layers).data
        ref_loss, ref_grads = TestBatchedStep._loss_and_grads(
            model, tr._step_loss, batch, seeds, config)
        assert pruned.shape == full.shape == (4, config.view_len, model.config.model_dim)
        assert np.abs(pruned - full).max() <= 1e-5 * np.abs(full).max()
        assert abs(loss - ref_loss) <= 1e-6 * abs(ref_loss), (loss, ref_loss)
        assert list(grads) == list(ref_grads)
        largest = max(float(np.abs(g).max()) for g in ref_grads.values())
        gaps = {name: float(np.abs(grads[name] - ref_grads[name]).max()) for name in grads}
        assert max(gaps.values()) <= 1e-5 * largest, gaps

    def test_last_block_mlp_reads_one_row_per_frame(self):
        # a default step's last block feeds T rows per sequence, not T*E,
        # to its MLP; earlier blocks still feed every token
        model, batch, seeds, config = self._setup({})
        with Tape() as tape:
            tr._step_loss(model, batch, seeds, config)
        e, blocks = model.config.entities, model.config.blocks
        for i in range(blocks):
            w1 = model.params[f"fusion.block{i}.w1"]
            shapes = [inputs[0].shape for _, inputs, _ in tape._ops
                      if any(t is w1 for t in inputs)]
            rows = config.view_len * (1 if i == blocks - 1 else e)
            assert shapes == [(2 * len(batch), rows, model.config.model_dim)], (i, shapes)


class TestTrialAggregation:
    def _outcome(self, seed, value):
        return SeedOutcome(seed=seed, metrics={"classification": value},
                           checkpoint=b"", loss_trace=[])

    def test_mean_and_sample_stdev(self):
        summary = summarize([self._outcome(i, v) for i, v in enumerate([1.0, 2.0, 3.0])])
        stat = summary["classification"]
        assert stat["mean"] == 2.0
        assert abs(stat["stdev"] - 1.0) < 1e-12
        assert stat["summary"] == "2.00 ± 2.00"

    def test_identical_values_zero_stdev(self):
        summary = summarize([self._outcome(i, 0.5) for i in range(3)])
        assert summary["classification"]["stdev"] == 0.0

    def test_one_entry_per_metric(self):
        outcomes = [
            SeedOutcome(seed=i, metrics={"a": 1.0, "b": 2.0}, checkpoint=b"", loss_trace=[])
            for i in range(2)
        ]
        assert set(summarize(outcomes)) == {"a", "b"}

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError, match="2 seeds"):
            summarize([self._outcome(0, 1.0)])

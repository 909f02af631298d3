import math

import numpy as np
import pytest

from mevid import training as tr
from mevid.features import SyntheticSpec, generate_synthetic_dataset
from mevid.model import Model, ModelConfig, save_checkpoint_bytes
from mevid.config import parse_config_text
from mevid.pipeline import SeedOutcome, aggregate_trials, dataset_from_config, run_single
from mevid.tensor import Parameter, Tensor

SPEC = SyntheticSpec(num_videos=4, frames_per_video=16, grid_side=4, channels=8,
                     num_phases=3, num_layers=2, actor_patch_side=2,
                     noise_sigma=0.1, seed=5)
MODEL = ModelConfig(num_entities=2, num_layers=2, channels=8, query_dim=4,
                    value_dim=4, model_dim=8, heads=2, mlp_ratio=2,
                    proj_hidden=8, proj_dim=8)


def small_train_config(**over):
    base = dict(view_len=4, max_steps=4, batch_size=2, seed=9)
    base.update(over)
    return tr.TrainConfig(**base)


class TestViewSampling:
    def test_sorted_and_in_range(self):
        video = generate_synthetic_dataset(SPEC)[0]
        views = tr.sample_two_views(video, 8, seed=3)
        for idx in (views.indices1, views.indices2):
            assert (np.diff(idx) > 0).all()
            assert idx.min() >= 0 and idx.max() < video.num_frames
            assert len(idx) == 8
        assert np.array_equal(views.timestamps1, views.indices1)

    def test_same_seed_same_views(self):
        video = generate_synthetic_dataset(SPEC)[0]
        a = tr.sample_two_views(video, 8, seed=42)
        b = tr.sample_two_views(video, 8, seed=42)
        assert np.array_equal(a.indices1, b.indices1)
        assert np.array_equal(a.indices2, b.indices2)

    def test_too_short_video(self):
        video = generate_synthetic_dataset(SPEC)[0]
        with pytest.raises(ValueError, match="frames"):
            tr.sample_two_views(video, 17, seed=0)

    def test_uniform_coverage(self):
        # every frame appears in a view with frequency ~ view_len / T
        spec = SyntheticSpec(num_videos=1, frames_per_video=32, grid_side=2,
                             channels=4, num_phases=2, num_layers=1,
                             actor_patch_side=1, noise_sigma=0.0, seed=1)
        video = generate_synthetic_dataset(spec)[0]
        hits = np.zeros(32)
        draws = 1000
        for s in range(draws):
            views = tr.sample_two_views(video, 16, seed=s)
            hits[views.indices1] += 1
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
        loss = tr.sequence_contrastive_loss(z1, t, z2, t, sigma, tau)
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
        loss = tr.sequence_contrastive_loss(z1, np.array([0]), z2,
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
            loss = tr.sequence_contrastive_loss(z1, t1, z2, t2, 3.0, 0.1)
            assert loss.item() >= 0.0

    def test_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(1)
        z1 = rng.standard_normal((4, 6)).astype(np.float32)
        z2 = rng.standard_normal((4, 6)).astype(np.float32)
        t1, t2 = np.arange(4), np.arange(4) + 2
        base = tr.sequence_contrastive_loss(Tensor(z1), t1, Tensor(z2), t2, 2.0, 0.1)
        scaled = z1.copy()
        scaled[2] *= 117.0
        out = tr.sequence_contrastive_loss(Tensor(scaled), t1, Tensor(z2), t2, 2.0, 0.1)
        assert abs(base.item() - out.item()) < 1e-6

    def test_invariant_to_timestamp_translation(self):
        rng = np.random.default_rng(2)
        z1 = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        z2 = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        t1, t2 = np.arange(4), np.array([1, 3, 5, 7])
        a = tr.sequence_contrastive_loss(z1, t1, z2, t2, 2.0, 0.1)
        b = tr.sequence_contrastive_loss(z1, t1 + 1000, z2, t2 + 1000, 2.0, 0.1)
        assert abs(a.item() - b.item()) < 1e-6

    def test_zero_norm_embedding_rejected(self):
        z1 = Tensor(np.zeros((2, 4), dtype=np.float32))
        z2 = Tensor(np.ones((2, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="zero-norm"):
            tr.sequence_contrastive_loss(z1, np.arange(2), z2, np.arange(2), 1.0, 0.1)


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
        for name, p in result.model.parameters().items():
            assert np.array_equal(p.data, init.parameters()[name].data), name

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

        def poisoned(model, video, views, config):
            return Tensor(np.float32("nan"))

        monkeypatch.setattr(tr, "_video_loss", poisoned)
        with pytest.raises(tr.TrainingDiverged, match="step 0"):
            tr.train(data, MODEL, small_train_config())

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
                f"batch = 2\nprobe_epochs = 50\narch = fixed_width\nentities = {splits}\n")
            videos, split_of = dataset_from_config(config)
            outcome = run_single(config, videos, split_of, seed=1)
            assert len(outcome.loss_trace) == 4
            assert all(np.isfinite(v) for v in outcome.loss_trace)

    def test_trace_format(self):
        text = tr.format_loss_trace([0.123456789, 2.0])
        lines = text.splitlines()
        assert lines[0] == "0\t0.123457"
        assert lines[1] == "1\t2"


class TestTrialAggregation:
    def _outcome(self, seed, value):
        return SeedOutcome(seed=seed, metrics={"classification": value},
                           checkpoint=b"", loss_trace=[])

    def test_mean_and_sample_stdev(self):
        report = aggregate_trials([self._outcome(i, v) for i, v in enumerate([1.0, 2.0, 3.0])])
        stat = report.stats["classification"]
        assert stat.mean == 2.0
        assert abs(stat.stdev - 1.0) < 1e-12
        assert stat.summary == "2.00 ± 2.00"

    def test_identical_values_zero_stdev(self):
        report = aggregate_trials([self._outcome(i, 0.5) for i in range(3)])
        assert report.stats["classification"].stdev == 0.0

    def test_one_entry_per_metric(self):
        outcomes = [
            SeedOutcome(seed=i, metrics={"a": 1.0, "b": 2.0}, checkpoint=b"", loss_trace=[])
            for i in range(2)
        ]
        report = aggregate_trials(outcomes)
        assert set(report.stats) == {"a", "b"}

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError, match="2 seeds"):
            aggregate_trials([self._outcome(0, 1.0)])

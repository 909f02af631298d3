import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mevid import evaluate as ev
from mevid.config import RunConfig
from mevid.features import VideoFeatures
from mevid.model import Model
from mevid.pipeline import dataset_from_config
from mevid.tensor import GraphError, Tape


def make_video(embeddings, labels, progression=None):
    n = len(embeddings)
    return ev.EmbeddedVideo(
        embeddings=np.asarray(embeddings, dtype=np.float32),
        labels=np.asarray(labels),
        progression=np.asarray(progression if progression is not None else np.zeros(n),
                               dtype=np.float32))


def cluster_dataset(rng, classes=2, per_class=30, d=6, spread=0.05):
    videos = []
    for c in range(classes):
        center = np.zeros(d)
        center[0] = 1.0 if c == 0 else -1.0
        emb = center + spread * rng.standard_normal((per_class, d))
        videos.append(make_video(emb, np.full(per_class, c)))
    return videos


class TestLinearProbe:
    def test_separable_clusters_reach_full_accuracy(self):
        rng = np.random.default_rng(0)
        train, test = cluster_dataset(rng), cluster_dataset(rng)
        acc = ev.linear_probe_classification(train, test)
        assert acc == 1.0

    def test_shuffled_labels_hit_chance(self):
        accs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            emb = rng.standard_normal((160, 8))
            labels = np.repeat(np.arange(4), 40)
            rng.shuffle(labels)
            train = [make_video(emb[:120], labels[:120])]
            test = [make_video(emb[120:], labels[120:])]
            accs.append(ev.linear_probe_classification(train, test))
        assert abs(np.mean(accs) - 0.25) <= 0.15

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        train, test = cluster_dataset(rng), cluster_dataset(rng)
        a = ev.linear_probe_classification(train, test)
        b = ev.linear_probe_classification(train, test)
        assert a == b

    def test_single_class_rejected(self):
        rng = np.random.default_rng(2)
        train = [make_video(rng.standard_normal((10, 4)), np.zeros(10, int))]
        test = [make_video(rng.standard_normal((4, 4)), np.zeros(4, int))]
        with pytest.raises(ValueError, match="single class"):
            ev.linear_probe_classification(train, test)

    def test_coordinate_permutation_invariance(self):
        rng = np.random.default_rng(3)
        train, test = cluster_dataset(rng), cluster_dataset(rng)
        base = ev.linear_probe_classification(train, test)
        perm = rng.permutation(6)

        def permuted(videos):
            return [make_video(v.embeddings[:, perm], v.labels) for v in videos]

        assert ev.linear_probe_classification(permuted(train), permuted(test)) == base

    def test_classes_are_the_distinct_train_labels(self):
        # MVFF labels are unbounded u32; sizing the class axis by the
        # largest label would allocate 149 GiB here
        rng = np.random.default_rng(12)
        train, test = cluster_dataset(rng), cluster_dataset(rng)

        def relabelled(videos, mapping):
            return [make_video(v.embeddings, [mapping[int(l)] for l in v.labels])
                    for v in videos]

        base = ev.linear_probe_classification(train, test)
        assert base == 1.0
        big = {0: 3, 1: 4_000_000_000}
        assert ev.linear_probe_classification(relabelled(train, big), relabelled(test, big)) == base
        # a test label never seen in train counts as wrong
        unseen = [test[0], make_video(test[1].embeddings, test[1].labels + 5)]
        assert ev.linear_probe_classification(train, unseen) == 0.5


def fixed_epoch_probe(x, y, classes, epochs=500, lr=1.0):
    """The probe before it was fit to its optimum: full-batch gradient
    descent on unregularized softmax cross-entropy from zero, for a fixed
    number of epochs."""
    n = x.shape[0]
    xb = np.concatenate([x, np.ones((n, 1), dtype=x.dtype)], axis=1)
    w = np.zeros((xb.shape[1], classes), dtype=np.float64)
    onehot = np.zeros((n, classes))
    onehot[np.arange(n), y] = 1.0
    xb64 = xb.astype(np.float64)
    for _ in range(epochs):
        logits = xb64 @ w
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        w -= lr * (xb64.T @ (p - onehot)) / n
    return w


def probe_objective(w, xb, y):
    """Mean softmax cross-entropy plus PROBE_L2 / 2 * ||W||^2, and its
    gradient, written out independently of the solver."""
    logits = xb @ w
    top = logits.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
    p = np.exp(logits - lse[:, None])
    p[np.arange(len(y)), y] -= 1.0
    value = np.mean(lse - logits[np.arange(len(y)), y]) + 0.5 * ev.PROBE_L2 * np.sum(w * w)
    return value, xb.T @ p / len(y) + ev.PROBE_L2 * w


class TestProbeOptimum:
    def overlapping_classes(self):
        # three overlapping Gaussian classes
        rng = np.random.default_rng(21)
        y = np.repeat(np.arange(3), 60)
        x = rng.standard_normal((180, 6)) + 0.8 * np.eye(6)[y]
        xb, = ev._design_matrices(x)
        return xb, y

    def test_fit_reaches_the_optimum_the_fixed_loop_misses(self, caplog):
        xb, y = self.overlapping_classes()
        with caplog.at_level("WARNING", logger=ev.log.name):
            w = ev._fit_softmax_probe(xb, y, 3)
        assert caplog.text == ""
        reference = fixed_epoch_probe(xb[:, :-1], y, 3)
        value, grad = probe_objective(w, xb, y)
        ref_value, ref_grad = probe_objective(reference, xb, y)
        assert np.abs(grad).max() <= ev.PROBE_GTOL
        assert value <= ref_value
        # the 500-epoch loop stops short of the regularized optimum
        assert np.abs(ref_grad).max() > ev.PROBE_GTOL

    def test_cap_logs_a_warning(self, monkeypatch, caplog):
        xb, y = self.overlapping_classes()
        monkeypatch.setattr(ev, "_PROBE_MAX_ITER", 1)
        with caplog.at_level("WARNING", logger=ev.log.name):
            w = ev._fit_softmax_probe(xb, y, 3)
        assert "classification: the probe stopped" in caplog.text
        assert np.abs(probe_objective(w, xb, y)[1]).max() > ev.PROBE_GTOL


class TestRSquared:
    def test_perfect_predictions(self):
        assert ev.r_squared([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == 1.0

    def test_mean_predictor_scores_zero(self):
        targets = np.array([0.2, 0.4, 0.6])
        assert abs(ev.r_squared(targets, np.full(3, targets.mean()))) < 1e-12

    def test_half_explained(self):
        assert abs(ev.r_squared([0.0, 1.0, 2.0], [0.0, 1.0, 1.0]) - 0.5) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            ev.r_squared([1.0, 1.0], [1.0, 2.0])

    def test_progression_probe_recovers_linear_targets(self):
        rng = np.random.default_rng(4)
        videos = []
        for _ in range(4):
            emb = rng.standard_normal((20, 5)).astype(np.float32)
            target = emb[:, 0] * 0.25 + 0.5
            videos.append(make_video(emb, np.zeros(20, int), target))
        score = ev.phase_progression_r2(videos[:2], videos[2:], ridge_lambda=1e-4)
        assert score > 0.999

    def test_zero_variance_video_excluded(self, caplog):
        rng = np.random.default_rng(5)
        train = [make_video(rng.standard_normal((12, 4)), np.zeros(12, int),
                            rng.uniform(0, 1, 12))]
        good = make_video(rng.standard_normal((8, 4)), np.zeros(8, int),
                          rng.uniform(0, 1, 8))
        flat = make_video(rng.standard_normal((8, 4)), np.zeros(8, int),
                          np.full(8, 0.5))
        with caplog.at_level("WARNING"):
            score = ev.phase_progression_r2(train, [good, flat], ridge_lambda=1e-4)
        assert np.isfinite(score)
        assert "zero-variance" in caplog.text

    def test_progression_matches_its_inline_design_bitwise(self):
        # the regression's design as it was written before the probes
        # shared `_design_matrices`
        rng = np.random.default_rng(6)
        train = [make_video(rng.standard_normal((12, 5)), np.zeros(12, int),
                            rng.uniform(0, 1, 12)) for _ in range(3)]
        test = [make_video(rng.standard_normal((9, 5)), np.zeros(9, int),
                           rng.uniform(0, 1, 9)) for _ in range(2)]
        x = np.concatenate([v.embeddings for v in train]).astype(np.float64)
        y = np.concatenate([v.progression for v in train]).astype(np.float64)
        mu, sd = x.mean(axis=0), x.std(axis=0)
        xb = np.concatenate([(x - mu) / sd, np.ones((x.shape[0], 1))], axis=1)
        w = np.linalg.solve(xb.T @ xb + 1e-4 * np.eye(xb.shape[1]), xb.T @ y)
        scores = []
        for v in test:
            xv = (v.embeddings.astype(np.float64) - mu) / sd
            xb_v = np.concatenate([xv, np.ones((len(xv), 1))], axis=1)
            scores.append(ev.r_squared(v.progression, xb_v @ w))
        assert ev.phase_progression_r2(train, test, ridge_lambda=1e-4) == float(np.mean(scores))


def tau_oracle(assignment):
    """Brute-force pair counting, kept deliberately naive."""
    n = len(assignment)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            prod = (i - j) * (assignment[i] - assignment[j])
            if prod > 0:
                concordant += 1
            elif prod < 0:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


def reference_dataset_tau(videos):
    """The per-pair loop that dataset_tau ran before the shared distance
    table, distances and all; the table must reproduce it bit for bit."""
    scores = []
    for a in videos:
        for b in videos:
            if a is not b:
                d2 = ((a.embeddings[:, None, :].astype(np.float64)
                       - b.embeddings[None, :, :].astype(np.float64)) ** 2).sum(axis=2)
                scores.append(ev.tau_of_assignment(np.argmin(d2, axis=1)))
    return float(np.mean(scores))


def reference_tau_of_assignment(assignment):
    """The all-pairs formula tau_of_assignment used before it counted in
    row blocks: O(n^2) index arrays, the same integer total."""
    n = len(assignment)
    i, j = np.triu_indices(n, k=1)
    sign = np.sign(assignment[j].astype(np.int64) - assignment[i].astype(np.int64))
    return float(sign.sum() / (n * (n - 1) / 2))


def nearest_neighbor_assignment(emb_a, emb_b):
    """For each frame of a, the index of its Euclidean nearest frame in b;
    ties break toward the lower index (argmin's first minimum)."""
    return np.argmin(ev.squared_distances(emb_a, emb_b), axis=1)


def kendalls_tau(emb_a, emb_b):
    """Tau of one pair of videos, through the path `dataset_tau` takes."""
    return ev._tau_of_distances(ev.squared_distances(emb_a, emb_b))


class TestKendallsTau:
    def test_identity_assignment(self):
        assert ev.tau_of_assignment(np.arange(10)) == 1.0

    def test_reversal(self):
        assert ev.tau_of_assignment(np.arange(10)[::-1]) == -1.0

    def test_worked_example(self):
        # 1-indexed assignments [3, 1, 2]: one concordant of three pairs
        assert abs(ev.tau_of_assignment(np.array([2, 0, 1])) - (-1 / 3)) < 1e-12

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            assignment = rng.integers(0, n, n)
            assert ev.tau_of_assignment(assignment) == pytest.approx(
                tau_oracle(assignment), abs=1e-12)

    def test_row_blocks_equal_all_pairs_formula(self, monkeypatch):
        rng = np.random.default_rng(16)
        sizes = [2, 3, 5, 17, 128, 513, 2000]
        for n in sizes:
            for high in (2, max(2, n // 4), n):  # few distinct matches: many ties
                assignment = rng.integers(0, high, n)
                assert ev.tau_of_assignment(assignment) == \
                    reference_tau_of_assignment(assignment)
        # blocks of a few rows, so most sizes span several blocks
        monkeypatch.setattr(ev, "_BLOCK_BYTES", 8 * 3 * 64)
        for n in sizes[:-1]:
            assignment = rng.integers(0, max(2, n // 3), n)
            assert ev.tau_of_assignment(assignment) == \
                reference_tau_of_assignment(assignment)

    def test_memory_stays_below_all_pairs(self):
        assignment = np.random.default_rng(17).integers(0, 2000, 2000)
        tracemalloc.start()
        try:
            ev.tau_of_assignment(assignment)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, f"peak {peak / 2**20:.1f} MiB"

    def test_nearest_neighbor_tie_breaks_low(self):
        a = np.zeros((1, 2), dtype=np.float32)
        b = np.zeros((3, 2), dtype=np.float32)  # all candidates equidistant
        assert nearest_neighbor_assignment(a, b)[0] == 0

    def test_short_sequences_rejected(self):
        with pytest.raises(ValueError):
            kendalls_tau(np.zeros((1, 2)), np.zeros((5, 2)))

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 6))
        b = rng.standard_normal((15, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert kendalls_tau(a, b) == kendalls_tau(a @ q, b @ q)

    def test_dataset_average_over_ordered_pairs(self):
        rng = np.random.default_rng(8)
        videos = [make_video(rng.standard_normal((6, 4)), np.zeros(6, int))
                  for _ in range(3)]
        score = ev.dataset_tau(ev.distance_table(videos))
        expected = np.mean([
            kendalls_tau(a.embeddings, b.embeddings)
            for a in videos for b in videos if a is not b])
        assert score == pytest.approx(expected, abs=1e-12)


def ap_oracle(distances, relevant, k):
    """Full-sort reference for average precision at k."""
    order = np.argsort(distances, kind="stable")
    ranked = relevant[order]
    total = int(relevant.sum())
    hits = 0
    score = 0.0
    for i in range(min(k, len(ranked))):
        if ranked[i]:
            hits += 1
            score += hits / (i + 1)
    return score / min(k, total)


def retrieval(videos, k):
    return ev.retrieval_ap_at_k(videos, ev.distance_table(videos), k)


def reference_retrieval(videos, k):
    """The per-query, per-row loop that retrieval_ap_at_k ran before the
    shared distance table; returns the score and the skip count."""
    embs = [v.embeddings.astype(np.float64) for v in videos]
    labels = [np.asarray(v.labels) for v in videos]
    scores = []
    skipped = 0
    for qi, (qe, ql) in enumerate(zip(embs, labels)):
        pool_emb = np.concatenate([e for i, e in enumerate(embs) if i != qi], axis=0)
        pool_lab = np.concatenate([l for i, l in enumerate(labels) if i != qi], axis=0)
        d2 = ((qe[:, None, :] - pool_emb[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(d2, axis=1, kind="stable")
        for row in range(qe.shape[0]):
            rel_all = pool_lab == ql[row]
            total = int(rel_all.sum())
            if total == 0:
                skipped += 1
                continue
            top = rel_all[order[row]][:k].astype(np.float64)
            precision_at = np.cumsum(top) / (np.arange(len(top)) + 1)
            scores.append(float((precision_at * top).sum() / min(k, total)))
    return float(np.mean(scores)), skipped


def reference_video_sets():
    """Inputs for the bitwise comparison with the reference loops."""
    rng = np.random.default_rng(12)
    # unequal lengths at the model's width; label 9 occurs in one video only
    unequal = [make_video(rng.standard_normal((n, 128)), rng.integers(0, 4, n))
               for n in [3, 8, 13, 21]]
    unequal[2].labels[5] = 9
    # frames shared across and within videos, so distances tie exactly and
    # the first minimum and the stable order decide tau and AP
    base = rng.standard_normal((6, 16)).astype(np.float32)
    tied = [make_video(base, [0, 1, 2, 3, 0, 1]),
            make_video(base[[5, 0, 4, 3, 0, 2, 1]], [1, 0, 3, 2, 1, 1, 0]),
            make_video(base[[0, 2, 1, 0, 2, 1]], [2, 2, 0, 1, 3, 0])]
    # a pool shorter than the largest k
    short = [make_video(rng.standard_normal((2, 5)), [0, 1]),
             make_video(rng.standard_normal((3, 5)), [1, 0, 1])]
    return {"unequal": unequal, "tied": tied, "short": short}


@pytest.mark.parametrize("block_bytes", [ev._BLOCK_BYTES, 1])
@pytest.mark.parametrize("name", ["unequal", "tied", "short"])
def test_distance_table_matches_reference_bitwise(name, block_bytes, monkeypatch, caplog):
    monkeypatch.setattr(ev, "_BLOCK_BYTES", block_bytes)  # 1: one row per block
    videos = reference_video_sets()[name]
    table = ev.distance_table(videos)
    for i, a in enumerate(videos):
        for j, b in enumerate(videos):
            if i != j:
                want = ((a.embeddings[:, None, :].astype(np.float64)
                         - b.embeddings[None, :, :].astype(np.float64)) ** 2).sum(axis=2)
                assert np.array_equal(table[i][j], want)
    assert ev.dataset_tau(table) == reference_dataset_tau(videos)
    for k in (1, 5, 50):
        want, skipped = reference_retrieval(videos, k)
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert ev.retrieval_ap_at_k(videos, table, k) == want
        if skipped:
            assert f"skipped {skipped} queries" in caplog.text
        else:
            assert "skipped" not in caplog.text
    if name == "unequal":
        assert skipped == 1


class TestRetrieval:
    def test_all_top_k_relevant(self):
        rel = np.array([1, 1, 1, 1, 1, 0, 0])
        assert ev.average_precision_at_k(rel, 5, int(rel.sum())) == 1.0

    def test_none_relevant_in_top_k(self):
        rel = np.array([0, 0, 0, 0, 0, 1, 1])
        assert ev.average_precision_at_k(rel, 5, int(rel.sum())) == 0.0

    def test_worked_pattern(self):
        rel = np.array([1, 0, 1, 0, 0, 1, 1])  # R = 4 >= 2 in the pool
        got = ev.average_precision_at_k(rel, 5, 2)
        assert abs(got - (1.0 + 2 / 3) / 2) < 1e-12

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            pool = int(rng.integers(5, 201))
            distances = rng.uniform(0, 1, pool)
            relevant = rng.integers(0, 2, pool)
            if relevant.sum() == 0:
                relevant[0] = 1
            order = np.argsort(distances, kind="stable")
            got = ev.average_precision_at_k(relevant[order], 5, int(relevant.sum()))
            want = ap_oracle(distances, relevant, 5)
            assert got == pytest.approx(want, abs=1e-12)

    def test_query_without_relevant_candidates_skipped(self, caplog):
        rng = np.random.default_rng(10)
        a = make_video(rng.standard_normal((4, 3)), [0, 0, 7, 7])
        b = make_video(rng.standard_normal((4, 3)), [0, 0, 0, 0])
        with caplog.at_level("WARNING"):
            score = retrieval([a, b], k=2)
        assert 0.0 <= score <= 1.0
        assert "skipped" in caplog.text

    def test_own_video_excluded_from_pool(self):
        # two videos; labels only match within each video, so if the pool
        # included the query's own frames the score would be positive
        a = make_video(np.zeros((3, 2)), [1, 1, 1])
        b = make_video(np.ones((3, 2)), [2, 2, 2])
        with pytest.raises(ValueError, match="skipped"):
            retrieval([a, b], k=2)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(11)
        videos = [make_video(rng.standard_normal((8, 5)), rng.integers(0, 3, 8))
                  for _ in range(3)]
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        rotated = [make_video(v.embeddings @ q.astype(np.float32), v.labels) for v in videos]
        assert retrieval(videos, 5) == retrieval(rotated, 5)

    def test_bad_k(self):
        with pytest.raises(ValueError, match="k"):
            ev.retrieval_ap_at_k([], [], k=0)


# ---------------------------------------------------------------------------
# embedding a dataset on several threads


def reference_embed_dataset(model, videos):
    """One video at a time, on the calling thread."""
    return [ev.EmbeddedVideo(model.embed_frames([l[None] for l in video.layers]).data[0].copy(),
                             np.asarray(video.labels), np.asarray(video.progression))
            for video in videos]


def embedding_case(arch, pooling, count):
    """`count` videos of unequal lengths and a small model."""
    config = RunConfig(videos=max(count, 2), frames=12, grid=3, channels=8, phases=2,
                       layers=2, patch=1, layer_select=(0, 1), arch=arch, pooling=pooling,
                       entities=2, query_dim=8, value_dim=8, model_dim=16, heads=2,
                       mlp_ratio=2, blocks=2)
    raw, _ = dataset_from_config(config)
    videos = []
    for i, v in enumerate(raw[:count]):
        t = 12 - 3 * (i % 3)
        videos.append(VideoFeatures(v.video_id, [l[:t] for l in v.layers],
                                    v.labels[:t], v.progression[:t]))
    return Model(config.model_config(), np.random.default_rng(3)), videos


def assert_same_embedding(got, want):
    """Equal video by video, in order; the videos' distinct lengths and
    contents make a reordering show."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.embeddings.dtype == w.embeddings.dtype
        assert g.embeddings.tobytes() == w.embeddings.tobytes()
        assert np.array_equal(g.labels, w.labels)
        assert g.progression.tobytes() == w.progression.tobytes()


@pytest.mark.parametrize("arch,pooling", [("entity", "cls_style"), ("entity", "average"),
                                          ("fixed_width", "cls_style"),
                                          ("fixed_width", "average")])
@pytest.mark.parametrize("count,cpus", [(5, 2), (1, 2), (3, 8)],
                         ids=["two_workers", "one_video", "more_cpus_than_videos"])
def test_threaded_embedding_matches_one_video_at_a_time(arch, pooling, count, cpus,
                                                        monkeypatch):
    # the patched CPU count runs the threaded path on a one-CPU machine too
    model, videos = embedding_case(arch, pooling, count)
    assert len({v.num_frames for v in videos}) == min(count, 3)
    want = reference_embed_dataset(model, videos)
    monkeypatch.setattr(ev, "_available_cpus", lambda: cpus)
    assert_same_embedding(ev.embed_dataset(model, videos), want)


def test_threaded_embedding_under_fast_thread_switching(monkeypatch):
    # more workers than cores, switching threads every microsecond
    model, videos = embedding_case("entity", "cls_style", 9)
    want = reference_embed_dataset(model, videos)
    monkeypatch.setattr(ev, "_available_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = ev.embed_dataset(model, videos)
    finally:
        sys.setswitchinterval(interval)
    assert_same_embedding(got, want)


def test_worker_count_is_capped_by_cpus_and_videos(monkeypatch):
    started = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(ev, "ThreadPoolExecutor", CountingPool)
    model, videos = embedding_case("entity", "cls_style", 3)
    for cpus, expected in [(1, []), (2, [2]), (8, [3])]:
        started.clear()
        monkeypatch.setattr(ev, "_available_cpus", lambda: cpus)
        ev.embed_dataset(model, videos)
        assert started == expected, cpus
    # a single video never starts a thread
    started.clear()
    ev.embed_dataset(model, videos[:1])
    assert started == []


def test_embedding_under_an_active_tape_is_rejected(monkeypatch):
    model, videos = embedding_case("entity", "cls_style", 2)
    monkeypatch.setattr(ev, "_available_cpus", lambda: 2)
    with Tape() as tape:
        with pytest.raises(GraphError, match="Tape"):
            ev.embed_dataset(model, videos)
    assert len(tape) == 0
    # once the tape has exited, the same call runs
    assert len(ev.embed_dataset(model, videos)) == 2


def test_embedding_threads_call_a_one_thread_openblas_and_restore_it(monkeypatch):
    controls = ev._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    before = [get() for get, _ in controls]
    model, videos = embedding_case("entity", "cls_style", 2)
    seen = []
    forward = model.embed_frames

    def spy(layers):
        seen.append([get() for get, _ in controls])
        return forward(layers)

    monkeypatch.setattr(model, "embed_frames", spy)
    monkeypatch.setattr(ev, "_available_cpus", lambda: 2)
    try:
        for _, set_ in controls:
            set_(2)
        ev.embed_dataset(model, videos)
        assert seen == [[1] * len(controls)] * 2
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)


def test_metrics_do_not_depend_on_the_openblas_thread_count():
    # unpinned, the progression regression's float64 gram rounds
    # differently on one and on two OpenBLAS threads
    controls = ev._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    rng = np.random.default_rng(11)
    labels = np.repeat(np.arange(4), 4)
    progression = np.tile(np.linspace(0.0, 1.0, 4), 4)

    def videos(count):
        # 129 gram columns: a 65-column gram came out the same on either count
        return [make_video(rng.standard_normal((16, 128)) + labels[:, None], labels,
                           progression) for _ in range(count)]

    train, test = videos(8), videos(3)
    before = [get() for get, _ in controls]
    results = []
    try:
        for count in (1, 2):
            for _, set_ in controls:
                set_(count)
            results.append(ev.evaluate_model(train, test, ridge_lambda=1e-4))
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)
    assert results[0] == results[1]

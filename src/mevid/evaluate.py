"""Fine-grained evaluation on frozen frame embeddings.

Four tasks: linear-probe phase classification, phase-progression
regression (reported as average R^2), rank correlation of nearest-
neighbor frame matches between video pairs, and fine-grained frame
retrieval (AP@k). All operate on plain arrays; the model only supplies
the embeddings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


@dataclass
class EmbeddedVideo:
    video_id: str
    embeddings: np.ndarray        # [T, d] float32
    labels: np.ndarray            # [T] int
    progression: np.ndarray       # [T] float
    split: str                    # "train" | "test"


@dataclass
class EmbeddedDataset:
    videos: list[EmbeddedVideo]

    def subset(self, split: str) -> list[EmbeddedVideo]:
        return [v for v in self.videos if v.split == split]

    def stacked(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        vids = self.subset(split)
        if not vids:
            raise ValueError(f"no videos in split {split!r}")
        x = np.concatenate([v.embeddings for v in vids], axis=0)
        y = np.concatenate([v.labels for v in vids], axis=0)
        return x, y


def embed_dataset(model, videos, split_of: dict[str, str]) -> EmbeddedDataset:
    """Run the frozen model over full videos; no gradients are recorded."""
    out = []
    for video in videos:
        emb = model.embed_frames(video.layers, video.timestamps).data.copy()
        out.append(EmbeddedVideo(
            video_id=video.video_id,
            embeddings=emb,
            labels=np.asarray(video.labels),
            progression=np.asarray(video.progression),
            split=split_of[video.video_id],
        ))
    return EmbeddedDataset(out)


# ---------------------------------------------------------------------------
# (1) phase classification via linear probe


def _standardize(train_x: np.ndarray, test_x: np.ndarray):
    mu = train_x.mean(axis=0)
    sd = train_x.std(axis=0)
    sd[sd < 1e-8] = 1.0
    return (train_x - mu) / sd, (test_x - mu) / sd


def _fit_softmax_probe(x: np.ndarray, y: np.ndarray, classes: int,
                       epochs: int, lr: float) -> np.ndarray:
    """Full-batch gradient descent on softmax cross-entropy; zero init."""
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


def linear_probe_classification(train: EmbeddedDataset, test: EmbeddedDataset,
                                epochs: int = 500, lr: float = 1.0) -> float:
    """Test-frame accuracy of a multinomial logistic probe on frozen
    embeddings, standardized by train-split statistics."""
    train_x, train_y = train.stacked("train")
    test_x, test_y = test.stacked("test")
    classes = int(train_y.max()) + 1
    if np.unique(train_y).size < 2:
        raise ValueError("training split contains a single class")
    train_x, test_x = _standardize(train_x, test_x)
    w = _fit_softmax_probe(train_x, train_y, classes, epochs, lr)
    xb = np.concatenate([test_x, np.ones((test_x.shape[0], 1), dtype=test_x.dtype)], axis=1)
    pred = np.argmax(xb.astype(np.float64) @ w, axis=1)
    return float(np.mean(pred == test_y))


# ---------------------------------------------------------------------------
# (2) phase progression


def r_squared(targets: np.ndarray, predictions: np.ndarray) -> float:
    """1 - SS_res/SS_tot against the targets' own mean."""
    t = np.asarray(targets, dtype=np.float64)
    p = np.asarray(predictions, dtype=np.float64)
    ss_tot = float(((t - t.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ValueError("targets have zero variance")
    return 1.0 - float(((t - p) ** 2).sum()) / ss_tot


def phase_progression_r2(train: EmbeddedDataset, test: EmbeddedDataset,
                         ridge_lambda: float = 1e-4) -> float:
    """Closed-form ridge regression to the progression target; R^2 is
    computed per test video against its own target mean, then averaged.
    Zero-variance videos are excluded with a warning."""
    train_vids = train.subset("train")
    x = np.concatenate([v.embeddings for v in train_vids], axis=0).astype(np.float64)
    y = np.concatenate([v.progression for v in train_vids], axis=0).astype(np.float64)
    mu, sd = x.mean(axis=0), x.std(axis=0)
    sd[sd < 1e-8] = 1.0
    xb = np.concatenate([(x - mu) / sd, np.ones((x.shape[0], 1))], axis=1)
    gram = xb.T @ xb + ridge_lambda * np.eye(xb.shape[1])
    w = np.linalg.solve(gram, xb.T @ y)

    scores = []
    skipped = 0
    for v in test.subset("test"):
        target = v.progression.astype(np.float64)
        ss_tot = float(((target - target.mean()) ** 2).sum())
        if ss_tot == 0.0:
            skipped += 1
            continue
        xv = (v.embeddings.astype(np.float64) - mu) / sd
        xb_v = np.concatenate([xv, np.ones((len(target), 1))], axis=1)
        scores.append(r_squared(target, xb_v @ w))
    if skipped:
        log.warning("progression: excluded %d zero-variance videos", skipped)
    if not scores:
        raise ValueError("no test video has progression variance")
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# (3) rank correlation of nearest-neighbor matches


def nearest_neighbor_assignment(emb_a: np.ndarray, emb_b: np.ndarray) -> np.ndarray:
    """For each frame of a, the index of its Euclidean nearest frame in b;
    ties break toward the lower index."""
    d2 = ((emb_a[:, None, :].astype(np.float64)
           - emb_b[None, :, :].astype(np.float64)) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)  # argmin returns the first minimum


def tau_of_assignment(assignment: np.ndarray) -> float:
    """Concordant-minus-discordant pair fraction; equal matches count 0."""
    n = len(assignment)
    if n < 2:
        raise ValueError("need at least 2 frames for a rank correlation")
    i, j = np.triu_indices(n, k=1)
    sign = np.sign(assignment[j].astype(np.int64) - assignment[i].astype(np.int64))
    return float(sign.sum() / (n * (n - 1) / 2))


def kendalls_tau(emb_a: np.ndarray, emb_b: np.ndarray) -> float:
    if len(emb_a) < 2 or len(emb_b) < 2:
        raise ValueError("need at least 2 frames per video")
    return tau_of_assignment(nearest_neighbor_assignment(emb_a, emb_b))


def dataset_tau(videos: list[EmbeddedVideo]) -> float:
    """Mean over all ordered pairs of distinct videos."""
    scores = [
        kendalls_tau(a.embeddings, b.embeddings)
        for a in videos for b in videos if a is not b
    ]
    if not scores:
        raise ValueError("need at least 2 videos for the pairwise rank score")
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# (4) fine-grained frame retrieval


def average_precision_at_k(relevance: np.ndarray, k: int, total_relevant: int) -> float:
    """AP@k = sum_i precision@i * rel_i / min(k, R) over the top-k ranking."""
    top = relevance[:k].astype(np.float64)
    if total_relevant == 0:
        raise ValueError("no relevant candidates")
    precision_at = np.cumsum(top) / (np.arange(len(top)) + 1)
    return float((precision_at * top).sum() / min(k, total_relevant))


def retrieval_ap_at_k(videos: list[EmbeddedVideo], k: int = 5) -> float:
    """Mean AP@k over every query frame; candidates are all frames from
    the other videos, relevance is a matching phase label. Queries without
    relevant candidates are skipped and counted."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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
            ranked = rel_all[order[row]]
            scores.append(average_precision_at_k(ranked, k, total))
    if skipped:
        log.warning("retrieval: skipped %d queries with no relevant candidates", skipped)
    if not scores:
        raise ValueError("every query was skipped")
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# combined report


@dataclass(frozen=True)
class ProbeConfig:
    probe_epochs: int = 500
    probe_lr: float = 1.0
    ridge_lambda: float = 1e-4
    retrieval_k: int = 5


METRIC_NAMES = ("classification", "progression", "tau", "retrieval_ap5")


def evaluate_model(embedded: EmbeddedDataset, probes: ProbeConfig) -> dict[str, float]:
    test_videos = embedded.subset("test")
    return {
        "classification": linear_probe_classification(
            embedded, embedded, probes.probe_epochs, probes.probe_lr),
        "progression": phase_progression_r2(embedded, embedded, probes.ridge_lambda),
        "tau": dataset_tau(test_videos),
        "retrieval_ap5": retrieval_ap_at_k(test_videos, probes.retrieval_k),
    }

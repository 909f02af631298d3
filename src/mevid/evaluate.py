"""Fine-grained evaluation on frozen frame embeddings.

Four tasks: linear-probe phase classification, phase-progression
regression (reported as average R^2), rank correlation of nearest-
neighbor frame matches between video pairs, and fine-grained frame
retrieval (AP@5). All operate on plain arrays; the model only supplies
the embeddings.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tensor as T

log = logging.getLogger(__name__)


@dataclass
class EmbeddedVideo:
    embeddings: np.ndarray        # [T, d] float32
    labels: np.ndarray            # [T] int
    progression: np.ndarray       # [T] float


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_OPENBLAS_SYMBOLS = [(prefix, suffix) for prefix in ("openblas", "scipy_openblas")
                     for suffix in ("", "64_")]


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS this process has
    loaded, found by path in /proc/self/maps; none where that file cannot
    be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({parts[5] for parts in (line.rstrip("\n").split(None, 5)
                                                    for line in fh)
                            if len(parts) == 6 and "openblas" in os.path.basename(parts[5])})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # plain and ILP64 builds, and the scipy-openblas wheels' prefix
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread per call, then
    restore each count.

    Threads that each call a multithreaded OpenBLAS oversubscribe the CPUs:
    on 2 vCPUs, two embedding threads over a 2-thread OpenBLAS took 2.0 s
    for `eval_long`'s 40 videos, one thread 1.5 s, and two threads over a
    1-thread OpenBLAS 0.9 s. The embedding's products come out the same
    at one and at two threads; `evaluate_model`'s float64 gram does not."""
    restore = []
    for get, set_ in _openblas_thread_controls():
        count = get()
        if count > 1:
            set_(1)
            restore.append((set_, count))
    try:
        yield
    finally:
        for set_, count in restore:
            set_(count)


# glibc's mallopt parameter numbers (malloc.h). 32 MiB is the ceiling of
# glibc's own dynamic mmap threshold, and the trim threshold is twice it,
# the ratio the dynamic rule keeps.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES


def _keep_heap_resident() -> None:
    """Serve arrays under 32 MiB from the heap and keep up to 64 MiB of
    freed heap mapped, so each training step and eval pass reuses pages
    instead of faulting in fresh ones. `training.train` and
    `embed_dataset` call it, so every caller of either gets it.

    glibc starts with a 128 KiB mmap threshold and raises it only when a
    larger mmapped block is freed, so without this a run's speed depends
    on what the process allocated before it. Idempotent; a no-op where
    libc or its mallopt cannot be found."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def embed_dataset(model, videos) -> list[EmbeddedVideo]:
    """Run the frozen model over full videos; no gradients are recorded.

    Videos are embedded concurrently, one thread per available CPU up to
    one per video, and come back in input order; with one worker no
    thread starts. Each video is an independent forward pass that only
    reads the weights, so every float equals the one-at-a-time result.
    The threads overlap inside numpy's matmul and ufunc loops, which
    release the GIL; OpenBLAS runs one thread per call meanwhile
    (`_one_blas_thread`)."""
    # the active tape is one process-wide slot: worker threads appending to
    # it would record ops in a nondeterministic order
    if T._active_tape is not None:
        raise T.GraphError("embed_dataset cannot run while a Tape is recording")
    _keep_heap_resident()

    def embed(video) -> EmbeddedVideo:
        emb = model.embed_frames([l[None] for l in video.layers]).data[0].copy()
        return EmbeddedVideo(emb, np.asarray(video.labels), np.asarray(video.progression))

    videos = list(videos)
    workers = min(_available_cpus(), len(videos))
    if workers <= 1:
        return [embed(video) for video in videos]
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(embed, videos))


# ---------------------------------------------------------------------------
# (1) phase classification via linear probe


def _design_matrices(train_x: np.ndarray, *others: np.ndarray) -> list[np.ndarray]:
    """Float64 probe inputs for `train_x` and each of `others`: every
    matrix standardized by the train rows' mean and std, with a bias column
    of ones appended."""
    x = np.asarray(train_x, dtype=np.float64)
    mu, sd = x.mean(axis=0), x.std(axis=0)
    sd[sd < 1e-8] = 1.0
    return [np.concatenate([(np.asarray(m, dtype=np.float64) - mu) / sd,
                            np.ones((len(m), 1))], axis=1)
            for m in (x, *others)]


# The probe minimizes mean softmax cross-entropy plus PROBE_L2 / 2 * ||W||^2,
# bias row included, until every gradient entry is within PROBE_GTOL of 0.
PROBE_L2 = 1e-3
PROBE_GTOL = 1e-6
_PROBE_MEMORY = 10        # L-BFGS curvature pairs
_PROBE_MAX_ITER = 1000
_ARMIJO = 1e-4            # sufficient-decrease fraction of the line search
_MAX_HALVINGS = 60        # backtracking steps per iteration


def _probe_objective(w: np.ndarray, xb: np.ndarray, onehot: np.ndarray):
    """The probe's objective at `w` and its gradient."""
    logits = xb @ w
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    total = p.sum(axis=1, keepdims=True)
    p /= total
    n = xb.shape[0]
    value = (np.log(total).sum() - (logits * onehot).sum()) / n + 0.5 * PROBE_L2 * (w * w).sum()
    return value, xb.T @ (p - onehot) / n + PROBE_L2 * w


def _fit_softmax_probe(xb: np.ndarray, y: np.ndarray, classes: int) -> np.ndarray:
    """W [features, classes] at the probe's optimum, by L-BFGS from zero
    with Armijo backtracking from a unit step. The objective is strongly
    convex, so every curvature pair is positive. Logs a warning if the
    iteration cap is reached or the line search stalls."""
    n = xb.shape[0]
    onehot = np.zeros((n, classes))
    onehot[np.arange(n), y] = 1.0
    w = np.zeros((xb.shape[1], classes))
    value, grad = _probe_objective(w, xb, onehot)
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_PROBE_MEMORY)
    for _ in range(_PROBE_MAX_ITER):
        if np.abs(grad).max() <= PROBE_GTOL:
            return w
        # the two-loop recursion: q = H·grad for L-BFGS's inverse Hessian H
        q, alphas = grad.copy(), []
        for s, g_diff, rho in reversed(pairs):
            alphas.append(rho * (s * q).sum())
            q -= alphas[-1] * g_diff
        if pairs:  # H starts as s·y / y·y of the newest pair
            q /= pairs[-1][2] * (pairs[-1][1] ** 2).sum()
        for (s, g_diff, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * (g_diff * q).sum()) * s
        slope = -(grad * q).sum()
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            w_next = w - step * q
            value_next, grad_next = _probe_objective(w_next, xb, onehot)
            if value_next <= value + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        s, g_diff = w_next - w, grad_next - grad
        pairs.append((s, g_diff, 1.0 / (s * g_diff).sum()))
        w, value, grad = w_next, value_next, grad_next
    log.warning("classification: the probe stopped at max |grad| %.3g, above %g",
                np.abs(grad).max(), PROBE_GTOL)
    return w


def linear_probe_classification(train: list[EmbeddedVideo], test: list[EmbeddedVideo]) -> float:
    """Test-frame accuracy of a multinomial logistic probe fit to its
    optimum on frozen embeddings, standardized by train-video statistics.
    The classes are the distinct train labels; a test label unseen in
    train counts as wrong."""
    train_x = np.concatenate([v.embeddings for v in train], axis=0)
    train_y = np.concatenate([v.labels for v in train], axis=0)
    test_x = np.concatenate([v.embeddings for v in test], axis=0)
    test_y = np.concatenate([v.labels for v in test], axis=0)
    classes, train_class = np.unique(train_y, return_inverse=True)
    if classes.size < 2:
        raise ValueError("training split contains a single class")
    train_xb, test_xb = _design_matrices(train_x, test_x)
    w = _fit_softmax_probe(train_xb, train_class, classes.size)
    pred = classes[np.argmax(test_xb @ w, axis=1)]
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


def phase_progression_r2(train: list[EmbeddedVideo], test: list[EmbeddedVideo],
                         ridge_lambda: float) -> float:
    """Closed-form ridge regression to the progression target; R^2 is
    computed per test video against its own target mean, then averaged.
    Zero-variance videos are excluded with a warning."""
    x = np.concatenate([v.embeddings for v in train], axis=0)
    y = np.concatenate([v.progression for v in train], axis=0).astype(np.float64)
    xb, *test_xb = _design_matrices(x, *(v.embeddings for v in test))
    gram = xb.T @ xb + ridge_lambda * np.eye(xb.shape[1])
    w = np.linalg.solve(gram, xb.T @ y)

    scores = []
    skipped = 0
    for v, xb_v in zip(test, test_xb):
        target = v.progression.astype(np.float64)
        ss_tot = float(((target - target.mean()) ** 2).sum())
        if ss_tot == 0.0:
            skipped += 1
            continue
        scores.append(r_squared(target, xb_v @ w))
    if skipped:
        log.warning("progression: excluded %d zero-variance videos", skipped)
    if not scores:
        raise ValueError("no test video has progression variance")
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# squared frame distances, shared by (3) and (4)

# Row blocks keep the [rows, Tb, d] float64 temporary of the elementwise
# distance formula near this size.
_BLOCK_BYTES = 4 << 20

# table[i][j]: [T_i, T_j] squared distances between the frames of videos i
# and j; None on the diagonal.
DistanceTable = list[list[np.ndarray | None]]


def squared_distances(emb_a: np.ndarray, emb_b: np.ndarray) -> np.ndarray:
    """[Ta, Tb] float64 squared Euclidean distances between the frames of
    a and b, each summed over the channel axis in the same order whatever
    the row block it falls in."""
    a = np.asarray(emb_a, dtype=np.float64)
    b = np.asarray(emb_b, dtype=np.float64)
    out = np.empty((a.shape[0], b.shape[0]))
    rows = max(1, _BLOCK_BYTES // max(1, b.nbytes))
    for r in range(0, a.shape[0], rows):
        out[r:r + rows] = ((a[r:r + rows, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return out


def distance_table(videos: list[EmbeddedVideo]) -> DistanceTable:
    """table[i][j] = squared_distances(videos[i], videos[j]) for i != j.

    Each unordered pair is computed once and (j, i) is the transpose view
    of (i, j). That is exact, not approximate: (x - y)^2 equals (y - x)^2
    bit for bit, and both sums run over the same channels in the same
    order."""
    n = len(videos)
    table: DistanceTable = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d2 = squared_distances(videos[i].embeddings, videos[j].embeddings)
            table[i][j] = d2
            table[j][i] = d2.T
    return table


# ---------------------------------------------------------------------------
# (3) rank correlation of nearest-neighbor matches


def tau_of_assignment(assignment: np.ndarray) -> float:
    """Concordant-minus-discordant pair fraction; equal matches count 0.

    The signs of pairs i < j are counted in row blocks of about
    `_BLOCK_BYTES`, so memory stays O(n) per row, not O(n^2); the integer
    total does not depend on the blocking."""
    a = np.asarray(assignment).astype(np.int64)
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 frames for a rank correlation")
    rows = max(1, _BLOCK_BYTES // (8 * n))
    total = 0
    for r in range(0, n - 1, rows):
        # row i of the block against every column j > r; triu keeps j > i
        sign = np.sign(a[None, r + 1:] - a[r:r + rows, None])
        total += int(np.triu(sign).sum())
    return float(total / (n * (n - 1) / 2))


def _tau_of_distances(d2: np.ndarray) -> float:
    """Tau of the nearest-neighbor assignment of a [Ta, Tb] distance block;
    argmin returns the first minimum, so ties break toward the lower index."""
    if d2.shape[0] < 2 or d2.shape[1] < 2:
        raise ValueError("need at least 2 frames per video")
    return tau_of_assignment(np.argmin(d2, axis=1))


def dataset_tau(distances: DistanceTable) -> float:
    """Mean over all ordered pairs of distinct videos, given their
    `distance_table`."""
    scores = [_tau_of_distances(d2) for i, row in enumerate(distances)
              for j, d2 in enumerate(row) if i != j]
    if not scores:
        raise ValueError("need at least 2 videos for the pairwise rank score")
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# (4) fine-grained frame retrieval


def average_precision_at_k(relevance: np.ndarray, k: int,
                           total_relevant: int | np.ndarray) -> float | np.ndarray:
    """AP@k = sum_i precision@i * rel_i / min(k, R) over the top-k ranking.

    `relevance` is one ranking, or one ranking per row with one
    `total_relevant` each; every row runs the same float64 operations in
    the same order as a ranking passed alone."""
    top = np.asarray(relevance)[..., :k].astype(np.float64)
    total = np.asarray(total_relevant)
    if np.any(total == 0):
        raise ValueError("no relevant candidates")
    precision_at = np.cumsum(top, axis=-1) / (np.arange(top.shape[-1]) + 1)
    return (precision_at * top).sum(axis=-1) / np.minimum(k, total)


def retrieval_ap_at_k(videos: list[EmbeddedVideo], distances: DistanceTable,
                      k: int) -> float:
    """Mean AP@k over every query frame; candidates are all frames from
    the other videos, relevance is a matching phase label. Queries without
    relevant candidates are skipped and counted. `distances` is
    `distance_table(videos)`."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    labels = [np.asarray(v.labels) for v in videos]
    scores = [np.empty(0)]
    skipped = 0
    for qi, ql in enumerate(labels):
        others = [i for i in range(len(videos)) if i != qi]
        pool_lab = np.concatenate([labels[i] for i in others], axis=0)
        d2 = np.concatenate([distances[qi][i] for i in others], axis=1)
        order = np.argsort(d2, axis=1, kind="stable")
        rel_all = pool_lab[None, :] == ql[:, None]
        total = rel_all.sum(axis=1)
        kept = total > 0
        skipped += int((~kept).sum())
        ranked = np.take_along_axis(rel_all, order[:, :k], axis=1)
        scores.append(average_precision_at_k(ranked[kept], k, total[kept]))
    if skipped:
        log.warning("retrieval: skipped %d queries with no relevant candidates", skipped)
    scores = np.concatenate(scores)
    if scores.size == 0:
        raise ValueError("every query was skipped")
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# combined report


def evaluate_model(train: list[EmbeddedVideo], test: list[EmbeddedVideo],
                   ridge_lambda: float) -> dict[str, float]:
    # the progression regression's float64 gram rounds per BLAS thread count
    with _one_blas_thread():
        distances = distance_table(test)
        return {
            "classification": linear_probe_classification(train, test),
            "progression": phase_progression_r2(train, test, ridge_lambda),
            "tau": dataset_tau(distances),
            "retrieval_ap5": retrieval_ap_at_k(test, distances, k=5),
        }

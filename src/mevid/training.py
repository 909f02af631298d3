"""Self-supervised training: two-view sampling, the Gaussian-target
sequence contrastive loss, Adam, and the single-process training loop.

A batch is a set of videos; the loss is computed per video between its
two sampled views and averaged, with no cross-video negatives. A step
runs all of its views through the model as one batch of sequences, on
one tape. The whole loop is a pure function of (dataset, configs):
repeated runs produce bit-identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .evaluate import _keep_heap_resident, _one_blas_thread
from .features import VideoFeatures
from .model import Model, ModelConfig
from .tensor import Parameter, Tape, Tensor


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Fields are named as the run config's keys; `RunConfig` holds their
    defaults."""

    view_len: int
    scl_sigma: float              # frames
    scl_temperature: float
    lr: float
    beta1: float
    beta2: float
    adam_eps: float
    max_steps: int                # optimizer steps
    batch: int
    seed: int

    def __post_init__(self):
        if self.view_len < 2:
            raise ValueError(f"view_len must be >= 2, got {self.view_len}")
        # written so that NaN fails every range
        for key in ("scl_sigma", "scl_temperature", "adam_eps"):
            if not 0 < getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be finite and > 0, got {getattr(self, key)}")
        if not 0 <= self.lr < np.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        for key in ("beta1", "beta2"):
            if not 0 <= getattr(self, key) < 1:
                raise ValueError(f"{key} must be in [0, 1), got {getattr(self, key)}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# view sampling


def sample_two_views(video: VideoFeatures, view_len: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent sorted uniform-without-replacement frame subsets."""
    t = video.num_frames
    if t < view_len:
        raise ValueError(f"video {video.video_id} has {t} frames, need {view_len}")
    rng = np.random.default_rng(seed)
    idx1 = np.sort(rng.choice(t, size=view_len, replace=False))
    idx2 = np.sort(rng.choice(t, size=view_len, replace=False))
    return idx1, idx2


# ---------------------------------------------------------------------------
# sequence contrastive loss


def gaussian_targets(t_anchor: np.ndarray, t_other: np.ndarray, sigma: float,
                     dtype=np.float32) -> np.ndarray:
    """Row-normalized Gaussian affinity over timestamp differences:
    [..., N1] and [..., N2] timestamps give [..., N1, N2] targets."""
    t_anchor = np.asarray(t_anchor, dtype=np.float64)
    t_other = np.asarray(t_other, dtype=np.float64)
    delta = t_anchor[..., :, None] - t_other[..., None, :]
    # floored so absurdly distant timestamps cannot underflow to exact zero
    w = np.maximum(np.exp(-(delta ** 2) / (2.0 * sigma ** 2)), 1e-300)
    return (w / w.sum(axis=-1, keepdims=True)).astype(dtype)


def _directed_kl(z_anchor: Tensor, z_other: Tensor, targets: np.ndarray,
                 temperature: float) -> Tensor:
    """KL from `targets` [B, N1, N2] to the predictions, summed over the
    batch and divided by N1."""
    cos = T.matmul(T.normalize_rows(z_anchor), T.swap_last(T.normalize_rows(z_other)))
    log_pred = T.log_softmax(T.scale(cos, 1.0 / temperature), axis=2)
    g = np.maximum(targets.astype(np.float64), 1e-45)  # log-safe after f32 cast
    entropy = Tensor((g * np.log(g)).sum(), dtype=z_anchor.dtype)
    cross = T.sum_all(T.mul(Tensor(targets, dtype=z_anchor.dtype), log_pred))
    return T.scale(T.sub(entropy, cross), 1.0 / targets.shape[1])


def sequence_contrastive_loss(
    z1: Tensor,
    t1: np.ndarray,
    z2: Tensor,
    t2: np.ndarray,
    sigma: float,
    temperature: float,
) -> Tensor:
    """Mean KL from Gaussian timestamp targets to cosine-softmax
    predictions, symmetrized over the two views, averaged over videos.

    `z1` [B, N1, d] and `z2` [B, N2, d] hold the two views of B videos,
    with timestamps `t1` [B, N1] and `t2` [B, N2]. Nonnegative; zero
    exactly when predictions equal targets in both directions for every
    video.
    """
    t1, t2 = np.asarray(t1), np.asarray(t2)
    if z1.shape[:2] != t1.shape or z2.shape[:2] != t2.shape or z1.shape[0] != z2.shape[0]:
        raise ValueError("embedding counts do not match timestamp counts")
    forward = _directed_kl(z1, z2, gaussian_targets(t1, t2, sigma, z1.dtype), temperature)
    backward = _directed_kl(z2, z1, gaussian_targets(t2, t1, sigma, z1.dtype), temperature)
    return T.scale(T.add(forward, backward), 0.5 / z1.shape[0])


# ---------------------------------------------------------------------------
# Adam


class AdamState:
    def __init__(self, params: dict[str, Parameter]):
        self.step = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}


def adam_step(params: dict[str, Parameter], state: AdamState,
              config: TrainConfig) -> None:
    """Standard Adam with bias correction, updating parameters and moments
    in place, in parameter order."""
    state.step += 1
    bc1 = 1.0 - config.beta1 ** state.step
    bc2 = 1.0 - config.beta2 ** state.step
    for name, p in params.items():
        g = p.grad
        m, v = state.m[name], state.v[name]
        if m.shape != p.data.shape:
            raise ValueError(
                f"optimizer state for {name} has shape {m.shape}, "
                f"parameter has {p.data.shape}"
            )
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        denom = np.sqrt(v / bc2)
        denom += config.adam_eps
        step = m / bc1
        step *= config.lr
        step /= denom
        p.data -= step


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    model: Model
    loss_trace: list[float]


def format_loss_trace(trace: list[float]) -> str:
    """One `step\\tloss` line per step, float32 at 6 significant digits."""
    return "".join(
        f"{step}\t{float(np.float32(value)):.6g}\n" for step, value in enumerate(trace)
    )


def train(dataset: list[VideoFeatures], model_config: ModelConfig,
          config: TrainConfig) -> TrainResult:
    """Sample views, pool, fuse, project, and optimize the contrastive loss.

    Backbone features are read-only throughout; only model parameters
    receive updates. The steps run with every loaded OpenBLAS on one
    thread (`_one_blas_thread`): their products are too small to gain from
    more, and concurrent trainings over a multithreaded OpenBLAS
    oversubscribe the CPUs.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    _keep_heap_resident()
    rng = np.random.default_rng(config.seed)
    model = Model(model_config, rng)
    params = model.params
    state = AdamState(params)

    trace: list[float] = []
    with _one_blas_thread():
        while len(trace) < config.max_steps:
            order = rng.permutation(len(dataset))
            for start in range(0, len(order), config.batch):
                if len(trace) == config.max_steps:
                    break
                batch = [dataset[i] for i in order[start:start + config.batch]]
                seeds = [int(rng.integers(2 ** 63)) for _ in batch]

                with Tape() as tape:
                    loss = _step_loss(model, batch, seeds, config)

                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingDiverged(f"non-finite loss {value} at step {len(trace)}")
                model.zero_grads()
                tape.backward(loss)
                bad = next((name for name, p in params.items()
                            if not np.isfinite(p.grad).all()), None)
                if bad is not None:
                    raise TrainingDiverged(f"non-finite gradient of {bad} at step {len(trace)}")
                adam_step(params, state, config)
                trace.append(value)
    return TrainResult(model=model, loss_trace=trace)


def _step_loss(model: Model, batch: list[VideoFeatures], seeds: list[int],
               config: TrainConfig) -> Tensor:
    """The batch's mean contrastive loss, from one forward over its 2·B views.

    Views are stacked video by video (video 0 view 1, video 0 view 2,
    video 1 view 1, ...). The step agrees with forwarding each view alone
    and averaging one loss per video to float32 rounding, not bit for bit
    (see the sequence axis in `tensor`).
    """
    views = [sample_two_views(video, config.view_len, seed)
             for video, seed in zip(batch, seeds)]
    picks = [(video, idx) for video, pair in zip(batch, views) for idx in pair]
    layers = [np.stack([video.layers[l][idx] for video, idx in picks])
              for l in range(len(batch[0].layers))]
    z = model.project(model.embed_frames(layers))    # [2B, N, d]
    b, n, d = len(batch), config.view_len, z.shape[2]
    pairs = T.reshape(z, (b, 2, n, d))
    z1, z2 = (T.reshape(T.narrow(pairs, 1, i, 1), (b, n, d)) for i in (0, 1))
    return sequence_contrastive_loss(
        z1, np.stack([idx1 for idx1, _ in views]),
        z2, np.stack([idx2 for _, idx2 in views]),
        config.scl_sigma, config.scl_temperature)

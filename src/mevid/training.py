"""Self-supervised training: two-view sampling, the Gaussian-target
sequence contrastive loss, Adam, and the single-process training loop.

A batch is a set of videos; the loss is computed per video between its
two sampled views and averaged, with no cross-video negatives. The whole
loop is a pure function of (dataset, configs): repeated runs produce
bit-identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .features import VideoFeatures
from .model import Model, ModelConfig
from .tensor import Parameter, Tape, Tensor


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    view_len: int = 8
    scl_sigma: float = 3.0        # frames
    scl_temperature: float = 0.1
    lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    max_steps: int = 300          # optimizer steps
    batch_size: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.view_len < 2:
            raise ValueError(f"view_len must be >= 2, got {self.view_len}")
        if self.scl_sigma <= 0 or self.scl_temperature <= 0:
            raise ValueError("scl_sigma and scl_temperature must be positive")
        if self.lr < 0:
            raise ValueError(f"learning rate must be nonnegative, got {self.lr}")
        if self.batch_size < 1 or self.max_steps < 0:
            raise ValueError("batch_size must be >= 1 and max_steps >= 0")


# ---------------------------------------------------------------------------
# view sampling


@dataclass
class TwoViews:
    indices1: np.ndarray
    timestamps1: np.ndarray
    indices2: np.ndarray
    timestamps2: np.ndarray


def sample_two_views(video: VideoFeatures, view_len: int, seed: int) -> TwoViews:
    """Two independent sorted uniform-without-replacement frame subsets."""
    t = video.num_frames
    if t < view_len:
        raise ValueError(f"video {video.video_id} has {t} frames, need {view_len}")
    rng = np.random.default_rng(seed)
    idx1 = np.sort(rng.choice(t, size=view_len, replace=False))
    idx2 = np.sort(rng.choice(t, size=view_len, replace=False))
    ts = np.asarray(video.timestamps)
    return TwoViews(idx1, ts[idx1], idx2, ts[idx2])


# ---------------------------------------------------------------------------
# sequence contrastive loss


def gaussian_targets(t_anchor: np.ndarray, t_other: np.ndarray, sigma: float,
                     dtype=np.float32) -> np.ndarray:
    """Row-normalized Gaussian affinity over timestamp differences."""
    delta = np.asarray(t_anchor, dtype=np.float64)[:, None] - np.asarray(
        t_other, dtype=np.float64)[None, :]
    # floored so absurdly distant timestamps cannot underflow to exact zero
    w = np.maximum(np.exp(-(delta ** 2) / (2.0 * sigma ** 2)), 1e-300)
    return (w / w.sum(axis=1, keepdims=True)).astype(dtype)


def _directed_kl(z_anchor: Tensor, z_other: Tensor, targets: np.ndarray,
                 temperature: float) -> Tensor:
    cos = T.matmul(T.normalize_rows(z_anchor), T.swap_last(T.normalize_rows(z_other)))
    log_pred = T.log_softmax(T.scale(cos, 1.0 / temperature), axis=1)
    g = np.maximum(targets.astype(np.float64), 1e-45)  # log-safe after f32 cast
    entropy_term = float((g * np.log(g)).sum())
    cross = T.sum_all(T.mul(Tensor(targets, dtype=z_anchor.dtype), log_pred))
    gap = T.sub(Tensor(entropy_term, dtype=z_anchor.dtype), cross)
    return T.scale(gap, 1.0 / targets.shape[0])


def sequence_contrastive_loss(
    z1: Tensor,
    t1: np.ndarray,
    z2: Tensor,
    t2: np.ndarray,
    sigma: float,
    temperature: float,
) -> Tensor:
    """Mean KL from Gaussian timestamp targets to cosine-softmax
    predictions, symmetrized over the two views. Nonnegative; zero exactly
    when predictions equal targets in both directions.
    """
    if z1.shape[0] != len(t1) or z2.shape[0] != len(t2):
        raise ValueError("embedding counts do not match timestamp counts")
    g12 = gaussian_targets(t1, t2, sigma, z1.dtype)
    g21 = gaussian_targets(t2, t1, sigma, z1.dtype)
    forward = _directed_kl(z1, z2, g12, temperature)
    backward = _directed_kl(z2, z1, g21, temperature)
    return T.scale(T.add(forward, backward), 0.5)


# ---------------------------------------------------------------------------
# Adam


class AdamState:
    def __init__(self, params: dict[str, Parameter]):
        self.step = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}


def adam_step(params: dict[str, Parameter], state: AdamState,
              config: TrainConfig) -> None:
    """Standard Adam with bias correction, applied in parameter order."""
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
        denom = np.sqrt(v / bc2) + config.adam_eps
        p.data = p.data - config.lr * (m / bc1) / denom


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
    receive updates.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    rng = np.random.default_rng(config.seed)
    model = Model(model_config, rng)
    params = model.parameters()
    state = AdamState(params)

    trace: list[float] = []
    while len(trace) < config.max_steps:
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), config.batch_size):
            if len(trace) == config.max_steps:
                break
            batch = [dataset[i] for i in order[start:start + config.batch_size]]
            seeds = [int(rng.integers(2 ** 63)) for _ in batch]

            with Tape() as tape:
                total = None
                for video, view_seed in zip(batch, seeds):
                    views = sample_two_views(video, config.view_len, view_seed)
                    loss_v = _video_loss(model, video, views, config)
                    total = loss_v if total is None else T.add(total, loss_v)
                loss = T.scale(total, 1.0 / len(batch))

            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(f"non-finite loss {value} at step {len(trace)}")
            model.zero_grads()
            tape.backward(loss)
            adam_step(params, state, config)
            trace.append(value)
    return TrainResult(model=model, loss_trace=trace)


def _video_loss(model: Model, video: VideoFeatures, views: TwoViews,
                config: TrainConfig) -> Tensor:
    # The position code sees view-local indices only; the loss targets use
    # the original timestamps. A code that named the true frame index would
    # let the fusion model fit the Gaussian targets from position alone,
    # with no pressure to read the frame content.
    positions = np.arange(config.view_len)
    z = []
    for idx in (views.indices1, views.indices2):
        layers = [np.ascontiguousarray(layer[idx]) for layer in video.layers]
        pooled = model.embed_frames(layers, positions)
        z.append(model.project(pooled))
    return sequence_contrastive_loss(
        z[0], views.timestamps1, z[1], views.timestamps2,
        config.scl_sigma, config.scl_temperature)

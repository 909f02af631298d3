"""End-to-end runs: dataset preparation, train + evaluate per seed, and
the multi-trial protocol (mean plus/minus two sample standard deviations
over independently seeded initializations).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .evaluate import embed_dataset, evaluate_model
from .features import VideoFeatures, generate_synthetic_dataset, select_layers
from .model import Model, load_checkpoint_bytes, save_checkpoint_bytes
from .training import TrainResult, train


def split_video_ids(video_ids: list[str], train_fraction: float, seed: int) -> dict[str, str]:
    """Seeded 80/20-style split by video; train count is floored."""
    rng = np.random.default_rng([seed, 2])
    order = rng.permutation(len(video_ids))
    n_train = int(np.floor(train_fraction * len(video_ids)))
    split = {}
    for rank, idx in enumerate(order):
        split[video_ids[idx]] = "train" if rank < n_train else "test"
    return split


def dataset_from_config(config: RunConfig) -> tuple[list[VideoFeatures], dict[str, str]]:
    """Synthetic videos with the configured layer selection applied."""
    raw = generate_synthetic_dataset(config.synthetic_spec())
    split = split_video_ids([v.video_id for v in raw], config.train_fraction,
                            config.data_seed)
    selected = [select_layers(v, list(config.layer_select)) for v in raw]
    return selected, split


def train_model(config: RunConfig, videos: list[VideoFeatures],
                split_of: dict[str, str], seed: int | None = None) -> TrainResult:
    """Train on the train split."""
    if seed is not None:
        config = replace(config, seed=seed)
    train_videos = [v for v in videos if split_of[v.video_id] == "train"]
    return train(train_videos, config.model_config(), config.train_config())


def evaluate_trained(config: RunConfig, model: Model, videos: list[VideoFeatures],
                     split_of: dict[str, str]) -> dict[str, float]:
    """The four metrics of `model`. The train and test lists keep the order
    of `videos`, which fixes tau's mean and retrieval's candidate pool."""
    train = [v for v in videos if split_of[v.video_id] == "train"]
    test = [v for v in videos if split_of[v.video_id] == "test"]
    embedded = embed_dataset(model, train + test)
    return evaluate_model(embedded[:len(train)], embedded[len(train):], config.ridge_lambda)


# ---------------------------------------------------------------------------
# multi-trial protocol


@dataclass
class SeedOutcome:
    seed: int
    metrics: dict[str, float]
    checkpoint: bytes
    loss_trace: list[float]


def summarize(outcomes: list[SeedOutcome]) -> dict[str, dict]:
    """Per metric: the per-seed `values`, their `mean`, the sample `stdev`
    over seeds, and the `summary` string "mean ± 2·stdev"."""
    if len(outcomes) < 2:
        raise ValueError("dispersion needs at least 2 seeds")
    out = {}
    for name in outcomes[0].metrics:
        values = [o.metrics[name] for o in outcomes]
        mean, stdev = float(np.mean(values)), float(np.std(values, ddof=1))
        out[name] = {"values": values, "mean": mean, "stdev": stdev,
                     "summary": f"{mean:.2f} ± {2.0 * stdev:.2f}"}
    return out


def run_trials(config: RunConfig, seeds: list[int], videos: list[VideoFeatures],
               split_of: dict[str, str]) -> list[SeedOutcome]:
    """Train and evaluate once per seed on a shared dataset."""
    outcomes = []
    for seed in seeds:
        try:
            result = train_model(config, videos, split_of, seed=seed)
            metrics = evaluate_trained(config, result.model, videos, split_of)
        except Exception as exc:
            raise RuntimeError(f"trial with seed {seed} failed: {exc}") from exc
        outcomes.append(SeedOutcome(seed, metrics, save_checkpoint_bytes(result.model),
                                    result.loss_trace))
    return outcomes


class _ZeroInit:
    """Stands in for the generator of a `Model` whose every value the
    caller overwrites: `Model`'s init draws only `standard_normal`, so
    zeros give the same names and shapes without the draws."""

    @staticmethod
    def standard_normal(shape) -> np.ndarray:
        return np.zeros(shape)


def model_from_checkpoint(config: RunConfig, checkpoint: bytes) -> Model:
    model = Model(config.model_config(), _ZeroInit())
    model.load_state(load_checkpoint_bytes(checkpoint))
    return model

"""End-to-end runs: dataset preparation, train + evaluate per seed, and
the multi-trial protocol (mean plus/minus two sample standard deviations
over independently seeded initializations).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
    train_videos = [v for v in videos if split_of[v.video_id] == "train"]
    return train(train_videos, config.model_config(), config.train_config(seed))


def evaluate_trained(config: RunConfig, model: Model, videos: list[VideoFeatures],
                     split_of: dict[str, str]) -> dict[str, float]:
    embedded = embed_dataset(model, videos, split_of)
    return evaluate_model(embedded, config.probe_config())


# ---------------------------------------------------------------------------
# multi-trial protocol


@dataclass
class SeedOutcome:
    seed: int
    metrics: dict[str, float]
    checkpoint: bytes
    loss_trace: list[float]


@dataclass
class TrialStat:
    values: list[float]
    mean: float
    stdev: float

    @property
    def summary(self) -> str:
        return f"{self.mean:.2f} ± {2.0 * self.stdev:.2f}"


@dataclass
class TrialReport:
    stats: dict[str, TrialStat]
    per_seed: list[SeedOutcome]

    def to_dict(self) -> dict:
        return {
            name: {
                "values": stat.values,
                "mean": stat.mean,
                "stdev": stat.stdev,
                "summary": stat.summary,
            }
            for name, stat in self.stats.items()
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def table(self) -> str:
        width = max(len(n) for n in self.stats)
        lines = [f"{name:<{width}}  {stat.summary}" for name, stat in self.stats.items()]
        return "\n".join(lines) + "\n"


def aggregate_trials(outcomes: list[SeedOutcome]) -> TrialReport:
    if len(outcomes) < 2:
        raise ValueError("dispersion needs at least 2 seeds")
    names = outcomes[0].metrics.keys()
    stats = {}
    for name in names:
        values = [o.metrics[name] for o in outcomes]
        stats[name] = TrialStat(
            values=values,
            mean=float(np.mean(values)),
            stdev=float(np.std(values, ddof=1)),
        )
    return TrialReport(stats=stats, per_seed=outcomes)


def run_single(config: RunConfig, videos: list[VideoFeatures],
               split_of: dict[str, str], seed: int) -> SeedOutcome:
    result = train_model(config, videos, split_of, seed=seed)
    metrics = evaluate_trained(config, result.model, videos, split_of)
    return SeedOutcome(
        seed=seed,
        metrics=metrics,
        checkpoint=save_checkpoint_bytes(result.model),
        loss_trace=result.loss_trace,
    )


def run_trials(config: RunConfig, seeds: list[int],
               videos: list[VideoFeatures] | None = None,
               split_of: dict[str, str] | None = None) -> TrialReport:
    """Train and evaluate once per seed on a shared dataset, then aggregate."""
    if len(seeds) < 2:
        raise ValueError("the multi-trial protocol needs at least 2 seeds")
    if videos is None or split_of is None:
        videos, split_of = dataset_from_config(config)
    outcomes = []
    for seed in seeds:
        try:
            outcomes.append(run_single(config, videos, split_of, seed))
        except Exception as exc:
            raise RuntimeError(f"trial with seed {seed} failed: {exc}") from exc
    return aggregate_trials(outcomes)


def model_from_checkpoint(config: RunConfig, checkpoint: bytes) -> Model:
    model = Model(config.model_config(), np.random.default_rng(0))
    model.load_state(load_checkpoint_bytes(checkpoint))
    return model

"""Command-line entry point.

Subcommands: `gen` (synthetic MVFF dataset + manifest), `train`, `eval`
(metrics JSON on stdout), `attn` (attention-map PGM export), and `trials`
(multi-seed protocol). Every run echoes its resolved configuration to
stderr; feeding that echo back as a config file reproduces the run.

Exit codes: 0 success, 1 usage/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter

from . import pipeline
from .config import ConfigError, RunConfig, load_config, render_config
from .features import (atomic_open, generate_synthetic_dataset, load_mvff, select_layers,
                       write_mvff)
from .model import save_checkpoint
from .spatial_pooling import export_attention
from .training import format_loss_trace


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mevid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic MVFF dataset")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True, help="output directory")

    tr = sub.add_parser("train", help="train on an MVFF dataset directory")
    tr.add_argument("--config", required=True)
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True, help="checkpoint path")

    ev = sub.add_parser("eval", help="evaluate a checkpoint; JSON on stdout")
    ev.add_argument("checkpoint")
    ev.add_argument("--config", required=True)
    ev.add_argument("--data", required=True)

    at = sub.add_parser("attn", help="export attention maps as PGM files")
    at.add_argument("checkpoint")
    at.add_argument("video_id")
    at.add_argument("--config", required=True)
    at.add_argument("--data", required=True)
    at.add_argument("--out", required=True, help="output directory")

    tl = sub.add_parser("trials", help="multi-seed train/eval protocol")
    tl.add_argument("--config", required=True)
    tl.add_argument("--seeds", required=True, help="comma-separated seeds, e.g. 1,2,3")
    tl.add_argument("--out", default=None, help="optional JSON report path")
    return parser


def _write_text(path: str, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def _write_manifest(data_dir: str, entries: list[dict]) -> None:
    _write_text(os.path.join(data_dir, "manifest.json"),
                json.dumps({"videos": entries}, indent=2, sort_keys=True) + "\n")


def _read_manifest(data_dir: str) -> list[dict]:
    """The manifest's entries, checked before any MVFF file is read: each
    has a string `id` that no other entry uses, a string `file`, and a
    `split` of train or test."""
    path = os.path.join(data_dir, "manifest.json")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise UsageError(f"{path} is not valid JSON: {exc}") from None
    entries = manifest.get("videos") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise UsageError(f"{path} must hold an object with a \"videos\" list")
    seen = set()
    for index, entry in enumerate(entries):
        where = f"{path}: videos[{index}]"
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str)
                and isinstance(entry.get("file"), str)):
            raise UsageError(f"{where} needs a string \"id\" and a string \"file\"")
        where += f" ({entry['id']!r})"
        if entry.get("split") not in ("train", "test"):
            raise UsageError(f"{where} has split {entry.get('split')!r}, "
                             f"not \"train\" or \"test\"")
        if entry["id"] in seen:
            raise UsageError(f"{where} repeats an earlier entry's id")
        seen.add(entry["id"])
    return entries


def _load_entry(data_dir: str, entry: dict, config: RunConfig):
    video = load_mvff(os.path.join(data_dir, entry["file"]), video_id=entry["id"])
    if config.layer_select[-1] >= video.num_layers:
        raise UsageError(f"layer_select = {','.join(map(str, config.layer_select))} names a "
                         f"layer past the {video.num_layers} of video {video.video_id!r}")
    if video.channels != config.channels:
        raise UsageError(f"channels = {config.channels}, but video {video.video_id!r} "
                         f"has {video.channels} channels")
    return select_layers(video, list(config.layer_select))


def _load_entries(data_dir: str, entries: list[dict], config: RunConfig):
    """The listed videos with the configured layer selection, and the split."""
    videos = [_load_entry(data_dir, entry, config) for entry in entries]
    return videos, {entry["id"]: entry["split"] for entry in entries}


def _require_eval_split(splits, source: str) -> None:
    # the probes fit on train videos; tau and retrieval compare test pairs
    counts = Counter(splits)
    if counts["train"] < 1 or counts["test"] < 2:
        raise UsageError(f"eval needs at least 1 train and 2 test videos, {source} "
                         f"{counts['train']} train / {counts['test']} test")


def _cmd_gen(args, config: RunConfig) -> int:
    os.makedirs(args.out, exist_ok=True)
    videos = generate_synthetic_dataset(config.synthetic_spec())
    split_of = pipeline.split_video_ids(
        [v.video_id for v in videos], config.train_fraction, config.data_seed)
    entries = []
    for video in videos:
        fname = f"{video.video_id}.mvff"
        write_mvff(video, os.path.join(args.out, fname))
        entries.append({"id": video.video_id, "file": fname,
                        "split": split_of[video.video_id]})
    _write_manifest(args.out, entries)
    counts = Counter(split_of.values())
    sys.stderr.write(f"wrote {len(entries)} videos ({counts['train']} train / "
                     f"{counts['test']} test) to {args.out}\n")
    return 0


def _cmd_train(args, config: RunConfig) -> int:
    videos, split_of = _load_entries(args.data, _read_manifest(args.data), config)
    train_videos = [v for v in videos if split_of[v.video_id] == "train"]
    if not train_videos:
        raise UsageError(f"{args.data} lists no train video")
    grid = train_videos[0].num_tokens
    odd = next((v for v in train_videos if v.num_tokens != grid), None)
    if odd is not None:
        raise UsageError(f"train videos must share one token grid: video {odd.video_id!r} has "
                         f"{odd.num_tokens} tokens per frame, {train_videos[0].video_id!r} "
                         f"{grid}")
    shortest = min(train_videos, key=lambda v: v.num_frames)
    if shortest.num_frames < config.view_len:
        raise UsageError(f"view_len {config.view_len} exceeds the {shortest.num_frames} "
                         f"frames of train video {shortest.video_id!r}")
    result = pipeline.train_model(config, videos, split_of)
    save_checkpoint(result.model, args.out)
    trace_path = args.out + ".loss.tsv"
    _write_text(trace_path, format_loss_trace(result.loss_trace))
    sys.stderr.write(f"checkpoint -> {args.out}\nloss trace -> {trace_path}\n")
    return 0


def _cmd_eval(args, config: RunConfig) -> int:
    entries = _read_manifest(args.data)
    _require_eval_split((e["split"] for e in entries), f"{args.data} lists")
    videos, split_of = _load_entries(args.data, entries, config)
    for video in videos:
        if video.labels is None:
            raise UsageError(f"eval needs phase labels, and video {video.video_id!r} "
                             f"is stored without them")
        # tau ranks frame matches within each test video
        if split_of[video.video_id] == "test" and video.num_frames < 2:
            raise UsageError(f"eval needs at least 2 frames per test video, and "
                             f"{video.video_id!r} has {video.num_frames}")
    with open(args.checkpoint, "rb") as fh:
        model = pipeline.model_from_checkpoint(config, fh.read())
    metrics = pipeline.evaluate_trained(config, model, videos, split_of)
    sys.stdout.write(json.dumps(metrics, sort_keys=True) + "\n")
    return 0


def _cmd_attn(args, config: RunConfig) -> int:
    if config.arch != "entity":
        raise UsageError(f"attn exports entity attention and needs arch = entity, "
                         f"got arch = {config.arch}")
    entry = next((e for e in _read_manifest(args.data) if e["id"] == args.video_id), None)
    if entry is None:
        raise UsageError(f"video {args.video_id!r} not present in {args.data}")
    video = _load_entry(args.data, entry, config)
    side = math.isqrt(video.num_tokens)
    if side * side != video.num_tokens:
        raise UsageError(f"{args.video_id!r} has {video.num_tokens} tokens per frame, "
                         f"not a square grid")
    with open(args.checkpoint, "rb") as fh:
        model = pipeline.model_from_checkpoint(config, fh.read())
    maps = model.extract(video)
    os.makedirs(args.out, exist_ok=True)
    count = 0
    for layer, attn in enumerate(maps):
        for frame, rows in enumerate(attn):
            for entity, row in enumerate(rows):
                name = f"{video.video_id}_f{frame}_e{entity}_l{layer}.pgm"
                export_attention(row.reshape(side, side), os.path.join(args.out, name))
                count += 1
    sys.stderr.write(f"wrote {count} attention maps to {args.out}\n")
    return 0


def _cmd_trials(args, config: RunConfig) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad --seeds value {args.seeds!r}") from exc
    if len(seeds) < 2 or min(seeds) < 0:
        raise UsageError(f"--seeds needs at least 2 non-negative seeds, got {args.seeds!r}")
    if len(set(seeds)) < len(seeds):
        raise UsageError(f"--seeds repeats a seed: {args.seeds!r}")
    videos, split_of = pipeline.dataset_from_config(config)
    _require_eval_split(split_of.values(), f"videos = {config.videos} with train_fraction "
                                           f"{config.train_fraction} gives")
    summary = pipeline.summarize(pipeline.run_trials(config, seeds, videos, split_of))
    width = max(len(name) for name in summary)
    sys.stdout.write("".join(f"{name:<{width}}  {stat['summary']}\n"
                             for name, stat in summary.items()))
    if args.out:
        _write_text(args.out, json.dumps(summary, sort_keys=True) + "\n")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "attn": _cmd_attn,
    "trials": _cmd_trials,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config)
        sys.stderr.write("# resolved config\n" + render_config(config))
        sys.stderr.flush()
        return _COMMANDS[args.command](args, config)
    except (UsageError, ConfigError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # runtime failures: NaN loss, bad payloads, ...
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

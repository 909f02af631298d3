"""mevid benchmark: closed-loop workloads driven through the public
functions that `mevid gen`, `mevid train` and `mevid eval` call.

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports mevid from ./src and writes
only under ./.bench_work. `--trace 0` measures the end-to-end metrics with
no tracing; `--trace 1` is a separate traced run that prints the per-layer
metrics. `--workload all` runs every workload, each in its own process.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it is a report with
the machine facts, sample counts and diagnostics. perfbench/README.md
says why each workload and metric exists.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads; the models' matrices are far
# too small for threading to pay, and one thread keeps runs steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "mevid", "__init__.py")):
    sys.exit(f"perfbench: no mevid package under {SRC}; run from a full checkout")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mevid  # noqa: E402
from mevid import cli, evaluate, features, pipeline, tensor, training  # noqa: E402
from mevid import spatial_pooling as sp  # noqa: E402
from mevid import temporal_fusion as tf  # noqa: E402
from mevid.config import RunConfig, render_config  # noqa: E402
from mevid.model import Model, save_checkpoint, save_checkpoint_bytes  # noqa: E402

from tracer import Tracer, OP_PREFIX  # noqa: E402

if not os.path.abspath(mevid.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: imported mevid from {mevid.__file__}, not from {SRC}")

# Every workload trains MODELS models of STEPS steps each, with training
# seeds derived from the workload seed, and scores each one. Averaging the
# quality metrics over four models keeps their spread across seeds small.
STEPS = 50
MODELS = 4
WARMUP_STEPS = 2
SETUP_REPEATS = 5
LOSS_TAIL = 10            # final_loss averages each run's last LOSS_TAIL losses
P_HIGH = 95               # needs >= 200 step samples: 10 beyond the percentile
COVERAGE_TOLERANCE = 0.10
TRACED_MODELS = 3         # a traced run pairs untraced and traced rounds of these

# Config overrides per workload, on top of the calibrated defaults.
WORKLOADS = {
    "train_default": {},
    "train_multihead": {"heads": 4, "view_len": 16, "frames": 64},
    "eval_long": {"frames": 128},
}

clock = time.perf_counter


# Every public op of the tensor layer.
OP_KINDS = sorted(
    name for name, fn in vars(tensor).items()
    if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
    and not name.startswith("_") and name not in ("record_op", "grad_check")
)


PROBE_TARGETS = [
    ("training.adam", training, "adam_step"),
    ("evaluate.embed", evaluate, "embed_dataset"),
]
TRACE_TARGETS = PROBE_TARGETS + [
    ("spatial_pooling.forward", sp, "extract_entities_from_arrays"),
    ("temporal_fusion.tokens", tf, "build_frame_tokens"),
    ("temporal_fusion.fuse", tf, "fuse_tokens"),
    ("temporal_fusion.pool", tf, "pool_output"),
    ("model.embed_frames", Model, "embed_frames"),
    ("model.project", Model, "project"),
    ("model.checkpoint_load", pipeline, "model_from_checkpoint"),
    ("training.views", training, "sample_two_views"),
    ("training.loss", training, "sequence_contrastive_loss"),
    ("tensor.backward", tensor.Tape, "backward"),
    ("evaluate.classification", evaluate, "linear_probe_classification"),
    ("evaluate.progression", evaluate, "phase_progression_r2"),
    ("evaluate.tau", evaluate, "dataset_tau"),
    ("evaluate.retrieval", evaluate, "retrieval_ap_at_k"),
    ("features.gen", features, "generate_synthetic_dataset"),
    ("features.mvff_write", features, "write_mvff"),
    ("features.mvff_load", features, "load_mvff"),
] + [(OP_PREFIX + kind, tensor, kind) for kind in OP_KINDS]

# Per-step layer times reported by a traced run, and the metric names.
STEP_LAYERS = {
    "spatial_pooling.forward": "spatial_pooling.forward_ms",
    "temporal_fusion.tokens": "temporal_fusion.tokens_ms",
    "temporal_fusion.fuse": "temporal_fusion.fuse_ms",
    "temporal_fusion.pool": "temporal_fusion.pool_ms",
    "model.embed_frames": "model.embed_frames_ms",
    "model.project": "model.project_ms",
    "training.views": "training.views_ms",
    "training.loss": "training.loss_ms",
    "training.adam": "training.adam_ms",
    "tensor.backward": "tensor.backward_ms",
    "tensor.outside_layers": "tensor.outside_layers_ms",
}
PASS_LAYERS = {
    "evaluate.embed": "evaluate.embed_s",
    "evaluate.classification": "evaluate.classification_s",
    "evaluate.progression": "evaluate.progression_s",
    "evaluate.tau": "evaluate.tau_s",
    "evaluate.retrieval": "evaluate.retrieval_s",
    "features.mvff_load": "features.mvff_load_s",
}


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`mevid <argv>` in this process; returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue()


def load_data(config: RunConfig, data_dir: str):
    """The data loading of `mevid train` and `mevid eval`: manifest, MVFF
    files, then the configured layer selection."""
    with open(os.path.join(data_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    videos, split_of = [], {}
    for entry in manifest["videos"]:
        raw = features.load_mvff(os.path.join(data_dir, entry["file"]), video_id=entry["id"])
        videos.append(features.select_layers(raw, list(config.layer_select)))
        split_of[entry["id"]] = entry["split"]
    return videos, split_of


def _span(window: tuple[float, float]) -> float:
    return window[1] - window[0]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 prints its config and takes no mode
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


class Bench:
    """One workload run: set-up, then rounds of training and evaluation."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.config = RunConfig(**WORKLOADS[workload], data_seed=seed,
                                seed=self.train_seed(0), max_steps=STEPS)
        self.workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
        self.data_dir = os.path.join(self.workdir, "data")
        self.config_path = os.path.join(self.workdir, "run.cfg")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probe = Tracer()
        self.full = Tracer()
        self.videos = self.split_of = None
        self.frames_per_pass = 0
        self.setup_windows: list[tuple[float, float]] = []
        self.steps_traced = 0

    def train_seed(self, model_index: int) -> int:
        return int(np.random.default_rng([self.seed, model_index]).integers(2 ** 31))

    def checkpoint_path(self, model_index: int) -> str:
        return os.path.join(self.workdir, f"model{model_index}.mvck")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
            sys.stderr.write(f"perfbench: check failed: {name} {detail}\n")

    # -- set-up -------------------------------------------------------------

    def set_up(self) -> list[float]:
        """`mevid gen`, loading, and a short warm-up training, several times.

        Every repeat trains the same seed, so the repeats double as the
        same-seed determinism check on checkpoint and loss trace.
        """
        os.makedirs(self.workdir, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(render_config(self.config))
        warm_config = dataclasses.replace(self.config, max_steps=WARMUP_STEPS)
        times, warm_runs = [], []
        for _ in range(SETUP_REPEATS):
            self.videos = self.split_of = None
            start = clock()
            code, _ = run_cli(["gen", "--config", self.config_path, "--out", self.data_dir])
            if code != 0:
                raise RuntimeError(f"mevid gen exited with {code}")
            self.videos, self.split_of = load_data(self.config, self.data_dir)
            warm = pipeline.train_model(warm_config, self.videos, self.split_of)
            end = clock()
            times.append(end - start)
            self.setup_windows.append((start, end))
            warm_runs.append((save_checkpoint_bytes(warm.model), warm.loss_trace))
        for other in warm_runs[1:]:
            self.check("same-seed training repeat is bit-identical", other == warm_runs[0])
        self.frames_per_pass = sum(v.num_frames for v in self.videos)
        return times

    # -- one round: a training run, then an eval pass ------------------------

    def train_run(self, model_index: int, tracer: Tracer) -> dict:
        """One training run of STEPS steps; timed by the optimizer's calls."""
        start = clock()
        result = pipeline.train_model(self.config, self.videos, self.split_of,
                                      seed=self.train_seed(model_index))
        wall = clock() - start
        ticks = tracer.ends("training.adam", start)
        trace = result.loss_trace
        self.attempted += len(trace)
        bad = sum(1 for v in trace if not np.isfinite(v))
        self.failed += bad
        self.check("every loss is finite", bad == 0, f"{bad} non-finite")
        self.check("one optimizer step per loss", len(ticks) == len(trace) == STEPS,
                   f"{len(ticks)} steps timed, {len(trace)} losses, {STEPS} expected")
        if not os.path.exists(self.checkpoint_path(model_index)):
            save_checkpoint(result.model, self.checkpoint_path(model_index))
        return {"state": (save_checkpoint_bytes(result.model), trace),
                "ticks": ticks, "wall": wall}

    def eval_pass(self, model_index: int, tracer: Tracer) -> dict:
        """The `mevid eval` path: MVFF load, layer selection, checkpoint
        load, embedding and the four metrics."""
        start = clock()
        videos, split_of = load_data(self.config, self.data_dir)
        with open(self.checkpoint_path(model_index), "rb") as fh:
            model = pipeline.model_from_checkpoint(self.config, fh.read())
        metrics = pipeline.evaluate_trained(self.config, model, videos, split_of)
        end = clock()
        self.attempted += 1
        embed = sum(s[3] - s[2] for s in tracer.spans
                    if s[0] == "evaluate.embed" and s[2] >= start)
        return {"metrics": metrics, "window": (start, end), "embed": embed}

    def cross_check(self) -> str:
        """`mevid eval` on the first model; returns what it printed."""
        code, printed = run_cli(["eval", self.checkpoint_path(0), "--config",
                                 self.config_path, "--data", self.data_dir])
        self.check("`mevid eval` exits with 0", code == 0, f"exit code {code}")
        return printed

    def check_cross(self, printed: str, ours: dict) -> None:
        """The benchmark's eval path prints what `mevid eval` prints."""
        mine = json.dumps(ours, sort_keys=True) + "\n"
        self.check("eval path matches `mevid eval`", printed == mine,
                   f"cli={printed.strip()!r} bench={mine.strip()!r}")

    def check_metrics(self, m: dict) -> None:
        ok = (0.0 <= m["classification"] <= 1.0 and -1.0 <= m["tau"] <= 1.0
              and 0.0 <= m["retrieval_ap5"] <= 1.0
              and np.isfinite(m["progression"]) and m["progression"] <= 1.0)
        self.check("eval metrics in range", ok, json.dumps(m))

    def rounds(self, first: dict) -> list[tuple[dict, dict]]:
        """Back-to-back rounds over the MODELS seeds, at least MODELS + 1 and
        until --seconds have passed. A round is one training run of the model
        and one eval pass over its checkpoint, so step and pass samples both
        spread over the whole run. A seed seen before must reproduce its
        checkpoint, loss trace and metrics exactly."""
        out = []
        start = clock()
        i = 0
        while i <= MODELS or clock() - start < self.seconds:
            r = i % MODELS
            run = self.train_run(r, self.probe)
            if i == 0:
                printed = self.cross_check()
            scored = self.eval_pass(r, self.probe)
            if r in first:
                self.check("repeated training run is bit-identical",
                           run["state"] == first[r][0]["state"])
                self.check("eval metrics identical across passes",
                           scored["metrics"] == first[r][1]["metrics"])
            else:
                self.check_metrics(scored["metrics"])
                first[r] = (run, scored)
            out.append((run, scored))
            i += 1
        self.check_cross(printed, first[0][1]["metrics"])
        return out

    # -- the two kinds of run -----------------------------------------------

    def run_untraced(self) -> dict:
        setup = self.set_up()
        first: dict = {}
        with self.probe.installed(PROBE_TARGETS):
            done = self.rounds(first)
        intervals = [g for run, _ in done for g in np.diff(run["ticks"])]
        steps = sum(len(run["ticks"]) for run, _ in done)
        train_wall = sum(run["wall"] for run, _ in done)
        passes = [_span(sc["window"]) for _, sc in done]
        embed = sum(sc["embed"] for _, sc in done)
        quality = self.quality(first)
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "steps_per_s": metric(steps / train_wall, "1/s"),
            "step_ms_p50": metric(1e3 * percentile(intervals, 50), "ms"),
            f"step_ms_p{P_HIGH}": metric(1e3 * percentile(intervals, P_HIGH), "ms"),
            "eval_s_p50": metric(statistics.median(passes), "s"),
            "embed_frames_per_s": metric(self.frames_per_pass * len(passes) / embed, "1/s"),
            "final_loss": metric(quality["final_loss"], "nat"),
            "classification": metric(quality["classification"], "1"),
            "tau": metric(quality["tau"], "1"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "success_ratio": metric(1.0 - self.failed / self.attempted, "1"),
        }
        report = {
            "samples": {"setup": len(setup), "steps_timed": len(intervals),
                        "rounds": len(done), "eval_passes": len(passes)},
            "diagnostics": {k: quality[k] for k in ("progression", "retrieval_ap5")},
            "per_model": quality["per_model"],
        }
        return {"metrics": metrics, "report": report}

    def quality(self, first: dict) -> dict:
        per_model = []
        for r in range(MODELS):
            run, scored = first[r]
            per_model.append({"seed": self.train_seed(r),
                              "final_loss": float(np.mean(run["state"][1][-LOSS_TAIL:])),
                              **scored["metrics"]})
        out = {k: float(np.mean([m[k] for m in per_model]))
               for k in ("final_loss", "classification", "tau", "progression",
                         "retrieval_ap5")}
        out["per_model"] = per_model
        return out

    def run_traced(self) -> dict:
        """Per-layer split. Each of the first TRACED_MODELS models' rounds
        runs untraced, then traced: the traced round must reproduce the
        untraced one exactly, and the median gap between the two is the
        tracing overhead."""
        full = self.full
        with full.installed(TRACE_TARGETS):
            self.set_up()
        done, step_ratio, pass_ratio = [], [], []
        for r in range(TRACED_MODELS):
            with self.probe.installed(PROBE_TARGETS):
                plain_run = self.train_run(r, self.probe)
                if r == 0:
                    printed = self.cross_check()
                plain_pass = self.eval_pass(r, self.probe)
            with full.installed(TRACE_TARGETS):
                run = self.train_run(r, full)
                scored = self.eval_pass(r, full)
            self.check("traced training is bit-identical to untraced",
                       run["state"] == plain_run["state"])
            self.check("traced eval is identical to untraced",
                       scored["metrics"] == plain_pass["metrics"])
            self.check_metrics(scored["metrics"])
            if r == 0:
                self.check_cross(printed, plain_pass["metrics"])
            step_ratio.append(percentile(np.diff(run["ticks"]), 50)
                              / percentile(np.diff(plain_run["ticks"]), 50))
            pass_ratio.append(_span(scored["window"]) / _span(plain_pass["window"]))
            done.append((run, scored))

        metrics = self.step_metrics([run["ticks"] for run, _ in done])
        metrics.update(self.pass_metrics([sc["window"] for _, sc in done]))
        metrics.update(self.setup_metrics())
        metrics["trace.overhead_pct"] = metric(100.0 * (statistics.median(step_ratio) - 1), "%")
        metrics["trace.pass_overhead_pct"] = metric(
            100.0 * (statistics.median(pass_ratio) - 1), "%")
        trace_dir = os.path.join(ROOT, ".bench_work", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{self.workload}-seed{self.seed}.json")
        full.dump(trace_path, {"workload": self.workload, "seed": self.seed,
                               "machine": machine_facts()})
        report = {"trace_file": os.path.relpath(trace_path, ROOT), "spans": len(full.spans),
                  "steps_traced": self.steps_traced}
        return {"metrics": metrics, "report": report}

    def step_metrics(self, run_ticks) -> dict:
        """Per-step means over every traced optimizer step after the first
        of each run (the first also builds the model)."""
        full = self.full
        steps = [w for ticks in run_ticks for w in zip(ticks, ticks[1:])]
        layer_sum: dict[str, float] = {}
        counters = []
        covered = wall = ops_inside = 0.0
        for lo, hi in steps:
            ids = full.window(lo, hi)
            for name, sec in full.layer_times(ids).items():
                layer_sum[name] = layer_sum.get(name, 0.0) + sec
            calls, inside = full.op_stats(ids)
            ops_inside += inside
            covered += full.top_level_seconds(ids)
            wall += hi - lo
            flops = sum(full.matmul[i][0] for i in ids if i in full.matmul)
            nbytes = sum(full.matmul[i][1] for i in ids if i in full.matmul)
            taped = [full.taped_ops[i] for i in ids if i in full.taped_ops]
            counters.append((tuple(sorted(calls.items())), flops, nbytes, tuple(taped)))
        n = len(steps)
        self.check("exact counters repeat on every traced step",
                   n > 0 and all(c == counters[0] for c in counters))
        coverage = covered / wall
        self.check("layer self times cover the step wall time",
                   abs(coverage - 1.0) <= COVERAGE_TOLERANCE, f"coverage {coverage:.3f}")
        calls0, flops0, bytes0, taped0 = counters[0]
        out = {key: metric(1e3 * layer_sum.get(name, 0.0) / n, "ms")
               for name, key in STEP_LAYERS.items()}
        out["tensor.ops_ms"] = metric(1e3 * ops_inside / n, "ms")
        out["tensor.taped_ops_per_step"] = metric(sum(taped0), "count")
        for kind in OP_KINDS:
            out[f"tensor.op_calls.{kind}"] = metric(dict(calls0).get(kind, 0), "count")
        out["tensor.matmul_flops"] = metric(flops0, "flop")
        out["tensor.matmul_bytes"] = metric(bytes0, "B")
        out["model.embed_frames_calls"] = metric(
            sum(1 for i in full.window(*steps[0]) if full.spans[i][0] == "model.embed_frames"),
            "count")
        out["trace.step_ms"] = metric(1e3 * wall / n, "ms")
        out["trace.coverage"] = metric(coverage, "1")
        out["trace.unattributed_ms"] = metric(1e3 * (wall - covered) / n, "ms")
        self.steps_traced = n
        return out

    def pass_metrics(self, windows) -> dict:
        full = self.full
        sums = {name: 0.0 for name in PASS_LAYERS}
        ckpt = ops = 0.0
        for lo, hi in windows:
            for i in full.window(lo, hi):
                name, _, start, end = full.spans[i]
                if name in sums:
                    sums[name] += end - start
                elif name == "model.checkpoint_load":
                    ckpt += end - start
                elif name.startswith(OP_PREFIX):
                    ops += 1
        n = len(windows)
        out = {key: metric(sums[name] / n, "s") for name, key in PASS_LAYERS.items()}
        out["model.checkpoint_load_ms"] = metric(1e3 * ckpt / n, "ms")
        out["tensor.ops_per_pass"] = metric(ops / n, "count")
        return out

    def setup_metrics(self) -> dict:
        full = self.full
        per_rep = {"features.gen": [], "features.mvff_write": []}
        for lo, hi in self.setup_windows:
            ids = full.window(lo, hi)
            for name in per_rep:
                per_rep[name].append(sum(full.spans[i][3] - full.spans[i][2]
                                         for i in ids if full.spans[i][0] == name))
        size = sum(os.path.getsize(os.path.join(self.data_dir, f))
                   for f in os.listdir(self.data_dir) if f.endswith(".mvff"))
        return {
            "features.gen_s": metric(statistics.median(per_rep["features.gen"]), "s"),
            "features.mvff_write_s": metric(statistics.median(per_rep["features.mvff_write"]), "s"),
            "features.mvff_bytes": metric(size, "B"),
        }


def run_workload(args) -> int:
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        out = bench.run_traced() if args.trace else bench.run_untraced()
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_facts(), "failures": bench.failures, **out["report"]}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": out["metrics"]}, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.stderr.write(f"perfbench: workload {name} exited with {proc.returncode}\n")
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark in perfbench/ wraps mevid functions by name; a rename in
mevid must fail here rather than only in a benchmark run."""

import importlib.util
import json
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load_run(monkeypatch):
    # run.py pins the BLAS thread variables at import; restore them afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.syspath_prepend(PERFBENCH)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "perfbench_run", run)
    spec.loader.exec_module(run)
    return run


def test_every_trace_target_resolves(monkeypatch):
    run = _load_run(monkeypatch)
    assert run.TRACE_TARGETS
    unresolved = [label for label, owner, attr in run.TRACE_TARGETS
                  if not callable(getattr(owner, attr, None))]
    assert unresolved == []


def test_every_benchmarked_op_kind_exists(monkeypatch):
    """Each `tensor.op_calls.<kind>` that BENCHMARK.json reports names a
    public op of mevid.tensor; a traced run cannot report a deleted one."""
    with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        names = [entry["name"] for entry in json.load(fh)["per_layer"]]
    prefix = "tensor.op_calls."
    kinds = [name[len(prefix):] for name in names if name.startswith(prefix)]
    assert kinds
    run = _load_run(monkeypatch)
    assert [kind for kind in kinds if kind not in run.OP_KINDS] == []


def test_setup_path_counts_every_frame(monkeypatch, tmp_path):
    """perfbench's set-up loads a generated dataset and sums `num_frames`."""
    from mevid import cli
    from mevid.config import load_config

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("videos = 3\nframes = 8\ngrid = 2\nchannels = 4\nphases = 2\n"
                   "layers = 2\npatch = 1\nlayer_select = 1\n")
    data = tmp_path / "data"
    assert cli.main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    run = _load_run(monkeypatch)
    videos, split_of = run.load_data(load_config(str(cfg)), str(data))
    assert sorted(split_of) == [v.video_id for v in videos]
    assert sum(v.num_frames for v in videos) == 3 * 8
    assert all(v.num_layers == 1 for v in videos)


def test_every_workload_override_is_a_config_key(monkeypatch):
    """perfbench builds each workload's config as `RunConfig(**overrides)`."""
    from dataclasses import fields

    from mevid.config import RunConfig

    keys = {f.name for f in fields(RunConfig)}
    run = _load_run(monkeypatch)
    assert run.WORKLOADS
    assert [k for over in run.WORKLOADS.values() for k in over if k not in keys] == []


def test_tracer_survives_threaded_embedding(monkeypatch):
    """The tracer's span stack is shared by every thread; a traced eval pass
    that embeds on two threads must still balance it, record every op, and
    score what the one-thread pass scores."""
    import numpy as np

    from mevid import evaluate, pipeline
    from mevid.config import RunConfig
    from mevid.model import Model

    run = _load_run(monkeypatch)
    config = RunConfig(videos=6, frames=10, grid=3, channels=8, phases=2, layers=2,
                       patch=1, layer_select=(0, 1), entities=2, query_dim=8, value_dim=8,
                       model_dim=16, heads=2, mlp_ratio=2, blocks=2)
    videos, split_of = pipeline.dataset_from_config(config)
    model = Model(config.model_config(), np.random.default_rng(1))

    def traced_pass(cpus):
        monkeypatch.setattr(evaluate, "_available_cpus", lambda: cpus)
        tracer = run.Tracer()
        with tracer.installed(run.TRACE_TARGETS):
            metrics = pipeline.evaluate_trained(config, model, videos, split_of)
        ops = sum(1 for span in tracer.spans if span[0].startswith(run.OP_PREFIX))
        return metrics, ops, tracer

    one_metrics, one_ops, _ = traced_pass(1)
    two_metrics, two_ops, tracer = traced_pass(2)
    assert tracer._stack == [-1]
    assert two_ops == one_ops > 0
    assert two_metrics == one_metrics

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

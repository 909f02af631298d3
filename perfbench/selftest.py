"""Self-test of the benchmark's exact counters.

Two traced runs of each workload, with different seeds, must report the
same counts: taped ops per step, calls per op kind, computed matmul FLOPs
and bytes, embed calls per step, ops per eval pass and MVFF bytes. The
counts depend on shapes only, never on data. Prints the counts and exits
with 1 on a mismatch.

    python3 perfbench/selftest.py [workload ...]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_default", "train_multihead", "eval_long")
COUNTERS = ("tensor.taped_ops_per_step", "tensor.matmul_flops", "tensor.matmul_bytes",
            "model.embed_frames_calls", "tensor.ops_per_pass", "features.mvff_bytes")


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: traced run failed its checks")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name in COUNTERS or name.startswith("tensor.op_calls.")}


def main(workloads) -> int:
    ok = True
    for workload in workloads:
        first, second = traced_counts(workload, 1), traced_counts(workload, 2)
        same = first == second
        ok = ok and same
        print(f"{workload}: counters {'repeat exactly' if same else 'DIFFER'}; "
              f"taped ops per step {first['tensor.taped_ops_per_step']:.0f}")
        for name in sorted(first):
            mark = "" if first[name] == second.get(name) else f"  != {second.get(name)}"
            print(f"  {name} = {first[name]:.0f}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))

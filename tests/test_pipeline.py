import ctypes
import os
import platform
import resource
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import mevid
from mevid import evaluate as ev
from mevid import pipeline, training
from mevid.config import RunConfig
from mevid.model import Model, save_checkpoint_bytes

GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


@pytest.mark.skipif(not GLIBC, reason="the mmap and trim thresholds are glibc's")
def test_training_heap_stays_resident():
    # with glibc's default thresholds every step maps and faults in fresh
    # pages for its larger arrays: about 3K minor faults per default step
    config = RunConfig(max_steps=10)
    videos, split_of = pipeline.dataset_from_config(config)
    pipeline.train_model(replace(config, max_steps=2), videos, split_of)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pipeline.train_model(config, videos, split_of)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, f"{faults} minor page faults in 10 steps"


# a fresh interpreter that calls `training.train` itself, as a library
# caller does, without going through `pipeline`
_FRESH_TRAINING = textwrap.dedent("""
    import resource
    from dataclasses import replace
    from mevid.config import RunConfig
    from mevid.pipeline import dataset_from_config
    from mevid.training import train

    config = RunConfig(max_steps=10)
    videos, split_of = dataset_from_config(config)
    videos = [v for v in videos if split_of[v.video_id] == "train"]
    train(videos, config.model_config(), replace(config, max_steps=2).train_config())
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(videos, config.model_config(), config.train_config())
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(not GLIBC, reason="the mmap and trim thresholds are glibc's")
def test_train_pins_the_heap_in_a_fresh_process():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mevid.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _FRESH_TRAINING], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    faults = int(done.stdout.split()[-1])
    assert faults < 1000, f"{faults} minor page faults in 10 steps"


def test_training_calls_a_one_thread_openblas_and_restores_it(monkeypatch):
    # `training.train` pins BLAS itself, so a library caller that skips
    # `pipeline` gets the pin too
    controls = ev._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    before = [get() for get, _ in controls]
    config = RunConfig(videos=4, max_steps=1)
    videos, split_of = pipeline.dataset_from_config(config)
    seen = []
    adam_step = training.adam_step

    def spy(*args):
        seen.append([get() for get, _ in controls])
        adam_step(*args)

    monkeypatch.setattr(training, "adam_step", spy)
    try:
        for _, set_ in controls:
            set_(2)
        pipeline.train_model(config, videos, split_of)
        training.train(videos, config.model_config(), config.train_config())
        assert seen == [[1] * len(controls)] * 2
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)


class _NoMallopt:
    def __init__(self, name):
        pass


def _no_libc(name):
    raise OSError("libc not found")


@pytest.mark.parametrize("cdll", [_no_libc, _NoMallopt], ids=["no_libc", "no_mallopt"])
def test_heap_helper_is_a_no_op_without_mallopt(cdll, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    ev._keep_heap_resident()


@pytest.mark.parametrize("arch", ["entity", "fixed_width"])
def test_checkpoint_load_restores_every_value(arch):
    # the load builds its table without random draws; load_state fills it
    config = RunConfig(arch=arch, layer_select=(0, 2))
    saved = Model(config.model_config(), np.random.default_rng(5))
    loaded = pipeline.model_from_checkpoint(config, save_checkpoint_bytes(saved))
    assert list(loaded.params) == list(saved.params)
    for name, p in loaded.params.items():
        assert p.data.dtype == np.float32 and p.data.tobytes() == saved.params[name].data.tobytes()
        assert not p.grad.any()

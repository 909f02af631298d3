"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to watch the lines appear;
the end-to-end criteria train nine full models and take a few minutes.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from mevid import evaluate as ev
from mevid import temporal_fusion as tf
from mevid import tensor as T
from mevid import training as tr
from mevid.config import RunConfig
from mevid.features import (
    SyntheticSpec,
    VideoFeatures,
    _patch_token_indices,
    generate_synthetic_dataset,
    select_layers,
    synthetic_layout,
)
from mevid.model import Model
from mevid.pipeline import dataset_from_config, model_from_checkpoint, run_trials, summarize
from mevid.spatial_pooling import extract_entities_from_arrays, init_pooling_params
from mevid.tensor import Tensor, grad_check

SEEDS = [1, 2, 3]


def report(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {description}" + (f" [{detail}]" if detail else ""))
    assert passed, f"criterion {num}: {description} {detail}"


# ---------------------------------------------------------------------------
# shared end-to-end artifacts (criteria 7, 8, 9)


@pytest.fixture(scope="module")
def e2e():
    base = RunConfig()
    videos, split_of = dataset_from_config(base)
    start = time.monotonic()
    reports = {
        "e3": run_trials(base, SEEDS, videos, split_of),
        "fwb": run_trials(
            dataclasses.replace(base, arch="fixed_width"),
            SEEDS, videos, split_of),
        "e1": run_trials(
            dataclasses.replace(base, entities=1), SEEDS, videos, split_of),
    }
    elapsed = time.monotonic() - start
    return {"config": base, "videos": videos, "split_of": split_of,
            "reports": reports, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def test_criterion_1_gradient_suite():
    spec = SyntheticSpec(videos=1, frames=4, grid=2, channels=8, phases=2, layers=1,
                         patch=1, noise=0.1, data_seed=3)
    toy = generate_synthetic_dataset(spec)[0]  # S = 4, D = 8
    config = RunConfig(entities=2, layer_select=(0,), channels=8, query_dim=3,
                       value_dim=3, model_dim=4, blocks=3, heads=2, mlp_ratio=2,
                       proj_hidden=4, proj_dim=6).model_config()
    model = Model(config, np.random.default_rng(1))
    idx1, idx2 = np.array([0, 2]), np.array([1, 3])  # two 2-frame views
    layers1 = [l[idx1][None] for l in toy.layers]
    layers2 = [l[idx2][None] for l in toy.layers]

    def pipeline_loss(params):
        model.params = params
        z1 = model.project(model.embed_frames(layers1))
        z2 = model.project(model.embed_frames(layers2))
        return tr.sequence_contrastive_loss(z1, idx1[None], z2, idx2[None], 1.5, 0.2)

    start = time.monotonic()
    result = grad_check(pipeline_loss, model.params, step=1e-6, tol=1e-5)
    elapsed = time.monotonic() - start
    report(1, "full-pipeline gradient check < 1e-5 within 10 s",
           result.passed and result.max_rel_error < 1e-5 and elapsed < 10.0,
           f"max_rel={result.max_rel_error:.2e} over {result.checked} coords, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: attention invariants


def test_criterion_2_attention_invariants():
    rng = np.random.default_rng(0)
    config = RunConfig(layer_select=(0, 1), channels=8, entities=3, query_dim=4,
                       value_dim=4, model_dim=6).model_config()
    params = init_pooling_params(rng, config)
    video = VideoFeatures(
        video_id="v",
        layers=[rng.standard_normal((3, 16, 8)).astype(np.float32) for _ in range(2)])
    _, maps = extract_entities_from_arrays([l[None] for l in video.layers], params)
    row_sums_ok = all(np.abs(att.sum(axis=2) - 1.0).max() < 1e-5 for att in maps)

    token = rng.standard_normal(8).astype(np.float32)
    degenerate = VideoFeatures(video_id="d",
                               layers=[np.tile(token, (2, 16, 1)) for _ in range(2)])
    other = init_pooling_params(np.random.default_rng(99), config)
    for l in range(2):
        for name in (f"pool.layer{l}.key_proj", f"pool.layer{l}.value_proj"):
            other[name].data = params[name].data.copy()
    other["pool.out_proj"].data = params["pool.out_proj"].data.copy()
    one_sequence = [l[None] for l in degenerate.layers]
    out_a = extract_entities_from_arrays(one_sequence, params)[0].data
    out_b = extract_entities_from_arrays(one_sequence, other)[0].data
    collapse_ok = np.abs(out_a - out_b).max() < 1e-5

    report(2, "attention rows stochastic; identical tokens erase the queries",
           row_sums_ok and collapse_ok,
           f"max collapse gap {np.abs(out_a - out_b).max():.2e}")


# ---------------------------------------------------------------------------
# criterion 3: fusion permutation invariants


def test_criterion_3_permutation_invariants():
    config = RunConfig(entities=3, model_dim=16, blocks=3, heads=2,
                       mlp_ratio=2).model_config()
    rng = np.random.default_rng(4)
    params = tf.init_fusion_params(rng, config)
    t, e = 5, 3
    feats = rng.standard_normal((1, t * e, config.model_dim)).astype(np.float32)
    tokens = tf.build_frame_tokens(Tensor(feats), config).data[0]

    def pooled(arr, mode):
        return tf.pool_output(tf.fuse_tokens(Tensor(arr[None]), config, params),
                              e, mode).data

    swap12 = np.arange(t * e).reshape(t, e)[:, [0, 2, 1]].reshape(-1)
    cls_ok = np.array_equal(pooled(tokens, "cls_style"),
                            pooled(tokens[swap12], "cls_style"))
    rotate = np.arange(t * e).reshape(t, e)[:, [2, 0, 1]].reshape(-1)
    avg_gap = np.abs(pooled(tokens, "average") - pooled(tokens[rotate], "average")).max()
    report(3, "cls pooling bitwise under entity swaps fixing 0; average within 1e-6",
           cls_ok and avg_gap < 1e-6, f"avg gap {avg_gap:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: width and parameter accounting


def test_criterion_4_parameter_accounting():
    def fusion_count(arch, entities):
        return Model(
            RunConfig(arch=arch, entities=entities, layer_select=(0, 1, 2), channels=32,
                      query_dim=64, value_dim=64, model_dim=128, heads=1,
                      mlp_ratio=4).model_config(),
            np.random.default_rng(0)).fusion_param_count()

    equal = fusion_count("entity", 3) == fusion_count("fixed_width", 3)
    counts = {e: fusion_count("entity", e) for e in (1, 3, 5)}
    # only the E one-hot rows of the input projection depend on E
    id_rows_only = (counts[3] - counts[1] == 2 * 128 and
                    counts[5] - counts[3] == 2 * 128)
    report(4, "fusion parameters: MTF(E=3) == FWB(N=3), E enters via ID rows only",
           equal and id_rows_only, f"counts={counts}")


# ---------------------------------------------------------------------------
# criterion 5: metric oracles


def tau_oracle(assignment):
    n = len(assignment)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            prod = (i - j) * (int(assignment[i]) - int(assignment[j]))
            total += (prod > 0) - (prod < 0)
    return total / (n * (n - 1) / 2)


def ap_oracle(distances, relevant, k):
    order = np.argsort(distances, kind="stable")
    ranked = relevant[order]
    hits, score = 0, 0.0
    for i in range(min(k, len(ranked))):
        if ranked[i]:
            hits += 1
            score += hits / (i + 1)
    return score / min(k, int(relevant.sum()))


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(5)
    tau_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 51))
        assignment = rng.integers(0, n, n)
        tau_ok &= abs(ev.tau_of_assignment(assignment) - tau_oracle(assignment)) < 1e-12

    ap_ok = True
    for _ in range(100):
        pool = int(rng.integers(5, 201))
        distances = rng.uniform(0, 1, pool)
        relevant = rng.integers(0, 2, pool)
        if relevant.sum() == 0:
            relevant[int(rng.integers(pool))] = 1
        order = np.argsort(distances, kind="stable")
        got = ev.average_precision_at_k(relevant[order], 5, int(relevant.sum()))
        ap_ok &= abs(got - ap_oracle(distances, relevant, 5)) < 1e-12

    r2_ok = (ev.r_squared([0, 1, 2], [0, 1, 2]) == 1.0
             and abs(ev.r_squared([0, 1, 2], [0, 1, 1]) - 0.5) < 1e-12
             and abs(ev.r_squared([2.0, 4.0], [3.0, 3.0])) < 1e-12)

    def clusters():
        vids = []
        for c in range(2):
            emb = np.zeros((20, 4), dtype=np.float32)
            emb[:, 0] = 1.0 if c == 0 else -1.0
            emb += 0.05 * rng.standard_normal(emb.shape).astype(np.float32)
            vids.append(ev.EmbeddedVideo(emb, np.full(20, c), np.zeros(20, dtype=np.float32)))
        return vids

    train, test = clusters(), clusters()
    probe_ok = ev.linear_probe_classification(train, test) == 1.0

    report(5, "rank-correlation and AP@k match brute-force oracles; probe sanity",
           tau_ok and ap_ok and r2_ok and probe_ok)


# ---------------------------------------------------------------------------
# criterion 6: contrastive-loss properties


def loss_of_one_video(z1, t1, z2, t2, sigma, tau):
    """`sequence_contrastive_loss` of a batch holding one video."""
    return tr.sequence_contrastive_loss(
        T.reshape(z1, (1, *z1.shape)), np.asarray(t1)[None],
        T.reshape(z2, (1, *z2.shape)), np.asarray(t2)[None], sigma, tau)


def test_criterion_6_scl_properties():
    rng = np.random.default_rng(6)
    nonneg = True
    min_seen = np.inf
    for _ in range(1000):
        n1, n2 = rng.integers(2, 6, 2)
        z1 = Tensor(rng.standard_normal((n1, 4)).astype(np.float32))
        z2 = Tensor(rng.standard_normal((n2, 4)).astype(np.float32))
        t1 = np.sort(rng.choice(16, n1, replace=False))
        t2 = np.sort(rng.choice(16, n2, replace=False))
        value = loss_of_one_video(z1, t1, z2, t2, 3.0, 0.1).item()
        min_seen = min(min_seen, value)
        nonneg &= value >= 0.0

    sigma, tau = 1.0, 0.1
    t = np.array([0, 1])
    g = tr.gaussian_targets(t, t, sigma, np.float64).astype(np.float64)
    u = tau * np.log(g)
    a = np.zeros((2, 2))
    for i in range(2):
        kappa = -u[i].mean() + math.sqrt((1.0 - ((u[i] - u[i].mean()) ** 2).sum()) / 2)
        a[i] = u[i] + kappa
    exact = loss_of_one_video(
        Tensor(a.astype(np.float32)), t, Tensor(np.eye(2, dtype=np.float32)), t,
        sigma, tau).item()

    z1 = rng.standard_normal((4, 5)).astype(np.float32)
    z2 = rng.standard_normal((4, 5)).astype(np.float32)
    t1, t2 = np.arange(4), np.arange(4) + 1
    base = loss_of_one_video(Tensor(z1), t1, Tensor(z2), t2, 2.0, 0.1).item()
    scaled = z1.copy()
    scaled[0] *= 31.0
    rescale_gap = abs(loss_of_one_video(
        Tensor(scaled), t1, Tensor(z2), t2, 2.0, 0.1).item() - base)
    shift_gap = abs(loss_of_one_video(
        Tensor(z1), t1 + 500, Tensor(z2), t2 + 500, 2.0, 0.1).item() - base)

    report(6, "loss >= 0 on 1000 inputs, 0 at matched targets, invariances hold",
           nonneg and exact < 1e-6 and rescale_gap < 1e-6 and shift_gap < 1e-6,
           f"min={min_seen:.2e} matched={exact:.2e} rescale={rescale_gap:.2e} "
           f"shift={shift_gap:.2e}")


# ---------------------------------------------------------------------------
# criterion 7: synthetic end-to-end trends


def test_criterion_7_end_to_end_trends(e2e):
    cls = {name: summarize(outcomes)["classification"]
           for name, outcomes in e2e["reports"].items()}
    e3, fwb, e1 = cls["e3"]["mean"], cls["fwb"]["mean"], cls["e1"]["mean"]
    detail = (f"E3={e3:.3f}{cls['e3']['values']} FWB={fwb:.3f} E1={e1:.3f} "
              f"runtime={e2e['elapsed']:.0f}s")
    report(7, "classification >= 0.90; multi-entity >= fixed-width; E3 >= E1 - 0.02",
           e3 >= 0.90 and e3 >= fwb and e3 >= e1 - 0.02 and e2e["elapsed"] < 900.0,
           detail)


# ---------------------------------------------------------------------------
# criterion 8: actor localization


def best_actor_mass(model, config, split_of):
    spec = config.synthetic_spec()
    clean_spec = dataclasses.replace(spec, noise=0.0)
    clean = generate_synthetic_dataset(clean_spec)
    layout = synthetic_layout(clean_spec)
    masses = []
    for video, vl in zip(clean, layout.videos):
        if split_of[video.video_id] != "test":
            continue
        best = 0.0
        for att in model.extract(select_layers(video, list(config.layer_select))):
            for e in range(att.shape[1]):
                per_frame = [
                    att[frame, e, _patch_token_indices(
                        vl.positions[frame], spec.grid, spec.patch)].sum()
                    for frame in range(att.shape[0])]
                best = max(best, float(np.mean(per_frame)))
        masses.append(best)
    return masses


def test_criterion_8_actor_localization(e2e):
    config = e2e["config"]
    fractions = []
    for outcome in e2e["reports"]["e3"]:
        model = model_from_checkpoint(config, outcome.checkpoint)
        masses = best_actor_mass(model, config, e2e["split_of"])
        fractions.append(float(np.mean([m >= 0.40 for m in masses])))
    report(8, "an entity holds >= 0.40 attention mass on the actor for >= 80% of "
              "test videos (every seed)",
           all(f >= 0.80 for f in fractions),
           f"fractions={[round(f, 2) for f in fractions]}")


# ---------------------------------------------------------------------------
# criterion 9: determinism of the end-to-end run


def test_criterion_9_determinism(e2e):
    base = e2e["config"]
    repeat = run_trials(base, SEEDS, e2e["videos"], e2e["split_of"])
    first = e2e["reports"]["e3"]
    checkpoints_ok = all(
        a.checkpoint == b.checkpoint for a, b in zip(first, repeat))
    metrics_ok = json.dumps(summarize(first), sort_keys=True) == json.dumps(
        summarize(repeat), sort_keys=True)
    report(9, "repeating the run gives bit-identical checkpoints and metrics JSON",
           checkpoints_ok and metrics_ok)

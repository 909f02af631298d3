"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to watch the lines appear;
the end-to-end criteria train nine full models and take a few minutes.
"""

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
from mevid.model import Model, ModelConfig
from mevid.pipeline import dataset_from_config, model_from_checkpoint, run_trials
from mevid.spatial_pooling import EntitySet, extract_entities_from_arrays, init_pooling_params
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
            RunConfig(**{**base.__dict__, "arch": "fixed_width"}),
            SEEDS, videos, split_of),
        "e1": run_trials(
            RunConfig(**{**base.__dict__, "entities": 1}), SEEDS, videos, split_of),
    }
    elapsed = time.monotonic() - start
    return {"config": base, "videos": videos, "split_of": split_of,
            "reports": reports, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def test_criterion_1_gradient_suite():
    spec = SyntheticSpec(num_videos=1, frames_per_video=4, grid_side=2, channels=8,
                         num_phases=2, num_layers=1, actor_patch_side=1,
                         noise_sigma=0.1, seed=3)
    toy = generate_synthetic_dataset(spec)[0]  # S = 4, D = 8
    config = ModelConfig(num_entities=2, num_layers=1, channels=8, query_dim=3,
                         value_dim=3, model_dim=4, blocks=3, heads=2, mlp_ratio=2,
                         proj_hidden=4, proj_dim=6)
    model = Model(config, np.random.default_rng(1))
    idx1, idx2 = np.array([0, 2]), np.array([1, 3])  # two 2-frame views
    layers1 = [l[idx1] for l in toy.layers]
    layers2 = [l[idx2] for l in toy.layers]
    shadow = model.astype(np.float64)

    def pipeline_loss(params):
        shadow.bind(params)
        z1 = shadow.project(shadow.embed_frames(layers1, np.arange(2)))
        z2 = shadow.project(shadow.embed_frames(layers2, np.arange(2)))
        return tr.sequence_contrastive_loss(z1, idx1, z2, idx2, 1.5, 0.2)

    start = time.monotonic()
    result = grad_check(pipeline_loss, model.parameters(), step=1e-6, tol=1e-5)
    elapsed = time.monotonic() - start
    report(1, "full-pipeline gradient check < 1e-5 within 10 s",
           result.passed and result.max_rel_error < 1e-5 and elapsed < 10.0,
           f"max_rel={result.max_rel_error:.2e} over {result.checked} coords, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: attention invariants


def test_criterion_2_attention_invariants():
    rng = np.random.default_rng(0)
    params = init_pooling_params(rng, 2, 8, 3, 4, 4, 6)
    video = VideoFeatures(
        video_id="v", num_frames=3,
        layers=[rng.standard_normal((3, 16, 8)).astype(np.float32) for _ in range(2)],
        timestamps=np.arange(3))
    ents = extract_entities_from_arrays(video.layers, params)
    row_sums_ok = all(
        np.abs(ents.attention_array(l).sum(axis=2) - 1.0).max() < 1e-5
        for l in range(2))

    token = rng.standard_normal(8).astype(np.float32)
    degenerate = VideoFeatures(
        video_id="d", num_frames=2,
        layers=[np.tile(token, (2, 16, 1)) for _ in range(2)],
        timestamps=np.arange(2))
    other = init_pooling_params(np.random.default_rng(99), 2, 8, 3, 4, 4, 6)
    for l in range(2):
        other.key_proj[l].data = params.key_proj[l].data.copy()
        other.value_proj[l].data = params.value_proj[l].data.copy()
    other.out_proj.data = params.out_proj.data.copy()
    out_a = extract_entities_from_arrays(degenerate.layers, params).features.data
    out_b = extract_entities_from_arrays(degenerate.layers, other).features.data
    collapse_ok = np.abs(out_a - out_b).max() < 1e-5

    report(2, "attention rows stochastic; identical tokens erase the queries",
           row_sums_ok and collapse_ok,
           f"max collapse gap {np.abs(out_a - out_b).max():.2e}")


# ---------------------------------------------------------------------------
# criterion 3: fusion permutation invariants


def test_criterion_3_permutation_invariants():
    config = tf.FusionConfig(num_entities=3, model_dim=16, blocks=3, heads=2,
                             mlp_ratio=2)
    rng = np.random.default_rng(4)
    params = tf.init_fusion_params(rng, config)
    t, e = 5, 3
    feats = rng.standard_normal((t * e, config.model_dim)).astype(np.float32)
    ents = EntitySet(features=Tensor(feats), num_frames=t, num_entities=e,
                     attention=[])
    tokens = tf.build_frame_tokens(ents, config, np.arange(t)).data

    def pooled(arr, mode):
        return tf.pool_output(tf.fuse_tokens(Tensor(arr), config, params),
                              t, e, mode).data

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
            ModelConfig(arch=arch, num_entities=entities, num_layers=3, channels=32,
                        query_dim=64, value_dim=64, model_dim=128, heads=1,
                        mlp_ratio=4),
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

    def clusters(split):
        vids = []
        for c in range(2):
            emb = np.zeros((20, 4), dtype=np.float32)
            emb[:, 0] = 1.0 if c == 0 else -1.0
            emb += 0.05 * rng.standard_normal(emb.shape).astype(np.float32)
            vids.append(ev.EmbeddedVideo(f"{split}{c}", emb, np.full(20, c),
                                         np.zeros(20, dtype=np.float32), split))
        return vids

    data = ev.EmbeddedDataset(clusters("train") + clusters("test"))
    probe_ok = ev.linear_probe_classification(data, data, epochs=200, lr=1.0) == 1.0

    report(5, "rank-correlation and AP@k match brute-force oracles; probe sanity",
           tau_ok and ap_ok and r2_ok and probe_ok)


# ---------------------------------------------------------------------------
# criterion 6: contrastive-loss properties


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
        value = tr.sequence_contrastive_loss(z1, t1, z2, t2, 3.0, 0.1).item()
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
    exact = tr.sequence_contrastive_loss(
        Tensor(a.astype(np.float32)), t, Tensor(np.eye(2, dtype=np.float32)), t,
        sigma, tau).item()

    z1 = rng.standard_normal((4, 5)).astype(np.float32)
    z2 = rng.standard_normal((4, 5)).astype(np.float32)
    t1, t2 = np.arange(4), np.arange(4) + 1
    base = tr.sequence_contrastive_loss(Tensor(z1), t1, Tensor(z2), t2, 2.0, 0.1).item()
    scaled = z1.copy()
    scaled[0] *= 31.0
    rescale_gap = abs(tr.sequence_contrastive_loss(
        Tensor(scaled), t1, Tensor(z2), t2, 2.0, 0.1).item() - base)
    shift_gap = abs(tr.sequence_contrastive_loss(
        Tensor(z1), t1 + 500, Tensor(z2), t2 + 500, 2.0, 0.1).item() - base)

    report(6, "loss >= 0 on 1000 inputs, 0 at matched targets, invariances hold",
           nonneg and exact < 1e-6 and rescale_gap < 1e-6 and shift_gap < 1e-6,
           f"min={min_seen:.2e} matched={exact:.2e} rescale={rescale_gap:.2e} "
           f"shift={shift_gap:.2e}")


# ---------------------------------------------------------------------------
# criterion 7: synthetic end-to-end trends


def test_criterion_7_end_to_end_trends(e2e):
    cls = {name: rep.stats["classification"] for name, rep in e2e["reports"].items()}
    e3, fwb, e1 = cls["e3"].mean, cls["fwb"].mean, cls["e1"].mean
    detail = (f"E3={e3:.3f}{cls['e3'].values} FWB={fwb:.3f} E1={e1:.3f} "
              f"runtime={e2e['elapsed']:.0f}s")
    report(7, "classification >= 0.90; multi-entity >= fixed-width; E3 >= E1 - 0.02",
           e3 >= 0.90 and e3 >= fwb and e3 >= e1 - 0.02 and e2e["elapsed"] < 900.0,
           detail)


# ---------------------------------------------------------------------------
# criterion 8: actor localization


def best_actor_mass(model, config, split_of):
    spec = config.synthetic_spec()
    clean_spec = SyntheticSpec(**{**spec.__dict__, "noise_sigma": 0.0})
    clean = generate_synthetic_dataset(clean_spec)
    layout = synthetic_layout(clean_spec)
    masses = []
    for video, vl in zip(clean, layout.videos):
        if split_of[video.video_id] != "test":
            continue
        ents = model.extract(select_layers(video, list(config.layer_select)))
        best = 0.0
        for l in range(len(ents.attention)):
            att = ents.attention_array(l)
            for e in range(att.shape[1]):
                per_frame = [
                    att[frame, e, _patch_token_indices(
                        vl.positions[frame], spec.grid_side, spec.actor_patch_side)].sum()
                    for frame in range(att.shape[0])]
                best = max(best, float(np.mean(per_frame)))
        masses.append(best)
    return masses


def test_criterion_8_actor_localization(e2e):
    config = e2e["config"]
    fractions = []
    for outcome in e2e["reports"]["e3"].per_seed:
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
        a.checkpoint == b.checkpoint for a, b in zip(first.per_seed, repeat.per_seed))
    metrics_ok = json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        repeat.to_dict(), sort_keys=True)
    report(9, "repeating the run gives bit-identical checkpoints and metrics JSON",
           checkpoints_ok and metrics_ok)

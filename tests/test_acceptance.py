"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The training-effect experiment (criterion 5) runs three arms over five seeds
on the 2000/500 synthetic set and is shared by its sub-criteria; everything
else is self-contained and fast.
"""

import math
import time

import numpy as np
import pytest

from palnet import autodiff as ad
from palnet.ablation import aggregate_rows, run_grid
from palnet.attribution import GRAD, ChannelStrategy, attribution, channel_slice_mean, reduce_channels
from palnet.autodiff import Tape, Tensor
from palnet.data import generate_dataset, load_manifest, load_sample, manifest_path
from palnet.gradcheck import run_gradcheck
from palnet.heatmap import LandmarkSet, gaussian_heatmap, standardize_map, transform_landmarks
from palnet.losses import pal_loss, pearson
from palnet.model import forward, init_params, load_checkpoint, toy64
from palnet.seeding import stream
from palnet.train import TrainConfig, evaluate, train

# experiment grid used for criterion 5 (and reused by the half-map check)
EXPERIMENT_SEEDS = [0, 1, 2, 3, 4]
EXPERIMENT_EPOCHS = 4
EXPERIMENT_TAP = "relu4"
EXPERIMENT_WEIGHT = 0.1
TIME_BUDGET_S = 1800.0


def _report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: gradient-path correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_path():
    report = run_gradcheck(seed=0, eps=1e-5, threshold=1e-4)
    ce_err = report["combos"]["ce-only"]["max_rel_err"]
    ok = report["passed"] and report["elapsed_s"] < 120.0 and ce_err < 1e-6
    detail = (
        f"max rel err {report['max_rel_err']:.2e} over 7 combos "
        f"(ce-only {ce_err:.2e}), {report['elapsed_s']:.0f}s"
    )
    assert _report("criterion 1 gradient-path correctness", ok, detail)


# ---------------------------------------------------------------------------
# criterion 2: exact-contribution identity on bias-free nets
# ---------------------------------------------------------------------------


def test_criterion_2_exact_contribution_identity():
    worst = 0.0
    for trial in range(20):
        spec = toy64(bias=False)
        params = init_params(spec, trial)
        rng = stream(trial, "exactness")
        images = rng.uniform(0.0, 1.0, size=(1, 1, 64, 64))
        trace = forward(spec, params, images, Tape())
        total = ad.reduce_sum(trace.logits)
        target = total.item()
        taps = [trace.taps[name] for name in spec.tap_names()]
        grads = ad.backward(total, taps)
        for g, tap in zip(grads, taps):
            contribution = float((g.data * tap.data).sum())
            worst = max(worst, abs(contribution - target) / abs(target))
    ok = worst < 1e-8
    assert _report(
        "criterion 2 exact-contribution identity",
        ok,
        f"20 trials x 4 taps, max rel deviation {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 3: correlation-loss invariants
# ---------------------------------------------------------------------------


def test_criterion_3_pal_invariants():
    rng = stream(0, "pal-invariants")
    prior = standardize_map(rng.uniform(size=(16, 16)))

    perfect = pal_loss(Tensor(prior.reshape(1, 1, 16, 16)), prior).item()
    ok_a = abs(perfect - (-256.0)) <= 1e-9

    worst_gap = 0.0
    for _ in range(100):
        a = rng.uniform(size=(1, 1, 16, 16))
        alpha = float(rng.uniform(0.02, 50.0))
        beta = float(rng.uniform(-10.0, 10.0))
        gap = abs(
            pal_loss(Tensor(alpha * a + beta), prior).item()
            - pal_loss(Tensor(a), prior).item()
        )
        worst_gap = max(worst_gap, gap)
    ok_b = worst_gap <= 1e-9

    tape = Tape()
    amap = tape.leaf(rng.uniform(0.1, 1.0, size=(2, 8, 16, 16)))
    reduced = reduce_channels(amap, ChannelStrategy("mean_of_half"))
    (g,) = ad.backward(pal_loss(reduced, prior), [amap])
    free_max = float(np.abs(g.data[:, 4:]).max())
    constrained_any = bool((g.data[:, :4] != 0).any())
    ok_c = free_max == 0.0 and constrained_any

    ok = ok_a and ok_b and ok_c
    assert _report(
        "criterion 3 correlation-loss invariants",
        ok,
        f"perfect match {perfect:.12f} (want -256), affine gap {worst_gap:.2e}, "
        f"free-half grad max {free_max}",
    )


# ---------------------------------------------------------------------------
# criterion 4: prior heatmap correctness
# ---------------------------------------------------------------------------


def test_criterion_4_prior_correctness():
    rng = stream(0, "prior")
    points = rng.uniform(2.0, 29.0, size=(6, 2))
    got = gaussian_heatmap(LandmarkSet(points), 32, 32, sigma=3.0)
    oracle = np.zeros((32, 32))
    for i in range(32):
        for j in range(32):
            acc = 0.0
            for x, y in points:
                acc += math.exp(-(((i - y) ** 2 + (j - x) ** 2) / 18.0)) / math.sqrt(18.0 * math.pi)
            oracle[i, j] = acc
    closed_form_err = float(np.abs(got - oracle).max())
    ok_closed = closed_form_err <= 1e-12

    peak = gaussian_heatmap(LandmarkSet(np.array([[16.0, 16.0]])), 32, 32, 3.0)[16, 16]
    ok_peak = abs(peak - 0.1329807601338109) <= 1e-12

    std = standardize_map(got)
    ok_std = abs(std.mean()) <= 1e-9 and abs(std.var() - 1.0) <= 1e-9

    int_points = LandmarkSet(np.array([[5.0, 8.0], [20.0, 25.0], [11.0, 30.0]]))
    flipped = transform_landmarks(int_points, 0.0, True, 32, 32)
    flip_err = float(
        np.abs(
            gaussian_heatmap(flipped, 32, 32)
            - gaussian_heatmap(int_points, 32, 32)[:, ::-1]
        ).max()
    )
    ok_flip = flip_err <= 1e-9

    ok = ok_closed and ok_peak and ok_std and ok_flip
    assert _report(
        "criterion 4 prior correctness",
        ok,
        f"closed-form err {closed_form_err:.1e}, peak {peak:.9f}, "
        f"standardized mean/var ok={ok_std}, flip err {flip_err:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 5: training effect (directional trend over 5 seeds)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("experiment"))
    ds = f"{root}/ds"
    t0 = time.perf_counter()
    generate_dataset(ds, seed=7, n=2000, split="train")
    generate_dataset(ds, seed=7, n=500, split="test")
    base = dict(
        train_manifest=manifest_path(ds, "train"),
        test_manifest=manifest_path(ds, "test"),
        epochs=EXPERIMENT_EPOCHS,
        tap=EXPERIMENT_TAP,
    )
    grid = [
        {"method": "none", "config_id": "baseline"},
        {
            "method": "grad_input", "strategy": "mean_of_half",
            "pal_weight": EXPERIMENT_WEIGHT, "config_id": "pal",
        },
        {
            "method": "grad", "strategy": "all",
            "pal_weight": EXPERIMENT_WEIGHT, "config_id": "all-channels",
        },
    ]
    rows = run_grid(grid, EXPERIMENT_SEEDS, base, root)
    elapsed = time.perf_counter() - t0
    agg = {r["config_id"]: r for r in rows if r["seed"] == "aggregate"}
    assert all(r["status"] == "ok" for r in rows if r["seed"] != "aggregate")
    return {"rows": rows, "agg": agg, "elapsed": elapsed, "root": root, "base": base}


def test_criterion_5a_correlation_gap(experiment):
    gap = (
        experiment["agg"]["pal"]["attr_prior_corr"]
        - experiment["agg"]["baseline"]["attr_prior_corr"]
    )
    ok = gap >= 0.1
    assert _report(
        "criterion 5a attribution-prior correlation gap",
        ok,
        f"pal {experiment['agg']['pal']['attr_prior_corr']:.3f} vs baseline "
        f"{experiment['agg']['baseline']['attr_prior_corr']:.3f} (gap {gap:.3f} >= 0.1)",
    )


def _paired_not_worse(rows: list[dict], arm: str, reference: str) -> dict:
    """Seed-paired non-inferiority of `arm` against `reference` on test accuracy.

    A seed gives both arms the same split, initial weights, batch order and
    augmentation draws, so the per-seed differences (arm - reference) carry
    less noise than the two arm means. Their mean and the interval
    mean +- 1.96*sd/sqrt(n) (about 88% coverage at n = 5) come from
    `aggregate_rows`; `arm` is not worse unless the whole interval lies below 0.
    """
    per_arm = {
        cid: {r["seed"]: r for r in rows
              if r["config_id"] == cid and r["seed"] != "aggregate" and r["status"] == "ok"}
        for cid in (arm, reference)
    }
    seeds = sorted(per_arm[arm])
    assert len(seeds) >= 2 and seeds == sorted(per_arm[reference]), "arms must share at least two seeds"
    diff_rows = [
        {**per_arm[arm][s], "config_id": f"{arm} - {reference}",
         "test_acc": per_arm[arm][s]["test_acc"] - per_arm[reference][s]["test_acc"],
         "attr_prior_corr": per_arm[arm][s]["attr_prior_corr"] - per_arm[reference][s]["attr_prior_corr"]}
        for s in seeds
    ]
    (agg,) = aggregate_rows(diff_rows)
    mean, half = agg["test_acc"], agg["test_acc_ci95"]
    return {
        "ok": mean + half >= 0.0,
        "diffs": [r["test_acc"] for r in diff_rows],
        "mean": mean, "low": mean - half, "high": mean + half,
    }


def _acc_rows(config_id: str, accs: list[float]) -> list[dict]:
    return [{"config_id": config_id, "seed": s, "test_acc": a, "attr_prior_corr": 0.0,
             "wall_s": 1.0, "status": "ok"} for s, a in enumerate(accs)]


def test_paired_not_worse_decision_rule():
    # test accuracies by seed 0-4 as measured for criterion 5 (2-vCPU Xeon, OpenBLAS 0.3.31)
    baseline = _acc_rows("baseline", [0.984, 0.992, 0.984, 0.994, 0.992])
    pal = _acc_rows("pal", [0.986, 0.994, 0.992, 0.988, 0.968])
    full = _acc_rows("all-channels", [0.974, 0.986, 0.968, 0.996, 0.988])
    rows = baseline + pal + full

    got = _paired_not_worse(rows, "pal", "baseline")
    np.testing.assert_allclose(got["diffs"], [0.002, 0.002, 0.008, -0.006, -0.024], atol=1e-12)
    np.testing.assert_allclose([got["mean"], got["high"]], [-0.0036, 0.0073056], atol=1e-6)
    assert got["ok"]

    got = _paired_not_worse(rows, "all-channels", "baseline")
    np.testing.assert_allclose([got["mean"], got["high"]], [-0.0068, -0.0009068], atol=1e-6)
    assert not got["ok"]

    twin = _acc_rows("twin", [0.984, 0.992, 0.984, 0.994, 0.992])
    got = _paired_not_worse(baseline + twin, "twin", "baseline")
    assert got["ok"] and got["high"] == 0.0

    with pytest.raises(AssertionError, match="share at least two seeds"):
        _paired_not_worse(baseline + pal[:4], "pal", "baseline")


def test_criterion_5b_accuracy_not_worse(experiment):
    got = _paired_not_worse(experiment["rows"], "pal", "baseline")
    diffs = ", ".join(f"{d:+.3f}" for d in got["diffs"])
    assert _report(
        "criterion 5b accuracy not worse (seed-paired, 1.96*sd/sqrt(n))",
        got["ok"],
        f"pal - baseline by seed [{diffs}], mean {got['mean']:+.4f}, "
        f"1.96*sd/sqrt(n) interval (about 88% at n = 5) "
        f"[{got['low']:+.4f}, {got['high']:+.4f}] (upper >= 0); "
        f"pal {experiment['agg']['pal']['test_acc']:.4f}, "
        f"baseline {experiment['agg']['baseline']['test_acc']:.4f}",
    )


def test_criterion_5c_strategy_ordering(experiment):
    half = experiment["agg"]["pal"]["test_acc"]
    full = experiment["agg"]["all-channels"]["test_acc"]
    ok = half >= full
    assert _report(
        "criterion 5c channel-strategy ordering",
        ok,
        f"grad_input+mean_of_half {half:.4f} >= all-channels {full:.4f}",
    )


def test_criterion_5_runtime_and_learnability(experiment):
    base_acc = experiment["agg"]["baseline"]["test_acc"]
    ok_time = experiment["elapsed"] < TIME_BUDGET_S
    ok_learn = base_acc >= 0.70  # plain CE reaches 70% within <= 10 epochs
    assert _report(
        "criterion 5 runtime + learnability gate",
        ok_time and ok_learn,
        f"{experiment['elapsed']:.0f}s < {TIME_BUDGET_S:.0f}s, baseline {base_acc:.3f} >= 0.70",
    )


def test_constrained_half_tracks_prior_better_than_free_half(experiment):
    ckpt = f"{experiment['root']}/runs/pal/seed0/best.ckpt"
    spec, params = load_checkpoint(ckpt)
    manifest = load_manifest(experiment["base"]["test_manifest"])
    samples = [load_sample(manifest, i) for i in range(128)]
    tap_hw = spec.tap_shapes()[EXPERIMENT_TAP][1:]
    from palnet.train import batch_priors, _batch_arrays

    cons, free = [], []
    for start in range(0, len(samples), 64):
        chunk = samples[start : start + 64]
        images, _ = _batch_arrays(chunk)
        priors = batch_priors(chunk, tap_hw, 3.0)
        trace = forward(spec, params, images, Tape())
        amap = attribution(trace, EXPERIMENT_TAP, "grad_input")
        c = amap.shape[1]
        cons_map = channel_slice_mean(amap, 0, c // 2).data
        free_map = channel_slice_mean(amap, c // 2, c).data
        for i in range(len(chunk)):
            cons.append(pearson(cons_map[i, 0], priors[i]))
            free.append(pearson(free_map[i, 0], priors[i]))
    ok = np.mean(cons) >= np.mean(free)
    assert _report(
        "constrained-half vs free-half correlation",
        ok,
        f"constrained {np.mean(cons):.3f} >= free {np.mean(free):.3f} (128 test samples)",
    )


# ---------------------------------------------------------------------------
# criterion 6: pre-pool attribution sparsity
# ---------------------------------------------------------------------------


def test_criterion_6_pre_pool_sparsity():
    spec = toy64()
    params = init_params(spec, 0)
    rng = stream(0, "sparsity")
    images = rng.uniform(0.0, 1.0, size=(4, 1, 64, 64))
    trace = forward(spec, params, images, Tape())
    # relu2 feeds a 2x2 maxpool, so 3 of 4 positions get exactly zero gradient
    amap = attribution(trace, "relu2", GRAD)
    frac = float((amap.data == 0.0).mean())
    ok = frac >= 0.5
    assert _report(
        "criterion 6 pre-pool sparsity",
        ok,
        f"measured exact-zero fraction {frac:.3f} (expected near 0.75)",
    )


# ---------------------------------------------------------------------------
# criterion 7: determinism and baseline equivalence
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def micro_ds(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("micro"))
    generate_dataset(root, seed=5, n=140, split="train")
    generate_dataset(root, seed=5, n=35, split="test")
    return root


def test_criterion_7_determinism_and_weight_zero(micro_ds, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("det"))
    base = dict(
        train_manifest=manifest_path(micro_ds, "train"),
        test_manifest=manifest_path(micro_ds, "test"),
        epochs=1,
        seed=0,
    )

    def ckpt_bytes(run_dir):
        with open(f"{run_dir}/best.ckpt", "rb") as fh:
            return fh.read()

    train(TrainConfig(**base, method="grad_input"), f"{out}/a")
    train(TrainConfig(**base, method="grad_input"), f"{out}/b")
    identical = ckpt_bytes(f"{out}/a") == ckpt_bytes(f"{out}/b")

    train(TrainConfig(**base, method="none"), f"{out}/none")
    train(TrainConfig(**base, method="grad_input", pal_weight=0.0), f"{out}/zero")
    equivalent = ckpt_bytes(f"{out}/none") == ckpt_bytes(f"{out}/zero")

    ok = identical and equivalent
    assert _report(
        "criterion 7 determinism + baseline equivalence",
        ok,
        f"repeat-run checkpoints identical={identical}, "
        f"weight-0 matches method-none={equivalent}",
    )

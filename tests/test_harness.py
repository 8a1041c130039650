"""Harness checks: CLI plumbing, run determinism, baseline equivalence,
evaluation semantics, the ablation grid, and attribution export."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest

import palnet
from palnet.ablation import aggregate_rows, run_grid
from palnet.attribution import ChannelStrategy
from palnet.cli import main as cli_main
from palnet.data import (LandmarkSet, Sample, generate_dataset, load_manifest, load_sample,
                         manifest_path, mask_landmark_patches)
from palnet.model import get_spec, init_params, load_checkpoint, save_checkpoint
from palnet.pgm import read_pgm
from palnet.train import CSV_COLUMNS, TrainConfig, TrainError, evaluate, train


@pytest.fixture(scope="module")
def micro_dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("ds-micro"))
    generate_dataset(root, seed=0, n=140, split="train")
    generate_dataset(root, seed=0, n=70, split="test")
    return {"root": root, "train": manifest_path(root, "train"),
            "test": manifest_path(root, "test")}


def micro_config(micro_dataset, **overrides):
    base = dict(
        train_manifest=micro_dataset["train"],
        test_manifest=micro_dataset["test"],
        epochs=1,
        seed=0,
        augment=False,
    )
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def test_cli_gen_data(tmp_path, capsys):
    out = str(tmp_path / "ds")
    rc = cli_main(["gen-data", "--out", out, "--n-train", "14", "--n-test", "7", "--seed", "4"])
    assert rc == 0
    train_man = load_manifest(manifest_path(out, "train"))
    test_man = load_manifest(manifest_path(out, "test"))
    assert len(train_man) == 14 and len(test_man) == 7


def test_cli_train_eval_attribute(tmp_path, micro_dataset, capsys):
    run_dir = str(tmp_path / "run")
    rc = cli_main([
        "train", "--train-manifest", micro_dataset["train"],
        "--test-manifest", micro_dataset["test"], "--out", run_dir,
        "--method", "none", "--epochs", "1", "--seed", "0", "--no-augment",
    ])
    assert rc == 0
    ckpt = os.path.join(run_dir, "best.ckpt")
    assert os.path.exists(ckpt)
    assert os.path.exists(os.path.join(run_dir, "run.json"))
    with open(os.path.join(run_dir, "metrics.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header == CSV_COLUMNS

    rc = cli_main(["eval", "--checkpoint", ckpt, "--manifest", micro_dataset["test"],
                   "--tap", "relu4", "--method", "grad_input"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "confusion" in out

    exp_dir = str(tmp_path / "maps")
    rc = cli_main(["attribute", "--checkpoint", ckpt, "--manifest", micro_dataset["test"],
                   "--samples", "0,1", "--layer", "relu4", "--method", "grad_input",
                   "--strategy", "mean_of_half", "--out", exp_dir])
    assert rc == 0
    files = sorted(os.listdir(exp_dir))
    # constrained + free half per sample
    assert len(files) == 4
    assert any("constrained" in f for f in files) and any("free" in f for f in files)
    spec = get_spec("toy64")
    h, w = spec.tap_shapes()["relu4"][1:]
    img = read_pgm(os.path.join(exp_dir, files[0]))
    assert img.shape == (h, w)


# ---------------------------------------------------------------------------
# determinism and baseline equivalence
# ---------------------------------------------------------------------------


def _ckpt_bytes(run_dir):
    with open(os.path.join(run_dir, "best.ckpt"), "rb") as fh:
        return fh.read()


def test_identical_config_gives_bit_identical_checkpoints(tmp_path, micro_dataset):
    cfg = micro_config(micro_dataset, method="grad_input", augment=True)
    a = train(cfg, str(tmp_path / "a"))
    b = train(micro_config(micro_dataset, method="grad_input", augment=True), str(tmp_path / "b"))
    assert _ckpt_bytes(str(tmp_path / "a")) == _ckpt_bytes(str(tmp_path / "b"))
    assert a.test_acc == b.test_acc
    assert [s["total"] for s in a.steps] == [s["total"] for s in b.steps]


_TRAIN_IN_CHILD = """
import hashlib, json, sys
from palnet.train import TrainConfig, train
record = train(TrainConfig(**json.loads(sys.argv[1])), sys.argv[2])
with open(record.checkpoint, "rb") as fh:
    print(json.dumps({"sha256": hashlib.sha256(fh.read()).hexdigest(), "steps": record.steps}))
"""


@pytest.mark.parametrize("overrides", [
    dict(method="grad_input", batch_size=16, augment=True),
    dict(method="none", batch_size=64),
], ids=["pal-b16", "ce-b64"])
def test_blas_thread_count_keeps_the_bits(tmp_path, micro_dataset, overrides):
    # the determinism contract: one machine and one BLAS build give the same
    # checkpoint and step rows at 1 and at 2 OpenBLAS threads
    cfg = json.dumps(asdict(micro_config(micro_dataset, **overrides)))
    src = os.path.dirname(os.path.dirname(palnet.__file__))
    runs = []
    for threads in ("1", "2"):
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-c", _TRAIN_IN_CHILD, cfg, str(tmp_path / threads)],
                             env=env, capture_output=True, text=True, timeout=300, check=True)
        runs.append(json.loads(out.stdout))
    assert runs[0] == runs[1]
    assert len(runs[0]["steps"]) > 0


def test_weight_zero_matches_method_none_bitwise(tmp_path, micro_dataset):
    train(micro_config(micro_dataset, method="none"), str(tmp_path / "none"))
    train(micro_config(micro_dataset, method="grad_input", pal_weight=0.0), str(tmp_path / "zero"))
    assert _ckpt_bytes(str(tmp_path / "none")) == _ckpt_bytes(str(tmp_path / "zero"))


def test_pal_training_raises_correlation(tmp_path, micro_dataset):
    rec = train(micro_config(micro_dataset, method="grad_input", epochs=2), str(tmp_path / "pal"))
    assert rec.corr_end > rec.corr_start


def test_ce_descends_on_a_fixed_batch(micro_dataset):
    # deterministic descent: 50 repeated steps on one batch
    from palnet import autodiff as ad
    from palnet.optim import adam_step, init_adam, poly_decay
    from palnet.train import _batch_arrays, training_loss

    manifest = load_manifest(micro_dataset["train"])
    samples = [load_sample(manifest, i) for i in range(16)]
    images, labels = _batch_arrays(samples)
    spec = get_spec("toy64", n_classes=7)
    params = init_params(spec, 0)
    state = init_adam(params)
    ces = []
    for step in range(50):
        breakdown, trace = training_loss(
            spec, params, images, labels, None, "relu4", "none",
            ChannelStrategy("all"), 1.0,
        )
        names = sorted(trace.params)
        grad_list = ad.backward(breakdown.tensor, [trace.params[k] for k in names])
        grads = {k: g.data for k, g in zip(names, grad_list)}
        params = adam_step(params, grads, state, poly_decay(1e-3, step, 200))
        ces.append(breakdown.ce)
    decreases = np.mean(np.array(ces[1:]) < np.array(ces[:-1]))
    assert decreases >= 0.8


# ---------------------------------------------------------------------------
# evaluation semantics
# ---------------------------------------------------------------------------


def test_untrained_model_is_at_chance_and_confusion_counts(micro_dataset):
    manifest = load_manifest(micro_dataset["test"])
    samples = [load_sample(manifest, i) for i in range(len(manifest))]
    spec = get_spec("toy64", n_classes=7)
    params = init_params(spec, 123)
    acc, confusion, _ = evaluate(
        spec, params, samples, "relu4", "grad_input", ChannelStrategy("mean"),
        3.0, with_corr=False,
    )
    assert abs(acc - 1.0 / 7.0) <= 0.05
    per_class = np.bincount([s.label for s in samples], minlength=7)
    npt.assert_array_equal(confusion.sum(axis=1), per_class)
    assert confusion.sum() == len(samples)


@pytest.mark.parametrize("name,bias,taps", [("toy64", True, ("relu2", "relu4")),
                                            ("toy64", False, ("relu2", "relu4")),
                                            ("tiny16", True, ("relu1", "relu2"))])
def test_evaluate_default_chunk_matches_a_chunk_of_64(name, bias, taps):
    # 70 samples, so the last chunk is ragged either way: 8 x 8 + 6 and 64 + 6
    spec = get_spec(name, bias=bias)
    params = init_params(spec, 3)
    h, w = spec.in_shape[1:]
    rng = np.random.default_rng(8)
    samples = [Sample(rng.uniform(size=(h, w)),
                      LandmarkSet(rng.uniform(1.0, h - 2.0, size=(9, 2))), i % spec.n_classes)
               for i in range(70)]
    for tap in taps:
        for method in ("grad", "grad_input"):
            for strategy in ("all", "mean", "mean_of_half"):
                strat = ChannelStrategy.parse(strategy)
                acc, confusion, corr = evaluate(spec, params, samples, tap, method, strat, 3.0)
                want = evaluate(spec, params, samples, tap, method, strat, 3.0, batch_size=64)
                assert (acc, confusion.tobytes(), corr) == (want[0], want[1].tobytes(), want[2])


def test_occlusion_drops_trained_model_to_chance(trained_baseline):
    spec, params = trained_baseline["spec"], trained_baseline["params"]
    manifest = load_manifest(trained_baseline["test"])
    samples = [load_sample(manifest, i) for i in range(len(manifest))]
    masked = []
    for s in samples:
        s.image = mask_landmark_patches(s.image, s.landmarks)
        masked.append(s)
    acc, _, _ = evaluate(spec, params, masked, "relu4", "grad_input",
                         ChannelStrategy("mean"), 3.0, with_corr=False)
    assert abs(acc - 1.0 / 7.0) <= 0.10


def test_trained_baseline_clearly_above_chance(trained_baseline):
    assert trained_baseline["record"].test_acc >= 0.5


# ---------------------------------------------------------------------------
# ablation grid
# ---------------------------------------------------------------------------


def test_ablation_grid_rows_and_aggregates(tmp_path, micro_dataset):
    base = dict(
        train_manifest=micro_dataset["train"], test_manifest=micro_dataset["test"],
        epochs=1, augment=False,
    )
    grid = [
        {"method": "none"},
        {"method": "grad_input", "strategy": "mean_of_half", "pal_weight": 0.01},
        {"method": "grad_input", "tap": "relu9"},  # invalid tap: recorded, not fatal
    ]
    rows = run_grid(grid, seeds=[0, 1], base=base, out_dir=str(tmp_path))
    per_seed = [r for r in rows if r["seed"] != "aggregate"]
    aggregates = [r for r in rows if r["seed"] == "aggregate"]
    assert len(per_seed) == 6
    assert len(aggregates) == 2  # the failing config has no ok rows
    failed = [r for r in per_seed if r["status"].startswith("error")]
    assert len(failed) == 2 and "relu9" in failed[0]["status"]

    for agg in aggregates:
        member_accs = [r["test_acc"] for r in per_seed
                       if r["config_id"] == agg["config_id"] and r["status"] == "ok"]
        npt.assert_allclose(agg["test_acc"], np.mean(member_accs), atol=1e-12)

    with pytest.raises(ValueError, match="2 seeds"):
        run_grid(grid, seeds=[0], base=base, out_dir=str(tmp_path))


def test_ablation_grid_records_invalid_cells_and_goes_on(tmp_path, micro_dataset):
    base = dict(train_manifest=micro_dataset["train"], test_manifest=micro_dataset["test"],
                epochs=1, augment=False)
    grid = [{"method": "bogus"}, {"epoch": 2}, {"method": "none", "total_steps": 1}]
    rows = run_grid(grid, seeds=[0, 1], base=base, out_dir=str(tmp_path))
    status = {(r["config_id"], r["seed"]): r["status"] for r in rows}
    assert status[("method=bogus", 0)].startswith("error: method must be one of")
    assert status[("epoch=2", 1)] == "error: config: unknown field 'epoch'"
    assert status[("baseline", 0)] == status[("baseline", 1)] == "ok"
    assert status[("baseline", "aggregate")] == "n=2"
    assert len(rows) == 7


def test_aggregate_interval_formula():
    rows = [
        {"config_id": "c", "seed": s, "test_acc": v, "attr_prior_corr": v / 2,
         "wall_s": 1.0, "status": "ok"}
        for s, v in enumerate([0.5, 0.6, 0.7])
    ]
    (agg,) = aggregate_rows(rows)
    vals = np.array([0.5, 0.6, 0.7])
    npt.assert_allclose(agg["test_acc"], vals.mean(), atol=1e-15)
    npt.assert_allclose(agg["test_acc_ci95"], 1.96 * vals.std(ddof=1) / np.sqrt(3), atol=1e-15)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_train_config_validation_and_ids(micro_dataset):
    with pytest.raises(Exception):
        micro_config(micro_dataset, method="saliency")
    cfg = micro_config(micro_dataset, method="none")
    assert cfg.config_id == "baseline"
    cfg = micro_config(micro_dataset, method="grad_input", strategy="mean_of_half")
    assert "grad_input" in cfg.config_id and "relu4" in cfg.config_id


@pytest.mark.parametrize("field,value", [("batch_size", -4), ("batch_size", 0), ("epochs", -1),
                                         ("epochs", 0), ("total_steps", 0)])
def test_train_config_rejects_sizes_below_one(micro_dataset, field, value):
    # unchecked, batch_size -4 trains no step and saves the initial weights,
    # 0 divides by zero, and epochs -1 leaves no checkpoint to load
    message = f"{field} must be at least 1, got {value}"
    with pytest.raises(TrainError, match=message):
        micro_config(micro_dataset, **{field: value})
    raw = {"train_manifest": micro_dataset["train"], "test_manifest": micro_dataset["test"],
           field: value}
    with pytest.raises(TrainError, match=message):
        TrainConfig.from_dict(raw)


def test_cli_train_names_a_bad_batch_size(tmp_path, micro_dataset, capsys):
    rc = cli_main(["train", "--train-manifest", micro_dataset["train"],
                   "--test-manifest", micro_dataset["test"], "--out", str(tmp_path / "run"),
                   "--batch-size", "0"])
    assert rc == 2
    assert capsys.readouterr().err == "error: batch_size must be at least 1, got 0\n"
    assert not os.path.exists(tmp_path / "run")


def test_total_steps_truncates_training(tmp_path, micro_dataset):
    cfg = micro_config(micro_dataset, method="none", epochs=3, total_steps=5)
    rec = train(cfg, str(tmp_path / "short"))
    assert len(rec.steps) == 5


def test_cli_config_file_with_overrides(tmp_path, micro_dataset):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({
            "train_manifest": micro_dataset["train"],
            "test_manifest": micro_dataset["test"],
            "method": "grad_input", "epochs": 1, "augment": False,
        }, fh)
    run_dir = str(tmp_path / "run")
    rc = cli_main(["train", "--config", cfg_path, "--out", run_dir,
                   "--method", "none", "--seed", "2"])
    assert rc == 0
    with open(os.path.join(run_dir, "run.json")) as fh:
        record = json.load(fh)
    assert record["config_id"] == "baseline"
    assert record["seed"] == 2


@pytest.mark.parametrize("edit,match", [
    (lambda cfg: cfg.update(epoch=2), "unknown field 'epoch'"),
    (lambda cfg: cfg.pop("test_manifest"), "missing field 'test_manifest'"),
], ids=["unknown", "missing"])
def test_cli_config_file_names_a_bad_field(tmp_path, micro_dataset, edit, match, capsys):
    cfg = {"train_manifest": micro_dataset["train"], "test_manifest": micro_dataset["test"]}
    edit(cfg)
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    rc = cli_main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: config: {match}\n"


def test_cli_missing_checkpoint_is_one_error_line(tmp_path, micro_dataset, capsys):
    path = str(tmp_path / "absent.ckpt")
    rc = cli_main(["eval", "--checkpoint", path, "--manifest", micro_dataset["test"]])
    assert rc == 2
    assert capsys.readouterr().err == f"error: checkpoint not found: {path}\n"


@pytest.mark.parametrize("n_classes,manifest,message", [
    (7, None, "manifest not found: {path}"),
    (3, "test", "checkpoint has 3 classes, dataset has 7"),
], ids=["missing-manifest", "class-mismatch"])
def test_cli_eval_bad_manifest_is_one_error_line(tmp_path, micro_dataset, capsys,
                                                 n_classes, manifest, message):
    spec = get_spec("toy64", n_classes=n_classes)
    ckpt = str(tmp_path / "init.ckpt")
    save_checkpoint(ckpt, spec, init_params(spec, seed=0))
    path = micro_dataset[manifest] if manifest else str(tmp_path / "absent_manifest.json")
    rc = cli_main(["eval", "--checkpoint", ckpt, "--manifest", path])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

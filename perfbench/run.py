#!/usr/bin/env python3
"""palnet benchmark: named workloads through palnet's public API.

Usage, from the root of a source checkout (palnet is imported from ./src):

    python3 perfbench/run.py --workload pal_relu4_b16 --seed 1 --seconds 30 --trace 0

Each workload runs in its own process as a closed loop: one `train()` or
`run_gradcheck()` call at a time, the next only after the previous returned,
until `--seconds` have passed (at least one call).  The dataset is generated
from `--seed` with `palnet.data.generate_dataset`; the same seed gives the
same inputs and, on one machine, the same checkpoint bytes.  The gradcheck
workload always checks `run_gradcheck()`'s default inputs (see
`gradcheck_call`).

`--trace 0` reports the end-to-end metrics with tracing off.  `--trace 1`
alternates untraced and traced calls (see tracer.py) and reports per-layer
metrics, the per-op table and the phase shares of a training step.  Every
call is checked: repeated calls must reproduce the warm-up call's loss rows
and checkpoint bytes (traced calls too), gradcheck must pass.  The last line
of standard output is one JSON object; the exit code is 1 if a check failed.

`--size toy` shrinks every workload for the self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread: the matmuls here are too small to gain from a second one,
# and a single thread is less exposed to other load on a shared machine.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1

PAL = dict(method="grad_input", strategy="mean_of_half", pal_weight=0.1)

# Why each workload is here is recorded in BENCHMARK.json.  Training splits
# are sized so every batch is full: 252 samples keep 224 for training (14
# batches of 16), 497 keep 448 (7 batches of 64).
WORKLOADS = {
    "pal_relu4_b16": dict(kind="train", n_train=252, n_test=64, epochs=1,
                          config=dict(PAL, tap="relu4", batch_size=16, augment=True)),
    "ce_b64_noaug": dict(kind="train", n_train=497, n_test=64, epochs=1,
                         config=dict(method="none", tap="relu4", batch_size=64, augment=False)),
    "gradcheck_tiny16": dict(kind="gradcheck"),
}
TOY = dict(n_train=42, n_test=7, epochs=1, batch_size=8)
TOY_COMBOS = [("none", "all"), ("grad_input", "mean_of_half")]

SETUP_REPEATS = 5
EVAL_REPEATS = 3
# The gated step time is the 90th percentile.  On a shared host the speed of
# the same code drifts with other tenants' load; of the quantiles tried, p90
# repeated best from run to run (README.md gives the figures).
STEP_QUANTILE = 0.9
GRADCHECK_MAX_REL_ERR = 1e-4

# ROADMAP re-anchor shares of a toy64 B=16 relu4 step, printed for comparison
ROADMAP_SHARES = {"forward": 40.0, "final backward": 40.0, "augment": 9.0, "build priors": 7.0,
                  "create-graph attribution": 1.5, "pal loss": 1.3, "adam": 0.8}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import palnet.train, palnet.gradcheck; "
    "print(time.perf_counter() - t)"
)


class Failures:
    """Counts attempted and failed calls or checks, and says what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", flush=True)
        return ok


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def binned_quantile(values, q: float, width: float) -> float:
    """Quantile of values that are multiples of `width`, interpolated in the bin.

    Step times differ two `wall_s` stamps rounded to 1 ms, so they come in
    whole milliseconds; spreading each bin's samples evenly over it gives a
    quantile that moves continuously instead of jumping a millisecond.
    """
    counts = Counter(round(v / width) for v in values)
    target = q * len(values)
    below = 0
    for k in sorted(counts):
        if below + counts[k] >= target:
            return (k - 0.5 + (target - below) / counts[k]) * width
        below += counts[k]
    raise ValueError("no values")


def closed_loop(seconds: float, call) -> list:
    """Call `call(i)` back to back for about `seconds`, at least once.

    A call starts only if one of median length still ends inside the window,
    so a run does not overshoot by most of a call.
    """
    results, times = [], []
    t_end = time.perf_counter() + seconds
    while not results or time.perf_counter() + statistics.median(times) <= t_end:
        t0 = time.perf_counter()
        results.append(call(len(results)))
        times.append(time.perf_counter() - t0)
    return results


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------


def environment(args) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_desc = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if got.returncode == 0:
            sha = got.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": NPROC,
        "cpu": cpu,
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def import_seconds() -> float:
    """palnet's import time in a fresh interpreter (numpy included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    got = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=str(ROOT),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(got.stdout.strip().splitlines()[-1])


def make_dataset(spec: dict, seed: int, root: Path) -> dict:
    from palnet.data import generate_dataset, manifest_path

    if root.exists():
        shutil.rmtree(root)
    generate_dataset(str(root), seed=seed, n=spec["n_train"], split="train")
    generate_dataset(str(root), seed=seed, n=spec["n_test"], split="test")
    return {"train": manifest_path(str(root), "train"), "test": manifest_path(str(root), "test")}


def set_up(spec: dict, seed: int, work: Path, repeats: int):
    """Imports plus input generation, `repeats` times; returns (times, manifests)."""
    times, manifests = [], None
    for _ in range(repeats):
        t_import = import_seconds()
        t0 = time.perf_counter()
        if spec["kind"] == "train":
            manifests = make_dataset(spec, seed, work / "data")
        times.append(t_import + time.perf_counter() - t0)
    return times, manifests


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------


def train_call(cfg, out_dir: Path, tracer=None) -> dict:
    """One `train()` call; returns its record, step rows, step times and checkpoint."""
    from palnet.train import train

    if tracer is None:
        t0 = time.perf_counter()
        record = train(cfg, str(out_dir))
        call_s = time.perf_counter() - t0
    else:
        from tracer import installed

        tracer.steps.reset()
        with installed(tracer):
            t0 = time.perf_counter()
            record = train(cfg, str(out_dir))
            call_s = time.perf_counter() - t0
    rows, step_ms, prev = [], [], None
    with open(out_dir / "metrics.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            is_step = row["step|epoch"].isdigit()
            if is_step:
                rows.append((row["ce"], row["pal"], row["total"]))
                if prev is not None:
                    step_ms.append((float(row["wall_s"]) - prev) * 1000.0)
            prev = float(row["wall_s"]) if is_step else None
    return {"record": record, "rows": rows, "step_ms": step_ms, "call_s": call_s,
            "ckpt": (out_dir / "best.ckpt").read_bytes()}


def check_call(fails: Failures, got: dict, ref: dict, label: str):
    rec = got["record"]
    fails.check(len(got["rows"]) == len(rec.steps) > 0, f"{label}: step rows missing")
    fails.check(all(math.isfinite(float(v)) for r in got["rows"] for v in r),
                f"{label}: non-finite loss")
    fails.check(0.0 <= rec.test_acc <= 1.0, f"{label}: test accuracy out of range")
    fails.check(got["rows"] == ref["rows"], f"{label}: per-step (ce, pal, total) rows differ")
    fails.check(got["ckpt"] == ref["ckpt"], f"{label}: best.ckpt bytes differ")


def time_evaluate(cfg, out_dir: Path, last: dict, fails: Failures) -> float:
    """Seconds per `evaluate(..., with_corr=True)` on the best checkpoint (median)."""
    from palnet.attribution import ChannelStrategy
    from palnet.data import load_manifest, load_sample
    from palnet.model import load_checkpoint
    from palnet.train import evaluate

    spec, params = load_checkpoint(str(out_dir / "best.ckpt"))
    manifest = load_manifest(cfg.test_manifest)
    samples = [load_sample(manifest, i) for i in range(len(manifest))]
    method = cfg.method if cfg.uses_pal else "grad_input"
    strategy = ChannelStrategy.parse(cfg.strategy)
    rec, times = last["record"], []
    for _ in range(EVAL_REPEATS):
        t0 = time.perf_counter()
        acc, _, corr = evaluate(spec, params, samples, cfg.tap, method, strategy, cfg.sigma,
                                with_corr=True)
        times.append(time.perf_counter() - t0)
        fails.check(acc == rec.test_acc and corr == rec.test_corr,
                    "evaluate on best.ckpt disagrees with train()'s test evaluation")
    return len(samples) / statistics.median(times)


def run_train(spec: dict, args, work: Path, fails: Failures) -> tuple[dict, dict]:
    from palnet.train import TrainConfig

    if args.size == "toy":
        spec = dict(spec, **TOY, config=dict(spec["config"], batch_size=TOY["batch_size"]))
    setup_times, manifests = set_up(spec, args.seed, work, 1 if args.trace else SETUP_REPEATS)
    cfg = TrainConfig(train_manifest=manifests["train"], test_manifest=manifests["test"],
                      seed=args.seed, epochs=spec["epochs"], **spec["config"])
    out_dir = work / "run"
    # the warm-up call fills the index caches and is the reference every
    # later call must reproduce bit for bit; it is not timed
    ref = train_call(cfg, out_dir)
    fails.check(len(ref["rows"]) > 0, "warm-up train() recorded no steps")
    print(f"warm-up train(): {len(ref['rows'])} steps, test_acc {ref['record'].test_acc:.4f}, "
          f"{ref['call_s']:.3f} s", flush=True)
    if args.trace:
        return traced_train(cfg, out_dir, ref, args, fails)

    def one_call(i):
        got = train_call(cfg, out_dir)
        check_call(fails, got, ref, f"train() call {i + 1}")
        return got

    calls = closed_loop(args.seconds, one_call)
    eval_rate = time_evaluate(cfg, out_dir, calls[-1], fails)

    step_ms = [ms for c in calls for ms in c["step_ms"]]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "step_ms_p90": (binned_quantile(step_ms, STEP_QUANTILE, 1.0), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "setup times": " ".join(f"{t:.3f}" for t in setup_times) + " s",
        "train() calls": len(calls),
        "step samples": len(step_ms),
        "train_s (median)": f"{statistics.median(c['call_s'] for c in calls):.4f} s",
        **step_quantiles(lambda q: binned_quantile(step_ms, q, 1.0)),
        "train_samples_per_s": f"{cfg.batch_size * len(step_ms) / (sum(step_ms) / 1000.0):.2f} 1/s",
        "eval_samples_per_s": f"{eval_rate:.2f} 1/s",
        "test_acc": calls[-1]["record"].test_acc,
    }
    return metrics, info


def traced_train(cfg, out_dir: Path, ref: dict, args, fails: Failures) -> tuple[dict, dict]:
    from tracer import Tracer

    tracer = Tracer()

    def one_pair(i):
        plain = train_call(cfg, out_dir)
        check_call(fails, plain, ref, f"untraced train() call {i + 1}")
        traced = train_call(cfg, out_dir, tracer)
        check_call(fails, traced, ref, f"traced train() call {i + 1} vs untraced")
        return plain, traced

    untraced, traced = zip(*closed_loop(args.seconds, one_pair))

    n = len(traced)
    call_s = sum(c["call_s"] for c in traced)
    overhead_ms = 1000.0 * (statistics.median(c["call_s"] for c in traced)
                            - statistics.median(c["call_s"] for c in untraced))
    other_ms = 1000.0 * (call_s - tracer.toplevel_s) / n
    metrics = layer_metrics(tracer, n, overhead_ms, other_ms)

    steps = tracer.steps
    untraced_steps = [ms for c in untraced for ms in c["step_ms"]]
    print_op_table(tracer.steps.sums, steps.count, "per training step (back-to-back steps)")
    self_sum = sum(v[2] for v in steps.sums.values())
    if steps.count:
        step_wall = steps.wall_s / steps.count * 1000.0
        covered = self_sum / steps.count * 1000.0
        uncovered = (steps.wall_s - steps.toplevel_s) / steps.count * 1000.0
        print_self_times(steps.sums, steps.count, uncovered)
        print(f"step: layer self times {covered:.3f} ms + outside any span {uncovered:.3f} ms "
              f"= {covered + uncovered:.3f} ms; traced step wall {step_wall:.3f} ms "
              f"over {steps.count} steps")
        fails.check(abs(self_sum - steps.toplevel_s) <= 1e-6 * max(1.0, steps.toplevel_s),
                    "span self times do not add up to the outermost spans' time")
        fails.check(all(v[2] >= -1e-6 for v in steps.sums.values()), "negative self time")
        per_step_overhead = overhead_ms / max(1, len(ref["rows"]))
        print(f"untraced step mean {statistics.fmean(untraced_steps):.3f} ms; traced minus "
              f"untraced {step_wall - statistics.fmean(untraced_steps):.3f} ms per step; "
              f"tracing overhead {overhead_ms:.1f} ms per train() call "
              f"(~{per_step_overhead:.2f} ms per step)")
        print_phase_shares(steps, args.workload == "pal_relu4_b16")
    info = {"traced calls": n, "untraced calls": len(untraced),
            "traced train_s": round(statistics.median(c["call_s"] for c in traced), 4),
            "untraced train_s": round(statistics.median(c["call_s"] for c in untraced), 4)}
    return metrics, info


# ---------------------------------------------------------------------------
# gradcheck workload
# ---------------------------------------------------------------------------


def gradcheck_call(tracer=None) -> dict:
    """One `run_gradcheck()` on its default inputs; untraced, each objective
    evaluation is timed.

    The inputs do not follow `--seed`: finite differences are wrong where a
    perturbation crosses a ReLU or max-pool kink, and some seeds put an input
    within the default step of one (seed 39 fails at eps 1e-5 and passes at
    1e-6), so the check would fail there with correct gradients.  The
    default inputs are the ones the acceptance test checks.

    `sweeps` holds one list of evaluation times per `finite_diff` call: the
    evaluations of one sweep run the same objective on perturbed inputs.
    """
    import palnet.autodiff as ad
    from palnet.gradcheck import run_gradcheck

    sweeps = []
    original = ad.finite_diff
    if tracer is None:
        def timed_finite_diff(f, x, eps=1e-5):
            durations = []
            sweeps.append(durations)

            def timed(t):
                t0 = time.perf_counter()
                try:
                    return f(t)
                finally:
                    durations.append(time.perf_counter() - t0)
            return original(timed, x, eps)

        ad.finite_diff = timed_finite_diff
        try:
            t0 = time.perf_counter()
            report = run_gradcheck()
            call_s = time.perf_counter() - t0
        finally:
            ad.finite_diff = original
    else:
        from tracer import installed

        with installed(tracer):
            t0 = time.perf_counter()
            report = run_gradcheck()
            call_s = time.perf_counter() - t0
    return {"report": report, "call_s": call_s, "sweeps": sweeps,
            "evals": sum(len(d) for d in sweeps)}


def expected_objective_evals() -> int:
    import palnet.gradcheck as gc
    from palnet.model import init_params, tiny16

    n_params = sum(v.size for v in init_params(tiny16(n_classes=3), 0).values())
    return 2 * n_params * len(gc.COMBOS)


def check_gradcheck(fails: Failures, got: dict, ref: dict | None, label: str):
    report = got["report"]
    fails.check(report["passed"], f"{label}: gradcheck did not pass")
    fails.check(report["max_rel_err"] < GRADCHECK_MAX_REL_ERR,
                f"{label}: max_rel_err {report['max_rel_err']:.3e} >= {GRADCHECK_MAX_REL_ERR}")
    if ref is not None:
        fails.check(report["combos"] == ref["report"]["combos"],
                    f"{label}: errors differ from the first call")


def run_gradcheck_workload(spec: dict, args, work: Path, fails: Failures) -> tuple[dict, dict]:
    import palnet.gradcheck as gc

    if args.size == "toy":
        gc.COMBOS = TOY_COMBOS
    setup_times, _ = set_up(spec, args.seed, work, 1 if args.trace else SETUP_REPEATS)
    expected = expected_objective_evals()

    if args.trace:
        from tracer import Tracer

        ref = gradcheck_call()
        check_gradcheck(fails, ref, None, "untraced run_gradcheck()")
        fails.check(ref["evals"] == expected, "untraced objective evaluation count")
        tracer = Tracer()

        def one_traced(i):
            got = gradcheck_call(tracer)
            check_gradcheck(fails, got, ref, f"traced run_gradcheck() call {i + 1}")
            return got

        traced = closed_loop(args.seconds, one_traced)
        n = len(traced)
        fails.check(tracer.totals["gradcheck.objective"][0] == expected * n,
                    "traced objective evaluation count")
        overhead_ms = 1000.0 * (statistics.median(c["call_s"] for c in traced) - ref["call_s"])
        other_ms = 1000.0 * (sum(c["call_s"] for c in traced) - tracer.toplevel_s) / n
        print_op_table(tracer.totals, n, "per run_gradcheck() call")
        info = {"traced calls": n, "untraced gradcheck_s": round(ref["call_s"], 3),
                "max_rel_err": ref["report"]["max_rel_err"]}
        return layer_metrics(tracer, n, overhead_ms, other_ms), info

    calls = []

    def one_call(i):
        got = gradcheck_call()
        label = f"run_gradcheck() call {i + 1}"
        check_gradcheck(fails, got, calls[0] if calls else None, label)
        fails.check(got["evals"] == expected,
                    f"{label}: {got['evals']} objective evaluations, expected {expected}")
        calls.append(got)
        return got

    closed_loop(args.seconds, one_call)
    sweeps = [[s * 1000.0 for s in d] for c in calls for d in c["sweeps"]]
    eval_ms = [ms for d in sweeps for ms in d]

    def eval_quantile(q):
        # the combos' objectives differ several-fold in cost, so a quantile of
        # all evaluations pooled would pick out the cheapest combo; take it
        # within each sweep and weight each sweep by its evaluations instead
        k = round(100 * q) - 1
        return sum(len(d) * statistics.quantiles(d, n=100, method="inclusive")[k]
                   for d in sweeps) / len(eval_ms)

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "step_ms_p90": (eval_quantile(STEP_QUANTILE), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "setup times": " ".join(f"{t:.3f}" for t in setup_times) + " s",
        "run_gradcheck() calls": len(calls),
        "objective evaluations per call": expected,
        "gradcheck_s (median)": f"{statistics.median(c['call_s'] for c in calls):.3f} s",
        **step_quantiles(eval_quantile),
        "objective evaluations per s": f"{len(eval_ms) / (sum(eval_ms) / 1000.0):.1f} 1/s",
        "gradcheck_max_rel_err": calls[0]["report"]["max_rel_err"],
    }
    return metrics, info


# ---------------------------------------------------------------------------
# per-layer metrics and tables
# ---------------------------------------------------------------------------


def layer_metrics(tracer, calls: int, overhead_ms: float, other_ms: float) -> dict:
    """Per-layer metrics, each a total per train() / run_gradcheck() call.

    Op-kind times are self times; the other `_ms` metrics are inclusive span
    times (a layer with all its children).
    """
    from tracer import OP_KINDS

    totals = tracer.totals

    def total(prefix: str, field: int) -> float:
        return sum(v[field] for k, v in totals.items() if k.startswith(prefix)) / calls

    def incl_ms(name: str) -> float:
        return 1000.0 * totals.get(name, (0, 0.0))[1] / calls

    m = {}
    for g in OP_KINDS:
        m[f"autodiff.op.{g}.fwd_ms"] = (1000.0 * total(f"autodiff.op.{g}@", 2), "ms")
        m[f"autodiff.op.{g}.vjp_ms"] = (1000.0 * total(f"autodiff.vjp.{g}@", 2), "ms")
        m[f"autodiff.op.{g}.calls"] = (total(f"autodiff.op.{g}@", 0), "count")
        m[f"autodiff.op.{g}.out_mb"] = (total(f"autodiff.op.{g}@", 3) / 1e6, "MB")
    op_calls = total("autodiff.op.", 0)
    m["autodiff.op_us_mean"] = (1e6 * total("autodiff.op.", 2) / op_calls if op_calls else 0.0, "us")
    m["autodiff.conv2d_ms"] = (incl_ms("autodiff.conv2d"), "ms")
    m["autodiff.maxpool2d_ms"] = (incl_ms("autodiff.maxpool2d"), "ms")
    m["autodiff.index_mb"] = (tracer.index_bytes / 1e6 / calls, "MB")
    m["autodiff.backward_graph_ms"] = (incl_ms("autodiff.backward_graph"), "ms")
    m["autodiff.backward_plain_ms"] = (incl_ms("autodiff.backward_plain"), "ms")
    nodes = tracer.tape_nodes
    m["autodiff.tape_nodes_per_step"] = (sum(nodes) / len(nodes) if nodes else 0.0, "count")
    m["gradcheck.objective_evals"] = (totals.get("gradcheck.objective", (0,))[0] / calls, "count")
    m["gradcheck.objective_ms"] = (incl_ms("gradcheck.objective"), "ms")
    for name in ("data.augment", "data.load_sample", "heatmap.build_prior", "model.forward",
                 "model.ce", "model.checkpoint", "attribution.attribution",
                 "attribution.reduce_channels", "losses.pal_loss", "optim.adam_step",
                 "train.evaluate"):
        m[f"{name}_ms"] = (incl_ms(name), "ms")
    m["train.step_other_ms"] = (other_ms, "ms")
    m["trace.overhead_ms"] = (overhead_ms, "ms")
    return m


def print_op_table(totals: dict, per: int, title: str):
    from tracer import CONTEXTS, OP_KINDS

    if not per:
        return
    print(f"\nautodiff ops, {title} (self time; calls / ms / MB out)")
    head = "".join(f"{'op eval ' + c:>26s}" for c in CONTEXTS)
    print(f"{'kind':14s}{head}{'vjp rule (graph+plain)':>26s}")
    for g in OP_KINDS:
        cells = []
        for ctx in CONTEXTS:
            c, _, s, b = totals.get(f"autodiff.op.{g}@{ctx}", (0, 0.0, 0.0, 0))
            cells.append(f"{c / per:8.1f} {1000 * s / per:8.3f} {b / 1e6 / per:7.2f}")
        vc = sum(totals.get(f"autodiff.vjp.{g}@{ctx}", (0,))[0] for ctx in CONTEXTS[1:])
        vs = sum(totals.get(f"autodiff.vjp.{g}@{ctx}", (0, 0.0, 0.0))[2] for ctx in CONTEXTS[1:])
        print(f"{g:14s}" + "".join(f"{cell:>26s}" for cell in cells)
              + f"{vc / per:12.1f} {1000 * vs / per:12.3f}")


def print_self_times(sums: dict, count: int, uncovered_ms: float):
    layers: dict[str, float] = {}
    for name, acc in sums.items():
        key = name.split("@")[0]
        if key.startswith("autodiff.vjp."):
            key = "autodiff.vjp"
        layers[key] = layers.get(key, 0.0) + acc[2]
    print("\nself time per back-to-back training step (ms)")
    for key, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {key:34s}{1000 * s / count:10.3f}")
    print(f"  {'(outside any span)':34s}{uncovered_ms:10.3f}")


def print_phase_shares(steps, with_roadmap: bool):
    def incl(name):
        return steps.sums.get(name, (0, 0.0))[1]

    phases = {
        "forward": incl("model.forward"),
        "cross-entropy": incl("model.ce"),
        "create-graph attribution": incl("attribution.attribution"),
        "reduce channels": incl("attribution.reduce_channels"),
        "pal loss": incl("losses.pal_loss"),
        "final backward": incl("autodiff.backward_plain"),
        "adam": incl("optim.adam_step"),
        "augment": incl("data.augment"),
        "build priors": incl("heatmap.build_prior"),
    }
    phases["rest of the step"] = steps.wall_s - sum(phases.values())
    note = "   ROADMAP re-anchor (not a gate)" if with_roadmap else ""
    print(f"\nphase shares of a traced training step{note}")
    for name, s in phases.items():
        ref = ROADMAP_SHARES.get(name)
        tail = f"{ref:8.1f}%" if with_roadmap and ref is not None else ""
        print(f"  {name:28s}{1000 * s / steps.count:9.3f} ms {100 * s / steps.wall_s:6.1f}%{tail}")


def step_quantiles(quantile) -> dict:
    """Printed step-time quantiles."""
    return {f"step_ms_p{round(100 * q)}": f"{quantile(q):.3f} ms"
            for q in (0.1, 0.25, 0.5, 0.75, 0.9)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "palnet" / "__init__.py").is_file():
        print(f"palnet sources not found under {SRC}; run from a palnet checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import palnet

    if Path(palnet.__file__).resolve().parent != SRC / "palnet":
        print(f"imported palnet from {palnet.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment(args)
    print("environment:", json.dumps(env), flush=True)
    spec = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    fails = Failures()
    try:
        work.mkdir(parents=True)
        runner = run_train if spec["kind"] == "train" else run_gradcheck_workload
        metrics, info = runner(spec, args, work, fails)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print(f"\nworkload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    print(f"  failed_frac: {fails.failed}/{fails.attempted} = "
          f"{fails.failed / max(1, fails.attempted):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s}{value:14.4f} {unit}")
    result = {
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if fails.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

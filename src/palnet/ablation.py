"""Experiment grid: run (config, seed) cells and aggregate them with mean +- 1.96*sd/sqrt(n)
intervals (`*_ci95`); at n = 5 seeds that covers about 88% under a t4 model, not 95%."""

from __future__ import annotations

import csv
import os

import numpy as np

from .train import TrainConfig, RunRecord, train

ABLATION_COLUMNS = [
    "config_id", "seed", "test_acc", "attr_prior_corr", "wall_s", "status",
    "test_acc_ci95", "attr_prior_corr_ci95",
]


def run_grid(grid: list[dict], seeds: list[int], base: dict, out_dir: str) -> list[dict]:
    """One row per (config, seed); failures are recorded and the grid continues."""
    if len(seeds) < 2:
        raise ValueError("interval reporting needs at least 2 seeds")
    rows: list[dict] = []
    for cell in grid:
        for seed in seeds:
            # an invalid cell is named by its own fields
            row = {"config_id": " ".join(f"{k}={v}" for k, v in sorted(cell.items())),
                   "seed": seed, "test_acc": "", "attr_prior_corr": "", "wall_s": "",
                   "status": "ok", "test_acc_ci95": "", "attr_prior_corr_ci95": ""}
            try:
                cfg = TrainConfig.from_dict({**base, **cell, "seed": seed})
                row["config_id"] = cfg.config_id
                run_dir = os.path.join(out_dir, "runs", cfg.config_id, f"seed{seed}")
                record: RunRecord = train(cfg, run_dir)
                row.update(
                    test_acc=record.test_acc,
                    attr_prior_corr=record.test_corr,
                    wall_s=round(record.wall_s, 2),
                )
            except Exception as exc:  # keep going; the row carries the failure
                row["status"] = f"error: {exc}"
            rows.append(row)
    rows.extend(aggregate_rows(rows))
    return rows


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Mean and 1.96*sd/sqrt(n) interval (about 88% at n = 5) per config over its ok rows."""
    by_config: dict[str, list[dict]] = {}
    for row in rows:
        if row["seed"] == "aggregate" or row["status"] != "ok":
            continue
        by_config.setdefault(row["config_id"], []).append(row)
    def ci95(values: np.ndarray) -> float:
        if len(values) < 2:
            return 0.0
        return float(1.96 * values.std(ddof=1) / np.sqrt(len(values)))

    out = []
    for config_id, group in by_config.items():
        accs = np.array([r["test_acc"] for r in group], dtype=np.float64)
        corrs = np.array([r["attr_prior_corr"] for r in group], dtype=np.float64)
        out.append({
            "config_id": config_id, "seed": "aggregate",
            "test_acc": float(accs.mean()), "attr_prior_corr": float(corrs.mean()),
            "wall_s": "", "status": f"n={len(group)}",
            "test_acc_ci95": ci95(accs), "attr_prior_corr_ci95": ci95(corrs),
        })
    return out


def write_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ABLATION_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

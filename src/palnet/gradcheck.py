"""End-to-end finite-difference verification of the training objective.

Checks analytic d(total loss)/d(theta) against central differences for every
parameter group, for the plain cross-entropy objective and for both
attribution methods under all three channel strategies.  The attribution term
contains a recorded backward pass, so this exercises the second-order path.
"""

from __future__ import annotations

import time

import numpy as np

from . import autodiff as ad
from .attribution import GRAD, GRAD_INPUT, ChannelStrategy
from .heatmap import LandmarkSet, build_prior
from .model import init_params, tiny16
from .seeding import stream
from .train import loss_and_grads, training_loss

COMBOS = [("none", "all")] + [
    (m, s) for m in (GRAD, GRAD_INPUT) for s in ("all", "mean", "mean_of_half")
]


def combo_label(method: str, strategy: str) -> str:
    return "ce-only" if method == "none" else f"{method}+{strategy}"


def run_gradcheck(
    seed: int = 0,
    eps: float = 1e-5,
    threshold: float = 1e-4,
    batch: int = 2,
    pal_weight: float = 1.0,
) -> dict:
    """Returns a report dict; report["passed"] is the overall verdict."""
    t0 = time.perf_counter()
    spec = tiny16(n_classes=3)
    # the first tap keeps conv2's weights downstream of the attribution, so
    # the recorded-backward path through a convolution is actually exercised
    tap = spec.tap_names()[0]
    tap_hw = spec.tap_shapes()[tap][1:]
    h, w = spec.in_shape[1:]

    rng = stream(seed, "gradcheck")
    images = rng.uniform(0.0, 1.0, size=(batch, 1, h, w))
    labels = rng.integers(0, spec.n_classes, size=batch)
    priors = np.stack(
        [
            build_prior(LandmarkSet(rng.uniform(3.0, h - 4.0, size=(5, 2))), h, w, tap_hw)
            for _ in range(batch)
        ]
    )
    params = init_params(spec, seed)

    report: dict = {"seed": seed, "eps": eps, "threshold": threshold, "combos": {}}
    worst = 0.0
    for method, strategy_name in COMBOS:
        strategy = ChannelStrategy.parse(strategy_name)
        use_priors = priors if method != "none" else None

        _, analytic = loss_and_grads(
            spec, params, images, labels, use_priors, tap, method, strategy, pal_weight
        )

        per_param: dict[str, float] = {}
        for name, a in analytic.items():

            def objective(t):
                trial = dict(params)
                trial[name] = t.data
                # values only: the finite differences need no backward
                return training_loss(
                    spec, trial, images, labels, use_priors, tap, method, strategy, pal_weight,
                    create_graph=False,
                )[0].total

            fd = ad.finite_diff(objective, params[name], eps).data
            mask = (np.abs(a) > 1e-8) | (np.abs(fd) > 1e-8)
            if mask.any():
                rel = np.abs(a - fd)[mask] / np.maximum(np.abs(a), np.abs(fd))[mask]
                per_param[name] = float(rel.max())
            else:
                per_param[name] = 0.0

        label = combo_label(method, strategy_name)
        combo_max = max(per_param.values())
        worst = max(worst, combo_max)
        report["combos"][label] = {"per_param": per_param, "max_rel_err": combo_max}

    report["max_rel_err"] = worst
    report["elapsed_s"] = time.perf_counter() - t0
    report["passed"] = worst < threshold
    return report


def format_report(report: dict) -> str:
    lines = []
    for label, combo in report["combos"].items():
        status = "ok" if combo["max_rel_err"] < report["threshold"] else "FAIL"
        lines.append(f"{label:30s} max rel err {combo['max_rel_err']:.3e}  [{status}]")
        for name, err in sorted(combo["per_param"].items()):
            lines.append(f"    {name:20s} {err:.3e}")
    verdict = "PASSED" if report["passed"] else "FAILED"
    lines.append(
        f"overall max rel err {report['max_rel_err']:.3e} "
        f"(threshold {report['threshold']:g}) in {report['elapsed_s']:.1f}s -> {verdict}"
    )
    return "\n".join(lines)

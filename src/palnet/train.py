"""Training loop and evaluation: cross-entropy plus the attribution prior term.

One tape per step, or per chunk of `CHUNK` samples of a larger batch:
forward, cross-entropy, attribution at the tap with a recorded backward pass,
channel reduction, prior correlation loss, then a single backward over the
combined objective.  The chunks' gradients are summed, weighted by size, into
one Adam update with polynomially decayed learning rate.  The checkpoint that
maximizes validation accuracy is kept.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .attribution import (
    GRAD,
    GRAD_INPUT,
    ChannelStrategy,
    attribution,
    reduce_channels,
)
from .autodiff import Tape, Tensor
from .data import augment, load_manifest, load_sample
from .heatmap import build_prior
from .losses import pal_loss, pearson, total_loss
from .model import (
    ModelSpec,
    forward,
    get_spec,
    init_params,
    load_checkpoint,
    predictions,
    save_checkpoint,
    softmax_cross_entropy,
    write_atomic,
)
from .optim import adam_step, init_adam, poly_decay
from .seeding import stream

METHODS = (GRAD, GRAD_INPUT, "none")

# samples per chunk of a training step and of `evaluate`
CHUNK = 8

CSV_COLUMNS = [
    "config_id", "seed", "step|epoch", "ce", "pal", "total",
    "val_acc", "test_acc", "attr_prior_corr", "wall_s",
]


class TrainError(Exception):
    pass


@dataclass
class TrainConfig:
    train_manifest: str
    test_manifest: str
    model: str = "toy64"
    tap: str = "relu4"
    method: str = GRAD_INPUT          # grad | grad_input | none
    strategy: str = "mean_of_half"
    pal_weight: float = 1.0
    sigma: float = 3.0
    lr: float = 1e-3
    epochs: int = 3
    batch_size: int = 16
    total_steps: int | None = None
    decay_power: float = 1.0
    seed: int = 0
    augment: bool = True
    val_fraction: float = 0.1
    bias: bool = True
    config_id: str = ""

    def __post_init__(self):
        if self.method not in METHODS:
            raise TrainError(f"method must be one of {METHODS}, got '{self.method}'")
        for name in ("batch_size", "epochs", "total_steps"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise TrainError(f"{name} must be at least 1, got {value}")
        if not self.config_id:
            if self.method == "none":
                self.config_id = "baseline"
            else:
                strat = ChannelStrategy.parse(self.strategy).label()
                self.config_id = f"{self.method}-{strat}-{self.tap}-w{self.pal_weight:g}"

    @property
    def uses_pal(self) -> bool:
        return self.method != "none"

    @staticmethod
    def from_dict(raw: dict) -> "TrainConfig":
        """A config from a JSON object, naming any unknown or missing field."""
        declared = fields(TrainConfig)
        faults = [f"unknown field '{k}'" for k in sorted(raw.keys() - {f.name for f in declared})]
        faults += [f"missing field '{f.name}'" for f in declared
                   if f.name not in raw and f.default is MISSING]
        if faults:
            raise TrainError("config: " + ", ".join(faults))
        return TrainConfig(**raw)


@dataclass
class RunRecord:
    config_id: str
    seed: int
    steps: list = field(default_factory=list)      # per-step loss rows
    val_acc: list = field(default_factory=list)    # per-epoch validation accuracy
    best_val_acc: float = 0.0
    best_epoch: int = -1
    test_acc: float = 0.0
    test_corr: float = 0.0
    confusion: list = field(default_factory=list)
    corr_start: float = 0.0
    corr_end: float = 0.0
    wall_s: float = 0.0
    checkpoint: str = ""


# ---------------------------------------------------------------------------
# the end-to-end objective: `training_loss` records it, `loss_and_grads`
# differentiates it for the train step and the gradient checker
# ---------------------------------------------------------------------------


def training_loss(
    spec: ModelSpec,
    params: dict,
    images: np.ndarray,
    labels: np.ndarray,
    priors: np.ndarray | None,
    tap: str,
    method: str,
    strategy: ChannelStrategy,
    weight: float,
    create_graph: bool = True,
):
    """Cross-entropy plus (optionally) the attribution prior term.

    Returns (LossBreakdown, ForwardTrace).  With ``create_graph=True`` the
    breakdown's tensor is tracked on a fresh tape that records the whole
    network, attribution backward included, so callers can run backward over
    it to every parameter.  With ``create_graph=False`` only the values are
    wanted, and they keep their bits: a CE-only objective runs untracked, and
    a PAL objective records only from the tap to the logits, which is all the
    attribution's plain backward reads; cross-entropy and the total are taken
    off the tape, from the logits' values.

    The trace holds the tap of a PAL objective and no tap of a CE-only one,
    so every other relu output is freed as soon as the next block reads it.
    """
    keep = () if method == "none" else (tap,)
    with ad._fp_scope():
        if create_graph:
            trace = forward(spec, params, images, Tape(), keep_taps=keep)
        elif method == "none":
            trace = forward(spec, params, images, keep_taps=keep)
        else:
            trace = forward(spec, params, images, Tape(), grad_from=tap, keep_taps=keep)
        logits = trace.logits if create_graph else Tensor(trace.logits.data)
        ce = softmax_cross_entropy(logits, labels)
        if method == "none":
            return total_loss(ce, None, weight), trace
        amap = attribution(trace, tap, method, create_graph=create_graph)
        reduced = reduce_channels(amap, strategy)
        pal = pal_loss(reduced, priors)
        return total_loss(ce, pal, weight), trace


def loss_and_grads(spec, params, images, labels, priors, tap, method, strategy, weight):
    """The objective's (ce, pal, total) floats and its gradient per parameter name.

    The tape lives only inside this call, so a training step's tape is freed
    before the next batch is built.
    """
    breakdown, trace = training_loss(
        spec, params, images, labels, priors, tap, method, strategy, weight
    )
    names = sorted(trace.params)
    grad_list = ad.backward(breakdown.tensor, [trace.params[k] for k in names])
    grads = {k: g.data for k, g in zip(names, grad_list)}
    return (breakdown.ce, breakdown.pal, breakdown.total), grads


def step_loss_and_grads(spec, params, images, labels, priors, tap, method, strategy, weight):
    """`loss_and_grads` of a training batch, run in chunks of at most `CHUNK` samples.

    Both loss terms are per-sample means, and the attribution differentiates
    the logit sum of samples that never interact, so the batch's floats and
    gradients are its chunks' weighted by chunk size / batch size and summed.
    Only one chunk's tape lives at a time, so a step's memory does not grow
    with the batch.  A batch of `CHUNK` or fewer samples is one plain call.
    """
    n = len(images)
    if n <= CHUNK:
        return loss_and_grads(spec, params, images, labels, priors, tap, method, strategy, weight)
    floats, grads = [0.0, 0.0, 0.0], {}
    for start in range(0, n, CHUNK):
        part = slice(start, start + CHUNK)
        share = len(images[part]) / n
        chunk_floats, chunk_grads = loss_and_grads(
            spec, params, images[part], labels[part], None if priors is None else priors[part],
            tap, method, strategy, weight,
        )
        floats = [f + share * c for f, c in zip(floats, chunk_floats)]
        for k, g in chunk_grads.items():
            if k in grads:
                grads[k] += share * g
            else:
                grads[k] = share * g
    return tuple(floats), grads


def batch_priors(samples: list, tap_hw: tuple[int, int], sigma: float) -> np.ndarray:
    h, w = samples[0].image.shape
    return np.stack([build_prior(s.landmarks, h, w, tap_hw, sigma) for s in samples])


def _batch_arrays(samples: list) -> tuple[np.ndarray, np.ndarray]:
    images = np.stack([s.image for s in samples])[:, None, :, :]
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return images, labels


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(
    spec: ModelSpec,
    params: dict,
    samples: list,
    tap: str,
    method: str,
    strategy: ChannelStrategy,
    sigma: float,
    batch_size: int = CHUNK,
    with_corr: bool = True,
) -> tuple[float, np.ndarray, float]:
    """Top-1 accuracy, confusion counts, and mean per-sample attribution-prior
    correlation (computed with the given attribution settings).

    Samples are scored in chunks of `batch_size`, and the results' last bits
    can depend on it (README, Determinism)."""
    n_classes = spec.n_classes
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    correct = 0
    corrs: list[float] = []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        images, labels = _batch_arrays(chunk)
        if with_corr:
            preds, chunk_corrs = _evaluate_chunk(
                spec, params, chunk, images, tap, method, strategy, sigma
            )
            corrs.extend(chunk_corrs)
        else:
            preds = predictions(forward(spec, params, images).logits)
        correct += int((preds == labels).sum())
        for t, p in zip(labels, preds):
            confusion[t, p] += 1
    acc = correct / len(samples)
    return acc, confusion, float(np.mean(corrs)) if corrs else 0.0


def _evaluate_chunk(spec, params, chunk, images, tap, method, strategy, sigma):
    """Predictions and per-sample correlations of one chunk; its tape dies on return.

    The tape records only from the tap to the logits: the attribution's
    backward reads nothing before the tap.
    """
    trace = forward(spec, params, images, Tape(), grad_from=tap)
    amap = attribution(trace, tap, method, create_graph=False)
    reduced = reduce_channels(amap, strategy).data
    priors = batch_priors(chunk, reduced.shape[2:], sigma)
    corrs = pearson(reduced, priors[:, None]).mean(axis=1)
    return predictions(trace.logits), corrs.tolist()


def stratified_split(labels: np.ndarray, fraction: float, rng: np.random.Generator):
    """Per-class split keeping the label distribution; returns (main, held)."""
    main, held = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        n_held = max(1, int(round(len(idx) * fraction)))
        held.extend(idx[:n_held])
        main.extend(idx[n_held:])
    return np.sort(np.array(main)), np.sort(np.array(held))


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------


def _load_split(path: str) -> tuple[list, int]:
    """A split's samples and class count; the manifest and its uint8 image
    sheet are dropped on return, since every sample is already a float copy."""
    manifest = load_manifest(path)
    return [load_sample(manifest, i) for i in range(len(manifest))], manifest.n_classes


def train(config: TrainConfig, out_dir: str) -> RunRecord:
    os.makedirs(out_dir, exist_ok=True)
    t_start = time.perf_counter()

    all_train, n_classes = _load_split(config.train_manifest)
    test_samples, _ = _load_split(config.test_manifest)
    spec = get_spec(config.model, n_classes=n_classes, bias=config.bias)
    if config.tap not in spec.tap_names():  # evaluation needs the tap even for baselines
        raise TrainError(f"tap '{config.tap}' not declared by model '{config.model}'")
    strategy = ChannelStrategy.parse(config.strategy)
    tap_hw = spec.tap_shapes()[config.tap][1:]

    labels_all = np.array([s.label for s in all_train])
    train_idx, val_idx = stratified_split(
        labels_all, config.val_fraction, stream(config.seed, "valsplit")
    )
    train_samples = [all_train[i] for i in train_idx]
    val_samples = [all_train[i] for i in val_idx]

    params = init_params(spec, config.seed)
    state = init_adam(params)
    steps_per_epoch = math.ceil(len(train_samples) / config.batch_size)
    total_steps = config.total_steps or config.epochs * steps_per_epoch

    # attribution settings used for *measuring* correlation (baselines too)
    eval_method = config.method if config.uses_pal else GRAD_INPUT
    eval_tap = config.tap
    probe = val_samples[: min(32, len(val_samples))]

    record = RunRecord(config_id=config.config_id, seed=config.seed)
    _, _, record.corr_start = evaluate(
        spec, params, probe, eval_tap, eval_method, strategy, config.sigma
    )

    ckpt_path = os.path.join(out_dir, "best.ckpt")
    csv_path = os.path.join(out_dir, "metrics.csv")
    aug_rng = stream(config.seed, "augment")

    with open(csv_path, "w", newline="") as csv_file:
        writer = csv.DictWriter(csv_file, fieldnames=CSV_COLUMNS)
        writer.writeheader()

        def emit(tag, **fields):
            row = {"config_id": config.config_id, "seed": config.seed, "step|epoch": tag}
            row.update(fields)
            row["wall_s"] = round(time.perf_counter() - t_start, 3)
            writer.writerow(row)
            csv_file.flush()

        step = 0
        for epoch in range(config.epochs):
            # the epoch's first step plans the arena the later ones reuse
            workspace = ad.Workspace()
            order = stream(config.seed, "batch", epoch).permutation(len(train_samples))
            for b0 in range(0, len(order), config.batch_size):
                if step >= total_steps:
                    break
                batch = [train_samples[i] for i in order[b0 : b0 + config.batch_size]]
                if config.augment:
                    batch = [augment(s, aug_rng) for s in batch]
                images, labels = _batch_arrays(batch)
                priors = (
                    batch_priors(batch, tap_hw, config.sigma) if config.uses_pal else None
                )
                with workspace:
                    (ce, pal, total), grads = step_loss_and_grads(
                        spec, params, images, labels, priors,
                        config.tap, config.method, strategy, config.pal_weight,
                    )
                lr_t = poly_decay(config.lr, step, total_steps, config.decay_power)
                params = adam_step(params, grads, state, lr_t)
                record.steps.append(
                    {"step": step, "ce": ce, "pal": pal, "total": total, "lr": lr_t}
                )
                emit(step, ce=ce, pal=pal, total=total)
                step += 1

            workspace.close()
            val_acc, _, _ = evaluate(spec, params, val_samples, eval_tap, eval_method,
                                     strategy, config.sigma, with_corr=False)
            record.val_acc.append(val_acc)
            emit(f"epoch-{epoch}", val_acc=val_acc)
            if val_acc > record.best_val_acc or record.best_epoch < 0:
                record.best_val_acc = val_acc
                record.best_epoch = epoch
                save_checkpoint(ckpt_path, spec, params)

        _, _, record.corr_end = evaluate(
            spec, params, probe, eval_tap, eval_method, strategy, config.sigma
        )

        best_spec, best_params = load_checkpoint(ckpt_path)
        record.test_acc, confusion, record.test_corr = evaluate(
            best_spec, best_params, test_samples, eval_tap, eval_method, strategy, config.sigma
        )
        record.confusion = confusion.tolist()
        record.checkpoint = ckpt_path
        record.wall_s = time.perf_counter() - t_start
        emit("final", test_acc=record.test_acc, attr_prior_corr=record.test_corr)

    write_atomic(os.path.join(out_dir, "run.json"), [json.dumps(asdict(record), indent=1).encode()])
    return record

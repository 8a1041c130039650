"""Recording from a tap: `forward(..., grad_from=tap)` runs the blocks up to the
tap untracked and records only the tap-to-logits tail.  Evaluation, `palnet
attribute` and the value-only objective (`training_loss(...,
create_graph=False)`) use it; their results must keep the bits of the fully
recorded forward, which the reference functions below still use."""

import os

import numpy as np
import pytest

from palnet.attribution import (
    GRAD,
    GRAD_INPUT,
    ChannelStrategy,
    attribution,
    channel_slice_mean,
    export_map_pgm,
    reduce_channels,
)
from palnet.autodiff import Tape
from palnet.cli import main as cli_main
from palnet.data import (
    LandmarkSet,
    Sample,
    generate_dataset,
    load_manifest,
    load_sample,
    manifest_path,
)
from palnet.gradcheck import COMBOS
from palnet.heatmap import build_prior
from palnet.losses import pearson
from palnet.model import (
    ModelError,
    forward,
    get_spec,
    init_params,
    predictions,
    save_checkpoint,
    toy64,
)
from palnet.train import batch_priors, evaluate, training_loss

TAPS = ["relu1", "relu2", "relu3", "relu4"]
METHODS = [GRAD, GRAD_INPUT]
STRATEGIES = ["all", "mean", "mean_of_half"]


# ---------------------------------------------------------------------------
# references: the whole network recorded on the tape
# ---------------------------------------------------------------------------


def ref_evaluate(spec, params, samples, tap, method, strategy, sigma, batch_size):
    confusion = np.zeros((spec.n_classes, spec.n_classes), dtype=np.int64)
    correct, corrs = 0, []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        images = np.stack([s.image for s in chunk])[:, None, :, :]
        labels = np.array([s.label for s in chunk])
        trace = forward(spec, params, images, Tape())
        reduced = reduce_channels(attribution(trace, tap, method), strategy).data
        priors = batch_priors(chunk, reduced.shape[2:], sigma)
        corrs += [float(np.mean([pearson(reduced[i, c], priors[i])
                                 for c in range(reduced.shape[1])]))
                  for i in range(len(chunk))]
        preds = predictions(trace.logits)
        correct += int((preds == labels).sum())
        for t, p in zip(labels, preds):
            confusion[t, p] += 1
    return correct / len(samples), confusion, float(np.mean(corrs))


def ref_attribute(spec, params, samples, indices, layer, method, strategy, out):
    images = np.stack([s.image for s in samples])[:, None, :, :]
    amap = attribution(forward(spec, params, images, Tape()), layer, method)
    written = []
    if strategy.kind == "mean_of_half":
        c = amap.shape[1]
        keep = strategy.constrained(c)
        halves = ((f"{strategy.label()}-constrained", channel_slice_mean(amap, 0, keep)),
                  (f"{strategy.label()}-free", channel_slice_mean(amap, keep, c)))
        for label, reduced in halves:
            for row, idx in enumerate(indices):
                written.append(export_map_pgm(out, f"sample{idx:05d}", layer, method, label,
                                              reduced.data[row, 0]))
    else:
        reduced = reduce_channels(amap, strategy)
        for row, idx in enumerate(indices):
            for ch in range(reduced.shape[1]):
                label = (strategy.label() if reduced.shape[1] == 1
                         else f"{strategy.label()}-c{ch:02d}")
                written.append(export_map_pgm(out, f"sample{idx:05d}", layer, method, label,
                                              reduced.data[row, ch]))
    return written


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def random_samples(n, seed):
    rng = np.random.default_rng(seed)
    return [Sample(rng.uniform(size=(64, 64)), LandmarkSet(rng.uniform(8.0, 56.0, size=(5, 2))),
                   i % 7) for i in range(n)]


@pytest.fixture(scope="module")
def model():
    spec = toy64()
    return spec, init_params(spec, 4)


@pytest.fixture(scope="module")
def on_disk(model, tmp_path_factory):
    root = tmp_path_factory.mktemp("record_from_tap")
    generate_dataset(str(root / "ds"), seed=4, n=7, split="test")
    ckpt = str(root / "model.ckpt")
    save_checkpoint(ckpt, *model)
    return {"manifest": manifest_path(str(root / "ds"), "test"), "ckpt": ckpt}


# ---------------------------------------------------------------------------
# the recorded tail
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tap", TAPS)
def test_grad_from_records_only_the_tail(model, tap):
    spec, params = model
    images = np.random.default_rng(0).uniform(size=(2, 1, 64, 64))
    full_tape, tail_tape = Tape(), Tape()
    full = forward(spec, params, images, full_tape)
    tail = forward(spec, params, images, tail_tape, grad_from=tap)
    later = TAPS[TAPS.index(tap):]
    assert sorted(tail.taps) == later
    leaf = tail_tape.nodes[tail.taps[tap].node]
    assert leaf.op == "leaf"
    assert not any(t.tracked for t in tail.params.values())
    assert len(tail_tape) < len(full_tape)
    for name in later:
        assert tail.taps[name].data.tobytes() == full.taps[name].data.tobytes()
    assert tail.logits.data.tobytes() == full.logits.data.tobytes()


def test_grad_from_names_a_tap(model):
    spec, params = model
    with pytest.raises(ModelError, match="not a tap"):
        forward(spec, params, np.zeros((1, 1, 64, 64)), Tape(), grad_from="relu9")


# ---------------------------------------------------------------------------
# same bits as the fully recorded forward
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model_name,tap,method,strategy",
                         [("tiny16", "relu1", m, s) for m, s in COMBOS]
                         + [("toy64", "relu4", GRAD_INPUT, "mean_of_half")])
def test_value_only_objective_matches_full_recording(model_name, tap, method, strategy):
    spec = get_spec(model_name, n_classes=3)
    params = init_params(spec, 4)
    rng = np.random.default_rng(4)
    c, h, w = spec.in_shape
    images = rng.uniform(size=(2, c, h, w))
    tap_hw = spec.tap_shapes()[tap][1:]
    priors = None if method == "none" else np.stack(
        [build_prior(LandmarkSet(rng.uniform(3.0, h - 4.0, size=(5, 2))), h, w, tap_hw)
         for _ in range(2)])
    args = (spec, params, images, np.array([0, 2]), priors, tap, method,
            ChannelStrategy.parse(strategy), 1.0)
    full, _ = training_loss(*args)
    value, trace = training_loss(*args, create_graph=False)
    assert (value.ce, value.pal, value.total) == (full.ce, full.pal, full.total)
    if method == "none":
        assert not trace.logits.tracked
    else:
        # the tape starts at the tap's leaf: nothing before the tap is recorded
        nodes = trace.logits.tape.nodes
        assert trace.taps[tap].node == 0 and nodes[0].op == "leaf"
        # and ends at the attribution's logit sum: CE and the total are not recorded
        assert [node.op for node in nodes[trace.logits.node + 1:]] == ["sum"]


@pytest.mark.parametrize("tap", TAPS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_evaluate_matches_full_recording(model, tap, method, strategy):
    spec, params = model
    samples = random_samples(10, seed=5)          # chunks of 4, 4 and 2
    strat = ChannelStrategy.parse(strategy)
    acc, confusion, corr = evaluate(spec, params, samples, tap, method, strat, 3.0, batch_size=4)
    want_acc, want_confusion, want_corr = ref_evaluate(spec, params, samples, tap, method,
                                                       strat, 3.0, batch_size=4)
    assert acc == want_acc and corr == want_corr
    assert confusion.tobytes() == want_confusion.tobytes()


@pytest.mark.parametrize("tap", TAPS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_attribute_writes_the_same_maps(model, on_disk, tmp_path, capsys, tap, method, strategy):
    indices = [0, 2]
    rc = cli_main(["attribute", "--checkpoint", on_disk["ckpt"], "--manifest",
                   on_disk["manifest"], "--samples", "0,2", "--layer", tap, "--method", method,
                   "--strategy", strategy, "--out", str(tmp_path / "got")])
    assert rc == 0
    printed = capsys.readouterr().out.split()
    manifest = load_manifest(on_disk["manifest"])
    want = ref_attribute(*model, [load_sample(manifest, i) for i in indices], indices, tap,
                         method, ChannelStrategy.parse(strategy), str(tmp_path / "want"))
    assert [os.path.basename(p) for p in printed] == [os.path.basename(p) for p in want]
    for got_path, want_path in zip(printed, want):
        with open(got_path, "rb") as got, open(want_path, "rb") as ref:
            assert got.read() == ref.read(), os.path.basename(got_path)

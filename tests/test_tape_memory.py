"""What the tape keeps alive: only the values backward rules read, only for
one training step at a time, and in evaluation only the tap-to-logits tail."""

import importlib.util
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from palnet import autodiff as ad
from palnet.attribution import GRAD_INPUT, ChannelStrategy, attribution
from palnet.autodiff import Tape, TapeError
from palnet.data import LandmarkSet, Sample, generate_dataset, manifest_path
from palnet.heatmap import standardize_map
from palnet.model import forward, init_params, softmax_cross_entropy, toy64
from palnet.train import TrainConfig, evaluate, train, training_loss


# op kind, then any variant -> (input shapes, the public op applied to tracked
# inputs of those shapes)
_OP_CASES = {
    "add": ([(2, 3), (2, 3)], ad.add),
    "sub": ([(2, 3), (2, 3)], ad.sub),
    "mul": ([(2, 3), (2, 3)], ad.mul),
    "div": ([(2, 3), (2, 3)], ad.div),
    "neg": ([(2, 3)], ad.neg),
    "relu": ([(2, 3)], ad.relu),
    "abs": ([(2, 3)], ad.absolute),
    "exp": ([(2, 3)], ad.exp),
    "log": ([(2, 3)], ad.log),
    "sqrt": ([(2, 3)], ad.sqrt),
    "reshape": ([(2, 3)], lambda x: ad.reshape(x, (3, 2))),
    "transpose": ([(2, 3)], lambda x: ad.transpose(x, (1, 0))),
    "broadcast_to": ([(1, 3)], lambda x: ad.broadcast_to(x, (2, 3))),
    "gather": ([(2, 3)], lambda x: ad.gather(x, np.array([[5, 0], [2, 2]]))),
    "scatter_add": ([(2, 2)], lambda x: ad.scatter_add(x, np.array([[5, 0], [2, 2]]), (2, 3))),
    "sum": ([(2, 3)], lambda x: ad.reduce_sum(x, 1)),
    "matmul": ([(2, 3), (3, 4)], ad.matmul),
    "im2col": ([(2, 1, 4, 4)], lambda x: ad.im2col(x, 3, 1, 0)),
    "im2col p=1": ([(2, 1, 3, 3)], lambda x: ad.im2col(x, 3, 1, 1)),
    "col2im": ([(8, 9)], lambda cols: ad.col2im(cols, (2, 1, 4, 4), 3, 1, 0)),
    "col2im p=1": ([(18, 9)], lambda cols: ad.col2im(cols, (2, 1, 3, 3), 3, 1, 1)),
}


def test_every_op_kind_is_registered_with_its_rule():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert set(ad._OPS) == set(ad._VJP) == {case.split()[0] for case in _OP_CASES}
    # the benchmark's tracer wraps these public functions and these kinds' rules
    assert all(hasattr(ad, name) for name in tracer.OP_FUNCS)
    assert set(tracer.OP_FUNCS.values()) <= set(ad._OPS)


@pytest.mark.parametrize("create_graph", [False, True])
@pytest.mark.parametrize("case", sorted(_OP_CASES))
def test_op_keeps_exactly_the_values_its_record_names(case, create_graph):
    shapes, fn = _OP_CASES[case]
    kind = case.split()[0]
    rng = np.random.default_rng(0)
    tape = Tape()
    xs = [tape.leaf(rng.uniform(0.5, 2.0, size=shape)) for shape in shapes]
    out = fn(*xs)
    node, op = tape.nodes[out.node], ad._OPS[kind]
    assert node.op == kind
    named = {node.inputs[i] for i in op.keep_inputs} | ({out.node} if op.keep_output else set())
    assert {i for i, n in enumerate(tape.nodes) if n.value is not None} == named
    masked = {out.node} if op.keep_mask else set()
    assert {i for i, n in enumerate(tape.nodes) if n.mask is not None} == masked
    loss = ad.reduce_sum(out)
    for nid, slot in [(nid, "value") for nid in named] + [(nid, "mask") for nid in masked]:
        # every value and mask the record names is read: by tape.tensor or the
        # relu rule (TapeError) or, in the abs rule, straight off the node
        # (TypeError on None)
        kept = getattr(tape.nodes[nid], slot)
        setattr(tape.nodes[nid], slot, None)
        with pytest.raises((TapeError, TypeError)):
            ad.backward(loss, xs, create_graph=create_graph)
        setattr(tape.nodes[nid], slot, kept)
    # and a value the rule reads but the record does not name would raise here
    grads = ad.backward(loss, xs, create_graph=create_graph)
    for x, g in zip(xs, grads):
        assert g.shape == x.shape and np.isfinite(g.data).all()
        assert g.tracked == create_graph


def _conv_block_nodes(tape, relu_id):
    """Walk back from a block's relu: bias add, output transpose and reshape,
    matmul, im2col."""
    named = {"relu": tape.nodes[relu_id]}
    nid = relu_id
    for op in ("add", "transpose", "reshape", "matmul", "im2col"):
        nid = tape.nodes[nid].inputs[0]
        assert tape.nodes[nid].op == op
        named[op] = tape.nodes[nid]
    return named


def test_tape_keeps_only_values_backward_reads():
    spec = toy64()
    rng = np.random.default_rng(0)
    tape = Tape()
    trace = forward(spec, init_params(spec, 0), rng.uniform(size=(2, 1, 64, 64)), tape)
    softmax_cross_entropy(trace.logits, np.array([0, 3]))
    attribution(trace, "relu1", GRAD_INPUT, create_graph=True)
    for name in spec.tap_names():
        block = _conv_block_nodes(tape, trace.taps[name].node)
        for op in ("matmul", "add", "reshape", "transpose"):
            assert block[op].value is None, f"{name}: {op} output kept"
        assert block["im2col"].value is not None, f"{name}: im2col output dropped"
        # relu keeps its boolean mask; only grad_input's mul keeps the relu1 tap
        relu = block["relu"]
        assert relu.mask.dtype == np.bool_ and relu.mask.shape == relu.shape, name
        assert (relu.value is not None) == (name == "relu1"), f"{name}: relu output"
        assert block["matmul"].shape == (2 * relu.shape[2] * relu.shape[3], relu.shape[1])


@pytest.mark.parametrize("create_graph", [False, True])
def test_relu_gradients_hold_where_a_consumer_keeps_its_output(create_graph):
    # mul keeps relu's output in the node's value; relu's rule reads the mask
    rng = np.random.default_rng(1)
    xv = rng.normal(size=(3, 4))
    xv[0, :2] = 0.0                                  # relu'(0) = 0
    tape = Tape()
    x = tape.leaf(xv)
    r = ad.relu(x)
    loss = ad.reduce_sum(ad.mul(r, r))
    node = tape.nodes[r.node]
    assert node.value is r.data and node.mask.dtype == np.bool_
    (g,) = ad.backward(loss, [x], create_graph=create_graph)
    assert g.data.tobytes() == (2.0 * np.maximum(xv, 0.0)).tobytes()
    if create_graph:
        # second order: d/dx sum(g^2) = 8 relu(x) relu'(x)
        (h,) = ad.backward(ad.reduce_sum(ad.mul(g, g)), [x])
        assert h.data.tobytes() == (8.0 * np.maximum(xv, 0.0)).tobytes()


def _relu_outputs(monkeypatch) -> list:
    """Weak references to every relu output made from now on."""
    refs = []
    op = ad._OPS["relu"]

    def eval_relu(v, ctx):
        out = op.eval(v, ctx)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setitem(ad._OPS, "relu", op._replace(eval=eval_relu))
    return refs


@pytest.mark.parametrize("method", ["none", GRAD_INPUT])
def test_a_recorded_training_loss_holds_only_the_tap_its_objective_reads(method, monkeypatch):
    spec = toy64()
    rng = np.random.default_rng(0)
    images = rng.uniform(size=(2, 1, 64, 64))
    priors = None if method == "none" else np.stack(
        [standardize_map(rng.uniform(size=spec.tap_shapes()["relu4"][1:])) for _ in range(2)])
    refs = _relu_outputs(monkeypatch)
    breakdown, trace = training_loss(spec, init_params(spec, 0), images, np.array([0, 3]),
                                     priors, "relu4", method, ChannelStrategy("mean"), 1.0)
    # the forward makes the first four; any later relu is the objective's own
    assert len(refs) >= len(spec.tap_names())
    alive = [ref() for ref in refs if ref() is not None]
    if method == "none":
        assert trace.taps == {} and alive == []
    else:
        assert list(trace.taps) == ["relu4"]
        assert len(alive) == 1 and alive[0] is trace.taps["relu4"].data
    # the masks are enough for the backward to every parameter
    grads = ad.backward(breakdown.tensor, list(trace.params.values()))
    assert all(np.abs(g.data).max() > 0 for g in grads)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_holds_one_step_tape_at_a_time(tmp_path):
    root = str(tmp_path / "ds")
    generate_dataset(root, seed=2, n=42, split="train")
    generate_dataset(root, seed=2, n=7, split="test")
    config = TrainConfig(train_manifest=manifest_path(root, "train"),
                         test_manifest=manifest_path(root, "test"),
                         method="none", batch_size=16, epochs=1, augment=False)
    spec = toy64()
    params = init_params(spec, 0)
    images = np.random.default_rng(0).uniform(size=(16, 1, 64, 64))
    labels = np.arange(16) % spec.n_classes

    def one_step():
        breakdown, trace = training_loss(spec, params, images, labels, None, "relu4", "none",
                                         ChannelStrategy("all"), 1.0)
        ad.backward(breakdown.tensor, list(trace.params.values()))

    step_peak = _peak_bytes(one_step)
    train_peak = _peak_bytes(lambda: train(config, str(tmp_path / "run")))
    assert train_peak <= 1.2 * step_peak, (train_peak / 2**20, step_peak / 2**20)


def test_evaluate_with_attribution_peaks_like_an_untracked_forward():
    # the attribution's backward runs from the logits to relu4, so evaluation
    # records only that tail; recording the whole stack kept every conv's
    # im2col columns and every relu output, about 1.8x the forward's peak.
    # 64 samples are scored in chunks of 8, so the peak is one chunk's
    # (about 0.4x a 16-sample forward; 0.8x with chunks of 16, 3.1x with 64)
    spec = toy64()
    params = init_params(spec, 0)
    rng = np.random.default_rng(0)
    samples = [Sample(rng.uniform(size=(64, 64)), LandmarkSet(rng.uniform(8.0, 56.0, size=(5, 2))),
                      i % spec.n_classes) for i in range(64)]
    images = np.stack([s.image for s in samples[:16]])[:, None, :, :]

    forward_peak = _peak_bytes(lambda: forward(spec, params, images))
    eval_peak = _peak_bytes(lambda: evaluate(spec, params, samples, "relu4", GRAD_INPUT,
                                             ChannelStrategy.parse("mean_of_half"), 3.0))
    assert eval_peak <= 1.1 * forward_peak, (eval_peak / 2**20, forward_peak / 2**20)

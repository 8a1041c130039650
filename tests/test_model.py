"""Backbone checks: init statistics, forward semantics, losses, optimizer,
and checkpoint round trips."""

import os

import numpy as np
import numpy.testing as npt
import pytest

from palnet import autodiff as ad
from palnet.autodiff import Tape
from palnet.model import (
    ConvBlock,
    ModelError,
    ModelSpec,
    forward,
    get_spec,
    init_params,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    softmax_cross_entropy,
    tiny16,
    toy64,
)
from palnet.optim import OptimError, adam_step, init_adam, poly_decay


# ---------------------------------------------------------------------------
# spec validation and shape arithmetic
# ---------------------------------------------------------------------------


def shape_calculator(in_hw, blocks):
    """Independent conv/pool arithmetic used as the shape oracle."""
    h, w = in_hw
    shapes = []
    for blk in blocks:
        h = (h + 2 * blk.padding - blk.kernel) // blk.stride + 1
        w = (w + 2 * blk.padding - blk.kernel) // blk.stride + 1
        shapes.append((blk.out_channels, h, w))
        if blk.pool:
            h, w = (h - blk.pool) // blk.pool + 1, (w - blk.pool) // blk.pool + 1
    return shapes


def test_default_spec_taps_match_shape_oracle():
    spec = toy64()
    want = shape_calculator((64, 64), spec.blocks)
    got = [spec.tap_shapes()[name] for name in spec.tap_names()]
    assert got == want
    batch = np.zeros((2, 1, 64, 64))
    trace = forward(spec, init_params(spec, 0), batch)
    for name, (c, h, w) in zip(spec.tap_names(), want):
        assert trace.taps[name].shape == (2, c, h, w)


@pytest.mark.parametrize("tape", [None, Tape()], ids=["untracked", "recorded"])
def test_forward_holds_only_the_taps_its_caller_names(tape):
    spec = toy64()
    params = init_params(spec, 0)
    batch = np.random.default_rng(0).uniform(size=(2, 1, 64, 64))
    every = forward(spec, params, batch)
    for keep in [(), ("relu2",), ("relu4", "relu1")]:
        trace = forward(spec, params, batch, tape, keep_taps=keep)
        assert sorted(trace.taps) == sorted(keep)
        assert all(trace.taps[k].data.tobytes() == every.taps[k].data.tobytes() for k in keep)
        assert trace.logits.data.tobytes() == every.logits.data.tobytes()
    with pytest.raises(ModelError, match=r"\['relu9'\] are not taps"):
        forward(spec, params, batch, tape, keep_taps=("relu1", "relu9"))


def test_default_spec_is_small():
    assert toy64().param_count() < 200_000


@pytest.mark.parametrize("spec", [tiny16(), toy64(bias=False)])
def test_param_shapes_are_what_init_builds(spec):
    params = init_params(spec, 0)
    assert {k: v.shape for k, v in params.items()} == param_shapes(spec)
    assert spec.param_count() == sum(v.size for v in params.values())


def test_bad_specs_rejected():
    with pytest.raises(ModelError):
        ModelSpec("bad", (1, 8, 8), (ConvBlock(0),))
    with pytest.raises(ModelError):
        ModelSpec("bad", (1, 4, 4), (ConvBlock(4, pool=2), ConvBlock(4, pool=2), ConvBlock(4, pool=2)))
    with pytest.raises(ModelError):
        get_spec("resnet50")


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_deterministic_per_seed():
    spec = tiny16()
    a, b = init_params(spec, seed=5), init_params(spec, seed=5)
    for k in a:
        assert np.array_equal(a[k], b[k])
    c = init_params(spec, seed=6)
    assert any(not np.array_equal(a[k], c[k]) for k in a if k.endswith("weight"))


def test_init_variance_matches_he_scheme():
    # 3x3 kernels over 64 input channels: fan_in = 576
    spec = ModelSpec("fan", (64, 8, 8), (ConvBlock(32),), n_classes=3)
    w = init_params(spec, seed=0)["conv1.weight"]
    target = 2.0 / 576.0
    assert abs(w.var() - target) / target < 0.20
    assert abs(w.mean()) < 0.01
    npt.assert_array_equal(init_params(spec, 0)["conv1.bias"], np.zeros(32))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_zero_input_zero_bias_gives_zero_logits():
    spec = tiny16()
    params = init_params(spec, 0)
    trace = forward(spec, params, np.zeros((2, 1, 16, 16)))
    npt.assert_array_equal(trace.logits.data, np.zeros((2, 3)))


def test_identical_rows_give_identical_logits():
    spec = tiny16()
    params = init_params(spec, 1)
    img = np.random.default_rng(0).uniform(size=(1, 1, 16, 16))
    batch = np.concatenate([img, img], axis=0)
    trace = forward(spec, params, batch)
    npt.assert_array_equal(trace.logits.data[0], trace.logits.data[1])


def test_positive_homogeneity_without_biases():
    spec = tiny16(bias=False)
    params = init_params(spec, 2)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.1, 1.0, size=(1, 1, 16, 16))
    base = forward(spec, params, x).logits.data
    scaled = forward(spec, params, 2.5 * x).logits.data
    npt.assert_allclose(scaled, 2.5 * base, rtol=1e-12)


def test_forward_shape_mismatch():
    spec = tiny16()
    with pytest.raises(ModelError):
        forward(spec, init_params(spec, 0), np.zeros((1, 1, 8, 8)))


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------


def test_ce_uniform_logits_is_log_n_classes():
    logits = Tape().leaf(np.zeros((3, 7)))
    loss = softmax_cross_entropy(logits, [0, 3, 6])
    npt.assert_allclose(loss.item(), np.log(7.0), atol=1e-12)  # 1.945910...


def test_ce_saturates_at_zero_for_confident_logits():
    logits_arr = np.zeros((1, 7))
    logits_arr[0, 2] = 1000.0
    loss = softmax_cross_entropy(Tape().leaf(logits_arr), [2])
    assert loss.item() < 1e-12


def test_ce_gradient_matches_finite_diff():
    rng = np.random.default_rng(0)
    logits0 = rng.normal(size=(2, 7))
    labels = [1, 4]

    def loss(t):
        tape = Tape()
        lt = tape.leaf(t.data.reshape(2, 7))
        return softmax_cross_entropy(lt, labels)

    tape = Tape()
    lt = tape.leaf(logits0)
    (g,) = ad.backward(softmax_cross_entropy(lt, labels), [lt])
    fd = ad.finite_diff(loss, logits0.ravel()).data.reshape(2, 7)
    assert np.max(np.abs(g.data - fd) / np.maximum(np.abs(fd), 1e-3)) < 1e-6


def test_ce_rejects_bad_labels():
    logits = Tape().leaf(np.zeros((2, 7)))
    with pytest.raises(ModelError):
        softmax_cross_entropy(logits, [0, 7])


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------


def test_poly_decay_endpoints():
    assert poly_decay(5e-5, 0, 100) == 5e-5
    assert poly_decay(5e-5, 100, 100) == 0.0
    assert abs(poly_decay(1.0, 50, 100) - 0.5) < 1e-15
    with pytest.raises(OptimError):
        poly_decay(1.0, 101, 100)


def test_adam_first_step_hand_computed():
    # m_hat = v_hat = 1 after one unit-gradient step, so theta moves by ~lr
    params = {"w": np.zeros(3)}
    state = init_adam(params)
    new = adam_step(params, {"w": np.ones(3)}, state, lr=0.1)
    npt.assert_allclose(new["w"], np.full(3, -0.1 / (1.0 + 1e-8)), rtol=1e-12)
    assert state.step == 1


def test_adam_rejects_non_finite_gradients():
    params = {"w": np.zeros(2)}
    with pytest.raises(OptimError, match="non-finite"):
        adam_step(params, {"w": np.array([1.0, np.inf])}, init_adam(params), lr=0.1)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    spec = tiny16()
    params = init_params(spec, 7)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, spec, params)
    spec2, params2 = load_checkpoint(path)
    assert spec2 == spec
    assert sorted(params2) == sorted(params)
    for k in params:
        assert np.array_equal(params[k], params2[k])
    x = np.random.default_rng(0).uniform(size=(2, 1, 16, 16))
    npt.assert_array_equal(
        forward(spec, params, x).logits.data, forward(spec2, params2, x).logits.data
    )


def test_checkpoint_failure_leaves_no_partial_file(tmp_path, monkeypatch):
    spec = tiny16()
    params = init_params(spec, 0)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, spec, params)
    original = load_checkpoint(path)[1]

    def boom(src, dst):
        assert os.path.getsize(src) == os.path.getsize(path)  # the temp file was written
        raise RuntimeError("boom")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(RuntimeError, match="boom"):
        save_checkpoint(path, spec, params)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    for k, v in load_checkpoint(path)[1].items():
        assert np.array_equal(v, original[k])


def test_checkpoint_header_spec_bytes(tmp_path):
    # the spec's field order is part of the file format: same spec, same bytes
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, tiny16(), init_params(tiny16(), 0))
    with open(path, "rb") as fh:
        header = fh.readline()
    assert header.startswith(
        b'{"spec": {"name": "tiny16", "in_shape": [1, 16, 16], "blocks": ['
        b'{"out_channels": 4, "kernel": 3, "stride": 1, "padding": 1, "pool": 2}, '
        b'{"out_channels": 6, "kernel": 3, "stride": 1, "padding": 1, "pool": null}], '
        b'"n_classes": 3, "bias": true}, "entries": [{"name": "conv1.bias", "shape": [4], '
    )


def _write_raw_checkpoint(path, header_line: bytes, payload: bytes):
    with open(path, "wb") as fh:
        fh.write(header_line + payload)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, tiny16(), init_params(tiny16(), 0))
    with open(path, "ab") as fh:
        fh.write(bytes(8))
    with pytest.raises(ModelError, match="8 bytes after the last entry"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_value_rejected(tmp_path, bad):
    path = str(tmp_path / "model.ckpt")
    params = init_params(tiny16(), 0)
    save_checkpoint(path, tiny16(), params)
    with open(path, "rb") as fh:
        header_line, payload = fh.readline(), bytearray(fh.read())
    # the first entry (sorted names) is conv1.bias; poison its second value
    payload[8:16] = np.array([bad], dtype="<f8").tobytes()
    _write_raw_checkpoint(path, header_line, bytes(payload))
    with pytest.raises(ModelError, match="entry 'conv1.bias' holds NaN/Inf"):
        load_checkpoint(path)


def test_checkpoint_gap_or_short_payload_rejected(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, tiny16(), init_params(tiny16(), 0))
    with open(path, "rb") as fh:
        header_line, payload = fh.readline(), fh.read()
    _write_raw_checkpoint(path, header_line, payload[:-8])
    with pytest.raises(ModelError, match="corrupt checkpoint"):
        load_checkpoint(path)
    _write_raw_checkpoint(path, header_line.replace(b'"offset": 0', b'"offset": 8'), payload)
    with pytest.raises(ModelError, match="starts at byte 8, expected 0"):
        load_checkpoint(path)
    _write_raw_checkpoint(path, b"[]\n", payload)
    with pytest.raises(ModelError, match="corrupt checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit,match", [
    (lambda p: p.pop("conv1.bias"), "entry 'conv1.bias' has shape None"),
    (lambda p: p.update({"head.weight": p["head.weight"].T.copy()}),
     r"entry 'head.weight' has shape \(3, 384\), the spec's parameter has \(384, 3\)"),
    (lambda p: p.update({"conv3.weight": np.zeros((1, 1, 3, 3))}), "entry 'conv3.weight'"),
], ids=["missing", "misshaped", "extra"])
def test_checkpoint_entries_must_match_the_spec(tmp_path, edit, match):
    # the payload is well formed; only the entries disagree with the spec
    path = str(tmp_path / "model.ckpt")
    params = init_params(tiny16(), 0)
    edit(params)
    save_checkpoint(path, tiny16(), params)
    with pytest.raises(ModelError, match=match):
        load_checkpoint(path)

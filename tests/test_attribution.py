"""Attribution checks: gradient maps, the exact-contribution identity on
bias-free nets, channel strategies, and per-sample isolation."""

import numpy as np
import numpy.testing as npt
import pytest

from palnet import autodiff as ad
from palnet.attribution import (
    AttributionError,
    ChannelStrategy,
    GRAD,
    GRAD_INPUT,
    attribution,
    channel_slice_mean,
    reduce_channels,
)
from palnet.autodiff import Tape, Tensor
from palnet.model import ForwardTrace, forward, init_params, tiny16


def make_trace(tape, logits, taps):
    return ForwardTrace(logits=logits, taps=taps, params={})


# ---------------------------------------------------------------------------
# sum of logits
# ---------------------------------------------------------------------------


def test_sum_logits_is_per_sample():
    spec = tiny16()
    params = init_params(spec, 0)
    rng = np.random.default_rng(1)
    batch = rng.uniform(size=(2, 1, 16, 16))
    batched = forward(spec, params, batch).logits.data.sum(axis=1)
    singles = [
        forward(spec, params, batch[i : i + 1]).logits.data.sum(axis=1)[0] for i in range(2)
    ]
    npt.assert_allclose(batched, singles, rtol=1e-12)


# ---------------------------------------------------------------------------
# grad attribution
# ---------------------------------------------------------------------------


def test_identity_network_gives_all_ones():
    tape = Tape()
    x = tape.leaf(np.random.default_rng(0).normal(size=(1, 2, 3, 3)))
    logits = ad.reshape(x, (1, 18))
    amap = attribution(make_trace(tape, logits, {"t": x}), "t", GRAD)
    npt.assert_array_equal(amap.data, np.ones((1, 2, 3, 3)))


def test_single_dense_layer_column_sums():
    # logits = x @ W^T with W = [[1, -2], [3, 4]]: d(sum logits)/dx = column sums of W
    w = np.array([[1.0, -2.0], [3.0, 4.0]])
    tape = Tape()
    x = tape.leaf(np.array([[0.3, -1.2]]))
    logits = ad.matmul(x, Tensor(w.T))
    amap = attribution(make_trace(tape, logits, {"in": x}), "in", GRAD)
    npt.assert_allclose(amap.data, [[4.0, 2.0]], atol=1e-12)


def _tiny_trace(seed=0, batch=1, bias=True):
    spec = tiny16(bias=bias)
    params = init_params(spec, seed)
    rng = np.random.default_rng(seed + 100)
    images = rng.uniform(0.05, 1.0, size=(batch, 1, 16, 16))
    return spec, params, images, forward(spec, params, images, Tape())


def test_grad_attribution_matches_finite_diff_of_head():
    spec, params, images, trace = _tiny_trace()
    tap_name = spec.tap_names()[-1]
    tap_value = trace.taps[tap_name].data

    def head_sum(t):
        # recompute the layers above the tap with the tap values replaced
        flat = ad.reshape(ad.reshape(t, tap_value.shape), (1, spec.head_in_features()))
        logits = ad.add(
            ad.matmul(flat, Tensor(params["head.weight"])),
            Tensor(params["head.bias"].reshape(1, -1)),
        )
        return ad.reduce_sum(logits)

    fd = np.abs(ad.finite_diff(head_sum, tap_value.ravel()).data.reshape(tap_value.shape))
    amap = attribution(trace, tap_name, GRAD)
    npt.assert_allclose(amap.data, fd, atol=1e-6)


def test_attribution_errors():
    spec, params, images, trace = _tiny_trace()
    with pytest.raises(AttributionError, match="not a tapped"):
        attribution(trace, "relu9", GRAD)
    with pytest.raises(AttributionError, match="unknown attribution"):
        attribution(trace, "relu1", "grad_cam")


def test_attribution_non_negative_and_tracking():
    spec, params, images, trace = _tiny_trace()
    for method in ("grad", "grad_input"):
        amap = attribution(trace, "relu1", method, create_graph=False)
        assert (amap.data >= 0).all()
        assert not amap.tracked
    amap = attribution(trace, "relu1", "grad", create_graph=True)
    assert amap.tracked


# ---------------------------------------------------------------------------
# grad * input
# ---------------------------------------------------------------------------


def test_grad_input_zero_where_activation_zero():
    spec, params, images, trace = _tiny_trace(seed=2)
    tap = trace.taps["relu1"].data
    amap = attribution(trace, "relu1", GRAD_INPUT)
    assert (tap == 0).any()
    npt.assert_array_equal(amap.data[tap == 0], 0.0)


def test_grad_input_is_grad_times_activation():
    spec, params, images, trace = _tiny_trace(seed=3)
    g = attribution(trace, "relu2", GRAD).data
    gi = attribution(trace, "relu2", GRAD_INPUT).data
    npt.assert_allclose(gi, g * trace.taps["relu2"].data, atol=1e-12)


def test_signed_contribution_sums_to_logit_sum_bias_free():
    # positive homogeneity: sum of (signed grad * activation) equals sum of logits
    for seed in range(3):
        spec, params, images, trace = _tiny_trace(seed=seed, batch=2, bias=False)
        total = ad.reduce_sum(trace.logits)
        for name in spec.tap_names():
            (g,) = ad.backward(total, [trace.taps[name]])
            contribution = float((g.data * trace.taps[name].data).sum())
            npt.assert_allclose(contribution, total.item(), rtol=1e-8)


# ---------------------------------------------------------------------------
# channel strategies
# ---------------------------------------------------------------------------


def test_strategy_parse_and_validation():
    assert ChannelStrategy.parse("Mean-of-half").kind == "mean_of_half"
    assert ChannelStrategy.parse("mean_of_half:3").keep == 3
    with pytest.raises(AttributionError):
        ChannelStrategy.parse("median")
    with pytest.raises(AttributionError):
        ChannelStrategy("mean_of_half", keep=4).constrained(4)


def test_reduce_channels_mean():
    tape = Tape()
    values = tape.leaf(np.array([1.0, 3.0]).reshape(1, 2, 1, 1))
    out = reduce_channels(values, ChannelStrategy("mean"))
    npt.assert_array_equal(out.data, [[[[2.0]]]])


def test_mean_of_half_ignores_free_channels():
    rng = np.random.default_rng(0)
    base = rng.uniform(size=(1, 4, 3, 3))
    bumped = base.copy()
    bumped[0, 3] += 5.0
    strategy = ChannelStrategy("mean_of_half", keep=2)
    out_a = reduce_channels(Tensor(base), strategy).data
    out_b = reduce_channels(Tensor(bumped), strategy).data
    npt.assert_array_equal(out_a, out_b)


def test_mean_of_half_gradient_is_zero_on_free_channels():
    tape = Tape()
    values = tape.leaf(np.random.default_rng(1).uniform(size=(2, 4, 3, 3)))
    out = reduce_channels(values, ChannelStrategy("mean_of_half"))
    (g,) = ad.backward(ad.reduce_sum(ad.mul(out, out)), [values])
    assert (g.data[:, 2:] == 0.0).all()
    assert (g.data[:, :2] != 0.0).any()


def test_channel_slice_mean_range_check():
    with pytest.raises(AttributionError):
        channel_slice_mean(Tensor(np.zeros((1, 4, 2, 2))), 2, 2)


@pytest.mark.parametrize("text,match", [
    ("mean_of_half:x", "'x' is not an integer"),
    ("mean:3", "'mean' takes no channel count"),
    ("all:2", "'all' takes no channel count"),
])
def test_strategy_parse_rejects_bad_counts(text, match):
    with pytest.raises(AttributionError, match=match):
        ChannelStrategy.parse(text)


def ref_channel_slice_mean(values, start, stop):
    """The channel mean as a gather of channels [start, stop) and a reduce_mean."""
    n, c, h, w = values.shape
    if stop - start < c:
        idx = ((np.arange(n)[:, None, None, None] * c + np.arange(start, stop)[:, None, None]) * h
               + np.arange(h)[:, None]) * w + np.arange(w)
        values = ad.gather(values, idx)
    return ad.reduce_mean(values, axes=1, keepdims=True)


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("case", ["mean", "mean_of_half", "mean_of_half:2", "free_half"])
def test_masked_channel_mean_keeps_the_bits_of_a_gather(case, bias):
    # forward values and the second-order gradient that training takes through
    # a recorded attribution, against the gather formulation, bit for bit
    spec, params, images, trace = _tiny_trace(seed=8, batch=3, bias=bias)
    amap = attribution(trace, "relu2", GRAD_INPUT, create_graph=True)
    c = amap.shape[1]
    if case == "free_half":
        start, stop = ChannelStrategy.parse("mean_of_half").constrained(c), c
        got = channel_slice_mean(amap, start, stop)
    else:
        start, stop = 0, ChannelStrategy.parse(case).constrained(c)
        got = reduce_channels(amap, ChannelStrategy.parse(case))
    want = ref_channel_slice_mean(amap, start, stop)
    assert got.data.tobytes() == want.data.tobytes()

    r = np.random.default_rng(9).normal(size=got.shape)   # both signs reach the mask
    leaves = [trace.params[k] for k in sorted(trace.params)]
    for g_got, g_want in zip(ad.backward(ad.reduce_sum(ad.mul(ad.mul(got, got), r)), leaves),
                             ad.backward(ad.reduce_sum(ad.mul(ad.mul(want, want), r)), leaves)):
        assert g_got.data.tobytes() == g_want.data.tobytes()


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_grad_map_constant_within_activation_region():
    spec, params, images, trace = _tiny_trace(seed=4)
    base = attribution(trace, "relu2", GRAD).data
    nudged = forward(spec, params, images + 1e-9, Tape())
    again = attribution(nudged, "relu2", GRAD).data
    npt.assert_allclose(base, again, atol=1e-10)


def test_pre_pool_grad_attribution_is_mostly_exact_zeros():
    # relu1 feeds a 2x2 maxpool: three of four window positions get zero gradient
    spec, params, images, trace = _tiny_trace(seed=5, batch=4)
    amap = attribution(trace, "relu1", GRAD)
    frac = float((amap.data == 0.0).mean())
    assert frac >= 0.5


def test_batch_members_do_not_mix():
    spec, params, images, trace = _tiny_trace(seed=6, batch=3)
    batched = attribution(trace, "relu2", GRAD_INPUT).data
    for i in range(3):
        single_trace = forward(spec, params, images[i : i + 1], Tape())
        single = attribution(single_trace, "relu2", GRAD_INPUT).data
        npt.assert_allclose(batched[i], single[0], atol=1e-12)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_constant_map_is_mid_gray(tmp_path):
    from palnet.attribution import export_map_pgm
    from palnet.pgm import read_pgm

    path = export_map_pgm(str(tmp_path), "sample00000", "relu1", "grad", "mean",
                          np.full((8, 8), 0.37))
    img = read_pgm(path)
    assert path.endswith("sample00000_relu1_grad_mean.pgm")
    npt.assert_array_equal(img, np.full((8, 8), 128, dtype=np.uint8))

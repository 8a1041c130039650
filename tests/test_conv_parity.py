"""Convolution, padding and max-pool against the batch-wide index formulations
they replaced: same bits in every output, chosen index and adjoint; plus the
adjoint identities and finite-difference checks of first- and second-order
gradients through a padded convolution.

The reference functions below build one index table for the whole batch and
run it through gather / scatter_add, as the engine used to."""

import numpy as np
import numpy.testing as npt
import pytest

from palnet import autodiff as ad
from palnet.autodiff import ShapeError, Tape

# ---------------------------------------------------------------------------
# reference formulations (whole-batch index tables)
# ---------------------------------------------------------------------------


def ref_pad_indices(n, c, h, w, p):
    hp, wp = h + 2 * p, w + 2 * p
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    hi = np.arange(h)[None, None, :, None] + p
    wi = np.arange(w)[None, None, None, :] + p
    return (((ni * c + ci) * hp + hi) * wp + wi).ravel()


def ref_im2col_indices(n, c, hp, wp, k, s):
    oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
    ni = np.arange(n)[:, None, None, None, None, None]
    oi = np.arange(oh)[None, :, None, None, None, None] * s
    oj = np.arange(ow)[None, None, :, None, None, None] * s
    ci = np.arange(c)[None, None, None, :, None, None]
    ki = np.arange(k)[None, None, None, None, :, None]
    kj = np.arange(k)[None, None, None, None, None, :]
    idx = ((ni * c + ci) * hp + oi + ki) * wp + oj + kj
    return idx.reshape(n * oh * ow, c * k * k), oh, ow


def ref_pool_argmax(x, k, s):
    n, c, h, w = x.shape
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    ni = np.arange(n)[:, None, None, None, None, None]
    ci = np.arange(c)[None, :, None, None, None, None]
    oi = np.arange(oh)[None, None, :, None, None, None] * s
    oj = np.arange(ow)[None, None, None, :, None, None] * s
    ki = np.arange(k)[None, None, None, None, :, None]
    kj = np.arange(k)[None, None, None, None, None, :]
    win = (((ni * c + ci) * h + oi + ki) * w + oj + kj).reshape(n, c, oh, ow, k * k)
    local = np.argmax(x.ravel()[win], axis=-1)
    return np.take_along_axis(win, local[..., None], axis=-1)[..., 0]


def ref_pad(x, p):
    n, c, h, w = ad._value(x).shape
    return ad.scatter_add(x, ref_pad_indices(n, c, h, w, p), (n, c, h + 2 * p, w + 2 * p))


def ref_crop(y, p):
    n, c, hp, wp = ad._value(y).shape
    h, w = hp - 2 * p, wp - 2 * p
    return ad.reshape(ad.gather(y, ref_pad_indices(n, c, h, w, p)), (n, c, h, w))


def ref_im2col(x, k, s):
    return ad.gather(x, ref_im2col_indices(*ad._value(x).shape, k, s)[0])


def ref_col2im(cols, shape, k, s):
    return ad.scatter_add(cols, ref_im2col_indices(*shape, k, s)[0], shape)


def ref_conv2d(x, weight, bias=None, stride=1, padding=0):
    n, c, h, w = ad._value(x).shape
    o, _, k, _ = ad._value(weight).shape
    if padding > 0:
        x = ref_pad(x, padding)
    idx, oh, ow = ref_im2col_indices(n, c, h + 2 * padding, w + 2 * padding, k, stride)
    out = ad.matmul(ad.gather(x, idx), ad.transpose(ad.reshape(weight, (o, c * k * k)), (1, 0)))
    out = ad.transpose(ad.reshape(out, (n, oh, ow, o)), (0, 3, 1, 2))
    if bias is not None:
        out = ad.add(out, ad.reshape(bias, (1, o, 1, 1)))
    return out


def ref_maxpool2d(x, k, s):
    return ad.gather(x, ref_pool_argmax(ad._value(x), k, s))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def assert_same_bits(got, want):
    got, want = ad._value(got), ad._value(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def channels_last(x):
    """Same values as x, laid out NHWC in memory (the transposed matmul result that
    conv2d returns when it has no bias)."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def sample(shape, seed, layout="C", ties=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    if ties:
        x = np.round(x * 2.0) / 2.0          # many equal values in every window
    x.ravel()[:: 7] = -0.0                   # signed zeros must survive bit for bit
    return channels_last(x) if layout == "channels_last" else x


SHAPES = [(1, 2, 7, 9), (3, 2, 7, 9), (3, 1, 8, 8)]
WINDOWS = [(2, 1), (2, 2), (3, 1), (3, 2)]
LAYOUTS = ["C", "channels_last"]


# ---------------------------------------------------------------------------
# bit parity with the whole-batch formulations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k,s", WINDOWS)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("ties", [False, True])
def test_maxpool_chosen_indices_and_adjoint_match_reference(shape, k, s, layout, ties):
    x = sample(shape, seed=k * 10 + s, layout=layout, ties=ties)
    chosen = ad._pool_argmax(x, k, s)
    assert_same_bits(chosen, ref_pool_argmax(x, k, s))

    tape = Tape()
    xt = tape.leaf(x)
    pooled = ad.maxpool2d(xt, k, s)
    assert_same_bits(pooled, ref_maxpool2d(x, k, s))
    weights = sample(pooled.shape, seed=1)
    (g,) = ad.backward(ad.reduce_sum(ad.mul(pooled, weights)), [xt])
    assert_same_bits(g, ad.scatter_add(weights, ref_pool_argmax(x, k, s), x.shape))


def test_maxpool_all_ties_pick_first_window_offset():
    x = np.full((2, 3, 5, 5), 4.0)
    for k, s in WINDOWS:
        assert_same_bits(ad._pool_argmax(x, k, s), ref_pool_argmax(x, k, s))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k,s", WINDOWS)
@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_im2col_and_col2im_match_reference(shape, k, s, p, layout):
    x = sample(shape, seed=3, layout=layout)
    cols = ad.im2col(x, k, s, p)
    assert_same_bits(cols, ref_im2col(ref_pad(x, p) if p else x, k, s))
    y = sample(cols.shape, seed=4)
    n, c, h, w = shape
    got = ad.col2im(y, shape, k, s, p)
    assert got.data.flags.c_contiguous
    assert_same_bits(got, ref_crop(ref_col2im(y, (n, c, h + 2 * p, w + 2 * p), k, s), p))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_conv2d_values_and_gradients_match_reference(n, stride, padding, layout):
    x0 = sample((n, 2, 7, 9), seed=5, layout=layout)
    w0 = sample((3, 2, 3, 3), seed=6)
    b0 = sample((3,), seed=7)

    def grads(conv):
        tape = Tape()
        x, w, b = (tape.leaf(v) for v in (x0, w0, b0))
        out = conv(x, w, b, stride=stride, padding=padding)
        loss = ad.reduce_sum(ad.mul(out, out))
        gx, gw = ad.backward(loss, [x, w], create_graph=True)
        second = ad.backward(ad.reduce_sum(ad.mul(gx, gx)), [x, w, b])
        return [out, gx, gw, *second]

    for got, want in zip(grads(ad.conv2d), grads(ref_conv2d)):
        assert_same_bits(got, want)


# ---------------------------------------------------------------------------
# adjoint identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,s", WINDOWS)
@pytest.mark.parametrize("p", [0, 1, 2])
def test_im2col_col2im_adjoint_identity(k, s, p):
    shape = (3, 2, 7, 9)
    x = sample(shape, seed=10)
    cols = ad.im2col(x, k, s, p)
    y = sample(cols.shape, seed=11)
    lhs = np.vdot(cols.data, y)
    rhs = np.vdot(x, ad.col2im(y, shape, k, s, p).data)
    npt.assert_allclose(lhs, rhs, rtol=1e-12)


def test_col2im_rejects_mismatched_columns():
    with pytest.raises(ShapeError, match="col2im"):
        ad.col2im(np.ones((5, 4)), (1, 1, 4, 4), 2, 1, 0)


def test_padded_conv_records_im2col_on_its_input():
    tape = Tape()
    x = tape.leaf(np.ones((1, 2, 4, 4)))
    w = tape.leaf(np.ones((3, 2, 3, 3)))
    ad.conv2d(x, w, padding=1)
    assert [node.op for node in tape.nodes] == [
        "leaf", "leaf", "im2col", "reshape", "transpose", "matmul", "reshape", "transpose"]
    assert tape.nodes[2].inputs == (x.node,)


def test_index_tables_do_not_depend_on_batch_size():
    ad._im2col_indices.cache_clear()
    for n in (1, 3, 8):
        ad.conv2d(np.ones((n, 2, 6, 6)), np.ones((1, 2, 3, 3)), padding=1)
    assert ad._im2col_indices.cache_info().currsize == 1


@pytest.mark.parametrize("bias", [True, False])
def test_conv_block_outputs_are_c_contiguous(bias):
    # relu writes C order, so with or without a bias the tap, the relu VJP's
    # mask and max-pool's gather read contiguous memory, not the transposed
    # matmul result that conv2d returns
    rng = np.random.default_rng(14)
    tape = Tape()
    x = tape.leaf(rng.normal(size=(2, 2, 6, 6)))
    w = tape.leaf(rng.normal(size=(3, 2, 3, 3)))
    b = tape.leaf(rng.normal(size=3)) if bias else None
    out = ad.conv2d(x, w, b, padding=1)
    act = ad.relu(out)
    pooled = ad.maxpool2d(act, 2, 2)
    for t in (act, pooled):
        assert t.data.flags.c_contiguous
    (g,) = ad.backward(ad.reduce_sum(ad.mul(pooled, pooled)), [out])
    assert g.data.flags.c_contiguous


# ---------------------------------------------------------------------------
# finite differences through a padded convolution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
def test_conv2d_input_gradient_matches_finite_diff(stride, padding):
    rng = np.random.default_rng(12)
    x0 = rng.normal(size=(2, 2, 5, 6))
    w = rng.normal(size=(3, 2, 3, 3))
    r = rng.normal(size=ad.conv2d(x0, w, stride=stride, padding=padding).shape)

    def loss(xt):
        out = ad.conv2d(ad.reshape(xt, x0.shape), w, stride=stride, padding=padding)
        return ad.reduce_sum(ad.mul(ad.relu(out), r))

    tape = Tape()
    xt = tape.leaf(x0)
    (g,) = ad.backward(loss(xt), [xt])
    fd = ad.finite_diff(loss, x0.ravel()).data.reshape(x0.shape)
    npt.assert_allclose(g.data, fd, rtol=1e-6, atol=1e-8)


def test_second_order_through_padded_conv_matches_finite_diff():
    # outer(w) = sum(r2 * d/dx sum(r1 * conv(x, w)^2)); smooth, so central
    # differences are accurate, and d outer/dw runs the padded im2col/col2im
    # through their own adjoints
    rng = np.random.default_rng(13)
    x0 = rng.normal(size=(2, 2, 5, 5))
    w0 = rng.normal(size=(3, 2, 3, 3))
    r1 = rng.normal(size=(2, 3, 3, 3))
    r2 = rng.normal(size=x0.shape)

    def outer(wv):
        tape = Tape()
        x = tape.leaf(x0)
        w = tape.leaf(wv.reshape(w0.shape))
        out = ad.conv2d(x, w, stride=2, padding=1)
        inner = ad.reduce_sum(ad.mul(ad.mul(out, out), r1))
        (gx,) = ad.backward(inner, [x], create_graph=True)
        return ad.reduce_sum(ad.mul(gx, r2)), w

    value, w = outer(w0)
    (gw,) = ad.backward(value, [w])
    fd = ad.finite_diff(lambda t: outer(t.data)[0], w0.ravel()).data.reshape(w0.shape)
    npt.assert_allclose(gw.data, fd, rtol=1e-5, atol=1e-7)

"""Engine-level checks: op semantics, gradients vs finite differences,
second-order correctness, and tape invariants."""

import re
import warnings
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from palnet import autodiff as ad
from palnet.autodiff import (
    EngineError,
    NonFiniteError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
)

RNG = np.random.default_rng(1234)


def tracked(tape, arr):
    return tape.leaf(np.asarray(arr, dtype=np.float64))


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


def test_elementwise_examples():
    npt.assert_array_equal(ad.add([1.0, 2.0], [3.0, 4.0]).data, [4.0, 6.0])
    npt.assert_array_equal(ad.mul([1.0, 2.0, 3.0], 0.0).data, [0.0, 0.0, 0.0])
    npt.assert_array_equal(ad.sub([5.0], [2.0]).data, [3.0])
    with pytest.raises(EngineError, match="degenerate divisor"):
        ad.div([1.0], [0.0])


@pytest.mark.parametrize("kind", ["add", "sub", "mul", "div"])
def test_broadcast_and_shape_error(kind):
    fn = getattr(ad, kind)
    out = fn(np.ones((2, 1, 3)), np.ones((4, 1)))
    assert out.shape == (2, 4, 3)
    msg = f"{kind}: shapes (2, 3) and (4,) do not broadcast"
    with pytest.raises(ShapeError, match=re.escape(msg)):
        fn(np.ones((2, 3)), np.ones((4,)))


@pytest.mark.parametrize("numerator", [np.ones(0), np.ones(1)])
def test_div_by_empty_divisor_is_empty(numerator):
    # an empty divisor has no degenerate entry: the quotient is empty, as for add/sub/mul
    out = ad.div(numerator, np.ones(0))
    assert out.shape == (0,)


def test_broadcast_gradients_reduce_correctly():
    tape = Tape()
    a = tracked(tape, RNG.normal(size=(3, 1)))
    b = tracked(tape, RNG.normal(size=(1, 4)))
    loss = ad.reduce_sum(ad.mul(a, b))
    ga, gb = ad.backward(loss, [a, b])
    npt.assert_allclose(ga.data, np.broadcast_to(b.data.sum(axis=1), (3,))[:, None] * 0 + b.data.sum())
    npt.assert_allclose(gb.data, np.full((1, 4), 0.0) + a.data.sum())


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def conv2d_oracle(x, w, b=None, stride=1, padding=0):
    """Direct six-loop summation; deliberately naive."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for ni in range(n):
        for oi in range(o):
            for yi in range(oh):
                for xi in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(k):
                            for kj in range(k):
                                acc += (
                                    xp[ni, ci, yi * stride + ki, xi * stride + kj]
                                    * w[oi, ci, ki, kj]
                                )
                    out[ni, oi, yi, xi] = acc
            if b is not None:
                out[ni, oi] += b[oi]
    return out


def test_conv2d_counting_and_identity():
    out = ad.conv2d(np.ones((1, 1, 3, 3)), np.ones((1, 1, 2, 2)))
    npt.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))
    x = RNG.normal(size=(1, 1, 4, 4))
    ident = ad.conv2d(x, np.ones((1, 1, 1, 1)))
    npt.assert_array_equal(ident.data, x)


def test_conv2d_matches_naive_oracle():
    x = RNG.normal(size=(1, 2, 5, 5))
    w = RNG.normal(size=(3, 2, 3, 3))
    b = RNG.normal(size=3)
    for stride, padding in [(1, 0), (1, 1), (2, 1)]:
        got = ad.conv2d(x, w, b, stride=stride, padding=padding).data
        want = conv2d_oracle(x, w, b, stride=stride, padding=padding)
        npt.assert_allclose(got, want, atol=1e-12)


def test_conv2d_errors():
    with pytest.raises(ShapeError, match="channels"):
        ad.conv2d(np.ones((1, 2, 4, 4)), np.ones((1, 3, 3, 3)))
    with pytest.raises(ShapeError, match="larger than padded"):
        ad.conv2d(np.ones((1, 1, 2, 2)), np.ones((1, 1, 5, 5)))


# ---------------------------------------------------------------------------
# relu / abs / maxpool / reduce
# ---------------------------------------------------------------------------


def test_unary_examples():
    npt.assert_array_equal(ad.relu([-1.0, 0.0, 2.0]).data, [0.0, 0.0, 2.0])
    pooled = ad.maxpool2d(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), 2, 2)
    npt.assert_array_equal(pooled.data, [[[[4.0]]]])
    with pytest.raises(ShapeError, match="exceeds spatial extent"):
        ad.maxpool2d(np.ones((1, 1, 2, 2)), 3, 1)


def test_abs_backward_zero_convention():
    tape = Tape()
    x = tracked(tape, [-2.0, 0.0, 5.0])
    (g,) = ad.backward(ad.reduce_sum(ad.absolute(x)), [x])
    npt.assert_array_equal(g.data, [-1.0, 0.0, 1.0])


def test_maxpool_tie_first_occurrence():
    x = np.array([[[[7.0, 7.0], [7.0, 7.0]]]])
    tape = Tape()
    xt = tracked(tape, x)
    pooled = ad.maxpool2d(xt, 2, 2)
    (g,) = ad.backward(ad.reduce_sum(pooled), [xt])
    npt.assert_array_equal(g.data, [[[[1.0, 0.0], [0.0, 0.0]]]])


def test_reduce_kinds():
    x = np.arange(6.0).reshape(2, 3)
    npt.assert_allclose(ad.reduce_sum(x, axes=0).data, x.sum(axis=0))
    npt.assert_allclose(ad.reduce_mean(x, axes=1).data, x.mean(axis=1))


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------


def test_backward_relu_example():
    tape = Tape()
    x = tracked(tape, [-1.0, 2.0])
    (g,) = ad.backward(ad.reduce_sum(ad.relu(x)), [x])
    npt.assert_array_equal(g.data, [0.0, 1.0])
    assert not g.tracked  # create_graph=False leaves results untracked


def test_backward_second_order_hand_derived():
    # g = d/dx sum(x*x) = 2x; d/dx sum(g*g) = 8x
    tape = Tape()
    x = tracked(tape, [1.0, 3.0])
    (g,) = ad.backward(ad.reduce_sum(ad.mul(x, x)), [x], create_graph=True)
    assert g.tracked
    npt.assert_allclose(g.data, [2.0, 6.0])
    (h,) = ad.backward(ad.reduce_sum(ad.mul(g, g)), [x])
    npt.assert_allclose(h.data, [8.0, 24.0])


def test_backward_second_order_vs_finite_diff():
    x0 = RNG.normal(size=4)

    def double_loss(xv: np.ndarray) -> float:
        tape = Tape()
        x = tape.leaf(xv)
        y = ad.reduce_sum(ad.mul(ad.mul(x, x), x))  # x^3
        (g,) = ad.backward(y, [x], create_graph=True)
        return ad.reduce_sum(ad.mul(g, g)).item()

    tape = Tape()
    x = tracked(tape, x0)
    y = ad.reduce_sum(ad.mul(ad.mul(x, x), x))
    (g,) = ad.backward(y, [x], create_graph=True)
    (h,) = ad.backward(ad.reduce_sum(ad.mul(g, g)), [x])
    fd = ad.finite_diff(lambda t: double_loss(t.data), x0).data
    npt.assert_allclose(h.data, fd, rtol=1e-4)


def _signed(rng, shape):
    """Entries away from the kinks of relu and abs: 0.2 <= |x| <= 1.5."""
    return rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def _positive(rng, shape):
    return rng.uniform(0.5, 1.5, size=shape)


def _normal(rng, shape):
    return rng.normal(size=shape)


# op kind, then any variant -> (how to draw each input, the op applied to those inputs)
_SECOND_ORDER_CASES = {
    "add": (((_normal, (3, 4)), (_normal, (4,))), ad.add),
    "sub": (((_normal, (3, 4)), (_normal, (3, 1))), ad.sub),
    "mul": (((_normal, (3, 4)), (_normal, (4,))), ad.mul),
    "div": (((_normal, (3, 4)), (_positive, (3, 4))), ad.div),
    "neg": (((_normal, (5,)),), ad.neg),
    "relu": (((_signed, (12,)),), ad.relu),
    "abs": (((_signed, (12,)),), ad.absolute),
    "exp": (((_signed, (12,)),), ad.exp),
    "log": (((_positive, (12,)),), ad.log),
    "sqrt": (((_positive, (12,)),), ad.sqrt),
    "reshape": (((_normal, (3, 4)),), lambda x: ad.reshape(x, (2, 6))),
    "transpose": (((_normal, (2, 3, 4)),), lambda x: ad.transpose(x, (2, 0, 1))),
    "broadcast_to": (((_normal, (3, 1)),), lambda x: ad.broadcast_to(x, (2, 3, 4))),
    "gather": (((_normal, (3, 4)),), lambda x: ad.gather(x, np.array([[0, 5, 5], [11, 2, 7]]))),
    "scatter_add": (((_normal, (6,)),),
                    lambda x: ad.scatter_add(x, np.array([0, 2, 2, 5, 1, 0]), (3, 2))),
    "sum": (((_normal, (2, 3, 4)),), lambda x: ad.reduce_sum(x, axes=(0, 2))),
    "matmul": (((_normal, (3, 4)), (_normal, (4, 2))), ad.matmul),
    "im2col": (((_normal, (2, 2, 5, 5)),), lambda x: ad.im2col(x, 3, 2, 0)),
    "im2col p=1": (((_normal, (2, 2, 4, 4)),), lambda x: ad.im2col(x, 3, 2, 1)),
    "col2im": (((_normal, (8, 18)),), lambda x: ad.col2im(x, (2, 2, 5, 5), 3, 2, 0)),
    "col2im p=1": (((_normal, (8, 18)),), lambda x: ad.col2im(x, (2, 2, 4, 4), 3, 2, 1)),
}


@pytest.mark.parametrize("case", sorted(_SECOND_ORDER_CASES))
def test_hessian_vector_product_matches_finite_diff(case):
    # f = sum(w * op(x)^3) sends a recorded gradient through every op's VJP,
    # the linear data-movement ops' included (a square would make sqrt's f
    # linear); the recorded second backward d<grad f, v>/dx must match a
    # central difference of grad f along v
    assert {case.split()[0] for case in _SECOND_ORDER_CASES} == set(ad._OPS)
    draws, op = _SECOND_ORDER_CASES[case]
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    x0 = [draw(rng, shape) for draw, shape in draws]
    v = [rng.normal(size=x.shape) for x in x0]
    w = rng.uniform(0.5, 1.5, size=op(*x0).shape)

    def grad(arrays, create_graph=False):
        tape = Tape()
        xs = [tape.leaf(a) for a in arrays]
        y = op(*xs)
        f = ad.reduce_sum(ad.mul(w, ad.mul(ad.mul(y, y), y)))
        return xs, ad.backward(f, xs, create_graph=create_graph)

    xs, gs = grad(x0, create_graph=True)
    dot = ad.reduce_sum(ad.mul(gs[0], v[0]))
    for g, d in zip(gs[1:], v[1:]):
        dot = ad.add(dot, ad.reduce_sum(ad.mul(g, d)))
    hv = ad.backward(dot, xs)
    eps = 1e-6
    _, plus = grad([x + eps * d for x, d in zip(x0, v)])
    _, minus = grad([x - eps * d for x, d in zip(x0, v)])
    for h, p, m in zip(hv, plus, minus):
        fd = (p.data - m.data) / (2.0 * eps)
        assert np.abs(fd).max() > 0
        npt.assert_allclose(h.data, fd, rtol=1e-6, atol=1e-6)


def test_backward_preconditions():
    tape = Tape()
    x = tracked(tape, [1.0, 2.0])
    y = ad.mul(x, x)
    with pytest.raises(ShapeError, match="scalar"):
        ad.backward(y, [x])
    other = Tape().leaf([1.0])
    with pytest.raises(TapeError):
        ad.backward(ad.reduce_sum(y), [other])
    with pytest.raises(TapeError):
        ad.backward(Tensor(np.array(1.0)), [x])


def test_backward_no_path_gives_zeros():
    tape = Tape()
    x = tracked(tape, [1.0, 2.0])
    z = tracked(tape, [5.0])
    (g,) = ad.backward(ad.reduce_sum(ad.mul(x, x)), [z])
    npt.assert_array_equal(g.data, [0.0])


def test_gradient_wrt_a_plain_leaf():
    x = Tape().leaf([1.0, 2.0])
    (g,) = ad.backward(ad.reduce_sum(ad.mul(x, x)), [x])
    npt.assert_array_equal(g.data, [2.0, 4.0])


def test_gradient_wrt_forward_input_leaf_matches_finite_diff():
    from palnet.model import forward, init_params, tiny16

    spec = tiny16(n_classes=3)
    params = init_params(spec, 0)
    images = np.random.default_rng(7).uniform(size=(1, 1, 16, 16))
    tape = Tape()
    trace = forward(spec, params, images, tape)
    # forward enters the batch as the first leaf after the parameters
    node = len(params)
    assert tape.nodes[node].op == "leaf" and tape.nodes[node].shape == images.shape
    (g,) = ad.backward(ad.reduce_sum(trace.logits), [Tensor(images, tape, node)])

    def logit_sum(t):
        return ad.reduce_sum(forward(spec, params, t.data).logits)

    fd = ad.finite_diff(logit_sum, images).data
    assert np.abs(fd).max() > 0
    npt.assert_allclose(g.data, fd, rtol=1e-5, atol=1e-8)


def test_backward_runs_rules_only_on_paths_to_wrt():
    calls = []

    def counting(kind, rule):
        def counted(tape, node, out_id, g, needs):
            calls.append((kind, needs))
            return rule(tape, node, out_id, g, needs)
        return counted

    saved = dict(ad._VJP)
    try:
        for kind, rule in saved.items():
            ad._VJP[kind] = counting(kind, rule)
        tape = Tape()
        x = tracked(tape, [1.0, 2.0])
        y = tracked(tape, [3.0, 4.0])
        branch = ad.exp(ad.sqrt(y))                 # never reaches x
        out = ad.reduce_sum(ad.add(ad.mul(x, y), branch))
        (g,) = ad.backward(out, [x])
    finally:
        ad._VJP.clear()
        ad._VJP.update(saved)
    npt.assert_array_equal(g.data, [3.0, 4.0])
    assert calls == [("sum", (True,)), ("add", (True, False)), ("mul", (True, False))]


# ---------------------------------------------------------------------------
# finite_diff as oracle, and analytic-vs-oracle sweeps
# ---------------------------------------------------------------------------


def test_finite_diff_examples():
    fd = ad.finite_diff(lambda t: ad.reduce_sum(ad.mul(t, t)), np.array([3.0]))
    npt.assert_allclose(fd.data, [6.0], atol=1e-7)
    fd = ad.finite_diff(lambda t: ad.reduce_sum(ad.relu(t)), np.array([2.0]))
    npt.assert_allclose(fd.data, [1.0], atol=1e-9)
    with pytest.raises(EngineError):
        ad.finite_diff(lambda t: t, np.array([1.0]), eps=0.0)


def _square(y):
    return ad.mul(y, y)


@pytest.mark.parametrize(
    "name,fn",
    [
        ("add", lambda t, c: ad.add(t, c)),
        ("sub", lambda t, c: ad.sub(c, t)),
        ("mul", lambda t, c: ad.mul(t, c)),
        ("div", lambda t, c: ad.div(t, c)),
        ("div_by", lambda t, c: ad.div(c, t)),
        ("relu", lambda t, c: ad.relu(t)),
        ("abs", lambda t, c: ad.absolute(t)),
        ("exp", lambda t, c: ad.exp(t)),
        ("log", lambda t, c: ad.log(ad.absolute(t))),
        ("sqrt", lambda t, c: ad.sqrt(ad.absolute(t))),
        ("matmul", lambda t, c: ad.matmul(ad.reshape(t, (3, 4)) if t.ndim == 1 else t, c)),
        ("im2col", lambda t, c: _square(ad.im2col(ad.reshape(t, (1, 1, 3, 4)), 3, 2, 1))),
        ("col2im", lambda t, c: _square(ad.col2im(ad.reshape(t, (3, 4)), (1, 1, 1, 4), 2, 2, 1))),
    ],
)
def test_op_gradient_matches_finite_diff(name, fn):
    # random inputs away from kink points (|x| > 1e-3)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x0 = rng.uniform(0.2, 1.5, size=12) * rng.choice([-1.0, 1.0], size=12)
    if name == "matmul":
        c = Tensor(rng.normal(size=(4, 2)))
    else:
        c = Tensor(rng.uniform(0.5, 1.5, size=12))

    def loss(t):
        return ad.reduce_sum(fn(t, c))

    tape = Tape()
    xt = tracked(tape, x0)
    (g,) = ad.backward(loss(xt), [xt])
    fd = ad.finite_diff(loss, x0).data
    denom = np.maximum(np.abs(fd), 1.0)
    assert np.max(np.abs(g.data - fd) / denom) < 1e-6, name


def test_pool_and_gather_gradients_match_finite_diff():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(1, 2, 4, 4)) * 2.0

    def loss(t):
        return ad.reduce_sum(ad.mul(ad.maxpool2d(ad.reshape(t, (1, 2, 4, 4)), 2, 2), 3.0))

    tape = Tape()
    xt = tracked(tape, x0)
    (g,) = ad.backward(loss(xt), [xt])
    fd = ad.finite_diff(lambda t: loss(t), x0.ravel()).data.reshape(x0.shape)
    npt.assert_allclose(g.data, fd, atol=1e-6)


def test_conv2d_param_gradient_matches_finite_diff():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 2, 5, 5))
    w0 = rng.normal(size=(3, 2, 3, 3))

    def loss(wt):
        w = ad.reshape(wt, w0.shape)
        return ad.reduce_sum(ad.relu(ad.conv2d(Tensor(x), w, stride=1, padding=1)))

    tape = Tape()
    wt = tracked(tape, w0)
    out = ad.reduce_sum(ad.relu(ad.conv2d(tape.leaf(x), wt, stride=1, padding=1)))
    (g,) = ad.backward(out, [wt])
    fd = ad.finite_diff(loss, w0.ravel()).data.reshape(w0.shape)
    npt.assert_allclose(g.data, fd, rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# non-finite guards
# ---------------------------------------------------------------------------


def test_non_finite_is_an_error():
    with pytest.raises(NonFiniteError):
        ad.exp(np.array([1000.0]))
    with pytest.raises(NonFiniteError):
        ad.log(np.array([-1.0]))
    with pytest.raises(NonFiniteError):
        Tape().leaf(np.array([np.nan]))


def test_overflow_raises_named_error_without_runtime_warning():
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")  # a RuntimeWarning would surface as itself
        with pytest.raises(NonFiniteError, match="op 'exp'"):
            ad.exp(np.array([1e3]))
        with pytest.raises(NonFiniteError, match="op 'mul'"):
            ad.mul(np.array([1e200]), np.array([1e200]))


@pytest.mark.parametrize("make,match", [
    (lambda t: ad.mul(t, np.inf), "op 'mul'"),            # the op's own check comes first
    (lambda t: ad.div(t, np.inf), "leaf value contains NaN/Inf"),
    (lambda t: ad.div(t, np.full(3, np.inf)), "leaf value contains NaN/Inf"),
    (lambda t: ad.div(t, Tensor(np.full(3, -np.inf))), "leaf value contains NaN/Inf"),
], ids=["mul-float", "div-float", "div-array", "div-untracked-tensor"])
def test_non_finite_constant_of_a_recorded_op_raises(make, match):
    tape = Tape()
    t = tracked(tape, [1.0, -2.0, 3.0])
    with pytest.raises(NonFiniteError, match=match):
        make(t)
    assert len(tape) == 1


@pytest.mark.parametrize("recorded", [False, True], ids=["unrecorded", "recorded"])
def test_non_finite_constant_raises_whether_or_not_the_op_records(recorded):
    # a constant is any operand that is not a Tensor; a finite quotient does not hide it
    tape = Tape()
    numerator = tracked(tape, np.ones(3)) if recorded else np.ones(3)
    with pytest.raises(NonFiniteError, match="leaf value contains NaN/Inf"):
        ad.div(numerator, np.inf)
    with pytest.raises(NonFiniteError, match="leaf value contains NaN/Inf"):
        ad.div(numerator, np.array([1.0, -np.inf, 2.0]))
    assert len(tape) == int(recorded)
    # data movement checks its constants too
    with pytest.raises(NonFiniteError, match="leaf value contains NaN/Inf"):
        ad.reshape(np.array([1.0, -np.inf]), (2, 1))


@pytest.mark.parametrize("pos", [0, 50, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_all_finite_finds_nan_and_inf_anywhere(pos, bad):
    # as in `_apply`, under an errstate that ignores what the squares set
    with np.errstate(over="ignore", invalid="ignore"):
        for fill in (np.linspace(-1.0, 1.0, 101), np.full(101, 1e200)):
            assert ad._all_finite(fill)
            fill[pos] = bad
            assert not ad._all_finite(fill)


def test_all_finite_edge_cases():
    with np.errstate(over="ignore"):
        assert ad._all_finite(np.full(7, -1e200))     # the sum of squares overflows
    assert ad._all_finite(np.ones(0))
    assert ad._all_finite(np.array(2.0)) and not ad._all_finite(np.array(np.nan))
    assert ad._all_finite(np.float64(2.0)) and not ad._all_finite(np.float64(-np.inf))
    channels_last = np.arange(120.0).reshape(2, 3, 4, 5).transpose(0, 2, 3, 1)
    assert ad._all_finite(channels_last)
    channels_last[1, 2, 3, 0] = np.nan
    assert not ad._all_finite(channels_last)
    assert not ad._all_finite(channels_last[:, ::2])   # not contiguous in any order


def test_huge_finite_outputs_pass_without_runtime_warning():
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")  # an overflow in the check would surface as itself
        npt.assert_array_equal(ad.mul(np.full(4, 1e100), 1e100).data, np.full(4, 1e200))
        tape = Tape()
        x = tracked(tape, np.full(4, 1e100))
        (g,) = ad.backward(ad.reduce_sum(ad.mul(x, x)), [x])
        npt.assert_array_equal(g.data, np.full(4, 2e100))


@pytest.mark.parametrize("kind", ["add", "sub", "mul", "div"])
def test_boolean_constant_gives_the_bits_of_its_float_mask(kind):
    fn = getattr(ad, kind)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4))
    x[0, :2] = -0.0, 0.0
    mask = rng.random((3, 4)) < 0.5
    full = np.ones(4, dtype=bool)
    pairs = [(x, full), (mask, full)]
    if kind != "div":  # a divisor with a False entry is degenerate
        pairs += [(x, mask), (mask, x), (mask, mask)]
    for a, b in pairs:
        got = fn(a, b).data
        want = fn(*(v.astype(np.float64) if v.dtype == bool else v for v in (a, b))).data
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    if kind == "div":
        with pytest.raises(EngineError, match="degenerate divisor"):
            fn(x, mask)


def test_boolean_constant_of_other_ops_is_float():
    mask = np.array([True, False])
    npt.assert_array_equal(ad.neg(mask).data, [-1.0, -0.0])
    npt.assert_array_equal(ad.absolute(mask).data, [1.0, 0.0])
    total = ad.reduce_sum(np.array([True, True]))
    assert total.data.dtype == np.float64 and total.item() == 2.0
    assert ad.add(mask, mask).data.tolist() == [2.0, 0.0]


def _relu_vjp_float_mask(tape, node, out_id, g, needs):
    return [ad.mul(g, (tape.nodes[out_id].value > 0.0).astype(np.float64))]


def _relu_episode():
    # exact zeros in relu's input (a bias-free conv of a half-zero image) hit relu'(0) = 0
    rng = np.random.default_rng(11)
    tape = Tape()
    xv = rng.normal(size=(2, 2, 6, 6))
    xv[:, :, :3] = 0.0
    x = tape.leaf(xv)
    w = tape.leaf(rng.normal(size=(3, 2, 3, 3)))
    h = ad.relu(ad.conv2d(x, w, padding=1))
    out = ad.relu(ad.sub(ad.maxpool2d(h, 2, 2), 0.1))
    # the linear term sends a nonzero gradient to every dead unit
    c = rng.normal(size=out.shape)
    loss = ad.add(ad.reduce_sum(ad.mul(out, c)), ad.reduce_sum(ad.mul(out, ad.mul(out, out))))
    gx, gw = ad.backward(loss, [x, w], create_graph=True)
    loss2 = ad.add(ad.reduce_sum(ad.mul(gx, gx)), ad.reduce_sum(ad.mul(gw, gw)))
    return [loss.data, gx.data, gw.data] + [g.data for g in ad.backward(loss2, [x, w])]


def test_relu_gradients_match_a_float_mask_reference(monkeypatch):
    got = _relu_episode()
    monkeypatch.setitem(ad._VJP, "relu", _relu_vjp_float_mask)
    want = _relu_episode()
    assert all(np.abs(g).max() > 0 for g in want[1:])
    for g, r in zip(got, want):
        assert g.tobytes() == r.tobytes()


def _overflow_in_backward(create_graph):
    tape = Tape()
    x = tracked(tape, [1e-160])
    # 1/x is finite; its gradient -1/x^2 overflows in the div of div's VJP
    ad.backward(ad.reduce_sum(ad.div(1.0, x)), [x], create_graph=create_graph)


def _overflow_in_training_loss():
    from palnet.attribution import ChannelStrategy
    from palnet.model import init_params, tiny16
    from palnet.train import training_loss

    spec = tiny16(n_classes=3)
    params = init_params(spec, 0)
    params["head.weight"] = np.full_like(params["head.weight"], 1e308)  # logits overflow
    images = np.random.default_rng(3).uniform(size=(2, 1, 16, 16))
    training_loss(spec, params, images, np.array([0, 1]), None, "relu1", "none",
                  ChannelStrategy.parse("all"), 1.0)


@pytest.mark.parametrize("run,op", [
    (lambda: _overflow_in_backward(False), "div"),
    (lambda: _overflow_in_backward(True), "div"),
    (_overflow_in_training_loss, "matmul"),
], ids=["backward", "backward-create-graph", "training_loss"])
def test_overflow_in_one_errstate_pass_raises_named_error_without_runtime_warning(run, op):
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")  # a RuntimeWarning would surface as itself
        with pytest.raises(NonFiniteError, match=f"op '{op}'"):
            run()
        tape = Tape()
        x = tracked(tape, [1.0])
        ad.backward(ad.reduce_sum(ad.exp(x)), [x])
        # the pass's scope has exited, raising or not: a direct op enters its own errstate
        assert not ad._FP_QUIET.get()
        with pytest.raises(NonFiniteError, match="op 'exp'"):
            ad.exp(np.array([1e3]))


# every op exempt from the finite check, applied to a (4, 1, n, n) batch as an
# untracked Tensor (a non-Tensor operand is a constant, and a non-finite
# constant raises NonFiniteError)
_DATA_MOVEMENT = {
    "reshape": lambda x: ad.reshape(Tensor(x), (-1,)),
    "transpose": lambda x: ad.transpose(Tensor(x), (0, 1, 3, 2)),
    "gather": lambda x: ad.gather(Tensor(x), np.arange(x.size).reshape(x.shape)[..., ::-1]),
    "broadcast_to": lambda x: ad.broadcast_to(Tensor(x[:, :, :1]), (4, 1, 5, x.shape[3])),
    "relu": lambda x: ad.relu(Tensor(x)),
    "abs": lambda x: ad.absolute(Tensor(x)),
    "neg": lambda x: ad.neg(Tensor(x)),
    # padded, the input is added into a zeroed border
    "im2col": lambda x: (ad.im2col(Tensor(np.ascontiguousarray(x)), 3, 1, 0),
                         ad.im2col(Tensor(x), 3, 1, 2)),
}


@pytest.mark.parametrize("n", [3, 7, 33])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_data_movement_ops_raise_no_fp_error_on_non_finite_operands(n, bad):
    # these ops run outside np.errstate: they must not even set a flag
    assert set(_DATA_MOVEMENT) == {k for k, op in ad._OPS.items() if not op.check_finite}
    x = np.linspace(-3.0, 3.0, 4 * n * n).reshape(4, 1, n, n)
    x.flat[::3] = bad
    for layout in (x, x.transpose(0, 1, 3, 2)):
        for kind, fn in _DATA_MOVEMENT.items():
            with np.errstate(all="raise"):
                fn(layout)


# ---------------------------------------------------------------------------
# tape invariants
# ---------------------------------------------------------------------------


def _forward_backward_episode(seed):
    rng = np.random.default_rng(seed)
    tape = Tape()
    x = tape.leaf(rng.normal(size=(2, 3, 6, 6)))
    w = tape.leaf(rng.normal(size=(4, 3, 3, 3)))
    out = ad.maxpool2d(ad.relu(ad.conv2d(x, w, padding=1)), 2, 2)
    loss = ad.reduce_sum(ad.mul(out, out))
    gx, gw = ad.backward(loss, [x, w], create_graph=True)
    loss2 = ad.add(ad.reduce_sum(ad.absolute(gx)), ad.reduce_sum(ad.absolute(gw)))
    (g2,) = ad.backward(loss2, [w])
    return tape, loss.data, g2.data


def test_determinism_bit_identical():
    tape_a, loss_a, grad_a = _forward_backward_episode(42)
    tape_b, loss_b, grad_b = _forward_backward_episode(42)
    assert np.array_equal(loss_a, loss_b)
    assert np.array_equal(grad_a, grad_b)
    assert len(tape_a) == len(tape_b)


def test_tape_monotonic_growth_and_fresh_start():
    tape = Tape()
    counts = [len(tape)]
    x = tape.leaf(np.array([1.0, -2.0]))
    counts.append(len(tape))
    y = ad.reduce_sum(ad.relu(x))
    counts.append(len(tape))
    ad.backward(y, [x], create_graph=True)
    counts.append(len(tape))
    assert counts == sorted(counts) and counts[0] == 0
    assert len(Tape()) == 0


def test_mixed_tapes_rejected():
    a = Tape().leaf([1.0])
    b = Tape().leaf([2.0])
    with pytest.raises(TapeError):
        ad.add(a, b)


def test_value_not_kept_on_tape_raises_named_error():
    tape = Tape()
    a = tracked(tape, RNG.normal(size=(2, 3)))
    b = tracked(tape, RNG.normal(size=(3, 4)))
    out = ad.matmul(a, b)
    with pytest.raises(TapeError, match=rf"node {out.node} \('matmul'\)"):
        tape.tensor(out.node)
    npt.assert_array_equal(tape.tensor(a.node).data, a.data)  # matmul reads its inputs


def test_paused_recording_returns_untracked():
    tape = Tape()
    x = tracked(tape, [1.0, 2.0])
    with tape.paused():
        y = ad.mul(x, x)
    assert not y.tracked
    assert len(tape) == 1

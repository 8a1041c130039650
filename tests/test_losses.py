"""Loss checks: z-scoring, the correlation loss identities, and the total
objective's linearity."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from palnet import autodiff as ad
from palnet.autodiff import Tape, Tensor
from palnet.heatmap import standardize_map
from palnet.losses import LossError, pal_loss, pearson, standardize_attr, total_loss


def standardized_prior(rng, h=8, w=8):
    return standardize_map(rng.uniform(size=(h, w)))


# ---------------------------------------------------------------------------
# standardize_attr
# ---------------------------------------------------------------------------


def test_standardize_attr_zero_mean_unit_var_per_channel():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    z = standardize_attr(a).data
    assert abs(z.mean()) < 1e-12
    assert abs(z.var() - 1.0) < 1e-7  # guard shifts the scale by ~1e-8


def test_standardize_attr_constant_channel_goes_to_zero():
    a = Tensor(np.full((1, 2, 3, 3), 5.0))
    z = standardize_attr(a).data
    npt.assert_allclose(z, 0.0, atol=1e-12)


def test_standardize_attr_gradient_matches_finite_diff():
    rng = np.random.default_rng(0)
    a0 = rng.uniform(0.1, 2.0, size=(1, 2, 3, 3))
    prior = standardized_prior(rng, 3, 3)

    def loss(t):
        z = standardize_attr(ad.reshape(t, a0.shape))
        return ad.reduce_sum(ad.mul(z, Tensor(prior.reshape(1, 1, 3, 3))))

    tape = Tape()
    at = tape.leaf(a0)
    (g,) = ad.backward(loss(at), [at])
    fd = ad.finite_diff(loss, a0.ravel()).data.reshape(a0.shape)
    assert np.max(np.abs(g.data - fd) / np.maximum(np.abs(fd), 1e-3)) < 1e-6


# ---------------------------------------------------------------------------
# the correlation loss
# ---------------------------------------------------------------------------


def test_pal_perfect_match_value():
    rng = np.random.default_rng(1)
    prior = standardized_prior(rng)
    a = Tensor(prior.reshape(1, 1, 8, 8))
    loss = pal_loss(a, prior).item()
    npt.assert_allclose(loss, -64.0, atol=1e-9)


def test_pal_constant_map_is_harmless():
    rng = np.random.default_rng(2)
    prior = standardized_prior(rng)
    loss = pal_loss(Tensor(np.full((1, 1, 8, 8), 3.0)), prior).item()
    assert abs(loss) < 1e-9


def test_pal_affine_invariance():
    rng = np.random.default_rng(3)
    prior = standardized_prior(rng)
    for _ in range(25):
        a0 = rng.uniform(size=(1, 1, 8, 8))
        alpha = rng.uniform(0.05, 20.0)
        beta = rng.uniform(-5.0, 5.0)
        base = pal_loss(Tensor(a0), prior).item()
        shifted = pal_loss(Tensor(alpha * a0 + beta), prior).item()
        npt.assert_allclose(shifted, base, atol=1e-9)


def test_pal_lower_bound():
    rng = np.random.default_rng(4)
    prior = standardized_prior(rng)
    for _ in range(50):
        a = Tensor(rng.normal(size=(1, 1, 8, 8)))
        assert pal_loss(a, prior).item() >= -64.0 * (1 + 1e-6)


def test_pal_batch_linearity():
    rng = np.random.default_rng(5)
    prior = standardized_prior(rng)
    batch = rng.uniform(size=(4, 2, 8, 8))
    whole = pal_loss(Tensor(batch), prior).item()
    parts = [pal_loss(Tensor(batch[i : i + 1]), prior).item() for i in range(4)]
    npt.assert_allclose(whole, np.mean(parts), atol=1e-12)


def test_pal_preconditions():
    rng = np.random.default_rng(6)
    prior = standardized_prior(rng)
    with pytest.raises(LossError, match="resolution"):
        pal_loss(Tensor(np.zeros((1, 1, 4, 4))), prior)
    with pytest.raises(LossError, match="not standardized"):
        pal_loss(Tensor(np.zeros((1, 1, 8, 8))), prior * 3.0)


def test_pal_per_sample_prior_stack():
    rng = np.random.default_rng(7)
    priors = np.stack([standardized_prior(rng) for _ in range(3)])
    a = rng.uniform(size=(3, 1, 8, 8))
    whole = pal_loss(Tensor(a), priors).item()
    parts = [pal_loss(Tensor(a[i : i + 1]), priors[i]).item() for i in range(3)]
    npt.assert_allclose(whole, np.mean(parts), atol=1e-12)


# ---------------------------------------------------------------------------
# total objective
# ---------------------------------------------------------------------------


def test_total_loss_arithmetic_and_invariant():
    tape = Tape()
    ce = tape.leaf(np.array(1.9))
    pal = tape.leaf(np.array(-3.0))
    breakdown = total_loss(ce, pal, 1.0)
    npt.assert_allclose(breakdown.total, -1.1, atol=1e-12)
    assert abs(breakdown.total - (breakdown.ce + breakdown.weight * breakdown.pal)) < 1e-12


def test_total_loss_weight_zero_matches_ce_gradients():
    rng = np.random.default_rng(8)
    prior = standardized_prior(rng)
    tape = Tape()
    x = tape.leaf(rng.uniform(size=(1, 1, 8, 8)))
    ce = ad.reduce_sum(ad.mul(x, x))
    pal = pal_loss(ad.mul(x, 2.0), prior)
    bd = total_loss(ce, pal, 0.0)
    (g_total,) = ad.backward(bd.tensor, [x])
    tape2 = Tape()
    x2 = tape2.leaf(x.data)
    (g_ce,) = ad.backward(ad.reduce_sum(ad.mul(x2, x2)), [x2])
    npt.assert_array_equal(g_total.data, g_ce.data)


def test_total_loss_gradient_linearity():
    rng = np.random.default_rng(9)
    prior = standardized_prior(rng)
    weight = 0.7

    def grads(mode):
        tape = Tape()
        x = tape.leaf(rng0.copy())
        ce = ad.reduce_sum(ad.mul(x, x))
        pal = pal_loss(ad.exp(ad.mul(x, 0.3)), prior)
        if mode == "total":
            (g,) = ad.backward(total_loss(ce, pal, weight).tensor, [x])
        elif mode == "ce":
            (g,) = ad.backward(ce, [x])
        else:
            (g,) = ad.backward(pal, [x])
        return g.data

    rng0 = rng.uniform(size=(1, 1, 8, 8))
    combined = grads("total")
    separate = grads("ce") + weight * grads("pal")
    npt.assert_allclose(combined, separate, atol=1e-10)


def test_total_loss_rejects_non_finite():
    tape = Tape()
    ce = tape.leaf(np.array(1.0))
    with pytest.raises(Exception):
        total_loss(ce, Tensor(np.array(np.inf)), 1.0)


def test_pearson_basics():
    rng = np.random.default_rng(10)
    a = rng.normal(size=64)
    assert abs(pearson(a, a) - 1.0) < 1e-12
    assert abs(pearson(a, -a) + 1.0) < 1e-12
    assert pearson(a, np.ones(64)) == 0.0


def one_map_pearson(a, b):
    """Reference: one flattened map at a time, with no stacking or broadcasting."""
    a, b = a.ravel(), b.ravel()
    sa, sb = a.std(), b.std()
    if sa < 1e-12 or sb < 1e-12:
        return 0.0
    return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))


@pytest.mark.parametrize("channels", [1, 32])
def test_pearson_of_a_stack_has_the_bits_of_one_map_at_a_time(channels):
    rng = np.random.default_rng(channels)
    for _ in range(20):
        maps = rng.normal(size=(16, channels, 8, 8)) * rng.uniform(0.01, 100.0)
        maps[3, 0] = 0.0
        priors = rng.normal(size=(16, 8, 8))
        got = pearson(maps, priors[:, None])
        want = np.array([[one_map_pearson(maps[i, c], priors[i]) for c in range(channels)]
                         for i in range(16)])
        assert got.shape == (16, channels)
        assert got.tobytes() == want.tobytes()
        assert pearson(maps[5, 0], priors[5]) == want[5, 0]


def test_pearson_of_a_constant_map_is_zero_without_a_warning():
    rng = np.random.default_rng(11)
    maps = rng.normal(size=(2, 3, 4, 4))
    maps[1, 2] = 0.0
    maps[0, 1] = 5.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pearson(maps, rng.normal(size=(2, 1, 4, 4)))
        assert got[1, 2] == 0.0 and got[0, 1] == 0.0
        assert pearson(np.zeros((4, 4)), np.zeros((4, 4))) == 0.0

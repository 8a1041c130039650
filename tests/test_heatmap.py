"""Prior heatmap checks: the Gaussian closed form, standardization, landmark
transforms, and the separable prior at tap resolution."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from palnet.heatmap import (
    HeatmapError,
    LandmarkSet,
    build_prior,
    gaussian_heatmap,
    standardize_map,
    transform_landmarks,
)

PEAK_SIGMA3 = 0.1329807601338109  # 1 / sqrt(18 * pi)


def lms(*points):
    return LandmarkSet(np.array(points, dtype=np.float64))


# ---------------------------------------------------------------------------
# Gaussian heatmap, closed form
# ---------------------------------------------------------------------------


def gaussian_oracle(points, height, width, sigma):
    """Per-pixel evaluation with plain python math."""
    out = np.zeros((height, width))
    for i in range(height):
        for j in range(width):
            acc = 0.0
            for x, y in points:
                d2 = (i - y) ** 2 + (j - x) ** 2
                acc += math.exp(-d2 / (2 * sigma * sigma)) / math.sqrt(2 * math.pi * sigma * sigma)
            out[i, j] = acc
    return out


def test_gaussian_peak_and_falloff_values():
    m = gaussian_heatmap(lms((16, 16)), 32, 32, sigma=3.0)
    npt.assert_allclose(m[16, 16], PEAK_SIGMA3, atol=1e-12)
    # three pixels to the right: distance 3 => peak * exp(-1/2)
    npt.assert_allclose(m[16, 19], PEAK_SIGMA3 * math.exp(-0.5), atol=1e-12)


def test_gaussian_matches_pixelwise_oracle():
    points = [(3.5, 4.25), (10.0, 2.0), (7.7, 11.1)]
    got = gaussian_heatmap(lms(*points), 14, 15, sigma=3.0)
    npt.assert_allclose(got, gaussian_oracle(points, 14, 15, 3.0), atol=1e-12)


def test_gaussian_two_far_landmarks_equal_maxima():
    m = gaussian_heatmap(lms((8, 8), (40, 40)), 48, 48, sigma=3.0)
    npt.assert_allclose(m[8, 8], m[40, 40], atol=1e-12)


def test_gaussian_rejects_bad_sigma():
    with pytest.raises(HeatmapError):
        gaussian_heatmap(lms((1, 1)), 8, 8, sigma=0.0)


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------


def test_standardize_forced_values():
    m = standardize_map(np.array([[0.0, 0.0], [0.0, 2.0]]))
    assert abs(m.mean()) < 1e-15
    assert abs(m.var() - 1.0) < 1e-15


def test_standardize_idempotent():
    m = standardize_map(np.random.default_rng(0).uniform(size=(6, 6)))
    again = standardize_map(m)
    npt.assert_allclose(again, m, atol=1e-12)


def test_standardize_rejects_constant_map():
    with pytest.raises(HeatmapError, match="degenerate prior"):
        standardize_map(np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# landmark transforms
# ---------------------------------------------------------------------------


def test_flip_moves_x_across_midline():
    out = transform_landmarks(lms((10, 5)), 0.0, True, 64, 64)
    npt.assert_allclose(out.points, [[53.0, 5.0]], atol=1e-12)


def test_identity_transform():
    pts = lms((10.5, 20.25), (3, 3))
    out = transform_landmarks(pts, 0.0, False, 64, 64)
    npt.assert_array_equal(out.points, pts.points)


def test_rotation_inverts():
    pts = lms((20, 30), (40, 12), (31.5, 31.5))
    once = transform_landmarks(pts, 10.0, False, 64, 64)
    back = transform_landmarks(once, -10.0, False, 64, 64)
    npt.assert_allclose(back.points, pts.points, atol=1e-9)


def test_rotation_bound_enforced_and_points_clamped():
    with pytest.raises(HeatmapError):
        transform_landmarks(lms((1, 1)), 60.0, False, 64, 64)
    out = transform_landmarks(lms((63, 1)), 20.0, False, 64, 64)  # x rotates to about 71.5
    assert (out.points[:, 0] == 63).all() and (out.points[:, 1] >= 0).all()


def test_flip_equivariance_of_gaussian():
    points = lms((12, 7), (40, 22), (30, 50))
    flipped = transform_landmarks(points, 0.0, True, 64, 64)
    direct = gaussian_heatmap(flipped, 64, 64)
    mirrored = gaussian_heatmap(points, 64, 64)[:, ::-1]
    npt.assert_allclose(direct, mirrored, atol=1e-9)


# ---------------------------------------------------------------------------
# the prior at tap resolution
# ---------------------------------------------------------------------------


def reference_prior(points, height, width, tap_hw, sigma):
    """The full-resolution pipeline `build_prior` must agree with: render every
    pixel, standardize, block-average down to the tap, standardize again."""
    full = standardize_map(gaussian_heatmap(points, height, width, sigma))
    th, tw = tap_hw
    return standardize_map(full.reshape(th, height // th, tw, width // tw).mean(axis=(1, 3)))


EDGES = [(0.0, 0.0), (63.0, 63.0), (0.0, 63.0), (63.0, 0.0), (0.0, 31.5), (40.25, 63.0)]

# each pipeline alone lies within 9.3e-15 of a long-double render; at sigma 1
# a corner landmark's peak reaches 46, where the two differ by up to 1.6e-14
TOLERANCE = {1.0: 2e-14, 3.0: 1e-14}


@pytest.mark.parametrize("tap", [8, 16, 64])
@pytest.mark.parametrize("sigma", [1.0, 3.0])
def test_build_prior_matches_the_full_resolution_pipeline(sigma, tap):
    rng = np.random.default_rng(tap)
    sets = [rng.uniform(0.0, 63.0, size=(rng.integers(1, 13), 2)) for _ in range(25)]
    sets += [[p] for p in EDGES] + [EDGES, EDGES[:2] + [(31.5, 31.5)]]
    for points in sets:
        got = build_prior(lms(*points), 64, 64, (tap, tap), sigma)
        want = reference_prior(lms(*points), 64, 64, (tap, tap), sigma)
        assert got.shape == (tap, tap)
        assert np.abs(got - want).max() <= TOLERANCE[sigma], points


def test_build_prior_block_means():
    # block-averaging the full-resolution prior and re-standardizing gives the tap's
    points = lms((20, 20), (44, 44), (9.5, 51.25))
    full = build_prior(points, 64, 64)
    pooled = standardize_map(full.reshape(16, 4, 16, 4).mean(axis=(1, 3)))
    npt.assert_allclose(build_prior(points, 64, 64, (16, 16)), pooled, atol=1e-14)


def test_build_prior_identity_factor():
    points = lms((3.5, 4.25), (10.0, 2.0), (7.7, 11.1))
    same = build_prior(points, 14, 15, (14, 15))
    npt.assert_array_equal(same, build_prior(points, 14, 15))
    npt.assert_allclose(same, standardize_map(gaussian_heatmap(points, 14, 15)), atol=1e-14)


def test_build_prior_preserves_peak_location():
    pooled = build_prior(lms((21.0, 37.0)), 64, 64, (16, 16))
    i, j = np.unravel_index(np.argmax(pooled), pooled.shape)
    assert abs(i - 37 // 4) <= 1 and abs(j - 21 // 4) <= 1


def test_build_prior_is_standardized_at_tap_resolution():
    prior = build_prior(lms((20, 20), (44, 44)), 64, 64, tap_hw=(16, 16))
    assert prior.shape == (16, 16)
    assert abs(prior.mean()) < 1e-9
    assert abs(prior.var() - 1.0) < 1e-9


def test_build_prior_rejects_bad_sigma_factors_and_constant_maps():
    points = lms((4, 5))
    with pytest.raises(HeatmapError, match="sigma"):
        build_prior(points, 64, 64, (16, 16), sigma=0.0)
    with pytest.raises(HeatmapError, match="sigma"):
        build_prior(points, 64, 64, (16, 16), sigma=-1.0)
    with pytest.raises(HeatmapError, match="not an integer downscale"):
        build_prior(points, 10, 10, (4, 4))
    with pytest.raises(HeatmapError, match="not an integer downscale"):
        build_prior(points, 10, 10, (20, 20))                          # an upscale
    with pytest.raises(HeatmapError, match="not an integer downscale"):
        build_prior(points, 10, 10, (10, 20))
    with pytest.raises(HeatmapError, match="not an integer downscale"):
        build_prior(points, 64, 64, (0, 16))                            # was ZeroDivisionError
    with pytest.raises(HeatmapError, match="not an integer downscale"):
        build_prior(points, 64, 64, (-16, 16))                          # was a NumPy ValueError
    with pytest.raises(HeatmapError, match="degenerate prior"):
        build_prior(LandmarkSet(np.zeros((0, 2))), 64, 64, (16, 16))   # no landmarks
    with pytest.raises(HeatmapError, match="degenerate prior"):
        build_prior(points, 64, 64, (1, 1))                           # one pixel

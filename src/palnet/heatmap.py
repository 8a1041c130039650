"""Landmark heatmap priors: Gaussian rendering, standardization.

A `LandmarkSet` holds one image's keypoints; datasets store them in their
manifest (see `palnet.data`), and augmentation moves them with
`transform_landmarks`.

The Gaussian map is evaluated in closed form at every pixel (supports
sub-pixel landmark coordinates); the 1-D normalization constant 1/sqrt(2*pi*s^2)
is kept even though the map is 2-D, since standardization cancels any global
factor anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class HeatmapError(Exception):
    pass


@dataclass(frozen=True)
class LandmarkSet:
    """K points in (x, y) pixel coordinates, origin at the top-left pixel center."""

    points: np.ndarray  # (K, 2) float64

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise HeatmapError(f"landmarks must be (K, 2), got {pts.shape}")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)


def gaussian_heatmap(lms: LandmarkSet, height: int, width: int, sigma: float = 3.0) -> np.ndarray:
    """Sum of per-landmark Gaussians, closed form at every pixel; (height, width)."""
    if sigma <= 0:
        raise HeatmapError("sigma must be positive")
    rows = np.arange(height, dtype=np.float64)[:, None, None]
    cols = np.arange(width, dtype=np.float64)[None, :, None]
    xs = lms.points[:, 0][None, None, :]
    ys = lms.points[:, 1][None, None, :]
    d2 = (rows - ys) ** 2 + (cols - xs) ** 2
    norm = 1.0 / np.sqrt(2.0 * np.pi * sigma * sigma)
    return (norm * np.exp(-d2 / (2.0 * sigma * sigma))).sum(axis=2)


def standardize_map(h: np.ndarray) -> np.ndarray:
    """Zero mean, unit population variance over all pixels."""
    mean = h.mean()
    std = h.std()
    if std < 1e-30:
        raise HeatmapError("degenerate prior: constant map cannot be standardized")
    return (h - mean) / std


def transform_landmarks(
    lms: LandmarkSet, theta_deg: float, flip: bool, height: int, width: int
) -> LandmarkSet:
    """Rotate about the image center, then mirror horizontally if `flip`.

    Must stay in lockstep with the image augmentation; points pushed off the
    canvas are clamped back onto it.
    """
    if abs(theta_deg) > 45.0:
        raise HeatmapError(f"rotation {theta_deg} exceeds the +-45 degree contract")
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    t = np.deg2rad(theta_deg)
    ct, st = np.cos(t), np.sin(t)
    x, y = lms.points[:, 0] - cx, lms.points[:, 1] - cy
    xr = cx + ct * x - st * y
    yr = cy + st * x + ct * y
    if flip:
        xr = (width - 1) - xr
    return LandmarkSet(np.stack([np.clip(xr, 0.0, width - 1), np.clip(yr, 0.0, height - 1)], 1))


def build_prior(
    lms: LandmarkSet,
    height: int,
    width: int,
    tap_hw: tuple[int, int] | None = None,
    sigma: float = 3.0,
) -> np.ndarray:
    """The standardized Gaussian map, block-averaged down to `tap_hw`, standardized.

    Rendered separably, as one (th, K) @ (K, tw) product of each axis's
    block-averaged 1-D Gaussians (README, "How the loss works")."""
    if sigma <= 0:
        raise HeatmapError("sigma must be positive")
    out_h, out_w = tap_hw or (height, width)
    if height % out_h or width % out_w:     # an upscale leaves a remainder too
        raise HeatmapError(f"{(out_h, out_w)} is not an integer downscale of {(height, width)}")

    def block_means(n: int, out: int, centers: np.ndarray) -> np.ndarray:
        d2 = (np.arange(n, dtype=np.float64)[:, None] - centers) ** 2
        blocks = np.exp(-d2 / (2.0 * sigma * sigma)).reshape(out, n // out, len(centers))
        return blocks.mean(axis=1)

    rows = block_means(height, out_h, lms.points[:, 1])
    cols = block_means(width, out_w, lms.points[:, 0])
    return standardize_map(rows @ cols.T)

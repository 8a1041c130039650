"""The attribution-prior cross-correlation loss and the total objective.

The attribution map is z-scored per channel over spatial positions and dotted
against the standardized prior; maximizing that correlation means minimizing
its negative.  Dividing by the output channel count keeps the channel
strategies on comparable loss scales, and averaging over the batch makes the
value batch-size independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class LossError(Exception):
    pass


@dataclass
class LossBreakdown:
    ce: float
    pal: float
    total: float
    weight: float
    tensor: Tensor | None = None  # tracked total, used by the training step


def standardize_attr(a: Tensor) -> Tensor:
    """Per-channel z-score over spatial positions for an (N, C, H, W) map.

    The denominator is max(sigma, 1e-8): a constant channel maps to ~0 and
    contributes nothing, while a healthy channel is standardized exactly.
    """
    mu = ad.reduce_mean(a, axes=(2, 3), keepdims=True)
    centered = ad.sub(a, mu)
    var = ad.reduce_mean(ad.mul(centered, centered), axes=(2, 3), keepdims=True)
    sd = ad.sqrt(var)
    denom = ad.add(ad.relu(ad.sub(sd, 1e-8)), 1e-8)  # max(sd, 1e-8)
    return ad.div(centered, denom)


def _check_standardized(prior: np.ndarray):
    per_map = prior.reshape(prior.shape[0], -1) if prior.ndim == 3 else prior.reshape(1, -1)
    if np.abs(per_map.mean(axis=1)).max() > 1e-6 or np.abs(per_map.var(axis=1) - 1.0).max() > 1e-6:
        raise LossError("prior heatmap is not standardized")


def pal_loss(a: Tensor, prior: np.ndarray) -> Tensor:
    """Negative cross-correlation between z-scored attribution and the prior.

    `a` is (N, C_out, H, W); `prior` is a standardized (H, W) map or a per-sample
    (N, H, W) stack.  Result is averaged over batch and divided by C_out.
    """
    prior = np.asarray(prior, dtype=np.float64)
    n, c_out, h, w = a.shape
    if prior.ndim == 2:
        if prior.shape != (h, w):
            raise LossError(f"prior resolution {prior.shape} != attribution {(h, w)}")
        p = prior.reshape(1, 1, h, w)
    elif prior.ndim == 3:
        if prior.shape != (n, h, w):
            raise LossError(f"prior stack {prior.shape} != attribution {(n, h, w)}")
        p = prior.reshape(n, 1, h, w)
    else:
        raise LossError(f"prior must be 2-D or 3-D, got shape {prior.shape}")
    _check_standardized(prior)
    z = standardize_attr(a)
    return ad.mul(ad.reduce_sum(ad.mul(z, p)), -1.0 / (n * c_out))


def total_loss(ce: Tensor, pal: Tensor | None, weight: float = 1.0) -> LossBreakdown:
    """ce + weight * pal; weight defaults to 1 (plain sum of the two terms)."""
    ce_val = ce.item()
    if pal is None:
        pal_val, tensor = 0.0, ce
    else:
        pal_val = pal.item()
        tensor = ad.add(ce, ad.mul(pal, weight))
    total = tensor.item()
    for name, v in (("ce", ce_val), ("pal", pal_val), ("total", total)):
        if not np.isfinite(v):
            raise LossError(f"non-finite {name} component: {v}")
    return LossBreakdown(ce=ce_val, pal=pal_val, total=total, weight=weight, tensor=tensor)


def pearson(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """Plain correlation of (..., H, W) maps over their last two axes; 0 where
    either map is constant.

    Leading axes broadcast, and each map reduces on its own, so a stack of maps
    gives the bits of one call per map.  One map, or a 1-D vector, gives a float.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = a.reshape(a.shape[:-2] + (-1,))
    b = b.reshape(b.shape[:-2] + (-1,))
    sa, sb = a.std(axis=-1), b.std(axis=-1)
    cov = ((a - a.mean(axis=-1, keepdims=True))
           * (b - b.mean(axis=-1, keepdims=True))).mean(axis=-1)
    constant = (sa < 1e-12) | (sb < 1e-12)
    return np.divide(cov, sa * sb, out=np.zeros_like(cov), where=~constant)[()]

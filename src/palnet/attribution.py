"""Gradient-based attribution maps at a tapped feature map, kept differentiable.

Two methods: the magnitude of d(sum of logits)/d(tap), and that magnitude
multiplied elementwise by the tap activation itself.  Because the whole batch's
logit sum is differentiated at once and samples never interact inside the
network, each sample's slice of the result is its own attribution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import ForwardTrace
from .pgm import normalized_gray, write_pgm

GRAD = "grad"
GRAD_INPUT = "grad_input"


class AttributionError(Exception):
    pass


@dataclass(frozen=True)
class ChannelStrategy:
    """Which attribution channels the prior constrains."""

    kind: str                 # "all" | "mean" | "mean_of_half"
    keep: int | None = None   # constrained-channel count for mean_of_half

    def __post_init__(self):
        if self.kind not in ("all", "mean", "mean_of_half"):
            raise AttributionError(f"unknown channel strategy '{self.kind}'")
        if self.keep is not None and self.kind != "mean_of_half":
            raise AttributionError(f"channel strategy '{self.kind}' takes no channel count")

    @staticmethod
    def parse(text: str) -> "ChannelStrategy":
        text = text.strip().lower().replace("-", "_")
        if ":" in text:
            kind, count = text.split(":", 1)
            try:
                keep = int(count)
            except ValueError:
                raise AttributionError(f"channel count '{count}' is not an integer") from None
            return ChannelStrategy(kind, keep)
        return ChannelStrategy(text)

    def constrained(self, channels: int) -> int:
        """How many leading channels participate, validating the range."""
        if self.kind != "mean_of_half":
            return channels
        keep = self.keep if self.keep is not None else channels // 2
        if not 1 <= keep < channels:
            raise AttributionError(
                f"mean_of_half needs 1 <= C1 < {channels}, got {keep}"
            )
        return keep

    def label(self) -> str:
        if self.kind == "mean_of_half" and self.keep is not None:
            return f"meanhalf{self.keep}"
        return {"all": "all", "mean": "mean", "mean_of_half": "meanhalf"}[self.kind]


def attribution(trace: ForwardTrace, layer: str, method: str, create_graph: bool = False) -> Tensor:
    """|d(batch logit sum)/d(tap)|, times the tap for grad_input; (N, C, H, W)."""
    if method not in (GRAD, GRAD_INPUT):
        raise AttributionError(f"unknown attribution method '{method}'")
    if layer not in trace.taps:
        raise AttributionError(f"'{layer}' is not a tapped feature map "
                               f"(have: {sorted(trace.taps)})")
    tap = trace.taps[layer]
    (g,) = ad.backward(ad.reduce_sum(trace.logits), [tap], create_graph=create_graph)
    amap = ad.absolute(g)
    if method == GRAD_INPUT:
        # without a recorded graph the map is a constant, so the tap's values suffice
        amap = ad.mul(amap, tap if create_graph else tap.data)
    return amap


def channel_slice_mean(values: Tensor, start: int, stop: int) -> Tensor:
    """Mean over channels [start, stop), differentiable, shape (N, 1, H, W).

    Channels outside the range are zeroed by a constant mask before the sum
    over channels.  The sum adds channel by channel, and the maps are >= 0,
    so the masked zeros leave every bit of the mean as it is.
    """
    c = values.shape[1]
    if not 0 <= start < stop <= c:
        raise AttributionError(f"channel range [{start}, {stop}) invalid for C={c}")
    if stop - start < c:
        mask = np.zeros((1, c, 1, 1))
        mask[:, start:stop] = 1.0
        values = ad.mul(values, mask)
    return ad.mul(ad.reduce_sum(values, axes=1, keepdims=True), 1.0 / (stop - start))


def reduce_channels(values: Tensor, strategy: ChannelStrategy) -> Tensor:
    """Apply the channel strategy; output is (N, C_out, H, W)."""
    if strategy.kind == "all":
        return values
    return channel_slice_mean(values, 0, strategy.constrained(values.shape[1]))


def export_map_pgm(out_dir: str, sample: str, layer: str, method: str,
                   strategy_label: str, values: np.ndarray) -> str:
    """One min-max normalized 8-bit grayscale image per map."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{sample}_{layer}_{method}_{strategy_label}.pgm")
    write_pgm(path, normalized_gray(values))
    return path

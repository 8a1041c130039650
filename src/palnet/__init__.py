"""Attribution-prior training engine with its own higher-order autodiff core."""

from .autodiff import Tape, Tensor, backward, finite_diff
from .model import ModelSpec, forward, get_spec, init_params, softmax_cross_entropy
from .attribution import ChannelStrategy, attribution, reduce_channels
from .heatmap import LandmarkSet, build_prior, gaussian_heatmap, standardize_map
from .losses import LossBreakdown, pal_loss, standardize_attr, total_loss
from .train import TrainConfig, RunRecord, train, evaluate

__all__ = [
    "Tape", "Tensor", "backward", "finite_diff",
    "ModelSpec", "forward", "get_spec", "init_params", "softmax_cross_entropy",
    "ChannelStrategy", "attribution", "reduce_channels",
    "LandmarkSet", "build_prior", "gaussian_heatmap", "standardize_map",
    "LossBreakdown", "pal_loss", "standardize_attr", "total_loss",
    "TrainConfig", "RunRecord", "train", "evaluate",
]

__version__ = "0.1.0"

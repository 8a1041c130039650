"""Small configurable convolutional classifier with named feature-map taps.

Each block is conv -> relu -> optional maxpool; the post-relu map of block i
is exposed as tap ``relu{i}``.  The head flattens and applies a dense layer;
logits are pre-softmax scores.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .seeding import stream


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class ConvBlock:
    out_channels: int
    kernel: int = 3
    stride: int = 1
    padding: int = 1
    pool: int | None = None  # pooling window == stride when set


@dataclass(frozen=True)
class ModelSpec:
    name: str
    in_shape: tuple[int, int, int]  # (channels, H, W)
    blocks: tuple[ConvBlock, ...]
    n_classes: int = 7
    bias: bool = True

    def __post_init__(self):
        if not self.tap_shapes():  # validates the stack
            raise ModelError("model needs at least one block")

    def tap_names(self) -> list[str]:
        return [f"relu{i + 1}" for i in range(len(self.blocks))]

    def _walk(self) -> tuple[dict[str, tuple[int, int, int]], int]:
        """(channels, H, W) of every post-relu map and the flattened size the
        head sees, validating extents."""
        c, h, w = self.in_shape
        out: dict[str, tuple[int, int, int]] = {}
        for i, blk in enumerate(self.blocks):
            if blk.out_channels <= 0:
                raise ModelError(f"block {i + 1}: out_channels must be positive")
            h = (h + 2 * blk.padding - blk.kernel) // blk.stride + 1
            w = (w + 2 * blk.padding - blk.kernel) // blk.stride + 1
            c = blk.out_channels
            if h < 1 or w < 1:
                raise ModelError(f"block {i + 1}: spatial extent collapsed to {h}x{w}")
            out[f"relu{i + 1}"] = (c, h, w)
            if blk.pool:
                h, w = (h - blk.pool) // blk.pool + 1, (w - blk.pool) // blk.pool + 1
                if h < 1 or w < 1:
                    raise ModelError(f"block {i + 1}: pooling collapsed spatial extent")
        return out, c * h * w

    def tap_shapes(self) -> dict[str, tuple[int, int, int]]:
        """(channels, H, W) of every post-relu map, validating extents."""
        return self._walk()[0]

    def head_in_features(self) -> int:
        return self._walk()[1]

    def param_count(self) -> int:
        return sum(int(np.prod(shape)) for shape in param_shapes(self).values())


def spec_from_dict(d: dict) -> ModelSpec:
    return ModelSpec(
        name=d["name"],
        in_shape=tuple(d["in_shape"]),
        blocks=tuple(ConvBlock(**b) for b in d["blocks"]),
        n_classes=d["n_classes"],
        bias=d["bias"],
    )


def toy64(n_classes: int = 7, bias: bool = True) -> ModelSpec:
    """Default grayscale 64x64 classifier, < 200k parameters."""
    return ModelSpec(
        name="toy64",
        in_shape=(1, 64, 64),
        blocks=(
            ConvBlock(8, pool=2),
            ConvBlock(16, pool=2),
            ConvBlock(16),
            ConvBlock(32, pool=2),
        ),
        n_classes=n_classes,
        bias=bias,
    )


def tiny16(n_classes: int = 3, bias: bool = True) -> ModelSpec:
    """Two-conv 16x16 model, small enough for finite-difference sweeps."""
    return ModelSpec(
        name="tiny16",
        in_shape=(1, 16, 16),
        blocks=(ConvBlock(4, pool=2), ConvBlock(6)),
        n_classes=n_classes,
        bias=bias,
    )


_REGISTRY = {"toy64": toy64, "tiny16": tiny16}


def get_spec(name: str, **kwargs) -> ModelSpec:
    if name not in _REGISTRY:
        raise ModelError(f"unknown model spec '{name}' (have: {sorted(_REGISTRY)})")
    return _REGISTRY[name](**kwargs)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

Parameters = dict  # name -> np.ndarray, float64


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in initialization order."""
    shapes: dict[str, tuple[int, ...]] = {}
    c = spec.in_shape[0]
    for i, blk in enumerate(spec.blocks):
        shapes[f"conv{i + 1}.weight"] = (blk.out_channels, c, blk.kernel, blk.kernel)
        if spec.bias:
            shapes[f"conv{i + 1}.bias"] = (blk.out_channels,)
        c = blk.out_channels
    shapes["head.weight"] = (spec.head_in_features(), spec.n_classes)
    if spec.bias:
        shapes["head.bias"] = (spec.n_classes,)
    return shapes


def init_params(spec: ModelSpec, seed: int) -> Parameters:
    """He-normal weights (variance 2/fan_in), zero biases; per-seed deterministic."""
    params: Parameters = {}
    for name, shape in param_shapes(spec).items():
        layer, kind = name.split(".")
        if kind == "bias":
            params[name] = np.zeros(shape)
            continue
        # conv weights are (out, in, k, k); the head's are (in, out)
        fan_in = shape[0] if layer == "head" else int(np.prod(shape[1:]))
        params[name] = stream(seed, "init", layer).normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    return params


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


@dataclass
class ForwardTrace:
    logits: Tensor
    taps: dict = field(default_factory=dict)          # tap name -> post-relu Tensor
    params: dict = field(default_factory=dict)        # name -> leaf; untracked with grad_from


def forward(spec: ModelSpec, params: Parameters, batch, tape: Tape | None = None,
            grad_from: str | None = None) -> ForwardTrace:
    """Run the classifier; taps hold the exact tensors used downstream.

    With `grad_from` naming a tap, `tape` records only from that tap to the
    logits, which is all a backward from the logits to the tap reads: the
    blocks up to the tap run untracked, the tap enters the tape as a leaf,
    later parameters enter as constants, and earlier taps are not kept.  The
    values are those of the fully recorded forward, bit for bit.
    """
    batch_arr = batch.data if isinstance(batch, Tensor) else np.asarray(batch, dtype=np.float64)
    c, h, w = spec.in_shape
    if batch_arr.ndim != 4 or batch_arr.shape[1:] != (c, h, w):
        raise ModelError(f"batch shape {batch_arr.shape} does not match input {(c, h, w)}")
    if grad_from is not None and grad_from not in spec.tap_names():
        raise ModelError(f"'{grad_from}' is not a tap of '{spec.name}' "
                         f"(have: {spec.tap_names()})")

    if tape is not None and grad_from is None:
        leaves = {k: tape.leaf(v) for k, v in params.items()}
        x = tape.leaf(batch_arr)
    else:
        leaves = {k: Tensor(v) for k, v in params.items()}
        x = Tensor(batch_arr)

    taps: dict[str, Tensor] = {}
    for i, blk in enumerate(spec.blocks):
        name = f"conv{i + 1}"
        bias = leaves.get(f"{name}.bias")
        x = ad.conv2d(x, leaves[f"{name}.weight"], bias, stride=blk.stride, padding=blk.padding)
        x = ad.relu(x)
        tap = f"relu{i + 1}"
        if tap == grad_from and tape is not None:
            x = tape.leaf(x.data)
        if x.tracked or tape is None:
            taps[tap] = x
        if blk.pool:
            x = ad.maxpool2d(x, blk.pool, blk.pool)

    flat = ad.reshape(x, (batch_arr.shape[0], -1))
    logits = ad.matmul(flat, leaves["head.weight"])
    if spec.bias:
        logits = ad.add(logits, ad.reshape(leaves["head.bias"], (1, spec.n_classes)))
    return ForwardTrace(logits=logits, taps=taps, params=leaves)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-stabilized."""
    labels = np.asarray(labels, dtype=np.int64)
    n, n_classes = logits.shape
    if labels.shape != (n,):
        raise ModelError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ModelError(f"label out of range [0, {n_classes})")
    row_max = logits.data.max(axis=1, keepdims=True)  # constant shift
    shifted = ad.sub(logits, row_max)
    lse = ad.log(ad.reduce_sum(ad.exp(shifted), axes=1))
    picked = ad.gather(shifted, np.arange(n, dtype=np.int64) * n_classes + labels)
    return ad.mul(ad.reduce_sum(ad.sub(lse, picked)), 1.0 / n)


def predictions(logits: Tensor) -> np.ndarray:
    return np.argmax(logits.data, axis=1)


# ---------------------------------------------------------------------------
# checkpoints: JSON header + raw little-endian float64 payload
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, spec: ModelSpec, params: Parameters) -> None:
    """Atomic write; round trip is bit-exact."""
    entries = []
    offset = 0
    blobs = []
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    header = json.dumps({"spec": asdict(spec), "entries": entries}).encode()
    write_atomic(path, [header, b"\n", *blobs])


def write_atomic(path: str, chunks: list[bytes]) -> None:
    """Write byte chunks to a temp file beside `path`, then rename it over `path`."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> tuple[ModelSpec, Parameters]:
    """Read a checkpoint; its entries must tile the payload exactly, be finite,
    and have the names and shapes of the spec's parameters."""
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
    except FileNotFoundError:
        raise ModelError(f"checkpoint not found: {path}") from None
    try:
        header = json.loads(header_line.decode())
        spec = spec_from_dict(header["spec"])
        params: Parameters = {}
        end = 0
        for entry in header["entries"]:
            name, shape = entry["name"], tuple(entry["shape"])
            if entry["offset"] != end:
                raise ValueError(f"entry '{name}' starts at byte {entry['offset']}, expected {end}")
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            arr = np.frombuffer(payload, dtype="<f8", count=count, offset=end)
            if not np.isfinite(arr).all():
                raise ValueError(f"entry '{name}' holds NaN/Inf")
            params[name] = arr.reshape(shape).astype(np.float64)
            end += arr.nbytes
        if len(payload) != end:
            raise ValueError(f"{len(payload) - end} bytes after the last entry")
        expected = param_shapes(spec)
        for name in sorted(expected.keys() | params.keys()):
            got = params[name].shape if name in params else None
            if got != expected.get(name):
                raise ValueError(f"entry '{name}' has shape {got}, "
                                 f"the spec's parameter has {expected.get(name)}")
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ModelError(f"corrupt checkpoint {path}: {exc}") from exc
    return spec, params

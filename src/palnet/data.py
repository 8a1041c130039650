"""Synthetic keypoint-classification dataset, its on-disk format, and augmentation.

Every sample is a grayscale canvas with five face-like keypoints (two eyes,
a nose, two mouth corners).  The class is encoded *only* by small bar patterns
stamped at the eye and mouth keypoints (bar angle and single-vs-double bars,
all chosen to be invariant under the flip augmentation); distractor bars with
random orientations are scattered elsewhere, so whatever the model learns to
read, the causal evidence sits exactly at the landmark positions.

A split is two files: `{split}_images.pgm`, its n images stacked into one
(n * height, width) grayscale sheet, and `{split}_manifest.json`, which names
the sheet and holds the labels and the landmarks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .heatmap import LandmarkSet, transform_landmarks
from .pgm import read_pgm, to_unit_float, write_pgm
from .seeding import stream


class DataError(Exception):
    pass


@dataclass
class Sample:
    image: np.ndarray  # (H, W) float64 in [0, 1]
    landmarks: LandmarkSet
    label: int


@dataclass
class DatasetManifest:
    n_classes: int
    split: str
    height: int
    width: int
    n_landmarks: int
    images: np.ndarray     # (n, height, width) uint8, the sheet's rows per image
    labels: list           # n ints in [0, n_classes)
    landmarks: np.ndarray  # (n, n_landmarks, 2) float64, (x, y) per keypoint

    def __len__(self):
        return len(self.labels)


PATCH = 9          # side of the evidence patch stamped at a keypoint
BAR_HALF_LEN = 4.0
BAR_WIDTH = 0.8
BAR_GAIN = 0.9
NOISE_STD = 0.05
MIN_DISTRACTOR_GAP = 8.0


def _canonical_keypoints(height: int, width: int, count: int) -> np.ndarray:
    base = np.array(
        [
            [0.30, 0.34],  # left eye
            [0.70, 0.34],  # right eye
            [0.50, 0.53],  # nose
            [0.34, 0.72],  # left mouth corner
            [0.66, 0.72],  # right mouth corner
        ]
    )
    if count < 5:
        raise DataError("the synthetic layout needs at least 5 keypoints")
    pts = [base]
    if count > 5:
        angles = np.linspace(0, 2 * np.pi, count - 5, endpoint=False)
        ring = np.stack([0.5 + 0.42 * np.cos(angles), 0.5 + 0.42 * np.sin(angles)], axis=1)
        pts.append(ring)
    rel = np.concatenate(pts, axis=0)
    return rel * np.array([width - 1, height - 1])


def _stamp_bars(canvas: np.ndarray, bars) -> None:
    """Draw soft-edged oriented bars, each in a PATCH box, in one pass.

    `bars` holds one (cx, cy, angle in degrees, across offset) row per bar; a
    doubled bar is two rows with offsets -2 and 2.  Pixels outside the canvas
    are dropped, and overlapping bars keep their per-pixel maximum.
    """
    cx, cy, angle, off = np.array(bars, dtype=np.float64).T[:, :, None, None]
    steps = np.arange(PATCH, dtype=np.float64) - PATCH // 2
    ii = np.rint(cy) + steps[:, None]  # (n, PATCH, 1) canvas rows
    jj = np.rint(cx) + steps  # (n, 1, PATCH) canvas columns
    t = np.deg2rad(angle)
    cos, sin = np.cos(t), np.sin(t)
    dx, dy = jj - cx, ii - cy
    along = dx * cos + dy * sin
    across = -dx * sin + dy * cos
    profile = (
        BAR_GAIN
        * np.exp(-(((across - off) / BAR_WIDTH) ** 2))
        * (np.abs(along) <= BAR_HALF_LEN)
    )
    h, w = canvas.shape
    inside = (ii >= 0) & (ii < h) & (jj >= 0) & (jj < w)
    pixels = (ii * w + jj).astype(np.intp)
    np.maximum.at(canvas.reshape(-1), pixels[inside], profile[inside])


def _class_pattern(label: int) -> tuple[float, float, bool]:
    """(eye angle, mouth angle, eye bar doubled) for a class label.

    Every attribute must survive the flip augmentation: a horizontal flip maps
    angle t to 180 - t (so only 0 and 90 are usable) and swaps the left/right
    keypoints of a pair (so both eyes carry the same pattern).  Three binary
    attributes give 8 >= n_classes combinations, and +-10 degree rotations
    never cross an attribute boundary.
    """
    return (label & 1) * 90.0, (label >> 1 & 1) * 90.0, bool(label >> 2 & 1)


def render_sample(seed: int, index: int, label: int, n_classes: int,
                  height: int, width: int, n_landmarks: int) -> Sample:
    """Pure function of (seed, index); the generator and tests share it."""
    rng = stream(seed, "sample", index)
    if height < 4 * PATCH or width < 4 * PATCH:
        raise DataError(f"canvas {height}x{width} too small for {PATCH}x{PATCH} patches")
    points = _canonical_keypoints(height, width, n_landmarks)
    points = points + rng.uniform(-2.0, 2.0, size=points.shape)
    points[:, 0] = np.clip(points[:, 0], 0, width - 1)
    points[:, 1] = np.clip(points[:, 1], 0, height - 1)

    eye_angle, mouth_angle, doubled = _class_pattern(label)
    eye_offsets = (-2.0, 2.0) if doubled else (0.0,)
    bars = [(x, y, eye_angle, off) for x, y in points[:2] for off in eye_offsets]
    bars += [(x, y, mouth_angle, 0.0) for x, y in points[3:5]]
    # class-independent cross at the nose keeps the prior honest there
    bars += [(*points[2], 0.0, 0.0), (*points[2], 90.0, 0.0)]

    n_distract = int(rng.integers(6, 11))
    placed = 0
    guard = 0
    while placed < n_distract and guard < 200:
        guard += 1
        dx = rng.uniform(PATCH, width - 1 - PATCH)
        dy = rng.uniform(PATCH, height - 1 - PATCH)
        gap = np.hypot(points[:, 0] - dx, points[:, 1] - dy).min()
        if gap < MIN_DISTRACTOR_GAP:
            continue
        bars.append((dx, dy, float(rng.uniform(0.0, 180.0)), 0.0))
        placed += 1

    canvas = np.zeros((height, width))
    _stamp_bars(canvas, bars)
    canvas = np.clip(canvas + rng.normal(0.0, NOISE_STD, size=canvas.shape), 0.0, 1.0)
    return Sample(canvas, LandmarkSet(points), label)


def generate_dataset(out_dir: str, seed: int, n: int, n_classes: int = 7,
                     height: int = 64, width: int = 64, n_landmarks: int = 5,
                     split: str = "train") -> DatasetManifest:
    """Write n class-balanced samples as a sheet plus a manifest; byte-deterministic per seed."""
    if n < n_classes:
        raise DataError(f"need at least {n_classes} samples for {n_classes} classes")
    os.makedirs(out_dir, exist_ok=True)
    split_seed = int(stream(seed, "split", split).integers(0, 2**63 - 1))
    labels = [index % n_classes for index in range(n)]
    images = np.empty((n, height, width), dtype=np.uint8)
    landmarks = []
    for index, label in enumerate(labels):
        sample = render_sample(split_seed, index, label, n_classes, height, width, n_landmarks)
        images[index] = np.clip(np.rint(sample.image * 255.0), 0, 255)  # as write_pgm rounds
        # six decimals, as `f"{v:.6f}"` gives; JSON writes such a float back exactly
        landmarks.append([[round(x, 6), round(y, 6)] for x, y in sample.landmarks.points.tolist()])
    sheet = f"{split}_images.pgm"
    write_pgm(os.path.join(out_dir, sheet), images.reshape(n * height, width))
    payload = {"format": "palnet-dataset", "n_classes": n_classes, "split": split,
               "height": height, "width": width, "n_landmarks": n_landmarks,
               "images": sheet, "labels": labels, "landmarks": landmarks}
    with open(manifest_path(out_dir, split), "w") as fh:
        json.dump(payload, fh)
    return DatasetManifest(n_classes, split, height, width, n_landmarks, images, labels,
                           np.array(landmarks))


def manifest_path(out_dir: str, split: str) -> str:
    return os.path.join(out_dir, f"{split}_manifest.json")


def _manifest_field(path: str, payload, key: str, kind: type):
    """payload[key], checked to be a `kind`; anything else is a named DataError."""
    if not isinstance(payload, dict):
        raise DataError(f"corrupt manifest {path}: the manifest is not a JSON object")
    if key not in payload:
        raise DataError(f"corrupt manifest {path}: the manifest has no field '{key}'")
    value = payload[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DataError(f"corrupt manifest {path}: field '{key}' of the manifest should be "
                        f"{kind.__name__}, got {type(value).__name__}")
    return value


def _landmark_array(path: str, value: list, shape: tuple) -> np.ndarray:
    """The manifest's landmarks as a finite float64 array of `shape`."""
    try:
        arr = np.array(value)
    except ValueError:
        raise DataError(f"corrupt manifest {path}: field 'landmarks' is ragged") from None
    if arr.dtype.kind not in "iuf":
        raise DataError(f"corrupt manifest {path}: field 'landmarks' should hold numbers, "
                        f"got {arr.dtype}")
    if arr.shape != shape:
        raise DataError(f"corrupt manifest {path}: field 'landmarks' is {arr.shape}, "
                        f"expected (n, n_landmarks, 2) = {shape}")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise DataError(f"corrupt manifest {path}: field 'landmarks' holds NaN/Inf")
    return arr


def load_manifest(path: str) -> DatasetManifest:
    """Load and validate: fields present and typed, labels in range, every class
    present, landmarks finite and (n, n_landmarks, 2), the sheet n images high."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"manifest not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt manifest {path}: {exc}") from exc
    top = {key: _manifest_field(path, payload, key, kind)
           for key, kind in (("n_classes", int), ("split", str), ("height", int),
                             ("width", int), ("n_landmarks", int), ("images", str),
                             ("labels", list), ("landmarks", list))}
    n_classes, labels = top["n_classes"], top["labels"]
    for i, label in enumerate(labels):
        if type(label) is not int:
            raise DataError(f"corrupt manifest {path}: label {i} should be int, "
                            f"got {type(label).__name__}")
        if not 0 <= label < n_classes:
            raise DataError(f"{path}: sample {i} has label {label} outside [0, {n_classes})")
    missing = sorted(set(range(n_classes)) - set(labels))
    if missing:
        raise DataError(f"{path}: classes {missing} have no samples")
    n, height, width = len(labels), top["height"], top["width"]
    landmarks = _landmark_array(path, top["landmarks"], (n, top["n_landmarks"], 2))
    try:
        sheet = read_pgm(os.path.join(os.path.dirname(os.path.abspath(path)), top["images"]))
    except FileNotFoundError:
        raise DataError(f"{path}: image sheet missing: {top['images']}") from None
    if sheet.shape != (n * height, width):
        raise DataError(f"{path}: image sheet {top['images']} is {sheet.shape}, expected "
                        f"{(n * height, width)} for {n} images of {height}x{width}")
    return DatasetManifest(n_classes, top["split"], height, width, top["n_landmarks"],
                           sheet.reshape(n, height, width), labels, landmarks)


def load_sample(manifest: DatasetManifest, index: int) -> Sample:
    if not 0 <= index < len(manifest):
        raise DataError(f"sample index {index} is outside [0, {len(manifest)})")
    return Sample(to_unit_float(manifest.images[index]),
                  LandmarkSet(manifest.landmarks[index].copy()), manifest.labels[index])


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def rotate_image(img: np.ndarray, theta_deg: float) -> np.ndarray:
    """Rotate about the image center with bilinear resampling, zero fill."""
    if theta_deg == 0.0:
        return img.copy()
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    # centred offsets as a column and a row: broadcasting does each pixel's
    # arithmetic in the order a full grid would
    di = (np.arange(h, dtype=np.float64) - cy)[:, None]
    dj = np.arange(w, dtype=np.float64) - cx
    t = np.deg2rad(theta_deg)
    ct, st = np.cos(t), np.sin(t)
    xs = cx + ct * dj + st * di   # inverse rotation
    ys = cy - st * dj + ct * di
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    wx, wy = xs - x0, ys - y0
    # a one-pixel zero border: a tap clipped to [-1, h] x [-1, w] reads the
    # pixel or, outside the image, zero
    bordered = np.zeros((h + 2, w + 2))
    bordered[1:-1, 1:-1] = img
    flat = bordered.ravel()
    rows = [(np.clip(y, -1, h) + 1) * (w + 2) for y in (y0, y0 + 1)]
    cols = [np.clip(x, -1, w) + 1 for x in (x0, x0 + 1)]
    return (
        (1 - wy) * (1 - wx) * flat.take(rows[0] + cols[0])
        + (1 - wy) * wx * flat.take(rows[0] + cols[1])
        + wy * (1 - wx) * flat.take(rows[1] + cols[0])
        + wy * wx * flat.take(rows[1] + cols[1])
    )


def augment(sample: Sample, rng: np.random.Generator) -> Sample:
    """Random rotation in [-10, 10] degrees, then horizontal flip with p=0.5.

    The landmarks get the identical transform so the prior tracks the image.
    """
    theta = float(rng.uniform(-10.0, 10.0))
    flip = bool(rng.random() < 0.5)
    return apply_transform(sample, theta, flip)


def apply_transform(sample: Sample, theta: float, flip: bool) -> Sample:
    h, w = sample.image.shape
    img = rotate_image(sample.image, theta)
    if flip:
        img = img[:, ::-1].copy()
    lms = transform_landmarks(sample.landmarks, theta, flip, h, w)
    return Sample(img, lms, sample.label)


def mask_landmark_patches(image: np.ndarray, lms: LandmarkSet, size: int = PATCH) -> np.ndarray:
    """Zero out size x size regions at every keypoint (occlusion probe)."""
    out = image.copy()
    h, w = out.shape
    half = size // 2
    for x, y in lms.points:
        i0, i1 = max(int(round(y)) - half, 0), min(int(round(y)) + half + 1, h)
        j0, j1 = max(int(round(x)) - half, 0), min(int(round(x)) + half + 1, w)
        out[i0:i1, j0:j1] = 0.0
    return out

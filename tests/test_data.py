"""Dataset checks: determinism, balance, file formats, and augmentation
consistency between images and landmarks."""

import hashlib
import json
import os

import numpy as np
import numpy.testing as npt
import pytest

from palnet.data import (
    BAR_GAIN,
    BAR_HALF_LEN,
    BAR_WIDTH,
    PATCH,
    DataError,
    Sample,
    apply_transform,
    augment,
    generate_dataset,
    load_manifest,
    load_sample,
    _stamp_bars,
    manifest_path,
    mask_landmark_patches,
    render_sample,
    rotate_image,
)
from palnet.heatmap import LandmarkSet
from palnet.pgm import PgmError, read_pgm, to_unit_float, write_pgm
from palnet.seeding import stream


def _dir_digest(root):
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            h.update(name.encode())
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generation_is_byte_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    generate_dataset(a, seed=0, n=10, split="train")
    generate_dataset(b, seed=0, n=10, split="train")
    assert _dir_digest(a) == _dir_digest(b)
    c = str(tmp_path / "c")
    generate_dataset(c, seed=1, n=10, split="train")
    assert _dir_digest(a) != _dir_digest(c)


@pytest.mark.parametrize("kwargs,digest", [
    (dict(seed=0, n=14, split="train"),
     "d4d25d8d3e9e75a25fe6665caef5d61cc579e104336066a8225ae3669855e3e1"),
    (dict(seed=3, n=16, split="test", height=40, width=52, n_landmarks=9),
     "d93b3d891f8b5cc996a2a9617667719361a0f8f34f224a4fc636027b37b574e1"),
])
def test_generation_bytes_are_pinned(tmp_path, kwargs, digest):
    # every PGM, landmark file and manifest; bit-identical on one machine and
    # one NumPy build, not promised across CPUs
    generate_dataset(str(tmp_path), **kwargs)
    assert _dir_digest(str(tmp_path)) == digest


def _ref_stamp_bar(canvas, cx, cy, angle_deg, doubled=False):
    """The per-bar meshgrid stamp `_stamp_bars` replaced, kept as its reference."""
    h, w = canvas.shape
    half = PATCH // 2
    i0, i1 = max(int(round(cy)) - half, 0), min(int(round(cy)) + half + 1, h)
    j0, j1 = max(int(round(cx)) - half, 0), min(int(round(cx)) + half + 1, w)
    if i0 >= i1 or j0 >= j1:
        return
    ii, jj = np.meshgrid(np.arange(i0, i1), np.arange(j0, j1), indexing="ij")
    t = np.deg2rad(angle_deg)
    dx, dy = jj - cx, ii - cy
    along = dx * np.cos(t) + dy * np.sin(t)
    across = -dx * np.sin(t) + dy * np.cos(t)
    region = canvas[i0:i1, j0:j1]
    for off in (-2.0, 2.0) if doubled else (0.0,):
        profile = (BAR_GAIN * np.exp(-(((across - off) / BAR_WIDTH) ** 2))
                   * (np.abs(along) <= BAR_HALF_LEN))
        np.maximum(region, profile, out=region)


def _stamp_both_ways(height, width, bars):
    """(reference, one-pass) canvases for (cx, cy, angle, doubled) bars."""
    ref = np.zeros((height, width))
    rows = []
    for cx, cy, angle, doubled in bars:
        _ref_stamp_bar(ref, cx, cy, angle, doubled)
        rows += [(cx, cy, angle, off) for off in ((-2.0, 2.0) if doubled else (0.0,))]
    got = np.zeros((height, width))
    _stamp_bars(got, rows)
    return ref, got


@pytest.mark.parametrize("cx,cy", [
    (20.3, 0.0),     # centre on row 0
    (39.0, 17.6),    # centre on column w - 1
    (0.0, 0.0),      # top-left corner
    (39.0, 35.0),    # bottom-right corner
    (2.5, 33.5),     # box clipped on two sides, half-way centre
    (18.7, 16.2),    # box wholly inside
])
@pytest.mark.parametrize("angle", [0.0, 90.0, 37.3])
@pytest.mark.parametrize("doubled", [False, True])
def test_one_pass_stamp_matches_per_bar_reference(cx, cy, angle, doubled):
    ref, got = _stamp_both_ways(36, 40, [(cx, cy, angle, doubled)])
    assert got.tobytes() == ref.tobytes()
    assert got.max() > 0.5


def test_one_pass_stamp_matches_reference_on_overlapping_bars():
    rng = np.random.default_rng(7)
    for _ in range(20):
        bars = [(rng.uniform(-3, 43), rng.uniform(-3, 39), rng.uniform(0, 180), rng.random() < 0.3)
                for _ in range(int(rng.integers(1, 30)))]
        ref, got = _stamp_both_ways(36, 40, bars)
        assert got.tobytes() == ref.tobytes()


def test_labels_exactly_balanced(tmp_path):
    manifest = generate_dataset(str(tmp_path), seed=0, n=70, split="train")
    counts = np.bincount([e.label for e in manifest.entries], minlength=7)
    npt.assert_array_equal(counts, np.full(7, 10))


def test_split_streams_are_disjoint(tmp_path):
    generate_dataset(str(tmp_path / "x"), seed=0, n=7, split="train")
    generate_dataset(str(tmp_path / "y"), seed=0, n=7, split="test")
    a = read_pgm(str(tmp_path / "x" / "train_00000.pgm"))
    b = read_pgm(str(tmp_path / "y" / "test_00000.pgm"))
    assert not np.array_equal(a, b)


def test_generation_preconditions(tmp_path):
    with pytest.raises(DataError):
        generate_dataset(str(tmp_path), seed=0, n=3, n_classes=7)
    with pytest.raises(DataError):
        render_sample(0, 0, 0, 7, height=16, width=16, n_landmarks=5)


def test_evidence_lives_at_keypoints():
    # masking the landmark patches removes the class-bearing bars
    sample = render_sample(0, 5, 3, 7, 64, 64, 5)
    masked = mask_landmark_patches(sample.image, sample.landmarks)
    eroded = sample.image.sum() - masked.sum()
    assert eroded > 10.0  # the stamped bars carried substantial mass


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_pgm_round_trip_quantization_bound(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(32, 40))
    path = str(tmp_path / "img.pgm")
    write_pgm(path, img * 255.0)
    back = to_unit_float(read_pgm(path))
    assert back.shape == (32, 40)
    assert np.abs(back - img).max() <= 1.0 / 255.0


def test_pgm_rejects_corrupt_header(tmp_path):
    path = str(tmp_path / "bad.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(PgmError):
        read_pgm(path)
    with open(path, "wb") as fh:
        fh.write(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(PgmError, match="pixel bytes"):
        read_pgm(path)


def test_manifest_round_trip_and_validation(tmp_path):
    root = str(tmp_path)
    generate_dataset(root, seed=0, n=14, split="train")
    manifest = load_manifest(manifest_path(root, "train"))
    assert len(manifest) == 14 and manifest.n_classes == 7
    sample = load_sample(manifest, 3)
    assert sample.image.shape == (64, 64)
    assert len(sample.landmarks) == 5
    assert sample.label == 3


def test_manifest_missing_file_is_named(tmp_path):
    root = str(tmp_path)
    generate_dataset(root, seed=0, n=7, split="train")
    os.remove(os.path.join(root, "train_00002.txt"))
    with pytest.raises(DataError, match="train_00002.txt"):
        load_manifest(manifest_path(root, "train"))


def test_manifest_label_out_of_range(tmp_path):
    root = str(tmp_path)
    generate_dataset(root, seed=0, n=7, split="train")
    path = manifest_path(root, "train")
    with open(path) as fh:
        payload = json.load(fh)
    payload["entries"][0]["label"] = 9
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(DataError, match="label 9"):
        load_manifest(path)


def _rewrite_manifest(path, edit):
    with open(path) as fh:
        payload = json.load(fh)
    payload = edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


@pytest.mark.parametrize("field", ["n_classes", "split", "height", "width", "n_landmarks",
                                   "entries"])
def test_manifest_missing_top_level_field_is_named(tmp_path, field):
    root = str(tmp_path)
    generate_dataset(root, seed=0, n=7, split="train")
    path = manifest_path(root, "train")
    _rewrite_manifest(path, lambda p: {k: v for k, v in p.items() if k != field})
    with pytest.raises(DataError, match=f"train_manifest.json: the manifest has no field '{field}'"):
        load_manifest(path)


@pytest.mark.parametrize("field", ["image", "landmarks", "label"])
def test_manifest_missing_entry_field_is_named(tmp_path, field):
    root = str(tmp_path)
    generate_dataset(root, seed=0, n=7, split="train")
    path = manifest_path(root, "train")

    def drop(p):
        del p["entries"][2][field]
        return p

    _rewrite_manifest(path, drop)
    with pytest.raises(DataError, match=f"entry 2 has no field '{field}'"):
        load_manifest(path)


@pytest.mark.parametrize("payload,message", [
    ([1, 2, 3], "the manifest is not a JSON object"),
    ({"n_classes": "7"}, "field 'n_classes' of the manifest should be int, got str"),
])
def test_manifest_wrong_json_shape_is_a_data_error(tmp_path, payload, message):
    path = str(tmp_path / "train_manifest.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(DataError, match=message):
        load_manifest(path)


def test_manifest_entry_not_an_object(tmp_path):
    root = str(tmp_path)
    generate_dataset(root, seed=0, n=7, split="train")
    path = manifest_path(root, "train")

    def replace(p):
        p["entries"][0] = "train_00000.pgm"
        return p

    _rewrite_manifest(path, replace)
    with pytest.raises(DataError, match="entry 0 is not a JSON object"):
        load_manifest(path)


def test_landmark_count_mismatch(tmp_path):
    root = str(tmp_path)
    generate_dataset(root, seed=0, n=7, split="train")
    with open(os.path.join(root, "train_00000.txt"), "a") as fh:
        fh.write("1.0 1.0\n")
    manifest = load_manifest(manifest_path(root, "train"))
    with pytest.raises(Exception, match="landmarks"):
        load_sample(manifest, 0)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def _sample():
    return render_sample(3, 1, 2, 7, 64, 64, 5)


def test_identity_transform_is_identity():
    s = _sample()
    out = apply_transform(s, 0.0, False)
    npt.assert_array_equal(out.image, s.image)
    npt.assert_array_equal(out.landmarks.points, s.landmarks.points)


def test_flip_swaps_eye_sides():
    s = _sample()
    out = apply_transform(s, 0.0, True)
    left_x, right_x = s.landmarks.points[0, 0], s.landmarks.points[1, 0]
    npt.assert_allclose(out.landmarks.points[0, 0], 63.0 - left_x, atol=1e-12)
    npt.assert_allclose(out.landmarks.points[1, 0], 63.0 - right_x, atol=1e-12)
    mid = 63.0 / 2
    assert (s.landmarks.points[0, 0] < mid) and (out.landmarks.points[0, 0] > mid)


def test_marker_round_trip_through_augmentation():
    # stamp a bright marker at a landmark, transform, read it back at the
    # transformed landmark position
    rng = stream(0, "aug-test")
    for trial in range(5):
        img = np.zeros((64, 64))
        x, y = 20.0 + 3 * trial, 26.0 + 2 * trial
        img[int(y) - 1 : int(y) + 2, int(x) - 1 : int(x) + 2] = 1.0
        s = Sample(img, LandmarkSet(np.array([[x, y]])), 0)
        out = augment(s, rng)
        tx, ty = out.landmarks.points[0]
        patch = out.image[
            max(int(round(ty)) - 2, 0) : int(round(ty)) + 3,
            max(int(round(tx)) - 2, 0) : int(round(tx)) + 3,
        ]
        ii, jj = np.unravel_index(np.argmax(patch), patch.shape)
        peak_y = max(int(round(ty)) - 2, 0) + ii
        peak_x = max(int(round(tx)) - 2, 0) + jj
        assert np.hypot(peak_x - tx, peak_y - ty) <= 1.5


def test_rotation_preserves_mass_roughly():
    s = _sample()
    rotated = rotate_image(s.image, 10.0)
    assert rotated.shape == s.image.shape
    assert abs(rotated.sum() - s.image.sum()) / s.image.sum() < 0.1


def test_augment_angles_within_contract():
    rng = stream(1, "aug-range")
    for _ in range(20):
        out = augment(_sample(), rng)
        assert out.image.shape == (64, 64)
        assert (out.landmarks.points >= 0).all()
        assert (out.landmarks.points <= 63).all()

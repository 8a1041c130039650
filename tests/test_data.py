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


PINNED = [dict(seed=0, n=14, split="train"),
          dict(seed=3, n=16, split="test", height=40, width=52, n_landmarks=9)]


@pytest.mark.parametrize("kwargs,digest", zip(PINNED, [
    "07db39adf740b5a73c79840ee533b144da517a8bb9e022f6cb2ed3cc01def4ab",
    "0064659339fa7db222e5cbf580d7bd73d8c11a2131d4ee89d14479f680a4503a",
]))
def test_generation_bytes_are_pinned(tmp_path, kwargs, digest):
    # the image sheet and the manifest; bit-identical on one machine and one
    # NumPy build, not promised across CPUs
    generate_dataset(str(tmp_path), **kwargs)
    assert _dir_digest(str(tmp_path)) == digest


@pytest.mark.parametrize("kwargs,digest", zip(PINNED, [
    "262373dd41b31114455ea6bd1322a901891c2217e32a2fd4e3623bbe081e2808",
    "ec1735adb9f58d1a78466dd4fca52b779603d4e34163616422d1783cd91b6b50",
]))
def test_generation_content_is_pinned(tmp_path, kwargs, digest):
    # what training reads, whatever the file layout: every loaded image,
    # landmark array and label in index order
    generate_dataset(str(tmp_path), **kwargs)
    manifest = load_manifest(manifest_path(str(tmp_path), kwargs["split"]))
    h = hashlib.sha256()
    for i in range(len(manifest)):
        sample = load_sample(manifest, i)
        h.update(sample.image.tobytes())
        h.update(sample.landmarks.points.tobytes())
        h.update(np.int64(sample.label).tobytes())
    assert h.hexdigest() == digest


def test_generation_writes_two_files_per_split(tmp_path):
    generate_dataset(str(tmp_path), seed=0, n=21, split="train")
    generate_dataset(str(tmp_path), seed=0, n=7, split="test")
    assert sorted(os.listdir(tmp_path)) == ["test_images.pgm", "test_manifest.json",
                                            "train_images.pgm", "train_manifest.json"]
    assert read_pgm(str(tmp_path / "train_images.pgm")).shape == (21 * 64, 64)


def test_loaded_samples_are_the_rendered_ones(tmp_path):
    generate_dataset(str(tmp_path), seed=2, n=9, split="train", height=40, width=44, n_landmarks=7)
    manifest = load_manifest(manifest_path(str(tmp_path), "train"))
    split_seed = int(stream(2, "split", "train").integers(0, 2**63 - 1))
    for i in range(len(manifest)):
        want = render_sample(split_seed, i, i % 7, 7, 40, 44, 7)
        got = load_sample(manifest, i)
        assert got.label == want.label
        npt.assert_array_equal(got.image, to_unit_float(
            np.clip(np.rint(want.image * 255.0), 0, 255).astype(np.uint8)))
        rounded = [[round(v, 6) for v in p] for p in want.landmarks.points.tolist()]
        assert got.landmarks.points.tolist() == rounded


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
    counts = np.bincount(manifest.labels, minlength=7)
    npt.assert_array_equal(counts, np.full(7, 10))


def test_split_streams_are_disjoint(tmp_path):
    a = generate_dataset(str(tmp_path / "x"), seed=0, n=7, split="train")
    b = generate_dataset(str(tmp_path / "y"), seed=0, n=7, split="test")
    assert not np.array_equal(a.images[0], b.images[0])


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


def _rewrite_manifest(path, edit):
    with open(path) as fh:
        payload = json.load(fh)
    payload = edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _split7(tmp_path):
    """Manifest path of a generated 7-sample train split."""
    generate_dataset(str(tmp_path), seed=0, n=7, split="train")
    return manifest_path(str(tmp_path), "train")


def test_manifest_missing_file_is_named(tmp_path):
    path = _split7(tmp_path)
    os.remove(str(tmp_path / "train_images.pgm"))
    with pytest.raises(DataError, match="image sheet missing: train_images.pgm"):
        load_manifest(path)


@pytest.mark.parametrize("label,message", [
    (9, r"sample 3 has label 9 outside \[0, 7\)"),
    (-1, r"sample 3 has label -1 outside \[0, 7\)"),
    ("1", "label 3 should be int, got str"),
    (True, "label 3 should be int, got bool"),
    (1.0, "label 3 should be int, got float"),
    (None, "label 3 should be int, got NoneType"),
    (0, r"classes \[3\] have no samples"),
], ids=["above", "below", "str", "bool", "float", "null", "empty-class"])
def test_manifest_bad_label_is_named(tmp_path, label, message):
    path = _split7(tmp_path)

    def edit(p):
        p["labels"][3] = label
        return p

    _rewrite_manifest(path, edit)
    with pytest.raises(DataError, match=message):
        load_manifest(path)


@pytest.mark.parametrize("field", ["n_classes", "split", "height", "width", "n_landmarks",
                                   "images", "labels", "landmarks"])
def test_manifest_missing_top_level_field_is_named(tmp_path, field):
    path = _split7(tmp_path)
    _rewrite_manifest(path, lambda p: {k: v for k, v in p.items() if k != field})
    with pytest.raises(DataError, match=f"train_manifest.json: the manifest has no field '{field}'"):
        load_manifest(path)


HEADER = {"n_classes": 7, "split": "train", "height": 64, "width": 64, "n_landmarks": 5}


@pytest.mark.parametrize("payload,message", [
    ([1, 2, 3], "the manifest is not a JSON object"),
    ({"n_classes": "7"}, "field 'n_classes' of the manifest should be int, got str"),
    ({**HEADER, "height": 64.0}, "field 'height' of the manifest should be int, got float"),
    ({**HEADER, "images": ["train_images.pgm"]},
     "field 'images' of the manifest should be str, got list"),
    ({**HEADER, "images": "s.pgm", "labels": "0123456"},
     "field 'labels' of the manifest should be list, got str"),
    ({**HEADER, "images": "s.pgm", "labels": [], "landmarks": {"x": 1}},
     "field 'landmarks' of the manifest should be list, got dict"),
])
def test_manifest_wrong_json_shape_is_a_data_error(tmp_path, payload, message):
    path = str(tmp_path / "train_manifest.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(DataError, match=message):
        load_manifest(path)


def _edit_landmarks(change):
    def edit(p):
        change(p["landmarks"])
        return p
    return edit


@pytest.mark.parametrize("edit,message", [
    (_edit_landmarks(lambda lm: lm[0].append([1.0, 1.0])), "field 'landmarks' is ragged"),
    (_edit_landmarks(lambda lm: [pts.append([1.0, 1.0]) for pts in lm]),
     r"field 'landmarks' is \(7, 6, 2\), expected \(n, n_landmarks, 2\) = \(7, 5, 2\)"),
    (_edit_landmarks(lambda lm: lm.pop()), r"field 'landmarks' is \(6, 5, 2\)"),
    (lambda p: {**p, "landmarks": [[[[1.0, 2.0]]] * 5] * 7},
     r"field 'landmarks' is \(7, 5, 1, 2\)"),
    (_edit_landmarks(lambda lm: lm[2][1].__setitem__(0, float("nan"))),
     "field 'landmarks' holds NaN/Inf"),
    (_edit_landmarks(lambda lm: lm[6][4].__setitem__(1, float("-inf"))),
     "field 'landmarks' holds NaN/Inf"),
    (_edit_landmarks(lambda lm: lm[0][0].__setitem__(0, "3.5")),
     "field 'landmarks' should hold numbers"),
    (_edit_landmarks(lambda lm: lm[0][0].__setitem__(0, None)),
     "field 'landmarks' should hold numbers"),
], ids=["ragged", "count", "samples", "depth", "nan", "inf", "string", "null"])
def test_manifest_bad_landmarks_are_named(tmp_path, edit, message):
    path = _split7(tmp_path)
    _rewrite_manifest(path, edit)
    with pytest.raises(DataError, match=message):
        load_manifest(path)


@pytest.mark.parametrize("rows,cols,message", [
    (6 * 64, 64, r"is \(384, 64\), expected \(448, 64\) for 7 images of 64x64"),
    (7 * 64, 63, r"is \(448, 63\), expected \(448, 64\)"),
    (7 * 64 + 1, 64, r"is \(449, 64\)"),
])
def test_manifest_sheet_shape_is_checked(tmp_path, rows, cols, message):
    path = _split7(tmp_path)
    write_pgm(str(tmp_path / "train_images.pgm"), np.zeros((rows, cols), dtype=np.uint8))
    with pytest.raises(DataError, match=message):
        load_manifest(path)


def test_manifest_corrupt_sheet_is_a_pgm_error(tmp_path):
    path = _split7(tmp_path)
    sheet = str(tmp_path / "train_images.pgm")
    with open(sheet, "rb") as fh:
        data = fh.read()
    with open(sheet, "wb") as fh:
        fh.write(data[:-1])
    with pytest.raises(PgmError, match="pixel bytes"):
        load_manifest(path)


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


def rotate_image_reference(img, theta_deg):
    """The rotation on full index grids, with a valid-mask, clip and `np.where`
    per tap: `rotate_image` must give its bytes."""
    if theta_deg == 0.0:
        return img.copy()
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ii, jj = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    t = np.deg2rad(theta_deg)
    ct, st = np.cos(t), np.sin(t)
    xs = cx + ct * (jj - cx) + st * (ii - cy)
    ys = cy - st * (jj - cx) + ct * (ii - cy)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    wx, wy = xs - x0, ys - y0

    def tap(yi, xi):
        valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        v = img[np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)]
        return np.where(valid, v, 0.0)

    return (
        (1 - wy) * (1 - wx) * tap(y0, x0)
        + (1 - wy) * wx * tap(y0, x0 + 1)
        + wy * (1 - wx) * tap(y0 + 1, x0)
        + wy * wx * tap(y0 + 1, x0 + 1)
    )


@pytest.mark.parametrize("shape", [(64, 64), (40, 52), (17, 9), (1, 5)])
def test_rotate_image_matches_reference_bytes(shape):
    rng = np.random.default_rng(sum(shape))
    signed_zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    images = [rng.uniform(0.0, 1.0, shape), np.zeros(shape), signed_zeros,
              np.where(rng.random(shape) < 0.3, -0.0, rng.uniform(-1.0, 1.0, shape))]
    angles = [90.0, -90.0, 179.0, 1e-12, -1e-12, 0.0, 45.0, -45.0]
    angles += list(rng.uniform(-45.0, 45.0, 40))
    for img in images:
        for theta in angles:
            got, want = rotate_image(img, theta), rotate_image_reference(img, theta)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), theta


def test_augment_angles_within_contract():
    rng = stream(1, "aug-range")
    for _ in range(20):
        out = augment(_sample(), rng)
        assert out.image.shape == (64, 64)
        assert (out.landmarks.points >= 0).all()
        assert (out.landmarks.points <= 63).all()

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kpff.data import (
    NOISE_SIGMA,
    SYNTHETIC_CLASSES,
    Dataset,
    generate_synthetic,
    load_image_dir,
    make_folds,
    read_pnm,
    write_fold_plan,
    write_pnm,
)
from kpff.rng import Stream, stream


def test_synthetic_counts():
    ds = generate_synthetic(per_class=25, size=16, seed=0)
    assert len(ds) == 100
    assert ds.class_names == ["blob", "checkerboard", "gradient", "stripes"]
    images, labels = ds.stacked()
    assert np.bincount(labels).tolist() == [25, 25, 25, 25]
    assert images.shape == (100, 1, 16, 16)


def test_synthetic_deterministic():
    a = generate_synthetic(per_class=5, size=12, seed=42)
    b = generate_synthetic(per_class=5, size=12, seed=42)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.images, b.images)
    c = generate_synthetic(per_class=5, size=12, seed=43)
    assert all(not np.array_equal(ia, ic) for ia, ic in zip(a.images, c.images))


def test_synthetic_pixel_range_and_size_check():
    ds = generate_synthetic(per_class=3, size=8, seed=1)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    with pytest.raises(ValueError):
        generate_synthetic(per_class=3, size=7, seed=1)


def per_sample_texture(name, size, s):
    """One image of the class name, drawn value by value from the stream s
    through Stream.uniform and Stream.normal (reference)."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    if name == "stripes":
        phase = s.uniform(low=-0.5, high=0.5)
        img = 0.5 + 0.5 * np.sin(2 * np.pi * (yy + phase) / 4.0)
    elif name == "checkerboard":
        px = s.uniform(low=-0.5, high=0.5)
        py = s.uniform(low=-0.5, high=0.5)
        img = 0.5 + 0.5 * np.sign(
            np.sin(2 * np.pi * (xx + px) / 4.0) * np.sin(2 * np.pi * (yy + py) / 4.0)
        )
    elif name == "blob":
        cx = size / 2 + s.uniform(low=-1.5, high=1.5)
        cy = size / 2 + s.uniform(low=-1.5, high=1.5)
        width = size * (0.15 + 0.1 * s.uniform())
        img = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * width**2))
    else:
        assert name == "gradient"
        offset = s.uniform(low=-0.15, high=0.15)
        img = (xx + yy) / (2 * (size - 1)) + offset
    contrast = 0.7 + 0.3 * s.uniform()
    img = 0.5 + contrast * (img - 0.5)
    img += s.normal(size=img.shape, sigma=NOISE_SIGMA)
    return np.clip(img, 0.0, 1.0)


def per_sample_synthetic(per_class, size, seed):
    """generate_synthetic's images, one sample at a time (reference)."""
    images = np.empty((len(SYNTHETIC_CLASSES) * per_class, 1, size, size))
    for label, name in enumerate(SYNTHETIC_CLASSES):
        s = stream(seed, f"synthetic/{name}")
        for k in range(per_class):
            images[label * per_class + k, 0] = per_sample_texture(name, size, s)
    return images


# 9x9 images have an odd pixel count: Box-Muller's last sine is cut off
@pytest.mark.parametrize("per_class,size,seed", [(25, 16, 0), (25, 16, 5), (10, 12, 3),
                                                 (7, 9, 11)])
def test_synthetic_equals_per_sample_draws(per_class, size, seed, monkeypatch):
    draws = []
    raw = Stream.raw
    monkeypatch.setattr(Stream, "raw", lambda self, count: draws.append(count) or raw(self, count))
    images = generate_synthetic(per_class=per_class, size=size, seed=seed).images
    assert len(draws) == len(SYNTHETIC_CLASSES)  # one draw per class
    monkeypatch.undo()
    assert images.tobytes() == per_sample_synthetic(per_class, size, seed).tobytes()


def test_synthetic_linearly_separable():
    # least-squares one-hot regression on raw pixels as an independent
    # classifier; five-fold accuracy must clear 80%
    ds = generate_synthetic(per_class=25, size=16, seed=0)
    plan = make_folds(ds, k=5, seed=0)
    X = ds.images.reshape(len(ds), -1)
    X = np.hstack([X, np.ones((len(ds), 1))])
    y = ds.labels
    onehot = np.eye(4)[y]
    correct = 0
    for f in range(5):
        tr = plan.train_indices(f)
        te = plan.folds[f]
        W, *_ = np.linalg.lstsq(X[tr], onehot[tr], rcond=None)
        pred = np.argmax(X[te] @ W, axis=1)
        correct += int(np.sum(pred == y[te]))
    assert correct / len(ds) >= 0.80


def test_dataset_holds_read_only_copies():
    images, labels = np.zeros((3, 1, 2, 2)), [0, 1, 1]
    ds = Dataset(images, labels, ["a", "b"])
    images[0, 0, 0, 0] = 1.0
    got_images, got_labels = ds.stacked()
    assert got_images is ds.images and got_labels is ds.labels
    assert got_images.dtype == np.float64 and got_labels.dtype == np.int64
    assert np.all(got_images == 0.0) and got_labels.tolist() == labels
    for arr in (got_images, got_labels):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_dataset_rejects_bad_labels_and_shapes():
    with pytest.raises(ValueError, match="label 2 out of range"):
        Dataset(np.zeros((2, 1, 1, 1)), [0, 2], ["a", "b"])
    with pytest.raises(ValueError, match="label -1 out of range"):
        Dataset(np.zeros((2, 1, 1, 1)), [0, -1], ["a", "b"])
    with pytest.raises(ValueError, match="N labels"):
        Dataset(np.zeros((2, 1, 1, 1)), [0], ["a"])
    with pytest.raises(ValueError, match=r"\[N, C, H, W\]"):
        Dataset(np.zeros((2, 1, 1)), [0, 0], ["a"])


# --- pixmap IO ----------------------------------------------------------------


def test_p5_normalization(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([255, 0]))
    img = read_pnm(path)
    assert img.shape == (1, 1, 2)
    assert img.tolist() == [[[1.0, 0.0]]]


def test_p6_hand_decoded_fixture(tmp_path):
    path = tmp_path / "rgb.ppm"
    path.write_bytes(b"P6\n3 1\n255\n" + bytes([255, 0, 0, 0, 255, 0, 0, 0, 255]))
    img = read_pnm(path)
    # independent byte-level decode: channel planes of a 3x1 RGB strip
    assert img.shape == (3, 1, 3)
    assert img[0].tolist() == [[1.0, 0.0, 0.0]]
    assert img[1].tolist() == [[0.0, 1.0, 0.0]]
    assert img[2].tolist() == [[0.0, 0.0, 1.0]]
    assert not img.flags.writeable


def test_pnm_header_comments_and_errors(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n" + bytes([0, 64, 128, 255]))
    img = read_pnm(path)
    assert img.shape == (1, 2, 2)
    assert img[0, 0, 1] == pytest.approx(64 / 255)

    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P2\n2 2\n255\n")
    with pytest.raises(ValueError):
        read_pnm(bad)
    trunc = tmp_path / "t.pgm"
    trunc.write_bytes(b"P5\n4 4\n255\n" + bytes([0] * 3))
    with pytest.raises(ValueError, match="truncated"):
        read_pnm(trunc)
    above = tmp_path / "a.pgm"
    above.write_bytes(b"P5\n2 2\n100\n" + bytes([0, 100, 200, 255]))  # raster from byte 11
    with pytest.raises(ValueError, match="a.pgm: sample 200 above maxval 100 at byte offset 13$"):
        read_pnm(above)
    for width, height in ((4, 0), (0, 3)):
        empty = tmp_path / "e.pgm"
        empty.write_bytes(b"P5\n%d %d\n255\n" % (width, height))
        with pytest.raises(ValueError, match=f"e.pgm: image has no pixels \\({width}x{height}\\)"):
            read_pnm(empty)
    for name, data, message in (
        ("trailing", b"P5\n2 1\n255\n" + bytes([1, 2, 3]), "1 bytes after the raster at byte offset 13"),
        ("trailing-newline", b"P5 2 1 255\n" + bytes([1, 2]) + b"\n", "1 bytes after the raster at byte offset 13"),
        ("after-maxval", b"P5\n2 1\n255#\n" + bytes([1, 2]), "expected whitespace after maxval at byte offset 10"),
        ("no-separator", b"P5\n2 1\n255" + bytes([1, 2]), "expected whitespace after maxval at byte offset 10"),
        ("magic-glued", b"P52 1 255\n" + bytes([1, 2]), "expected whitespace after the magic at byte offset 2"),
        ("magic-only", b"P5", "expected whitespace after the magic at byte offset 2"),
        ("m", b"P5\nx 2\n255\n", "expected the width, a decimal number, at byte offset 3"),
        ("height-sign", b"P5 2 -1 255\n", "expected the height, a decimal number, at byte offset 5"),
        ("width-only", b"P5\n2", "expected the height, a decimal number, at byte offset 4"),
        ("no-maxval", b"P5\n2 2 # no maxval", "expected the maxval, a decimal number, at byte offset 18"),
    ):
        bad = tmp_path / f"{name}.pgm"
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=f"{name}.pgm: {message}$"):
            read_pnm(bad)


def test_load_image_dir(tmp_path):
    for cls in ("beta", "alpha"):
        d = tmp_path / cls
        d.mkdir()
        for i in range(3):
            write_pnm(d / f"img{i}.pgm", np.full((1, 4, 4), i / 4))
    ds = load_image_dir(tmp_path)
    assert len(ds) == 6
    assert ds.class_names == ["alpha", "beta"]  # lexicographic
    assert ds.labels.tolist() == [0, 0, 0, 1, 1, 1]
    assert ds.images.shape == (6, 1, 4, 4)
    assert np.rint(ds.images[:, 0, 0, 0] * 4).tolist() == [0, 1, 2] * 2  # img0, img1, img2


def test_load_image_dir_errors(tmp_path):
    with pytest.raises(ValueError, match="no class"):
        load_image_dir(tmp_path)
    d = tmp_path / "empty"
    d.mkdir()
    with pytest.raises(ValueError, match="empty class"):
        load_image_dir(tmp_path)
    write_pnm(d / "a.pgm", np.zeros((1, 4, 4)))
    d2 = tmp_path / "other"
    d2.mkdir()
    write_pnm(d2 / "b.pgm", np.zeros((1, 5, 5)))
    with pytest.raises(ValueError, match="shape"):
        load_image_dir(tmp_path)


def test_pnm_roundtrip_quantization_bound(tmp_path):
    ds = generate_synthetic(per_class=2, size=10, seed=3)
    for k, img in enumerate(ds.images[:4]):
        path = tmp_path / f"{k}.pgm"
        write_pnm(path, img)
        back = read_pnm(path)
        assert np.max(np.abs(back - img)) <= 1 / (2 * 255) + 1e-12


def test_pnm_roundtrip_rgb(tmp_path):
    s = np.linspace(0, 1, 3 * 4 * 5).reshape(3, 4, 5)
    path = tmp_path / "x.ppm"
    write_pnm(path, s)
    back = read_pnm(path)
    assert back.shape == s.shape
    assert np.max(np.abs(back - s)) <= 1 / (2 * 255) + 1e-12


@st.composite
def pixmaps(draw):
    """(image, maxval) for write_pnm: a [C, H, W] image of any floats but NaN,
    with 1 or 3 channels."""
    shape = (draw(st.sampled_from([1, 3])), draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    image = draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False)))
    return image, draw(st.integers(1, 255))


# each example overwrites the one file it writes in tmp_path
PIXMAP_SETTINGS = settings(max_examples=80, deadline=None,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(pixmaps())
@PIXMAP_SETTINGS
def test_pnm_round_trip_is_the_quantized_image(tmp_path, pixmap):
    img, maxval = pixmap
    path = tmp_path / "p.pnm"
    write_pnm(path, img, maxval)
    # + 0.0: a pixmap sample has no sign, so -0.0 reads back as 0.0
    expected = np.rint(np.clip(img, 0, 1) * maxval) / maxval + 0.0
    back = read_pnm(path)
    assert back.shape == img.shape and back.tobytes() == expected.tobytes()


@given(pixmaps(), st.data())
@PIXMAP_SETTINGS
def test_pnm_header_corruption_reads_the_image_or_fails_naming_the_file(tmp_path, pixmap, data):
    img, maxval = pixmap
    path = tmp_path / "p.pnm"
    write_pnm(path, img, maxval)
    buf = bytearray(path.read_bytes())
    c, h, w = img.shape
    header = len(b"P5\n%d %d\n%d\n" % (w, h, maxval))
    at = data.draw(st.integers(0, header - 1), label="offset")
    buf[at] = data.draw(st.integers(0, 255), label="byte")
    path.write_bytes(buf)
    try:
        back = read_pnm(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    # a digit written over maxval's makes another valid maxval for the same samples
    maxval_digits = buf[header - 1 - len(str(maxval)):header - 1]
    expected = np.rint(np.clip(img, 0, 1) * maxval) / int(maxval_digits) + 0.0
    assert back.shape == img.shape and back.tobytes() == expected.tobytes()


# --- folds ---------------------------------------------------------------------


def test_make_folds_balanced():
    ds = generate_synthetic(per_class=25, size=8, seed=0)
    plan = make_folds(ds, k=5, seed=0)
    labels = ds.labels
    for fold in plan.folds:
        assert len(fold) == 20
        per_class = [sum(1 for i in fold if labels[i] == c) for c in range(4)]
        assert per_class == [5, 5, 5, 5]


def test_make_folds_ucm_shaped():
    # 21 classes x 100 samples -> five folds of 420
    ds = Dataset(np.zeros((2100, 1, 1, 1)), np.repeat(np.arange(21), 100),
                 [f"c{c}" for c in range(21)])
    plan = make_folds(ds, k=5, seed=7)
    assert [len(f) for f in plan.folds] == [420] * 5


def test_make_folds_class_too_small():
    ds = Dataset(np.zeros((3, 1, 1, 1)), np.zeros(3), ["only"])
    with pytest.raises(ValueError, match="needs >= 5"):
        make_folds(ds, k=5, seed=0)
    # the message names the config fields that set the counts
    with pytest.raises(ValueError, match=r"^class 'only' has 3 samples, needs >= 4: one per fold "
                                         r"at folds = 4 \(raise per_class, add images, or "
                                         r"lower folds\)$"):
        make_folds(ds, k=4, seed=0)


def test_make_folds_remainder_to_lowest():
    ds = Dataset(np.zeros((7, 1, 1, 1)), np.zeros(7), ["only"])
    plan = make_folds(ds, k=5, seed=0)
    assert [len(f) for f in plan.folds] == [2, 2, 1, 1, 1]


@given(st.integers(1, 4), st.lists(st.integers(5, 23), min_size=1, max_size=4),
       st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_fold_partition_properties(k_extra, class_sizes, seed):
    k = 5
    labels = np.repeat(np.arange(len(class_sizes)), class_sizes)
    ds = Dataset(np.zeros((len(labels), 1, 1, 1)), labels,
                 [f"c{c}" for c in range(len(class_sizes))])
    plan = make_folds(ds, k=k, seed=seed)
    all_idx = sorted(i for f in plan.folds for i in f)
    assert all_idx == list(range(len(labels)))  # disjoint union = everything
    for c, sz in enumerate(class_sizes):
        per_fold = [sum(1 for i in f if labels[i] == c) for f in plan.folds]
        assert max(per_fold) - min(per_fold) <= 1  # stratified


def test_fold_plan_export(tmp_path):
    ds = generate_synthetic(per_class=5, size=8, seed=0)
    plan = make_folds(ds, k=5, seed=0)
    path = tmp_path / "folds.txt"
    write_fold_plan(path, plan)
    text = path.read_text()
    assert text.startswith("# seed = 0\n")
    assert len([l for l in text.splitlines() if l.startswith("fold ")]) == 5

"""Datasets and the stratified five-fold cross-validation protocol.

Images are read-only float64 [channels, H, W] arrays with values in [0, 1]. The
synthetic generator produces four separable texture classes at desk scale;
load_image_dir ingests binary portable pixmaps (P5 grayscale / P6 RGB),
one subdirectory per class.
"""

from dataclasses import dataclass
import re
from pathlib import Path

import numpy as np

from .rng import normal_from_bits, stream, uniform_from_bits

NOISE_SIGMA = 0.05


@dataclass
class Dataset:
    """N images and their labels, each label an index into class_names.
    Built from array-likes, it holds read-only copies: images a float64
    [N, C, H, W] array, labels an int64 [N] array."""

    images: np.ndarray
    labels: np.ndarray
    class_names: list

    def __post_init__(self):
        self.images = np.array(self.images, dtype=np.float64)
        self.labels = np.array(self.labels, dtype=np.int64)
        self.images.setflags(write=False)
        self.labels.setflags(write=False)
        if self.images.ndim != 4 or self.labels.shape != self.images.shape[:1]:
            raise ValueError(f"need images [N, C, H, W] and N labels, got shapes "
                             f"{self.images.shape} and {self.labels.shape}")
        for label in self.labels:
            if not 0 <= label < len(self.class_names):
                raise ValueError(f"label {label} out of range")

    def __len__(self):
        return len(self.labels)

    def stacked(self):
        """(images [N,C,H,W], labels [N]) as plain arrays for the trainer."""
        return self.images, self.labels


@dataclass
class FoldPlan:
    folds: list  # k lists of sample indices
    seed: int

    @property
    def k(self):
        return len(self.folds)

    def train_indices(self, fold):
        return [i for f, idxs in enumerate(self.folds) if f != fold for i in idxs]


# ---------------------------------------------------------------------------
# synthetic data


# class -> the (low, high) of each of its per-sample jitter uniforms, in
# label order
_JITTER = {
    "blob": ((-1.5, 1.5), (-1.5, 1.5), (0.0, 1.0)),  # centre offsets, width
    "checkerboard": ((-0.5, 0.5), (-0.5, 0.5)),  # x and y phase
    "gradient": ((-0.15, 0.15),),  # offset
    "stripes": ((-0.5, 0.5),),  # phase
}
SYNTHETIC_CLASSES = tuple(_JITTER)


def _textures(name, size, jitter):
    """[count, size, size] textures of one class, from its [count, k] jitter
    values."""
    # phase jitter is kept small so every class stays linearly separable
    # from raw pixels (the regression baseline in the tests depends on it)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    j = [jitter[:, i, None, None] for i in range(jitter.shape[1])]
    if name == "stripes":
        return 0.5 + 0.5 * np.sin(2 * np.pi * (yy + j[0]) / 4.0)
    if name == "checkerboard":
        return 0.5 + 0.5 * np.sign(
            np.sin(2 * np.pi * (xx + j[0]) / 4.0) * np.sin(2 * np.pi * (yy + j[1]) / 4.0)
        )
    if name == "blob":
        cx, cy = size / 2 + j[0], size / 2 + j[1]
        width = size * (0.15 + 0.1 * j[2])
        return np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * width**2))
    return (xx + yy) / (2 * (size - 1)) + j[0]  # gradient


def generate_synthetic(per_class=25, size=16, seed=0) -> Dataset:
    """Four procedural texture classes with per-sample jitter and noise.
    Pure function of (arguments, seed).

    Each class draws all its samples' values in one call on its stream.
    A sample's row of it holds, in turn, its jitter uniforms, its contrast
    uniform and the two halves of its pixel noise's Box-Muller pairs."""
    if size < 8:
        raise ValueError(f"size must be >= 8, got {size}")
    pixels = size * size
    pairs = (pixels + 1) // 2
    labels = np.repeat(np.arange(len(SYNTHETIC_CLASSES)), per_class)
    images = np.empty((labels.size, 1, size, size))
    for label, (name, jitter) in enumerate(_JITTER.items()):
        k = len(jitter)
        bits = stream(seed, f"synthetic/{name}").raw(per_class * (k + 1 + 2 * pairs))
        bits = bits.reshape(per_class, k + 1 + 2 * pairs)
        low, high = np.array(jitter + ((0.0, 1.0),)).T  # the contrast's last
        uniforms = uniform_from_bits(bits[:, :k + 1], low, high)
        img = _textures(name, size, uniforms[:, :k])
        contrast = 0.7 + 0.3 * uniforms[:, k, None, None]
        img = 0.5 + contrast * (img - 0.5)
        noise = normal_from_bits(bits[:, k + 1:k + 1 + pairs], bits[:, k + 1 + pairs:], pixels)
        img += (NOISE_SIGMA * noise).reshape(img.shape)
        np.clip(img, 0.0, 1.0, out=images[label * per_class:(label + 1) * per_class, 0])
    return Dataset(images, labels, list(SYNTHETIC_CLASSES))


# ---------------------------------------------------------------------------
# portable pixmap IO (binary P5/P6 only)


def _read_pnm_header(buf, path):
    # magic, whitespace, then 3 decimal fields (width height maxval) with
    # '#' comments allowed between tokens, then one whitespace byte
    if not buf[2:3].isspace():
        raise ValueError(f"{path}: expected whitespace after the magic at byte offset 2")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos : pos + 1] == b"#":
            while pos < len(buf) and buf[pos : pos + 1] != b"\n":
                pos += 1
            continue
        m = re.match(rb"\d+", buf[pos:])
        if not m:
            name = ("width", "height", "maxval")[len(fields)]
            raise ValueError(f"{path}: expected the {name}, a decimal number, at byte offset {pos}")
        fields.append(int(m.group()))
        pos += m.end()
    if not buf[pos:pos + 1].isspace():
        raise ValueError(f"{path}: expected whitespace after maxval at byte offset {pos}")
    return fields[0], fields[1], fields[2], pos + 1


def read_pnm(path) -> np.ndarray:
    """Decode a binary P5 (grayscale) or P6 (RGB) file to a read-only
    float64 [C,H,W] array scaled to [0, 1]."""
    buf = Path(path).read_bytes()
    magic = buf[:2]
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"{path}: expected binary P5/P6, got {magic!r}")
    width, height, maxval, offset = _read_pnm_header(buf, path)
    if width == 0 or height == 0:
        raise ValueError(f"{path}: image has no pixels ({width}x{height})")
    if not 0 < maxval < 256:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    raster = buf[offset : offset + need]
    if len(raster) != need:
        raise ValueError(f"{path}: truncated raster ({len(raster)} of {need} bytes)")
    if len(buf) > offset + need:
        raise ValueError(f"{path}: {len(buf) - offset - need} bytes after the raster "
                         f"at byte offset {offset + need}")
    samples = np.frombuffer(raster, dtype=np.uint8)
    above = np.flatnonzero(samples > maxval)
    if above.size:
        raise ValueError(f"{path}: sample {samples[above[0]]} above maxval {maxval} "
                         f"at byte offset {offset + above[0]}")
    arr = samples.astype(np.float64) / maxval
    arr = np.ascontiguousarray(arr.reshape(height, width, channels).transpose(2, 0, 1))
    arr.setflags(write=False)
    return arr


def write_pnm(path, image: np.ndarray, maxval=255):
    """Quantize a [C,H,W] array in [0,1] to binary P5 (1 channel) or
    P6 (3 channels)."""
    arr = np.asarray(image)
    c, h, w = arr.shape
    magic = {1: b"P5", 3: b"P6"}.get(c)
    if magic is None:
        raise ValueError(f"can only write 1- or 3-channel images, got {c}")
    raster = np.rint(np.clip(arr, 0, 1) * maxval).astype(np.uint8)
    raster = raster.transpose(1, 2, 0)
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n%d\n" % (w, h, maxval))
        f.write(raster.tobytes())


def load_image_dir(root) -> Dataset:
    """One subdirectory per class, holding *.pgm / *.ppm files. Class order
    and sample order are lexicographic, independent of filesystem order."""
    root = Path(root)
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not class_dirs:
        raise ValueError(f"{root}: no class subdirectories")
    images, labels, class_names = [], [], []
    for label, d in enumerate(class_dirs):
        class_names.append(d.name)
        files = sorted(p for p in d.iterdir() if p.suffix in (".pgm", ".ppm"))
        if not files:
            raise ValueError(f"{d}: empty class directory")
        for p in files:
            img = read_pnm(p)
            if images and img.shape != images[0].shape:
                raise ValueError(f"{p}: image shape {img.shape} != expected {images[0].shape}")
            images.append(img)
            labels.append(label)
    return Dataset(images, labels, class_names)


# ---------------------------------------------------------------------------
# folds


def make_folds(dataset: Dataset, k=5, seed=0) -> FoldPlan:
    """Stratified k-fold: per-class shuffle, then round-robin so fold sizes
    per class differ by at most one (extras land in the lowest folds)."""
    by_class = {}
    for idx, label in enumerate(dataset.labels.tolist()):
        by_class.setdefault(label, []).append(idx)
    folds = [[] for _ in range(k)]
    for label in sorted(by_class):
        idxs = by_class[label]
        if len(idxs) < k:
            raise ValueError(
                f"class {dataset.class_names[label]!r} has {len(idxs)} samples, needs >= {k}: "
                f"one per fold at folds = {k} (raise per_class, add images, or lower folds)"
            )
        perm = stream(seed, f"folds/class{label}").permutation(len(idxs))
        for t, p in enumerate(perm):
            folds[t % k].append(idxs[p])
    return FoldPlan([sorted(f) for f in folds], seed)


def write_fold_plan(path, plan: FoldPlan):
    with open(path, "w") as f:
        f.write(f"# seed = {plan.seed}\n")
        for i, fold in enumerate(plan.folds):
            f.write(f"fold {i}: " + " ".join(str(j) for j in fold) + "\n")

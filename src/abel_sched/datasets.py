"""Deterministic datasets: synthetic classification tasks and IDX image files.

Synthetic generators apply label noise to the training split only: with
probability ``label_noise`` a training label is replaced by a uniformly
drawn *different* class. For well-separated classes that makes the
irreducible training error of any non-memorizing classifier equal to the
noise rate, while test labels stay clean.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DatasetError(ValueError):
    """Raised for unreadable dataset files or invalid generator parameters."""


@dataclass(frozen=True)
class BlobsSpec:
    """Gaussian class clusters in ``dim`` dimensions.

    Class means are drawn on a sphere of radius ``separation``; unit
    isotropic noise is added per sample, so small separations give
    overlapping classes and a nonzero Bayes error.
    """

    classes: int = 4
    dim: int = 20
    samples: int = 4096
    test_samples: int = 4096
    label_noise: float = 0.0
    separation: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.classes < 2 or self.dim < 1 or self.samples < 1 or self.test_samples < 1:
            raise DatasetError("blobs need classes >= 2, dim >= 1 and positive sample counts")
        if self.seed < 0:
            raise DatasetError("dataset seed must be >= 0")
        if not 0.0 <= self.label_noise < 1.0:
            raise DatasetError("label_noise must lie in [0, 1)")
        if not self.separation > 0:
            raise DatasetError("separation must be > 0")


@dataclass(frozen=True)
class SpiralsSpec:
    """Two interleaved planar spirals, the classic non-linearly-separable pair."""

    samples: int = 2048
    test_samples: int = 2048
    turns: float = 1.75
    jitter: float = 0.15
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 1 or self.test_samples < 1:
            raise DatasetError("spirals need positive sample counts")
        if self.seed < 0:
            raise DatasetError("dataset seed must be >= 0")
        if not 0.0 <= self.label_noise < 1.0:
            raise DatasetError("label_noise must lie in [0, 1)")


@dataclass(frozen=True)
class IdxSpec:
    """Image/label pairs in the big-endian IDX format, e.g. the MNIST files.

    ``path`` is a directory holding ``train-images-idx3-ubyte``,
    ``train-labels-idx1-ubyte``, ``t10k-images-idx3-ubyte`` and
    ``t10k-labels-idx1-ubyte`` (optionally ``.gz``). ``subsample`` keeps the
    first n examples of each split (0 keeps everything). Loading refuses a
    test label above every training label.
    """

    path: str = ""
    subsample: int = 0

    def __post_init__(self) -> None:
        if not self.path:
            raise DatasetError("idx datasets need a path")
        if self.subsample < 0:
            raise DatasetError("subsample must be >= 0")


DatasetSpec = BlobsSpec | SpiralsSpec | IdxSpec

Split = tuple[np.ndarray, np.ndarray]  # (inputs, integer labels)


def _apply_label_noise(labels: np.ndarray, classes: int, noise: float,
                       rng: np.random.Generator) -> np.ndarray:
    if noise == 0.0:
        return labels
    flip = rng.random(labels.shape[0]) < noise
    # uniform over the other classes: shift by 1..classes-1 modulo classes
    offsets = rng.integers(1, classes, size=labels.shape[0])
    noisy = labels.copy()
    noisy[flip] = (labels[flip] + offsets[flip]) % classes
    return noisy


def make_dataset(spec: DatasetSpec) -> tuple[Split, Split]:
    """Build (train, test) splits; deterministic in the spec."""
    if isinstance(spec, BlobsSpec):
        return _make_blobs(spec)
    if isinstance(spec, SpiralsSpec):
        return _make_spirals(spec)
    if isinstance(spec, IdxSpec):
        return _load_idx_dataset(spec)
    raise DatasetError(f"unknown dataset spec {type(spec).__name__}")


def _make_blobs(spec: BlobsSpec) -> tuple[Split, Split]:
    rng = np.random.default_rng(spec.seed)
    means = rng.normal(size=(spec.classes, spec.dim))
    means *= spec.separation / np.linalg.norm(means, axis=1, keepdims=True)

    def draw(n: int, noisy: bool) -> Split:
        labels = rng.integers(0, spec.classes, size=n)
        x = means[labels] + rng.normal(size=(n, spec.dim))
        y = _apply_label_noise(labels, spec.classes, spec.label_noise, rng) if noisy else labels
        return x, y

    train = draw(spec.samples, noisy=True)
    test = draw(spec.test_samples, noisy=False)
    return train, test


def _spiral_points(n: int, turns: float, jitter: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    t = rng.random(n)
    radius = 0.2 + 0.8 * t
    angle = 2.0 * np.pi * turns * t
    cls = rng.integers(0, 2, size=n)
    angle = angle + np.pi * cls
    x = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    x += jitter * rng.normal(size=x.shape)
    return x, cls


def _make_spirals(spec: SpiralsSpec) -> tuple[Split, Split]:
    rng = np.random.default_rng(spec.seed)
    xtr, ytr = _spiral_points(spec.samples, spec.turns, spec.jitter, rng)
    ytr = _apply_label_noise(ytr, 2, spec.label_noise, rng)
    xte, yte = _spiral_points(spec.test_samples, spec.turns, spec.jitter, rng)
    return (xtr, ytr), (xte, yte)


# -- IDX files ----------------------------------------------------------------


def _open_maybe_gz(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _find_idx_file(directory: Path, stem: str) -> Path:
    for candidate in (directory / stem, directory / (stem + ".gz")):
        if candidate.exists():
            return candidate
    raise DatasetError(f"missing IDX file {stem}(.gz) under {directory}")


def read_idx_images(path: str | Path) -> np.ndarray:
    """Read an IDX image file into a float array in [0, 1], shape (n, rows, cols)."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    with _open_maybe_gz(path) as f:
        header = f.read(16)
        if len(header) != 16:
            raise DatasetError(f"{path}: truncated IDX header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise DatasetError(f"{path}: bad magic 0x{magic:08x}, expected images file")
        data = f.read(count * rows * cols)
        if len(data) != count * rows * cols:
            raise DatasetError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(count, rows, cols)
    return pixels.astype(np.float64) / 255.0


def read_idx_labels(path: str | Path) -> np.ndarray:
    """Read an IDX label file into an int array of shape (n,)."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    with _open_maybe_gz(path) as f:
        header = f.read(8)
        if len(header) != 8:
            raise DatasetError(f"{path}: truncated IDX header")
        magic, count = struct.unpack(">II", header)
        if magic != IDX_LABELS_MAGIC:
            raise DatasetError(f"{path}: bad magic 0x{magic:08x}, expected labels file")
        data = f.read(count)
        if len(data) != count:
            raise DatasetError(f"{path}: truncated label data")
    return np.frombuffer(data, dtype=np.uint8).astype(np.int64)


def write_idx_images(path: str | Path, images: np.ndarray) -> None:
    """Write (n, rows, cols) uint8 pixels in IDX format (test and tooling aid)."""
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, *images.shape))
        f.write(images.tobytes())


def write_idx_labels(path: str | Path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def _load_idx_dataset(spec: IdxSpec) -> tuple[Split, Split]:
    directory = Path(spec.path)
    if not directory.is_dir():
        raise DatasetError(f"dataset path is not a directory: {directory}")

    def load(images_stem: str, labels_stem: str) -> Split:
        images = read_idx_images(_find_idx_file(directory, images_stem))
        labels = read_idx_labels(_find_idx_file(directory, labels_stem))
        if images.shape[0] != labels.shape[0]:
            raise DatasetError("image and label counts differ")
        if not images.shape[0]:
            raise DatasetError(f"{images_stem} holds no images")
        if spec.subsample > 0:
            images = images[:spec.subsample]
            labels = labels[:spec.subsample]
        return images.reshape(images.shape[0], -1), labels

    train = load("train-images-idx3-ubyte", "train-labels-idx1-ubyte")
    test = load("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
    # the class count is read off the training labels (dataset_meta), so a
    # test label above them would have no output to land on
    top = int(train[1].max()) if train[1].size else -1
    if test[1].size and int(test[1].max()) > top:
        raise DatasetError(
            f"test labels reach class {int(test[1].max())} but the "
            f"{train[1].size} training labels stop at {top}; raise dataset.subsample "
            "or use a training set that holds every class")
    return train, test


def dataset_meta(spec: DatasetSpec, train: Split) -> dict:
    """Input dimension and class count, as the harness needs them."""
    x, y = train
    classes = int(y.max()) + 1 if y.size else 0
    if isinstance(spec, BlobsSpec):
        classes = spec.classes
    elif isinstance(spec, SpiralsSpec):
        classes = 2
    return {"input_dim": int(x.shape[1]), "classes": classes}

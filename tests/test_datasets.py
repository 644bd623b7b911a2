import gzip
import struct

import numpy as np
import pytest

from abel_sched import (
    BlobsSpec,
    DatasetError,
    IdxSpec,
    SpiralsSpec,
    make_dataset,
    read_idx_images,
    read_idx_labels,
)
from abel_sched.cli import main as cli_main
from abel_sched.datasets import dataset_meta, write_idx_images, write_idx_labels


def test_blobs_deterministic_in_spec():
    spec = BlobsSpec(samples=100, test_samples=50, seed=3)
    (xa, ya), (ta, sa) = make_dataset(spec)
    (xb, yb), (tb, sb) = make_dataset(spec)
    np.testing.assert_array_equal(xa, xb)
    np.testing.assert_array_equal(ya, yb)
    np.testing.assert_array_equal(ta, tb)
    np.testing.assert_array_equal(sa, sb)


def test_blobs_label_noise_floor_matches_bayes_oracle():
    """With far-apart classes the nearest-mean (Bayes) classifier errs exactly
    on the flipped train labels, so its train error is the noise rate."""
    spec = BlobsSpec(classes=4, dim=20, samples=4000, test_samples=1000,
                     label_noise=0.2, separation=12.0, seed=5)
    (xtr, ytr), (xte, yte) = make_dataset(spec)

    rng = np.random.default_rng(spec.seed)  # regenerate the class means
    means = rng.normal(size=(spec.classes, spec.dim))
    means *= spec.separation / np.linalg.norm(means, axis=1, keepdims=True)

    def bayes(x):
        d = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        return d.argmin(axis=1)

    train_err = (bayes(xtr) != ytr).mean()
    assert abs(train_err - spec.label_noise) < 0.02
    # test labels are clean, so the same classifier is near-perfect there
    assert (bayes(xte) != yte).mean() < 0.01


def test_blobs_without_noise_is_separable():
    spec = BlobsSpec(classes=3, dim=10, samples=500, test_samples=500,
                     label_noise=0.0, separation=12.0, seed=1)
    (xtr, ytr), _ = make_dataset(spec)
    rng = np.random.default_rng(spec.seed)
    means = rng.normal(size=(3, 10))
    means *= 12.0 / np.linalg.norm(means, axis=1, keepdims=True)
    d = ((xtr[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert (d.argmin(axis=1) != ytr).mean() < 0.005


def test_blobs_validation():
    with pytest.raises(DatasetError):
        make_dataset(BlobsSpec(classes=1))
    with pytest.raises(DatasetError):
        make_dataset(BlobsSpec(label_noise=1.0))


def test_spirals_shapes_and_determinism():
    spec = SpiralsSpec(samples=128, test_samples=64, seed=2)
    (xtr, ytr), (xte, yte) = make_dataset(spec)
    assert xtr.shape == (128, 2) and ytr.shape == (128,)
    assert xte.shape == (64, 2)
    assert set(np.unique(ytr)) <= {0, 1}
    (xb, yb), _ = make_dataset(spec)
    np.testing.assert_array_equal(xtr, xb)


def test_idx_round_trip(tmp_path):
    images = np.arange(4 * 3 * 2, dtype=np.uint8).reshape(4, 3, 2)
    labels = np.array([0, 1, 2, 1], dtype=np.uint8)
    write_idx_images(tmp_path / "imgs", images)
    write_idx_labels(tmp_path / "labs", labels)
    back = read_idx_images(tmp_path / "imgs")
    assert back.shape == (4, 3, 2)
    np.testing.assert_allclose(back * 255.0, images, atol=1e-12)
    np.testing.assert_array_equal(read_idx_labels(tmp_path / "labs"), labels)


def test_idx_gzip_variant(tmp_path):
    images = np.full((2, 4, 4), 7, dtype=np.uint8)
    raw = struct.pack(">IIII", 0x803, 2, 4, 4) + images.tobytes()
    with gzip.open(tmp_path / "imgs.gz", "wb") as f:
        f.write(raw)
    back = read_idx_images(tmp_path / "imgs.gz")
    assert back.shape == (2, 4, 4)
    assert np.all(back == 7 / 255.0)


def test_idx_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">IIII", 0x801, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(DatasetError, match="magic"):
        read_idx_images(path)
    path.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 4)
    with pytest.raises(DatasetError, match="truncated"):
        read_idx_images(path)
    with pytest.raises(DatasetError):
        read_idx_images(tmp_path / "missing")
    lab = tmp_path / "lab"
    lab.write_bytes(struct.pack(">II", 0x999, 1) + b"\x00")
    with pytest.raises(DatasetError, match="magic"):
        read_idx_labels(lab)


def _write_idx_dataset(root, n_train=6, n_test=4, side=8):
    rng = np.random.default_rng(0)
    write_idx_images(root / "train-images-idx3-ubyte",
                     rng.integers(0, 256, size=(n_train, side, side)).astype(np.uint8))
    write_idx_labels(root / "train-labels-idx1-ubyte",
                     rng.integers(0, 3, size=n_train).astype(np.uint8))
    write_idx_images(root / "t10k-images-idx3-ubyte",
                     rng.integers(0, 256, size=(n_test, side, side)).astype(np.uint8))
    write_idx_labels(root / "t10k-labels-idx1-ubyte",
                     rng.integers(0, 3, size=n_test).astype(np.uint8))


def test_idx_dataset_loading_and_subsample(tmp_path):
    _write_idx_dataset(tmp_path)
    (xtr, ytr), (xte, yte) = make_dataset(IdxSpec(path=str(tmp_path)))
    assert xtr.shape == (6, 64) and xte.shape == (4, 64)
    (xtr2, _), (xte2, _) = make_dataset(IdxSpec(path=str(tmp_path), subsample=3))
    assert xtr2.shape == (3, 64) and xte2.shape == (3, 64)
    np.testing.assert_array_equal(xtr2, xtr[:3])
    meta = dataset_meta(IdxSpec(path=str(tmp_path)), (xtr, ytr))
    assert meta["input_dim"] == 64


def test_idx_test_labels_past_the_training_classes_are_refused(tmp_path, capsys):
    """The class count is one past the largest training label, so a subsample
    whose training rows miss the top class its test rows hold is refused at
    load, before any training, and the CLI reports it with exit code 2."""
    images = np.random.default_rng(0).integers(0, 256, size=(6, 8, 8)).astype(np.uint8)
    write_idx_images(tmp_path / "train-images-idx3-ubyte", images)
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.array([0, 1, 0, 2, 1, 0]))
    write_idx_images(tmp_path / "t10k-images-idx3-ubyte", images[:4])
    write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", np.array([1, 2, 0, 1]))
    make_dataset(IdxSpec(path=str(tmp_path)))  # both whole splits hold classes 0-2
    with pytest.raises(DatasetError, match="test labels reach class 2"):
        make_dataset(IdxSpec(path=str(tmp_path), subsample=3))
    config = tmp_path / "c.txt"
    config.write_text(f"epochs = 1\nbase_lr = 0.1\nbatch_size = 3\nlog_dir = {tmp_path / 'run'}\n"
                      f"dataset.kind = idx\ndataset.path = {tmp_path}\n"
                      "dataset.subsample = 3\nmodel.hidden = 4\n")
    assert cli_main(["run", str(config)]) == 2
    assert "test labels reach class 2" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("empty", ["t10k", "train"])
def test_an_idx_split_of_zero_images_is_refused(tmp_path, capsys, empty):
    """A valid header with a count of 0 used to end in a bare reshape
    ValueError (exit 1); it is a DatasetError, exit 2, before any log dir."""
    images = np.random.default_rng(0).integers(0, 256, size=(6, 8, 8)).astype(np.uint8)
    labels = np.array([0, 1, 0, 2, 1, 0])
    for split in ("train", "t10k"):
        n = 0 if split == empty else 6
        write_idx_images(tmp_path / f"{split}-images-idx3-ubyte", images[:n])
        write_idx_labels(tmp_path / f"{split}-labels-idx1-ubyte", labels[:n])
    with pytest.raises(DatasetError, match=f"{empty}-images-idx3-ubyte holds no images"):
        make_dataset(IdxSpec(path=str(tmp_path)))
    config = tmp_path / "c.txt"
    config.write_text(f"epochs = 1\nbase_lr = 0.1\nbatch_size = 3\nlog_dir = {tmp_path / 'run'}\n"
                      f"dataset.kind = idx\ndataset.path = {tmp_path}\nmodel.hidden = 4\n")
    assert cli_main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "holds no images" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("spec", [BlobsSpec, SpiralsSpec])
def test_a_negative_generator_seed_is_refused(spec):
    with pytest.raises(DatasetError, match="seed must be >= 0"):
        spec(seed=-1)
    spec(seed=0)


def test_idx_dataset_missing_directory():
    with pytest.raises(DatasetError):
        make_dataset(IdxSpec(path="/nonexistent/dir"))

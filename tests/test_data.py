import json
import struct

import numpy as np
import pytest

from rml_lab.data import (
    Dataset,
    generate_digits_dataset,
    generate_shapes_dataset,
    ingest_mnist_idx,
    load_dataset,
    make_split,
    read_idx,
    save_dataset,
    save_split,
    write_idx,
)
from rml_lab.errors import ConfigError, FormatError


# ---------------------------------------------------------------------------
# IDX format
# ---------------------------------------------------------------------------


def test_idx_roundtrip_u8(tmp_path):
    arr = np.arange(60, dtype=np.uint8).reshape(3, 4, 5)
    path = tmp_path / "t.idx"
    write_idx(arr, path)
    back = read_idx(path)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, arr)
    write_idx(back, tmp_path / "t2.idx")
    assert (tmp_path / "t.idx").read_bytes() == (tmp_path / "t2.idx").read_bytes()


def test_idx_roundtrip_f32(tmp_path):
    arr = np.random.default_rng(0).random((4, 3)).astype(np.float32)
    path = tmp_path / "f.idx"
    write_idx(arr, path)
    np.testing.assert_array_equal(read_idx(path), arr)


def test_idx_mnist_style_header(tmp_path):
    # header parse oracle: the canonical MNIST train-images header
    path = tmp_path / "h.idx"
    payload = np.zeros(2, dtype=np.uint8)  # deliberately wrong payload size
    path.write_bytes(bytes([0, 0, 0x08, 3]) + struct.pack(">III", 60000, 28, 28)
                     + payload.tobytes())
    with pytest.raises(FormatError, match="payload"):
        read_idx(path)
    # correct small file with the same header layout parses to its dims
    arr = np.zeros((2, 28, 28), dtype=np.uint8)
    write_idx(arr, path)
    raw = path.read_bytes()
    assert raw[:4] == bytes([0, 0, 0x08, 3])
    assert struct.unpack(">III", raw[4:16]) == (2, 28, 28)
    assert read_idx(path).shape == (2, 28, 28)


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x00\x00\x00\x00" + b"\x00" * 8)
    with pytest.raises(FormatError, match="offset 0"):
        read_idx(path)


def test_idx_truncated(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(bytes([0, 0, 0x08, 2]) + struct.pack(">I", 5))
    with pytest.raises(FormatError):
        read_idx(path)


# ---------------------------------------------------------------------------
# synthetic shapes
# ---------------------------------------------------------------------------


def test_shapes_deterministic():
    a = generate_shapes_dataset(12, 16, 16, 6, 0.12, seed=5)
    b = generate_shapes_dataset(12, 16, 16, 6, 0.12, seed=5)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = generate_shapes_dataset(12, 16, 16, 6, 0.12, seed=6)
    assert not np.array_equal(a.images, c.images)


def test_shapes_label_range_and_shapes():
    ds = generate_shapes_dataset(20, 16, 16, 6, 0.12, seed=1)
    assert ds.images.shape == (20, 16, 16, 3)
    assert ds.labels.shape == (20, 16, 16)
    assert ds.labels.min() >= 0 and ds.labels.max() < 6
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_shapes_histogram_oracle():
    ds = generate_shapes_dataset(1000, 16, 16, 6, 0.12, seed=2)
    counts = np.bincount(ds.labels.ravel(), minlength=6)
    share = counts / counts.sum()
    assert share[0] > 0.5            # background dominates
    assert 0 < share[5] < 0.05       # rare class present but <5% of pixels
    assert all(counts[1:5] > 0)


def test_shapes_rejects_bad_params():
    with pytest.raises(ConfigError):
        generate_shapes_dataset(5, 8, 8, 2, 0.1, seed=0)
    with pytest.raises(ConfigError):
        generate_shapes_dataset(5, 8, 8, 4, 0.6, seed=0)


# ---------------------------------------------------------------------------
# synthetic digits
# ---------------------------------------------------------------------------


def test_digits_deterministic_and_shaped():
    a = generate_digits_dataset(40, seed=3)
    b = generate_digits_dataset(40, seed=3)
    np.testing.assert_array_equal(a.images, b.images)
    assert a.images.shape == (40, 28, 28, 1)
    assert a.labels.shape == (40, 1, 1)
    assert a.labels.min() >= 0 and a.labels.max() < 10
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0


def test_digits_classes_distinguishable():
    ds = generate_digits_dataset(400, seed=4)
    # nearest-centroid in pixel space should beat chance by a wide margin,
    # otherwise the surrogate task carries no signal
    flat = ds.images.reshape(len(ds.images), -1)
    labels = ds.labels.ravel()
    centroids = np.stack([flat[labels == d].mean(axis=0) for d in range(10)])
    pred = ((flat[:, None, :] - centroids[None]) ** 2).sum(-1).argmin(1)
    assert (pred == labels).mean() > 0.6


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_counts_and_disjoint():
    s = make_split(60000, 1 / 60, seed=0)
    assert len(s.labeled) == 1000
    assert len(s.labeled) + len(s.unlabeled) == 60000
    assert np.intersect1d(s.labeled, s.unlabeled).size == 0


def test_split_full_fraction():
    s = make_split(100, 1.0, seed=0)
    assert len(s.unlabeled) == 0
    np.testing.assert_array_equal(s.labeled, np.arange(100))


def test_split_deterministic():
    a = make_split(500, 0.1, seed=9)
    b = make_split(500, 0.1, seed=9)
    np.testing.assert_array_equal(a.labeled, b.labeled)
    np.testing.assert_array_equal(a.unlabeled, b.unlabeled)


def test_split_zero_labeled_rejected():
    with pytest.raises(ConfigError):
        make_split(100, 0.001, seed=0)


# ---------------------------------------------------------------------------
# dataset directory
# ---------------------------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    train = generate_shapes_dataset(6, 8, 8, 4, 0.1, seed=0)
    ev = generate_shapes_dataset(3, 8, 8, 4, 0.1, seed=1)
    meta = {"dataset": "shapes", "num_classes": 4}
    save_dataset(tmp_path, train, ev, meta)
    t2, e2, m2 = load_dataset(tmp_path)
    assert m2 == meta
    np.testing.assert_array_equal(t2.images, train.images)
    np.testing.assert_array_equal(t2.labels, train.labels)
    np.testing.assert_array_equal(e2.labels, ev.labels)
    # re-saving reloaded data is bit-identical
    save_dataset(tmp_path / "again", t2, e2, m2)
    assert ((tmp_path / "images.idx").read_bytes()
            == (tmp_path / "again" / "images.idx").read_bytes())


def test_digits_directory_loads_as_vectors(tmp_path):
    # 1x1 labels: load_dataset flattens each image into channels, in C order,
    # and the files keep the 28x28 images
    train = generate_digits_dataset(12, seed=5)
    ev = generate_digits_dataset(4, seed=6)
    save_dataset(tmp_path, train, ev, {"dataset": "mnist", "num_classes": 10})
    assert read_idx(tmp_path / "images.idx").shape == (12, 28, 28, 1)
    t2, e2, _ = load_dataset(tmp_path)
    assert t2.images.shape == (12, 1, 1, 784) and e2.images.shape == (4, 1, 1, 784)
    np.testing.assert_array_equal(t2.images, train.images.reshape(12, 1, 1, 784))
    np.testing.assert_array_equal(e2.images, ev.images.reshape(4, 1, 1, 784))
    np.testing.assert_array_equal(t2.labels, train.labels)


def test_empty_vector_split_loads(tmp_path):
    train = generate_digits_dataset(3, seed=5)
    empty = Dataset(np.zeros((0, 28, 28, 1), np.float32), np.zeros((0, 1, 1), np.int64),
                    np.zeros(0, np.int64))
    save_dataset(tmp_path, train, empty, {"num_classes": 10})
    _, ev, _ = load_dataset(tmp_path)
    assert ev.images.shape == (0, 1, 1, 784)


def test_split_roundtrip(tmp_path):
    s = make_split(50, 0.2, seed=3)
    path = save_split(tmp_path, s)
    blob = json.loads(path.read_text())
    assert blob == {"fraction": s.fraction, "seed": s.seed, "labeled": s.labeled.tolist(),
                    "unlabeled": s.unlabeled.tolist(), "eval": []}


def test_ingest_mnist_idx(tmp_path):
    rng = np.random.default_rng(0)
    write_idx(rng.integers(0, 256, (10, 28, 28)).astype(np.uint8),
              tmp_path / "train-images-idx3-ubyte")
    write_idx(rng.integers(0, 10, 10).astype(np.uint8),
              tmp_path / "train-labels-idx1-ubyte")
    write_idx(rng.integers(0, 256, (4, 28, 28)).astype(np.uint8),
              tmp_path / "t10k-images-idx3-ubyte")
    write_idx(rng.integers(0, 10, 4).astype(np.uint8),
              tmp_path / "t10k-labels-idx1-ubyte")
    train, ev = ingest_mnist_idx(tmp_path)
    assert train.images.shape == (10, 28, 28, 1)
    assert train.labels.shape == (10, 1, 1)
    assert ev.images.shape == (4, 28, 28, 1)
    assert train.images.max() <= 1.0


def test_ingest_mnist_missing(tmp_path):
    with pytest.raises(FormatError, match="missing MNIST"):
        ingest_mnist_idx(tmp_path)


def test_subset_by_ids():
    ds = generate_shapes_dataset(10, 8, 8, 4, 0.1, seed=0)
    sub = ds.subset(np.array([2, 5, 7]))
    np.testing.assert_array_equal(sub.ids, [2, 5, 7])
    np.testing.assert_array_equal(sub.images[1], ds.images[5])

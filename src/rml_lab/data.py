"""Datasets: IDX file io, synthetic generators, splits, directory layout.

A dataset directory holds ``images.idx`` (f32, scaled to [0,1]),
``labels.idx`` (u8 class indices), the matching ``eval_images.idx`` /
``eval_labels.idx`` pair, ``meta.json`` and optionally ``split.json``.
Classification data uses 1x1 label maps; :func:`load_dataset` flattens its
images into channels, ``(N,1,1,H*W*C)``, the vector input an mlp takes.
SciPy serves only the digits stand-in for MNIST, which imports it on first
use.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, InputError

# IDX dtype codes from the public format
_IDX_DTYPES = {0x08: np.uint8, 0x09: np.int8, 0x0B: ">i2", 0x0C: ">i4",
               0x0D: ">f4", 0x0E: ">f8"}
_IDX_CODES = {np.dtype(np.uint8): 0x08, np.dtype(np.int8): 0x09,
              np.dtype(np.int16): 0x0B, np.dtype(np.int32): 0x0C,
              np.dtype(np.float32): 0x0D, np.dtype(np.float64): 0x0E}


def read_idx(path) -> np.ndarray:
    """Read an IDX tensor (big-endian header and payload) in its raw dtype."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated IDX header at offset {len(raw)}")
    zero, dtype_code, ndim = raw[0] << 8 | raw[1], raw[2], raw[3]
    if zero != 0 or dtype_code not in _IDX_DTYPES:
        raise FormatError(f"{path}: bad IDX magic {raw[:4].hex()} at offset 0")
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise FormatError(f"{path}: truncated IDX dims at offset {len(raw)}")
    dims = struct.unpack(f">{ndim}I", raw[4:header_end])
    dtype = np.dtype(_IDX_DTYPES[dtype_code])
    numel = math.prod(dims)
    expected = header_end + numel * dtype.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload size mismatch at offset {header_end} "
            f"(have {len(raw) - header_end} bytes, need {numel * dtype.itemsize})"
        )
    try:   # an empty payload may still name more dims or entries than numpy allows
        arr = np.frombuffer(raw, dtype=dtype, offset=header_end).reshape(dims)
    except ValueError:
        raise FormatError(f"{path}: impossible IDX dims at offset 4") from None
    # normalize big-endian floats/ints to native order for computation
    return arr.astype(arr.dtype.newbyteorder("=")) if arr.dtype.byteorder == ">" else arr.copy()


def write_idx(arr: np.ndarray, path) -> None:
    """Write a tensor in IDX format (dims and payload big-endian)."""
    arr = np.asarray(arr)
    code = _IDX_CODES.get(np.dtype(arr.dtype.newbyteorder("=")))
    if code is None:
        raise InputError(f"dtype {arr.dtype} not representable in IDX")
    with open(path, "wb") as fh:
        fh.write(bytes([0, 0, code, arr.ndim]))
        for d in arr.shape:
            fh.write(struct.pack(">I", d))
        if arr.dtype.itemsize > 1:
            fh.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder(">")).tobytes())
        else:
            fh.write(np.ascontiguousarray(arr).tobytes())


@dataclass
class Dataset:
    """In-memory dataset; ids are stable keys for pseudo-label stores."""

    images: np.ndarray  # (N,H,W,Ch) float in [0,1]
    labels: np.ndarray  # (N,Hl,Wl) int class indices
    ids: np.ndarray     # (N,) int

    def __len__(self) -> int:
        return len(self.images)

    def subset(self, ids: np.ndarray) -> "Dataset":
        idx = np.searchsorted(self.ids, ids)
        if not np.array_equal(self.ids[idx], ids):
            raise InputError("requested ids not present in dataset")
        return Dataset(self.images[idx], self.labels[idx], self.ids[idx])


@dataclass
class DatasetSplit:
    labeled: np.ndarray
    unlabeled: np.ndarray
    fraction: float
    seed: int


def make_split(n_train: int, fraction: float, seed: int) -> DatasetSplit:
    """Uniform labeled/unlabeled partition of ``range(n_train)``."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"labeled fraction out of (0,1]: {fraction}")
    n_labeled = round(fraction * n_train)
    if n_labeled == 0:
        raise ConfigError(f"fraction {fraction} yields zero labeled images")
    perm = np.random.default_rng(seed).permutation(n_train)
    labeled = np.sort(perm[:n_labeled])
    unlabeled = np.sort(perm[n_labeled:])
    return DatasetSplit(labeled, unlabeled, fraction, seed)


# ---------------------------------------------------------------------------
# synthetic shapes segmentation data
# ---------------------------------------------------------------------------

# background first; class 1 (red) and the last class (worn red) are close on
# purpose so the rare class is genuinely confusable from color alone
_PALETTE = np.array([
    [0.25, 0.25, 0.25],
    [0.85, 0.30, 0.30],
    [0.30, 0.80, 0.35],
    [0.30, 0.40, 0.85],
    [0.80, 0.72, 0.30],
    [0.72, 0.38, 0.42],
    [0.40, 0.75, 0.80],
    [0.80, 0.40, 0.75],
])


def class_palette(k: int) -> np.ndarray:
    if k <= len(_PALETTE):
        return _PALETTE[:k].copy()
    rng = np.random.default_rng(0)
    extra = rng.uniform(0.2, 0.9, size=(k - len(_PALETTE), 3))
    return np.vstack([_PALETTE, extra])


def generate_shapes_dataset(n: int, h: int, w: int, k: int, rare_class_freq: float,
                            seed: int) -> Dataset:
    """Colored shapes on a dark background with per-pixel labels.

    Each image gets a global lighting draw (gain and shift shared by all
    pixels), 1-3 common shapes from classes ``1..k-2`` and, with probability
    ``rare_class_freq``, one small shape of the rare last class. Pixel color
    carries the class signal; lighting and noise (sigma 0.06) keep it non-trivial.
    """
    if n < 1:
        raise ConfigError(f"a dataset needs n >= 1 images, got {n}")
    if k < 3:
        raise ConfigError(f"shapes dataset needs K >= 3, got {k}")
    if min(h, w) < 8:  # a common shape's radius is drawn from [2, 0.28 * side)
        raise ConfigError(f"shapes images need sides >= 8, got {h}x{w}")
    if not 0.0 < rare_class_freq < 0.5:
        raise ConfigError(f"rare_class_freq out of (0,0.5): {rare_class_freq}")
    rng = np.random.default_rng(seed)
    palette = class_palette(k)
    yy, xx = np.mgrid[0:h, 0:w]
    images = np.empty((n, h, w, 3), dtype=np.float64)
    labels = np.zeros((n, h, w), dtype=np.int64)
    rare = k - 1
    for i in range(n):
        gain = rng.uniform(0.72, 1.28)
        shift = rng.uniform(-0.12, 0.12)
        label = np.zeros((h, w), dtype=np.int64)
        img = np.tile(palette[0], (h, w, 1))
        n_shapes = int(rng.integers(1, 4))
        specs = []
        for _ in range(n_shapes):
            cls = int(rng.integers(1, max(2, rare)))
            specs.append((cls, rng.uniform(2.0, min(h, w) * 0.28)))
        if rng.random() < rare_class_freq:
            specs.append((rare, rng.uniform(1.0, 2.0)))
        for cls, radius in specs:
            cy = rng.uniform(radius, h - radius)
            cx = rng.uniform(radius, w - radius)
            if rng.random() < 0.5:
                inside = (np.abs(yy - cy) <= radius) & (np.abs(xx - cx) <= radius)
            else:
                inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2
            img[inside] = palette[cls]
            label[inside] = cls
        img = img * gain + shift
        img += rng.normal(0.0, 0.06, size=img.shape)
        images[i] = np.clip(img, 0.0, 1.0)
        labels[i] = label
    return Dataset(images.astype(np.float32), labels, np.arange(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# synthetic digit classification data (MNIST drop-in when no IDX files exist)
# ---------------------------------------------------------------------------

_GLYPHS = [
    "01110 10001 10001 10001 10001 10001 01110",
    "00100 01100 00100 00100 00100 00100 01110",
    "01110 10001 00001 00110 01000 10000 11111",
    "11110 00001 00001 01110 00001 00001 11110",
    "00010 00110 01010 10010 11111 00010 00010",
    "11111 10000 11110 00001 00001 10001 01110",
    "00110 01000 10000 11110 10001 10001 01110",
    "11111 00001 00010 00100 01000 01000 01000",
    "01110 10001 10001 01110 10001 10001 01110",
    "01110 10001 10001 01111 00001 00010 01100",
]


def _glyph_bitmaps() -> np.ndarray:
    out = np.zeros((10, 7, 5))
    for d, rows in enumerate(_GLYPHS):
        for r, row in enumerate(rows.split()):
            out[d, r] = [int(c) for c in row]
    return out


def generate_digits_dataset(n: int, seed: int) -> Dataset:
    """28x28 single-channel digit images with 1x1 labels.

    Procedural stand-in for MNIST: fixed 7x5 glyphs upsampled, jittered,
    rotated, blurred and noised. Deterministic in ``seed``.
    """
    if n < 1:
        raise ConfigError(f"a dataset needs n >= 1 images, got {n}")
    from scipy import ndimage  # here, not at the top: only this generator needs it

    rng = np.random.default_rng(seed)
    glyphs = _glyph_bitmaps()
    big = glyphs.repeat(3, axis=1).repeat(3, axis=2)  # (10, 21, 15)
    images = np.zeros((n, 28, 28), dtype=np.float64)
    labels = rng.integers(0, 10, size=n)
    angles = rng.uniform(-14.0, 14.0, size=n)
    tops = rng.integers(0, 8, size=n)
    lefts = rng.integers(0, 14, size=n)
    intensities = rng.uniform(0.65, 1.0, size=n)
    blurs = rng.uniform(0.4, 0.9, size=n)
    noise = rng.normal(0.0, 0.06, size=(n, 28, 28))
    for i in range(n):
        canvas = np.zeros((28, 28))
        canvas[tops[i]:tops[i] + 21, lefts[i]:lefts[i] + 15] = big[labels[i]] * intensities[i]
        canvas = ndimage.rotate(canvas, angles[i], reshape=False, order=1)
        canvas = ndimage.gaussian_filter(canvas, blurs[i])
        images[i] = canvas
    images += noise
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images.astype(np.float32)[..., None],
                   labels.reshape(n, 1, 1).astype(np.int64),
                   np.arange(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# dataset directory layout
# ---------------------------------------------------------------------------


def save_dataset(outdir, train: Dataset, eval_set: Dataset, meta: dict) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, arr in (
        ("images.idx", train.images.astype(np.float32)),
        ("labels.idx", train.labels.astype(np.uint8)),
        ("eval_images.idx", eval_set.images.astype(np.float32)),
        ("eval_labels.idx", eval_set.labels.astype(np.uint8)),
    ):
        write_idx(arr, outdir / name)
        paths.append(outdir / name)
    meta_path = outdir / "meta.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    paths.append(meta_path)
    return paths


def _read_pair(img_path: Path, lab_path: Path, k: int) -> Dataset:
    """One images/labels pair of IDX files as a Dataset; uint8 images are
    scaled to [0,1]. Labels that do not fit the images or K are a FormatError."""
    images = read_idx(img_path)
    labels = read_idx(lab_path).astype(np.int64)
    if images.dtype == np.uint8:
        images = images.astype(np.float32) / 255.0
    images = images.astype(np.float32, copy=False)
    if images.ndim == 3:  # single channel stored without axis
        images = images[..., None]
    if labels.ndim == 1:
        labels = labels.reshape(-1, 1, 1)
    # one label map per image: 1x1 for classification, else the image's HxW
    if len(labels) != len(images) or labels.shape[1:] not in ((1, 1), images.shape[1:3]):
        raise FormatError(f"{lab_path}: labels of shape {labels.shape} do not "
                          f"match {img_path.name} of shape {images.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise FormatError(f"{lab_path}: label values outside [0, K={k})")
    return Dataset(images, labels, np.arange(len(images), dtype=np.int64))


def load_dataset(datadir):
    """Load a dataset directory; returns ``(train, eval_set, meta)``."""
    datadir = Path(datadir)
    if not (datadir / "images.idx").exists():
        raise FormatError(f"dataset directory {datadir} has no images.idx "
                          "(run gen-data first)")
    meta_path = datadir / "meta.json"
    if not meta_path.exists():
        raise FormatError(f"dataset directory {datadir} has no meta.json")
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot read {meta_path}: {exc}") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("num_classes"), int):
        raise FormatError(f"{meta_path}: expected a JSON object with an integer num_classes")

    k = meta["num_classes"]
    train = _read_pair(datadir / "images.idx", datadir / "labels.idx", k)
    eval_set = _read_pair(datadir / "eval_images.idx", datadir / "eval_labels.idx", k)
    for ds in (train, eval_set):
        if ds.labels.shape[1:] == (1, 1):   # vector data: the image flattened into channels
            ds.images = ds.images.reshape(len(ds), 1, 1, math.prod(ds.images.shape[1:]))
    return train, eval_set, meta


def save_split(datadir, split: DatasetSplit) -> Path:
    path = Path(datadir) / "split.json"
    path.write_text(json.dumps({
        "fraction": split.fraction,
        "seed": split.seed,
        "labeled": split.labeled.tolist(),
        "unlabeled": split.unlabeled.tolist(),
        "eval": [],
    }, indent=2) + "\n")
    return path


def ingest_mnist_idx(mnist_dir) -> tuple[Dataset, Dataset]:
    """Build train/eval datasets from real MNIST IDX files if present."""
    mnist_dir = Path(mnist_dir)
    names = {
        "train_images": ["train-images-idx3-ubyte", "train-images.idx3-ubyte"],
        "train_labels": ["train-labels-idx1-ubyte", "train-labels.idx1-ubyte"],
        "test_images": ["t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"],
        "test_labels": ["t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"],
    }
    found = {}
    for key, candidates in names.items():
        for cand in candidates:
            if (mnist_dir / cand).exists():
                found[key] = mnist_dir / cand
                break
        else:
            raise FormatError(f"missing MNIST file for {key} in {mnist_dir}")
    return (_read_pair(found["train_images"], found["train_labels"], 10),
            _read_pair(found["test_images"], found["test_labels"], 10))

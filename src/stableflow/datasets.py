"""Synthetic dataset generators, IDX image-file ingestion, and splits.

All generators are pure functions of their seed.  Image files use the
canonical big-endian IDX layout (magic 0x00000803 for images, 0x00000801
for labels); files are always supplied by local path, never downloaded.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import IdxFormatError, InvalidInputError
from .linalg import write_csv

SWISS_ROLL_T_MIN = np.pi / 2
SWISS_ROLL_T_MAX = 3 * np.pi


@dataclass
class LabeledDataset:
    inputs: np.ndarray   # (n, d)
    labels: np.ndarray   # (n,) integer class ids
    n_classes: int

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.labels = np.asarray(self.labels, dtype=int)
        if len(self.inputs) != len(self.labels):
            raise InvalidInputError("inputs and labels must have equal length")
        if self.labels.size and not (0 <= self.labels.min()
                                     and self.labels.max() < self.n_classes):
            raise InvalidInputError("labels must lie in [0, n_classes)")

    def __len__(self):
        return len(self.labels)

    def to_csv(self, path):
        d = self.inputs.shape[1]
        return write_csv(path, ",".join(f"x{i + 1}" for i in range(d)) + ",label",
                         [x + [y] for x, y in zip(self.inputs.tolist(), self.labels.tolist())])


def swiss_roll(n, noise=0.05, seed=0):
    """Two interleaved spiral arms in 2-d, embedded into R^4 as
    (x1, x2) -> (x1, 0, x2, 0).  Classes alternate sample by sample, so the
    class counts differ by at most one.

    Arm k in {0, 1} is (t cos(t + k pi), t sin(t + k pi)) / t_max with
    t in [pi/2, 3 pi], plus isotropic Gaussian noise of scale ``noise``.
    """
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    t = rng.uniform(SWISS_ROLL_T_MIN, SWISS_ROLL_T_MAX, size=n)
    angle = t + labels * np.pi
    plane = np.stack([t * np.cos(angle), t * np.sin(angle)], axis=1) / SWISS_ROLL_T_MAX
    if noise > 0:
        plane = plane + noise * rng.standard_normal(plane.shape)
    inputs = np.zeros((n, 4))
    inputs[:, 0] = plane[:, 0]
    inputs[:, 2] = plane[:, 1]
    return LabeledDataset(inputs=inputs, labels=labels, n_classes=2)


# --- IDX files ---------------------------------------------------------------

_IDX_UNSIGNED_BYTE = 0x08


def load_idx(path):
    """Parse an IDX file of unsigned bytes into an ndarray of its declared shape."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: truncated magic", offset=len(raw))
    zero1, zero2, dtype, ndim = struct.unpack(">BBBB", raw[:4])
    if zero1 != 0 or zero2 != 0:
        raise IdxFormatError(f"{path}: bad magic prefix {raw[:2]!r}", offset=0)
    if dtype != _IDX_UNSIGNED_BYTE:
        raise IdxFormatError(f"{path}: unsupported data type 0x{dtype:02x}", offset=2)
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise IdxFormatError(f"{path}: truncated dimension list", offset=len(raw))
    dims = struct.unpack(f">{ndim}I", raw[4:header_end])
    expected = int(np.prod(dims)) if dims else 0
    payload = raw[header_end:]
    if len(payload) != expected:
        raise IdxFormatError(
            f"{path}: payload holds {len(payload)} bytes, dimensions promise {expected}",
            offset=header_end + min(len(payload), expected))
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims).copy()


def save_idx(path, array):
    """Write an unsigned-byte array in IDX format (inverse of :func:`load_idx`)."""
    array = np.asarray(array)
    if array.dtype != np.uint8:
        raise InvalidInputError(f"IDX payload must be uint8, got {array.dtype}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">BBBB", 0, 0, _IDX_UNSIGNED_BYTE, array.ndim))
        for d in array.shape:
            fh.write(struct.pack(">I", d))
        fh.write(array.tobytes())


def subset_split(dataset, n_train, n_test, seed=0):
    """Seeded, disjoint train/test selection from a labelled dataset."""
    n = len(dataset)
    if n_train + n_test > n:
        raise InvalidInputError(
            f"cannot draw {n_train}+{n_test} samples from {n}")
    order = np.random.default_rng(seed).permutation(n)
    take_train = order[:n_train]
    take_test = order[n_train:n_train + n_test]
    return (LabeledDataset(dataset.inputs[take_train], dataset.labels[take_train],
                           dataset.n_classes),
            LabeledDataset(dataset.inputs[take_test], dataset.labels[take_test],
                           dataset.n_classes))


def downsample(images, factor=2):
    """Average pooling over factor x factor cells; (n, H, W) -> (n, H/f, W/f)."""
    images = np.asarray(images, dtype=float)
    single = images.ndim == 2
    if single:
        images = images[None]
    n, h, w = images.shape
    if h % factor or w % factor:
        raise InvalidInputError(f"image size {h}x{w} not divisible by {factor}")
    pooled = images.reshape(n, h // factor, factor, w // factor, factor).mean(axis=(2, 4))
    return pooled[0] if single else pooled


# --- synthetic image corpus --------------------------------------------------
#
# A deterministic 10-class glyph corpus standing in for an image benchmark
# when no IDX files are available locally: greyscale 28x28 templates under
# random shift, contrast, and pixel noise.

def _glyph_templates():
    idx = np.arange(28)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    r = np.sqrt((ii - 13.5) ** 2 + (jj - 13.5) ** 2)
    templates = np.zeros((10, 28, 28))
    templates[0][(ii >= 11) & (ii <= 16)] = 1.0                        # horizontal bar
    templates[1][(jj >= 11) & (jj <= 16)] = 1.0                        # vertical bar
    templates[2][((ii >= 11) & (ii <= 16)) | ((jj >= 11) & (jj <= 16))] = 1.0  # cross
    templates[3][(np.abs(ii - jj) <= 2) | (np.abs(ii + jj - 27) <= 2)] = 1.0   # X
    templates[4][(r >= 7) & (r <= 11)] = 1.0                           # ring
    templates[5][r <= 8] = 1.0                                         # disk
    templates[6][((ii // 7) + (jj // 7)) % 2 == 0] = 1.0               # checkerboard
    border = (ii <= 3) | (ii >= 24) | (jj <= 3) | (jj >= 24)
    templates[7][border] = 1.0                                         # frame
    templates[8] = np.clip((27 - ii) / 27.0, 0, 1) ** 1.5              # top gradient
    templates[9][ii + jj <= 27] = 1.0                                  # diagonal half
    return templates


def synthetic_image_corpus(n, seed=0, shift=3, noise=0.18):
    """n greyscale 28x28 uint8 images over 10 glyph classes with random
    per-sample shift, contrast, and additive noise.  Returns (images, labels).
    """
    rng = np.random.default_rng(seed)
    templates = _glyph_templates()
    labels = rng.integers(0, 10, size=n)
    images = templates[labels] * rng.uniform(0.55, 1.0, size=(n, 1, 1))
    shifts = rng.integers(-shift, shift + 1, size=(n, 2))
    for i in range(n):
        images[i] = np.roll(images[i], tuple(shifts[i]), axis=(0, 1))
    images += noise * rng.standard_normal(images.shape)
    images = np.clip(images, 0.0, 1.0)
    return (np.round(images * 255).astype(np.uint8),
            labels.astype(np.uint8))

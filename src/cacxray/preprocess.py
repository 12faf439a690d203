"""Image preprocessing chain.

Order is fixed: window clamp -> histogram equalization -> bilinear resize ->
centre crop -> standardization with pooled dataset statistics. All stages run
on float64 arrays; nothing is quantized. preprocess_uncalibrated runs the
stages before the resize once per distinct stored pixel value and resizes
only the crop window. It counts the stored pixels in row chunks and reads
them where they lie, so it makes no whole-image copy. The staged
chain, one stage per call over every pixel, is the test oracle in
tests/oracles.py, and the two agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dicom import DicomImage, real_values
from .errors import (
    DegenerateDatasetError,
    InvalidConfigError,
    MalformedFileError,
    NonPositiveWidthError,
)
from .framing import csv_rows, csv_text


@dataclass(frozen=True)
class PreprocessConfig:
    resize_dim: int = 1248
    crop_dim: int = 1024
    eq_levels: int = 256

    def __post_init__(self):
        if self.resize_dim < 1 or self.crop_dim < 1:
            raise InvalidConfigError("resize_dim and crop_dim must be positive")
        # 65535 is the largest side a DICOM image has, the bound of [synth]
        # image_dim and [model] input_dim too; far larger sides cannot be allocated
        for key in ("resize_dim", "crop_dim"):
            if getattr(self, key) > 65535:
                raise InvalidConfigError(f"{key} must be at most 65535, got {getattr(self, key)}")
        if self.crop_dim > self.resize_dim:
            raise InvalidConfigError(f"crop_dim {self.crop_dim} exceeds resize_dim {self.resize_dim}")
        if self.eq_levels < 2:
            raise InvalidConfigError("eq_levels must be at least 2")


@dataclass(frozen=True)
class DatasetStats:
    """Pooled mean and standard deviation over every pixel of a training set."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma) and self.sigma > 0):
            raise DegenerateDatasetError(
                f"pixel statistics need a finite mu and a finite positive sigma, got {self.mu}, {self.sigma}"
            )


# pixels per bincount call of preprocess_uncalibrated: bounds the intp copy
# that bincount makes of its input to 512 KiB
COUNT_CHUNK = 2**16


def window(values: np.ndarray, center: float, width: float) -> np.ndarray:
    """Clamp to the intensity window [center - width/2, center + width/2]."""
    if not width > 0:
        raise NonPositiveWidthError(f"window width must be positive, got {width}")
    lo = center - width / 2.0
    hi = center + width / 2.0
    return np.clip(np.asarray(values, dtype=np.float64), lo, hi)


def _equalize_counted(v: np.ndarray, counts: np.ndarray, levels: int) -> np.ndarray:
    """Histogram equalization by CDF remap of an image in which counts[i]
    pixels hold the value v[i]. The values are binned uniformly over
    [min, max] into ``levels`` bins and each becomes (levels - 1) * cdf(its
    bin): real-valued in [0, levels - 1], the constant levels - 1 for a
    constant image."""
    vmin = float(v.min())
    vmax = float(v.max())
    if vmax == vmin:
        return np.full(v.shape, float(levels - 1))
    bins = np.floor((v - vmin) / (vmax - vmin) * levels).astype(np.int64)
    np.clip(bins, 0, levels - 1, out=bins)
    # weighted counts are float sums of integers, exact below 2**53 pixels
    hist = np.bincount(bins, weights=counts, minlength=levels)
    cdf = np.cumsum(hist) / counts.sum()
    return (levels - 1) * cdf[bins]


def _axis_coords(src: int, dst: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # half-pixel-centre sampling, edge clamped
    pos = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    pos = np.clip(pos, 0.0, src - 1.0)
    i0 = np.floor(pos).astype(np.int64)
    i1 = np.minimum(i0 + 1, src - 1)
    return i0, i1, pos - i0


def _window_coords(src: int, dst: int, crop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Along one axis of a src -> dst resize, the output positions of the
    centre crop: the sorted source indices they read, then i0, i1 as
    positions into those indices, and the weight of i1."""
    i0, i1, f = _axis_coords(src, dst)
    window = slice((dst - crop) // 2, (dst - crop) // 2 + crop)
    i0, i1, f = i0[window], i1[window], f[window]
    read = np.zeros(src, dtype=bool)
    read[i0] = True
    read[i1] = True
    position = np.cumsum(read) - 1
    return np.flatnonzero(read), position[i0], position[i1], f


def _resize_window(values_at, shape: tuple[int, int], dim: int, crop: int) -> np.ndarray:
    """The centre (crop, crop) region of the dim x dim bilinear resize of v,
    biased toward the top-left when the margin is odd, computed on that
    window only; ``values_at(rows, cols)`` returns float64 v[np.ix_(rows, cols)].
    Separable: columns first on the source rows the window reads, then rows.
    Per output pixel that is the arithmetic of interpolating the top and the
    bottom source row, then between them, so the bits match."""
    rows, r0, r1, fr = _window_coords(shape[0], dim, crop)
    cols, c0, c1, fc = _window_coords(shape[1], dim, crop)
    v = values_at(rows, cols)
    t = v.take(c0, axis=1) * (1.0 - fc) + v.take(c1, axis=1) * fc
    # in place: the same products and sum, one full-size temporary fewer
    out = t[r0]
    out *= (1.0 - fr)[:, None]
    bottom = t[r1]
    bottom *= fr[:, None]
    out += bottom
    return out


def resize_bilinear(values: np.ndarray, target_dim: int) -> np.ndarray:
    """Resize a 2-D array to (target_dim, target_dim) by bilinear interpolation."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError("expected a 2-D array")
    if target_dim < 1:
        raise ValueError("target_dim must be positive")
    return _resize_window(lambda rows, cols: v[rows].take(cols, axis=1), v.shape, target_dim, target_dim)


def compute_dataset_stats(images: list[np.ndarray]) -> DatasetStats:
    """Pooled pixel mean and population standard deviation over all images."""
    if not images:
        raise ValueError("need at least one image")
    count = sum(img.size for img in images)
    total = sum(float(np.sum(img, dtype=np.float64)) for img in images)
    mu = total / count
    sq = sum(float(np.sum((np.asarray(img, dtype=np.float64) - mu) ** 2)) for img in images)
    return DatasetStats(mu=mu, sigma=float(np.sqrt(sq / count)))


def standardize(values: np.ndarray, stats: DatasetStats) -> np.ndarray:
    return (np.asarray(values, dtype=np.float64) - stats.mu) / stats.sigma


def preprocess_uncalibrated(img: DicomImage, cfg: PreprocessConfig) -> np.ndarray:
    """Every stage before standardization; this is what dataset statistics are
    computed on. Equal, bit for bit, to the staged chain of the test oracle
    in tests/oracles.py,

        center_crop(resize_bilinear(equalize(window(to_real_image(img), c, w),
            eq_levels), resize_dim), crop_dim)

    Stored pixels are integers, so inversion, rescale, window and equalize
    run once per distinct stored value present, the equalize histogram
    summing each value's pixel count by bin. The resize reads that table
    only at the source rows and columns of the crop window.

    The table is indexed by the stored value less ``lo``, the minimum or 0
    if that is larger. The pixels are counted in row chunks of at most
    COUNT_CHUNK pixels, as bincount casts what it counts to intp, and a
    negative ``lo`` is subtracted per chunk and on the crop window's reads,
    so no whole-image copy is made."""
    pixels = img.pixels
    lo = min(int(pixels.min()), 0)
    shift = lo < 0 or not np.can_cast(pixels.dtype, np.intp)

    def indices(a):
        return np.subtract(a, lo, dtype=np.intp) if shift else a

    counts = np.zeros(int(pixels.max()) - lo + 1, dtype=np.intp)
    step = max(1, COUNT_CHUNK // pixels.shape[1])
    for r in range(0, pixels.shape[0], step):
        counts += np.bincount(indices(pixels[r : r + step]).ravel(), minlength=counts.size)
    present = np.flatnonzero(counts)
    real = real_values(img, present + lo)
    w = window(real, img.window_center, img.window_width)
    table = np.empty(counts.size)
    table[present] = _equalize_counted(w, counts[present], cfg.eq_levels)
    return _resize_window(
        lambda rows, cols: table.take(indices(pixels[rows].take(cols, axis=1))), pixels.shape,
        cfg.resize_dim, cfg.crop_dim,
    )


def stats_to_csv(stats: DatasetStats) -> str:
    return csv_text(("mu", "sigma"), [(stats.mu, stats.sigma)])


def stats_from_csv(text: str) -> DatasetStats:
    """Inverse of stats_to_csv. Raises MalformedFileError unless the text is
    the header and one row of a finite mu and a finite positive sigma (the
    checks of DatasetStats)."""
    rows = csv_rows(text)
    if len(rows) != 2 or rows[0] != ["mu", "sigma"]:
        raise MalformedFileError("expected a 'mu,sigma' header and one data row")
    try:
        mu, sigma = map(float, rows[1])
    except ValueError as exc:
        raise MalformedFileError(f"statistics row {rows[1]!r} is not two numbers") from exc
    try:
        return DatasetStats(mu=mu, sigma=sigma)
    except DegenerateDatasetError as exc:
        raise MalformedFileError(str(exc)) from exc

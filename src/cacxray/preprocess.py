"""Image preprocessing chain.

Order is fixed: window clamp -> histogram equalization -> bilinear resize ->
centre crop -> standardization with pooled dataset statistics. All stages run
on float64 arrays; nothing is quantized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dicom import DicomImage, to_real_image
from .errors import (
    CropLargerThanImageError,
    DegenerateDatasetError,
    InvalidConfigError,
    MalformedFileError,
    NonPositiveWidthError,
)


@dataclass(frozen=True)
class PreprocessConfig:
    resize_dim: int = 1248
    crop_dim: int = 1024
    eq_levels: int = 256

    def __post_init__(self):
        if self.resize_dim < 1 or self.crop_dim < 1:
            raise InvalidConfigError("resize_dim and crop_dim must be positive")
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


def window(values: np.ndarray, center: float, width: float) -> np.ndarray:
    """Clamp to the intensity window [center - width/2, center + width/2]."""
    if not width > 0:
        raise NonPositiveWidthError(f"window width must be positive, got {width}")
    lo = center - width / 2.0
    hi = center + width / 2.0
    return np.clip(np.asarray(values, dtype=np.float64), lo, hi)


def equalize(values: np.ndarray, levels: int = 256) -> np.ndarray:
    """Histogram equalization by CDF remap.

    Pixels are binned uniformly over [min, max] into ``levels`` bins and each
    becomes (levels - 1) * cdf(its bin). Output is real-valued in
    [0, levels - 1]; a constant image maps to the constant levels - 1.
    """
    v = np.asarray(values, dtype=np.float64)
    if levels < 2:
        raise ValueError("levels must be at least 2")
    vmin = float(v.min())
    vmax = float(v.max())
    if vmax == vmin:
        return np.full(v.shape, float(levels - 1))
    bins = np.floor((v - vmin) / (vmax - vmin) * levels).astype(np.int64)
    np.clip(bins, 0, levels - 1, out=bins)
    hist = np.bincount(bins.ravel(), minlength=levels)
    cdf = np.cumsum(hist) / v.size
    return (levels - 1) * cdf[bins]


def _axis_coords(src: int, dst: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # half-pixel-centre sampling, edge clamped
    pos = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    pos = np.clip(pos, 0.0, src - 1.0)
    i0 = np.floor(pos).astype(np.int64)
    i1 = np.minimum(i0 + 1, src - 1)
    return i0, i1, pos - i0


def resize_bilinear(values: np.ndarray, target_dim: int) -> np.ndarray:
    """Resize a 2-D array to (target_dim, target_dim) by bilinear interpolation."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError("expected a 2-D array")
    if target_dim < 1:
        raise ValueError("target_dim must be positive")
    h, w = v.shape
    r0, r1, fr = _axis_coords(h, target_dim)
    c0, c1, fc = _axis_coords(w, target_dim)
    top = v[np.ix_(r0, c0)] * (1.0 - fc) + v[np.ix_(r0, c1)] * fc
    bot = v[np.ix_(r1, c0)] * (1.0 - fc) + v[np.ix_(r1, c1)] * fc
    return top * (1.0 - fr)[:, None] + bot * fr[:, None]


def center_crop(values: np.ndarray, crop_dim: int) -> np.ndarray:
    """Take the central (crop_dim, crop_dim) region, biased toward the top-left
    when the margin is odd."""
    v = np.asarray(values, dtype=np.float64)
    h, w = v.shape
    if crop_dim > h or crop_dim > w:
        raise CropLargerThanImageError(f"crop {crop_dim} exceeds image {h}x{w}")
    if crop_dim < 1:
        raise ValueError("crop_dim must be positive")
    oy = (h - crop_dim) // 2
    ox = (w - crop_dim) // 2
    return v[oy : oy + crop_dim, ox : ox + crop_dim]


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
    computed on."""
    real = to_real_image(img)
    w = window(real, img.window_center, img.window_width)
    e = equalize(w, cfg.eq_levels)
    r = resize_bilinear(e, cfg.resize_dim)
    return center_crop(r, cfg.crop_dim)


def stats_to_csv(stats: DatasetStats) -> str:
    return f"mu,sigma\n{stats.mu!r},{stats.sigma!r}\n"


def stats_from_csv(text: str) -> DatasetStats:
    """Inverse of stats_to_csv. Raises MalformedFileError unless the text is
    the header and one row of a finite mu and a finite positive sigma (the
    checks of DatasetStats)."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if len(lines) != 2 or lines[0].strip() != "mu,sigma":
        raise MalformedFileError("expected a 'mu,sigma' header and one data row")
    try:
        mu, sigma = (float(cell) for cell in lines[1].split(","))
    except ValueError as exc:
        raise MalformedFileError(f"statistics row {lines[1]!r} is not two numbers") from exc
    try:
        return DatasetStats(mu=mu, sigma=sigma)
    except DegenerateDatasetError as exc:
        raise MalformedFileError(str(exc)) from exc

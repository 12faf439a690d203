"""Seeded synthetic chest-radiograph generator with planted calcium signal.

Each sample is a smooth low-frequency background with a soft dark elliptical
field (a radiolucent region) in the middle; samples with a nonzero calcium
score get a handful of compact bright Gaussian blobs inside that field whose
*total* analytic intensity is proportional to log(1 + cac). Planting blobs on
a dark base keeps the bulk of the image histogram between each blob's base and
its peak, so histogram equalization preserves (rather than crushes) the local
contrast of the planted signal. Follow-up times are exponential with a hazard
multiplied by hazard_ratio per calcium category, with administrative
censoring.

Determinism: sample i draws from np.random.default_rng([seed, i, tag]) with
tag 0 for the image/demographics stream and tag 1 for survival, so a sample's
content depends only on (seed, i), never on n or on other samples.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .dicom import DicomFiles, DicomImage, write_test_dicom
from .errors import InvalidConfigError, MalformedFileError
from .framing import csv_text, json_text, plain_file_name, read_text, write_bytes, write_text
from .preprocess import resize_bilinear
from .survival import SubjectRecord, cohort_from_csv, cohort_to_csv

_BASE_LEVEL = 900.0
_FIELD_AMP = 60.0
_NOISE_SIGMA = 4.0
_BODY_AMP = 400.0
_PIXEL_MAX = 4095  # 12 bits stored
_ELLIPSE_CX = 0.50  # fractions of image_dim
_ELLIPSE_CY = 0.52
_ELLIPSE_JITTER = 0.03  # uniform center jitter, fraction of image_dim
_ELLIPSE_AX_RANGE = (0.24, 0.36)  # per-sample axis draw, fraction of image_dim
_ELLIPSE_AY_RANGE = (0.21, 0.31)
_BLOB_MIN_SEP = 10.0  # pixels between blob centres, keeps deposits distinct
_BLOB_ELLIPSE_MARGIN = 0.9  # bound on a blob corner's squared normalized distance from the dark field's centre
_FAINT_BOX_CUTOFF = 0.15  # blobs dimmer than this fraction of blob_peak get no box
_MAX_HAZARD_RATIO = 1e150
_MAX_IMAGE_DIM = 65535  # DICOM Rows and Columns are 16-bit
_EXP_ZERO = 746.0  # np.exp(-x) is exactly 0.0 for every float64 x >= 745.14
# Threads pay once an image's GIL-free work (the RNG fill and the
# whole-image ufuncs) outweighs its Python-level draws and blob placement and
# the hand-off to a worker. generate_samples on 2 CPUs (numpy 2.4, Python
# 3.11), threaded / serial wall time, medians of 5: 1.07-1.20 at 96 px,
# 0.95-1.00 at 112, 0.85-0.95 at 128, 0.70 at 160, 0.57-0.61 at 384 and 512.
_POOL_MIN_DIM = 128


@dataclass(frozen=True)
class SynthConfig:
    n: int = 400
    image_dim: int = 96
    zero_fraction: float = 0.3
    cac_max: float = 2000.0
    blob_count_range: tuple[int, int] = (1, 3)
    blob_radius_range: tuple[int, int] = (2, 5)
    blob_peak: float = 400.0
    mass_scale: float = 4000.0
    baseline_hazard: float = 0.03
    hazard_ratio: float = 2.5
    max_followup_years: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n <= 100000:  # sample ids keep five digits, s00000 to s99999
            raise InvalidConfigError(f"n must lie in [1, 100000], got {self.n}")
        if not 0.0 <= self.zero_fraction <= 1.0:
            raise InvalidConfigError("zero_fraction must lie in [0, 1]")
        if not self.cac_max > 1.0:
            raise InvalidConfigError("cac_max must exceed 1")
        c0, c1 = self.blob_count_range
        r0, r1 = self.blob_radius_range
        if not 1 <= c0 <= c1 or not 1 <= r0 <= r1:
            raise InvalidConfigError("blob count/radius ranges must be ordered positives")
        if not (self.mass_scale > 0 and self.blob_peak > 0):
            raise InvalidConfigError("mass_scale and blob_peak must be positive")
        if not self.baseline_hazard >= 0:
            raise InvalidConfigError("baseline_hazard must be nonnegative")
        # the top category's rate is baseline_hazard * hazard_ratio ** 2, and
        # a float power that overflows raises
        if not 0 < self.hazard_ratio <= _MAX_HAZARD_RATIO:
            raise InvalidConfigError(f"hazard_ratio must lie in (0, {_MAX_HAZARD_RATIO:g}]")
        # an infinite rate would draw event times of 0
        if not self.baseline_hazard * self.hazard_ratio ** 2 < np.inf:
            raise InvalidConfigError("baseline_hazard * hazard_ratio ** 2 overflows")
        if not self.max_followup_years > 0:
            raise InvalidConfigError("max_followup_years must be positive")
        # the smallest possible score (cac = 1) must afford one full-contrast
        # deposit of the smallest width, or low scores become invisible
        if self.mass_scale * np.log1p(1.0) < 2.0 * np.pi * (r0 / 2.0) ** 2 * self.blob_peak:
            raise InvalidConfigError("mass_scale too small for blob_peak at cac = 1")
        if self.image_dim > _MAX_IMAGE_DIM:
            raise InvalidConfigError(
                f"image_dim must be at most {_MAX_IMAGE_DIM} (16-bit DICOM Rows/Columns), got {self.image_dim}"
            )
        # the largest blob box (half-width 2r) must fit comfortably inside the
        # smallest ellipse the generator can draw, or placement cannot terminate
        hw = 2.0 * r1
        if hw * np.sqrt(2.0) > 0.8 * min(_ELLIPSE_AX_RANGE[0], _ELLIPSE_AY_RANGE[0]) * self.image_dim:
            raise InvalidConfigError(
                f"image_dim {self.image_dim} too small for blob radius {r1}"
            )


@dataclass
class SynthSample:
    id: str
    image: np.ndarray | None  # integer-valued float64 (image_dim, image_dim) in [0, 4095]; None once written
    cac: float
    category: int  # 0: cac 0, 1: (0, 100), 2: >= 100
    blob_boxes: list[tuple[int, int, int, int]] = field(default_factory=list)  # x, y, w, h
    planted_mass: float = 0.0
    ellipse: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)  # cx, cy, ax, ay
    record: SubjectRecord | None = None


def cac_category(cac: float) -> int:
    if cac <= 0:
        return 0
    return 1 if cac < 100.0 else 2


def _draw_ellipse(rng: np.random.Generator, dim: int) -> tuple[float, float, float, float]:
    # nuisance variation: the dark field's position and area vary per sample so
    # whole-image statistics (which equalization ties to every structure's
    # pixel count) carry no usable calcium signal
    ecx = (_ELLIPSE_CX + rng.uniform(-_ELLIPSE_JITTER, _ELLIPSE_JITTER)) * dim
    ecy = (_ELLIPSE_CY + rng.uniform(-_ELLIPSE_JITTER, _ELLIPSE_JITTER)) * dim
    ax = rng.uniform(*_ELLIPSE_AX_RANGE) * dim
    ay = rng.uniform(*_ELLIPSE_AY_RANGE) * dim
    return ecx, ecy, ax, ay


def _inside_ellipse(px: float, py: float, ellipse: tuple[float, float, float, float]) -> bool:
    ecx, ecy, ax, ay = ellipse
    return ((px - ecx) / ax) ** 2 + ((py - ecy) / ay) ** 2 <= _BLOB_ELLIPSE_MARGIN


def _place_blob(
    rng: np.random.Generator,
    dim: int,
    hw: int,
    ellipse: tuple[float, float, float, float],
    taken: list[tuple[float, float]],
) -> tuple[float, float]:
    ecx, ecy, ax, ay = ellipse
    for attempt in range(400):
        cx = rng.uniform(ecx - ax, ecx + ax)
        cy = rng.uniform(ecy - ay, ecy + ay)
        corners_ok = all(
            _inside_ellipse(cx + sx * hw, cy + sy * hw, ellipse)
            for sx in (-1, 1)
            for sy in (-1, 1)
        )
        if not (corners_ok and hw <= cx <= dim - 1 - hw and hw <= cy <= dim - 1 - hw):
            continue
        # first half of the tries also demands separation from earlier blobs
        if attempt < 200 and any(
            (cx - tx) ** 2 + (cy - ty) ** 2 < _BLOB_MIN_SEP**2 for tx, ty in taken
        ):
            continue
        return cx, cy
    return ecx, ecy  # config validation guarantees this spot is legal


def _generate_one(cfg: SynthConfig, index: int) -> SynthSample:
    rng = np.random.default_rng([cfg.seed, index, 0])
    dim = cfg.image_dim

    # draw order is fixed; do not reorder without bumping the dataset seed story
    cac = 0.0
    if rng.random() >= cfg.zero_fraction:
        cac = float(np.exp(rng.uniform(0.0, np.log(cfg.cac_max))))
    esc = int(rng.integers(0, 4))
    age = float(rng.uniform(40.0, 85.0))
    sex = int(rng.integers(0, 2))
    ellipse = _draw_ellipse(rng, dim)

    # every pass below runs in place on img and keeps the bits of the
    # whole-image expressions it replaces: a + b is b + a exactly, and the
    # dark field's term is exactly 0.0 outside its bounding box
    coarse = rng.normal(0.0, 1.0, (6, 6))
    img = resize_bilinear(coarse, dim)
    img *= _FIELD_AMP
    img += _BASE_LEVEL
    img += rng.normal(0.0, _NOISE_SIGMA, (dim, dim))
    ecx, ecy, ax, ay = ellipse
    pos = np.arange(dim)  # the pixel coordinates of either axis
    u = ((pos - ecx) / ax) ** 2
    v = ((pos - ecy) / ay) ** 2
    # q = u + v < 1 needs u < 1 and v < 1, and each holds on one run of indices
    rows, cols = np.flatnonzero(v < 1.0), np.flatnonzero(u < 1.0)
    field = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    depth = np.add(u[field[1]], v[field[0], None])
    np.subtract(1.0, depth, out=depth)
    np.clip(depth, 0.0, None, out=depth)
    depth *= _BODY_AMP
    img[field] -= depth

    boxes: list[tuple[int, int, int, int]] = []
    planted = 0.0
    if cac > 0.0:
        # the full mass budget M = mass_scale * log(1 + cac) is planted: each
        # deposit absorbs as much budget as its width cap allows at blob_peak
        # contrast, so score magnitude shows up as deposit AREA (which survives
        # histogram equalization) rather than raw amplitude; overflow past the
        # count cap is spread back over the placed deposits
        planted = cfg.mass_scale * float(np.log1p(cac))
        c0, c1 = cfg.blob_count_range
        s_lo, s_hi = cfg.blob_radius_range[0] / 2.0, cfg.blob_radius_range[1] / 2.0
        remaining = planted
        blobs: list[list[float]] = []  # [sigma, mass]
        for _ in range(c1):
            if remaining <= 0.0:
                break
            sigma = min(max(np.sqrt(remaining / (2.0 * np.pi * cfg.blob_peak)), s_lo), s_hi)
            mass = min(2.0 * np.pi * sigma * sigma * cfg.blob_peak, remaining)
            blobs.append([float(sigma), mass])
            remaining -= mass
        if remaining > 0.0:  # count cap hit: spread the excess by area
            total_area = sum(b[0] ** 2 for b in blobs)
            for b in blobs:
                b[1] += remaining * b[0] ** 2 / total_area
        if len(blobs) < c0:  # forced minimum: split the budget evenly instead
            share = planted / c0
            sigma = min(max(np.sqrt(share / (2.0 * np.pi * cfg.blob_peak)), s_lo), s_hi)
            blobs = [[float(sigma), share] for _ in range(c0)]
        taken: list[tuple[float, float]] = []
        for sigma, mass in blobs:
            r = int(min(max(round(2.0 * sigma), cfg.blob_radius_range[0]), cfg.blob_radius_range[1]))
            hw = 2 * r
            cx, cy = _place_blob(rng, dim, hw, ellipse, taken)
            taken.append((cx, cy))
            peak = mass / (2.0 * np.pi * sigma * sigma)
            # past d**2 = 2 sigma**2 * _EXP_ZERO the term is exactly 0.0, so
            # only the box of that radius around the centre is evaluated
            reach = sigma * np.sqrt(2.0 * _EXP_ZERO)
            near = np.s_[
                max(int(cy - reach), 0) : min(int(cy + reach) + 2, dim),
                max(int(cx - reach), 0) : min(int(cx + reach) + 2, dim),
            ]
            d2 = ((pos[near[1]] - cx) ** 2)[None, :] + ((pos[near[0]] - cy) ** 2)[:, None]
            img[near] += peak * np.exp(-(d2 / (2.0 * sigma * sigma)))
            if peak >= _FAINT_BOX_CUTOFF * cfg.blob_peak:
                x0 = int(round(cx)) - hw
                y0 = int(round(cy)) - hw
                boxes.append((x0, y0, 2 * hw + 1, 2 * hw + 1))

    np.clip(img, 0.0, _PIXEL_MAX, out=img)
    np.rint(img, out=img)
    sample_id = f"s{index:05d}"
    record = SubjectRecord(
        id=sample_id,
        time_years=cfg.max_followup_years,  # placeholder until generate_survival
        event=False,
        covariates={
            "ai_cac": cac,  # stands in for a model output until one exists
            "cac": cac,
            "ai_cac_category": float(cac_category(cac)),
            "esc_class": float(esc),
            "age": age,
            "sex": float(sex),
        },
    )
    return SynthSample(
        id=sample_id,
        image=img,
        cac=cac,
        category=cac_category(cac),
        blob_boxes=boxes,
        planted_mass=planted,
        ellipse=ellipse,
        record=record,
    )


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(cfg: SynthConfig, count: int) -> int:
    return min(_usable_cpus(), count) if cfg.image_dim >= _POOL_MIN_DIM else 1


def generate_samples(cfg: SynthConfig, indices: range | None = None) -> list[SynthSample]:
    """The samples of ``cfg`` at ``indices`` (all n by default), in that order.

    Images of at least ``_POOL_MIN_DIM`` pixels a side are made on one thread
    per usable CPU (at most one per sample). The bits are those of a serial
    run: sample i draws only from its own generators (see the module
    docstring), and the samples come back in index order."""
    indices = range(cfg.n) if indices is None else indices
    workers = _workers(cfg, len(indices))
    if workers <= 1:
        return [_generate_one(cfg, i) for i in indices]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(partial(_generate_one, cfg), indices))


def iter_samples(cfg: SynthConfig) -> Iterator[SynthSample]:
    """The samples of ``cfg`` in index order, made by generate_samples one
    sample per worker thread at a time, so a caller that drops each sample
    holds about that many images, not the dataset."""
    step = _workers(cfg, cfg.n)
    for start in range(0, cfg.n, step):
        yield from generate_samples(cfg, range(start, min(start + step, cfg.n)))


def generate_survival(cfg: SynthConfig, samples: list[SynthSample]) -> list[SubjectRecord]:
    """Draw follow-up for every sample, sample i (id s{i:05d}) from
    default_rng([seed, i, 1]) wherever it stands in ``samples``: exponential
    event time with rate baseline_hazard * hazard_ratio ** category,
    administratively censored at min(max_followup, U(0, 1.5 * max_followup)).
    Updates each sample.record and returns the records."""
    records = []
    for sample in samples:
        rng = np.random.default_rng([cfg.seed, int(sample.id[1:]), 1])
        rate = cfg.baseline_hazard * cfg.hazard_ratio ** sample.category
        t_event = rng.exponential(1.0 / rate) if rate > 0 else np.inf
        censor = max(min(cfg.max_followup_years, rng.uniform(0.0, 1.5 * cfg.max_followup_years)), 1e-3)
        time = float(min(t_event, censor))
        record = SubjectRecord(
            id=sample.id,
            time_years=time,
            event=bool(t_event <= censor),
            covariates=dict(sample.record.covariates),
        )
        sample.record = record
        records.append(record)
    return records


def sample_to_dicom(sample: SynthSample) -> DicomImage:
    dim = sample.image.shape[0]
    return DicomImage(
        rows=dim,
        cols=dim,
        bits_allocated=16,
        bits_stored=12,
        pixel_representation=0,
        photometric="MONOCHROME2",
        window_center=2048.0,
        window_width=4096.0,
        pixels=sample.image.astype("<u2"),  # the stored dtype, so writing copies nothing more
        rescale_slope=1.0,
        rescale_intercept=0.0,
    )


def blobs_to_csv(samples: list[SynthSample]) -> str:
    return csv_text(("id", "x", "y", "w", "h"), [(s.id, *box) for s in samples for box in s.blob_boxes])


def write_dataset(cfg: SynthConfig, samples: Iterable[SynthSample], out_dir) -> list[SubjectRecord]:
    """Lay out a dataset directory: images/<id>.dcm, cohort.csv, blobs.csv,
    manifest.json, and return the cohort's records. ``samples`` is read
    once: each image is written as its sample arrives, and only the rest of
    the sample is kept. The follow-up of every sample is drawn here
    (generate_survival), so a caller need not draw it first; the draws
    depend only on (seed, i, category), so drawing again changes no byte.
    Byte-identical for identical (cfg, samples); every file is written
    atomically."""
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    kept = []
    for s in samples:
        write_bytes(out / "images" / f"{s.id}.dcm", write_test_dicom(sample_to_dicom(s)))
        kept.append(replace(s, image=None))
    records = generate_survival(cfg, kept)
    write_text(out / "cohort.csv", cohort_to_csv(records))
    write_text(out / "blobs.csv", blobs_to_csv(kept))
    write_text(out / "manifest.json", json_text({"kind": "synthetic-cac-dataset", **asdict(cfg)}) + "\n")
    return records


def read_dataset(data_dir) -> tuple[list[str], Sequence[DicomImage], list[SubjectRecord]]:
    """Load a dataset directory, images in cohort order; ids must be distinct
    plain file names. Every image file is read and parsed here, so a damaged
    or missing one raises before this returns, but the images come back as a
    ``DicomFiles``: each is read again when it is used, and the dataset holds
    no pixel byte."""
    root = Path(data_dir)
    records = cohort_from_csv(read_text(root / "cohort.csv"))
    ids = [r.id for r in records]
    if len(set(ids)) < len(ids) or not all(map(plain_file_name, ids)):
        raise MalformedFileError("cohort ids must be distinct plain file names")
    return ids, DicomFiles(root / "images" / f"{sid}.dcm" for sid in ids), records

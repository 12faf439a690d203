"""Synthetic dataset generator: determinism, planted-signal geometry, survival
draws, and on-disk round trips."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import tracemalloc

import numpy as np
import pytest

from cacxray import synthgen as sg
from cacxray.dicom import parse_dicom, write_test_dicom
from cacxray.errors import (
    InvalidConfigError,
    MalformedFileError,
    MissingRequiredTagError,
    TruncatedFileError,
    UnsupportedPhotometricError,
    UnsupportedTransferSyntaxError,
)
from cacxray.preprocess import PreprocessConfig, preprocess_uncalibrated
from cacxray.survival import SubjectRecord, cohort_to_csv, log_rank

from conftest import remove_element, replace_element_payload


def _cfg(**kw):
    base = dict(n=20, seed=0)
    base.update(kw)
    return sg.SynthConfig(**base)


# --- determinism ------------------------------------------------------------------

@pytest.mark.parametrize("dim,digest", [
    (96, "1eba6ad9fe5585665cb91b9915607c0593557203ce84fcdb5c3ee1dd5935c828"),
    (512, "2767066aab162f4888d707c7cc9ac84b9a33632c7f1f0b9bd2fc19393e4ad8bc"),
])
def test_generated_image_bits_are_pinned(dim, digest):
    # digests of the images made when each blob's exp covered the whole image
    # and the background resize gathered four full np.ix_ grids
    h = hashlib.sha256()
    for s in sg.generate_samples(sg.SynthConfig(n=8 if dim == 96 else 4, image_dim=dim, seed=5)):
        h.update(s.image.tobytes())
    assert h.hexdigest() == digest


def test_generation_deterministic():
    a = sg.generate_samples(_cfg())
    b = sg.generate_samples(_cfg())
    for s, t in zip(a, b):
        assert s.id == t.id and s.cac == t.cac
        assert np.array_equal(s.image, t.image)
        assert s.blob_boxes == t.blob_boxes


def test_sample_content_independent_of_n():
    short = sg.generate_samples(_cfg(n=6))
    long = sg.generate_samples(_cfg(n=12))
    for s, t in zip(short, long):
        assert np.array_equal(s.image, t.image)
        assert s.cac == t.cac


def test_different_seed_different_images():
    a = sg.generate_samples(_cfg(n=3, seed=0))
    b = sg.generate_samples(_cfg(n=3, seed=1))
    assert not np.array_equal(a[0].image, b[0].image)


@pytest.mark.parametrize("dim", [96, 160])
def test_generate_samples_equals_the_serial_loop_byte_for_byte(monkeypatch, dim):
    # 96 px is made on one thread, 160 px on the pool; three workers over
    # seven samples leave iter_samples a short last chunk
    monkeypatch.setattr(sg, "_usable_cpus", lambda: 3)
    cfg = _cfg(n=7, image_dim=dim, seed=21)
    assert sg._workers(cfg, cfg.n) == (1 if dim < sg._POOL_MIN_DIM else 3)
    serial = [sg._generate_one(cfg, i) for i in range(cfg.n)]
    for made in (sg.generate_samples(cfg), list(sg.iter_samples(cfg))):
        assert len(made) == len(serial)
        for s, t in zip(made, serial):
            assert s.image.tobytes() == t.image.tobytes()
            assert dataclasses.replace(s, image=None) == dataclasses.replace(t, image=None)


# --- image and label content ------------------------------------------------------


def test_images_are_integer_valued_in_pixel_range():
    for s in sg.generate_samples(_cfg()):
        assert s.image.shape == (96, 96)
        assert np.array_equal(s.image, np.rint(s.image))
        assert s.image.min() >= 0.0
        assert s.image.max() <= 4095.0


def test_zero_fraction_extremes():
    assert all(s.cac == 0.0 for s in sg.generate_samples(_cfg(zero_fraction=1.0)))
    assert all(s.cac > 0.0 for s in sg.generate_samples(_cfg(zero_fraction=0.0)))


def test_zero_fraction_frequency_at_scale():
    samples = sg.generate_samples(_cfg(n=1000, seed=3))
    frac = sum(1 for s in samples if s.cac == 0.0) / 1000
    assert abs(frac - 0.3) <= 0.05


def test_boxes_exactly_for_positive_scores():
    # default config draws positive scores >= 1, bright enough to always box
    for s in sg.generate_samples(_cfg(n=60, seed=4)):
        if s.cac == 0.0:
            assert s.blob_boxes == [] and s.planted_mass == 0.0
        else:
            assert len(s.blob_boxes) >= 1 and s.planted_mass > 0.0


def test_planted_mass_monotone_in_score():
    samples = [s for s in sg.generate_samples(_cfg(n=80, seed=5)) if s.cac > 0]
    srt = sorted(samples, key=lambda s: s.cac)
    masses = [s.planted_mass for s in srt]
    assert all(m1 > m0 for m0, m1 in zip(masses, masses[1:]))


def test_blob_count_respects_configured_range():
    lo, hi = _cfg().blob_count_range
    for s in sg.generate_samples(_cfg(n=60, seed=6)):
        if s.cac > 0:
            assert lo <= len(s.blob_boxes) <= hi


def test_forced_minimum_splits_the_budget_into_equal_deposits():
    # a score below 10 plants less mass than one deposit holds, so a minimum
    # of three splits it into three deposits of one size
    cfg = _cfg(blob_count_range=(3, 3))
    small = [s for s in sg.generate_samples(cfg) if 0.0 < s.cac < 10.0]
    assert len(small) >= 5
    for s in small:
        assert len(s.blob_boxes) == 3 and len({box[2:] for box in s.blob_boxes}) == 1
        assert s.planted_mass == cfg.mass_scale * float(np.log1p(s.cac))


def test_boxes_inside_image_and_ellipse():
    for s in sg.generate_samples(_cfg(n=60, seed=7)):
        ecx, ecy, ax, ay = s.ellipse
        for x, y, w, h in s.blob_boxes:
            assert 0 <= x and 0 <= y
            assert x + w <= 96 and y + h <= 96
            cx, cy = x + w // 2, y + h // 2
            assert ((cx - ecx) / ax) ** 2 + ((cy - ecy) / ay) ** 2 <= 1.0


def test_category_thresholds():
    assert [sg.cac_category(c) for c in (0.0, 0.5, 99.999, 100.0, 2000.0)] == [0, 1, 1, 2, 2]
    for s in sg.generate_samples(_cfg(n=40, seed=8)):
        assert s.category == sg.cac_category(s.cac)
        assert s.record.covariates["cac"] == s.cac
        assert s.record.covariates["ai_cac_category"] == float(s.category)


def test_covariate_key_set():
    s = sg.generate_samples(_cfg(n=1))[0]
    assert set(s.record.covariates) == {
        "ai_cac", "cac", "ai_cac_category", "esc_class", "age", "sex",
    }


# --- survival draws ---------------------------------------------------------------


def _category_cohort(n_per_group):
    """Minimal samples (no images needed) split between categories 0 and 2."""
    mini = []
    for i in range(2 * n_per_group):
        cat = 0 if i < n_per_group else 2
        rec = SubjectRecord(id=f"s{i:05d}", time_years=1.0, event=False,
                            covariates={"cac": 0.0})
        mini.append(sg.SynthSample(id=rec.id, image=np.zeros((1, 1)),
                                   cac=0.0, category=cat, record=rec))
    return mini


def test_survival_null_hazard_ratio_one():
    # with no true group effect the log-rank test should rarely fire
    passes = 0
    for seed in range(20):
        mini = _category_cohort(100)
        recs = sg.generate_survival(sg.SynthConfig(n=200, seed=seed, hazard_ratio=1.0), mini)
        g0 = recs[:100]
        g1 = recs[100:]
        if log_rank(g0, g1).p_value > 0.01:
            passes += 1
    assert passes >= 18


def test_survival_higher_category_more_events():
    mini = _category_cohort(150)
    recs = sg.generate_survival(sg.SynthConfig(n=300, seed=2), mini)
    ev0 = sum(r.event for r in recs[:150])
    ev2 = sum(r.event for r in recs[150:])
    assert ev2 > ev0


def test_zero_baseline_hazard_yields_no_events():
    mini = _category_cohort(25)
    recs = sg.generate_survival(sg.SynthConfig(n=50, seed=1, baseline_hazard=0.0), mini)
    assert all(not r.event for r in recs)
    assert all(r.time_years > 0.0 for r in recs)


def test_followup_never_exceeds_cap():
    mini = _category_cohort(100)
    cap = 4.0
    recs = sg.generate_survival(sg.SynthConfig(n=200, seed=9, max_followup_years=cap), mini)
    assert all(0.0 < r.time_years <= cap for r in recs)


def test_survival_updates_sample_records():
    mini = _category_cohort(5)
    recs = sg.generate_survival(sg.SynthConfig(n=10, seed=0), mini)
    for s, r in zip(mini, recs):
        assert s.record is r
        assert "cac" in r.covariates


# --- disk layout ------------------------------------------------------------------


def test_write_read_round_trip(tmp_path):
    cfg = _cfg(n=8, seed=11)
    samples = sg.generate_samples(cfg)
    sg.generate_survival(cfg, samples)
    sg.write_dataset(cfg, samples, tmp_path)
    ids, images, records = sg.read_dataset(tmp_path)
    assert ids == [s.id for s in samples]
    for s, img in zip(samples, images):
        assert np.array_equal(np.asarray(img.pixels, dtype=np.float64), s.image)
    for s, r in zip(samples, records):
        assert r.time_years == pytest.approx(s.record.time_years, rel=1e-12)
        assert r.event == s.record.event


@pytest.mark.parametrize("ids", [[""], ["."], [".."], ["../x"], ["a/b"], ["a\0b"], ["s1", "s2", "s1"]])
def test_read_dataset_refuses_unsafe_or_repeated_ids_before_reading_images(tmp_path, ids):
    # no images/ directory: reading any image would raise FileNotFoundError
    rows = [SubjectRecord(id=sid, time_years=1.0, event=True, covariates={"cac": 0.0}) for sid in ids]
    (tmp_path / "cohort.csv").write_text(cohort_to_csv(rows))
    with pytest.raises(MalformedFileError, match="cohort id"):
        sg.read_dataset(tmp_path)


# --- images read on use -----------------------------------------------------------


def _dataset(path, n, image_dim=96, seed=16):
    cfg = _cfg(n=n, image_dim=image_dim, seed=seed)
    samples = sg.generate_samples(cfg)
    sg.generate_survival(cfg, samples)
    sg.write_dataset(cfg, samples, path)
    return path


def test_read_dataset_holds_one_image_file_at_a_time(tmp_path):
    # 20 files of 512 KB: holding them all, as a list of parsed images did,
    # peaks at 11 MiB; one file at a time and its preprocessing near 1.7 MiB
    _dataset(tmp_path, 20, image_dim=512)
    cfg = PreprocessConfig(resize_dim=78, crop_dim=64)
    tracemalloc.start()
    try:
        _, images, _ = sg.read_dataset(tmp_path)
        crops = [preprocess_uncalibrated(img, cfg) for img in images]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(crops) == 20
    assert peak < 3 * 2**20


@pytest.mark.parametrize("damage, error, says", [
    (lambda b: b[:-1] + b"\xff", MalformedFileError, "exceed the 12-bit range"),
    (lambda b: remove_element(b, (0x0028, 0x1050)), MissingRequiredTagError, "WindowCenter (0028,1050)"),
    (lambda b: replace_element_payload(b, (0x0028, 0x0004), b"RGB "), UnsupportedPhotometricError, "'RGB'"),
    (lambda b: replace_element_payload(b, (0x0002, 0x0010), b"1.2.840.10008.1.2.4.50"),
     UnsupportedTransferSyntaxError, "1.2.840.10008.1.2.4.50"),
])
def test_read_dataset_names_a_damaged_image_and_keeps_its_error(tmp_path, damage, error, says):
    path = _dataset(tmp_path, 6)
    image = path / "images" / "s00003.dcm"
    image.write_bytes(damage(image.read_bytes()))
    with pytest.raises(error) as info:
        sg.read_dataset(path)
    assert type(info.value) is error
    assert str(info.value).startswith("s00003.dcm: ") and says in str(info.value)


def test_each_access_reads_the_same_image_afresh(tmp_path):
    ids, images, _ = sg.read_dataset(_dataset(tmp_path, 5))
    assert len(images) == 5
    for i, sid in enumerate(ids):
        want = parse_dicom((tmp_path / "images" / f"{sid}.dcm").read_bytes())
        for got in (images[i], images[np.int64(i)], images[i - 5]):
            for f in dataclasses.fields(want):
                if f.name != "pixels":
                    assert getattr(got, f.name) == getattr(want, f.name), f.name
            assert got.pixels.dtype == want.pixels.dtype == np.dtype("<u2")
            assert got.pixels.shape == want.pixels.shape
            assert not got.pixels.flags.writeable
            assert got.pixels.tobytes() == want.pixels.tobytes()
    first, again = images[0], images[0]
    assert not np.shares_memory(first.pixels, again.pixels)
    assert [img.pixels.tobytes() for img in images] == [images[i].pixels.tobytes() for i in range(5)]
    with pytest.raises(IndexError):
        images[5]
    with pytest.raises(TypeError):
        images[1.0]


def _rename_over(path):
    fresh = path.with_name("fresh.tmp")
    fresh.write_bytes(path.read_bytes())
    os.replace(fresh, path)


def _touch(path):
    st = path.stat()
    path.write_bytes(path.read_bytes()[::-1])  # same size, other bytes
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-2])


@pytest.mark.parametrize("change,error", [
    (_rename_over, MalformedFileError),
    (_touch, MalformedFileError),
    (_truncate, TruncatedFileError),
])
def test_an_image_file_changed_after_read_dataset_raises_naming_it(tmp_path, change, error):
    _, images, _ = sg.read_dataset(_dataset(tmp_path, 3))
    change(tmp_path / "images" / "s00001.dcm")
    assert [images[i].rows for i in (0, 2)] == [96, 96]
    with pytest.raises(error, match="s00001.dcm"):
        images[1]


@pytest.mark.parametrize("position", [0, 2, 4])
def test_a_damaged_image_anywhere_raises_in_read_dataset(tmp_path, position):
    _dataset(tmp_path, 5)
    path = tmp_path / "images" / f"s{position:05d}.dcm"
    raw = path.read_bytes()
    img = parse_dicom(raw)
    # 0x0fff is the 12-bit maximum: one more is out of range
    pixels = np.array(img.pixels, dtype=np.int32)
    pixels[0, 0] = 0x1000
    path.write_bytes(raw[:-img.pixels.nbytes] + pixels.astype("<u2").tobytes())
    with pytest.raises(MalformedFileError, match="exceed the 12-bit range"):
        sg.read_dataset(tmp_path)
    path.write_bytes(raw[:-1])
    with pytest.raises(TruncatedFileError):
        sg.read_dataset(tmp_path)
    path.unlink()
    with pytest.raises(FileNotFoundError):
        sg.read_dataset(tmp_path)


def test_write_dataset_deterministic_bytes(tmp_path):
    cfg = _cfg(n=5, seed=12)
    for d in ("a", "b"):
        samples = sg.generate_samples(cfg)
        sg.generate_survival(cfg, samples)
        sg.write_dataset(cfg, samples, tmp_path / d)
    for rel in ["manifest.json", "cohort.csv", "blobs.csv", "images/s00000.dcm",
                "images/s00004.dcm"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_write_dataset_atomic_leaves_no_temp_files(tmp_path):
    cfg = _cfg(n=3, seed=14)
    samples = sg.generate_samples(cfg)
    sg.generate_survival(cfg, samples)
    (tmp_path / "cohort.csv").write_text("an earlier run's file\n")
    sg.write_dataset(cfg, samples, tmp_path)
    assert not list(tmp_path.rglob("*.tmp"))
    for s in samples:
        dcm = (tmp_path / "images" / f"{s.id}.dcm").read_bytes()
        assert dcm == write_test_dicom(sg.sample_to_dicom(s))
    assert (tmp_path / "cohort.csv").read_bytes() == cohort_to_csv([s.record for s in samples]).encode()
    assert (tmp_path / "blobs.csv").read_bytes() == sg.blobs_to_csv(samples).encode()


def test_manifest_describes_config(tmp_path):
    cfg = _cfg(n=4, seed=13)
    samples = sg.generate_samples(cfg)
    sg.generate_survival(cfg, samples)
    sg.write_dataset(cfg, samples, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["n"] == 4
    assert manifest["seed"] == 13
    assert manifest["image_dim"] == 96
    assert manifest["kind"] == "synthetic-cac-dataset"


def test_dicom_files_parse_with_expected_geometry(tmp_path):
    cfg = _cfg(n=2, seed=14)
    samples = sg.generate_samples(cfg)
    sg.generate_survival(cfg, samples)
    sg.write_dataset(cfg, samples, tmp_path)
    img = parse_dicom((tmp_path / "images" / "s00000.dcm").read_bytes())
    assert (img.rows, img.cols) == (96, 96)
    assert img.bits_stored == 12
    assert img.photometric == "MONOCHROME2"


def test_blobs_csv_round_trip():
    samples = sg.generate_samples(_cfg(n=30, seed=15))
    rows = list(csv.reader(io.StringIO(sg.blobs_to_csv(samples))))
    assert rows[0] == ["id", "x", "y", "w", "h"]
    got = [(r[0], tuple(int(v) for v in r[1:])) for r in rows[1:]]
    want = [(s.id, tuple(b)) for s in samples for b in s.blob_boxes]
    assert got == want and want


def test_write_dataset_of_a_stream_equals_the_dataset_of_a_list(tmp_path):
    # the stream is read once and no follow-up is drawn before it is written
    cfg = _cfg(n=6, image_dim=160, seed=22)
    samples = sg.generate_samples(cfg)
    sg.generate_survival(cfg, samples)
    sg.write_dataset(cfg, samples, tmp_path / "a")
    records = sg.write_dataset(cfg, sg.iter_samples(cfg), tmp_path / "b")
    assert records == [s.record for s in samples]
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert len(files) == 6 + 3
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_sample_to_dicom_holds_pixels_in_the_stored_dtype():
    s = sg.generate_samples(_cfg(n=2))[1]
    img = sg.sample_to_dicom(s)
    assert img.pixels.dtype == np.dtype("<u2")
    assert np.array_equal(img.pixels, s.image)
    wide = dataclasses.replace(img, pixels=s.image.astype(np.int32))
    assert write_test_dicom(img) == write_test_dicom(wide)


# --- config validation ------------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        dict(n=0),
        dict(zero_fraction=1.5),
        dict(zero_fraction=-0.1),
        dict(cac_max=1.0),
        dict(blob_count_range=(0, 3)),
        dict(blob_count_range=(3, 1)),
        dict(blob_radius_range=(0, 5)),
        dict(mass_scale=0.0),
        dict(blob_peak=0.0),
        dict(baseline_hazard=-0.01),
        dict(hazard_ratio=0.0),
        dict(max_followup_years=0.0),
        dict(image_dim=32),
        dict(mass_scale=1.0),
        dict(baseline_hazard=1e308),
        dict(image_dim=65536),
        dict(image_dim=10**12),
    ],
)
def test_config_validation_rejects(kw):
    with pytest.raises(InvalidConfigError):
        _cfg(**kw)


def test_default_config_valid():
    sg.SynthConfig()
    sg.SynthConfig(image_dim=65535)  # the largest 16-bit DICOM Rows/Columns

"""Windowing, equalization, resize, crop, standardization, statistics file."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cacxray import dicom, preprocess as pp, synthgen as sg
from cacxray.errors import (
    DegenerateDatasetError,
    InvalidConfigError,
    MalformedFileError,
    NonPositiveWidthError,
)

from conftest import random_dicom
from oracles import center_crop, equalize, to_real_image


# --- window ---------------------------------------------------------------------

def test_window_clamps_both_rails():
    out = pp.window(np.array([-5.0, 0.0, 5.0]), center=0.0, width=2.0)
    assert np.array_equal(out, [-1.0, 0.0, 1.0])


def test_window_identity_inside_range():
    vals = np.array([[10.0, 20.0], [30.0, 40.0]])
    assert np.array_equal(pp.window(vals, center=25.0, width=100.0), vals)


def test_window_single_value_clamp():
    assert pp.window(np.array([250.0]), center=100.0, width=200.0)[0] == 200.0


def test_window_rejects_nonpositive_width():
    with pytest.raises(NonPositiveWidthError):
        pp.window(np.zeros(3), center=0.0, width=0.0)


# --- equalize: the oracle, which the value-table property below holds the package to

def test_equalize_constant_image_is_constant():
    out = equalize(np.full((3, 3), 7.0), 256)
    assert np.ptp(out) == 0.0


def test_equalize_two_pixel_cdf_remap():
    # bins: pixel 0 holds half the mass, pixel 1 the rest; the remap sends
    # cdf to [0, 255], so the span is 255 * (1 - 0.5)
    out = equalize(np.array([[0.0, 1.0]]), 256)
    assert out[0, 0] < out[0, 1]
    assert out.max() - out.min() == pytest.approx(127.5, abs=1e-12)
    assert out[0, 1] == 255.0


def test_equalize_uniform_ramp_is_affine_in_rank():
    ramp = np.arange(16.0).reshape(4, 4)
    out = equalize(ramp, 16)
    # brute-force CDF: each of the 16 bins holds one pixel
    cdf = (np.arange(16) + 1) / 16.0
    assert np.allclose(out.ravel(), cdf * 15.0, atol=1e-12)
    diffs = np.diff(out.ravel())
    assert np.allclose(diffs, diffs[0], atol=1e-12)


@pytest.mark.parametrize("op", ["window", "equalize"])
def test_monotonicity_on_random_images(op):
    rng = np.random.default_rng(12)
    for _ in range(100):
        img = rng.uniform(-50, 4000, size=(9, 9))
        if op == "window":
            out = pp.window(img, center=rng.uniform(0, 2000), width=rng.uniform(1, 3000))
        else:
            out = equalize(img, int(rng.integers(2, 300)))
        order = np.argsort(img.ravel(), kind="stable")
        assert np.all(np.diff(out.ravel()[order]) >= 0)
        # equal inputs must map to equal outputs
        flat_in, flat_out = img.ravel()[order], out.ravel()[order]
        same = np.diff(flat_in) == 0
        assert np.all(np.diff(flat_out)[same] == 0)


# --- resize ---------------------------------------------------------------------

def test_resize_identity_when_target_matches():
    img = np.random.default_rng(0).standard_normal((5, 5))
    assert np.array_equal(pp.resize_bilinear(img, 5), img)


def test_resize_2x2_to_4x4_half_pixel_oracle():
    src = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = pp.resize_bilinear(src, 4)
    # manual evaluation of coord = (i + 0.5) * 0.5 - 0.5 with edge clamping
    expect = np.empty((4, 4))
    coords = np.clip((np.arange(4) + 0.5) * 0.5 - 0.5, 0.0, 1.0)
    for r, y in enumerate(coords):
        for c, x in enumerate(coords):
            y0, x0 = int(np.floor(y)), int(np.floor(x))
            y1, x1 = min(y0 + 1, 1), min(x0 + 1, 1)
            fy, fx = y - y0, x - x0
            expect[r, c] = (
                src[y0, x0] * (1 - fy) * (1 - fx)
                + src[y0, x1] * (1 - fy) * fx
                + src[y1, x0] * fy * (1 - fx)
                + src[y1, x1] * fy * fx
            )
    assert np.allclose(out, expect, atol=1e-12)


def test_resize_constant_stays_constant():
    out = pp.resize_bilinear(np.full((3, 3), 4.25), 7)
    assert np.all(out == 4.25)


def test_resize_output_within_input_range():
    rng = np.random.default_rng(2)
    img = rng.uniform(-10, 10, size=(6, 6))
    out = pp.resize_bilinear(img, 17)
    assert out.min() >= img.min() - 1e-12 and out.max() <= img.max() + 1e-12


# --- crop: the oracle -------------------------------------------------------------

def test_center_crop_identity_and_offsets():
    img4 = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(center_crop(img4, 4), img4)
    assert np.array_equal(center_crop(img4, 2), img4[1:3, 1:3])
    img5 = np.arange(25.0).reshape(5, 5)
    assert np.array_equal(center_crop(img5, 2), img5[1:3, 1:3])



# --- dataset stats / standardize -------------------------------------------------

def test_stats_two_point_examples():
    s = pp.compute_dataset_stats([np.array([[0.0, 2.0]])])
    assert s.mu == 1.0 and s.sigma == 1.0
    s2 = pp.compute_dataset_stats([np.array([[1.0]]), np.array([[3.0]])])
    assert s2.mu == 2.0 and s2.sigma == 1.0


def test_stats_match_pooled_two_pass_oracle():
    rng = np.random.default_rng(9)
    images = [rng.uniform(-5, 5, size=rng.integers(2, 6, size=2)) for _ in range(100)]
    pool = np.concatenate([im.ravel() for im in images])
    s = pp.compute_dataset_stats(images)
    assert s.mu == pytest.approx(pool.mean(), abs=1e-12)
    assert s.sigma == pytest.approx(pool.std(), abs=1e-12)


def test_stats_reject_zero_variance():
    with pytest.raises(DegenerateDatasetError):
        pp.compute_dataset_stats([np.full((2, 2), 3.0)])
    with pytest.raises(DegenerateDatasetError):
        pp.DatasetStats(mu=0.0, sigma=0.0)


def test_standardize_formula():
    stats = pp.DatasetStats(mu=10.0, sigma=2.0)
    assert pp.standardize(np.array([16.0]), stats)[0] == 3.0
    assert pp.standardize(np.array([10.0]), stats)[0] == 0.0
    ident = pp.DatasetStats(mu=0.0, sigma=1.0)
    vals = np.array([1.5, -2.0])
    assert np.array_equal(pp.standardize(vals, ident), vals)


def test_standardized_pool_is_zero_one():
    rng = np.random.default_rng(4)
    images = [rng.uniform(0, 100, size=(5, 5)) for _ in range(20)]
    stats = pp.compute_dataset_stats(images)
    pool = np.concatenate([pp.standardize(im, stats).ravel() for im in images])
    assert abs(pool.mean()) < 1e-9
    assert abs(pool.std() - 1.0) < 1e-9


# --- pipeline -------------------------------------------------------------------

def test_pipeline_default_output_dim_1024():
    img = random_dicom(np.random.default_rng(10))
    crop = pp.preprocess_uncalibrated(img, pp.PreprocessConfig())
    assert crop.shape == (1024, 1024)


def test_pipeline_desk_dims_and_determinism():
    cfg = pp.PreprocessConfig(resize_dim=78, crop_dim=64, eq_levels=256)
    img = random_dicom(np.random.default_rng(11))
    data = dicom.write_test_dicom(img)
    a = pp.preprocess_uncalibrated(dicom.parse_dicom(data), cfg)
    b = pp.preprocess_uncalibrated(dicom.parse_dicom(data), cfg)
    assert a.shape == (64, 64)
    assert a.tobytes() == b.tobytes()


def test_pipeline_config_validation():
    with pytest.raises(InvalidConfigError):
        pp.PreprocessConfig(resize_dim=10, crop_dim=20, eq_levels=256)
    for kw in ({"resize_dim": 0, "crop_dim": 0}, {"crop_dim": 0}, {"eq_levels": 1}):
        with pytest.raises(InvalidConfigError):
            pp.PreprocessConfig(**kw)
    pp.PreprocessConfig()
    pp.PreprocessConfig(resize_dim=64, crop_dim=64, eq_levels=2)


def test_stats_csv_round_trip():
    stats = pp.DatasetStats(mu=12.5, sigma=3.75)
    back = pp.stats_from_csv(pp.stats_to_csv(stats))
    assert back.mu == stats.mu and back.sigma == stats.sigma


@pytest.mark.parametrize("text", [
    "",
    "mu,sigma\n",
    "mu,sigma\n1.0\n",
    "mu,sigma\n1.0,2.0,3.0\n",
    "mu,sigma\nx,2.0\n",
    "sigma,mu\n1.0,2.0\n",
    "mu,sigma\nnan,2.0\n",
    "mu,sigma\n1.0,inf\n",
    "mu,sigma\n1.0,0.0\n",
    "mu,sigma\n1.0,-2.0\n",
])
def test_stats_csv_rejects_malformed_and_nonpositive_sigma(text):
    with pytest.raises(MalformedFileError):
        pp.stats_from_csv(text)


# --- pinned bits and the staged oracle ------------------------------------------

_DESK = pp.PreprocessConfig(resize_dim=78, crop_dim=64, eq_levels=256)


def _pinned_inputs(case):
    if case in ("desk96", "desk512"):
        dim, n = (96, 8) if case == "desk96" else (512, 4)
        samples = sg.generate_samples(sg.SynthConfig(n=n, image_dim=dim, seed=5))
        return [sg.sample_to_dicom(s) for s in samples], _DESK
    s = sg.generate_samples(sg.SynthConfig(n=3, image_dim=96, seed=5))
    if case == "monochrome1":
        img = dataclasses.replace(sg.sample_to_dicom(s[1]), photometric="MONOCHROME1", rescale_slope=0.37,
                                  rescale_intercept=-1024.5, window_center=250.0, window_width=150.0)
    else:  # signed 16-bit stored values
        img = dataclasses.replace(sg.sample_to_dicom(s[2]), bits_stored=16, pixel_representation=1,
                                  pixels=(s[2].image.astype(np.int32) - 2048) * 16,
                                  window_center=-20000.0, window_width=6000.0)
    img.validate()
    return [img], pp.PreprocessConfig()


@pytest.mark.parametrize("case,digest", [
    ("desk96", "986a63e17cecd2f286944357ddf200908500165a7df5199be102dab7cbe22b0a"),
    ("desk512", "6c4b254ca2f24ce41b86fade02057ded5156dbeff025bae0db6886bbfd8afa30"),
    ("monochrome1", "144d474551207d5097107aa8847b3698f38b925dfc2d24e7a49cd13b6595aeab"),
    ("signed16", "ef67e688b25cddc8059dbbda494dd3449d58f8077693d234820f1215c1869914"),
])
def test_preprocessed_bits_are_pinned(case, digest):
    # digests of the staged chain's crops (per-pixel window and equalize, full
    # np.ix_ resize, then crop), taken before the value table replaced it
    images, cfg = _pinned_inputs(case)
    h = hashlib.sha256()
    for img in images:
        crop = pp.preprocess_uncalibrated(img, cfg)
        assert np.ptp(crop) > 0  # the window leaves an image to equalize
        h.update(crop.tobytes())
    assert h.hexdigest() == digest


@st.composite
def _dicom_images(draw):
    bits_allocated = draw(st.sampled_from([8, 16]))
    bits_stored = 8 if bits_allocated == 8 else draw(st.sampled_from([12, 16]))
    signed = draw(st.sampled_from([0, 1]))
    half = 2 ** (bits_stored - 1)
    lo, hi = (-half, half - 1) if signed else (0, 2 * half - 1)
    dtype = draw(st.sampled_from([np.int64, dicom._PIXEL_DTYPES[(bits_allocated, signed)]]))
    rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    pixels = draw(hnp.arrays(dtype, (rows, cols), elements=st.integers(lo, hi)))
    if draw(st.booleans()):
        pixels[...] = pixels.flat[0]  # a constant image
    finite = {"allow_nan": False, "allow_infinity": False}
    return dicom.DicomImage(
        rows=rows,
        cols=cols,
        bits_allocated=bits_allocated,
        bits_stored=bits_stored,
        pixel_representation=signed,
        photometric=draw(st.sampled_from(["MONOCHROME1", "MONOCHROME2"])),
        window_center=draw(st.floats(-70000.0, 70000.0, **finite)),
        window_width=draw(st.floats(1e-3, 140000.0, **finite)),
        pixels=pixels,
        rescale_slope=draw(st.floats(-4.0, 4.0, **finite)),
        rescale_intercept=draw(st.floats(-4096.0, 4096.0, **finite)),
    )


@st.composite
def _preprocess_configs(draw):
    resize_dim = draw(st.integers(1, 40))
    return pp.PreprocessConfig(resize_dim, draw(st.integers(1, resize_dim)), draw(st.integers(2, 300)))


def _staged_chain(img, cfg):
    return center_crop(
        pp.resize_bilinear(
            equalize(pp.window(to_real_image(img), img.window_center, img.window_width), cfg.eq_levels),
            cfg.resize_dim,
        ),
        cfg.crop_dim,
    )


@settings(max_examples=300)
@given(_dicom_images(), _preprocess_configs())
def test_value_table_path_equals_the_staged_chain(img, cfg):
    img.validate()
    out = pp.preprocess_uncalibrated(img, cfg)
    assert out.shape == (cfg.crop_dim, cfg.crop_dim)
    assert out.tobytes() == _staged_chain(img, cfg).tobytes()


@pytest.mark.parametrize("photometric", ["MONOCHROME1", "MONOCHROME2"])
@pytest.mark.parametrize("dtype,low,high", [
    ("<u1", 3, 250),
    ("<u2", 100, 4000),
    ("<i1", -120, 90),
    ("<i1", 5, 127),
    ("<i2", -3000, 2500),
    ("<i2", 0, 4095),
])
def test_stored_dtypes_and_minima_match_the_staged_chain(dtype, low, high, photometric):
    # a non-negative minimum indexes the value table by the stored pixels as
    # they are, read-only as parse_dicom leaves them; a negative one shifts a copy
    dtype = np.dtype(dtype)
    pixels = np.random.default_rng(high - low).integers(low, high + 1, size=(53, 47)).astype(dtype)
    pixels.flags.writeable = False
    bits = 8 * dtype.itemsize
    img = dicom.DicomImage(
        rows=53, cols=47, bits_allocated=bits, bits_stored=bits, pixel_representation=int(dtype.kind == "i"),
        photometric=photometric, window_center=0.0, window_width=1.0,
        pixels=pixels, rescale_slope=1.0, rescale_intercept=0.0,
    )
    real = to_real_image(img)  # a window over the middle half of the real values
    img = dataclasses.replace(img, window_center=float(np.median(real)), window_width=float(np.ptp(real)) / 2)
    img.validate()
    cfg = pp.PreprocessConfig(resize_dim=40, crop_dim=31, eq_levels=64)
    out = pp.preprocess_uncalibrated(img, cfg)
    assert np.ptp(out) > 0  # the window leaves an image to equalize
    assert out.tobytes() == _staged_chain(img, cfg).tobytes()


@pytest.mark.parametrize("signed", [False, True])
def test_a_512_px_call_makes_no_whole_image_copy(signed):
    # bincount casts what it counts to intp, 2 MiB for these 512 x 512
    # pixels; counted in row chunks, one call peaks below half of that, and
    # a negative minimum is shifted per chunk, not on a copy of the image
    img = dicom.DicomImage(
        rows=512, cols=512, bits_allocated=16, bits_stored=12, pixel_representation=int(signed),
        photometric="MONOCHROME2", window_center=0.0 if signed else 2048.0, window_width=4096.0,
        pixels=np.random.default_rng(4).integers(-2048 if signed else 0, 2048 if signed else 4096, (512, 512)),
    )
    img = dicom.parse_dicom(dicom.write_test_dicom(img))
    tracemalloc.start()
    try:
        out = pp.preprocess_uncalibrated(img, _DESK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    assert out.tobytes() == _staged_chain(img, _DESK).tobytes()


def _resize_two_row_reference(v, dim):
    # full four-grid np.ix_ form of the bilinear resize
    r0, r1, fr = pp._axis_coords(v.shape[0], dim)
    c0, c1, fc = pp._axis_coords(v.shape[1], dim)
    top = v[np.ix_(r0, c0)] * (1.0 - fc) + v[np.ix_(r0, c1)] * fc
    bot = v[np.ix_(r1, c0)] * (1.0 - fc) + v[np.ix_(r1, c1)] * fc
    return top * (1.0 - fr)[:, None] + bot * fr[:, None]


@settings(max_examples=200)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=30),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)),
       st.integers(1, 45))
def test_separable_resize_equals_the_two_row_form(v, dim):
    assert pp.resize_bilinear(v, dim).tobytes() == _resize_two_row_reference(v, dim).tobytes()

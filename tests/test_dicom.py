"""DICOM fixture writer / parser round trips and malformed-input handling."""

import struct
import tracemalloc

import numpy as np
import pytest

from cacxray import dicom, framing
from cacxray.errors import (
    CacXrayError,
    MalformedFileError,
    MissingRequiredTagError,
    TruncatedFileError,
    UnsupportedPhotometricError,
    UnsupportedTransferSyntaxError,
)

from conftest import random_dicom, replace_element_payload, remove_element

TAG_TRANSFER_SYNTAX = (0x0002, 0x0010)
TAG_PHOTOMETRIC = (0x0028, 0x0004)
TAG_WINDOW_CENTER = (0x0028, 0x1050)
TAG_ROWS = (0x0028, 0x0010)
TAG_COLUMNS = (0x0028, 0x0011)
TAG_PIXEL_DATA = (0x7FE0, 0x0010)


def _assert_same_image(a: dicom.DicomImage, b: dicom.DicomImage) -> None:
    assert a.rows == b.rows and a.cols == b.cols
    assert a.bits_allocated == b.bits_allocated
    assert a.bits_stored == b.bits_stored
    assert a.pixel_representation == b.pixel_representation
    assert a.photometric == b.photometric
    assert a.window_center == b.window_center
    assert a.window_width == b.window_width
    assert a.rescale_slope == b.rescale_slope
    assert a.rescale_intercept == b.rescale_intercept
    assert np.array_equal(a.pixels, b.pixels)


@pytest.mark.parametrize("ts", [dicom.EXPLICIT_VR_LE, dicom.IMPLICIT_VR_LE])
def test_round_trip_randomized(ts):
    rng = np.random.default_rng(17)
    for _ in range(25):
        img = random_dicom(rng)
        back = dicom.parse_dicom(dicom.write_test_dicom(img, transfer_syntax=ts))
        _assert_same_image(img, back)


def test_round_trip_signed_16bit():
    img = dicom.DicomImage(
        rows=2, cols=2, bits_allocated=16, bits_stored=16, pixel_representation=1,
        photometric="MONOCHROME2", window_center=0.0, window_width=10.0,
        pixels=np.array([[-1, 0], [1, 2]], dtype=np.int64),
    )
    back = dicom.parse_dicom(dicom.write_test_dicom(img))
    assert np.array_equal(back.pixels, img.pixels)


def test_parse_example_fixture_fields():
    img = dicom.DicomImage(
        rows=4, cols=4, bits_allocated=16, bits_stored=12, pixel_representation=0,
        photometric="MONOCHROME2", window_center=100.0, window_width=200.0,
        pixels=np.arange(16, dtype=np.int64).reshape(4, 4),
    )
    back = dicom.parse_dicom(dicom.write_test_dicom(img))
    _assert_same_image(img, back)


def test_to_real_image_identity_and_affine():
    img = dicom.DicomImage(
        rows=1, cols=3, bits_allocated=8, bits_stored=8, pixel_representation=0,
        photometric="MONOCHROME2", window_center=10.0, window_width=20.0,
        pixels=np.array([[0, 1, 2]], dtype=np.int64),
    )
    assert np.array_equal(dicom.real_values(img, img.pixels), [[0.0, 1.0, 2.0]])
    img2 = dicom.DicomImage(
        rows=1, cols=3, bits_allocated=8, bits_stored=8, pixel_representation=0,
        photometric="MONOCHROME2", window_center=10.0, window_width=20.0,
        pixels=np.array([[0, 1, 2]], dtype=np.int64),
        rescale_slope=2.0, rescale_intercept=-1.0,
    )
    assert np.array_equal(dicom.real_values(img2, img2.pixels), [[-1.0, 1.0, 3.0]])


def test_monochrome1_inverts_before_rescale():
    # 8-bit stored 0 must read as 255 before the affine rescale
    img = dicom.DicomImage(
        rows=1, cols=2, bits_allocated=8, bits_stored=8, pixel_representation=0,
        photometric="MONOCHROME1", window_center=10.0, window_width=20.0,
        pixels=np.array([[0, 200]], dtype=np.int64),
        rescale_slope=2.0, rescale_intercept=5.0,
    )
    real = dicom.real_values(img, img.pixels)
    assert np.array_equal(real, 2.0 * (255 - np.array([[0, 200]])) + 5.0)
    back = dicom.parse_dicom(dicom.write_test_dicom(img))
    assert np.array_equal(dicom.real_values(back, back.pixels), real)


def test_to_real_image_monotone_for_nonnegative_slope():
    rng = np.random.default_rng(3)
    img = random_dicom(rng)
    while img.photometric != "MONOCHROME2" or img.rescale_slope < 0:
        img = random_dicom(rng)
    real = dicom.real_values(img, img.pixels)
    order = np.argsort(img.pixels.ravel(), kind="stable")
    assert np.all(np.diff(real.ravel()[order]) >= 0)


def test_multivalued_window_center_takes_first():
    img = dicom.DicomImage(
        rows=2, cols=2, bits_allocated=8, bits_stored=8, pixel_representation=0,
        photometric="MONOCHROME2", window_center=100.0, window_width=200.0,
        pixels=np.zeros((2, 2), dtype=np.int64),
    )
    data = replace_element_payload(dicom.write_test_dicom(img), TAG_WINDOW_CENTER, b"40\\80 ")
    assert dicom.parse_dicom(data).window_center == 40.0


def test_compressed_transfer_syntax_rejected():
    img = random_dicom(np.random.default_rng(5))
    data = dicom.write_test_dicom(img)
    patched = replace_element_payload(data, TAG_TRANSFER_SYNTAX, b"1.2.840.10008.1.2.4.70")
    with pytest.raises(UnsupportedTransferSyntaxError):
        dicom.parse_dicom(patched)


def test_unsupported_photometric_rejected():
    img = random_dicom(np.random.default_rng(6))
    data = dicom.write_test_dicom(img)
    patched = replace_element_payload(data, TAG_PHOTOMETRIC, b"RGB ")
    with pytest.raises(UnsupportedPhotometricError):
        dicom.parse_dicom(patched)


def test_missing_required_tag_rejected():
    img = random_dicom(np.random.default_rng(7))
    data = dicom.write_test_dicom(img)
    for tag in (TAG_ROWS, TAG_WINDOW_CENTER):
        with pytest.raises(MissingRequiredTagError):
            dicom.parse_dicom(remove_element(data, tag))


# A fixture whose optional elements all differ from their defaults, with
# pixels that stay in range whichever default replaces them.
_NON_DEFAULT = dict(
    rows=2, cols=3, bits_allocated=16, bits_stored=12, pixel_representation=1,
    photometric="MONOCHROME1", window_center=40.0, window_width=80.0,
    pixels=np.array([[0, 1, 2], [3, 2047, 5]], dtype=np.int64),
    rescale_slope=2.0, rescale_intercept=-1024.0,
)


@pytest.mark.parametrize(
    "tag, field, default",
    [
        ((0x0028, 0x0004), "photometric", "MONOCHROME2"),
        ((0x0028, 0x0101), "bits_stored", 16),  # BitsAllocated
        ((0x0028, 0x0103), "pixel_representation", 0),
        ((0x0028, 0x1052), "rescale_intercept", 0.0),
        ((0x0028, 0x1053), "rescale_slope", 1.0),
    ],
)
def test_absent_optional_element_takes_its_default(tag, field, default):
    img = dicom.DicomImage(**_NON_DEFAULT)
    assert getattr(img, field) != default
    back = dicom.parse_dicom(remove_element(dicom.write_test_dicom(img), tag))
    assert getattr(back, field) == default
    setattr(img, field, default)
    _assert_same_image(img, back)


@pytest.mark.parametrize(
    "tag, payload, error",
    [
        (TAG_ROWS, b"\x00\x00", MalformedFileError),
        ((0x0028, 0x0100), b"\x0c\x00", MalformedFileError),  # BitsAllocated 12
        ((0x0028, 0x0101), b"\x11\x00", MalformedFileError),  # BitsStored 17
        ((0x0028, 0x0103), b"\x02\x00", MalformedFileError),  # PixelRepresentation 2
        ((0x0028, 0x1051), b"0 ", MalformedFileError),  # WindowWidth 0
        ((0x0028, 0x0101), b"\x01\x00", MalformedFileError),  # pixels exceed 1 bit
        (TAG_PHOTOMETRIC, b"PALETTE COLOR ", UnsupportedPhotometricError),
        (TAG_WINDOW_CENTER, b"nan ", MalformedFileError),
        ((0x0028, 0x1051), b"inf ", MalformedFileError),  # WindowWidth
        ((0x0028, 0x1052), b"-inf    ", MalformedFileError),  # RescaleIntercept
        ((0x0028, 0x1053), b"inf ", MalformedFileError),  # RescaleSlope
        ((0x0028, 0x1053), b"nan ", MalformedFileError),
    ],
)
def test_inconsistent_header_rejected(tag, payload, error):
    data = dicom.write_test_dicom(dicom.DicomImage(**_NON_DEFAULT))
    with pytest.raises(error):
        dicom.parse_dicom(replace_element_payload(data, tag, payload))


@pytest.mark.parametrize("tag", [TAG_ROWS, TAG_COLUMNS], ids=["rows", "columns"])
def test_zero_rows_or_columns_rejected(tag):
    # no pixel payload matches a 0 x n image, so the header check is what rejects it
    data = dicom.write_test_dicom(dicom.DicomImage(**_NON_DEFAULT))
    data = replace_element_payload(replace_element_payload(data, tag, b"\x00\x00"), TAG_PIXEL_DATA, b"")
    with pytest.raises(MalformedFileError, match="Rows and Columns must be positive"):
        dicom.parse_dicom(data)


@pytest.mark.parametrize("ts, header", [
    (dicom.EXPLICIT_VR_LE, struct.pack("<HH2s2xI", 0x0009, 0x1000, b"OB", 0xFFFFFFFF)),
    (dicom.IMPLICIT_VR_LE, struct.pack("<HHI", 0x0009, 0x1000, 0xFFFFFFFF)),
], ids=["explicit", "implicit"])
def test_undefined_length_element_rejected(ts, header):
    data = dicom.write_test_dicom(dicom.DicomImage(**_NON_DEFAULT), transfer_syntax=ts) + header
    with pytest.raises(MalformedFileError, match=r"element \(0009,1000\) has undefined length"):
        dicom.parse_dicom(data)


def test_writer_runs_the_same_validation():
    for change, error in (
        (dict(bits_stored=17), MalformedFileError),
        (dict(rows=3), MalformedFileError),
        (dict(pixels=np.full((2, 3), 4096)), MalformedFileError),
        (dict(pixels=np.zeros((2, 3))), MalformedFileError),
        (dict(window_center=float("nan")), MalformedFileError),
        (dict(window_width=float("inf")), MalformedFileError),
        (dict(rescale_intercept=float("-inf")), MalformedFileError),
        (dict(rescale_slope=float("inf")), MalformedFileError),
        (dict(photometric="RGB"), UnsupportedPhotometricError),
    ):
        with pytest.raises(error):
            dicom.write_test_dicom(dicom.DicomImage(**{**_NON_DEFAULT, **change}))


_STORED_DTYPES = {(8, 0): "<u1", (8, 1): "<i1", (16, 0): "<u2", (16, 1): "<i2"}


@pytest.mark.parametrize("ts", [dicom.EXPLICIT_VR_LE, dicom.IMPLICIT_VR_LE])
@pytest.mark.parametrize("bits, signed", sorted(_STORED_DTYPES))
def test_pixels_are_a_read_only_view_in_the_stored_dtype(ts, bits, signed):
    info = np.iinfo(_STORED_DTYPES[bits, signed])
    pixels = np.array([[info.min, info.min + 1, 0], [info.max, 7, info.max - 1]], dtype=np.int64)
    img = dicom.DicomImage(
        rows=2, cols=3, bits_allocated=bits, bits_stored=bits, pixel_representation=signed,
        photometric="MONOCHROME2", window_center=0.0, window_width=10.0, pixels=pixels,
    )
    data = dicom.write_test_dicom(img, transfer_syntax=ts)
    back = dicom.parse_dicom(data)
    assert back.pixels.dtype == np.dtype(_STORED_DTYPES[bits, signed])
    assert not back.pixels.flags.writeable
    assert np.array_equal(back.pixels, pixels)
    assert np.shares_memory(back.pixels, np.frombuffer(data, np.uint8))


@pytest.mark.parametrize("wrap", [bytearray, lambda data: memoryview(bytearray(data))])
def test_pixels_do_not_alias_a_mutable_input(wrap):
    img = dicom.DicomImage(**_NON_DEFAULT)
    buf = wrap(dicom.write_test_dicom(img))
    back = dicom.parse_dicom(buf)
    buf[-12:] = b"\xff" * 12  # the six 16-bit pixels end the file
    assert np.array_equal(back.pixels, img.pixels)


def test_parsing_allocates_no_copy_of_the_pixels():
    img = dicom.DicomImage(
        rows=512, cols=512, bits_allocated=16, bits_stored=12, pixel_representation=0,
        photometric="MONOCHROME2", window_center=2048.0, window_width=4096.0,
        pixels=np.random.default_rng(4).integers(0, 4096, (512, 512)),
    )
    data = dicom.write_test_dicom(img)
    tracemalloc.start()
    try:
        back = dicom.parse_dicom(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the pixels take 512 KiB; any copy of them would show in the peak
    assert peak < 64 * 1024
    assert np.array_equal(back.pixels, img.pixels)


def test_cut_inside_an_element_is_a_truncated_file():
    data = dicom.write_test_dicom(dicom.DicomImage(**_NON_DEFAULT))
    with pytest.raises(TruncatedFileError, match="inside element \\(7FE0,0010\\) value") as info:
        dicom.parse_dicom(data[:-3])
    assert isinstance(info.value, MalformedFileError)
    assert info.value.exit_code == 4


def test_bad_magic_rejected():
    with pytest.raises(MalformedFileError):
        dicom.parse_dicom(b"\x00" * 128 + b"DICZ" + b"\x00" * 64)
    with pytest.raises(MalformedFileError):
        dicom.parse_dicom(b"")


def test_every_truncation_rejected_without_crash():
    img = dicom.DicomImage(
        rows=3, cols=3, bits_allocated=16, bits_stored=12, pixel_representation=0,
        photometric="MONOCHROME2", window_center=50.0, window_width=120.0,
        pixels=np.arange(9, dtype=np.int64).reshape(3, 3) * 7,
    )
    data = dicom.write_test_dicom(img)
    for cut in range(len(data)):
        with pytest.raises((MalformedFileError, MissingRequiredTagError)):
            dicom.parse_dicom(data[:cut])


def test_truncation_never_yields_silent_success_implicit():
    img = random_dicom(np.random.default_rng(8))
    data = dicom.write_test_dicom(img, transfer_syntax=dicom.IMPLICIT_VR_LE)
    for cut in range(0, len(data), 3):
        with pytest.raises(CacXrayError):
            dicom.parse_dicom(data[:cut])


def test_writer_refuses_foreign_transfer_syntax():
    img = random_dicom(np.random.default_rng(9))
    with pytest.raises(ValueError):
        dicom.write_test_dicom(img, transfer_syntax="1.2.840.10008.1.2.4.70")


@pytest.mark.parametrize("vr,value", [("OW", b"\x01\x02\x03\x04"), ("US", b"\x10\x00")])
def test_explicit_vr_element_reads_from_a_writable_buffer(vr, value):
    # the VR is looked up as bytes: a memoryview over a bytearray cannot be
    # hashed, and one over bytes hashes the whole file behind it
    data = bytearray(dicom._encode_element(TAG_ROWS, vr, value))
    tag, got = dicom._read_element(framing.Reader(data), explicit=True)
    assert tag == TAG_ROWS
    assert bytes(got) == value

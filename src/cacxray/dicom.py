"""Minimal DICOM part-10 reader/writer for chest radiographs.

Supports exactly the subset the pipeline needs: single-frame grayscale images,
uncompressed, Explicit or Implicit VR Little Endian. Anything else is rejected
with a structured error instead of a guess. The writer emits fixtures the
parser round-trips bitwise; it is not a general-purpose DICOM producer.

One table, ``_ELEMENTS``, lists every dataset element the pipeline uses: its
tag, keyword, VR, ``DicomImage`` field and the default that stands in when the
element is absent. The parser decodes and the writer encodes from that table,
through one codec per VR, and both run ``DicomImage.validate`` as their only
consistency check.

``DicomFiles`` holds the images of a set of files without their pixels: it
parses each file once when built and reads it again on each access.

Truncation semantics: a byte stream that ends *inside* an element (header or
value) raises TruncatedFileError, a MalformedFileError; one that ends cleanly
between elements but never delivered a required tag raises
MissingRequiredTagError. Either way a damaged file yields an exception, never
a partial image.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from operator import index, itemgetter
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .errors import (
    CacXrayError,
    MalformedFileError,
    MissingRequiredTagError,
    TruncatedFileError,
    UnsupportedPhotometricError,
    UnsupportedTransferSyntaxError,
)
from .framing import FileStamp, Reader, read_stamped

EXPLICIT_VR_LE = "1.2.840.10008.1.2.1"
IMPLICIT_VR_LE = "1.2.840.10008.1.2"
SUPPORTED_TRANSFER_SYNTAXES = (EXPLICIT_VR_LE, IMPLICIT_VR_LE)

_META_GROUP_LENGTH = (0x0002, 0x0000)
_META_TRANSFER_SYNTAX = (0x0002, 0x0010)

# VRs that use the 4-byte length form in Explicit VR encoding.
_LONG_VRS = {b"OB", b"OW", b"OF", b"SQ", b"UT", b"UN"}

_PIXEL_DTYPES = {
    (8, 0): np.dtype("<u1"),
    (8, 1): np.dtype("<i1"),
    (16, 0): np.dtype("<u2"),
    (16, 1): np.dtype("<i2"),
}


def _fmt_tag(tag: tuple[int, int]) -> str:
    return f"({tag[0]:04X},{tag[1]:04X})"


@dataclass
class DicomImage:
    """Decoded single-frame grayscale image plus the tags the pipeline uses.

    ``pixels`` holds stored values (pre rescale, pre photometric inversion)
    as an integer array of shape (rows, cols). From ``parse_dicom`` or
    ``DicomFiles`` it is a read-only view of the file's bytes in the stored
    dtype (``<u1``, ``<i1``, ``<u2`` or ``<i2``), not a copy, so the image
    holds those bytes for as long as it lives.
    """

    rows: int
    cols: int
    bits_allocated: int
    bits_stored: int
    pixel_representation: int
    photometric: str
    window_center: float
    window_width: float
    pixels: np.ndarray
    rescale_slope: float = 1.0
    rescale_intercept: float = 0.0

    def validate(self) -> None:
        """Raise MalformedFileError if the fields are not mutually consistent
        or a decimal field (window, rescale) is not finite, or
        UnsupportedPhotometricError for a photometric interpretation other
        than MONOCHROME1/MONOCHROME2. The header fields are checked before the
        pixel array."""
        if self.rows < 1 or self.cols < 1:
            raise MalformedFileError(f"Rows and Columns must be positive, got {self.rows}x{self.cols}")
        if self.bits_allocated not in (8, 16):
            raise MalformedFileError(f"BitsAllocated {self.bits_allocated} not supported (want 8 or 16)")
        if not 1 <= self.bits_stored <= self.bits_allocated:
            raise MalformedFileError(f"BitsStored {self.bits_stored} outside [1, {self.bits_allocated}]")
        if self.pixel_representation not in (0, 1):
            raise MalformedFileError(f"PixelRepresentation {self.pixel_representation} not in {{0, 1}}")
        if self.photometric not in ("MONOCHROME1", "MONOCHROME2"):
            raise UnsupportedPhotometricError(f"PhotometricInterpretation {self.photometric!r} is not supported")
        for el in _ELEMENTS:
            if el.vr == "DS" and not math.isfinite(getattr(self, el.field)):
                raise MalformedFileError(f"{el.keyword} must be finite, got {getattr(self, el.field)}")
        if not self.window_width > 0:
            raise MalformedFileError(f"WindowWidth must be positive, got {self.window_width}")
        if self.pixels.shape != (self.rows, self.cols):
            raise MalformedFileError(f"pixel array shape {self.pixels.shape} disagrees with rows/cols")
        if not np.issubdtype(self.pixels.dtype, np.integer):
            raise MalformedFileError("pixels must be an integer array")
        lo, hi = self.stored_value_range()
        pmin, pmax = int(self.pixels.min()), int(self.pixels.max())
        if pmin < lo or pmax > hi:
            raise MalformedFileError(
                f"stored pixel values [{pmin}, {pmax}] exceed the {self.bits_stored}-bit range [{lo}, {hi}]"
            )

    def stored_value_range(self) -> tuple[int, int]:
        if self.pixel_representation == 0:
            return 0, 2 ** self.bits_stored - 1
        half = 2 ** (self.bits_stored - 1)
        return -half, half - 1


class _Element(NamedTuple):
    tag: tuple[int, int]
    keyword: str
    vr: str
    field: str
    # None marks a required element; a callable default is applied to the
    # fields decoded before this element.
    default: Any = None


# Every dataset element the pipeline reads and writes, in ascending tag order
# (the order the writer emits them, PixelData last).
_ELEMENTS = (
    _Element((0x0028, 0x0004), "PhotometricInterpretation", "CS", "photometric", "MONOCHROME2"),
    _Element((0x0028, 0x0010), "Rows", "US", "rows"),
    _Element((0x0028, 0x0011), "Columns", "US", "cols"),
    _Element((0x0028, 0x0100), "BitsAllocated", "US", "bits_allocated"),
    _Element((0x0028, 0x0101), "BitsStored", "US", "bits_stored", itemgetter("bits_allocated")),
    _Element((0x0028, 0x0103), "PixelRepresentation", "US", "pixel_representation", 0),
    _Element((0x0028, 0x1050), "WindowCenter", "DS", "window_center"),
    _Element((0x0028, 0x1051), "WindowWidth", "DS", "window_width"),
    _Element((0x0028, 0x1052), "RescaleIntercept", "DS", "rescale_intercept", 0.0),
    _Element((0x0028, 0x1053), "RescaleSlope", "DS", "rescale_slope", 1.0),
    _Element((0x7FE0, 0x0010), "PixelData", "OW", "pixels"),
)
_TAGS = frozenset(el.tag for el in _ELEMENTS)


# --- per-VR codecs ----------------------------------------------------------


def _pad_even(value: bytes, pad: bytes) -> bytes:
    return value + pad if len(value) % 2 else value


def _name(el: _Element) -> str:
    return f"{el.keyword} {_fmt_tag(el.tag)}"


def _decode_us(value: memoryview, el: _Element) -> int:
    if len(value) != 2:
        raise MalformedFileError(f"element {_name(el)} expected a 2-byte unsigned value, got {len(value)} bytes")
    return struct.unpack("<H", value)[0]


def _decode_ds(value: memoryview, el: _Element) -> float:
    """Decimal string; multi-valued entries resolve to the first value."""
    try:
        text = str(value, "ascii")
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"element {_name(el)} is not an ASCII decimal string") from exc
    first = text.split("\\")[0].strip(" \x00")
    try:
        return float(first)
    except ValueError as exc:
        raise MalformedFileError(f"element {_name(el)} holds no parseable number: {first!r}") from exc


def _encode_ds(x: float) -> bytes:
    # repr round-trips float64 exactly through the parser
    return _pad_even(repr(float(x)).encode("ascii"), b" ")


def _decode_cs(value: memoryview, el: _Element) -> str:
    try:
        return str(value, "ascii").strip(" \x00")
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"element {_name(el)} is not an ASCII code string") from exc


# VR -> (decode(value memoryview, element) -> field value, encode(field value) -> bytes).
# OW carries the raw pixel bytes; _pixels_from_bytes and write_test_dicom
# convert between those and the pixel array.
_CODECS = {
    "US": (_decode_us, lambda x: struct.pack("<H", x)),
    "CS": (_decode_cs, lambda x: _pad_even(x.encode("ascii"), b" ")),
    "DS": (_decode_ds, _encode_ds),
    "OW": (lambda value, el: value, lambda x: _pad_even(x, b"\x00")),
}


# --- reader ------------------------------------------------------------------


def _read_element(r: Reader, explicit: bool) -> tuple[tuple[int, int], memoryview]:
    tag = r.unpack("HH", "an element tag")
    what = f"element {_fmt_tag(tag)}"
    if explicit:
        vr = r.take(2, f"{what} VR")
        if vr in _LONG_VRS:
            r.take(2, f"{what} reserved bytes")
            (length,) = r.unpack("I", f"{what} length")
        else:
            (length,) = r.unpack("H", f"{what} length")
    else:
        (length,) = r.unpack("I", f"{what} length")
    if length == 0xFFFFFFFF:
        raise MalformedFileError(f"{what} has undefined length (not supported)")
    value = r.take(length, f"{what} value ({length} bytes)")
    return tag, value


def _parse_file_meta(r: Reader) -> str:
    """Consume group-0002 elements (always Explicit VR) and return the
    transfer syntax UID."""
    ts = None
    saw_meta = False
    while r.data[r.pos : r.pos + 2] == b"\x02\x00":
        saw_meta = True
        tag, value = _read_element(r, explicit=True)
        if tag == _META_TRANSFER_SYNTAX:
            ts = str(value, "ascii", "replace").rstrip("\x00 ")
    if not saw_meta:
        raise MalformedFileError("file meta group is missing")
    if ts is None:
        raise MalformedFileError("file meta lacks a TransferSyntaxUID")
    return ts


def _pixels_from_bytes(raw: memoryview, fields: dict) -> np.ndarray:
    """PixelData as a (rows, cols) array over ``raw`` itself, in the stored
    dtype: no copy, and read-only when ``raw`` is. A BitsAllocated and
    PixelRepresentation pair with no pixel layout gives an empty array;
    validate then names the bad field, as it checks the header first."""
    dtype = _PIXEL_DTYPES.get((fields["bits_allocated"], fields["pixel_representation"]))
    if dtype is None:
        return np.zeros((0, 0), dtype=np.int32)
    rows, cols = fields["rows"], fields["cols"]
    expected = rows * cols * dtype.itemsize
    # allow a single trailing pad byte (DICOM values have even length)
    if len(raw) < expected or len(raw) - expected > 1:
        raise MalformedFileError(
            f"PixelData holds {len(raw)} bytes, expected {expected} for {rows}x{cols}"
        )
    return np.frombuffer(raw, dtype=dtype, count=rows * cols).reshape(rows, cols)


def parse_dicom(data: bytes) -> DicomImage:
    """Parse a part-10 byte stream into a DicomImage.

    Raises MalformedFileError (TruncatedFileError when the stream ends inside
    an element), UnsupportedTransferSyntaxError, MissingRequiredTagError, or
    UnsupportedPhotometricError; never returns a partially populated image.
    The image's pixels are a read-only view of ``data`` when it is ``bytes``;
    any other buffer is copied once first, so the image never aliases memory
    the caller can change.
    """
    data = bytes(data)
    if len(data) < 132 or data[128:132] != b"DICM":
        raise MalformedFileError("missing DICM marker at offset 128")
    r = Reader(data, 132)
    ts = _parse_file_meta(r)
    if ts not in SUPPORTED_TRANSFER_SYNTAXES:
        raise UnsupportedTransferSyntaxError(f"transfer syntax {ts!r} is not supported")
    explicit = ts == EXPLICIT_VR_LE

    found: dict[tuple[int, int], memoryview] = {}
    while r.remaining() > 0:
        tag, value = _read_element(r, explicit)
        if tag in _TAGS:
            found[tag] = value

    fields: dict[str, Any] = {}
    for el in _ELEMENTS:
        if el.tag in found:
            fields[el.field] = _CODECS[el.vr][0](found[el.tag], el)
        elif el.default is None:
            raise MissingRequiredTagError(f"required element {_name(el)} is missing")
        else:
            fields[el.field] = el.default(fields) if callable(el.default) else el.default
    fields["pixels"] = _pixels_from_bytes(fields["pixels"], fields)
    img = DicomImage(**fields)
    img.validate()
    return img


class _HeldFile(NamedTuple):
    """What DicomFiles keeps of one file: no pixel byte."""

    path: Path
    stamp: FileStamp
    fields: dict  # every DicomImage field but pixels
    pixel_span: slice  # the pixel bytes within the file


class DicomFiles(Sequence[DicomImage]):
    """The images of the DICOM files ``paths``, in order, read on use.

    Building it reads each file once through ``framing.read_stamped`` and
    parses it with ``parse_dicom``, so every error a file can raise is raised
    here, of the class ``parse_dicom`` raised, with the file's name in front
    of its message. It keeps each file's header fields, the span of its pixel
    bytes and its stamp, and no pixel byte. Each access (an index is taken by
    ``operator.index``) reads that one file again and builds and validates the
    image from the same span; a file that is now too short raises
    TruncatedFileError and one whose stamp changed MalformedFileError, each
    naming the file. Nothing is cached: a caller that drops each image holds
    one file's bytes at a time.
    """

    def __init__(self, paths):
        self._held = []
        for path in map(Path, paths):
            data, stamp = read_stamped(path)
            try:
                img = parse_dicom(data)
            except CacXrayError as exc:
                raise exc.in_file(path.name) from exc
            # parse_dicom's pixels are a view into data, so their address locates them
            start = img.pixels.ctypes.data - np.frombuffer(data, np.uint8).ctypes.data
            fields = {el.field: getattr(img, el.field) for el in _ELEMENTS if el.field != "pixels"}
            self._held.append(_HeldFile(path, stamp, fields, slice(start, start + img.pixels.nbytes)))

    def __len__(self) -> int:
        return len(self._held)

    def __getitem__(self, i) -> DicomImage:
        path, stamp, fields, span = self._held[index(i)]
        data, now = read_stamped(path)
        if len(data) < span.stop:
            raise TruncatedFileError(f"{path.name} now ends inside its PixelData")
        if now != stamp:
            raise MalformedFileError(f"{path.name} changed since it was parsed")
        img = DicomImage(**fields, pixels=_pixels_from_bytes(memoryview(data)[span], fields))
        img.validate()
        return img


def real_values(img: DicomImage, stored: np.ndarray) -> np.ndarray:
    """Real-world values of the stored values ``stored`` of ``img``: undo
    MONOCHROME1 inversion, then apply the rescale slope/intercept. Returns
    float64 of the shape of ``stored``."""
    values = np.asarray(stored).astype(np.float64)
    if img.photometric == "MONOCHROME1":
        _, hi = img.stored_value_range()
        values = hi - values
    return img.rescale_slope * values + img.rescale_intercept


# --- writer ------------------------------------------------------------------


def _encode_element(tag: tuple[int, int], vr: str, value: bytes, explicit: bool = True) -> bytes:
    if len(value) % 2:
        raise ValueError("element values must have even length")
    head = struct.pack("<HH", tag[0], tag[1])
    if not explicit:
        return head + struct.pack("<I", len(value)) + value
    vrb = vr.encode("ascii")
    if vrb in _LONG_VRS:
        return head + vrb + b"\x00\x00" + struct.pack("<I", len(value)) + value
    if len(value) > 0xFFFF:
        raise ValueError(f"value too long for short-form VR {vr}")
    return head + vrb + struct.pack("<H", len(value)) + value


def write_test_dicom(img: DicomImage, transfer_syntax: str = EXPLICIT_VR_LE) -> bytes:
    """Serialize a DicomImage as a part-10 file the parser round-trips bitwise.

    Emits a 128-byte preamble, DICM marker, a minimal file-meta group, and the
    dataset elements in ascending tag order with PixelData last.
    """
    img.validate()
    if transfer_syntax not in SUPPORTED_TRANSFER_SYNTAXES:
        raise ValueError(f"refusing to write transfer syntax {transfer_syntax!r}")
    explicit = transfer_syntax == EXPLICIT_VR_LE

    ts_value = _pad_even(transfer_syntax.encode("ascii"), b"\x00")
    meta_body = _encode_element(_META_TRANSFER_SYNTAX, "UI", ts_value)
    meta = (
        _encode_element(_META_GROUP_LENGTH, "UL", struct.pack("<I", len(meta_body)))
        + meta_body
    )

    fields = {el.field: getattr(img, el.field) for el in _ELEMENTS}
    dtype = _PIXEL_DTYPES[(img.bits_allocated, img.pixel_representation)]
    fields["pixels"] = np.ascontiguousarray(img.pixels, dtype=dtype).tobytes()
    body = b"".join(
        _encode_element(el.tag, el.vr, _CODECS[el.vr][1](fields[el.field]), explicit)
        for el in _ELEMENTS
    )
    return b"\x00" * 128 + b"DICM" + meta + body

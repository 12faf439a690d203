"""The framing of every file the package reads or writes: one bounds-checked
little-endian reader (DICOM, weights), one CSV dialect, one strict JSON dumper."""

from __future__ import annotations

import csv
import io
import json
import struct

from .errors import TruncatedFileError


class Reader:
    """Cursor over a byte string. Asking for bytes past the end raises
    TruncatedFileError naming ``what`` was being read."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = memoryview(data)
        self.pos = pos

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int, what: str) -> memoryview:
        """The next ``n`` bytes as a memoryview slice of the input, not a
        copy: it changes if a mutable input does."""
        if n < 0 or self.pos + n > len(self.data):
            raise TruncatedFileError(f"file ends inside {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        """Read the little-endian struct ``fmt`` (no byte-order prefix)."""
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def csv_text(header, rows) -> str:
    """CSV with ``"\\n"`` line ends, minimal quoting and cells by ``str`` (a float's
    ``repr``). A carriage return raises ValueError: csv.writer leaves it unquoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    if "\r" in buf.getvalue():
        raise ValueError("a CSV cell holds a carriage return")
    return buf.getvalue()


def json_text(doc) -> str:
    """Strict JSON (RFC 8259: NaN and Infinity raise ValueError), sorted keys."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def plain_file_name(name: str) -> bool:
    """One file inside a directory: not empty, ``.`` or ``..``; no ``/`` or NUL."""
    return name not in ("", ".", "..") and "/" not in name and "\0" not in name

"""The framing of every file the package reads or writes: one binary file
reader that stamps what it read, and one bounds-checked little-endian reader
over its bytes (DICOM, weights); UTF-8 text whatever the locale, one CSV
dialect, one JSON parser and one strict JSON dumper; atomic writes."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import struct
from pathlib import Path
from typing import NamedTuple

from .errors import MalformedFileError, TruncatedFileError


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


class FileStamp(NamedTuple):
    """What ``stat`` says of a file: a file whose stamp is unchanged is taken
    to hold the same bytes."""

    size: int
    mtime_ns: int
    inode: int
    device: int


def _stamp(path: Path) -> FileStamp:
    st = path.stat()
    return FileStamp(st.st_size, st.st_mtime_ns, st.st_ino, st.st_dev)


def read_stamped(path: Path) -> tuple[bytes, FileStamp]:
    """The bytes of the binary file ``path`` and its stamp, taken before and
    after the read; a file that changed meanwhile raises MalformedFileError."""
    before = _stamp(path)
    data = path.read_bytes()
    if _stamp(path) != before or len(data) != before.size:
        raise MalformedFileError(f"{path.name} changed while it was read")
    return data, before


def read_text(path: Path) -> str:
    """``path`` as UTF-8 text whatever the locale, less a leading byte-order
    mark (spreadsheet exports write one); other bytes raise MalformedFileError."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"{path.name} is not UTF-8 text") from exc


def csv_rows(text: str) -> list[list[str]]:
    """The nonblank rows of ``text``; a csv.Error (a cell past the field limit) raises MalformedFileError."""
    try:
        return [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:
        raise MalformedFileError(f"unreadable CSV: {exc}") from exc


def json_value(text: str, what: str):
    """``text`` as JSON; text that is not JSON or nests too deep raises MalformedFileError naming ``what``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedFileError(f"{what} is not JSON: {exc}") from exc


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


def write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over
    ``path``, so no reader ever sees a partial file. If the write or the
    rename fails, the temporary file is removed before the error propagates."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def write_text(path: Path, text: str) -> None:
    write_bytes(path, text.encode("utf-8"))


def plain_file_name(name: str) -> bool:
    """One file inside a directory: not empty, ``.`` or ``..``; no ``/`` or NUL."""
    return name not in ("", ".", "..") and "/" not in name and "\0" not in name

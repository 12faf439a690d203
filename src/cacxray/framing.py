"""Bounds-checked little-endian reading, shared by the binary formats (DICOM
part 10 and the weights file)."""

from __future__ import annotations

import struct

from .errors import TruncatedFileError


class Reader:
    """Cursor over a byte string. Asking for bytes past the end raises
    TruncatedFileError naming ``what`` was being read."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int, what: str) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise TruncatedFileError(f"file ends inside {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        """Read the little-endian struct ``fmt`` (no byte-order prefix)."""
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

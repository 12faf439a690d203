"""The bounds-checked reader both binary formats share."""

import pytest

from cacxray.errors import MalformedFileError, TruncatedFileError
from cacxray.framing import Reader


def test_reader_reads_little_endian_and_stops_at_the_end():
    r = Reader(b"\x01\x00\x02\x00\x00\x00abc", 0)
    assert r.unpack("HI", "a header") == (1, 2)
    assert r.remaining() == 3
    with pytest.raises(TruncatedFileError, match="file ends inside a name"):
        r.take(4, "a name")
    with pytest.raises(TruncatedFileError):
        r.unpack("I", "a length")
    with pytest.raises(TruncatedFileError):
        r.take(-1, "a negative count")
    # a failed read consumes nothing
    assert r.take(3, "a name") == b"abc"
    assert r.remaining() == 0
    assert r.take(0, "nothing") == b""
    assert issubclass(TruncatedFileError, MalformedFileError)
    assert TruncatedFileError.exit_code == 4

"""The framing every file shares: the bounds-checked reader of the binary
formats, the UTF-8 text reader, the one CSV dialect and the one JSON parser
and strict dumper, the atomic writer, and the rule for an id that names a
file."""

import math
from pathlib import Path

import pytest

from cacxray.errors import MalformedFileError, TruncatedFileError
from cacxray.framing import (
    FileStamp,
    Reader,
    csv_rows,
    csv_text,
    json_text,
    json_value,
    plain_file_name,
    read_stamped,
    read_text,
    write_bytes,
    write_text,
)

from conftest import modules_calling


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


def test_csv_text_quotes_only_what_needs_it_and_writes_floats_by_repr():
    rows = [("a,b", 0.1, 3), ('say "hi"', -0.0, 0), ("two\nlines", 1e-300, -7), ("", 2.5, 1)]
    assert csv_text(("id", "x", "n"), rows) == 'id,x,n\n"a,b",0.1,3\n"say ""hi""",-0.0,0\n"two\nlines",1e-300,-7\n,2.5,1\n'
    assert csv_text(("mu", "sigma"), []) == "mu,sigma\n"


def test_csv_text_refuses_a_carriage_return():
    # csv.writer leaves it unquoted, and csv.reader cannot read that back
    with pytest.raises(ValueError, match="carriage return"):
        csv_text(("id",), [("a\rb",)])


def test_json_text_is_strict_sorted_and_indented():
    assert json_text({"b": [1, None], "a": 0.1}) == '{\n  "a": 0.1,\n  "b": [\n    1,\n    null\n  ]\n}'
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            json_text({"mean": {"rauc": bad}})


def test_text_round_trips_as_utf8_and_other_bytes_raise(tmp_path):
    path = tmp_path / "cohort.csv"
    write_text(path, "id\ns\u00e900000\n")
    assert path.read_bytes() == b"id\ns\xc3\xa900000\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cohort.csv"]
    path.write_bytes(b"id\r\na\rb\n")
    assert read_text(path) == "id\na\nb\n"
    path.write_bytes(b"id\ns\xe900000\n")
    with pytest.raises(MalformedFileError, match="cohort.csv is not UTF-8 text"):
        read_text(path)


def test_a_failed_write_leaves_no_temp_file(tmp_path):
    # a directory in the way makes the rename fail after the temp file is written
    (tmp_path / "report.json").mkdir()
    with pytest.raises(IsADirectoryError):
        write_bytes(tmp_path / "report.json", b"abc")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    with pytest.raises(FileNotFoundError):
        write_bytes(tmp_path / "missing" / "report.json", b"abc")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_read_stamped_returns_the_bytes_and_their_stamp(tmp_path, monkeypatch):
    path = tmp_path / "w.bin"
    path.write_bytes(b"\x00\x01\x02")
    st = path.stat()
    assert read_stamped(path) == (b"\x00\x01\x02", FileStamp(3, st.st_mtime_ns, st.st_ino, st.st_dev))
    read_bytes = Path.read_bytes

    def growing(self):
        data = read_bytes(self)
        self.write_bytes(data + b"\x03")
        return data

    monkeypatch.setattr(Path, "read_bytes", growing)
    with pytest.raises(MalformedFileError, match="w.bin changed while it was read"):
        read_stamped(path)


def test_csv_rows_reads_back_csv_text_and_raises_on_what_it_cannot_frame():
    rows = [("a,b", "0.1"), ('say "hi"', ""), ("two\nlines", "-7")]
    assert csv_rows(csv_text(("id", "x"), rows) + "\n\n") == [["id", "x"], *map(list, rows)]
    assert csv_rows("") == []
    with pytest.raises(MalformedFileError, match="unreadable CSV: field larger than field limit"):
        csv_rows("id\n" + "a" * 131073 + "\n")


def test_json_value_parses_json_and_names_what_is_not():
    assert json_value('{"a": [1, 0.5, null]}', "split.json") == {"a": [1, 0.5, None]}
    for bad in ("", "{", "[1,]", "1" * 5000, "[" * 100000):
        with pytest.raises(MalformedFileError, match="split.json is not JSON"):
            json_value(bad, "split.json")


@pytest.mark.parametrize("name,plain", [
    ("s00000", True), ("a b", True), ("..x", True), ("x.", True),
    ("", False), (".", False), ("..", False), ("../../evil", False), ("a/b", False), ("/abs", False),
    ("a\0b", False),
])
def test_plain_file_name(name, plain):
    assert plain_file_name(name) is plain


def test_only_framing_writes_json_or_csv():
    # one dialect for every text output: no module outside framing forks it
    assert modules_calling("json.dumps(", "csv.writer(", exempt="framing.py") == []


def test_only_framing_reads_text_json_or_csv():
    # one decoding and one error mapping for every text input; a file opened
    # by hand, in framing too, would decode by the locale or map its own errors
    assert modules_calling("json.loads(", "csv.reader(", ".read_text(", exempt="framing.py") == []
    assert modules_calling("open(", exempt=None) == []


def test_only_framing_reads_binary_files():
    # one reader for every binary input, which stamps what it read
    assert modules_calling(".read_bytes(", exempt="framing.py") == []

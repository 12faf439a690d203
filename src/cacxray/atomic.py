"""Atomic file writes: the data go to a temporary file beside the target,
which is then renamed over it, so no reader ever sees a partial file."""

from pathlib import Path


def write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def write_text(path: Path, text: str) -> None:
    write_bytes(path, text.encode("utf-8"))

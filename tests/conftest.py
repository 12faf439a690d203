"""Shared fixtures and low-level helpers for the test suite."""

import ast
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import cacxray
from cacxray import dicom

# properties run the same examples on every run, keep no example database and
# have no deadline; each property sets only its max_examples
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

PREAMBLE_LEN = 132  # 128 zero bytes + "DICM"
_LONG_VRS = {b"OB", b"OW", b"OF", b"SQ", b"UT", b"UN"}


def random_dicom(rng: np.random.Generator) -> dicom.DicomImage:
    """A random but internally consistent monochrome fixture."""
    bits_allocated = int(rng.choice([8, 16]))
    bits_stored = bits_allocated if bits_allocated == 8 else int(rng.choice([12, 16]))
    signed = int(rng.integers(0, 2))
    rows = int(rng.integers(2, 7))
    cols = int(rng.integers(2, 7))
    if signed:
        lo, hi = -(2 ** (bits_stored - 1)), 2 ** (bits_stored - 1)
    else:
        lo, hi = 0, 2 ** bits_stored
    pixels = rng.integers(lo, hi, size=(rows, cols), dtype=np.int64)
    return dicom.DicomImage(
        rows=rows,
        cols=cols,
        bits_allocated=bits_allocated,
        bits_stored=bits_stored,
        pixel_representation=signed,
        photometric=str(rng.choice(["MONOCHROME1", "MONOCHROME2"])),
        window_center=float(np.round(rng.uniform(-100, 3000), 3)),
        window_width=float(np.round(rng.uniform(1, 4000), 3)),
        pixels=pixels,
        rescale_slope=float(rng.choice([1.0, 2.0, 0.5])),
        rescale_intercept=float(rng.choice([0.0, -1024.0, 10.0])),
    )


def iter_explicit_elements(data: bytes):
    """Yield (tag, vr, payload_start, payload_len) for an explicit VR file."""
    pos = PREAMBLE_LEN
    while pos + 8 <= len(data):
        group, elem = struct.unpack_from("<HH", data, pos)
        vr = data[pos + 4 : pos + 6]
        if vr in _LONG_VRS:
            (length,) = struct.unpack_from("<I", data, pos + 8)
            payload = pos + 12
        else:
            (length,) = struct.unpack_from("<H", data, pos + 6)
            payload = pos + 8
        yield (group, elem), vr, payload, length
        pos = payload + length


def _meta_group_length_patch(data: bytearray, delta: int) -> None:
    # (0002,0000) UL holds the byte count of the remaining meta elements
    for tag, vr, payload, length in iter_explicit_elements(bytes(data)):
        if tag == (0x0002, 0x0000):
            (current,) = struct.unpack_from("<I", data, payload)
            struct.pack_into("<I", data, payload, current + delta)
            return
    raise AssertionError("meta group length element not found")


def replace_element_payload(data: bytes, tag: tuple, new_payload: bytes) -> bytes:
    """Swap one explicit VR element's payload, fixing up both lengths."""
    if len(new_payload) % 2:
        raise ValueError("DICOM payloads must have even length")
    for found, vr, payload, length in iter_explicit_elements(data):
        if found == tag:
            out = bytearray(data[:payload] + new_payload + data[payload + length :])
            delta = len(new_payload) - length
            if vr in _LONG_VRS:
                struct.pack_into("<I", out, payload - 4, len(new_payload))
            else:
                struct.pack_into("<H", out, payload - 2, len(new_payload))
            if tag[0] == 0x0002 and tag != (0x0002, 0x0000) and delta:
                _meta_group_length_patch(out, delta)
            return bytes(out)
    raise AssertionError(f"element {tag} not found")


def remove_element(data: bytes, tag: tuple) -> bytes:
    for found, vr, payload, length in iter_explicit_elements(data):
        if found == tag:
            start = payload - (12 if vr in _LONG_VRS else 8)
            return data[:start] + data[payload + length :]
    raise AssertionError(f"element {tag} not found")


def modules_calling(*calls, exempt: str | None) -> list[str]:
    """The cacxray modules, bar the one named ``exempt``, whose source holds
    any of ``calls``."""
    package = Path(cacxray.__file__).parent
    return [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if path.name != exempt and any(call in path.read_text(encoding="utf-8") for call in calls)
    ]


def benchmark_traced_classes() -> dict[str, list[str]]:
    """perfbench's LAYER_CLASSES and ENTRY_CLASSES, the model classes whose
    forward and backward it times, read without importing it."""
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    return {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("LAYER_CLASSES", "ENTRY_CLASSES")
    }


@pytest.fixture(scope="session")
def tiny_net_cfg():
    from cacxray.model.network import DenseNetConfig

    return DenseNetConfig(
        input_dim=8,
        init_channels=4,
        growth_rate=3,
        block_layers=(1, 1),
        compression=0.5,
        head_hidden=5,
        use_batchnorm=True,
    )


@pytest.fixture(scope="session")
def tiny_dataset():
    rng = np.random.default_rng(41)
    return [(rng.standard_normal((8, 8)), float(rng.standard_normal())) for _ in range(6)]

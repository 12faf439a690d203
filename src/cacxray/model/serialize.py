"""Weights file format and the JSON sidecar.

Binary layout (all little endian): magic ``CACW``, version u16, tensor count
u32, then per tensor: name length u16, UTF-8 name, rank u8, one u32 per
dimension, float32 payload row-major. Tensors are written in the network's
canonical parameter order; load normalizes to that order, so
save(load(save(p))) == save(p) bitwise.

The sidecar JSON stores the network configuration and the label transform,
field by field, so a weights file is self-describing.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import typing
from pathlib import Path

import numpy as np

from ..errors import (
    BadMagicError,
    InvalidConfigError,
    MalformedFileError,
    ShapeMismatchError,
    TruncatedFileError,
)
from ..framing import Reader, json_text, json_value, write_bytes
from ..labels import LabelTransform
from .network import DenseNetConfig, ModelParams, build_net

WEIGHTS_MAGIC = b"CACW"
WEIGHTS_VERSION = 1


def weights_to_bytes(params: ModelParams) -> bytes:
    chunks = [WEIGHTS_MAGIC, struct.pack("<HI", WEIGHTS_VERSION, len(params.tensors))]
    for name, arr in params.tensors.items():
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(chunks)


def weights_from_bytes(data: bytes, cfg: DenseNetConfig) -> ModelParams:
    """Decode and validate against the shapes ``cfg`` implies.

    Raises BadMagicError, TruncatedFileError (short file or trailing bytes),
    MalformedFileError (a tensor name that is not UTF-8, or a value that is
    not finite), or
    ShapeMismatchError when the tensor set disagrees with the config.
    Returns float64 parameters whose values are float32-representable.
    """
    if data[:4] != WEIGHTS_MAGIC:
        raise BadMagicError("not a weights file")
    r = Reader(data, 4)
    version, count = r.unpack("HI", "the header")
    if version != WEIGHTS_VERSION:
        raise BadMagicError(f"unsupported weights version {version}")
    loaded: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("H", "a tensor name length")
        try:
            name = str(r.take(name_len, "a tensor name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFileError(f"tensor name is not UTF-8: {exc}") from exc
        (rank,) = r.unpack("B", f"rank of {name}")
        if rank > 8:
            raise TruncatedFileError(f"implausible rank {rank} for {name}")
        dims = r.unpack(f"{rank}I", f"dims of {name}")
        size = math.prod(dims)
        values = np.frombuffer(r.take(4 * size, f"data of {name}"), dtype="<f4")
        if not np.isfinite(values).all():
            raise MalformedFileError(f"{name} holds values that are not finite")
        loaded[name] = values.astype(np.float64).reshape(dims)
    if r.remaining():
        raise TruncatedFileError(f"{r.remaining()} trailing bytes after the last tensor")

    expected = build_net(cfg).param_shapes()
    expected_map = dict(expected)
    missing = [n for n, _ in expected if n not in loaded]
    extra = [n for n in loaded if n not in expected_map]
    if missing or extra:
        raise ShapeMismatchError(
            f"tensor set does not match the config (missing {missing[:3]}, unexpected {extra[:3]})"
        )
    for name, shape in expected:
        if loaded[name].shape != shape:
            raise ShapeMismatchError(f"{name}: file has {loaded[name].shape}, config wants {shape}")
    # canonical order regardless of file order
    tensors = {name: loaded[name] for name, _ in expected}
    return ModelParams(cfg=cfg, tensors=tensors)


def save_weights(path, params: ModelParams) -> None:
    write_bytes(Path(path), weights_to_bytes(params))


def load_weights(path, cfg: DenseNetConfig) -> ModelParams:
    with open(path, "rb") as fh:
        return weights_from_bytes(fh.read(), cfg)


def sidecar_to_json(cfg: DenseNetConfig, lt: LabelTransform) -> str:
    return json_text({"net": dataclasses.asdict(cfg), "label_transform": dataclasses.asdict(lt)})


def _field_from_json(hint, value, where: str):
    """``value`` as a field annotated ``hint``; a float field takes any finite
    JSON number, every other field its own JSON type."""
    if typing.get_origin(hint) is tuple:
        if type(value) is list:
            return tuple(_field_from_json(typing.get_args(hint)[0], v, where) for v in value)
    elif hint is float and type(value) in (int, float):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    elif type(value) is hint:
        return value
    raise MalformedFileError(f"sidecar field {where} cannot be {value!r}")


def _dataclass_from_json(cls, obj, section: str):
    names = [f.name for f in dataclasses.fields(cls)]
    if type(obj) is not dict or sorted(obj) != sorted(names):
        raise MalformedFileError(f"sidecar section {section!r} must hold exactly the keys {names}")
    hints = typing.get_type_hints(cls)
    values = {n: _field_from_json(hints[n], obj[n], f"{section}.{n}") for n in names}
    try:
        return cls(**values)
    except InvalidConfigError as exc:
        raise MalformedFileError(f"sidecar section {section!r}: {exc}") from exc


def sidecar_from_json(text: str) -> tuple[DenseNetConfig, LabelTransform]:
    """Inverse of sidecar_to_json. Anything else (bad JSON, a missing or
    unknown key, a value of the wrong type, a non-finite number, a section
    its dataclass rejects) raises MalformedFileError."""
    obj = json_value(text, "sidecar")
    if type(obj) is not dict or sorted(obj) != ["label_transform", "net"]:
        raise MalformedFileError("sidecar must hold exactly the keys 'net' and 'label_transform'")
    cfg = _dataclass_from_json(DenseNetConfig, obj["net"], "net")
    lt = _dataclass_from_json(LabelTransform, obj["label_transform"], "label_transform")
    return cfg, lt

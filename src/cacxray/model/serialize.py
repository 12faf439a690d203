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
from ..framing import Reader, json_text, json_value, read_stamped, write_bytes
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
    """Decode, checking each tensor against the shapes ``cfg`` implies as it
    is read, before its values are taken.

    Raises BadMagicError, TruncatedFileError (short file or trailing bytes),
    MalformedFileError (a tensor name that is not UTF-8, or a value that is
    not finite), or ShapeMismatchError (a tensor the config does not list or
    one listed twice, dims other than the config's, or a tensor missing).
    Returns float64 parameters in the config's order, whose values are
    float32-representable.
    """
    if data[:4] != WEIGHTS_MAGIC:
        raise BadMagicError("not a weights file")
    r = Reader(data, 4)
    version, count = r.unpack("HI", "the header")
    if version != WEIGHTS_VERSION:
        raise BadMagicError(f"unsupported weights version {version}")
    expected = dict(build_net(cfg).param_shapes())
    loaded: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("H", "a tensor name length")
        try:
            name = str(r.take(name_len, "a tensor name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFileError(f"tensor name is not UTF-8: {exc}") from exc
        if name not in expected or name in loaded:
            raise ShapeMismatchError(f"tensor {name!r} is not in the config or comes twice")
        (rank,) = r.unpack("B", f"rank of {name}")
        dims = r.unpack(f"{rank}I", f"dims of {name}")
        if dims != expected[name]:
            raise ShapeMismatchError(f"{name}: file has {dims}, config wants {expected[name]}")
        values = np.frombuffer(r.take(4 * math.prod(dims), f"data of {name}"), dtype="<f4")
        if not np.isfinite(values).all():
            raise MalformedFileError(f"{name} holds values that are not finite")
        loaded[name] = values.astype(np.float64).reshape(dims)
    if r.remaining():
        raise TruncatedFileError(f"{r.remaining()} trailing bytes after the last tensor")
    missing = [name for name in expected if name not in loaded]
    if missing:
        raise ShapeMismatchError(f"tensors missing from the file: {missing[:3]}")
    # canonical order regardless of file order
    return ModelParams(cfg=cfg, tensors={name: loaded[name] for name in expected})


def save_weights(path, params: ModelParams) -> None:
    write_bytes(Path(path), weights_to_bytes(params))


def load_weights(path, cfg: DenseNetConfig) -> ModelParams:
    data, _ = read_stamped(Path(path))
    return weights_from_bytes(data, cfg)


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

"""Weights file format: round trips, damage detection, the JSON sidecar."""

import json
import math

import numpy as np
import pytest

from cacxray.errors import BadMagicError, MalformedFileError, ShapeMismatchError, TruncatedFileError
from cacxray.labels import LabelTransform
from cacxray.model import network as nw
from cacxray.model.serialize import (
    load_weights,
    save_weights,
    sidecar_from_json,
    sidecar_to_json,
    weights_from_bytes,
    weights_to_bytes,
)


def test_fresh_init_round_trips_bitwise():
    cfg = nw.desk_config()
    p = nw.init_model(cfg, seed=7)
    back = weights_from_bytes(weights_to_bytes(p), cfg)
    assert list(back.tensors) == list(p.tensors)
    for k in p.tensors:
        assert np.array_equal(back.tensors[k], p.tensors[k]), k


def test_save_load_save_idempotent_after_training_precision(tiny_net_cfg):
    # float64 training arithmetic gets quantized once on the first save;
    # after that the byte stream is a fixed point
    p = nw.init_model(tiny_net_cfg, seed=1)
    p.tensors["head.fc1.w"] += math.pi * 1e-3
    b1 = weights_to_bytes(p)
    l1 = weights_from_bytes(b1, tiny_net_cfg)
    b2 = weights_to_bytes(l1)
    assert b1 == b2
    l2 = weights_from_bytes(b2, tiny_net_cfg)
    for k in l1.tensors:
        assert np.array_equal(l1.tensors[k], l2.tensors[k])


def test_file_round_trip(tmp_path, tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=2)
    path = tmp_path / "weights.cacw"
    save_weights(path, p)
    save_weights(str(path), p)  # a str path is written the same way, over the file
    assert [f.name for f in tmp_path.iterdir()] == ["weights.cacw"]
    back = load_weights(path, tiny_net_cfg)
    for k in p.tensors:
        assert np.array_equal(back.tensors[k], p.tensors[k])


def test_bad_magic_rejected(tiny_net_cfg):
    blob = weights_to_bytes(nw.init_model(tiny_net_cfg, seed=3))
    with pytest.raises(BadMagicError):
        weights_from_bytes(b"XXXX" + blob[4:], tiny_net_cfg)
    with pytest.raises(BadMagicError):
        weights_from_bytes(b"", tiny_net_cfg)


def test_truncation_and_trailing_bytes_rejected(tiny_net_cfg):
    blob = weights_to_bytes(nw.init_model(tiny_net_cfg, seed=3))
    for damaged in (blob[:-4], blob[: len(blob) // 2], blob[:5], blob + b"\x00"):
        with pytest.raises(TruncatedFileError) as info:
            weights_from_bytes(damaged, tiny_net_cfg)
        # the same class a DICOM cut inside an element raises, and exit 4
        assert isinstance(info.value, MalformedFileError)
        assert info.value.exit_code == 4


def test_wrong_config_rejected(tiny_net_cfg):
    blob = weights_to_bytes(nw.init_model(tiny_net_cfg, seed=4))
    other = nw.DenseNetConfig(
        input_dim=8, init_channels=6, growth_rate=3, block_layers=(1, 1),
        compression=0.5, head_hidden=5, use_batchnorm=True,
    )
    with pytest.raises(ShapeMismatchError):
        weights_from_bytes(blob, other)
    desk = nw.desk_config()
    with pytest.raises(ShapeMismatchError):
        weights_from_bytes(weights_to_bytes(nw.init_model(desk, seed=4)), tiny_net_cfg)


def test_sidecar_round_trip(tiny_net_cfg):
    lt = LabelTransform(mu_log=1.25, sigma_log=0.75, clip_max=2000.0, epsilon=1e-5)
    text = sidecar_to_json(tiny_net_cfg, lt)
    doc = json.loads(text)
    assert "net" in doc and "label_transform" in doc
    cfg_back, lt_back = sidecar_from_json(text)
    assert cfg_back == tiny_net_cfg
    assert lt_back == lt


@pytest.mark.parametrize("key,value", [("sigma_log", 0.0), ("sigma_log", -7.66), ("epsilon", 0.0), ("clip_max", 0.0)])
def test_sidecar_rejects_invalid_label_transform(tiny_net_cfg, key, value):
    doc = json.loads(sidecar_to_json(tiny_net_cfg, LabelTransform(mu_log=1.25, sigma_log=0.75)))
    doc["label_transform"][key] = value
    with pytest.raises(MalformedFileError, match=key):
        sidecar_from_json(json.dumps(doc))


def test_sidecar_rejects_a_layout_too_deep_to_build(tiny_net_cfg):
    doc = json.loads(sidecar_to_json(tiny_net_cfg, LabelTransform(mu_log=1.25, sigma_log=0.75)))
    doc["net"]["block_layers"] = [1000000]
    with pytest.raises(MalformedFileError, match="block_layers"):
        sidecar_from_json(json.dumps(doc))

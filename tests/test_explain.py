"""Saliency map contracts: range, shape, invariances, and PGM export."""

import numpy as np
import pytest

from cacxray.errors import ShapeMismatchError
from cacxray.explain import export_saliency, gradcam
from cacxray.model import init_model


def _image(cfg, seed=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((cfg.input_dim, cfg.input_dim))


def _parse_pgm(data: bytes):
    magic, dims, maxval, rest = data.split(b"\n", 3)
    assert magic == b"P5"
    assert maxval == b"255"
    w, h = (int(t) for t in dims.split())
    pix = np.frombuffer(rest, dtype=np.uint8)
    assert pix.size == w * h
    return pix.reshape(h, w)


def test_map_range_shape_and_peak(tiny_net_cfg):
    params = init_model(tiny_net_cfg, 3)
    sal = gradcam(params, _image(tiny_net_cfg))
    d = tiny_net_cfg.input_dim
    assert sal.shape == (d, d)
    assert sal.min() >= 0.0 and sal.max() <= 1.0
    if sal.max() > 0:
        assert sal.max() == 1.0


def test_map_deterministic(tiny_net_cfg):
    params = init_model(tiny_net_cfg, 3)
    img = _image(tiny_net_cfg)
    assert np.array_equal(gradcam(params, img), gradcam(params, img))


def test_zero_head_weights_give_zero_map(tiny_net_cfg):
    params = init_model(tiny_net_cfg, 3)
    params.tensors["head.fc1.w"] = np.zeros_like(params.tensors["head.fc1.w"])
    sal = gradcam(params, _image(tiny_net_cfg))
    assert np.all(sal == 0.0)


def test_output_bias_shift_leaves_map_unchanged(tiny_net_cfg):
    # the map depends on d(pred)/d(features); an additive output bias cannot
    # reach either the features or that gradient
    img = _image(tiny_net_cfg)
    a = init_model(tiny_net_cfg, 3)
    before = gradcam(a, img)
    a.tensors["head.fc2.b"] = a.tensors["head.fc2.b"] + 123.456
    assert np.array_equal(gradcam(a, img), before)


def test_wrong_image_shape_rejected(tiny_net_cfg):
    params = init_model(tiny_net_cfg, 3)
    d = tiny_net_cfg.input_dim
    with pytest.raises(ShapeMismatchError):
        gradcam(params, np.zeros((d, d + 1)))


# --- PGM export -----------------------------------------------------------------


def test_export_writes_map_and_overlay(tmp_path):
    rng = np.random.default_rng(11)
    sal = rng.uniform(0, 1, size=(6, 6))
    sal /= sal.max()
    base = rng.uniform(-400, 900, size=(6, 6))
    map_path, overlay_path = export_saliency(sal, base, tmp_path, "img7")
    assert map_path.name == "img7.map.pgm"
    assert overlay_path.name == "img7.overlay.pgm"
    m = _parse_pgm(map_path.read_bytes())
    o = _parse_pgm(overlay_path.read_bytes())
    assert m.shape == (6, 6)
    assert o.shape == (6, 12)
    # right half of the overlay is the map, left half the normalized base
    assert np.array_equal(o[:, 6:], m)
    norm = (base - base.min()) / (base.max() - base.min())
    assert np.array_equal(o[:, :6], np.rint(255.0 * norm).astype(np.uint8))


def test_export_quantization_exact(tmp_path):
    # every representable gray level survives the round trip
    vals = (np.arange(256, dtype=np.float64) / 255.0).reshape(16, 16)
    map_path, _ = export_saliency(vals, np.zeros((16, 16)), tmp_path, "ramp")
    pix = _parse_pgm(map_path.read_bytes())
    assert np.array_equal(pix.ravel(), np.arange(256, dtype=np.uint8))


def test_export_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(2)
    sal = rng.uniform(0, 1, size=(5, 5))
    base = rng.standard_normal((5, 5))
    p1, o1 = export_saliency(sal, base, tmp_path / "a", "x")
    p2, o2 = export_saliency(sal, base, tmp_path / "b", "x")
    assert p1.read_bytes() == p2.read_bytes()
    assert o1.read_bytes() == o2.read_bytes()


def test_export_atomic_leaves_no_temp_files(tmp_path):
    rng = np.random.default_rng(3)
    sal = rng.uniform(0, 1, size=(3, 3))
    base = rng.standard_normal((3, 3))
    (tmp_path / "x.map.pgm").write_bytes(b"an earlier run's map")
    map_path, overlay_path = export_saliency(sal, base, tmp_path, "x")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.map.pgm", "x.overlay.pgm"]
    norm = (base - base.min()) / (base.max() - base.min())
    assert map_path.read_bytes() == b"P5\n3 3\n255\n" + np.rint(255.0 * sal).astype(np.uint8).tobytes()
    overlay = np.rint(255.0 * np.concatenate([norm, sal], axis=1)).astype(np.uint8)
    assert overlay_path.read_bytes() == b"P5\n6 3\n255\n" + overlay.tobytes()


def test_export_constant_base_image(tmp_path):
    # zero-span base must not divide by zero; it renders as black
    sal = np.full((4, 4), 0.5)
    _, overlay_path = export_saliency(sal, np.full((4, 4), 3.0), tmp_path, "flat")
    o = _parse_pgm(overlay_path.read_bytes())
    assert np.all(o[:, :4] == 0)
    assert np.all(o[:, 4:] == np.rint(255.0 * 0.5))


def test_export_shape_mismatch_rejected(tmp_path):
    with pytest.raises(ShapeMismatchError):
        export_saliency(np.zeros((4, 4)), np.zeros((4, 5)), tmp_path, "bad")


@pytest.mark.parametrize("image_id", ["", ".", "..", "../../evil", "a/b", "a\0b"])
def test_export_refuses_an_id_that_is_not_a_plain_file_name(tmp_path, image_id):
    out = tmp_path / "a" / "b"
    with pytest.raises(ValueError, match="not a plain file name"):
        export_saliency(np.zeros((4, 4)), np.zeros((4, 4)), out, image_id)
    assert not any(p.is_file() for p in tmp_path.rglob("*"))

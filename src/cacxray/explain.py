"""Saliency maps: gradient-weighted activation of the first dense block.

The map is ReLU(sum_c w_c * A_c) where A are the feature maps out of the first
dense block and w_c is the spatial mean of d(prediction)/dA_c, computed in
eval mode on the raw (pre-threshold) network output. The first block is used
because its grid (input_dim / 4) is the finest of any block; a map cannot
localize more sharply than the grid it is read from. The result is upsampled
bilinearly to the input size and scaled so its maximum is 1; an all-zero map
stays zero.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ShapeMismatchError
from .framing import plain_file_name, write_bytes
from .model import ModelParams, forward, prediction_feature_gradient
from .preprocess import resize_bilinear


def gradcam(params: ModelParams, image: np.ndarray) -> np.ndarray:
    """Saliency map in [0, 1] with the same shape as the input image."""
    img = np.asarray(image, dtype=np.float64)
    d = params.cfg.input_dim
    if img.shape != (d, d):
        raise ShapeMismatchError(f"image is {img.shape}, network wants ({d}, {d})")
    trace = forward(params, [img], "eval")
    grad = prediction_feature_gradient(params, trace)  # (1, C, h, w)
    weights = grad[0].mean(axis=(1, 2))  # (C,)
    raw = np.maximum((weights[:, None, None] * trace.features[0]).sum(axis=0), 0.0)
    up = resize_bilinear(raw, d)
    peak = float(up.max())
    return up / peak if peak > 0 else up


def _to_pgm(values: np.ndarray) -> bytes:
    """8-bit binary PGM from values in [0, 1]."""
    v = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    pix = np.rint(255.0 * v).astype(np.uint8)
    h, w = pix.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pix.tobytes()


def export_saliency(
    saliency: np.ndarray, base_image: np.ndarray, out_dir, image_id: str
) -> tuple[Path, Path]:
    """Write ``<id>.map.pgm`` (the saliency map) and ``<id>.overlay.pgm`` (min-max
    normalized base image and map side by side); return both paths. Same inputs give
    the same bytes; an id that is not a plain file name raises ValueError."""
    if not plain_file_name(image_id):
        raise ValueError(f"image id {image_id!r} is not a plain file name")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sal = np.asarray(saliency, dtype=np.float64)
    base = np.asarray(base_image, dtype=np.float64)
    if sal.shape != base.shape:
        raise ShapeMismatchError(f"saliency {sal.shape} vs base image {base.shape}")
    span = float(base.max() - base.min())
    base_norm = (base - base.min()) / span if span > 0 else np.zeros_like(base)
    map_path = out / f"{image_id}.map.pgm"
    overlay_path = out / f"{image_id}.overlay.pgm"
    write_bytes(map_path, _to_pgm(sal))
    write_bytes(overlay_path, _to_pgm(np.concatenate([base_norm, sal], axis=1)))
    return map_path, overlay_path

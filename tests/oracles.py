"""Reference implementations that the tests check the package against.

None of these is on a path the package runs.

- ``equalize``, ``center_crop`` and ``to_real_image`` are the staged
  preprocessing chain, one stage per call over every pixel, sharing no code
  with the package's preprocessing. Composed as
  ``center_crop(resize_bilinear(equalize(window(to_real_image(img), c, w),
  levels), resize_dim), crop_dim)`` they give, bit for bit, what
  ``preprocess.preprocess_uncalibrated`` computes from one lookup table over
  the distinct stored values.
- ``gradient_check`` compares the analytic gradients of ``backward`` with
  central differences of the loss through ``forward``.
- ``bootstrap_auc_interval`` is the percentile bootstrap one resample at a
  time, each AUC counted by sorted searches of its positives among its
  negatives (``sorted_search_auc``). It gives, bit for bit, what
  ``metrics.auc_confidence_interval`` computes from tie-group counts of a
  block of resamples at once.
- ``conv_backward_shifted`` is a stride-1 ``Conv2d`` backward that fills
  ``dxf`` with zeros and adds every kernel shift's product into it, and
  stacks the weight gradient per shift before transposing it. It gives, bit
  for bit, what ``Conv2d.backward`` computes writing the first shift's
  product in place and zeroing only the rows past it.
"""

import numpy as np

from cacxray.dicom import DicomImage
from cacxray.errors import OneClassOnlyError
from cacxray.model import ModelParams, backward, forward, loss_mae
from cacxray.model.layers import Conv2d, RunCtx


def to_real_image(img: DicomImage) -> np.ndarray:
    """Real-world values of every stored pixel as float64 (rows, cols):
    MONOCHROME1 is inverted about the largest storable value, then the
    rescale slope and intercept apply."""
    values = np.asarray(img.pixels, dtype=np.float64)
    if img.photometric == "MONOCHROME1":
        top = 2**img.bits_stored - 1 if img.pixel_representation == 0 else 2 ** (img.bits_stored - 1) - 1
        values = top - values
    return img.rescale_slope * values + img.rescale_intercept


def equalize(values: np.ndarray, levels: int = 256) -> np.ndarray:
    """Histogram equalization by CDF remap.

    Pixels are binned uniformly over [min, max] into ``levels`` bins and each
    becomes (levels - 1) * cdf(its bin). Output is real-valued in
    [0, levels - 1]; a constant image maps to the constant levels - 1.
    """
    v = np.asarray(values, dtype=np.float64)
    lo, hi = v.min(), v.max()
    if lo == hi:
        return np.full(v.shape, float(levels - 1))
    bins = np.clip(np.floor((v - lo) / (hi - lo) * levels).astype(np.int64), 0, levels - 1)
    cdf = np.cumsum(np.bincount(bins.ravel(), minlength=levels)) / v.size
    return (levels - 1) * cdf[bins]


def center_crop(values: np.ndarray, crop_dim: int) -> np.ndarray:
    """The central (crop_dim, crop_dim) region, biased toward the top-left
    when the margin is odd."""
    v = np.asarray(values, dtype=np.float64)
    top = (v.shape[0] - crop_dim) // 2
    left = (v.shape[1] - crop_dim) // 2
    return v[top : top + crop_dim, left : left + crop_dim]


def gradient_check(
    params: ModelParams,
    batch,
    targets,
    step: float = 1e-5,
    freeze_policy: str = "none",
    max_entries_per_tensor: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Works on a private copy of the parameters. Checks every unfrozen tensor;
    if ``max_entries_per_tensor`` is set, a seeded sample of entries per
    tensor, else every entry. Relative error is |a - f| / max(1e-6, |a|, |f|).
    """
    work = params.copy()
    t = np.asarray(targets, dtype=np.float64)
    trace = forward(work, batch, "train", freeze_policy)
    grads = backward(work, trace, t)
    pick_rng = np.random.default_rng(seed)
    worst = 0.0
    for name, g in sorted(grads.items()):
        tensor = work.tensors[name]
        flat_g = np.asarray(g).ravel()
        n = tensor.size
        if max_entries_per_tensor is not None and n > max_entries_per_tensor:
            idx = pick_rng.choice(n, size=max_entries_per_tensor, replace=False)
        else:
            idx = np.arange(n)
        flat_t = tensor.ravel()
        for j in idx:
            orig = flat_t[j]
            flat_t[j] = orig + step
            lo_plus = loss_mae(forward(work, batch, "train", freeze_policy).predictions, t)
            flat_t[j] = orig - step
            lo_minus = loss_mae(forward(work, batch, "train", freeze_policy).predictions, t)
            flat_t[j] = orig
            fd = (lo_plus - lo_minus) / (2.0 * step)
            rel = abs(flat_g[j] - fd) / max(1e-6, abs(flat_g[j]), abs(fd))
            worst = max(worst, rel)
    return worst


def sorted_search_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC, ties counting half: the negatives below each
    positive, counted once with ties and once without, are twice U."""
    npos = int(labels.sum())
    nneg = labels.size - npos
    if npos == 0 or nneg == 0:
        raise OneClassOnlyError(f"need both classes, got {npos} positives of {labels.size}")
    neg = np.sort(scores[~labels])
    pos = scores[labels]
    u2 = int(np.searchsorted(neg, pos, "left").sum() + np.searchsorted(neg, pos, "right").sum())
    return (u2 / 2) / (npos * nneg)


def bootstrap_auc_interval(
    scores: np.ndarray, labels: np.ndarray, level: float, n_resamples: int, seed: int
) -> tuple[float, float]:
    """Seeded percentile-bootstrap interval of sorted_search_auc, one
    resample of n draws at a time; a resample that loses a truth class is
    rejected and redrawn, at most 1000 * n_resamples times."""
    sorted_search_auc(scores, labels)  # validates both classes present
    rng = np.random.default_rng(seed)
    n = scores.size
    aucs = np.empty(n_resamples)
    got = 0
    rejected = 0
    while got < n_resamples:
        idx = rng.integers(0, n, n)
        lab = labels[idx]
        if lab.all() or not lab.any():
            rejected += 1
            if rejected > 1000 * n_resamples:
                raise OneClassOnlyError("bootstrap resamples keep losing a class")
            continue
        aucs[got] = sorted_search_auc(scores[idx], lab)
        got += 1
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(aucs, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def conv_backward_shifted(conv: Conv2d, dy: np.ndarray, cache, tensors: dict, grads: dict) -> np.ndarray:
    """d(loss)/d(input) of a stride-1 ``conv`` from its train-mode forward's
    cache ``(xf, input shape)``, adding its weight gradient into ``grads``."""
    xf, (n, c, h, wid) = cache
    p, k = conv.pad, conv.kernel
    hp, wp, ho, wo, m = conv._geometry(h, wid)
    shifts = conv._shifted_weights(RunCtx(tensors=tensors, mode="train"), wp)
    dyf = np.zeros((n, hp, wp, conv.c_out))
    dyf[:, :ho, :wo] = dy.transpose(0, 2, 3, 1)
    dyf = dyf.reshape(n, hp * wp, conv.c_out)
    rows = n * hp * wp
    dyf_flat = dyf.reshape(rows, conv.c_out)
    xf_flat = xf.reshape(rows, c)
    dwk = np.stack([np.dot(dyf_flat[: rows - off].T, xf_flat[off:]) for off, _ in shifts])
    dw = np.ascontiguousarray(dwk.reshape(k, k, conv.c_out, c).transpose(2, 3, 0, 1))
    grads[conv.wname] = grads.get(conv.wname, 0.0) + dw
    dxf = np.zeros((n, hp * wp, c))
    for off, wi in shifts:
        dxf[:, off : off + m] += dyf[:, :m] @ wi
    dx = dxf.reshape(n, hp, wp, c)[:, p : p + h, p : p + wid]
    return np.ascontiguousarray(dx.transpose(0, 3, 1, 2))

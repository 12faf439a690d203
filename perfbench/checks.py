"""Output checks. Each returns a list of failure messages, empty when the
output is correct; the caller counts every message as one failed operation."""

from __future__ import annotations

import numpy as np

from cacxray import model


class Outcome:
    """Operations attempted and failed in one run, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, ops: int, failures: list[str]) -> None:
        self.attempted += ops
        self.failed += len(failures)
        self.failures.extend(failures)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def nonfinite(values, what: str) -> list[str]:
    flat = np.asarray(values, dtype=np.float64).ravel()
    return [f"{what}[{i}] is {flat[i]}" for i in np.flatnonzero(~np.isfinite(flat))]


def bitwise_equal(values, what: str) -> list[str]:
    distinct = {np.float64(v).tobytes() for v in values}
    if len(distinct) <= 1:
        return []
    return [f"{what} differs between repeats: {[repr(float(v)) for v in values]}"]


# predict across batch partitions is held to this bound by
# tests/test_training.py::test_predict_matches_eval_forward ("ulp noise")
BATCH_TOLERANCE = 1e-12


def batch_matches_single(params, images, batch_predictions, indices) -> tuple[list[str], int]:
    """Eval mode: an item's prediction must not depend on the rest of its batch.

    Returns the items that differ from a batch-1 forward by more than
    BATCH_TOLERANCE, and how many differ in any bit at all.
    """
    failures, bit_mismatches = [], 0
    for i in indices:
        single = model.forward(params, [images[i]], "eval").predictions[0]
        batched = np.float64(batch_predictions[i])
        bit_mismatches += single.tobytes() != batched.tobytes()
        if not abs(single - batched) <= BATCH_TOLERANCE:
            failures.append(f"prediction {i}: batch {batched!r} != single {single!r}")
    return failures, bit_mismatches


def saliency_ok(saliency, shape, what: str) -> list[str]:
    sal = np.asarray(saliency)
    if sal.shape != tuple(shape):
        return [f"{what}: shape {sal.shape} != input {tuple(shape)}"]
    if not np.all(np.isfinite(sal)) or sal.min() < 0.0 or sal.max() > 1.0:
        return [f"{what}: values outside [0, 1]"]
    return []


def auc_matches_pair_count(scores, positive, auc: float) -> list[str]:
    """ROC-AUC against the brute-force count over all positive/negative pairs,
    ties counting one half."""
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(positive, dtype=bool)
    diff = s[pos][:, None] - s[~pos][None, :]
    pairs = (np.sum(diff > 0) + 0.5 * np.sum(diff == 0)) / diff.size
    if not abs(pairs - auc) <= 1e-12:
        return [f"roc_auc {auc!r} != pair count {pairs!r}"]
    return []


def hazard_ratio_above_one(hazard_ratio: float, what: str) -> list[str]:
    if not hazard_ratio > 1.0:
        return [f"{what} hazard ratio {hazard_ratio!r} is not above 1"]
    return []


def gradients_ok(grads: dict, tensors: dict) -> list[str]:
    out = []
    for name, g in grads.items():
        g = np.asarray(g)
        if name not in tensors:
            out.append(f"gradient for unknown parameter {name}")
        elif g.shape != tensors[name].shape:
            out.append(f"{name}: gradient {g.shape} vs parameter {tensors[name].shape}")
        elif not np.all(np.isfinite(g)):
            out.append(f"{name}: non-finite gradient")
    return out

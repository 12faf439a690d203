"""Calcium-score label transforms.

Raw Agatston-style scores are clipped, shifted into the log domain with a
small epsilon (so zero is representable), and normalized by the training-set
log-domain mean and standard deviation. Decision thresholds ride through the
same map so classification can happen in network output space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabelsError, InvalidConfigError, NegativeScoreError


@dataclass(frozen=True)
class LabelTransform:
    mu_log: float
    sigma_log: float
    clip_max: float = 2000.0
    epsilon: float = 1e-5

    def __post_init__(self):
        if not (np.isfinite(self.mu_log) and 0 < self.sigma_log < np.inf):
            raise InvalidConfigError(f"need a finite mu_log and sigma_log > 0, got {self.mu_log}, {self.sigma_log}")
        if not (self.clip_max > 0 and self.epsilon > 0):
            raise InvalidConfigError(f"clip_max and epsilon must be positive, got {self.clip_max}, {self.epsilon}")


@dataclass(frozen=True)
class TransformedThreshold:
    raw: float
    transformed: float


def check_nonnegative(scores: np.ndarray) -> None:
    if np.any(scores < 0):
        raise NegativeScoreError(f"negative calcium score: {float(scores.min())}")


def _log_domain(scores: np.ndarray, clip_max: float, epsilon: float) -> np.ndarray:
    return np.log(np.minimum(scores, clip_max) + epsilon)


def fit_label_transform(
    scores, clip_max: float = 2000.0, epsilon: float = 1e-5
) -> LabelTransform:
    """Fit the log-domain mean/std on training scores.

    Uses the population standard deviation. Requires at least two samples and
    nonnegative scores; zero log-domain spread is an error.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.size < 2:
        raise ValueError("need at least two scores to fit a transform")
    check_nonnegative(s)
    logs = _log_domain(s, clip_max, epsilon)
    # identical inputs give std ~1e-15 (mean-subtraction noise), not 0.0, so
    # test the actual spread rather than the computed std
    if logs.min() == logs.max():
        raise DegenerateLabelsError("log-domain scores have zero spread")
    mu = float(np.mean(logs))
    sigma = float(np.std(logs))
    return LabelTransform(mu_log=mu, sigma_log=sigma, clip_max=clip_max, epsilon=epsilon)


def transform(scores, lt: LabelTransform):
    """clip -> log(. + eps) -> normalize. Accepts a scalar or an array."""
    s = np.asarray(scores, dtype=np.float64)
    check_nonnegative(s)
    out = (_log_domain(s, lt.clip_max, lt.epsilon) - lt.mu_log) / lt.sigma_log
    return float(out) if np.isscalar(scores) or out.ndim == 0 else out


def inverse_transform(values, lt: LabelTransform):
    """Back to score space: exp(v * sigma + mu) - eps, clamped to [0, clip_max]."""
    v = np.asarray(values, dtype=np.float64)
    out = np.clip(np.exp(v * lt.sigma_log + lt.mu_log) - lt.epsilon, 0.0, lt.clip_max)
    return float(out) if np.isscalar(values) or out.ndim == 0 else out


def transform_threshold(threshold: float, lt: LabelTransform) -> TransformedThreshold:
    """Map a raw-score decision threshold into normalized log space."""
    if threshold < 0:
        raise NegativeScoreError(f"negative threshold: {threshold}")
    return TransformedThreshold(raw=float(threshold), transformed=transform(float(threshold), lt))


def classify(value, threshold: TransformedThreshold):
    """Positive iff the transformed prediction strictly exceeds the
    transformed threshold. Accepts a scalar (-> bool) or an array."""
    out = np.asarray(value, dtype=np.float64) > threshold.transformed
    return bool(out) if np.isscalar(value) or out.ndim == 0 else out

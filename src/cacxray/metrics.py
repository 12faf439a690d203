"""Diagnostic accuracy metrics and k-fold cross-validation.

Scores live in transformed (network output) space, truth in raw calcium-score
space; ranking metrics only care that the score is monotone in the prediction.
AUC is the exact Mann-Whitney statistic with tie correction (ties count half),
counted from each class's subjects per tie group of the scores. The bootstrap
counts every resample of a block of draws that way in one pass.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    AllGridDegenerateError,
    EmptyDatasetError,
    NonFiniteScoreError,
    NoPositivesError,
    OneClassOnlyError,
    TooFewSamplesError,
)
from .framing import csv_text, json_text
from .labels import (
    LabelTransform,
    TransformedThreshold,
    classify,
    fit_label_transform,
    inverse_transform,
    transform,
    transform_threshold,
)
from .model import init_model, predict, train
from .preprocess import compute_dataset_stats, standardize


@dataclass(frozen=True)
class ScoredSample:
    """One evaluated subject: model score, true calcium score, identifier."""

    score: float
    truth_cac: float
    id: str = ""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _scores_labels(samples, truth_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray([s.score for s in samples], dtype=np.float64)
    truth = np.asarray([s.truth_cac for s in samples], dtype=np.float64)
    return scores, truth > truth_threshold


def _tie_groups(scores: np.ndarray) -> tuple[np.ndarray, int]:
    """Each score's tie group, numbered in sort order, and the group count.
    Ties are those of np.sort: -0.0 ties 0.0, and every NaN is one group,
    the last."""
    values, group = np.unique(scores, return_inverse=True)
    return group, values.size


def _twice_u(group: np.ndarray, labels: np.ndarray, n_groups: int) -> np.ndarray:
    """Twice the Mann-Whitney U of each row of a (rows, n) table of tie
    groups and truth labels. One np.bincount counts every row's subjects per
    class and tie group; a positive outranks the negatives of lower groups
    and ties those of its own, so 2U = pos . (2 cumsum(neg) - neg), an exact
    integer."""
    rows = group.shape[0]
    key = (np.arange(rows)[:, None] * 2 + labels) * n_groups + group
    counts = np.bincount(key.ravel(), minlength=rows * 2 * n_groups).reshape(rows, 2, n_groups)
    neg, pos = counts[:, 0], counts[:, 1]
    return np.einsum("ij,ij->i", 2 * np.cumsum(neg, axis=1) - neg, pos)


def _auc(scores: np.ndarray, labels: np.ndarray) -> float:
    npos = int(labels.sum())
    nneg = labels.size - npos
    if npos == 0 or nneg == 0:
        raise OneClassOnlyError(f"need both classes, got {npos} positives of {labels.size}")
    group, n_groups = _tie_groups(scores)
    u2 = int(_twice_u(group[None], labels[None], n_groups)[0])
    return (u2 / 2) / (npos * nneg)


def roc_auc(samples, truth_threshold: float = 0.0) -> float:
    """Probability a positive outranks a negative, ties counting one half.
    Positives are samples with truth_cac strictly above truth_threshold."""
    scores, labels = _scores_labels(samples, truth_threshold)
    return _auc(scores, labels)


# resamples are drawn and counted in blocks of at most this many subject draws
# (one draw at least), so memory does not grow with n_resamples
_BLOCK_DRAWS = 2**18


def auc_confidence_interval(
    samples,
    truth_threshold: float = 0.0,
    level: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Seeded percentile-bootstrap interval for roc_auc.

    Resamples subjects with replacement; draws that lose one truth class are
    rejected and redrawn. Each resample is a row of n draws, and a block of
    rows is one draw of the same stream, so the rows, the rejections and the
    AUCs are those of drawing one row at a time.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be at least 1, got {n_resamples}")
    scores, labels = _scores_labels(samples, truth_threshold)
    _auc(scores, labels)  # validates both classes present
    group, n_groups = _tie_groups(scores)
    rng = np.random.default_rng(seed)
    n = scores.size
    aucs = np.empty(n_resamples)
    got = 0
    rejected = 0
    while got < n_resamples:
        # no more rows than still needed: every kept row is used, and every
        # rejected one comes before the last resample, as when drawn singly
        idx = rng.integers(0, n, (min(n_resamples - got, max(1, _BLOCK_DRAWS // n)), n))
        lab = labels[idx]
        npos = lab.sum(axis=1)
        kept = (npos > 0) & (npos < n)
        rejected += kept.size - int(kept.sum())
        if rejected > 1000 * n_resamples:
            raise OneClassOnlyError("bootstrap resamples keep losing a class")
        npos = npos[kept]
        u2 = _twice_u(group[idx[kept]], lab[kept], n_groups)
        aucs[got : got + npos.size] = (u2 / 2) / (npos * (n - npos))
        got += npos.size
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(aucs, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def confusion_at_threshold(
    samples, threshold: TransformedThreshold, truth_threshold: float = 0.0
) -> ConfusionCounts:
    """Strict-> decision rule on scores, strict-> truth rule on calcium."""
    scores, actual = _scores_labels(samples, truth_threshold)
    pred = classify(scores, threshold)
    return ConfusionCounts(
        tp=int((pred & actual).sum()),
        fp=int((pred & ~actual).sum()),
        tn=int((~pred & ~actual).sum()),
        fn=int((~pred & actual).sum()),
    )


def diagnostic_metrics(c: ConfusionCounts) -> dict[str, float | None]:
    """Sensitivity, specificity, PPV, NPV, accuracy, balanced accuracy.
    Ratios with a zero denominator come back as None."""

    def ratio(num: int, den: int) -> float | None:
        return num / den if den else None

    sens = ratio(c.tp, c.tp + c.fn)
    spec = ratio(c.tn, c.tn + c.fp)
    return {
        "sensitivity": sens,
        "specificity": spec,
        "ppv": ratio(c.tp, c.tp + c.fp),
        "npv": ratio(c.tn, c.tn + c.fn),
        "accuracy": ratio(c.tp + c.tn, c.total),
        "balanced_accuracy": None if sens is None or spec is None else (sens + spec) / 2.0,
    }


def pr_curve(samples, truth_threshold: float = 0.0) -> list[tuple[float, float]]:
    """(recall, precision) points swept over the distinct scores descending,
    with an inclusive decision rule (predict positive when score >= cutoff).
    Every score must be finite."""
    scores, labels = _scores_labels(samples, truth_threshold)
    if not np.isfinite(scores).all():
        raise NonFiniteScoreError("precision-recall needs finite scores")
    p = int(labels.sum())
    if p == 0:
        raise NoPositivesError("precision-recall needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    # the last rank of each distinct score: everything up to it is predicted positive
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(labels[order])[last]
    return list(zip((tp / p).tolist(), (tp / (last + 1)).tolist()))


def rauc(samples, truth_grid=(0.0, 100.0, 400.0)) -> float:
    """Mean roc_auc over a grid of truth thresholds; grid points that leave a
    single truth class are skipped, and an all-degenerate grid is an error."""
    aucs = []
    for t in truth_grid:
        try:
            aucs.append(roc_auc(samples, t))
        except OneClassOnlyError:
            continue
    if not aucs:
        raise AllGridDegenerateError(f"no usable threshold in grid {tuple(truth_grid)}")
    return float(np.mean(aucs))


@dataclass(frozen=True)
class CalibrationRow:
    stratum: str
    count: int
    mean_true_cac: float
    mean_predicted_cac: float


def calibration_table(samples, lt: LabelTransform, edges=(0.0, 100.0, 400.0)) -> list[CalibrationRow]:
    """Mean predicted vs mean true calcium score per truth stratum.

    Strata are [e0, e1), [e1, e2), ..., [e_last, inf); empty strata are
    omitted, so counts sum to the number of samples.
    """
    e = [float(x) for x in edges]
    if not e or sorted(e) != e or len(set(e)) != len(e):
        raise ValueError("edges must be a nonempty strictly increasing sequence")
    scores, _ = _scores_labels(samples, 0.0)
    truth = np.asarray([s.truth_cac for s in samples], dtype=np.float64)
    if np.any(truth < e[0]):
        raise ValueError(f"truth value below the first edge {e[0]}")
    pred_cac = np.asarray(inverse_transform(scores, lt))
    idx = np.clip(np.searchsorted(e, truth, side="right") - 1, 0, len(e) - 1)
    rows = []
    for b in range(len(e)):
        mask = idx == b
        if not mask.any():
            continue
        label = f"[{e[b]:g}, {e[b + 1]:g})" if b + 1 < len(e) else f"[{e[b]:g}, inf)"
        rows.append(
            CalibrationRow(
                stratum=label,
                count=int(mask.sum()),
                mean_true_cac=float(truth[mask].mean()),
                mean_predicted_cac=float(pred_cac[mask].mean()),
            )
        )
    return rows


# --- cross-validation ---------------------------------------------------------


def kfold_split(n: int, k: int = 5, seed: int = 0) -> list[np.ndarray]:
    """Shuffled near-equal partition: k disjoint index arrays covering
    range(n), sizes differing by at most one."""
    if k < 2:
        raise ValueError("need at least two folds")
    if n < k:
        raise TooFewSamplesError(f"cannot split {n} samples into {k} folds")
    return np.array_split(np.random.default_rng(seed).permutation(n), k)


@dataclass(frozen=True)
class FoldReport:
    fold: int
    accuracy: float
    balanced_accuracy: float
    sensitivity: float
    specificity: float
    rauc: float


@dataclass(frozen=True)
class CrossValReport:
    folds: tuple[FoldReport, ...]
    mean: dict[str, float]


_CSV_COLUMNS = ("fold", "accuracy", "balanced_accuracy", "sensitivity", "specificity", "rauc")


def crossval_to_csv(report: CrossValReport) -> str:
    rows = [[getattr(fr, c) for c in _CSV_COLUMNS] for fr in report.folds]
    return csv_text(_CSV_COLUMNS, rows + [["Mean"] + [report.mean[c] for c in _CSV_COLUMNS[1:]]])


def crossval_to_json(report: CrossValReport) -> str:
    return json_text({"folds": [asdict(fr) for fr in report.folds], "mean": report.mean})


def fit_transforms(images, cacs):
    """Pixel statistics and the label transform fitted on a training portion
    only, with that portion standardized and transformed: ``(stats, lt, xs,
    ys)``. train and each fold fit here, so no held-out subject is seen."""
    if len(images) < 2:
        raise EmptyDatasetError(f"training needs at least two samples, got {len(images)}")
    stats = compute_dataset_stats(images)
    lt = fit_label_transform(cacs)
    return stats, lt, [standardize(x, stats) for x in images], transform(cacs, lt)


def _default_train_fn(train_images, train_targets, net_cfg, train_cfg):
    params = init_model(net_cfg, train_cfg.seed)
    fitted, _ = train(list(zip(train_images, train_targets)), train_cfg, params)
    return lambda imgs: predict(fitted, imgs)


def cross_validate(
    images,
    cacs,
    net_cfg,
    train_cfg,
    k: int = 5,
    seed: int = 0,
    truth_threshold: float = 0.0,
    rauc_grid=(0.0, 100.0, 400.0),
    train_fn=None,
) -> CrossValReport:
    """k-fold cross-validation with per-fold refitting.

    ``images`` are pre-standardization crops; every fold fits its transforms
    on its own training portion only (fit_transforms), so nothing fitted ever
    sees a test subject. ``train_fn(images, targets,
    net_cfg, train_cfg) -> predictor`` defaults to training the network from a
    fresh seeded init.
    """
    cacs = np.asarray(cacs, dtype=np.float64)
    n = len(images)
    if n != cacs.size:
        raise ValueError("images and cacs disagree in length")
    if train_fn is None:
        train_fn = _default_train_fn
    folds = kfold_split(n, k, seed)
    reports = []
    for f, test_idx in enumerate(folds):
        train_idx = np.concatenate([folds[j] for j in range(k) if j != f])
        stats, lt, xtr, ytr = fit_transforms([images[i] for i in train_idx], cacs[train_idx])
        predictor = train_fn(xtr, ytr, net_cfg, train_cfg)
        xte = [standardize(images[i], stats) for i in test_idx]
        preds = np.asarray(predictor(xte), dtype=np.float64)
        th = transform_threshold(truth_threshold, lt)
        samples = [
            ScoredSample(score=float(preds[j]), truth_cac=float(cacs[i]), id=str(i))
            for j, i in enumerate(test_idx)
        ]
        counts = confusion_at_threshold(samples, th, truth_threshold)
        m = diagnostic_metrics(counts)
        if m["sensitivity"] is None or m["specificity"] is None:
            raise OneClassOnlyError(f"fold {f + 1} holds a single truth class")
        reports.append(
            FoldReport(
                fold=f + 1,
                accuracy=m["accuracy"],
                balanced_accuracy=m["balanced_accuracy"],
                sensitivity=m["sensitivity"],
                specificity=m["specificity"],
                rauc=rauc(samples, rauc_grid),
            )
        )
    mean = {
        c: float(np.mean([getattr(fr, c) for fr in reports])) for c in _CSV_COLUMNS[1:]
    }
    return CrossValReport(folds=tuple(reports), mean=mean)

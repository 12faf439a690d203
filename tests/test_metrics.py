"""Ranking metrics, confusion arithmetic, calibration, cross-validation."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cacxray import labels as lb
from cacxray import metrics as mx
from cacxray.errors import (
    AllGridDegenerateError,
    NonFiniteScoreError,
    NoPositivesError,
    OneClassOnlyError,
    TooFewSamplesError,
)
from cacxray.model.network import DenseNetConfig
from cacxray.model.training import TrainConfig

from oracles import bootstrap_auc_interval

S = mx.ScoredSample


def _brute_force_auc(scores, positives):
    wins = ties = pairs = 0
    for (sp, yp), (sn, yn) in itertools.product(
        [(s, y) for s, y in zip(scores, positives) if y],
        [(s, y) for s, y in zip(scores, positives) if not y],
    ):
        pairs += 1
        if sp > sn:
            wins += 1
        elif sp == sn:
            ties += 1
    return (wins + 0.5 * ties) / pairs


# --- roc_auc -------------------------------------------------------------------

def test_auc_four_sample_example():
    samples = [S(0.1, 0, "a"), S(0.4, 0, "b"), S(0.35, 500, "c"), S(0.8, 120, "d")]
    assert mx.roc_auc(samples, 0.0) == 0.75


def test_auc_perfect_and_all_ties():
    perfect = [S(1.0, 10, "a"), S(0.9, 5, "b"), S(0.1, 0, "c")]
    assert mx.roc_auc(perfect, 0.0) == 1.0
    flat = [S(0.5, 10, "a"), S(0.5, 0, "b"), S(0.5, 3, "c")]
    assert mx.roc_auc(flat, 0.0) == 0.5


def test_auc_one_class_rejected():
    with pytest.raises(OneClassOnlyError):
        mx.roc_auc([S(0.1, 5, "a"), S(0.2, 9, "b")], 0.0)


def test_auc_equals_brute_force_pair_counting():
    rng = np.random.default_rng(30)
    for _ in range(60):
        n = int(rng.integers(4, 50))
        scores = np.round(rng.standard_normal(n), 1)  # rounding forces ties
        truth = rng.uniform(0, 10, size=n) * rng.integers(0, 2, size=n)
        if not ((truth > 0).any() and (truth == 0).any()):
            continue
        samples = [S(float(s), float(t), str(i)) for i, (s, t) in enumerate(zip(scores, truth))]
        assert mx.roc_auc(samples, 0.0) == pytest.approx(
            _brute_force_auc(scores, truth > 0), abs=1e-12
        )


def test_auc_complement_identity_exact():
    rng = np.random.default_rng(31)
    scores = np.round(rng.standard_normal(25), 1)
    truth = rng.uniform(0, 10, size=25) * rng.integers(0, 2, size=25)
    truth[0], truth[1] = 0.0, 5.0
    fwd = [S(float(s), float(t), str(i)) for i, (s, t) in enumerate(zip(scores, truth))]
    rev = [S(-float(s), float(t), str(i)) for i, (s, t) in enumerate(zip(scores, truth))]
    assert mx.roc_auc(fwd, 0.0) + mx.roc_auc(rev, 0.0) == 1.0


def test_auc_monotone_transform_invariance_exact():
    rng = np.random.default_rng(32)
    scores = rng.standard_normal(30)
    truth = rng.uniform(0, 10, size=30) * rng.integers(0, 2, size=30)
    truth[0], truth[1] = 0.0, 5.0
    base = [S(float(s), float(t), str(i)) for i, (s, t) in enumerate(zip(scores, truth))]
    warped = [S(float(np.exp(s)), float(t), str(i)) for i, (s, t) in enumerate(zip(scores, truth))]
    assert mx.roc_auc(base, 0.0) == mx.roc_auc(warped, 0.0)


# --- bootstrap CI --------------------------------------------------------------

def test_ci_perfect_separation_degenerates_to_point():
    samples = [S(1.0, 10, "a"), S(0.9, 5, "b"), S(0.2, 0, "c"), S(0.1, 0, "d")]
    assert mx.auc_confidence_interval(samples, 0.0, seed=3) == (1.0, 1.0)


def test_ci_deterministic_given_seed():
    rng = np.random.default_rng(33)
    samples = [
        S(float(rng.standard_normal()), float(max(0.0, rng.standard_normal())), str(i))
        for i in range(40)
    ]
    a = mx.auc_confidence_interval(samples, 0.0, seed=11)
    b = mx.auc_confidence_interval(samples, 0.0, seed=11)
    assert a == b
    lo, hi = a
    assert lo <= mx.roc_auc(samples, 0.0) <= hi


def test_ci_contains_half_for_random_scores():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        samples = [
            S(float(rng.standard_normal()), float(rng.integers(0, 2) * 5), str(i))
            for i in range(200)
        ]
        lo, hi = mx.auc_confidence_interval(samples, 0.0, n_resamples=500, seed=seed)
        hits += lo <= 0.5 <= hi
    assert hits >= 18


@pytest.mark.parametrize("n_resamples", [0, -1])
def test_ci_rejects_fewer_than_one_resample(n_resamples):
    samples = [S(1.0, 10, "a"), S(0.9, 5, "b"), S(0.2, 0, "c"), S(0.1, 0, "d")]
    with pytest.raises(ValueError, match="n_resamples"):
        mx.auc_confidence_interval(samples, 0.0, n_resamples=n_resamples)


# --- confusion / diagnostics -----------------------------------------------------

def _th(value):
    return lb.TransformedThreshold(raw=0.0, transformed=value)


def test_confusion_all_correct_and_inverted():
    samples = [S(1.0, 10, "a"), S(1.0, 5, "b"), S(-1.0, 0, "c")]
    c = mx.confusion_at_threshold(samples, _th(0.0), 0.0)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 0, 1, 0)
    inverted = [S(-s.score, s.truth_cac, s.id) for s in samples]
    ci = mx.confusion_at_threshold(inverted, _th(0.0), 0.0)
    assert (ci.tp, ci.fn) == (c.fn, c.tp)
    assert (ci.tn, ci.fp) == (c.fp, c.tn)


def test_confusion_matches_naive_tabulation():
    rng = np.random.default_rng(34)
    samples = [
        S(float(rng.standard_normal()), float(max(0.0, rng.standard_normal())), str(i))
        for i in range(20)
    ]
    th = _th(0.2)
    c = mx.confusion_at_threshold(samples, th, 0.0)
    tp = sum(1 for s in samples if s.score > 0.2 and s.truth_cac > 0)
    fp = sum(1 for s in samples if s.score > 0.2 and not s.truth_cac > 0)
    fn = sum(1 for s in samples if not s.score > 0.2 and s.truth_cac > 0)
    tn = sum(1 for s in samples if not s.score > 0.2 and not s.truth_cac > 0)
    assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
    assert c.tp + c.fp + c.tn + c.fn == len(samples)


def test_diagnostic_metrics_arithmetic():
    d = mx.diagnostic_metrics(mx.ConfusionCounts(tp=9, fn=1, tn=7, fp=3))
    assert d["sensitivity"] == 0.9
    assert d["specificity"] == 0.7
    assert d["balanced_accuracy"] == pytest.approx(0.8, abs=1e-15)
    assert d["accuracy"] == 0.8
    perfect = mx.diagnostic_metrics(mx.ConfusionCounts(tp=4, fn=0, tn=6, fp=0))
    for key in ("sensitivity", "specificity", "ppv", "npv", "accuracy", "balanced_accuracy"):
        assert perfect[key] == 1.0


def test_diagnostic_metrics_undefined_denominator_absent():
    d = mx.diagnostic_metrics(mx.ConfusionCounts(tp=0, fp=0, tn=5, fn=2))
    assert d["ppv"] is None
    assert d["specificity"] == 1.0


# --- precision-recall -------------------------------------------------------------

def test_pr_curve_perfect_contains_top_corner():
    samples = [S(0.9, 10, "a"), S(0.8, 5, "b"), S(0.1, 0, "c")]
    pts = mx.pr_curve(samples, 0.0)
    assert (1.0, 1.0) in pts


def test_pr_curve_single_positive_ranked_last():
    samples = [S(0.9, 0, "a"), S(0.8, 0, "b"), S(0.7, 0, "c"), S(0.1, 9, "d")]
    pts = mx.pr_curve(samples, 0.0)
    assert pts[-1] == (1.0, 0.25)
    recalls = [r for r, _ in pts]
    assert recalls == sorted(recalls)


def test_pr_curve_matches_confusion_sweep():
    rng = np.random.default_rng(35)
    samples = [
        S(float(np.round(rng.standard_normal(), 1)), float(max(0.0, rng.standard_normal())), str(i))
        for i in range(25)
    ]
    if not any(s.truth_cac > 0 for s in samples):
        samples[0] = S(samples[0].score, 5.0, samples[0].id)
    pts = mx.pr_curve(samples, 0.0)
    thresholds = sorted({s.score for s in samples}, reverse=True)
    assert len(pts) == len(thresholds)
    n_pos = sum(1 for s in samples if s.truth_cac > 0)
    for th, (recall, precision) in zip(thresholds, pts):
        tp = sum(1 for s in samples if s.score >= th and s.truth_cac > 0)
        pred_pos = sum(1 for s in samples if s.score >= th)
        assert recall == pytest.approx(tp / n_pos, abs=1e-12)
        assert precision == pytest.approx(tp / pred_pos, abs=1e-12)


def test_pr_curve_needs_positives():
    with pytest.raises(NoPositivesError):
        mx.pr_curve([S(0.5, 0, "a"), S(0.2, 0, "b")], 0.0)


# --- rauc -----------------------------------------------------------------------

def test_rauc_single_grid_equals_auc():
    samples = [S(0.1, 0, "a"), S(0.4, 0, "b"), S(0.35, 500, "c"), S(0.8, 120, "d")]
    assert mx.rauc(samples, (0.0,)) == mx.roc_auc(samples, 0.0)


def test_rauc_perfect_monotone_predictor():
    lt = lb.fit_label_transform([0.0, 50.0, 150.0, 500.0, 1200.0])
    cacs = [0.0, 50.0, 150.0, 500.0, 1200.0]
    samples = [S(float(lb.transform(c, lt)), c, str(i)) for i, c in enumerate(cacs)]
    assert mx.rauc(samples, (0.0, 100.0, 400.0)) == 1.0


def test_rauc_mean_of_surviving_thresholds():
    rng = np.random.default_rng(36)
    cacs = np.concatenate([np.zeros(8), rng.uniform(1, 2000, size=22)])
    scores = rng.standard_normal(30)
    samples = [S(float(s), float(c), str(i)) for i, (s, c) in enumerate(zip(scores, cacs))]
    grid = (0.0, 100.0, 400.0)
    parts = [mx.roc_auc(samples, g) for g in grid]
    assert mx.rauc(samples, grid) == pytest.approx(np.mean(parts), abs=1e-12)


def test_rauc_skips_degenerate_thresholds():
    # nobody above 400: that grid entry is skipped, the rest average
    cacs = [0.0, 0.0, 50.0, 150.0]
    samples = [S(float(i), c, str(i)) for i, c in enumerate(cacs)]
    expect = np.mean([mx.roc_auc(samples, 0.0), mx.roc_auc(samples, 100.0)])
    assert mx.rauc(samples, (0.0, 100.0, 400.0)) == pytest.approx(expect, abs=1e-12)
    with pytest.raises(AllGridDegenerateError):
        mx.rauc(samples, (4000.0,))


# --- calibration ----------------------------------------------------------------

def test_calibration_single_stratum_row():
    lt = lb.fit_label_transform([0.0, 10.0, 100.0])
    samples = [S(float(lb.transform(5.0, lt)), 5.0, str(i)) for i in range(4)]
    rows = mx.calibration_table(samples, lt, (0.0, 100.0, 400.0))
    filled = [r for r in rows if r.count]
    assert len(filled) == 1 and filled[0].count == 4


@pytest.mark.parametrize("edges", [(), (100.0, 0.0), (0.0, 0.0)])
def test_calibration_rejects_bad_edges(edges):
    lt = lb.fit_label_transform([0.0, 10.0, 100.0])
    samples = [S(float(lb.transform(5.0, lt)), 5.0, "a")]
    with pytest.raises(ValueError, match="strictly increasing"):
        mx.calibration_table(samples, lt, edges)


def test_calibration_perfect_predictor_matches_truth():
    lt = lb.fit_label_transform([0.0, 20.0, 90.0, 300.0, 1500.0])
    cacs = [0.0, 20.0, 90.0, 300.0, 1500.0, 45.0]
    samples = [S(float(lb.transform(c, lt)), c, str(i)) for i, c in enumerate(cacs)]
    for row in mx.calibration_table(samples, lt, (0.0, 100.0, 400.0)):
        if row.count:
            assert row.mean_predicted_cac == pytest.approx(row.mean_true_cac, abs=1e-6)


def test_calibration_matches_naive_grouping():
    rng = np.random.default_rng(37)
    lt = lb.fit_label_transform(rng.uniform(0, 2000, size=30))
    cacs = rng.uniform(0, 2000, size=20)
    scores = rng.standard_normal(20)
    samples = [S(float(s), float(c), str(i)) for i, (s, c) in enumerate(zip(scores, cacs))]
    bins = {
        "[0, 100)": lambda c: 0.0 <= c < 100.0,
        "[100, 400)": lambda c: 100.0 <= c < 400.0,
        "[400, inf)": lambda c: c >= 400.0,
    }
    rows = mx.calibration_table(samples, lt, (0.0, 100.0, 400.0))
    assert sum(r.count for r in rows) == 20
    # every returned row reproduces a naive left-closed grouping
    assert set(r.stratum for r in rows) <= set(bins)
    for row in rows:
        members = [s for s in samples if bins[row.stratum](s.truth_cac)]
        assert row.count == len(members) > 0
        assert row.mean_true_cac == pytest.approx(np.mean([s.truth_cac for s in members]), abs=1e-9)
        preds = [float(lb.inverse_transform(s.score, lt)) for s in members]
        assert row.mean_predicted_cac == pytest.approx(np.mean(preds), abs=1e-9)
    # unoccupied strata are dropped rather than padded with zero counts
    occupied = {name for name, f in bins.items() if any(f(s.truth_cac) for s in samples)}
    assert [r.stratum for r in rows] == [n for n in bins if n in occupied]


def test_calibration_all_strata_occupied_in_order():
    lt = lb.fit_label_transform([0.0, 50.0, 700.0])
    cacs = [0.0, 99.0, 100.0, 399.0, 400.0, 1999.0]
    samples = [S(0.0, c, str(i)) for i, c in enumerate(cacs)]
    rows = mx.calibration_table(samples, lt, (0.0, 100.0, 400.0))
    assert [r.stratum for r in rows] == ["[0, 100)", "[100, 400)", "[400, inf)"]
    assert [r.count for r in rows] == [2, 2, 2]
    assert rows[1].mean_true_cac == pytest.approx((100.0 + 399.0) / 2, abs=1e-12)


# --- k-fold ---------------------------------------------------------------------

def test_kfold_sizes_and_partition():
    folds = mx.kfold_split(10, 5, seed=0)
    assert [len(f) for f in folds] == [2, 2, 2, 2, 2]
    allidx = np.sort(np.concatenate(folds))
    assert np.array_equal(allidx, np.arange(10))


def test_kfold_near_equal_sizes_and_coverage():
    for n, k, seed in [(11, 5, 1), (23, 4, 2), (7, 7, 3)]:
        folds = mx.kfold_split(n, k, seed=seed)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(n))


def test_kfold_deterministic_and_bounded():
    a = mx.kfold_split(12, 5, seed=9)
    b = mx.kfold_split(12, 5, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    with pytest.raises(TooFewSamplesError):
        mx.kfold_split(3, 5, seed=0)


# --- cross_validate ---------------------------------------------------------------

def _toy_cv_inputs(n=30, seed=39):
    # constant images whose level encodes the truth makes a learnable toy task
    rng = np.random.default_rng(seed)
    cacs = np.concatenate([np.zeros(n // 3), rng.uniform(1.0, 2000.0, size=n - n // 3)])
    rng.shuffle(cacs)
    cacs = np.round(cacs, 6)
    images = [np.full((4, 4), c) + np.linspace(0, 1e-6, 16).reshape(4, 4) for c in cacs]
    return images, cacs


def _interp_train_fn(xtr, ytr):
    means = np.array([x.mean() for x in xtr])
    order = np.argsort(means)
    mgrid, ygrid = means[order], np.asarray(ytr)[order]

    def predictor(images):
        return np.interp([x.mean() for x in images], mgrid, ygrid)

    return predictor


def test_cross_validate_perfect_predictor_all_ones():
    images, cacs = _toy_cv_inputs()
    report = mx.cross_validate(images, cacs, _interp_train_fn, k=5, seed=2)
    assert len(report.folds) == 5
    for fold in report.folds:
        assert fold.accuracy == 1.0
        assert fold.balanced_accuracy == 1.0
        assert fold.sensitivity == 1.0
        assert fold.specificity == 1.0
        assert fold.rauc == 1.0


def test_cross_validate_mean_row_is_arithmetic_mean():
    images, cacs = _toy_cv_inputs()
    report = mx.cross_validate(images, cacs, _interp_train_fn, k=5, seed=3)
    for key in ("accuracy", "balanced_accuracy", "sensitivity", "specificity", "rauc"):
        vals = [getattr(f, key) for f in report.folds]
        assert report.mean[key] == pytest.approx(np.mean(vals), abs=1e-12)


def test_crossval_csv_columns_and_mean_row():
    images, cacs = _toy_cv_inputs()
    report = mx.cross_validate(images, cacs, _interp_train_fn, k=5, seed=4)
    lines = mx.crossval_to_csv(report).strip().split("\n")
    assert lines[0] == "fold,accuracy,balanced_accuracy,sensitivity,specificity,rauc"
    assert len(lines) == 1 + 5 + 1
    assert lines[-1].startswith("Mean,")
    json_doc = mx.crossval_to_json(report)
    assert "mean" in json_doc


def test_crossval_json_refuses_a_non_finite_mean():
    fold = mx.FoldReport(fold=1, accuracy=0.5, balanced_accuracy=0.5, sensitivity=0.5, specificity=0.5, rauc=0.5)
    mean = {"accuracy": 0.5, "balanced_accuracy": 0.5, "sensitivity": 0.5, "specificity": 0.5, "rauc": math.nan}
    with pytest.raises(ValueError):
        mx.crossval_to_json(mx.CrossValReport(folds=(fold,), mean=mean))


def test_cross_validate_never_reads_held_out_labels():
    """Perturbing one fold's labels must not change what that fold trains on."""
    images, cacs = _toy_cv_inputs()
    n, k, seed = len(images), 5, 6
    folds = mx.kfold_split(n, k, seed=seed)
    digests_a, digests_b = [], []

    def recording_train_fn(sink):
        def fn(xtr, ytr):
            h = hashlib.sha256()
            for x in xtr:
                h.update(np.ascontiguousarray(x).tobytes())
            h.update(np.ascontiguousarray(np.asarray(ytr)).tobytes())
            sink.append(h.hexdigest())
            return _interp_train_fn(xtr, ytr)

        return fn

    mx.cross_validate(images, cacs, recording_train_fn(digests_a), k=k, seed=seed)
    perturbed = np.array(cacs, copy=True)
    # class-preserving distortion: zero stays zero so every fold keeps both
    # truth classes and the perturbed run can still be evaluated
    f0 = perturbed[folds[0]]
    perturbed[folds[0]] = np.where(f0 > 0, f0 * 0.5 + 7.0, 0.0)
    mx.cross_validate(images, perturbed, recording_train_fn(digests_b), k=k, seed=seed)
    # fold 0 trains on folds 1..4 whose labels are untouched
    assert digests_a[0] == digests_b[0]
    # the other folds do see the perturbed labels in their training split
    assert any(a != b for a, b in zip(digests_a[1:], digests_b[1:]))


# --- pinned bits -----------------------------------------------------------------

def _pinned_samples(seed, tied):
    # 300 subjects, about half with CAC > 0; the tied set scores on eight integers
    rng = np.random.default_rng(seed)
    truth = np.round(rng.uniform(0.0, 2000.0, 300) * rng.integers(0, 2, 300), 3)
    if tied:
        scores = rng.integers(-3, 4, 300).astype(float) + (truth > 0)
    else:
        scores = rng.standard_normal(300) + truth / 1000.0
    return [S(float(s), float(t), str(i)) for i, (s, t) in enumerate(zip(scores, truth))]


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("seed,tied,digests", [
    (43, False, {
        "roc_auc": "8d31649cc4b041c6aafd2c7f9c0caacc7a6bbdafbd40ac850a9c189a7f85d196",
        "auc_confidence_interval": "3da6c8f42e9277d199402307fc809f817678d0157f02bd936fef5eb6c8fb6795",
        "pr_curve": "0e16a1738e13d03f5cd7ba21127baf0969d7396e4e8bb7d8dadbecbb11a31d50",
        "confusion_at_threshold": "9068c4ac86b2748b34b851e3a13af1f7f7e171d68aed81be8747d0a9a65f947a",
        "rauc": "9b3015355ea580411a5d09fc7cd7d2d279831732dcf23026f2125b9ef363e7b2",
        "calibration_table": "3bb527dbcf1904581344bb17dc9be25bb5caec4dff75d929e38d0c7ad4dde67b",
    }),
    (44, True, {
        "roc_auc": "f3344868c0d93904116af29f2a6b67c6d0c3d45c30ad60c208946e97c1187cfe",
        "auc_confidence_interval": "4c0e35cee2dc516566e1a074e67dffffa99951ff05e85edc704a5dcfa7c9da7a",
        "pr_curve": "1a8e0874145aaab57a722ff1979c3f5b584127997912f07724db53634a9e768f",
        "confusion_at_threshold": "227b7dcba72c7812e19a335b6bed163c453bca20078fdbafc8d9437f5a4c4fc7",
        "rauc": "6665a0a83e54aa7efa47a8ff377b9441059a7e679508bd87e1e35baef8650fbd",
        "calibration_table": "e608f355c2805f53815e4233641987d5c58bbb8aa2e02c00d9887f6046fc89f2",
    }),
])
def test_metric_bits_are_pinned(seed, tied, digests):
    # digests of the average-rank AUC, the per-threshold PR sweep and the
    # per-sample confusion loop, taken before the sorted counts replaced them;
    # the reprs pin the Python types as well as the bits. Nothing here goes
    # through BLAS; calibration_table does go through np.log and np.exp, whose
    # SIMD kernel numpy picks by CPU feature
    samples = _pinned_samples(seed, tied)
    lt = lb.fit_label_transform([s.truth_cac for s in samples])
    got = {
        "roc_auc": _sha(mx.roc_auc(samples)),
        "auc_confidence_interval": _sha(mx.auc_confidence_interval(samples, n_resamples=2000, seed=5)),
        "pr_curve": _sha(mx.pr_curve(samples)),
        "confusion_at_threshold": _sha([mx.confusion_at_threshold(samples, _th(v)) for v in (-1.0, 0.0, 0.5, 1.0)]),
        "rauc": _sha(mx.rauc(samples)),
        "calibration_table": _sha(mx.calibration_table(samples, lt)),
    }
    assert got == digests


def test_crossval_csv_bits_are_pinned():
    # a noisy image level, so that the folds' figures are not all 1.0
    images, cacs = _toy_cv_inputs(n=60, seed=45)
    noise = np.random.default_rng(46).normal(0.0, 400.0, len(images))
    noisy = [x + e for x, e in zip(images, noise)]
    report = mx.cross_validate(noisy, cacs, _interp_train_fn, k=5, seed=7)
    assert hashlib.sha256(mx.crossval_to_csv(report).encode()).hexdigest() == (
        "8a607de708a7640b5b4f284d077f00471d837d910f222ee017a92ec4327b17e6"
    )


# --- properties against oracles ------------------------------------------------------

_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf]),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=False),
)


@st.composite
def _scored(draw, scores=_SCORES):
    # scores drawn from a small pool, so that ties are common
    pool = draw(st.lists(scores, min_size=1, max_size=8))
    n = draw(st.integers(0, 60))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    positive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(values, dtype=np.float64), np.array(positive, dtype=bool)


def _as_samples(scores, positive):
    return [S(float(s), 5.0 if y else 0.0, str(i)) for i, (s, y) in enumerate(zip(scores, positive))]


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (NonFiniteScoreError, NoPositivesError, OneClassOnlyError, TooFewSamplesError) as exc:
        return type(exc).__name__


def _pair_count_auc(scores, positive):
    if positive.all() or not positive.any():
        raise OneClassOnlyError("one class")
    p, n = scores[positive][:, None], scores[~positive][None, :]
    return (int((p > n).sum()) + int((p == n).sum()) / 2) / (p.size * n.size)


def _pr_sweep(scores, positive):
    # the per-threshold sweep the sorted cumulative sum replaced
    if not np.isfinite(scores).all():
        raise NonFiniteScoreError("non-finite")
    p = int(positive.sum())
    if p == 0:
        raise NoPositivesError("no positives")
    points = []
    for t in np.unique(scores)[::-1]:
        pred = scores >= t
        tp = int((pred & positive).sum())
        points.append((tp / p, tp / int(pred.sum())))
    return points


def _kfold_size_loop(n, k, seed):
    # the size loop np.array_split replaced
    if n < k:
        raise TooFewSamplesError("too few")
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    folds, start = [], 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        folds.append(perm[start : start + size])
        start += size
    return folds


@settings(max_examples=300)
@given(_scored())
def test_auc_equals_the_pair_count_bit_for_bit(scored):
    samples = _as_samples(*scored)
    assert _outcome(mx.roc_auc, samples) == _outcome(_pair_count_auc, *scored)


@st.composite
def _bootstrap_cohorts(draw):
    # ties, signed zeros, infinities and NaNs from a small pool; every other
    # cohort has one positive, so that resamples often lose it and are redrawn
    pool = draw(st.lists(st.one_of(_SCORES, st.just(math.nan)), min_size=1, max_size=8))
    n = draw(st.integers(2, 40))
    scores = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if draw(st.booleans()):
        one = draw(st.integers(0, n - 1))
        positive = [i == one for i in range(n)]
    else:
        positive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(scores, dtype=np.float64), np.array(positive, dtype=bool)


@settings(max_examples=200)
@given(_bootstrap_cohorts(), st.floats(0.01, 0.99), st.integers(1, 300), st.integers(0, 2**32))
def test_ci_equals_the_one_resample_loop_bit_for_bit(cohort, level, n_resamples, seed):
    samples = _as_samples(*cohort)
    got = _outcome(mx.auc_confidence_interval, samples, 0.0, level, n_resamples, seed)
    assert got == _outcome(bootstrap_auc_interval, *cohort, level, n_resamples, seed)


def test_ci_memory_does_not_grow_with_the_resample_count():
    # a block of draws bounds the bootstrap's live memory: 5000 resamples of
    # 1000 subjects stay far below the 40 MB of one int64 draw per subject
    rng = np.random.default_rng(8)
    samples = _as_samples(rng.normal(size=1000), rng.random(1000) < 0.3)
    peaks = []
    for n_resamples in (500, 5000):
        tracemalloc.start()
        try:
            mx.auc_confidence_interval(samples, 0.0, n_resamples=n_resamples, seed=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 5000 * 1000 * 8 / 2
    assert peaks[1] - peaks[0] < 2**20


@settings(max_examples=300)
@given(_scored())
def test_pr_curve_equals_the_per_threshold_sweep(scored):
    assert _outcome(mx.pr_curve, _as_samples(*scored)) == _outcome(_pr_sweep, *scored)


@settings(max_examples=300)
@given(_scored(st.one_of(_SCORES, st.just(math.nan))), _SCORES,
       st.lists(st.sampled_from([0.0, 50.0, 100.0, 400.0, 1500.0]), min_size=60, max_size=60),
       st.sampled_from([0.0, 100.0, 400.0]))
def test_confusion_equals_a_per_sample_tabulation(scored, cutoff, truth, truth_threshold):
    scores, _ = scored
    samples = [S(float(s), c, str(i)) for i, (s, c) in enumerate(zip(scores, truth))]
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for s in samples:
        pred, actual = s.score > cutoff, s.truth_cac > truth_threshold
        counts[("t" if pred == actual else "f") + ("p" if pred else "n")] += 1
    assert mx.confusion_at_threshold(samples, _th(cutoff), truth_threshold) == mx.ConfusionCounts(**counts)


@settings(max_examples=300)
@given(st.integers(0, 200), st.integers(2, 12), st.integers(0, 2**32))
def test_kfold_split_equals_the_size_loop(n, k, seed):
    got = _outcome(mx.kfold_split, n, k, seed)
    assert got == _outcome(_kfold_size_loop, n, k, seed)
    if n >= k:
        want = _kfold_size_loop(n, k, seed)
        assert all(a.dtype == b.dtype for a, b in zip(mx.kfold_split(n, k, seed), want))


# --- non-finite scores ---------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pr_curve_rejects_non_finite_scores(bad):
    samples = [S(0.9, 10, "a"), S(bad, 0, "b"), S(0.1, 0, "c")]
    with pytest.raises(NonFiniteScoreError):
        mx.pr_curve(samples, 0.0)


def test_all_nan_scores_rank_as_one_tie():
    # roc_auc and rauc still accept NaN scores; every pair of NaNs ties
    samples = [S(math.nan, c, str(i)) for i, c in enumerate([0.0, 0.0, 50.0, 500.0, 0.0, 150.0])]
    assert mx.roc_auc(samples, 0.0) == 0.5
    assert mx.rauc(samples) == 0.5

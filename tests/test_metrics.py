"""Ranking metrics, confusion arithmetic, calibration, cross-validation."""

import hashlib
import itertools

import numpy as np
import pytest

from cacxray import labels as lb
from cacxray import metrics as mx
from cacxray.errors import (
    AllGridDegenerateError,
    NoPositivesError,
    OneClassOnlyError,
    TooFewSamplesError,
)
from cacxray.model.network import DenseNetConfig
from cacxray.model.training import TrainConfig

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


def _interp_train_fn(xtr, ytr, net_cfg, train_cfg):
    means = np.array([x.mean() for x in xtr])
    order = np.argsort(means)
    mgrid, ygrid = means[order], np.asarray(ytr)[order]

    def predictor(images):
        return np.interp([x.mean() for x in images], mgrid, ygrid)

    return predictor


def test_cross_validate_perfect_predictor_all_ones():
    images, cacs = _toy_cv_inputs()
    report = mx.cross_validate(
        images, cacs, net_cfg=None, train_cfg=None, k=5, seed=2, train_fn=_interp_train_fn
    )
    assert len(report.folds) == 5
    for fold in report.folds:
        assert fold.accuracy == 1.0
        assert fold.balanced_accuracy == 1.0
        assert fold.sensitivity == 1.0
        assert fold.specificity == 1.0
        assert fold.rauc == 1.0


def test_cross_validate_mean_row_is_arithmetic_mean():
    images, cacs = _toy_cv_inputs()
    report = mx.cross_validate(
        images, cacs, net_cfg=None, train_cfg=None, k=5, seed=3, train_fn=_interp_train_fn
    )
    for key in ("accuracy", "balanced_accuracy", "sensitivity", "specificity", "rauc"):
        vals = [getattr(f, key) for f in report.folds]
        assert report.mean[key] == pytest.approx(np.mean(vals), abs=1e-12)


def test_crossval_csv_columns_and_mean_row():
    images, cacs = _toy_cv_inputs()
    report = mx.cross_validate(
        images, cacs, net_cfg=None, train_cfg=None, k=5, seed=4, train_fn=_interp_train_fn
    )
    lines = mx.crossval_to_csv(report).strip().split("\n")
    assert lines[0] == "fold,accuracy,balanced_accuracy,sensitivity,specificity,rauc"
    assert len(lines) == 1 + 5 + 1
    assert lines[-1].startswith("Mean,")
    json_doc = mx.crossval_to_json(report)
    assert "mean" in json_doc


def test_cross_validate_never_reads_held_out_labels():
    """Perturbing one fold's labels must not change what that fold trains on."""
    images, cacs = _toy_cv_inputs()
    n, k, seed = len(images), 5, 6
    folds = mx.kfold_split(n, k, seed=seed)
    digests_a, digests_b = [], []

    def recording_train_fn(sink):
        def fn(xtr, ytr, net_cfg, train_cfg):
            h = hashlib.sha256()
            for x in xtr:
                h.update(np.ascontiguousarray(x).tobytes())
            h.update(np.ascontiguousarray(np.asarray(ytr)).tobytes())
            sink.append(h.hexdigest())
            return _interp_train_fn(xtr, ytr, net_cfg, train_cfg)

        return fn

    mx.cross_validate(images, cacs, None, None, k=k, seed=seed,
                      train_fn=recording_train_fn(digests_a))
    perturbed = np.array(cacs, copy=True)
    # class-preserving distortion: zero stays zero so every fold keeps both
    # truth classes and the perturbed run can still be evaluated
    f0 = perturbed[folds[0]]
    perturbed[folds[0]] = np.where(f0 > 0, f0 * 0.5 + 7.0, 0.0)
    mx.cross_validate(images, perturbed, None, None, k=k, seed=seed,
                      train_fn=recording_train_fn(digests_b))
    # fold 0 trains on folds 1..4 whose labels are untouched
    assert digests_a[0] == digests_b[0]
    # the other folds do see the perturbed labels in their training split
    assert any(a != b for a, b in zip(digests_a[1:], digests_b[1:]))

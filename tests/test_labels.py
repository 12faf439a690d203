"""Log-domain label transform: fit, forward/inverse, thresholds, classify."""

import math

import numpy as np
import pytest

from cacxray import labels as lb
from cacxray.errors import DegenerateLabelsError, InvalidConfigError, NegativeScoreError


def test_fit_rejects_zero_variance():
    with pytest.raises(DegenerateLabelsError):
        lb.fit_label_transform([0.0, 0.0])


@pytest.mark.parametrize("kw", [
    dict(mu_log=math.nan),
    dict(mu_log=math.inf),
    dict(sigma_log=0.0),
    dict(sigma_log=-7.66),
    dict(sigma_log=math.inf),
    dict(clip_max=0.0),
    dict(epsilon=0.0),
])
def test_label_transform_rejects_invalid_parameters(kw):
    with pytest.raises(InvalidConfigError):
        lb.LabelTransform(**{"mu_log": 0.0, "sigma_log": 1.0, **kw})


def test_fit_hand_log_arithmetic():
    eps = 1e-5
    scores = [math.e - eps, math.e ** 3 - eps]  # logs are exactly 1 and 3
    lt = lb.fit_label_transform(scores, epsilon=eps)
    assert lt.mu_log == pytest.approx(2.0, abs=1e-12)
    assert lt.sigma_log == pytest.approx(1.0, abs=1e-12)


def test_fit_clips_before_logging():
    lt_a = lb.fit_label_transform([0.0, 10.0, 5000.0])
    lt_b = lb.fit_label_transform([0.0, 10.0, 2000.0])
    assert lt_a.mu_log == lt_b.mu_log and lt_a.sigma_log == lt_b.sigma_log


def test_transform_zero_score_high_precision():
    lt = lb.LabelTransform(mu_log=0.0, sigma_log=1.0)
    assert float(lb.transform(0.0, lt)) == pytest.approx(math.log(1e-5), abs=1e-12)


def test_transform_centering_and_clip():
    lt = lb.fit_label_transform([1.0, 10.0, 100.0, 1000.0])
    y_center = math.exp(lt.mu_log) - lt.epsilon
    assert float(lb.transform(y_center, lt)) == pytest.approx(0.0, abs=1e-9)
    assert float(lb.transform(10000.0, lt)) == float(lb.transform(2000.0, lt))


def test_transform_rejects_negative():
    lt = lb.LabelTransform(mu_log=0.0, sigma_log=1.0)
    with pytest.raises(NegativeScoreError):
        lb.transform(-0.5, lt)


def test_round_trip_relative_1e9():
    lt = lb.fit_label_transform([0.0, 1.0, 54.0, 333.0, 2000.0])
    for y in (0.0, 1.0, 54.0, 2000.0):
        back = float(lb.inverse_transform(lb.transform(y, lt), lt))
        assert back == pytest.approx(y, rel=1e-9, abs=1e-9)
    # fixed point of the inverse at the low end
    assert float(lb.transform(lb.inverse_transform(0.0, lt), lt)) == pytest.approx(0.0, abs=1e-9)


def test_inverse_saturates_at_clip_max():
    lt = lb.fit_label_transform([0.0, 50.0, 2000.0])
    assert float(lb.inverse_transform(50.0, lt)) == lt.clip_max
    assert float(lb.inverse_transform(-50.0, lt)) == 0.0


def test_transform_is_strictly_increasing():
    lt = lb.fit_label_transform([0.0, 5.0, 400.0, 2000.0])
    ys = np.linspace(0.0, 2000.0, 513)
    out = np.asarray(lb.transform(ys, lt))
    assert np.all(np.diff(out) > 0)


def test_fitting_set_normalizes_to_zero_one():
    rng = np.random.default_rng(21)
    scores = rng.uniform(0, 2000, size=200)
    lt = lb.fit_label_transform(scores)
    out = np.asarray(lb.transform(scores, lt))
    assert abs(out.mean()) < 1e-9
    assert abs(out.std() - 1.0) < 1e-9


def test_threshold_transform_matches_formula():
    lt = lb.LabelTransform(mu_log=0.0, sigma_log=1.0)
    th = lb.transform_threshold(0.0, lt)
    assert th.raw == 0.0
    assert th.transformed == pytest.approx(math.log(1e-5), abs=1e-12)
    lt2 = lb.fit_label_transform([0.0, 7.0, 220.0])
    th_center = lb.transform_threshold(math.exp(lt2.mu_log) - lt2.epsilon, lt2)
    assert th_center.transformed == pytest.approx(0.0, abs=1e-9)


def test_threshold_goes_through_transform_bit_for_bit():
    lt = lb.fit_label_transform([0.0, 7.0, 220.0, 1500.0])
    for t in (0.0, 0.5, 100.0, lt.clip_max, 10 * lt.clip_max):
        # the formula transform_threshold spelled out before it called transform
        old = float((np.log(min(t, lt.clip_max) + lt.epsilon) - lt.mu_log) / lt.sigma_log)
        assert repr(lb.transform_threshold(t, lt).transformed) == repr(old)


def test_classify_takes_an_array():
    th = lb.TransformedThreshold(raw=0.0, transformed=0.5)
    assert lb.classify(np.array([0.4, 0.5, 0.6]), th).tolist() == [False, False, True]
    assert lb.classify(np.float64(0.6), th) is True


def test_classify_boundary_is_strict():
    lt = lb.LabelTransform(mu_log=0.0, sigma_log=1.0)
    th = lb.transform_threshold(10.0, lt)
    assert lb.classify(th.transformed + 1.0, th) is True
    assert lb.classify(th.transformed, th) is False


def test_classify_agrees_with_raw_comparison():
    rng = np.random.default_rng(22)
    lt = lb.fit_label_transform(rng.uniform(0, 2000, size=50))
    for _ in range(100):
        y = float(rng.uniform(0, 1999))
        th_raw = float(rng.uniform(0, 1999))
        th = lb.transform_threshold(th_raw, lt)
        assert lb.classify(float(lb.transform(y, lt)), th) == (y > th_raw)

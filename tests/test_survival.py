"""Kaplan-Meier, log-rank, Cox proportional hazards, tail probabilities."""

import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cacxray import survival as sv
from cacxray.errors import (
    ConstantCovariateError,
    DivergedError,
    EmptyCohortError,
    InvalidConfigError,
    NegativeStatisticError,
    NoEventsError,
)

R = sv.SubjectRecord


# --- Kaplan-Meier ----------------------------------------------------------------

def test_km_hand_product_limit():
    records = [R("a", 1.0, True, {}), R("b", 2.0, True, {}), R("c", 3.0, False, {})]
    curve = sv.kaplan_meier(records)
    assert list(curve.times) == [1.0, 2.0]
    assert curve.survival[0] == 2.0 / 3.0
    assert curve.survival[1] == (2.0 / 3.0) * 0.5  # exactly 1/3 in binary
    assert list(curve.at_risk) == [3, 2]
    assert list(curve.censoring_times) == [3.0]


def test_km_no_events_is_flat_one():
    curve = sv.kaplan_meier([R("a", 1.0, False, {}), R("b", 2.0, False, {})])
    assert len(curve.times) == 0
    assert sv.km_event_estimate(curve, 5.0) == 0.0


def test_km_all_events_distinct_times_empirical():
    n = 6
    records = [R(str(i), float(i + 1), True, {}) for i in range(n)]
    curve = sv.kaplan_meier(records)
    for k, s in enumerate(curve.survival, start=1):
        assert s == pytest.approx((n - k) / n, abs=1e-12)


def test_km_is_monotone_from_one():
    rng = np.random.default_rng(50)
    records = [
        R(str(i), float(rng.uniform(0.1, 5.0)), bool(rng.integers(0, 2)), {})
        for i in range(40)
    ]
    if not any(r.event for r in records):
        records[0] = R("e", 1.0, True, {})
    curve = sv.kaplan_meier(records)
    s = np.asarray(curve.survival)
    assert np.all(s <= 1.0) and np.all(s >= 0.0)
    assert np.all(np.diff(s) <= 0)


def test_km_ties_events_before_censorings():
    # a censoring at an event time stays in that event's risk set
    records = [R("a", 1.0, True, {}), R("b", 1.0, False, {}), R("c", 2.0, True, {})]
    curve = sv.kaplan_meier(records)
    assert curve.at_risk[0] == 3
    assert curve.survival[0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_km_event_estimate_horizons():
    records = [R("a", 1.0, True, {}), R("b", 2.0, True, {}), R("c", 3.0, False, {})]
    curve = sv.kaplan_meier(records)
    assert sv.km_event_estimate(curve, 0.5) == 0.0
    assert sv.km_event_estimate(curve, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert sv.km_event_estimate(curve, 99.0) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_km_event_estimate_rejects_nan_horizon():
    curve = sv.kaplan_meier([R("a", 1.0, True, {}), R("b", 2.0, False, {})])
    with pytest.raises(ValueError, match="horizon"):
        sv.km_event_estimate(curve, float("nan"))


def test_km_rejects_empty_cohort():
    with pytest.raises(EmptyCohortError):
        sv.kaplan_meier([])


def test_km_csv_is_step_function():
    records = [R("a", 1.0, True, {}), R("b", 2.0, True, {}), R("c", 3.0, False, {})]
    text = sv.km_to_csv(sv.kaplan_meier(records))
    lines = text.strip().split("\n")
    assert lines[0].startswith("time_years,survival")
    assert len(lines) >= 3


def test_km_csv_time_zero_row_counts_the_whole_cohort():
    # the first row is before anyone leaves, censorings before the first event included
    text = sv.km_to_csv(sv.kaplan_meier([R("a", 1.0, False, {}), R("b", 2.0, True, {})]))
    assert text.splitlines()[1] == "0.0,1.0,2,0"
    text = sv.km_to_csv(sv.kaplan_meier([R(c, 1.0 + i, False, {}) for i, c in enumerate("abc")]))
    assert text.splitlines()[1:] == ["0.0,1.0,3,0"]


# --- log-rank -------------------------------------------------------------------

def test_log_rank_identical_groups():
    group = [R("a", 1.0, True, {}), R("b", 2.0, False, {}), R("c", 3.0, True, {})]
    copy = [R(r.id + "x", r.time_years, r.event, {}) for r in group]
    result = sv.log_rank(group, copy)
    assert result.chi2 == 0.0
    assert result.p_value == 1.0


def test_log_rank_swap_symmetric_bitwise():
    a = [R("a1", 1.0, True, {}), R("a2", 2.0, True, {})]
    b = [R("b1", 3.0, True, {}), R("b2", 4.0, True, {})]
    r1, r2 = sv.log_rank(a, b), sv.log_rank(b, a)
    assert r1.chi2 == r2.chi2
    assert r1.p_value == r2.p_value


def test_log_rank_hand_hypergeometric_table():
    # event times 1..4; per-time O/E/V tabulated by hand gives
    # U = 0.5 + 2/3, V = 1/4 + 2/9, chi2 = (7/6)^2 / (17/36) = 49/17
    a = [R("a1", 1.0, True, {}), R("a2", 2.0, True, {})]
    b = [R("b1", 3.0, True, {}), R("b2", 4.0, True, {})]
    result = sv.log_rank(a, b)
    assert result.chi2 == pytest.approx(49.0 / 17.0, abs=1e-12)
    assert result.observed_a == 2.0
    assert result.expected_a == pytest.approx(0.5 + 1.0 / 3.0, abs=1e-12)


def test_log_rank_requires_events_and_both_groups():
    quiet = [R("a", 1.0, False, {})]
    with pytest.raises(NoEventsError):
        sv.log_rank(quiet, [R("b", 2.0, False, {})])
    with pytest.raises(EmptyCohortError):
        sv.log_rank([], quiet)


def test_log_rank_detects_separated_hazards():
    rng = np.random.default_rng(51)
    fast = [R(f"f{i}", float(rng.exponential(1.0)), True, {}) for i in range(40)]
    slow = [R(f"s{i}", float(rng.exponential(5.0)), True, {}) for i in range(40)]
    result = sv.log_rank(fast, slow)
    assert result.p_value < 0.01


# --- Cox ------------------------------------------------------------------------

N6_RECORDS = [
    R("s1", 1.0, True, {"x": 2.0}),
    R("s2", 2.0, True, {"x": 0.0}),
    R("s3", 3.0, True, {"x": 1.0}),
    R("s4", 4.0, False, {"x": 1.0}),
    R("s5", 5.0, True, {"x": 0.0}),
    R("s6", 6.0, False, {"x": 1.0}),
]


def _breslow_grid_maximum(records, lo=-5.0, hi=5.0, step=1e-4):
    x = np.array([r.covariates["x"] for r in records])
    t = np.array([r.time_years for r in records])
    e = np.array([r.event for r in records], dtype=bool)
    betas = np.arange(lo, hi + step / 2, step)
    best_beta, best_ll = None, -np.inf
    for b in betas:
        w = np.exp(b * x)
        ll = 0.0
        for j in np.where(e)[0]:
            ll += b * x[j] - np.log(w[t >= t[j]].sum())
        if ll > best_ll:
            best_beta, best_ll = b, ll
    return best_beta


def test_cox_matches_exhaustive_grid_search():
    fit = sv.cox_fit(N6_RECORDS, ["x"])
    grid_beta = _breslow_grid_maximum(N6_RECORDS)
    assert fit.by_name("x").beta == pytest.approx(grid_beta, abs=1e-3)


def test_cox_translation_invariance():
    fit = sv.cox_fit(N6_RECORDS, ["x"])
    shifted = [R(r.id, r.time_years, r.event, {"x": r.covariates["x"] + 37.5}) for r in N6_RECORDS]
    fit2 = sv.cox_fit(shifted, ["x"])
    assert fit2.by_name("x").beta == pytest.approx(fit.by_name("x").beta, abs=1e-9)
    assert fit2.by_name("x").se == pytest.approx(fit.by_name("x").se, abs=1e-9)


def test_cox_scaling_covariance():
    c = 4.0
    fit = sv.cox_fit(N6_RECORDS, ["x"])
    scaled = [R(r.id, r.time_years, r.event, {"x": r.covariates["x"] * c}) for r in N6_RECORDS]
    fit2 = sv.cox_fit(scaled, ["x"])
    assert fit2.by_name("x").beta == pytest.approx(fit.by_name("x").beta / c, abs=1e-9)
    assert fit2.by_name("x").p_value == pytest.approx(fit.by_name("x").p_value, abs=1e-9)


def test_cox_hr_and_ci_are_exact_exponentials():
    fit = sv.cox_fit(N6_RECORDS, ["x"])
    cov = fit.by_name("x")
    assert cov.hazard_ratio == math.exp(cov.beta)
    assert cov.ci_low == math.exp(cov.beta - 1.959964 * cov.se)
    assert cov.ci_high == math.exp(cov.beta + 1.959964 * cov.se)


def test_cox_score_vanishes_at_optimum():
    fit = sv.cox_fit(N6_RECORDS, ["x"])
    b = fit.by_name("x").beta
    x = np.array([r.covariates["x"] for r in N6_RECORDS])
    t = np.array([r.time_years for r in N6_RECORDS])
    e = np.array([r.event for r in N6_RECORDS], dtype=bool)
    score = 0.0
    for j in np.where(e)[0]:
        risk = t >= t[j]
        w = np.exp(b * x[risk])
        score += x[j] - (w * x[risk]).sum() / w.sum()
    assert abs(score) < 1e-8


def test_cox_two_covariates():
    rng = np.random.default_rng(52)
    records = []
    for i in range(300):
        x1 = float(rng.integers(0, 3))
        x2 = float(rng.integers(0, 2))
        lam = 0.05 * (2.0 ** x1) * (1.5 ** x2)
        time = float(rng.exponential(1.0 / lam))
        records.append(R(str(i), min(time, 8.0), bool(time <= 8.0), {"x1": x1, "x2": x2}))
    fit = sv.cox_fit(records, ["x1", "x2"])
    assert abs(fit.by_name("x1").beta - math.log(2.0)) < 3 * fit.by_name("x1").se
    assert abs(fit.by_name("x2").beta - math.log(1.5)) < 3 * fit.by_name("x2").se


def test_cox_recovers_known_hazard_ratio():
    from cacxray.synthgen import SynthConfig, generate_samples, generate_survival

    cfg = SynthConfig(n=2000, seed=123, hazard_ratio=2.5)
    samples = generate_samples(cfg)
    records = generate_survival(cfg, samples)
    fit = sv.cox_fit(records, ["ai_cac_category"])
    cov = fit.by_name("ai_cac_category")
    assert abs(cov.beta - math.log(2.5)) <= 3.0 * cov.se


def test_cox_error_taxonomy():
    with pytest.raises(ConstantCovariateError):
        sv.cox_fit(
            [R("a", 1.0, True, {"x": 1.0}), R("b", 2.0, True, {"x": 1.0})], ["x"]
        )
    with pytest.raises(NoEventsError):
        sv.cox_fit(
            [R("a", 1.0, False, {"x": 1.0}), R("b", 2.0, False, {"x": 0.0})], ["x"]
        )
    with pytest.raises(EmptyCohortError):
        sv.cox_fit([], ["x"])
    separated = [
        R("a", 1.0, True, {"x": 1.0}),
        R("b", 2.0, True, {"x": 1.0}),
        R("c", 3.0, True, {"x": 0.0}),
        R("d", 4.0, True, {"x": 0.0}),
    ]
    with pytest.raises(DivergedError):
        sv.cox_fit(separated, ["x"])
    # y = 2x adds nothing to x, so the information matrix is exactly singular
    collinear = [R(f"s{i}", 1.0 + i, i % 2 == 0, {"x": float(i % 3), "y": 2.0 * (i % 3)}) for i in range(6)]
    with pytest.raises(DivergedError, match="singular information matrix"):
        sv.cox_fit(collinear, ["x", "y"])


def test_cox_json_shape():
    doc = json.loads(sv.cox_to_json(sv.cox_fit(N6_RECORDS, ["x"])))
    entry = doc["covariates"][0]
    for key in ("name", "beta", "se", "hazard_ratio", "ci_low", "ci_high", "p_value"):
        assert key in entry


def test_cox_json_writes_null_for_undefined_p_value(monkeypatch):
    # a zero covariance at the optimum gives se == 0, where the Wald p-value
    # is undefined; strict JSON has no NaN, so it is written as null
    monkeypatch.setattr(sv.np.linalg, "inv", np.zeros_like)
    result = sv.cox_fit(N6_RECORDS, ["x"])
    assert result.covariates[0].se == 0.0
    text = sv.cox_to_json(result)
    doc = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-finite {c} in JSON"))
    assert doc["covariates"][0]["p_value"] is None
    assert '"p_value": null' in text


# --- tail probabilities ------------------------------------------------------------

def test_chi2_sf_values():
    assert sv.chi2_sf(0.0) == 1.0
    assert sv.chi2_sf(3.841459) == pytest.approx(0.05, abs=1e-6)
    # the one-degree-of-freedom critical values
    assert sv.chi2_sf(3.8414588206941285) == pytest.approx(0.05, rel=1e-14)
    assert sv.chi2_sf(6.634896601021217) == pytest.approx(0.01, rel=1e-14)
    assert sv.chi2_sf(10.827566170662733) == pytest.approx(0.001, rel=1e-14)
    with pytest.raises(NegativeStatisticError):
        sv.chi2_sf(-0.1)


def test_normal_sf_values():
    assert sv.normal_sf(0.0) == 0.5
    assert sv.normal_sf(1.959964) == pytest.approx(0.025, abs=1e-7)
    assert sv.normal_sf(-1.959964) == pytest.approx(0.975, abs=1e-7)


# --- cohort CSV ------------------------------------------------------------------

def test_cohort_csv_round_trip():
    records = [
        R("p1", 1.25, True, {"ai_cac": 12.5, "cac": 10.0, "ai_cac_category": 1.0, "esc_class": 2.0}),
        R("p2", 4.75, False, {"ai_cac": 0.0, "cac": 0.0, "ai_cac_category": 0.0, "esc_class": 0.0}),
    ]
    back = sv.cohort_from_csv(sv.cohort_to_csv(records))
    assert len(back) == 2
    for orig, rt in zip(records, back):
        assert rt.id == orig.id
        assert rt.time_years == pytest.approx(orig.time_years, abs=1e-12)
        assert rt.event == orig.event
        for key, val in orig.covariates.items():
            assert rt.covariates[key] == pytest.approx(val, abs=1e-12)


_COVARIATES = ("ai_cac", "cac", "ai_cac_category", "esc_class", "bmi")


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def _csv_records(draw):
    """Ids of any text with commas, quotes and line feeds mixed in (csv_text
    refuses a carriage return), any positive finite follow-up time, and
    each covariate present or absent, holding any finite float (a record
    refuses the others)."""
    ids = st.text(st.one_of(st.sampled_from(',"\n '), st.characters(exclude_characters="\r")))
    times = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    covariates = st.dictionaries(st.sampled_from(_COVARIATES), st.floats(allow_nan=False, allow_infinity=False))
    n = draw(st.integers(0, 8))
    return [R(draw(ids), draw(times), draw(st.booleans()), draw(covariates)) for _ in range(n)]


@settings(max_examples=200)
@given(_csv_records())
def test_cohort_csv_round_trips_ids_and_floats_bit_for_bit(records):
    back = sv.cohort_from_csv(sv.cohort_to_csv(records))
    assert [(r.id, _bits(r.time_years), r.event) for r in back] == [
        (r.id, _bits(r.time_years), r.event) for r in records
    ]
    assert [{k: _bits(v) for k, v in r.covariates.items()} for r in back] == [
        {k: _bits(v) for k, v in r.covariates.items()} for r in records
    ]


def test_cohort_csv_rejects_bad_schema():
    with pytest.raises(InvalidConfigError):
        sv.cohort_from_csv("id,time_years\np1,1.0\n")


def test_cohort_csv_rejects_zero_follow_up_time():
    for time in ("0", "inf"):
        with pytest.raises(InvalidConfigError, match="p2: follow-up time must be positive and finite"):
            sv.cohort_from_csv(f"id,time_years,event\np1,1.0,1\np2,{time},0\n")


def test_cohort_csv_rejects_event_other_than_0_or_1():
    for event in ("2", "-1"):
        with pytest.raises(InvalidConfigError, match=f"p2: event must be 0 or 1, got '{event}'"):
            sv.cohort_from_csv(f"id,time_years,event\np1,1.0,1\np2,2.0,{event}\n")


@pytest.mark.parametrize("row,message", [
    ("p2,2.0,1.0,3", "p2: event must be 0 or 1, got '1.0'"),
    ("p2,two,0,3", "p2: time_years is not a number: 'two'"),
    ("p2,2.0,0,x3", "p2: covariate 'cac' is not a number: 'x3'"),
], ids=["event", "time_years", "covariate"])
def test_cohort_csv_names_the_subject_and_column_of_a_cell_that_is_no_number(row, message):
    with pytest.raises(InvalidConfigError, match=message):
        sv.cohort_from_csv(f"id,time_years,event,cac\np1,1.0,1,0\n{row}\n")


# --- pinned bits ------------------------------------------------------------------

def _synth_cohort():
    from cacxray.synthgen import SynthConfig, generate_samples, generate_survival

    cfg = SynthConfig(n=2000, seed=123)
    return generate_survival(cfg, generate_samples(cfg))


def _tied_cohort():
    # integer follow-up times: every time point carries many events and censorings
    rng = np.random.default_rng(60)
    return [
        R(f"t{i}", float(rng.integers(1, 13)), bool(rng.random() < 0.6),
          {"ai_cac_category": float(rng.integers(0, 4)), "esc_class": float(rng.integers(0, 4))})
        for i in range(500)
    ]


def _sha(*parts):
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("cohort,digests", [
    (_synth_cohort, {
        "km": "d2567fe7db1dce347880bb3c2112da5a8b3fb8eb7891d0cb15cc2f82349808e1",
        "log_rank": "62a91e61a241cf3e83606f5f3f2e5fc6ad4a61cfbf09499a54fcf8a12f04987f",
        "cox": "867c74dae2697d599d6299382fd8ab83e3ca46392f964a21f9e36bbc9a8033cc",
    }),
    (_tied_cohort, {
        "km": "35baf14b7ec0bf07aa3d426b27e7e6cc8bc88f85eb4c40fea59d95bedd6e8366",
        "log_rank": "fcb469c7e01aec930c239f29d15871e1287168b1af840289f53152489002032d",
        "cox": "c3aca50c0805a23e54a10dea3d04ab3e619a4908d1b840e957618bea7626dc7f",
    }),
])
def test_survival_bits_are_pinned(cohort, digests):
    # digests of the per-time rescans and the per-subject Cox sums, taken
    # before one risk-set count replaced them; the dataclass reprs pin the
    # Python types as well as the bits
    records = cohort()
    zero = [r for r in records if r.covariates["ai_cac_category"] <= 0]
    positive = [r for r in records if r.covariates["ai_cac_category"] > 0]
    got = {
        "km": _sha(repr(sv.kaplan_meier(zero)), repr(sv.kaplan_meier(positive))),
        "log_rank": _sha(repr(sv.log_rank(zero, positive))),
        "cox": _sha(sv.cox_to_json(sv.cox_fit(records, ["ai_cac_category"])),
                    sv.cox_to_json(sv.cox_fit(records, ["ai_cac_category", "esc_class"]))),
    }
    assert got == digests


# --- per-time oracles ------------------------------------------------------------

def _km_oracle(records):
    """Counts times >= t and events at t for each event time, multiplies in time order."""
    if not records:
        raise EmptyCohortError("empty cohort")
    times = np.array([r.time_years for r in records])
    events = np.array([r.event for r in records], dtype=bool)
    out_t, out_s, out_n, out_d = [], [], [], []
    s = 1.0
    for t in sorted(set(times[events].tolist())):
        n = int((times >= t).sum())
        d = int(((times == t) & events).sum())
        s *= (n - d) / n
        out_t.append(t)
        out_s.append(s)
        out_n.append(n)
        out_d.append(d)
    censored = tuple(sorted(times[~events].tolist()))
    return sv.KmCurve(tuple(out_t), tuple(out_s), tuple(out_n), tuple(out_d), censored)


def _log_rank_oracle(a, b):
    """Per-time 2x2 tables, summed in time order."""
    if not a or not b:
        raise EmptyCohortError("both groups must be nonempty")
    ta = np.array([r.time_years for r in a])
    ea = np.array([r.event for r in a], dtype=bool)
    tb = np.array([r.time_years for r in b])
    eb = np.array([r.event for r in b], dtype=bool)
    pooled = sorted(set(ta[ea].tolist()) | set(tb[eb].tolist()))
    if not pooled:
        raise NoEventsError("no events in either group")
    obs = exp = u = var = 0.0
    for t in pooled:
        n_a, n_b = int((ta >= t).sum()), int((tb >= t).sum())
        d_a, d_b = int(((ta == t) & ea).sum()), int(((tb == t) & eb).sum())
        n, d = n_a + n_b, d_a + d_b
        obs += d_a
        exp += d * n_a / n
        u += (d_a * n_b - d_b * n_a) / n
        if n > 1:
            var += d * (n_a / n) * (n_b / n) * (n - d) / (n - 1)
    if var == 0.0:
        return sv.LogRankResult(0.0, 1.0, obs, exp)
    chi2 = u ** 2 / var
    return sv.LogRankResult(chi2, sv.chi2_sf(chi2), obs, exp)


def _breslow_scan(beta, x, times, events):
    """Breslow log-likelihood, score and information, one event at a time."""
    eta = x @ beta
    ll, score, info = 0.0, np.zeros(x.shape[1]), np.zeros((x.shape[1],) * 2)
    for j in np.flatnonzero(events):
        risk = times >= times[j]
        w, xr = np.exp(eta[risk]), x[risk]
        mean = (w[:, None] * xr).sum(axis=0) / w.sum()
        ll += eta[j] - np.log(w.sum())
        score += x[j] - mean
        info += np.einsum("i,ij,ik->jk", w, xr, xr) / w.sum() - np.outer(mean, mean)
    return ll, score, info


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except (EmptyCohortError, NoEventsError) as exc:
        return repr(exc)


@st.composite
def _cohorts(draw, max_size=40):
    """Follow-up times drawn from a pool, so ties are common: small integers,
    or any positive finite floats."""
    if draw(st.booleans()):
        values = st.integers(1, 6).map(float)
    else:
        values = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    pool = draw(st.lists(values, min_size=1, max_size=max_size))
    n = draw(st.integers(0, max_size))
    times = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [R(f"s{i}", t, e, {}) for i, (t, e) in enumerate(zip(times, events))]


@settings(max_examples=300)
@given(_cohorts())
def test_kaplan_meier_equals_the_per_time_oracle(records):
    assert _outcome(sv.kaplan_meier, records) == _outcome(_km_oracle, records)
    if records:
        curve = sv.kaplan_meier(records)
        assert sv.km_to_csv(curve).split("\n")[1] == f"0.0,1.0,{len(records)},0"


@settings(max_examples=300)
@given(_cohorts(), st.data())
def test_log_rank_equals_the_per_time_oracle(records, data):
    in_a = data.draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
    a = [r for r, k in zip(records, in_a) if k]
    b = [r for r, k in zip(records, in_a) if not k]
    assert _outcome(sv.log_rank, a, b) == _outcome(_log_rank_oracle, a, b)


@settings(max_examples=200)
@given(_cohorts(), st.integers(1, 3), st.data())
def test_cox_quantities_equal_a_per_event_breslow_scan(records, p, data):
    if not records:
        records = [R("s0", 1.0, True, {})]
    times = np.array([r.time_years for r in records])
    events = np.array([r.event for r in records], dtype=bool)
    cells = st.integers(-3, 3).map(float) if data.draw(st.booleans()) else st.floats(-3.0, 3.0)
    x = np.array(data.draw(st.lists(st.lists(cells, min_size=p, max_size=p),
                                    min_size=len(records), max_size=len(records))))
    beta = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p)))
    got = sv._cox_quantities(beta, x, times, events)
    want = _breslow_scan(beta, x, times, events)
    for g, w in zip(got, want):
        assert np.asarray(g) == pytest.approx(np.asarray(w), rel=1e-9, abs=1e-9)

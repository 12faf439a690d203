"""Time-to-event analysis: Kaplan-Meier, two-group log-rank, Cox regression.

Ties are handled the standard way throughout: subjects censored at an event
time stay in the risk set for that time, and the Cox partial likelihood uses
the Breslow approximation for tied events.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    ConstantCovariateError,
    DivergedError,
    EmptyCohortError,
    InvalidConfigError,
    NegativeStatisticError,
    NoEventsError,
)
from .framing import csv_rows, csv_text, json_text


@dataclass(frozen=True)
class SubjectRecord:
    id: str
    time_years: float
    event: bool
    covariates: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 < self.time_years < math.inf:
            raise InvalidConfigError(f"subject {self.id}: follow-up time must be positive and finite")
        for name, value in self.covariates.items():
            if not math.isfinite(value):
                raise InvalidConfigError(f"subject {self.id}: covariate {name!r} must be finite, got {value}")


def chi2_sf(x: float) -> float:
    """Upper tail of the chi-squared law with one degree of freedom:
    P(chi2 > x) = P(|Z| > sqrt(x)) = erfc(sqrt(x / 2))."""
    if x < 0:
        raise NegativeStatisticError(f"chi-squared statistic must be nonnegative, got {x}")
    return math.erfc(math.sqrt(x / 2.0))


def normal_sf(z: float) -> float:
    """Standard normal upper tail."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _times_events(records) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray([r.time_years for r in records], dtype=float)
    events = np.asarray([r.event for r in records], dtype=bool)
    return times, events


def _risk_table(times: np.ndarray, events: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each time t in ``at``: the count at risk (time >= t, so a censoring
    at t stays in t's risk set) and the count of events at exactly t."""
    at_risk = times.size - np.searchsorted(np.sort(times), at, "left")
    event_times = np.sort(times[events])
    n_events = np.searchsorted(event_times, at, "right") - np.searchsorted(event_times, at, "left")
    return at_risk, n_events


# --- Kaplan-Meier --------------------------------------------------------------


@dataclass(frozen=True)
class KmCurve:
    """Product-limit estimate: survival steps at the distinct event times."""

    times: tuple[float, ...]  # distinct event times, ascending
    survival: tuple[float, ...]  # S(t) just after each event time
    at_risk: tuple[int, ...]  # n at risk just before each event time
    n_events: tuple[int, ...]  # events at each time
    censoring_times: tuple[float, ...]  # censored follow-up times, ascending


def kaplan_meier(records) -> KmCurve:
    records = list(records)
    if not records:
        raise EmptyCohortError("empty cohort")
    times, events = _times_events(records)
    event_times = np.unique(times[events])
    n, d = _risk_table(times, events, event_times)
    # (n - d)/n, not 1 - d/n, is exact for small counts, so hand-computed
    # fractions like 2/3 compare bit-for-bit; cumprod multiplies in time order
    survival = np.cumprod((n - d) / n)
    return KmCurve(
        times=tuple(event_times.tolist()),
        survival=tuple(survival.tolist()),
        at_risk=tuple(n.tolist()),
        n_events=tuple(d.tolist()),
        censoring_times=tuple(np.sort(times[~events]).tolist()),
    )


def km_event_estimate(curve: KmCurve, horizon: float) -> float:
    """Cumulative event probability 1 - S(horizon); 0 before the first event.
    A NaN horizon raises ValueError."""
    if math.isnan(horizon):
        raise ValueError("horizon is not a number")
    k = bisect.bisect_right(curve.times, horizon)  # event times <= horizon
    return 1.0 - curve.survival[k - 1] if k else 0.0


def km_to_csv(curve: KmCurve) -> str:
    start = (0.0, 1.0, len(curve.censoring_times) + sum(curve.n_events), 0)
    steps = zip(curve.times, curve.survival, curve.at_risk, curve.n_events)
    return csv_text(("time_years", "survival", "at_risk", "events"), [start, *steps])


# --- log-rank -------------------------------------------------------------------


@dataclass(frozen=True)
class LogRankResult:
    chi2: float
    p_value: float
    observed_a: float
    expected_a: float


def log_rank(group_a, group_b) -> LogRankResult:
    """Two-group log-rank test with the hypergeometric variance.

    Time points where the pooled risk set has a single subject contribute no
    variance. Zero total variance (e.g. identical groups of one) gives
    chi2 = 0, p = 1.
    """
    a = list(group_a)
    b = list(group_b)
    if not a or not b:
        raise EmptyCohortError("both groups must be nonempty")
    ta, ea = _times_events(a)
    tb, eb = _times_events(b)
    pooled_event_times = np.unique(np.concatenate([ta[ea], tb[eb]]))
    if pooled_event_times.size == 0:
        raise NoEventsError("no events in either group")
    n_a, d_a = _risk_table(ta, ea, pooled_event_times)
    n_b, d_b = _risk_table(tb, eb, pooled_event_times)
    n = n_a + n_b
    d = d_a + d_b
    # integer cross product keeps the statistic exactly antisymmetric under a
    # group swap, so chi2 is bit-identical either way round; n == 1 forces
    # d == 1, so that variance term is 0 whatever its denominator
    terms = np.stack([d_a, d * n_a / n, (d_a * n_b - d_b * n_a) / n,
                      d * (n_a / n) * (n_b / n) * (n - d) / np.maximum(n - 1, 1)])
    # cumsum adds in time order, as a running total does; np.sum adds pairwise
    obs_a, exp_a, u, var = np.cumsum(terms, axis=1)[:, -1].tolist()
    if var == 0.0:
        return LogRankResult(chi2=0.0, p_value=1.0, observed_a=obs_a, expected_a=exp_a)
    chi2 = u ** 2 / var
    return LogRankResult(chi2=chi2, p_value=chi2_sf(chi2), observed_a=obs_a, expected_a=exp_a)


# --- Cox proportional hazards ----------------------------------------------------


@dataclass(frozen=True)
class CoxCovariateResult:
    name: str
    beta: float
    se: float
    hazard_ratio: float
    ci_low: float
    ci_high: float
    p_value: float | None  # None when se == 0: the Wald test is undefined


@dataclass(frozen=True)
class CoxResult:
    covariates: tuple[CoxCovariateResult, ...]
    log_likelihood: float
    iterations: int

    def by_name(self, name: str) -> CoxCovariateResult:
        for c in self.covariates:
            if c.name == name:
                return c
        raise KeyError(name)


_Z_95 = 1.959964  # two-sided 95% normal quantile, fixed for reproducibility
_COX_MAX_ITER = 50  # Newton-Raphson steps before cox_fit gives up


def _cox_quantities(beta: np.ndarray, x: np.ndarray, times: np.ndarray, events: np.ndarray):
    """Breslow partial log-likelihood, score vector and information matrix."""
    order = np.argsort(-times, kind="mergesort")  # descending: suffix sums become prefixes
    xt = x[order]
    tt = times[order]
    ev = events[order]
    eta = xt @ beta
    eta -= eta.max()  # guard exp overflow; cancels in every ratio below
    w = np.exp(eta)
    # risk-set sums over time >= t, read at the last subject of t's tie group:
    # everyone with this time enters the risk set before its events score
    s0 = np.cumsum(w)
    s1 = np.cumsum(w[:, None] * xt, axis=0)
    s2 = np.cumsum(w[:, None, None] * (xt[:, :, None] * xt[:, None, :]), axis=0)
    bounds = np.flatnonzero(np.r_[True, tt[1:] != tt[:-1], True])
    starts, ends = bounds[:-1], bounds[1:]
    with_events = np.logical_or.reduceat(ev, starts)
    ll, score, info = 0.0, np.zeros_like(s1[0]), np.zeros_like(s2[0])
    for i, j in zip(starts[with_events], ends[with_events]):
        k = j - 1
        hit = ev[i:j]
        d = int(hit.sum())
        mean = s1[k] / s0[k]
        # the max-shift on eta cancels: each event adds (eta - M) - (log s0 - M)
        ll += float(eta[i:j][hit].sum()) - d * float(np.log(s0[k]))
        score += xt[i:j][hit].sum(axis=0) - d * mean
        info += d * (s2[k] / s0[k] - np.outer(mean, mean))
    return ll, score, info


def cox_fit(records, covariate_names) -> CoxResult:
    """Newton-Raphson fit of a Cox proportional-hazards model (Breslow ties).

    Converges when max|score| < 1e-8 or the log-likelihood moves < 1e-10; the
    step is halved while it would decrease the likelihood. A coefficient
    walking past |beta| = 50, no convergence in 50 steps, or a singular
    information matrix raises DivergedError.
    """
    records = list(records)
    if not records:
        raise EmptyCohortError("empty cohort")
    names = list(covariate_names)
    if not names:
        raise ValueError("need at least one covariate")
    try:
        x = np.asarray([[float(r.covariates[c]) for c in names] for r in records])
    except KeyError as exc:
        raise ValueError(f"subject missing covariate {exc.args[0]!r}") from exc
    times, events = _times_events(records)
    if not events.any():
        raise NoEventsError("no observed events")
    for jc, name in enumerate(names):
        if np.ptp(x[:, jc]) == 0.0:
            raise ConstantCovariateError(f"covariate {name!r} is constant")
    center = x.mean(axis=0)
    xc = x - center  # centering leaves beta/se unchanged, improves conditioning

    beta = np.zeros(len(names))
    ll, score, info = _cox_quantities(beta, xc, times, events)
    iterations = 0
    for iterations in range(1, _COX_MAX_ITER + 1):
        try:
            delta = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise DivergedError("singular information matrix") from exc
        new_beta = beta + delta
        new_ll, new_score, new_info = _cox_quantities(new_beta, xc, times, events)
        halvings = 0
        while not new_ll >= ll and halvings < 30:  # also catches nan
            delta /= 2.0
            new_beta = beta + delta
            new_ll, new_score, new_info = _cox_quantities(new_beta, xc, times, events)
            halvings += 1
        if not np.isfinite(new_ll):
            raise DivergedError("log-likelihood became non-finite")
        beta, prev_ll, ll, score, info = new_beta, ll, new_ll, new_score, new_info
        if np.any(np.abs(beta) > 50.0):
            raise DivergedError(f"coefficient left the trust region: {beta}")
        if np.max(np.abs(score)) < 1e-8 or abs(ll - prev_ll) < 1e-10:
            break
    else:
        raise DivergedError(f"no convergence in {_COX_MAX_ITER} iterations")
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise DivergedError("singular information matrix at the optimum") from exc
    with np.errstate(invalid="ignore"):
        se = np.sqrt(np.diag(cov))
    # a flat partial likelihood (se beyond any usable scale) means the data
    # do not identify beta: perfect separation that stalled inside |beta|<=50
    if not np.all(np.isfinite(se)) or np.any(se > 100.0):
        raise DivergedError("near-zero information at the optimum, likely separation")
    out = []
    for jc, name in enumerate(names):
        b = float(beta[jc])
        s = float(se[jc])
        out.append(
            CoxCovariateResult(
                name=name,
                beta=b,
                se=s,
                hazard_ratio=math.exp(b),
                ci_low=math.exp(b - _Z_95 * s),
                ci_high=math.exp(b + _Z_95 * s),
                p_value=2.0 * normal_sf(abs(b) / s) if s > 0 else None,
            )
        )
    return CoxResult(covariates=tuple(out), log_likelihood=float(ll), iterations=iterations)


def cox_to_json(result: CoxResult) -> str:
    """Strict JSON: an undefined ``p_value`` (se == 0) is written as null."""
    return json_text(asdict(result))


# --- cohort CSV -------------------------------------------------------------------

_FIXED_COLUMNS = ("id", "time_years", "event")
_KNOWN_COVARIATES = ("ai_cac", "cac", "ai_cac_category", "esc_class")


def cohort_to_csv(records) -> str:
    """Header: id,time_years,event, the known covariates in canonical order,
    then any extra covariates sorted by name."""
    records = list(records)
    extra = sorted({k for r in records for k in r.covariates} - set(_KNOWN_COVARIATES))
    known = [k for k in _KNOWN_COVARIATES if any(k in r.covariates for r in records)]
    rows = [
        [r.id, float(r.time_years), int(r.event)]
        + [float(r.covariates[k]) if k in r.covariates else "" for k in known + extra]
        for r in records
    ]
    return csv_text(list(_FIXED_COLUMNS) + known + extra, rows)


def cohort_from_csv(text: str) -> list[SubjectRecord]:
    """The subjects of a cohort file; a missing column, row or cell raises InvalidConfigError."""
    rows = csv_rows(text)
    if not rows:
        raise InvalidConfigError("empty cohort file")
    header = rows[0]
    for col in _FIXED_COLUMNS:
        if col not in header:
            raise InvalidConfigError(f"cohort file lacks required column {col!r}")
    idx = {c: header.index(c) for c in header}
    cov_cols = [c for c in header if c not in _FIXED_COLUMNS]
    records = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise InvalidConfigError(f"row has {len(row)} cells, header has {len(header)}")
        sid = row[idx["id"]]
        try:
            event = int(row[idx["event"]])
        except ValueError:
            event = -1  # refused below, with the cell as written
        if event not in (0, 1):
            raise InvalidConfigError(f"subject {sid}: event must be 0 or 1, got {row[idx['event']]!r}")
        cell = row[idx["time_years"]]
        try:
            time = float(cell)
        except ValueError as exc:
            raise InvalidConfigError(f"subject {sid}: time_years is not a number: {cell!r}") from exc
        covs = {}
        for c in cov_cols:
            cell = row[idx[c]].strip()
            if cell:
                try:
                    covs[c] = float(cell)
                except ValueError as exc:
                    raise InvalidConfigError(f"subject {sid}: covariate {c!r} is not a number: {cell!r}") from exc
        records.append(SubjectRecord(id=sid, time_years=time, event=bool(event), covariates=covs))
    return records

"""Classical survival statistics for the prognostic-value pipeline.

Everything is implemented directly on numpy: Kaplan-Meier with Greenwood
variance, the log-rank test, Cox proportional hazards via Newton-Raphson on
the Breslow partial likelihood, IPCW time-dependent ROC AUC, restricted mean
survival time with normal-approximation inference, paired bootstrap AUC
comparison, median risk stratification, calibration tables, decision-curve
net benefit, and a points-based nomogram over a fitted Cox model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import ConvergenceError, DataError, DegenerateError, RangeError, UndefinedError
from .rng import substream

__all__ = [
    "KmCurve", "km_fit", "logrank_test", "CoxFit", "coxph_fit",
    "multivariable_pipeline", "timeroc_auc", "rmst", "rmst_compare",
    "bootstrap_auc_compare", "median_stratify", "calibration_curve",
    "dca_curve", "NomogramModel", "nomogram_build", "nomogram_score",
]

COX_MAX_ITER = 50
COX_TOL = 1e-8
CALIBRATION_GROUPS = 10
NOMOGRAM_STEP = 10.0


def _clean(times, events):
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.int64)
    if times.shape != events.shape or times.ndim != 1:
        raise DataError("times and events must be matching 1-D arrays")
    if times.size == 0:
        raise DataError("empty sample")
    if not np.isfinite(times).all() or (times <= 0).any():
        raise DataError("times must be finite and positive")
    if not np.isin(events, (0, 1)).all():
        raise DataError("events must be 0 or 1")
    return times, events


def _step_at(knots, values, before, t, side="right"):
    """Step function with ``values`` from each knot on, ``before`` ahead of
    the first; ``side="left"`` reads the left limit at ``t``."""
    idx = np.searchsorted(knots, np.asarray(t, dtype=np.float64), side=side)
    out = np.concatenate([[before], values])[idx]
    return float(out) if np.isscalar(t) else out


# -- Kaplan-Meier ---------------------------------------------------------------


@dataclass(frozen=True)
class KmCurve:
    """Product-limit estimate: step times, survival, risk sets, Greenwood variance."""

    times: np.ndarray  # distinct event times, ascending
    surv: np.ndarray
    n_at_risk: np.ndarray
    n_events: np.ndarray
    var: np.ndarray  # Greenwood variance of S at each step
    n: int

    def survival_at(self, t, left: bool = False) -> np.ndarray | float:
        """Step-function value S(t); ``left`` gives the left limit S(t-)."""
        return _step_at(self.times, self.surv, 1.0, t, "left" if left else "right")

    def var_at(self, t) -> float:
        return _step_at(self.times, self.var, 0.0, t)


def _risk_table(times, events, at=None, weights=None):
    """Risk-set size and event count at each time in ``at`` (by default the
    distinct event times); returns (at, at_risk, n_events). At risk at t means
    a time of at least t, and events tied at t count together. With
    ``weights``, at_risk is the risk set's weight sum instead of its size.
    """
    order = np.argsort(times, kind="stable")
    ts, es = times[order], events[order]
    if at is None:
        at = np.unique(ts[es == 1])
    first = np.searchsorted(ts, at, side="left")
    cum_events = np.concatenate([[0], np.cumsum(es)])
    n_events = cum_events[np.searchsorted(ts, at, side="right")] - cum_events[first]
    if weights is None:
        return at, ts.size - first, n_events
    return at, np.cumsum(weights[order][::-1])[::-1][first], n_events


def km_fit(times, events) -> KmCurve:
    """Kaplan-Meier product-limit estimate with Greenwood variance.

    At risk at t means a time of at least t, so a subject censored at t is in
    the risk set of an event at t. Tied events at t form one step of size d/n.
    The Greenwood variance is 0 once S reaches 0 (a point mass).
    """
    times, events = _clean(times, events)
    event_times, at_risk, d = _risk_table(times, events)
    surv = np.multiply.accumulate(1.0 - d / at_risk)
    with np.errstate(divide="ignore", invalid="ignore"):  # n == d: green is inf, S is 0
        green = np.add.accumulate(d / (at_risk * (at_risk - d)))
        var = np.where(at_risk > d, surv * surv * green, 0.0)
    return KmCurve(times=event_times, surv=surv, n_at_risk=at_risk, n_events=d, var=var, n=times.size)


# -- log-rank --------------------------------------------------------------------


def logrank_test(groups) -> tuple[float, float]:
    """O-E log-rank test across two or more groups.

    ``groups`` is a sequence of (times, events) pairs. Returns (chi2, p) with
    k-1 degrees of freedom; raises UndefinedError when the pooled variance
    vanishes (e.g. no events shared across risk sets).
    """
    if len(groups) < 2:
        raise DataError("need at least 2 groups")
    cleaned = [_clean(t, e) for t, e in groups]
    k = len(cleaned)
    pooled = np.unique(np.concatenate([t[e == 1] for t, e in cleaned]))
    if pooled.size == 0:
        raise UndefinedError("no events in any group")
    tables = [_risk_table(t, e, pooled) for t, e in cleaned]
    n_g = np.column_stack([n for _, n, _ in tables]).astype(np.float64)  # (event times, groups)
    d_g = np.column_stack([d for _, _, d in tables]).astype(np.float64)
    n_tot = n_g.sum(axis=1, keepdims=True)
    d_tot = d_g.sum(axis=1, keepdims=True)
    frac = n_g / n_tot
    diff = (d_g - d_tot * frac).sum(axis=0)[: k - 1]  # observed - expected
    # a lone subject at risk (n_tot == 1) has its event there, so n_tot - d_tot is 0
    scale = d_tot * (n_tot - d_tot) / np.maximum(n_tot - 1, 1)
    v = (np.diag((scale * frac).sum(axis=0)) - frac.T @ (scale * frac))[: k - 1, : k - 1]
    if not np.any(np.abs(v) > 0):
        raise UndefinedError("log-rank variance is zero")
    try:
        stat = float(diff @ np.linalg.solve(v, diff))
    except np.linalg.LinAlgError:
        stat = float(diff @ np.linalg.pinv(v) @ diff)
    p = float(stats.chi2.sf(stat, k - 1))
    return stat, p


# -- Cox proportional hazards ------------------------------------------------------


@dataclass
class CoxFit:
    names: list[str]
    beta: np.ndarray
    se: np.ndarray
    wald_p: np.ndarray
    hr: np.ndarray
    loglik: float
    loglik_null: float
    baseline_times: np.ndarray
    baseline_cumhaz: np.ndarray  # Breslow cumulative hazard at covariates = 0
    converged: bool
    n_iter: int
    score_norm: float
    x_mean: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def linear_predictor(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.beta

    def cumhaz_at(self, t) -> np.ndarray | float:
        return _step_at(self.baseline_times, self.baseline_cumhaz, 0.0, t)


def _cox_quantities(beta, times, events, x):
    """Breslow partial log-likelihood, score, and information matrix.

    Risk-set sums are cumulative sums along descending time; subjects tied on
    time share the risk set of their last (deepest) index.
    """
    order = np.argsort(-times, kind="stable")
    ts, es, xs = times[order], events[order], x[order]
    lp = xs @ beta
    lp -= lp.max()  # guard against overflow; Breslow terms are scale-free
    w = np.exp(lp)
    cum_s0 = np.cumsum(w)
    cum_s1 = np.cumsum(w[:, None] * xs, axis=0)
    cum_s2 = np.cumsum(w[:, None, None] * (xs[:, :, None] * xs[:, None, :]), axis=0)
    # group_end[i]: last index sharing ts[i] (ties are contiguous when descending)
    group_end = np.searchsorted(-ts, -ts, side="right") - 1
    ev = np.flatnonzero(es == 1)
    if ev.size == 0:
        p = x.shape[1]
        return 0.0, np.zeros(p), np.zeros((p, p))
    ge = group_end[ev]
    s0 = cum_s0[ge]
    s1 = cum_s1[ge]
    s2 = cum_s2[ge]
    xbar = s1 / s0[:, None]
    loglik = float(lp[ev].sum() - np.log(s0).sum())
    score = (xs[ev] - xbar).sum(axis=0)
    info = (s2 / s0[:, None, None] - xbar[:, :, None] * xbar[:, None, :]).sum(axis=0)
    return loglik, score, info


def coxph_fit(times, events, x, names=None) -> CoxFit:
    """Newton-Raphson on the Breslow partial likelihood.

    Convergence is declared at |step|_inf < COX_TOL within COX_MAX_ITER
    steps; monotone-likelihood divergence (exploding coefficients or
    singular information) raises ConvergenceError with a diagnostic.
    """
    times, events = _clean(times, events)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] != times.size:
        x = x.T
    if x.shape[0] != times.size:
        raise DataError("covariate matrix does not align with times")
    p = x.shape[1]
    if names is None:
        names = [f"x{i}" for i in range(p)]
    if int(events.sum()) < p:
        raise DataError(f"{int(events.sum())} events cannot support {p} covariates")
    sd = x.std(axis=0)
    if np.any(sd == 0):
        raise DataError("constant covariate")
    if events.sum() == 0:
        raise UndefinedError("no events")

    beta = np.zeros(p)
    loglik_null, _, _ = _cox_quantities(beta, times, events, x)
    loglik = loglik_null
    n_iter = 0
    for n_iter in range(1, COX_MAX_ITER + 1):
        ll, score, info = _cox_quantities(beta, times, events, x)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular information matrix at iteration {n_iter}") from exc
        # halve the step until the likelihood does not decrease by more
        # than its rounding: a few hundred ulps of |ll|
        slack = 256 * np.spacing(max(1.0, abs(ll)))
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            ll_new, _, _ = _cox_quantities(cand, times, events, x)
            if np.isfinite(ll_new) and ll_new >= ll - slack:
                break
            scale *= 0.5
        else:
            raise ConvergenceError("step halving failed; likelihood may be monotone")
        beta = beta + scale * step
        loglik = ll_new
        if np.abs(beta).max() > 80:
            raise ConvergenceError("coefficients diverging; monotone likelihood suspected")
        if np.abs(scale * step).max() < COX_TOL:
            break
    else:
        raise ConvergenceError(f"no convergence in {COX_MAX_ITER} iterations")

    ll, score, info = _cox_quantities(beta, times, events, x)
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("information matrix not invertible at the optimum") from exc
    se = np.sqrt(np.diag(cov))
    z = beta / se
    wald_p = 2.0 * stats.norm.sf(np.abs(z))

    # Breslow baseline cumulative hazard at x = 0
    event_times, risk_w, d = _risk_table(times, events, weights=np.exp(x @ beta))
    return CoxFit(
        names=list(names),
        beta=beta,
        se=se,
        wald_p=wald_p,
        hr=np.exp(beta),
        loglik=float(ll),
        loglik_null=float(loglik_null),
        baseline_times=event_times,
        baseline_cumhaz=np.cumsum(d / risk_w),
        converged=True,
        n_iter=n_iter,
        score_norm=float(np.abs(score).max()),
        x_mean=x.mean(axis=0),
    )


@dataclass
class UnivariableRow:
    name: str
    beta: float
    hr: float
    se: float
    p: float
    error: str | None = None


def multivariable_pipeline(times, events, variables: dict[str, np.ndarray], promote_p: float = 0.05):
    """Univariable Cox per variable, then a joint fit of those with p < 0.05.

    Returns (univariable rows, joint CoxFit or None). The promotion threshold
    is strict: p exactly equal to the cut is excluded.
    """
    if not variables:
        raise DataError("no variables supplied")
    rows: list[UnivariableRow] = []
    promoted: list[str] = []
    for name, values in variables.items():
        try:
            fit = coxph_fit(times, events, np.asarray(values, dtype=np.float64).reshape(-1, 1), [name])
            rows.append(UnivariableRow(name, float(fit.beta[0]), float(fit.hr[0]), float(fit.se[0]), float(fit.wald_p[0])))
            if fit.wald_p[0] < promote_p:
                promoted.append(name)
        except (ConvergenceError, DataError, UndefinedError) as exc:
            rows.append(UnivariableRow(name, np.nan, np.nan, np.nan, np.nan, error=str(exc)))
    if not promoted:
        return rows, None
    xmat = np.column_stack([np.asarray(variables[n], dtype=np.float64) for n in promoted])
    joint = coxph_fit(times, events, xmat, promoted)
    return rows, joint


# -- time-dependent ROC -------------------------------------------------------------


def _ipcw(times, events, horizon: float):
    """(cases, controls, w_cases, w_control) of ``timeroc_auc`` at ``horizon``."""
    cases = (times <= horizon) & (events == 1)
    controls = times > horizon
    if not cases.any() or not controls.any():
        raise UndefinedError(f"no cases or no controls at horizon {horizon}")
    cens_km = km_fit(times, 1 - events)
    g_cases = cens_km.survival_at(times[cases], left=True)
    g_horizon = float(cens_km.survival_at(horizon))
    if g_horizon <= 0 or np.any(g_cases <= 0):
        raise UndefinedError("censoring survival hits zero before the horizon")
    return cases, controls, 1.0 / np.asarray(g_cases), 1.0 / g_horizon


def _weighted_auc(marker, cases, controls, w_cases, w_control) -> float:
    m_cases = marker[cases]
    m_controls = np.sort(marker[controls])
    n_c = m_controls.size
    below = np.searchsorted(m_controls, m_cases, side="left")
    upto = np.searchsorted(m_controls, m_cases, side="right")
    wins = below + 0.5 * (upto - below)
    num = float(np.sum(w_cases * wins) * w_control)
    den = float(w_cases.sum() * n_c * w_control)
    return num / den


def timeroc_auc(marker, times, events, horizon: float) -> float:
    """Cumulative/dynamic AUC at ``horizon`` with IPCW weights.

    Cases are subjects with an event at or before the horizon, controls those
    still under observation past it; weights come from the Kaplan-Meier
    estimate of the censoring distribution. With no censoring this is exactly
    the Mann-Whitney statistic of cases versus controls.
    """
    marker = np.asarray(marker, dtype=np.float64)
    times, events = _clean(times, events)
    if marker.shape != times.shape:
        raise DataError("marker misaligned with times")
    return _weighted_auc(marker, *_ipcw(times, events, horizon))


# -- RMST -----------------------------------------------------------------------------


@dataclass(frozen=True)
class RmstResult:
    value: float
    var: float
    tau: float
    extrapolated: bool


def rmst(times, events, tau: float) -> RmstResult:
    """Area under the KM curve on [0, tau], with the usual variance estimate.

    Beyond the last observed time the curve is held at its final value and
    the result is flagged as extrapolated.
    """
    if tau <= 0:
        raise DataError("tau must be positive")
    times, events = _clean(times, events)
    km = km_fit(times, events)
    extrapolated = tau > times.max()
    grid = km.times[km.times <= tau]
    surv = km.surv[: grid.size]
    starts = np.concatenate([[0.0], grid])
    survs = np.concatenate([[1.0], surv])
    ends = np.concatenate([grid, [tau]])
    ends = np.minimum(ends, tau)
    area = float(np.sum(survs * np.maximum(ends - starts, 0.0)))

    var = 0.0
    for k, t in enumerate(grid):
        n_k, d_k = km.n_at_risk[k], km.n_events[k]
        if n_k == d_k:
            continue
        tail_starts = np.maximum(starts, t)
        tail = float(np.sum(survs * np.maximum(ends - tail_starts, 0.0)))
        var += tail * tail * d_k / (n_k * (n_k - d_k))
    return RmstResult(value=area, var=var, tau=float(tau), extrapolated=extrapolated)


@dataclass(frozen=True)
class RmstComparison:
    rmst_a: RmstResult
    rmst_b: RmstResult
    diff: float
    lci: float
    uci: float
    p: float


def rmst_compare(times_a, events_a, times_b, events_b, tau: float) -> RmstComparison:
    """Difference in restricted means with a Greenwood-based normal CI."""
    ra = rmst(times_a, events_a, tau)
    rb = rmst(times_b, events_b, tau)
    diff = ra.value - rb.value
    se = float(np.sqrt(ra.var + rb.var))
    if se == 0:
        p = 1.0 if diff == 0 else 0.0
        return RmstComparison(ra, rb, diff, diff, diff, p)
    z = diff / se
    half = 1.959963984540054 * se
    return RmstComparison(ra, rb, diff, diff - half, diff + half, float(2.0 * stats.norm.sf(abs(z))))


# -- bootstrap AUC comparison ----------------------------------------------------------


@dataclass(frozen=True)
class BootstrapAucResult:
    delta: float
    lci: float
    uci: float
    auc_a: float
    auc_b: float
    n_boot: int
    n_redrawn: int


def bootstrap_auc_compare(
    marker_a, marker_b, times, events, horizon: float, n_boot: int = 500, seed: int = 0
) -> BootstrapAucResult:
    """Paired bootstrap of AUC(a) - AUC(b) with a percentile 95% CI.

    Patients are resampled with replacement; degenerate resamples (no cases
    or controls at the horizon) are redrawn and counted. Each draw fits the
    censoring distribution once and scores both markers on its weights.
    Deterministic in ``seed``.
    """
    marker_a = np.asarray(marker_a, dtype=np.float64)
    marker_b = np.asarray(marker_b, dtype=np.float64)
    times, events = _clean(times, events)
    if marker_a.shape != times.shape or marker_b.shape != times.shape:
        raise DataError("markers misaligned with times")
    weights = _ipcw(times, events, horizon)
    auc_a = _weighted_auc(marker_a, *weights)
    auc_b = _weighted_auc(marker_b, *weights)
    rng = substream(seed, "bootstrap")
    n = times.size
    deltas = np.empty(n_boot)
    n_redrawn = 0
    for b in range(n_boot):
        for _ in range(1000):
            idx = rng.integers(0, n, size=n)
            try:
                weights = _ipcw(times[idx], events[idx], horizon)
            except UndefinedError:
                n_redrawn += 1
                continue
            deltas[b] = _weighted_auc(marker_a[idx], *weights) - _weighted_auc(marker_b[idx], *weights)
            break
        else:
            raise DegenerateError("bootstrap kept drawing degenerate resamples")
    lci, uci = np.percentile(deltas, [2.5, 97.5], method="linear")
    return BootstrapAucResult(
        delta=auc_a - auc_b, lci=float(lci), uci=float(uci),
        auc_a=auc_a, auc_b=auc_b, n_boot=n_boot, n_redrawn=n_redrawn,
    )


# -- stratification ---------------------------------------------------------------------


def median_stratify(risks) -> np.ndarray:
    """Labels 'high' for risk strictly above the median, 'low' otherwise."""
    risks = np.asarray(risks, dtype=np.float64)
    if risks.size < 2:
        raise DataError("need at least 2 patients to stratify")
    if np.all(risks == risks[0]):
        raise DegenerateError("all risks identical; median split undefined")
    med = float(np.median(risks))
    return np.where(risks > med, "high", "low")


# -- calibration --------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationPoint:
    mean_predicted: float
    observed: float
    lci: float
    uci: float
    n: int


def calibration_curve(predicted_surv, times, events, horizon: float):
    """Grouped calibration: CALIBRATION_GROUPS quantile bins (deciles) of
    predicted survival vs KM observed.

    Returns (points, n_skipped); groups that are empty or have no usable KM
    estimate at the horizon are skipped and counted.
    """
    pred = np.asarray(predicted_surv, dtype=np.float64)
    times, events = _clean(times, events)
    if pred.shape != times.shape:
        raise DataError("predictions misaligned with times")
    if np.any((pred < 0) | (pred > 1)):
        raise DataError("predicted survival probabilities must lie in [0, 1]")
    bounds = np.unique(np.quantile(pred, np.linspace(0, 1, CALIBRATION_GROUPS + 1), method="linear"))
    if bounds.size == 1:  # constant predictions: one group
        groups = [np.arange(pred.size)]
    else:
        which = np.clip(np.searchsorted(bounds, pred, side="right") - 1, 0, bounds.size - 2)
        groups = [np.flatnonzero(which == g) for g in range(bounds.size - 1)]
    points: list[CalibrationPoint] = []
    skipped = 0
    for idx in groups:
        if idx.size == 0:
            skipped += 1
            continue
        km = km_fit(times[idx], events[idx])
        observed = float(km.survival_at(horizon))
        var = km.var_at(horizon)
        if not np.isfinite(var):
            skipped += 1
            continue
        half = 1.959963984540054 * np.sqrt(var)
        points.append(
            CalibrationPoint(
                mean_predicted=float(pred[idx].mean()),
                observed=observed,
                lci=max(0.0, observed - half),
                uci=min(1.0, observed + half),
                n=int(idx.size),
            )
        )
    return points, skipped


# -- decision curves -------------------------------------------------------------------------


@dataclass(frozen=True)
class DcaPoint:
    threshold: float
    net_benefit: float
    treat_all: float
    treat_none: float


def dca_curve(predicted_event_prob, times, events, horizon: float, thresholds) -> list[DcaPoint]:
    """Net benefit NB(p) = TP/n - FP/n * p/(1-p) with KM-estimated outcomes.

    Predicted-positive means predicted event probability strictly above the
    threshold; thresholds at or above 1 (or at/below 0) are skipped.
    """
    pred = np.asarray(predicted_event_prob, dtype=np.float64)
    times, events = _clean(times, events)
    if pred.shape != times.shape:
        raise DataError("predictions misaligned with times")
    n = times.size
    km_all = km_fit(times, events)
    prevalence = 1.0 - float(km_all.survival_at(horizon))
    out: list[DcaPoint] = []
    for p in np.asarray(thresholds, dtype=np.float64):
        if not (0.0 < p < 1.0):
            continue
        odds = p / (1.0 - p)
        positive = pred > p
        if positive.any():
            km_pos = km_fit(times[positive], events[positive])
            event_frac = 1.0 - float(km_pos.survival_at(horizon))
            frac_pos = positive.mean()
            nb = event_frac * frac_pos - (1.0 - event_frac) * frac_pos * odds
        else:
            nb = 0.0
        treat_all = prevalence - (1.0 - prevalence) * odds
        out.append(DcaPoint(float(p), float(nb), float(treat_all), 0.0))
    return out


# -- nomogram ----------------------------------------------------------------------------------


@dataclass
class NomogramModel:
    """Points-based rendering of a Cox fit.

    Each variable's zero-point is its lowest-risk range end, the largest
    effect spans 0..100 points, and total points map monotonically onto the
    linear predictor, so survival probabilities are exact, not read off a
    chart.
    """

    names: list[str]
    beta: np.ndarray
    ranges: dict[str, tuple[float, float]]
    refs: np.ndarray
    scale: float  # lp units per 100 points
    fit: CoxFit

    def points_for(self, name: str, value: float) -> float:
        i = self.names.index(name)
        lo, hi = self.ranges[name]
        if not (lo <= value <= hi):
            raise RangeError(f"{name}={value} outside declared range [{lo}, {hi}]")
        return 100.0 * self.beta[i] * (value - self.refs[i]) / self.scale

    def survival_at_reference(self, horizon: float) -> float:
        lp_ref = float(self.refs @ self.beta)
        return float(np.exp(-self.fit.cumhaz_at(horizon) * np.exp(lp_ref)))

    def survival_for_points(self, total_points: float, horizon: float) -> float:
        lp_from_ref = self.scale * total_points / 100.0
        return float(self.survival_at_reference(horizon) ** np.exp(lp_from_ref))

    def points_table(self, horizons):
        """Survival at each horizon for total points from 0 to the largest
        reachable total, NOMOGRAM_STEP points apart."""
        max_points = sum(
            max(self.points_for(n, self.ranges[n][0]), self.points_for(n, self.ranges[n][1]))
            for n in self.names
        )
        grid = np.arange(0.0, max_points + NOMOGRAM_STEP / 2, NOMOGRAM_STEP)
        return [
            {"total_points": float(p), **{f"s@{h}": self.survival_for_points(p, h) for h in horizons}}
            for p in grid
        ]


def nomogram_build(fit: CoxFit, ranges: dict[str, tuple[float, float]]) -> NomogramModel:
    """Build the points mapping from a converged Cox fit and variable ranges."""
    if not fit.converged:
        raise DataError("nomogram requires a converged Cox fit")
    missing = [n for n in fit.names if n not in ranges]
    if missing:
        raise DataError(f"ranges missing for {missing}")
    spans = []
    refs = np.empty(len(fit.names))
    for i, name in enumerate(fit.names):
        lo, hi = ranges[name]
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
            raise DataError(f"bad range for {name}: ({lo}, {hi})")
        spans.append(abs(fit.beta[i]) * (hi - lo))
        refs[i] = lo if fit.beta[i] >= 0 else hi  # lowest-risk end scores 0 points
    scale = max(spans)
    if scale <= 0:
        raise DataError("no variable has a nonzero effect over its range")
    return NomogramModel(
        names=list(fit.names), beta=fit.beta.copy(),
        ranges={n: (float(lo), float(hi)) for n, (lo, hi) in ranges.items()},
        refs=refs, scale=float(scale), fit=fit,
    )


def nomogram_score(model: NomogramModel, covariates: dict[str, float], horizons) -> tuple[float, dict[float, float]]:
    """Total points and survival probabilities at the requested horizons."""
    missing = [n for n in model.names if n not in covariates]
    if missing:
        raise DataError(f"covariates missing for {missing}")
    total = sum(model.points_for(n, float(covariates[n])) for n in model.names)
    survs = {float(h): model.survival_for_points(total, float(h)) for h in horizons}
    return float(total), survs

"""The risk-set table, Kaplan-Meier fit and log-rank test that
``survstats._risk_counts`` and ``survstats._product_limit`` replaced, kept
verbatim as their bitwise oracles.

``km_fit`` and ``logrank_test`` must reproduce these arrays, dtypes and
(chi2, p) bit for bit; the Cox oracle in ``test_survstats`` reads its
Breslow baseline from ``risk_table``'s weighted form.
"""

import numpy as np
from scipy import stats

from tdam.errors import DataError, UndefinedError
from tdam.survstats import KmCurve, _clean


def risk_table(times, events, at=None, weights=None):
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
    event_times, at_risk, d = risk_table(times, events)
    surv = np.multiply.accumulate(1.0 - d / at_risk)
    with np.errstate(divide="ignore", invalid="ignore"):  # n == d: green is inf, S is 0
        green = np.add.accumulate(d / (at_risk * (at_risk - d)))
        var = np.where(at_risk > d, surv * surv * green, 0.0)
    return KmCurve(times=event_times, surv=surv, n_at_risk=at_risk, n_events=d, var=var, n=times.size)


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
    tables = [risk_table(t, e, pooled) for t, e in cleaned]
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

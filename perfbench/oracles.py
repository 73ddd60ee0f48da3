"""Reference computations the benchmark checks the program's outputs against.

Each is written directly from the textbook definition, with plain loops over
distinct event times, and shares no code with ``tdam``. A faster algorithm
in the program must still agree with them.
"""

from __future__ import annotations

import numpy as np


def _distinct_event_times(times, events) -> np.ndarray:
    return np.unique(times[events == 1])


def km(times, events):
    """(event times, survival, at risk, events) of the product-limit estimate."""
    ts = _distinct_event_times(times, events)
    surv, at_risk, deaths = [], [], []
    s = 1.0
    for t in ts:
        n = int(np.sum(times >= t))
        d = int(np.sum((times == t) & (events == 1)))
        s *= 1.0 - d / n
        surv.append(s)
        at_risk.append(n)
        deaths.append(d)
    return ts, np.array(surv), np.array(at_risk), np.array(deaths)


def logrank_chi2(groups) -> float:
    """k-group log-rank statistic on the first k-1 O-E differences."""
    k = len(groups)
    pooled = np.unique(np.concatenate([t[e == 1] for t, e in groups]))
    observed = np.zeros(k)
    expected = np.zeros(k)
    cov = np.zeros((k, k))
    for t in pooled:
        n = np.array([np.sum(tt >= t) for tt, _ in groups], dtype=float)
        d = np.array([np.sum((tt == t) & (ee == 1)) for tt, ee in groups], dtype=float)
        n_tot, d_tot = n.sum(), d.sum()
        observed += d
        expected += d_tot * n / n_tot
        if n_tot > 1:
            for a in range(k):
                for b in range(k):
                    frac = n[a] / n_tot * ((1.0 if a == b else 0.0) - n[b] / n_tot)
                    cov[a, b] += d_tot * (n_tot - d_tot) / (n_tot - 1) * frac
    diff = (observed - expected)[: k - 1]
    return float(diff @ np.linalg.solve(cov[: k - 1, : k - 1], diff))


def rmst(times, events, tau: float) -> tuple[float, float]:
    """Area under the KM curve on [0, tau] and its Greenwood-type variance."""
    ts, surv, at_risk, deaths = km(times, events)
    keep = ts <= tau
    ts, surv, at_risk, deaths = ts[keep], surv[keep], at_risk[keep], deaths[keep]
    knots = np.concatenate([[0.0], ts, [tau]])
    levels = np.concatenate([[1.0], surv])

    def area_from(start: float) -> float:
        total = 0.0
        for lo, hi, s in zip(knots[:-1], knots[1:], levels):
            total += s * max(hi - max(lo, start), 0.0)
        return total

    var = 0.0
    for t, n, d in zip(ts, at_risk, deaths):
        if n > d:
            a = area_from(t)
            var += a * a * d / (n * (n - d))
    return area_from(0.0), var


def cox_score_test(times, events, x, beta) -> float:
    """Rao's score statistic U' I^-1 U of the Breslow partial likelihood at ``beta``.

    U is the score and I the observed information. The statistic does not
    change with the units of the covariates or with the cohort size: about
    (distance to the optimum / standard error)^2.
    """
    w = np.exp(x @ beta)
    p = x.shape[1]
    score = np.zeros(p)
    info = np.zeros((p, p))
    for t in _distinct_event_times(times, events):
        risk = times >= t
        dead = (times == t) & (events == 1)
        wr, xr = w[risk], x[risk]
        xbar = (wr @ xr) / wr.sum()
        second = (xr.T * wr) @ xr / wr.sum()
        score += x[dead].sum(axis=0) - dead.sum() * xbar
        info += dead.sum() * (second - np.outer(xbar, xbar))
    return float(score @ np.linalg.solve(info, score))


def enet_kkt(x, y, beta, lam: float, alpha: float) -> float:
    """Largest violation of the elastic-net stationarity conditions.

    ``x`` is standardized to mean 0 and population sd 1, ``y`` is centered;
    the objective is (1/2n)|y - Xb|^2 + lam (alpha |b|_1 + (1-alpha)/2 |b|^2).
    """
    n = x.shape[0]
    grad = -(x.T @ (y - x @ beta)) / n + lam * (1.0 - alpha) * beta
    active = beta != 0.0
    res_active = np.abs(grad + lam * alpha * np.sign(beta))[active]
    res_zero = np.maximum(np.abs(grad) - lam * alpha, 0.0)[~active]
    return float(np.concatenate([res_active, res_zero, [0.0]]).max())


def close(a, b, tol: float = 1e-10) -> bool:
    """Elementwise |a - b| <= tol * max(1, |b|)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))

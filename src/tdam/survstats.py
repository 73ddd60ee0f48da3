"""Classical survival statistics for the prognostic-value pipeline.

Everything is implemented directly on numpy: Kaplan-Meier with Greenwood
variance, the log-rank test, Cox proportional hazards via Newton-Raphson on
the Breslow partial likelihood, IPCW time-dependent ROC AUC, restricted mean
survival time with normal-approximation inference, paired bootstrap AUC
comparison, median risk stratification, calibration tables, decision-curve
net benefit, and a points-based nomogram over a fitted Cox model.

Two kernels carry every Kaplan-Meier number. ``_risk_counts`` counts the
integer risk sets and events of labelled patients at the distinct event
times, for ``km_fit``, ``logrank_test``, ``calibration_curve`` and
``dca_curve``. ``_product_limit`` turns risk sets into S for those and for
the IPCW censoring weights of time-ROC and the bootstrap; ``_greenwood``
adds the variance where it is read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import ConvergenceError, DataError, DegenerateError, RangeError, UndefinedError
from .rng import substream

__all__ = [
    "KmCurve", "km_fit", "logrank_test", "CoxFit", "coxph_fit", "cox_screen",
    "multivariable_pipeline", "timeroc_auc", "rmst", "rmst_compare",
    "bootstrap_auc_compare", "median_stratify", "calibration_curve",
    "dca_curve", "NomogramModel", "nomogram_build", "nomogram_score",
]

COX_MAX_ITER = 50
COX_TOL = 1e-8
COX_BETA_MAX = 80.0  # a coefficient beyond this is a monotone likelihood
# Work arrays of one block of cox_screen's genes, about ten (genes, n) float64
# arrays. At n = 581 a block is 45 genes; larger blocks leave the cache and
# run slower.
COX_SCREEN_BYTES = 1 << 21
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


def _risk_counts(times, events, labels=None, n_labels=1, horizon=np.inf):
    """Integer risk sets of each label's patients at the sample's distinct
    event times up to ``horizon``: (knots, at_risk, d), the last two
    (n_labels, knots). At risk at t means a time of at least t, and events
    tied at t count together. Without ``labels`` every patient has label 0.
    """
    if labels is None:
        labels = np.zeros(times.size, dtype=np.intp)
    hit = (events == 1) & (times <= horizon)
    knots = np.unique(times[hit])
    k = knots.size
    pos = np.searchsorted(knots, times, side="right")  # knots at or before each time
    ends = np.bincount(labels * (k + 1) + pos, minlength=n_labels * (k + 1)).reshape(n_labels, k + 1)
    at_risk = ends.sum(axis=1, keepdims=True) - np.cumsum(ends[:, :-1], axis=1)  # at knot j: pos > j
    d = np.bincount(labels[hit] * k + pos[hit] - 1, minlength=n_labels * k).reshape(n_labels, k)
    return knots, at_risk, d


def _product_limit(at_risk, d):
    """Kaplan-Meier S along the last axis, from before the first knot on: 1.0,
    then the running product of 1 - d/n at each knot.

    A knot with d = 0 gives the factor exactly 1.0, even with nobody at risk,
    so a row's S at any later knot has the bits of its S at its own last
    event.
    """
    surv = np.ones(d.shape[:-1] + (d.shape[-1] + 1,))
    np.multiply.accumulate(1.0 - d / np.maximum(at_risk, 1), axis=-1, out=surv[..., 1:])
    return surv


def _greenwood(at_risk, d, surv):
    """Greenwood variance of each S of ``_product_limit``: 0 before any event
    and once S reaches 0 (a point mass, n == d, after which a row has no
    event). A knot with d = 0 adds a term of exactly 0.0."""
    green = np.zeros_like(surv)
    # nobody at risk gives 0/0, and n == d an infinite sum; neither is kept
    with np.errstate(divide="ignore", invalid="ignore"):
        np.add.accumulate(np.where(d > 0, d / (at_risk * (at_risk - d)), 0.0), axis=-1, out=green[..., 1:])
        return np.where(surv > 0, surv * surv * green, 0.0)


def km_fit(times, events) -> KmCurve:
    """Kaplan-Meier product-limit estimate with Greenwood variance.

    At risk at t means a time of at least t, so a subject censored at t is in
    the risk set of an event at t. Tied events at t form one step of size d/n.
    The Greenwood variance is 0 once S reaches 0 (a point mass).
    """
    times, events = _clean(times, events)
    knots, at_risk, d = _risk_counts(times, events)
    surv = _product_limit(at_risk, d)
    var = _greenwood(at_risk, d, surv)
    return KmCurve(times=knots, surv=surv[0, 1:], n_at_risk=at_risk[0], n_events=d[0], var=var[0, 1:], n=times.size)


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
    labels = np.repeat(np.arange(k), [t.size for t, _ in cleaned])
    _, at_risk, d = _risk_counts(*(np.concatenate(c) for c in zip(*cleaned)), labels, k)
    if d.shape[1] == 0:
        raise UndefinedError("no events in any group")
    # (event times, groups), C-contiguous: the products below keep their bits
    n_g = at_risk.T.astype(np.float64, order="C")
    d_g = d.T.astype(np.float64, order="C")
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
    n_iter: int
    score_norm: float

    def linear_predictor(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.beta

    def cumhaz_at(self, t) -> np.ndarray | float:
        return _step_at(self.baseline_times, self.baseline_cumhaz, 0.0, t)


def _risk_sets(times, events):
    """Sorted risk-set bookkeeping of a Breslow likelihood: (order, ev, ev_end).

    ``order`` sorts by descending time (stable), ``ev`` holds the sorted
    positions of the events and ``ev_end`` each event's last sorted position
    sharing its time (ties are contiguous when descending). Risk-set sums are
    cumulative sums along ``order`` read at ``ev_end``, so subjects tied on
    time share the risk set of their last (deepest) index.
    """
    order = np.argsort(-times, kind="stable")
    ts = times[order]
    ev = np.flatnonzero(events[order] == 1)
    return order, ev, (np.searchsorted(-ts, -ts, side="right") - 1)[ev]


class _CoxRisk:
    """Breslow partial likelihood of one sample, sorted once per fit.

    The order, the event rows and their tie ends (``_risk_sets``) are fixed
    at construction, so each evaluation only reweights the sorted rows.
    """

    def __init__(self, times, events, x):
        order, self.ev, self.ev_end = _risk_sets(times, events)
        self.xs = x[order]
        self.xx = self.xs[:, :, None] * self.xs[:, None, :]
        self.x_ev = self.xs[self.ev]

    def _terms(self, beta):
        lp = self.xs @ beta
        lp -= lp.max()  # guard against overflow; Breslow terms are scale-free
        w = np.exp(lp)
        s0 = np.cumsum(w)[self.ev_end]
        return float(lp[self.ev].sum() - np.log(s0).sum()), w, s0

    def loglik(self, beta) -> float:
        """The partial log-likelihood alone."""
        return self._terms(beta)[0]

    def quantities(self, beta):
        """Partial log-likelihood, score and information matrix."""
        loglik, w, s0 = self._terms(beta)
        s1 = np.cumsum(w[:, None] * self.xs, axis=0)[self.ev_end]
        s2 = np.cumsum(w[:, None, None] * self.xx, axis=0)[self.ev_end]
        xbar = s1 / s0[:, None]
        score = (self.x_ev - xbar).sum(axis=0)
        info = (s2 / s0[:, None, None] - xbar[:, :, None] * xbar[:, None, :]).sum(axis=0)
        return loglik, score, info


def coxph_fit(times, events, x, names=None) -> CoxFit:
    """Newton-Raphson on the Breslow partial likelihood.

    The sample is sorted once (``_CoxRisk``); each Newton point evaluates the
    score and information, while the null fit and the step-halving probes
    evaluate the log-likelihood alone. A step is halved, at most 30 times,
    until the likelihood does not fall by more than its rounding.
    Convergence is declared at |step|_inf < COX_TOL within COX_MAX_ITER
    steps; monotone-likelihood divergence (a coefficient beyond
    COX_BETA_MAX, singular information, or an information that is not
    positive definite at the estimate) raises ConvergenceError with a
    diagnostic. Raises DataError for a covariate matrix with no columns, for
    a non-finite covariate (naming its column), for fewer events than
    covariates and for a constant covariate. ``cox_screen`` fits many
    univariable models at once by the same rules.
    """
    times, events = _clean(times, events)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] != times.size:
        x = x.T
    if x.shape[0] != times.size:
        raise DataError("covariate matrix does not align with times")
    p = x.shape[1]
    if p == 0:
        raise DataError("no covariates")
    if names is None:
        names = [f"x{i}" for i in range(p)]
    finite = np.isfinite(x).all(axis=0)
    if not finite.all():
        raise DataError(f"covariate {names[int(np.argmin(finite))]} has non-finite values")
    if int(events.sum()) < p:
        raise DataError(f"{int(events.sum())} events cannot support {p} covariates")
    sd = x.std(axis=0)
    if np.any(sd == 0):
        raise DataError("constant covariate")

    risk = _CoxRisk(times, events, x)
    beta = np.zeros(p)
    loglik_null = risk.loglik(beta)
    n_iter = 0
    for n_iter in range(1, COX_MAX_ITER + 1):
        ll, score, info = risk.quantities(beta)
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
            with np.errstate(all="ignore"):  # a non-finite probe is halved
                ll_new = risk.loglik(cand)
            if np.isfinite(ll_new) and ll_new >= ll - slack:
                break
            scale *= 0.5
        else:
            raise ConvergenceError("step halving failed; likelihood may be monotone")
        beta = beta + scale * step
        if np.abs(beta).max() > COX_BETA_MAX:
            raise ConvergenceError("coefficients diverging; monotone likelihood suspected")
        if np.abs(scale * step).max() < COX_TOL:
            break
    else:
        raise ConvergenceError(f"no convergence in {COX_MAX_ITER} iterations")

    ll, score, info = risk.quantities(beta)
    try:
        np.linalg.cholesky(info)  # positive definite, so every variance is positive
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("information matrix not positive definite at the estimate; "
                               "monotone likelihood suspected") from exc
    se = np.sqrt(np.diag(cov))
    z = beta / se
    wald_p = 2.0 * stats.norm.sf(np.abs(z))

    # Breslow baseline cumulative hazard at x = 0: each event time's deaths
    # over its risk set's weight, a reverse cumsum in ascending time order
    order = np.argsort(times, kind="stable")
    event_times, d = np.unique(times[events == 1], return_counts=True)
    first = np.searchsorted(times[order], event_times, side="left")
    risk_w = np.cumsum(np.exp(x @ beta)[order][::-1])[::-1][first]
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
        n_iter=n_iter,
        score_norm=float(np.abs(score).max()),
    )


def _screen_quantities(xs, xx, x_ev, beta, ev, ev_end):
    """``_CoxRisk.quantities`` of each row of a sorted (genes, n) block with its
    own coefficient: (log-likelihoods, scores, informations)."""
    lp = beta[:, None] * xs
    lp -= lp.max(axis=1, keepdims=True)  # guard against overflow; Breslow terms are scale-free
    ll = lp[:, ev].sum(axis=1)
    w = np.exp(lp, out=lp)
    s0 = np.cumsum(w, axis=1)[:, ev_end]
    ll -= np.log(s0).sum(axis=1)
    wx = w * xs
    xbar = np.cumsum(wx, axis=1)[:, ev_end]
    xbar /= s0
    s2 = np.cumsum(np.multiply(w, xx, out=wx), axis=1)[:, ev_end]
    s2 /= s0
    s2 -= xbar * xbar
    return ll, (x_ev - xbar).sum(axis=1), s2.sum(axis=1)


def _screen_block(xs, ev, ev_end):
    """(beta, se, wald_p) of each row of a (genes, n) block sorted by
    ``_risk_sets``, NaN where ``coxph_fit`` would raise.

    A step-halving probe evaluates the score and information along with the
    log-likelihood, so the probe a row accepts is its next Newton point."""
    b = xs.shape[0]
    xx, x_ev = xs * xs, xs[:, ev]

    def quantities(rows, beta):
        sel = rows if rows.size < b else slice(None)
        with np.errstate(all="ignore"):  # a non-finite probe is halved
            return _screen_quantities(xs[sel], xx[sel], x_ev[sel], beta, ev, ev_end)

    beta = np.zeros(b)
    ll, score, info = quantities(np.arange(b), beta)
    live = np.arange(b)  # rows still iterating
    done = np.zeros(b, dtype=bool)  # rows that converged
    for _ in range(COX_MAX_ITER):
        if not live.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            step = score[live] / info[live]
        # halve a row's step until its likelihood does not decrease by more
        # than its rounding: a few hundred ulps of |ll|
        floor = ll[live] - 256 * np.spacing(np.maximum(1.0, np.abs(ll[live])))
        scale = np.ones(live.size)
        keep = info[live] != 0.0  # a singular information fails its row
        probe = np.flatnonzero(keep)
        for _ in range(30):
            if not probe.size:
                break
            rows = live[probe]
            q = quantities(rows, beta[rows] + scale[probe] * step[probe])
            ok = np.isfinite(q[0]) & (q[0] >= floor[probe])
            for have, new in zip((ll, score, info), q):
                have[rows[ok]] = new[ok]
            probe = probe[~ok]
            scale[probe] *= 0.5
        keep[probe] = False  # step halving failed
        moved = scale * step
        beta[live] += moved
        keep &= ~(np.abs(beta[live]) > COX_BETA_MAX)
        converged = keep & (np.abs(moved) < COX_TOL)
        done[live[converged]] = True
        live = live[keep & ~converged]

    out = np.full((3, b), np.nan)
    fit = np.flatnonzero(done & (info > 0.0))  # positive definite at the estimate
    se = np.sqrt(1.0 / info[fit])
    out[0, fit], out[1, fit] = beta[fit], se
    out[2, fit] = 2.0 * stats.norm.sf(np.abs(beta[fit] / se))
    return out


def cox_screen(times, events, x):
    """Univariable Breslow Cox fit of every column of ``x`` at once.

    Returns (beta, se, wald_p), one entry per column: what
    ``coxph_fit(times, events, x[:, [j]])`` reports for column j, to
    rounding. All columns share one sort of the sample (``_risk_sets``), and
    one Newton iteration advances every column still iterating, with the
    risk-set sums as row-wise cumulative sums over a (columns, n) block.
    Each column keeps ``coxph_fit``'s rules: the step-halving slack, at most
    30 halvings, the COX_BETA_MAX bound, COX_TOL, COX_MAX_ITER and a positive
    information at the estimate. A column whose own fit would raise
    (non-finite or constant values, no event, a monotone likelihood) gets NaN
    in all three. Columns go in blocks whose work arrays fit
    COX_SCREEN_BYTES. Raises DataError for malformed times or events and for
    an ``x`` without one row per subject.
    """
    times, events = _clean(times, events)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != times.size:
        raise DataError("covariate matrix does not align with times")
    n, m = x.shape
    out = np.full((3, m), np.nan)
    if events.any():
        order, ev, ev_end = _risk_sets(times, events)
        block = max(1, COX_SCREEN_BYTES // (10 * n * x.itemsize))
        for lo in range(0, m, block):
            xs = np.ascontiguousarray(x[order, lo:lo + block].T)
            usable = np.isfinite(xs).all(axis=1)
            usable[usable] = xs[usable].std(axis=1) != 0.0
            cols = np.flatnonzero(usable)
            out[:, lo + cols] = _screen_block(xs[cols], ev, ev_end)
    return out[0], out[1], out[2]


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


# resampled patients per scoring block: draws * n stays near 16k
_BOOT_BLOCK = 1 << 14


def _cum_counts(counts):
    """Cumulative counts along each row, with a leading 0 column."""
    out = np.zeros((counts.shape[0], counts.shape[1] + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=out[:, 1:])
    return out


class _IpcwAuc:
    """Cumulative/dynamic AUC of each of ``markers`` at ``horizon`` with IPCW
    weights, on resamples of one sample.

    Cases have an event at or before the horizon, controls a time past it. A
    case is weighted by 1/G(t-) and every control by 1/G(horizon), where G is
    the Kaplan-Meier estimate of the censoring distribution of the resample.
    ``self(idx)`` scores a (B, n) block of patient indices, one resample per
    row; ``np.arange(n)[None]`` is the sample itself. Risk sets, censoring
    counts and wins are integer counts of each row's resampled patients, so
    every G, weight and sum has the bits of a ``km_fit`` and a sorted-control
    search on that resample alone.
    """

    def __init__(self, markers, times, events, horizon: float):
        if not np.isfinite(markers).all():
            raise DataError("markers must be finite")
        self.n = n = times.size
        self.cases = (times <= horizon) & (events == 1)
        self.controls = times > horizon
        if not self.cases.any() or not self.controls.any():
            raise UndefinedError(f"no cases or no controls at horizon {horizon}")
        case_ids = np.flatnonzero(self.cases)
        self.case_col = np.full(n, -1)
        self.case_col[case_ids] = np.arange(case_ids.size)
        # the censoring KM's factors at the sample's censored times up to the
        # horizon; a time a resample lacks has d = 0, whose factor 1.0 leaves
        # the running product's bits alone
        early = np.flatnonzero(times <= horizon)
        self.early = early[np.argsort(times[early], kind="stable")]
        early_t = times[self.early]
        self.early_censored = events[self.early] == 0
        knots = np.unique(early_t[self.early_censored])
        self.knot_lo = np.searchsorted(early_t, knots, side="left")
        self.knot_hi = np.searchsorted(early_t, knots, side="right")
        self.g_col = np.searchsorted(knots, times[case_ids], side="left")  # G(t-) per case
        # wins from cumulative control counts in marker order: per marker, the
        # controls in that order and each case's columns below and up to it
        ctrl = np.flatnonzero(self.controls)
        self.wins_at = []
        for m in markers:
            order = ctrl[np.argsort(m[ctrl], kind="stable")]
            self.wins_at.append((
                order,
                np.searchsorted(m[order], m[case_ids], side="left"),
                np.searchsorted(m[order], m[case_ids], side="right"),
            ))

    def usable(self, idx) -> bool:
        """Whether resample ``idx`` holds a case and a control."""
        return bool(self.cases[idx].any() and self.controls[idx].any())

    def __call__(self, idx) -> np.ndarray:
        """(B, markers) AUCs of the rows of ``idx``, each of them ``usable``."""
        rows, n = idx.shape[0], self.n
        counts = np.bincount((idx + n * np.arange(rows)[:, None]).ravel(), minlength=rows * n)
        counts = counts.reshape(rows, n)
        early = counts[:, self.early]
        in_time = _cum_counts(early)
        censored = _cum_counts(early * self.early_censored)
        at_risk = n - in_time[:, self.knot_lo]
        d = censored[:, self.knot_hi] - censored[:, self.knot_lo]
        g = _product_limit(at_risk, d)
        # A control is at risk at every censored time up to the horizon and is
        # not censored there, so each factor is positive and G >= n_controls/n:
        # this cannot fire on a usable resample.
        if not (g[:, -1] > 0).all():
            raise UndefinedError("censoring survival hits zero before the horizon")
        w_control = 1.0 / g[:, -1]
        w_cases = 1.0 / g[:, self.g_col]
        # each row's case terms, in resample order
        col = self.case_col[idx]
        is_case = col >= 0
        r, i = np.nonzero(is_case)
        flat = r * w_cases.shape[1] + col[r, i]
        w = w_cases.ravel()[flat]
        terms = [w]
        for order, below_col, upto_col in self.wins_at:
            ctrl = _cum_counts(counts[:, order])
            below, upto = ctrl[:, below_col], ctrl[:, upto_col]
            wins = below + 0.5 * (upto - below)
            terms.append(w * wins.ravel()[flat])
        terms = np.stack(terms)
        # one pairwise sum per row over its own terms: a padded rectangle
        # would regroup the sum and move its bits
        sums = np.empty((rows, terms.shape[0]))
        start = 0
        for b, end in enumerate(np.cumsum(np.count_nonzero(is_case, axis=1))):
            sums[b] = np.sum(terms[:, start:end], axis=1)
            start = end
        n_c = np.count_nonzero(self.controls[idx], axis=1)
        num = sums[:, 1:] * w_control[:, None]
        den = sums[:, :1] * n_c[:, None] * w_control[:, None]
        return num / den


def timeroc_auc(marker, times, events, horizon: float) -> float:
    """Cumulative/dynamic AUC at ``horizon`` with IPCW weights.

    Cases are subjects with an event at or before the horizon, controls those
    still under observation past it; weights come from the Kaplan-Meier
    estimate of the censoring distribution. With no censoring this is exactly
    the Mann-Whitney statistic of cases versus controls. This is the weighted
    AUC that ``bootstrap_auc_compare`` scores its draws with, read on the
    identity resample. Raises ``DataError`` for a non-finite marker and
    ``UndefinedError`` without cases or controls.
    """
    marker = np.asarray(marker, dtype=np.float64)
    times, events = _clean(times, events)
    if marker.shape != times.shape:
        raise DataError("marker misaligned with times")
    auc = _IpcwAuc(marker[None], times, events, horizon)
    return float(auc(np.arange(times.size)[None])[0, 0])


# -- RMST -----------------------------------------------------------------------------


# variance-tail entries per block: rows * (steps + 1) stays near 128k
_RMST_BLOCK = 1 << 17


@dataclass(frozen=True)
class RmstResult:
    value: float
    var: float
    tau: float
    extrapolated: bool


def rmst(times, events, tau: float) -> RmstResult:
    """Area under the KM curve on [0, tau], with the usual variance estimate.

    Beyond the last observed time the curve is held at its final value and
    the result is flagged as extrapolated. The variance sums, over the KM
    steps up to tau, each step's squared tail area (the area from that step
    to tau) times its Greenwood term. Step k's tail is the row sum of the
    area pieces with the entries at or before k set to +0.0; rows are summed
    in blocks of about ``_RMST_BLOCK`` entries. Raises DataError for a tau
    that is not finite and positive.
    """
    if not (np.isfinite(tau) and tau > 0):
        raise DataError("tau must be finite and positive")
    times, events = _clean(times, events)
    km = km_fit(times, events)
    extrapolated = tau > times.max()
    grid = km.times[km.times <= tau]
    surv = km.surv[: grid.size]
    starts = np.concatenate([[0.0], grid])
    survs = np.concatenate([[1.0], surv])
    ends = np.concatenate([grid, [tau]])
    ends = np.minimum(ends, tau)
    pieces = survs * np.maximum(ends - starts, 0.0)
    area = float(np.sum(pieces))

    k, m = grid.size, pieces.size
    tails = np.empty(k)
    rows = max(1, _RMST_BLOCK // m)
    buf = np.empty((min(rows, k), m))
    at_or_before = np.tri(buf.shape[0], dtype=bool)
    for start in range(0, k, rows):
        # row i is step start + i: its entries up to start + i are zeroed
        block = buf[: min(rows, k - start)]
        r = block.shape[0]
        block[:, :start] = 0.0
        block[:, start:] = pieces[start:]
        block[:, start : start + r][at_or_before[:r, :r]] = 0.0
        tails[start : start + r] = block.sum(axis=1)
    n_k, d_k = km.n_at_risk[:k], km.n_events[:k]
    keep = n_k != d_k  # S reaches 0 there: no Greenwood term
    n_k, d_k, tails = n_k[keep], d_k[keep], tails[keep]
    terms = tails * tails * d_k / (n_k * (n_k - d_k))
    var = float(np.cumsum(terms)[-1]) if terms.size else 0.0  # left to right
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

    Patients are resampled with replacement, one ``rng.integers`` draw per
    resample; degenerate resamples (no cases or controls at the horizon) are
    redrawn and counted. Draws are scored in blocks of about
    ``_BOOT_BLOCK // n``, each by the one weighted-AUC kernel that
    ``timeroc_auc`` uses, so both markers share each draw's censoring fit.
    Deterministic in ``seed``. Raises ``DataError`` for ``n_boot < 1`` and for
    non-finite markers.
    """
    if n_boot < 1:
        raise DataError(f"n_boot must be at least 1, got {n_boot}")
    marker_a = np.asarray(marker_a, dtype=np.float64)
    marker_b = np.asarray(marker_b, dtype=np.float64)
    times, events = _clean(times, events)
    if marker_a.shape != times.shape or marker_b.shape != times.shape:
        raise DataError("markers misaligned with times")
    auc = _IpcwAuc(np.stack([marker_a, marker_b]), times, events, horizon)
    n = times.size
    auc_a, auc_b = (float(v) for v in auc(np.arange(n)[None])[0])
    rng = substream(seed, "bootstrap")
    rows = max(1, _BOOT_BLOCK // n)
    deltas = np.empty(n_boot)
    n_redrawn = 0
    for start in range(0, n_boot, rows):
        block = np.empty((min(rows, n_boot - start), n), dtype=np.int64)
        for b in range(block.shape[0]):
            for _ in range(1000):
                block[b] = rng.integers(0, n, size=n)
                if auc.usable(block[b]):
                    break
                n_redrawn += 1
            else:
                raise DegenerateError("bootstrap kept drawing degenerate resamples")
        scores = auc(block)
        deltas[start : start + block.shape[0]] = scores[:, 0] - scores[:, 1]
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

    Every group's KM survival and Greenwood variance at the horizon come from
    one table of integer risk sets (``_risk_counts``), with the bits of a
    ``km_fit`` on that group alone. Returns (points, n_skipped); empty groups
    are skipped and counted. Raises DataError for non-finite predictions or
    horizon and for predictions outside [0, 1].
    """
    pred = np.asarray(predicted_surv, dtype=np.float64)
    times, events = _clean(times, events)
    if pred.shape != times.shape:
        raise DataError("predictions misaligned with times")
    if not np.isfinite(pred).all() or not np.isfinite(horizon):
        raise DataError("predictions and horizon must be finite")
    if np.any((pred < 0) | (pred > 1)):
        raise DataError("predicted survival probabilities must lie in [0, 1]")
    bounds = np.unique(np.quantile(pred, np.linspace(0, 1, CALIBRATION_GROUPS + 1), method="linear"))
    n_groups = max(1, bounds.size - 1)  # constant predictions: one group
    which = np.clip(np.searchsorted(bounds, pred, side="right") - 1, 0, n_groups - 1)
    _, at_risk, d = _risk_counts(times, events, which, n_groups, horizon)
    surv = _product_limit(at_risk, d)
    var = _greenwood(at_risk, d, surv)
    points: list[CalibrationPoint] = []
    skipped = 0
    for g in range(n_groups):
        idx = np.flatnonzero(which == g)
        if idx.size == 0:
            skipped += 1
            continue
        observed = float(surv[g, -1])  # S at the last event up to the horizon
        half = 1.959963984540054 * np.sqrt(float(var[g, -1]))
        points.append(
            CalibrationPoint(
                mean_predicted=float(pred[idx].mean()),
                observed=observed,
                lci=float(max(0.0, observed - half)),
                uci=float(min(1.0, observed + half)),
                n=int(idx.size),
            )
        )
    return points, skipped


@dataclass(frozen=True)
class DcaPoint:
    threshold: float
    net_benefit: float
    treat_all: float
    treat_none: float


def dca_curve(predicted_event_prob, times, events, horizon: float, thresholds) -> list[DcaPoint]:
    """Net benefit NB(p) = TP/n - FP/n * p/(1-p) with KM-estimated outcomes.

    Predicted-positive means predicted event probability strictly above the
    threshold; thresholds at or above 1 (or at/below 0) are skipped, and the
    rest are reported in the order given. The positive sets are nested, so
    patients are labelled by how many distinct thresholds they exceed and
    each threshold's risk sets are suffix sums over those labels; every KM
    read has the bits of a ``km_fit`` on that threshold's positives alone.
    Raises DataError for non-finite predictions, thresholds or horizon.
    """
    pred = np.asarray(predicted_event_prob, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    times, events = _clean(times, events)
    if pred.shape != times.shape:
        raise DataError("predictions misaligned with times")
    if not (np.isfinite(pred).all() and np.isfinite(thresholds).all() and np.isfinite(horizon)):
        raise DataError("predictions, thresholds and horizon must be finite")
    n = times.size
    cuts = np.unique(thresholds[(thresholds > 0.0) & (thresholds < 1.0)])
    level = np.searchsorted(cuts, pred, side="left")  # cuts strictly below each prediction
    _, at_risk, d = _risk_counts(times, events, level, cuts.size + 1, horizon)
    # row r: the patients above r cuts or more; row 0 is the whole sample
    surv = _product_limit(np.cumsum(at_risk[::-1], axis=0)[::-1], np.cumsum(d[::-1], axis=0)[::-1])[:, -1]
    n_above = np.cumsum(np.bincount(level, minlength=cuts.size + 1)[::-1])[::-1]
    prevalence = 1.0 - float(surv[0])
    out: list[DcaPoint] = []
    for p in thresholds:
        if not (0.0 < p < 1.0):
            continue
        odds = p / (1.0 - p)
        row = np.searchsorted(cuts, p) + 1
        if n_above[row]:
            event_frac = 1.0 - float(surv[row])
            frac_pos = n_above[row] / n
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
    """Build the points mapping from a Cox fit and variable ranges."""
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

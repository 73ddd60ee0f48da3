import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from stats_oracles import km_fit as km_fit_oracle, logrank_test as logrank_test_oracle, risk_table
from tdam import survstats as ss
from tdam.rng import substream
from tdam.errors import ConvergenceError, DataError, DegenerateError, RangeError, UndefinedError
from tdam.survival import concordance_index

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# -- Kaplan-Meier -----------------------------------------------------------------


def test_km_no_events_is_flat_one():
    km = ss.km_fit([3.0, 5.0, 9.0], [0, 0, 0])
    assert km.times.size == 0
    assert km.survival_at(100.0) == 1.0


def test_km_all_events():
    km = ss.km_fit([1.0, 2.0, 3.0], [1, 1, 1])
    np.testing.assert_allclose(km.surv, [2 / 3, 1 / 3, 0.0])


def test_km_censoring_removes_from_risk_set():
    km = ss.km_fit([1.0, 2.0, 3.0], [1, 0, 1])
    assert km.survival_at(1.0) == pytest.approx(2 / 3)
    assert km.survival_at(3.0) == pytest.approx(0.0)


def test_km_equals_empirical_without_censoring():
    rng = np.random.default_rng(0)
    times = rng.exponential(5, 40) + 0.01
    km = ss.km_fit(times, np.ones(40))
    for t in (1.0, 3.0, 8.0):
        assert km.survival_at(t) == pytest.approx((times > t).mean())


def test_km_monotone_and_greenwood_nonnegative():
    rng = np.random.default_rng(1)
    times = rng.exponential(5, 60) + 0.01
    events = rng.integers(0, 2, 60)
    events[0] = 1
    km = ss.km_fit(times, events)
    assert (np.diff(km.surv) <= 1e-15).all()
    assert (km.var >= 0).all()


# -- log-rank ----------------------------------------------------------------------


def test_logrank_identical_groups():
    times = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    events = np.array([1, 0, 1, 1, 0])
    chi2, p = ss.logrank_test([(times, events), (times, events)])
    assert chi2 == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_logrank_hand_computed_six_patients():
    # A: events at 1, 3, 5; B: events at 2, 4, 6. Hand O-E table gives
    # O_A - E_A = 23/30 and V = 1091/900, so chi2 = 529/1091.
    chi2, p = ss.logrank_test(
        [(np.array([1.0, 3.0, 5.0]), np.ones(3)), (np.array([2.0, 4.0, 6.0]), np.ones(3))]
    )
    assert chi2 == pytest.approx(529 / 1091, abs=1e-10)
    assert 0 < p < 1


def test_logrank_two_groups_equals_squared_standardized_oe():
    rng = np.random.default_rng(2)
    ta = rng.exponential(5, 30) + 0.01
    tb = rng.exponential(9, 25) + 0.01
    ea = rng.integers(0, 2, 30)
    eb = rng.integers(0, 2, 25)
    ea[:5] = 1
    eb[:5] = 1
    chi2, _ = ss.logrank_test([(ta, ea), (tb, eb)])
    # scalar recomputation: chi2 = (O1-E1)^2 / V11
    pooled = np.unique(np.concatenate([ta[ea == 1], tb[eb == 1]]))
    o = e = v = 0.0
    for t in pooled:
        n1, n2 = np.sum(ta >= t), np.sum(tb >= t)
        d1 = np.sum((ta == t) & (ea == 1))
        d2 = np.sum((tb == t) & (eb == 1))
        n, d = n1 + n2, d1 + d2
        o += d1
        e += d * n1 / n
        if n > 1:
            v += d * (n - d) / (n - 1) * (n1 / n) * (1 - n1 / n)
    assert chi2 == pytest.approx((o - e) ** 2 / v, rel=1e-12)


def test_logrank_separated_groups_significant():
    ta = np.linspace(1, 2, 10)
    tb = np.linspace(10, 20, 10)
    chi2, p = ss.logrank_test([(ta, np.ones(10)), (tb, np.ones(10))])
    assert p < 0.05


def test_logrank_no_events_undefined():
    with pytest.raises(UndefinedError):
        ss.logrank_test([(np.array([1.0, 2.0]), np.zeros(2)), (np.array([3.0]), np.zeros(1))])


# -- Cox ---------------------------------------------------------------------------


def brute_breslow_loglik(beta, times, events, x):
    """Independent O(n^2) Breslow partial log-likelihood."""
    lp = x @ np.atleast_1d(beta)
    total = 0.0
    for i in range(len(times)):
        if events[i] == 1:
            denom = np.sum(np.exp(lp[times >= times[i]]))
            total += lp[i] - np.log(denom)
    return total


def simulate_cox(n, beta, seed, censor_scale=None):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n).astype(float)
    rate = 0.1 * np.exp(beta * x)
    t_event = rng.exponential(1.0 / rate)
    if censor_scale:
        c = rng.exponential(censor_scale, n)
        times = np.minimum(t_event, c) + 1e-9
        events = (t_event <= c).astype(int)
    else:
        times, events = t_event + 1e-9, np.ones(n, dtype=int)
    return times, events, x.reshape(-1, 1)


def test_cox_null_covariate():
    times, events, x = simulate_cox(300, 0.0, seed=3, censor_scale=15)
    fit = ss.coxph_fit(times, events, x)
    assert abs(fit.beta[0]) < 3 * fit.se[0]
    assert fit.wald_p[0] > 0.001


def test_cox_matches_grid_search_oracle():
    times, events, x = simulate_cox(500, np.log(2), seed=4, censor_scale=20)
    fit = ss.coxph_fit(times, events, x)
    res = optimize.minimize_scalar(
        lambda b: -brute_breslow_loglik(b, times, events, x),
        bounds=(-2.0, 3.0), method="bounded",
        options={"xatol": 1e-10},
    )
    assert abs(fit.beta[0] - res.x) < 1e-3
    assert fit.score_norm < 1e-6
    assert fit.loglik == pytest.approx(brute_breslow_loglik(fit.beta[0], times, events, x), rel=1e-9)


def test_cox_loglik_at_mle_beats_null():
    times, events, x = simulate_cox(200, 0.7, seed=5, censor_scale=25)
    fit = ss.coxph_fit(times, events, x)
    assert fit.loglik >= fit.loglik_null


def test_cox_rescaling_invariance():
    times, events, x = simulate_cox(200, 0.6, seed=6, censor_scale=25)
    fit1 = ss.coxph_fit(times, events, x)
    fit2 = ss.coxph_fit(times, events, 2.0 * x)
    np.testing.assert_allclose(2.0 * fit2.beta, fit1.beta, rtol=1e-6)
    c1 = concordance_index(fit1.linear_predictor(x), times, events)
    c2 = concordance_index(fit2.linear_predictor(2.0 * x), times, events)
    assert c1 == pytest.approx(c2, abs=1e-12)


def test_cox_constant_covariate_rejected():
    with pytest.raises(DataError):
        ss.coxph_fit([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], np.ones((4, 1)))


def test_cox_monotone_likelihood_detected():
    # perfectly separating covariate: partial likelihood is monotone in beta
    times = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    events = np.ones(8, dtype=int)
    x = np.array([1.0, 1, 1, 1, 0, 0, 0, 0]).reshape(-1, 1)
    with pytest.raises(ConvergenceError):
        ss.coxph_fit(times, events, x)


def test_cox_rejects_an_estimate_whose_information_is_not_positive_definite():
    # draw 13 of the tied-draw bitwise test: the event at t = 10 has the lower
    # covariate of its risk set, so beta runs to -inf until the score and
    # information underflow; the information at the stopping point is -1.9e-16
    times = np.array([9.0, 3.0, 10.0, 11.0])
    events = np.array([0, 0, 1, 1])
    x = np.array([-0.9395694039459643, -1.0848524700752238, -0.3429896788682596, 1.1268972966323387])
    with pytest.raises(ConvergenceError, match="not positive definite"):
        ss.coxph_fit(times, events, x.reshape(-1, 1))
    with pytest.raises(ConvergenceError, match="not positive definite"):
        coxph_fit_oracle(times, events, x.reshape(-1, 1))


def test_cox_baseline_cumhaz_monotone():
    times, events, x = simulate_cox(120, 0.5, seed=7, censor_scale=30)
    fit = ss.coxph_fit(times, events, x)
    assert (np.diff(fit.baseline_cumhaz) > 0).all()
    assert fit.cumhaz_at(0.0) == 0.0


def stats_cohort(seed, n):
    """The benchmark's 10k-patient tied cohort: risk, age and stage covariates,
    exponential times rounded to whole days, 25% censored."""
    rng = substream(seed, "perfbench-stats")
    risk = rng.standard_normal(n)
    age = rng.normal(62.0, 9.0, n)
    stage = rng.integers(1, 5, n).astype(np.float64)
    hazard = np.exp(0.8 * risk + 0.03 * (age - 62.0) + 0.25 * (stage - 2.5)) / 2200.0
    rate_c = optimize.brentq(lambda c: np.mean(c / (c + hazard)) - 0.25, 1e-12, 1e3)
    t_event = rng.exponential(1.0 / hazard)
    t_cens = rng.exponential(1.0 / rate_c, n)
    times = np.maximum(1.0, np.round(np.minimum(t_event, t_cens)))
    events = (t_event <= t_cens).astype(np.int64)
    return np.column_stack([risk, age, stage]), times, events


def test_cox_accepts_a_last_step_that_loses_only_rounding(monkeypatch):
    # At |ll| ~ 6e4 the converged step's log-likelihood reads 1.5e-11 lower:
    # one rounding, which must not trigger a step halving (one extra probe).
    x, times, events = stats_cohort(1, 10_000)
    calls = {"quantities": 0, "loglik": 0}
    for name in calls:
        method = getattr(ss._CoxRisk, name)

        def counted(self, beta, name=name, method=method):
            calls[name] += 1
            return method(self, beta)

        monkeypatch.setattr(ss._CoxRisk, name, counted)
    fit = ss.coxph_fit(times, events, x)
    # one full evaluation per Newton point and one at the estimate; the null
    # fit and one candidate per iteration read the likelihood alone
    assert calls == {"quantities": fit.n_iter + 1, "loglik": 1 + fit.n_iter}
    _, score, info = cox_quantities_oracle(fit.beta, times, events, x)
    assert score @ np.linalg.solve(info, score) < 1e-8  # Rao's statistic at the estimate


def test_cox_rejects_non_finite_covariates_by_name():
    x, times, events = stats_cohort(2, 300)
    x[17, 1] = np.nan
    with pytest.raises(DataError, match="covariate age"):
        ss.coxph_fit(times, events, x, ["risk", "age", "stage"])
    x[17, 1] = 60.0
    x[3, 2] = np.inf
    with pytest.raises(DataError, match="covariate x2"):
        ss.coxph_fit(times, events, x)


def test_cox_rejects_a_covariate_matrix_without_columns():
    _, times, events = stats_cohort(2, 50)
    with pytest.raises(DataError, match="no covariates"):
        ss.coxph_fit(times, events, np.empty((50, 0)))


# -- risk-set counting against per-event-time loop references ------------------------


def km_loop(times, events):
    """Reference Kaplan-Meier: rescans every subject at each distinct event time."""
    times, events = np.asarray(times, dtype=np.float64), np.asarray(events, dtype=np.int64)
    event_times = np.unique(times[events == 1])
    surv = np.empty(event_times.size)
    at_risk = np.empty(event_times.size, dtype=np.int64)
    d = np.empty(event_times.size, dtype=np.int64)
    s = 1.0
    green = 0.0
    var = np.empty(event_times.size)
    for k, t in enumerate(event_times):
        n_k = int(np.sum(times >= t))
        d_k = int(np.sum((times == t) & (events == 1)))
        at_risk[k] = n_k
        d[k] = d_k
        s *= 1.0 - d_k / n_k
        if n_k > d_k:
            green += d_k / (n_k * (n_k - d_k))
            var[k] = s * s * green
        else:
            green = np.inf
            var[k] = 0.0
        surv[k] = s
    return {"times": event_times, "surv": surv, "n_at_risk": at_risk, "n_events": d, "var": var}


def logrank_loop(groups):
    """Reference log-rank chi2: one O-E and covariance update per pooled event time."""
    k = len(groups)
    pooled = np.unique(np.concatenate([t[e == 1] for t, e in groups]))
    if pooled.size == 0:
        raise UndefinedError("no events in any group")
    observed = np.zeros(k)
    expected = np.zeros(k)
    cov = np.zeros((k, k))
    for t in pooled:
        n_g = np.array([np.sum(tt >= t) for tt, _ in groups], dtype=np.float64)
        d_g = np.array([np.sum((tt == t) & (ee == 1)) for tt, ee in groups], dtype=np.float64)
        n_tot = n_g.sum()
        d_tot = d_g.sum()
        observed += d_g
        expected += d_tot * n_g / n_tot
        if n_tot > 1:
            frac = n_g / n_tot
            scale = d_tot * (n_tot - d_tot) / (n_tot - 1)
            cov += scale * (np.diag(frac) - np.outer(frac, frac))
    diff = (observed - expected)[: k - 1]
    v = cov[: k - 1, : k - 1]
    if not np.any(np.abs(v) > 0):
        raise UndefinedError("log-rank variance is zero")
    try:
        return float(diff @ np.linalg.solve(v, diff))
    except np.linalg.LinAlgError:
        return float(diff @ np.linalg.pinv(v) @ diff)


def breslow_loop(times, events, x, beta):
    """Reference Breslow cumulative hazard: one weighted risk-set sum per event time."""
    w = np.exp(x @ beta)
    event_times = np.unique(times[events == 1])
    jumps = np.empty(event_times.size)
    for k, t in enumerate(event_times):
        jumps[k] = np.sum((times == t) & (events == 1)) / np.sum(w[times >= t])
    return event_times, np.cumsum(jumps)


def test_risk_set_statistics_match_loop_references_on_tied_draws():
    rng = np.random.default_rng(2026)
    cox_checked = 0
    for _ in range(300):
        n = int(rng.integers(3, 61))
        times = rng.integers(1, 12, n).astype(float)
        events = rng.integers(0, 2, n)

        km = ss.km_fit(times, events)
        for name, want in km_loop(times, events).items():
            got = getattr(km, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

        k = min(int(rng.integers(2, 5)), n)
        labels = rng.permutation(np.arange(n) % k)
        groups = [(times[labels == g], events[labels == g]) for g in range(k)]
        try:
            want_chi2 = logrank_loop(groups)
        except UndefinedError:
            with pytest.raises(UndefinedError):
                ss.logrank_test(groups)
        else:
            assert ss.logrank_test(groups)[0] == pytest.approx(want_chi2, rel=1e-10)

        x = rng.standard_normal((n, 1))
        try:
            fit = ss.coxph_fit(times, events, x)
        except (ConvergenceError, DataError, UndefinedError):
            continue
        want_times, want_cumhaz = breslow_loop(times, events, x, fit.beta)
        assert np.array_equal(fit.baseline_times, want_times)
        np.testing.assert_allclose(fit.baseline_cumhaz, want_cumhaz, rtol=1e-10, atol=0)
        cox_checked += 1
    assert cox_checked > 200


# -- univariable -> multivariable pipeline ----------------------------------------------


def test_pipeline_promotes_only_strong_variable():
    rng = np.random.default_rng(30)
    n = 400
    strong = rng.integers(0, 2, n).astype(float)
    noise = rng.standard_normal(n)
    rate = 0.1 * np.exp(1.0 * strong)
    times = rng.exponential(1.0 / rate) + 1e-9
    events = np.ones(n, dtype=int)
    rows, joint = ss.multivariable_pipeline(times, events, {"strong": strong, "noise": noise})
    by_name = {r.name: r for r in rows}
    assert by_name["strong"].p < 0.05 < by_name["noise"].p
    assert joint is not None and joint.names == ["strong"]


def test_pipeline_all_noise_gives_no_joint_fit():
    rng = np.random.default_rng(9)
    n = 300
    times = rng.exponential(10, n) + 1e-9
    events = np.ones(n, dtype=int)
    rows, joint = ss.multivariable_pipeline(
        times, events, {"a": rng.standard_normal(n), "b": rng.standard_normal(n)}
    )
    assert joint is None
    assert len(rows) == 2


def test_pipeline_threshold_is_strict():
    rng = np.random.default_rng(10)
    n = 200
    x = rng.integers(0, 2, n).astype(float)
    rate = 0.1 * np.exp(0.8 * x)
    times = rng.exponential(1.0 / rate) + 1e-9
    events = np.ones(n, dtype=int)
    rows, _ = ss.multivariable_pipeline(times, events, {"x": x})
    realized_p = rows[0].p
    _, joint = ss.multivariable_pipeline(times, events, {"x": x}, promote_p=realized_p)
    assert joint is None  # p == threshold is excluded


# -- time-dependent ROC --------------------------------------------------------------------


def mann_whitney(cases, controls):
    wins = 0.0
    for a in cases:
        for b in controls:
            wins += 1.0 if a > b else (0.5 if a == b else 0.0)
    return wins / (len(cases) * len(controls))


def test_timeroc_equals_mann_whitney_without_censoring():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(8, 40))
        times = rng.exponential(5, n) + 0.01
        marker = np.round(rng.standard_normal(n), 1)
        horizon = float(np.quantile(times, 0.5))
        cases = marker[times <= horizon]
        controls = marker[times > horizon]
        if cases.size == 0 or controls.size == 0:
            continue
        got = ss.timeroc_auc(marker, times, np.ones(n, dtype=int), horizon)
        assert got == pytest.approx(mann_whitney(cases, controls), abs=1e-12)


def test_timeroc_perfect_marker():
    times = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    marker = np.array([6.0, 5.0, 4.0, 1.0, 2.0, 3.0])
    assert ss.timeroc_auc(marker, times, np.ones(6, dtype=int), 5.0) == 1.0


def test_timeroc_null_marker_near_half():
    rng = np.random.default_rng(12)
    n = 2000
    times = rng.exponential(10, n) + 0.01
    events = (rng.random(n) < 0.8).astype(int)
    marker = rng.standard_normal(n)
    auc = ss.timeroc_auc(marker, times, events, float(np.quantile(times, 0.4)))
    assert abs(auc - 0.5) < 0.03


def test_timeroc_needs_cases_and_controls():
    with pytest.raises(UndefinedError):
        ss.timeroc_auc([1.0, 2.0], [5.0, 6.0], [1, 1], 1.0)  # no cases


# -- RMST --------------------------------------------------------------------------------


def test_rmst_no_events():
    out = ss.rmst([20.0, 30.0, 40.0], [0, 0, 0], tau=12.0)
    assert out.value == pytest.approx(12.0)
    assert not out.extrapolated


def test_rmst_half_drop():
    # S=1 until t=5 where it drops to 0.5; area to tau=10 is 5 + 0.5*5
    out = ss.rmst([5.0, 5.0], [1, 0], tau=10.0)
    assert out.value == pytest.approx(7.5)
    assert out.extrapolated  # tau beyond the last observed time


def rmst_step_oracle(times, events, tau):
    """Independent step-sum: survival recomputed by explicit products."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    grid = np.unique(times[events == 1])
    area = 0.0
    prev_t, s = 0.0, 1.0
    for t in grid:
        if t > tau:
            break
        area += s * (t - prev_t)
        n_k = np.sum(times >= t)
        d_k = np.sum((times == t) & (events == 1))
        s *= 1 - d_k / n_k
        prev_t = t
    area += s * max(tau - prev_t, 0.0)
    return area


def test_rmst_matches_step_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        times = np.round(rng.exponential(5, n), 1) + 0.1
        events = rng.integers(0, 2, n)
        tau = float(rng.uniform(1, 15))
        got = ss.rmst(times, events, tau)
        assert got.value == pytest.approx(rmst_step_oracle(times, events, tau), abs=1e-12)
        assert got.value <= tau + 1e-12


def test_rmst_equals_tau_iff_no_events_before_tau():
    out = ss.rmst([5.0, 8.0], [1, 1], tau=4.0)
    assert out.value == pytest.approx(4.0)
    out2 = ss.rmst([3.0, 8.0], [1, 1], tau=4.0)
    assert out2.value < 4.0


def test_rmst_compare_separated_groups():
    rng = np.random.default_rng(14)
    ta = rng.exponential(20, 150) + 0.01
    tb = rng.exponential(5, 150) + 0.01
    cmp = ss.rmst_compare(ta, np.ones(150, int), tb, np.ones(150, int), tau=15.0)
    assert cmp.diff > 0
    assert cmp.lci > 0  # CI excludes 0
    assert cmp.p < 0.01


# -- bootstrap ----------------------------------------------------------------------------


def bootstrap_setup(seed=15, n=120):
    rng = np.random.default_rng(seed)
    risk = rng.standard_normal(n)
    rate = 0.08 * np.exp(0.9 * risk)
    times = rng.exponential(1.0 / rate) + 0.01
    events = (rng.random(n) < 0.85).astype(int)
    return risk, times, events


def test_bootstrap_identical_markers_ci_contains_zero():
    risk, times, events = bootstrap_setup()
    out = ss.bootstrap_auc_compare(risk, risk, times, events, horizon=8.0, n_boot=100, seed=3)
    assert out.lci <= 0.0 <= out.uci
    assert out.delta == 0.0


def test_bootstrap_deterministic_in_seed():
    risk, times, events = bootstrap_setup()
    other = risk + 0.3 * np.random.default_rng(16).standard_normal(risk.size)
    a = ss.bootstrap_auc_compare(risk, other, times, events, 8.0, n_boot=60, seed=9)
    b = ss.bootstrap_auc_compare(risk, other, times, events, 8.0, n_boot=60, seed=9)
    assert (a.lci, a.uci, a.delta) == (b.lci, b.uci, b.delta)
    c = ss.bootstrap_auc_compare(risk, other, times, events, 8.0, n_boot=60, seed=10)
    assert (a.lci, a.uci) != (c.lci, c.uci)


def test_bootstrap_planted_difference_excludes_zero():
    rng = np.random.default_rng(17)
    n = 400
    risk = rng.standard_normal(n)
    rate = 0.08 * np.exp(1.2 * risk)
    times = rng.exponential(1.0 / rate) + 0.01
    events = np.ones(n, dtype=int)
    noise_marker = rng.standard_normal(n)
    out = ss.bootstrap_auc_compare(risk, noise_marker, times, events, 8.0, n_boot=200, seed=4)
    assert out.lci > 0.0


# bootstrap_auc_compare as it was before its two markers shared one censoring
# fit per draw, kept verbatim (the imports stand in for module globals) as the
# reference whose results must not move.
def _bootstrap_auc_compare_oracle(
    marker_a, marker_b, times, events, horizon: float, n_boot: int = 500, seed: int = 0
):
    from tdam.survstats import BootstrapAucResult, _clean, timeroc_auc

    marker_a = np.asarray(marker_a, dtype=np.float64)
    marker_b = np.asarray(marker_b, dtype=np.float64)
    times, events = _clean(times, events)
    if marker_a.shape != times.shape or marker_b.shape != times.shape:
        raise DataError("markers misaligned with times")
    auc_a = timeroc_auc(marker_a, times, events, horizon)
    auc_b = timeroc_auc(marker_b, times, events, horizon)
    rng = substream(seed, "bootstrap")
    n = times.size
    deltas = np.empty(n_boot)
    n_redrawn = 0
    for b in range(n_boot):
        for _ in range(1000):
            idx = rng.integers(0, n, size=n)
            try:
                da = timeroc_auc(marker_a[idx], times[idx], events[idx], horizon)
                db = timeroc_auc(marker_b[idx], times[idx], events[idx], horizon)
            except UndefinedError:
                n_redrawn += 1
                continue
            deltas[b] = da - db
            break
        else:
            raise DegenerateError("bootstrap kept drawing degenerate resamples")
    lci, uci = np.percentile(deltas, [2.5, 97.5], method="linear")
    return BootstrapAucResult(
        delta=auc_a - auc_b, lci=float(lci), uci=float(uci),
        auc_a=auc_a, auc_b=auc_b, n_boot=n_boot, n_redrawn=n_redrawn,
    )


# _ipcw, _weighted_auc and bootstrap_auc_compare as they were while each
# draw ran its own censoring fit, kept verbatim (the imports stand in for
# module globals): the per-draw reference that the blocked kernel must match
# bit for bit.
def _ipcw(times, events, horizon: float):
    """(cases, controls, w_cases, w_control) of ``timeroc_auc`` at ``horizon``."""
    from tdam.survstats import km_fit

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


def _bootstrap_auc_compare_per_draw(
    marker_a, marker_b, times, events, horizon: float, n_boot: int = 500, seed: int = 0
):
    from tdam.survstats import BootstrapAucResult, _clean

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


# (n, horizon): no redraws; a few; most draws redrawn
BOOT_CASES = [(120, 8.0), (20, 1.0), (15, 1.5)]


def paired_markers(n, tied=False):
    """Bootstrap inputs with a second marker; ``tied`` rounds times up to
    whole days and markers to one decimal, so both carry ties."""
    risk, times, events = bootstrap_setup(n=n)
    other = risk + 0.3 * np.random.default_rng(16).standard_normal(n)
    if tied:
        return np.round(risk, 1), np.round(other, 1), np.ceil(times), events
    return risk, other, times, events


def assert_kernel_matches_per_draw(risk, other, times, events, horizon, n_boot, seeds):
    for marker in (risk, other):
        want = _weighted_auc(marker, *_ipcw(times, events, horizon))
        assert ss.timeroc_auc(marker, times, events, horizon) == want
    for seed in seeds:
        want = _bootstrap_auc_compare_per_draw(risk, other, times, events, horizon, n_boot=n_boot, seed=seed)
        assert ss.bootstrap_auc_compare(risk, other, times, events, horizon, n_boot=n_boot, seed=seed) == want


@pytest.mark.parametrize("n, horizon", BOOT_CASES)
def test_bootstrap_equals_the_two_timeroc_oracle(n, horizon):
    risk, other, times, events = paired_markers(n)
    for seed in (0, 9):
        want = _bootstrap_auc_compare_oracle(risk, other, times, events, horizon, n_boot=100, seed=seed)
        assert ss.bootstrap_auc_compare(risk, other, times, events, horizon, n_boot=100, seed=seed) == want


@pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
@pytest.mark.parametrize("n, horizon", BOOT_CASES)
def test_blocked_auc_kernel_equals_the_per_draw_oracle(n, horizon, tied):
    assert_kernel_matches_per_draw(*paired_markers(n, tied), horizon, n_boot=100, seeds=(0, 9))


BLOCK_ROWS = ss._BOOT_BLOCK // 120  # draws per scoring block at n = 120


@pytest.mark.parametrize("n_boot", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1],
                         ids=["1", "block-1", "block", "block+1"])
def test_blocked_auc_kernel_at_block_edges(n_boot):
    assert_kernel_matches_per_draw(*paired_markers(120, tied=True), 8.0, n_boot=n_boot, seeds=(3,))


@pytest.fixture(scope="module")
def benchmark_shape():
    """The bootstrap input of the ``survival_stats`` benchmark at seed 1:
    1,000 of its 10,000 whole-day patients, horizon 730."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import _stats_cohort
    finally:
        sys.path.remove(str(PERFBENCH))
    risk, _, times, events = _stats_cohort(1, 10_000)
    rng = substream(1, "perfbench-boot")
    pick = rng.choice(10_000, 1_000, replace=False)
    other = risk + 0.5 * rng.standard_normal(10_000)
    return risk[pick], other[pick], times[pick], events[pick], 730.0


def test_blocked_auc_kernel_on_the_benchmark_shape(benchmark_shape):
    assert_kernel_matches_per_draw(*benchmark_shape, n_boot=500, seeds=(1,))


def test_bootstrap_peak_memory_on_the_benchmark_shape(benchmark_shape):
    tracemalloc.start()
    try:
        ss.bootstrap_auc_compare(*benchmark_shape, n_boot=500, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("n, horizon", BOOT_CASES)
def test_bootstrap_fits_no_censoring_km(monkeypatch, n, horizon):
    calls = []
    km_fit = ss.km_fit
    monkeypatch.setattr(ss, "km_fit", lambda *a: calls.append(1) or km_fit(*a))
    risk, times, events = bootstrap_setup(n=n)
    out = ss.bootstrap_auc_compare(risk, -risk, times, events, horizon, n_boot=100, seed=9)
    assert calls == []  # the kernel counts each draw's censoring risk sets itself
    assert (out.n_redrawn > 0) == (n < 120)


@pytest.mark.parametrize("n_boot", [0, -3])
def test_bootstrap_rejects_fewer_than_one_draw(n_boot):
    risk, times, events = bootstrap_setup()
    with pytest.raises(DataError, match="n_boot"):
        ss.bootstrap_auc_compare(risk, -risk, times, events, 8.0, n_boot=n_boot)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_auc_rejects_non_finite_marker(bad):
    risk, times, events = bootstrap_setup(n=60)
    marker = risk.copy()
    marker[7] = bad
    with pytest.raises(DataError, match="finite"):
        ss.timeroc_auc(marker, times, events, 8.0)
    with pytest.raises(DataError, match="finite"):
        ss.bootstrap_auc_compare(risk, marker, times, events, 8.0, n_boot=20)


# -- stratification -------------------------------------------------------------------------


def test_median_stratify_even_split():
    labels = ss.median_stratify([1.0, 2.0, 3.0, 4.0])
    assert list(labels) == ["low", "low", "high", "high"]


def test_median_stratify_570_balanced():
    risks = np.arange(570, dtype=float)
    labels = ss.median_stratify(risks)
    assert (labels == "high").sum() == 285
    assert (labels == "low").sum() == 285


def test_median_stratify_tie_goes_low():
    labels = ss.median_stratify([1.0, 2.0, 3.0])
    assert list(labels) == ["low", "low", "high"]


def test_median_stratify_degenerate():
    with pytest.raises(DegenerateError):
        ss.median_stratify([2.0, 2.0, 2.0])


# -- calibration -------------------------------------------------------------------------------


def test_calibration_recovers_known_model():
    rng = np.random.default_rng(21)
    n = 2000
    rate = np.exp(rng.uniform(-3.5, -1.5, n))
    times = rng.exponential(1.0 / rate) + 1e-9
    events = np.ones(n, dtype=int)
    horizon = 6.0
    predicted = np.exp(-rate * horizon)
    points, skipped = ss.calibration_curve(predicted, times, events, horizon)
    assert len(points) >= 8
    assert max(abs(p.observed - p.mean_predicted) for p in points) < 0.05


def test_calibration_constant_predictions_single_group():
    rng = np.random.default_rng(19)
    times = rng.exponential(5, 50) + 0.01
    points, _ = ss.calibration_curve(np.full(50, 0.7), times, np.ones(50, int), 4.0)
    assert len(points) == 1
    assert points[0].n == 50


def test_calibration_decile_boundaries():
    rng = np.random.default_rng(20)
    n = 200
    pred = np.linspace(0.01, 0.99, n)
    times = rng.exponential(5, n) + 0.01
    points, skipped = ss.calibration_curve(pred, times, np.ones(n, int), 3.0)
    assert [p.n for p in points] == [20] * 10  # type-7 quantile bins of a uniform grid


# -- decision curves -----------------------------------------------------------------------------


def test_dca_limits_and_treat_none():
    rng = np.random.default_rng(21)
    n = 500
    times = rng.exponential(6, n) + 0.01
    events = np.ones(n, dtype=int)
    pred = rng.uniform(0, 1, n)
    horizon = 5.0
    rows = ss.dca_curve(pred, times, events, horizon, [1e-6, 0.2, 0.5])
    prevalence = 1.0 - ss.km_fit(times, events).survival_at(horizon)
    assert rows[0].net_benefit == pytest.approx(prevalence, abs=1e-3)
    assert all(r.treat_none == 0.0 for r in rows)
    assert rows[0].treat_all == pytest.approx(prevalence, abs=1e-3)


def test_dca_perfect_predictor():
    times = np.array([1.0, 2.0, 3.0, 20.0, 30.0, 40.0])
    events = np.ones(6, dtype=int)
    horizon = 10.0
    pred = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    rows = ss.dca_curve(pred, times, events, horizon, np.linspace(0.05, 0.95, 10))
    prevalence = 0.5
    for r in rows:
        assert r.net_benefit == pytest.approx(prevalence, abs=1e-12)


def test_dca_skips_threshold_one():
    rows = ss.dca_curve([0.5, 0.6], [1.0, 2.0], [1, 1], 1.5, [0.5, 1.0])
    assert len(rows) == 1


# -- nomogram ---------------------------------------------------------------------------------------


def nomogram_setup(seed=22, n=300):
    rng = np.random.default_rng(seed)
    age = rng.uniform(40, 80, n)
    stage = rng.integers(1, 5, n).astype(float)
    risk = rng.standard_normal(n)
    lp = 0.03 * (age - 60) + 0.4 * (stage - 2) + 0.8 * risk
    times = rng.exponential(20 * np.exp(-lp)) + 1e-9
    events = (rng.random(n) < 0.8).astype(int)
    x = np.column_stack([risk, age, stage])
    fit = ss.coxph_fit(times, events, x, ["risk", "age", "stage"])
    ranges = {"risk": (risk.min(), risk.max()), "age": (40.0, 80.0), "stage": (1.0, 4.0)}
    return fit, ranges, x, times, events


def test_nomogram_reference_gives_baseline():
    fit, ranges, *_ = nomogram_setup()
    model = ss.nomogram_build(fit, ranges)
    refs = {n: model.refs[i] for i, n in enumerate(model.names)}
    total, survs = ss.nomogram_score(model, refs, [5.0, 10.0])
    assert total == pytest.approx(0.0, abs=1e-12)
    for h in (5.0, 10.0):
        assert survs[h] == pytest.approx(model.survival_at_reference(h), rel=1e-12)


def test_nomogram_points_additive_and_nonnegative():
    fit, ranges, x, *_ = nomogram_setup()
    model = ss.nomogram_build(fit, ranges)
    for row in x[:20]:
        cov = dict(zip(model.names, row))
        total, _ = ss.nomogram_score(model, cov, [5.0])
        parts = sum(model.points_for(n, cov[n]) for n in model.names)
        assert total == pytest.approx(parts, rel=1e-12)
        assert all(model.points_for(n, cov[n]) >= -1e-12 for n in model.names)


def test_nomogram_cindex_matches_cox():
    fit, ranges, x, times, events = nomogram_setup()
    model = ss.nomogram_build(fit, ranges)
    lp = fit.linear_predictor(x)
    totals = np.array([ss.nomogram_score(model, dict(zip(model.names, row)), [5.0])[0] for row in x])
    c_lp = concordance_index(lp, times, events)
    c_pts = concordance_index(totals, times, events)
    assert c_lp == pytest.approx(c_pts, abs=1e-12)


def test_nomogram_out_of_range():
    fit, ranges, *_ = nomogram_setup()
    model = ss.nomogram_build(fit, ranges)
    with pytest.raises(RangeError):
        model.points_for("age", 200.0)


# -- sorted-once statistics against the re-sorting implementations ----------------------------
#
# Each oracle below is the implementation the sorted-once code replaced, kept
# verbatim: Cox re-sorts the sample at every evaluation, RMST loops over the
# KM steps, calibration fits one KM per group and DCA one per threshold. The
# replacements must reproduce every output bit.


def cox_quantities_oracle(beta, times, events, x):
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


def coxph_fit_oracle(times, events, x, names=None) -> ss.CoxFit:
    """Newton-Raphson on the Breslow partial likelihood, re-sorting the
    sample at every evaluation."""
    times, events = ss._clean(times, events)
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
    loglik_null, _, _ = cox_quantities_oracle(beta, times, events, x)
    loglik = loglik_null
    n_iter = 0
    for n_iter in range(1, ss.COX_MAX_ITER + 1):
        ll, score, info = cox_quantities_oracle(beta, times, events, x)
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
            ll_new, _, _ = cox_quantities_oracle(cand, times, events, x)
            if np.isfinite(ll_new) and ll_new >= ll - slack:
                break
            scale *= 0.5
        else:
            raise ConvergenceError("step halving failed; likelihood may be monotone")
        beta = beta + scale * step
        loglik = ll_new
        if np.abs(beta).max() > 80:
            raise ConvergenceError("coefficients diverging; monotone likelihood suspected")
        if np.abs(scale * step).max() < ss.COX_TOL:
            break
    else:
        raise ConvergenceError(f"no convergence in {ss.COX_MAX_ITER} iterations")

    ll, score, info = cox_quantities_oracle(beta, times, events, x)
    try:
        np.linalg.cholesky(info)  # positive definite, so every variance is positive
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("information matrix not positive definite at the estimate; "
                               "monotone likelihood suspected") from exc
    se = np.sqrt(np.diag(cov))
    z = beta / se
    wald_p = 2.0 * ss.stats.norm.sf(np.abs(z))

    # Breslow baseline cumulative hazard at x = 0
    event_times, risk_w, d = risk_table(times, events, weights=np.exp(x @ beta))
    return ss.CoxFit(
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


def rmst_loop(times, events, tau: float) -> ss.RmstResult:
    """RMST with one full pass over the step arrays per KM step for the variance."""
    if tau <= 0:
        raise DataError("tau must be positive")
    times, events = ss._clean(times, events)
    km = ss.km_fit(times, events)
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
    # the loop's sum is a numpy scalar once it adds a term: compare the value
    return ss.RmstResult(value=area, var=float(var), tau=float(tau), extrapolated=extrapolated)


def rmst_compare_loop(times_a, events_a, times_b, events_b, tau: float) -> ss.RmstComparison:
    ra = rmst_loop(times_a, events_a, tau)
    rb = rmst_loop(times_b, events_b, tau)
    diff = ra.value - rb.value
    se = float(np.sqrt(ra.var + rb.var))
    if se == 0:
        p = 1.0 if diff == 0 else 0.0
        return ss.RmstComparison(ra, rb, diff, diff, diff, p)
    z = diff / se
    half = 1.959963984540054 * se
    return ss.RmstComparison(ra, rb, diff, diff - half, diff + half, float(2.0 * ss.stats.norm.sf(abs(z))))


def calibration_curve_per_group(predicted_surv, times, events, horizon: float):
    """Calibration with one ``km_fit`` per decile group."""
    pred = np.asarray(predicted_surv, dtype=np.float64)
    times, events = ss._clean(times, events)
    if pred.shape != times.shape:
        raise DataError("predictions misaligned with times")
    if np.any((pred < 0) | (pred > 1)):
        raise DataError("predicted survival probabilities must lie in [0, 1]")
    bounds = np.unique(np.quantile(pred, np.linspace(0, 1, ss.CALIBRATION_GROUPS + 1), method="linear"))
    if bounds.size == 1:  # constant predictions: one group
        groups = [np.arange(pred.size)]
    else:
        which = np.clip(np.searchsorted(bounds, pred, side="right") - 1, 0, bounds.size - 2)
        groups = [np.flatnonzero(which == g) for g in range(bounds.size - 1)]
    points: list[ss.CalibrationPoint] = []
    skipped = 0
    for idx in groups:
        if idx.size == 0:
            skipped += 1
            continue
        km = ss.km_fit(times[idx], events[idx])
        observed = float(km.survival_at(horizon))
        var = ss._step_at(km.times, km.var, 0.0, horizon)
        if not np.isfinite(var):
            skipped += 1
            continue
        half = 1.959963984540054 * np.sqrt(var)
        points.append(
            ss.CalibrationPoint(
                mean_predicted=float(pred[idx].mean()),
                observed=observed,
                lci=float(max(0.0, observed - half)),
                uci=float(min(1.0, observed + half)),
                n=int(idx.size),
            )
        )
    return points, skipped


def dca_curve_per_threshold(predicted_event_prob, times, events, horizon: float, thresholds):
    """Decision curve with one ``km_fit`` per threshold's positives."""
    pred = np.asarray(predicted_event_prob, dtype=np.float64)
    times, events = ss._clean(times, events)
    if pred.shape != times.shape:
        raise DataError("predictions misaligned with times")
    km_all = ss.km_fit(times, events)
    prevalence = 1.0 - float(km_all.survival_at(horizon))
    out: list[ss.DcaPoint] = []
    for p in np.asarray(thresholds, dtype=np.float64):
        if not (0.0 < p < 1.0):
            continue
        odds = p / (1.0 - p)
        positive = pred > p
        if positive.any():
            km_pos = ss.km_fit(times[positive], events[positive])
            event_frac = 1.0 - float(km_pos.survival_at(horizon))
            frac_pos = positive.mean()
            nb = event_frac * frac_pos - (1.0 - event_frac) * frac_pos * odds
        else:
            nb = 0.0
        treat_all = prevalence - (1.0 - prevalence) * odds
        out.append(ss.DcaPoint(float(p), float(nb), float(treat_all), 0.0))
    return out


def assert_bitwise(got, want, where="result"):
    """Every field equal bit for bit, scalars of the same type (the CLI
    writes their ``repr``)."""
    if hasattr(want, "__dataclass_fields__"):
        assert type(got) is type(want), where
        for name in want.__dataclass_fields__:
            assert_bitwise(getattr(got, name), getattr(want, name), f"{where}.{name}")
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_bitwise(g, w, f"{where}[{i}]")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape, where
        assert np.array_equal(got, want, equal_nan=True), where
        assert got.tobytes() == want.tobytes(), where
    else:
        assert type(got) is type(want), (where, type(got), type(want))
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (where, got, want)


def assert_same_outcome(fn, oracle, *args):
    """Both raise the same error class, or both return bitwise-equal results."""
    try:
        want = oracle(*args)
    except (ConvergenceError, DataError, UndefinedError) as exc:
        with pytest.raises(type(exc)):
            fn(*args)
        return False
    assert_bitwise(fn(*args), want, fn.__name__)
    return True


DCA_THRESHOLDS = np.arange(0.05, 0.96, 0.05)


@pytest.fixture(scope="module")
def report_cohort():
    """The ``survival_stats`` benchmark's 10k-patient report input at seed 1."""
    x, times, events = stats_cohort(1, 10_000)
    return x, times, events, x[:, 0] > np.median(x[:, 0])


def test_cox_is_bitwise_the_resorting_fit_on_the_benchmark_shape(report_cohort):
    x, times, events, _ = report_cohort
    fit = ss.coxph_fit(times, events, x, ["risk", "age", "stage"])
    assert_bitwise(fit, coxph_fit_oracle(times, events, x, ["risk", "age", "stage"]))
    assert fit.n_iter == 4


def test_rmst_is_bitwise_the_step_loop_on_the_benchmark_shape(report_cohort):
    _, times, events, high = report_cohort
    args = (times[high], events[high], times[~high], events[~high], 1825.0)
    assert_bitwise(ss.rmst_compare(*args), rmst_compare_loop(*args))


@pytest.mark.parametrize("horizon", [365.0, 730.0, 1095.0])
def test_calibration_and_dca_are_bitwise_the_per_subset_fits_on_the_benchmark_shape(report_cohort, horizon):
    x, times, events, _ = report_cohort
    fit = ss.coxph_fit(times, events, x)
    surv = np.exp(-fit.cumhaz_at(horizon) * np.exp(fit.linear_predictor(x)))
    assert_bitwise(ss.calibration_curve(surv, times, events, horizon),
                   calibration_curve_per_group(surv, times, events, horizon))
    assert_bitwise(ss.dca_curve(1.0 - surv, times, events, horizon, DCA_THRESHOLDS),
                   dca_curve_per_threshold(1.0 - surv, times, events, horizon, DCA_THRESHOLDS))


def test_sorted_once_statistics_are_bitwise_the_oracles_on_tied_draws():
    rng = np.random.default_rng(2027)
    fits = 0
    for i in range(200):
        n = int(rng.integers(3, 80))
        times = rng.integers(1, 12, n).astype(float)
        events = rng.integers(0, 2, n)
        x = rng.standard_normal((n, int(rng.integers(1, 3))))
        fits += assert_same_outcome(ss.coxph_fit, coxph_fit_oracle, times, events, x)
        tau = float(rng.choice([0.5, 3.0, 7.5, 11.0, 15.0]))
        assert_same_outcome(ss.rmst, rmst_loop, times, events, tau)
        m = max(1, n // 2)
        assert_same_outcome(ss.rmst_compare, rmst_compare_loop, times[:m], events[:m], times[m:], events[m:], tau)
        # a few repeated values give tied predictions and empty groups
        pred = rng.choice(np.round(rng.random(5), 2), n) if i % 3 == 0 else rng.random(n)
        horizon = float(rng.choice([0.5, 2.0, 5.0, 9.5, 20.0]))
        assert_same_outcome(ss.calibration_curve, calibration_curve_per_group, pred, times, events, horizon)
        thresholds = rng.choice([0.05, 0.2, 0.35, 0.5, 0.7, 0.99, 0.0, 1.0, -0.2], int(rng.integers(0, 9)))
        assert_same_outcome(ss.dca_curve, dca_curve_per_threshold, pred, times, events, horizon, thresholds)
    assert fits > 150


def test_km_and_logrank_are_bitwise_the_per_group_tables_on_tied_draws():
    """Whole-day times with many ties, point masses and empty groups, split
    into 2-5 groups: every array of ``km_fit`` (dtypes too) and log-rank's
    (chi2, p), or the error, are the per-group risk tables' own."""
    rng = np.random.default_rng(2028)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        n = int(rng.integers(1, 80))
        times = rng.integers(1, 12, n).astype(float)
        events = rng.integers(0, 2, n) if rng.random() < 0.8 else np.ones(n, dtype=np.int64)
        assert_same_outcome(ss.km_fit, km_fit_oracle, times, events)
        k = int(rng.integers(2, 6))
        labels = rng.integers(0, k, n)
        groups = [(times[labels == g], events[labels == g]) for g in range(k)]
        for t, e in groups:
            assert_same_outcome(ss.km_fit, km_fit_oracle, t, e)
        outcomes[assert_same_outcome(ss.logrank_test, logrank_test_oracle, groups)] += 1
    assert outcomes[True] > 150 and outcomes[False] > 10


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_km_and_logrank_are_bitwise_the_per_group_tables_on_the_benchmark_shape(report_cohort, k):
    x, times, events, _ = report_cohort
    assert_bitwise(ss.km_fit(times, events), km_fit_oracle(times, events))
    group = np.searchsorted(np.quantile(x[:, 0], np.arange(1, k) / k), x[:, 0], side="right")
    groups = [(times[group == g], events[group == g]) for g in range(k)]
    assert_bitwise(ss.km_fit(*groups[-1]), km_fit_oracle(*groups[-1]))
    assert_bitwise(ss.logrank_test(groups), logrank_test_oracle(groups))


@pytest.mark.parametrize("steps", ["1", "block-1", "block", "block+1"])
def test_rmst_block_edges(monkeypatch, steps):
    rows = 6  # variance rows per block
    k = {"1": 1, "block-1": rows - 1, "block": rows, "block+1": rows + 1}[steps]
    times = np.repeat(np.arange(1.0, k + 3), 3)  # k + 2 distinct event times
    events = np.tile([1, 0, 1], k + 2)
    tau = k + 0.5  # k steps up to tau
    monkeypatch.setattr(ss, "_RMST_BLOCK", rows * (k + 1))
    assert ss.km_fit(times, events).times.searchsorted(tau) == k
    assert_bitwise(ss.rmst(times, events, tau), rmst_loop(times, events, tau))


def test_rmst_point_mass_adds_no_variance_term():
    times = np.array([1.0, 2.0, 2.0, 3.0, 3.0])
    events = np.array([1, 0, 1, 1, 1])  # everyone left at t = 3 dies there
    for tau in (2.5, 3.0, 10.0):
        assert_bitwise(ss.rmst(times, events, tau), rmst_loop(times, events, tau))


def test_dca_thresholds_unsorted_duplicated_and_selecting_nobody_or_everybody():
    x, times, events = stats_cohort(3, 400)
    pred = 1.0 / (1.0 + np.exp(-x[:, 0]))
    lo, hi = pred.min(), pred.max()
    thresholds = [0.7, 0.2, 0.7, hi, 0.5, lo / 2, 0.2, np.nextafter(lo, 0.0), lo, 0.999, 1.0, 0.0, 1.5, -1.0]
    rows = ss.dca_curve(pred, times, events, 730.0, thresholds)
    assert_bitwise(rows, dca_curve_per_threshold(pred, times, events, 730.0, thresholds))
    assert [r.threshold for r in rows] == thresholds[:10]  # input order, out-of-range skipped
    assert rows[3].net_benefit == 0.0 and rows[9].net_benefit == 0.0  # nobody above
    assert all(rows[i].net_benefit == rows[i].treat_all for i in (5, 7))  # everybody above


def test_calibration_with_empty_and_constant_groups():
    # with fewer than 11 patients two interpolated decile bounds can share
    # one gap between predictions, which leaves a group empty
    _, times, events = stats_cohort(4, 4)
    pred = np.array([0.2, 0.9, 0.9, 0.9])
    points, skipped = ss.calibration_curve(pred, times, events, 730.0)
    assert_bitwise((points, skipped), calibration_curve_per_group(pred, times, events, 730.0))
    assert skipped > 0
    _, times, events = stats_cohort(4, 300)
    for horizon in (0.5, 730.0, 1e5):  # before any event, inside, past the last time
        constant = np.full(300, 0.6)
        assert_bitwise(ss.calibration_curve(constant, times, events, horizon),
                       calibration_curve_per_group(constant, times, events, horizon))


def test_rmst_compare_peak_memory_on_the_benchmark_shape(report_cohort):
    _, times, events, high = report_cohort
    tracemalloc.start()
    try:
        ss.rmst_compare(times[high], events[high], times[~high], events[~high], 1825.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("which", ["calibration", "dca"])
def test_calibration_and_dca_fit_at_most_one_km(monkeypatch, report_cohort, which):
    x, times, events, _ = report_cohort
    calls = []
    km_fit = ss.km_fit
    monkeypatch.setattr(ss, "km_fit", lambda *a: calls.append(1) or km_fit(*a))
    surv = 1.0 / (1.0 + np.exp(x[:, 0]))
    if which == "calibration":
        ss.calibration_curve(surv, times, events, 730.0)
    else:
        ss.dca_curve(1.0 - surv, times, events, 730.0, DCA_THRESHOLDS)
    assert len(calls) <= 1


@pytest.mark.parametrize("case", [
    "calibration-nan-pred", "calibration-nan-horizon", "dca-nan-pred", "dca-inf-pred",
    "dca-nan-threshold", "dca-nan-horizon", "rmst-nan-tau", "rmst-compare-inf-tau",
])
def test_non_finite_inputs_raise_data_error(case):
    x, times, events = stats_cohort(5, 120)
    pred = 1.0 / (1.0 + np.exp(-x[:, 0]))
    bad_pred = pred.copy()
    bad_pred[9] = np.inf if "inf" in case else np.nan
    calls = {
        "calibration-nan-pred": lambda: ss.calibration_curve(bad_pred, times, events, 730.0),
        "calibration-nan-horizon": lambda: ss.calibration_curve(pred, times, events, np.nan),
        "dca-nan-pred": lambda: ss.dca_curve(bad_pred, times, events, 730.0, [0.2, 0.5]),
        "dca-inf-pred": lambda: ss.dca_curve(bad_pred, times, events, 730.0, [0.2, 0.5]),
        "dca-nan-threshold": lambda: ss.dca_curve(pred, times, events, 730.0, [0.2, np.nan]),
        "dca-nan-horizon": lambda: ss.dca_curve(pred, times, events, np.nan, [0.2, 0.5]),
        "rmst-nan-tau": lambda: ss.rmst(times, events, np.nan),
        "rmst-compare-inf-tau": lambda: ss.rmst_compare(times[:60], events[:60], times[60:], events[60:], np.inf),
    }
    with pytest.raises(DataError, match="finite"):
        calls[case]()

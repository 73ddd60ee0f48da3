import numpy as np
import pytest
from scipy import optimize

from tdam import survstats as ss
from tdam.rng import substream
from tdam.errors import ConvergenceError, DataError, DegenerateError, RangeError, UndefinedError
from tdam.survival import concordance_index


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
    # one rounding, which must not trigger a step halving (one extra call).
    x, times, events = stats_cohort(1, 10_000)
    calls = []
    quantities = ss._cox_quantities

    def counted(*args):
        calls.append(1)
        return quantities(*args)

    monkeypatch.setattr(ss, "_cox_quantities", counted)
    fit = ss.coxph_fit(times, events, x)
    # null, then per iteration one Newton point and one candidate, then the final
    assert len(calls) == 2 + 2 * fit.n_iter
    _, score, info = quantities(fit.beta, times, events, x)
    assert score @ np.linalg.solve(info, score) < 1e-8  # Rao's statistic at the estimate


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


# (n, horizon): no redraws; a few; most draws redrawn
BOOT_CASES = [(120, 8.0), (20, 1.0), (15, 1.5)]


@pytest.mark.parametrize("n, horizon", BOOT_CASES)
def test_bootstrap_equals_the_two_timeroc_oracle(n, horizon):
    risk, times, events = bootstrap_setup(n=n)
    other = risk + 0.3 * np.random.default_rng(16).standard_normal(n)
    for seed in (0, 9):
        want = _bootstrap_auc_compare_oracle(risk, other, times, events, horizon, n_boot=100, seed=seed)
        assert ss.bootstrap_auc_compare(risk, other, times, events, horizon, n_boot=100, seed=seed) == want


@pytest.mark.parametrize("n, horizon", BOOT_CASES)
def test_bootstrap_fits_censoring_once_per_draw(monkeypatch, n, horizon):
    calls = []
    km_fit = ss.km_fit
    monkeypatch.setattr(ss, "km_fit", lambda *a: calls.append(1) or km_fit(*a))
    risk, times, events = bootstrap_setup(n=n)
    out = ss.bootstrap_auc_compare(risk, -risk, times, events, horizon, n_boot=100, seed=9)
    # one fit for the full sample and one per kept draw: a redrawn resample
    # lacks cases or controls, and that is found before its fit
    assert len(calls) == out.n_boot + 1
    assert (out.n_redrawn > 0) == (n < 120)


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

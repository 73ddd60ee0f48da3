import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from tdam import netlink as nl
from tdam import survstats as ss
from tdam.errors import ConvergenceError, DataError, EmptyNetworkError
from tdam.rng import substream


# -- Spearman -------------------------------------------------------------------


def test_spearman_monotone_extremes():
    x = np.arange(8.0).reshape(-1, 1)
    rho, p = nl.spearman_matrix(x, np.exp(x))  # strictly increasing transform
    assert rho[0, 0] == pytest.approx(1.0)
    assert p[0, 0] == pytest.approx(0.0, abs=1e-12)
    rho, _ = nl.spearman_matrix(x, -(x**3))
    assert rho[0, 0] == pytest.approx(-1.0)


def test_spearman_hand_ranked_ties():
    x = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0]).reshape(-1, 1)
    y = np.array([10.0, 20.0, 15.0, 30.0, 40.0, 50.0]).reshape(-1, 1)
    rho, _ = nl.spearman_matrix(x, y)
    # average ranks by hand: x -> (1, 2.5, 2.5, 4, 5, 6); y -> (1, 3, 2, 4, 5, 6)
    rx = np.array([1.0, 2.5, 2.5, 4.0, 5.0, 6.0])
    ry = np.array([1.0, 3.0, 2.0, 4.0, 5.0, 6.0])
    rx -= rx.mean()
    ry -= ry.mean()
    expect = (rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry))
    assert rho[0, 0] == pytest.approx(expect, abs=1e-14)


def test_spearman_matches_scipy():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 3))
    y = rng.standard_normal((20, 2))
    rho, p = nl.spearman_matrix(x, y)
    for i in range(3):
        for j in range(2):
            want_r, want_p = sps.spearmanr(x[:, i], y[:, j])
            assert rho[i, j] == pytest.approx(want_r, abs=1e-12)
            assert p[i, j] == pytest.approx(want_p, rel=1e-9)


def test_spearman_flags_constant_column():
    rng = np.random.default_rng(1)
    x = np.column_stack([np.ones(10), rng.standard_normal(10)])
    rho, p = nl.spearman_matrix(x, rng.standard_normal((10, 1)))
    assert np.isnan(rho[0, 0]) and np.isnan(p[0, 0])
    assert np.isfinite(rho[1, 0])


def test_spearman_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((15, 1))
    y = rng.standard_normal((15, 1))
    r1, _ = nl.spearman_matrix(x, y)
    r2, _ = nl.spearman_matrix(np.exp(2 * x), y**3)
    assert r1[0, 0] == pytest.approx(r2[0, 0], abs=1e-12)


def test_spearman_needs_five_samples():
    with pytest.raises(DataError):
        nl.spearman_matrix(np.zeros((4, 1)), np.zeros((4, 1)))


# -- BH-FDR ----------------------------------------------------------------------


def test_bh_worked_example():
    q = nl.bh_fdr([0.01, 0.02, 0.03, 0.04])
    np.testing.assert_allclose(q, [0.04, 0.04, 0.04, 0.04])


def test_bh_single_and_all_ones():
    np.testing.assert_allclose(nl.bh_fdr([0.3]), [0.3])
    np.testing.assert_allclose(nl.bh_fdr([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0])


def test_bh_rejects_out_of_range():
    with pytest.raises(DataError):
        nl.bh_fdr([0.5, 1.5])


def test_bh_leaves_nan_out_of_the_ranking():
    # a NaN p-value (a constant column's) is not a test: m counts the others
    np.testing.assert_allclose(nl.bh_fdr([0.01, np.nan, 0.02, 0.5]), [0.03, np.nan, 0.03, 0.5],
                               rtol=1e-15)
    np.testing.assert_array_equal(nl.bh_fdr([np.nan, np.nan]), [np.nan, np.nan])
    assert nl.bh_fdr([]).shape == (0,)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0, 1), min_size=1, max_size=30), st.integers(0, 10**6))
def test_bh_permutation_invariance_and_monotonicity(pvals, seed):
    p = np.array(pvals)
    q = nl.bh_fdr(p)
    assert ((q >= 0) & (q <= 1)).all()
    order = np.argsort(p, kind="stable")
    assert (np.diff(q[order]) >= -1e-15).all()  # monotone along sorted p
    perm = np.random.default_rng(seed).permutation(p.size)
    np.testing.assert_allclose(nl.bh_fdr(p[perm]), q[perm], atol=1e-15)


# -- elastic net -------------------------------------------------------------------


def enet_data(n=60, p=4, seed=3):
    rng = np.random.default_rng(seed)
    x = nl.standardize(rng.standard_normal((n, p)))
    beta = np.resize([2.0, -1.0, 0.0, 0.5], p)
    y = x @ beta + 0.3 * rng.standard_normal(n)
    y -= y.mean()
    return x, y


def test_enet_lambda_zero_equals_ols():
    x, y = enet_data()
    fit = nl.elastic_net_fit(x, y, alpha=0.5, lambda_=0.0)
    ols = np.linalg.solve(x.T @ x, x.T @ y)
    np.testing.assert_allclose(fit.beta, ols, atol=1e-6)


def test_enet_lambda_max_kills_everything():
    x, y = enet_data()
    lam_max = np.abs(x.T @ y).max() / (x.shape[0] * 0.5)
    fit = nl.elastic_net_fit(x, y, alpha=0.5, lambda_=lam_max * 1.001)
    np.testing.assert_array_equal(fit.beta, 0.0)


def test_enet_single_feature_closed_form():
    rng = np.random.default_rng(4)
    x = nl.standardize(rng.standard_normal((50, 1)))
    y = 1.5 * x[:, 0] + 0.2 * rng.standard_normal(50)
    y -= y.mean()
    lam, alpha = 0.3, 0.5
    fit = nl.elastic_net_fit(x, y, alpha=alpha, lambda_=lam)
    rho = float(x[:, 0] @ y) / 50
    want = np.sign(rho) * max(abs(rho) - lam * alpha, 0.0) / (1 + lam * (1 - alpha))
    assert fit.beta[0] == pytest.approx(want, abs=1e-12)


def test_enet_cv_fit_satisfies_kkt():
    x, y = enet_data(n=80, p=6, seed=5)
    fit = nl.elastic_net_fit(x, y, alpha=0.5, seed=1)
    assert fit.kkt < 1e-6
    assert fit.lambdas is not None and fit.cv_mse is not None
    assert fit.lambdas.shape == fit.cv_mse.shape
    # deterministic in seed
    fit2 = nl.elastic_net_fit(x, y, alpha=0.5, seed=1)
    np.testing.assert_array_equal(fit.beta, fit2.beta)


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_enet_duplicated_column_fits(alpha):
    # X'X is singular; the copy's KKT violation is rounding and must stay out
    x, y = enet_data(n=80, p=6, seed=5)
    dup = nl.standardize(np.column_stack([x, x[:, 0]]))
    fit = nl.elastic_net_fit(dup, y, alpha=alpha, seed=1)
    assert fit.kkt < 1e-6
    assert nl.kkt_residual(dup, y, fit.beta, fit.lambda_, alpha) < 1e-12
    if alpha == 1.0:  # the lasso splits the weight freely; fitted values match
        plain = nl.elastic_net_fit(dup[:, :-1], y, alpha=alpha, seed=1)
        assert fit.lambda_ == pytest.approx(plain.lambda_, rel=1e-12)
        np.testing.assert_allclose(dup @ fit.beta, dup[:, :-1] @ plain.beta, atol=1e-9)
    else:  # the ridge term splits it evenly
        assert fit.beta[0] == pytest.approx(fit.beta[-1], abs=1e-12)


# Cyclic coordinate descent, the solver elastic_net_fit used before the
# active-set method; kept verbatim as the reference the new solver must match.
def _soft_threshold(z: float, g: float) -> float:
    if z > g:
        return z - g
    if z < -g:
        return z + g
    return 0.0


def _cd_solve(x, y, lam, alpha, beta0, tol=1e-10, max_iter=100_000, gram=None, xty=None):
    """Cyclic coordinate descent with soft-thresholding (X standardized).

    Uses covariance updates: with G = X'X precomputed, each coordinate step
    costs O(p) instead of O(n)."""
    n, p = x.shape
    beta = beta0.copy()
    if gram is None:
        gram = x.T @ x
    if xty is None:
        xty = x.T @ y
    s = gram @ beta
    diag = np.diag(gram) / n
    denoms = diag + lam * (1.0 - alpha)
    gate = lam * alpha
    for _ in range(max_iter):
        delta = 0.0
        for j in range(p):
            old = beta[j]
            rho = (xty[j] - s[j]) / n + diag[j] * old
            new = _soft_threshold(rho, gate) / denoms[j]
            if new != old:
                s += gram[:, j] * (new - old)
                beta[j] = new
                step = abs(new - old)
                if step > delta:
                    delta = step
        if delta < tol:
            return beta
    raise ConvergenceError(f"coordinate descent did not reach tol={tol}")


def hub_enet_data(seed):
    """The 25 features and centered risk of a planted-hub network input."""
    features, risk, *_ = planted_hub_data(seed, n=120, n_features=25, n_driver=8)
    return nl.standardize(features), risk - risk.mean()


@pytest.mark.parametrize("make, alpha", [
    (lambda: enet_data(), 0.5),
    (lambda: enet_data(n=80, p=6, seed=5), 1.0),
    (lambda: hub_enet_data(3), 0.5),
    (lambda: hub_enet_data(4), 1.0),
], ids=["enet4-a0.5", "enet6-a1", "hub25-a0.5", "hub25-a1"])
def test_active_set_matches_coordinate_descent_on_the_path(make, alpha):
    x, y = make()
    n, p = x.shape
    gram, xty = x.T @ x, x.T @ y
    lam_max = np.abs(xty).max() / (n * alpha)
    beta_cd = beta_as = np.zeros(p)
    for lam in np.geomspace(lam_max, lam_max * 1e-3, 100):
        beta_cd = _cd_solve(x, y, lam, alpha, beta_cd, tol=1e-13, gram=gram, xty=xty)
        beta_as = nl._active_set_solve(gram / n, xty / n, lam, alpha, beta_as)
        np.testing.assert_allclose(beta_as, beta_cd, rtol=0, atol=1e-10)
        assert nl.kkt_residual(x, y, beta_as, lam, alpha) < 1e-13


@pytest.mark.parametrize("seed", range(1, 7))
def test_lasso_with_more_columns_than_rank_matches_coordinate_descent(seed):
    # 12 columns of rank 7: violators in the span of the active columns
    # need the exchange step
    rng = np.random.default_rng(seed)
    x = nl.standardize(rng.standard_normal((8, 12)))
    y = rng.standard_normal(8)
    y -= y.mean()
    lam_max = np.abs(x.T @ y).max() / 8
    for fit in (nl.elastic_net_fit(x, y, alpha=1.0, lambda_=1e-4), nl.elastic_net_fit(x, y, alpha=1.0)):
        assert fit.kkt < 1e-9
        beta_cd = np.zeros(12)  # a cold start at lambda 1e-4 stalls on seed 3
        for lam in np.geomspace(lam_max, fit.lambda_, 30):
            beta_cd = _cd_solve(x, y, lam, 1.0, beta_cd, tol=1e-13)
        # beta is not unique at rank 7, but the lasso fit X beta is
        np.testing.assert_allclose(x @ fit.beta, x @ beta_cd, rtol=0, atol=1e-8)


# The per-lambda loops of elastic_net_fit before its lambda path was stacked;
# kept verbatim as the reference whose bits the stacked path must keep.
def _elastic_net_fit_per_lambda(x, y, alpha, seed):
    n, p = x.shape
    g, c = x.T @ x / n, x.T @ y / n
    lam_max = np.abs(x.T @ y).max() / (n * alpha)
    lambdas = np.geomspace(lam_max, lam_max * nl.LAMBDA_MIN_RATIO, nl.N_LAMBDAS)
    rng = substream(seed, "enet-cv")
    perm = rng.permutation(n)
    folds = [perm[f::nl.CV_FOLDS] for f in range(min(nl.CV_FOLDS, n))]
    cv_mse = np.zeros(lambdas.size)
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        xt, yt = x[mask], y[mask]
        xv, yv = x[fold], y[fold]
        g_t, c_t = xt.T @ xt / yt.size, xt.T @ yt / yt.size
        beta = np.zeros(p)
        for i, lam in enumerate(lambdas):
            beta = nl._active_set_solve(g_t, c_t, lam, alpha, beta)
            resid = yv - xv @ beta
            cv_mse[i] += float(resid @ resid) / yv.size
    cv_mse /= len(folds)
    lam_opt = float(lambdas[int(np.argmin(cv_mse))])
    beta = np.zeros(p)
    for lam in lambdas[lambdas >= lam_opt]:
        beta = nl._active_set_solve(g, c, lam, alpha, beta)
    return beta, lam_opt, cv_mse


def duplicated_column_data():
    x, y = enet_data(n=80, p=6, seed=5)
    return nl.standardize(np.column_stack([x, x[:, 0]])), y


def rank7_lasso_data(seed):
    rng = np.random.default_rng(seed)
    x = nl.standardize(rng.standard_normal((8, 12)))
    y = rng.standard_normal(8)
    return x, y - y.mean()


STACKED_PATH_CASES = [
    pytest.param(lambda: hub_enet_data(3), 0.5, id="hub-a0.5"),
    pytest.param(lambda: hub_enet_data(4), 1.0, id="hub-a1"),
    pytest.param(duplicated_column_data, 0.5, id="dup-a0.5"),
    pytest.param(duplicated_column_data, 1.0, id="dup-a1"),
    *(pytest.param(lambda s=s: rank7_lasso_data(s), 1.0, id=f"rank7-seed{s}") for s in range(1, 7)),
]


@pytest.mark.parametrize("make, alpha", STACKED_PATH_CASES)
def test_stacked_lambda_path_keeps_the_bits_of_the_per_lambda_loop(make, alpha):
    x, y = make()
    fit = nl.elastic_net_fit(x, y, alpha=alpha, seed=1)
    beta, lam, cv_mse = _elastic_net_fit_per_lambda(x, y, alpha, seed=1)
    assert fit.beta.tobytes() == beta.tobytes()
    assert np.float64(fit.lambda_).tobytes() == np.float64(lam).tobytes()
    assert fit.cv_mse.tobytes() == cv_mse.tobytes()


def cv_fold_systems(x, y, alpha, seed=1):
    """(g, c, lambdas) of each CV fold of elastic_net_fit, then of the full data."""
    n = x.shape[0]
    lam_max = np.abs(x.T @ y).max() / (n * alpha)
    lambdas = np.geomspace(lam_max, lam_max * nl.LAMBDA_MIN_RATIO, nl.N_LAMBDAS)
    perm = substream(seed, "enet-cv").permutation(n)
    systems = []
    for f in range(nl.CV_FOLDS):
        mask = np.ones(n, dtype=bool)
        mask[perm[f::nl.CV_FOLDS]] = False
        xt, yt = x[mask], y[mask]
        systems.append((xt.T @ xt / yt.size, xt.T @ yt / yt.size, lambdas))
    return systems + [(x.T @ x / n, x.T @ y / n, lambdas)]


@pytest.mark.parametrize("make, alpha", STACKED_PATH_CASES[:4])
def test_each_path_row_is_one_active_set_solve_from_the_row_before(make, alpha):
    x, y = make()
    first_lambda_violates = 0
    for g, c, lambdas in cv_fold_systems(x, y, alpha):
        # at lambda_max of the full data a fold's zero start can violate KKT
        first_lambda_violates += bool(np.abs(c).max() > lambdas[0] * alpha)
        # an inactive -0.0 keeps its sign bit in _active_set_solve's copy
        for start in (np.zeros(c.size), np.full(c.size, -0.0)):
            path = nl._enet_path(g, c, lambdas, alpha, start)
            prev = start
            for lam, row in zip(lambdas, path):
                want = nl._active_set_solve(g, c, lam, alpha, prev)
                assert row.tobytes() == want.tobytes()
                prev = row
    assert first_lambda_violates >= 1


def test_a_singular_stacked_solve_hands_its_lambdas_to_the_exact_solver(monkeypatch):
    x, y = hub_enet_data(3)
    want = _elastic_net_fit_per_lambda(x, y, 0.5, seed=1)
    solve = np.linalg.solve
    refused = []

    def no_stacks(a, b):
        if np.ndim(a) == 3:
            refused.append(len(a))
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", no_stacks)
    fit = nl.elastic_net_fit(x, y, alpha=0.5, seed=1)
    assert refused
    assert fit.beta.tobytes() == want[0].tobytes()
    assert fit.cv_mse.tobytes() == want[2].tobytes()


def test_enet_rejects_unstandardized():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 3)) * 5 + 2
    y = rng.standard_normal(30)
    with pytest.raises(DataError):
        nl.elastic_net_fit(x, y - y.mean(), lambda_=0.1)


# -- eigenvector centrality -----------------------------------------------------------


def test_centrality_complete_graph():
    adj = np.ones((4, 4)) - np.eye(4)
    np.testing.assert_allclose(nl.eigenvector_centrality(adj), 1.0, atol=1e-9)


def test_centrality_star_closed_form():
    for n_leaves in (3, 5, 10):
        adj = np.zeros((n_leaves + 1, n_leaves + 1))
        adj[0, 1:] = adj[1:, 0] = 1.0
        scores = nl.eigenvector_centrality(adj)
        assert scores[0] == pytest.approx(1.0)
        np.testing.assert_allclose(scores[1:], 1.0 / np.sqrt(n_leaves), atol=1e-9)


def random_connected_graph(rng, n):
    adj = np.zeros((n, n))
    mask = rng.random((n, n)) < 0.2
    w = rng.uniform(0.1, 1.0, (n, n))
    adj = np.triu(mask * w, 1)
    for i in range(n - 1):  # spanning path keeps it connected
        adj[i, i + 1] = max(adj[i, i + 1], rng.uniform(0.1, 1.0))
    return adj + adj.T


def test_centrality_matches_dense_eigensolver():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 50))
        adj = random_connected_graph(rng, n)
        got = nl.eigenvector_centrality(adj)
        vals, vecs = np.linalg.eigh(adj)
        lead = np.abs(vecs[:, -1])
        np.testing.assert_allclose(got, lead / lead.max(), atol=1e-8)


def test_centrality_invariant_to_weight_rescaling():
    rng = np.random.default_rng(8)
    adj = random_connected_graph(rng, 12)
    a = nl.eigenvector_centrality(adj)
    b = nl.eigenvector_centrality(3.7 * adj)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_centrality_bipartite_converges():
    # bipartite graphs have a symmetric spectrum; the shifted iteration still converges
    adj = np.zeros((5, 5))
    adj[0, 3] = adj[3, 0] = 1.0
    adj[1, 3] = adj[3, 1] = 0.5
    adj[2, 4] = adj[4, 2] = 0.7
    adj[1, 4] = adj[4, 1] = 0.3
    scores = nl.eigenvector_centrality(adj)
    vals, vecs = np.linalg.eigh(adj)
    lead = np.abs(vecs[:, -1])
    comps = nl._components(adj)
    assert len(comps) == 1
    np.testing.assert_allclose(scores, lead / lead.max(), atol=1e-8)


def test_centrality_disconnected_components_scaled():
    adj = np.zeros((5, 5))
    adj[0, 1] = adj[1, 0] = 1.0
    adj[0, 2] = adj[2, 0] = 1.0  # component of 3
    adj[3, 4] = adj[4, 3] = 1.0  # component of 2
    scores = nl.eigenvector_centrality(adj)
    assert scores[0] == pytest.approx(1.0)
    assert scores[3] == pytest.approx(2.0 / 3.0)  # own-component score times size ratio


# -- network assembly --------------------------------------------------------------------


def planted_hub_data(seed, n=150, n_features=30, n_genes=12, n_driver=10):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    features = rng.standard_normal((n, n_features))
    for j in range(n_driver):
        features[:, j] = 0.8 * u + 0.6 * rng.standard_normal(n)
    risk = u + 0.3 * rng.standard_normal(n)
    genes = rng.standard_normal((n, n_genes))
    genes[:, 0] = 0.9 * u + 0.45 * rng.standard_normal(n)
    rate = 0.05 * np.exp(0.8 * risk)
    times = rng.exponential(1.0 / rate) + 1e-9
    events = (rng.random(n) < 0.85).astype(int)
    return features, risk, genes, times, events


def test_build_network_recovers_planted_hub():
    hits = 0
    for seed in range(10):
        features, risk, genes, times, events = planted_hub_data(seed)
        try:
            result = nl.build_network(features, risk, genes, times, events, seed=seed)
        except EmptyNetworkError:
            continue
        if result.table[0].term == "Gene_0":
            hits += 1
    assert hits >= 9


def test_build_network_schema_and_normalization():
    features, risk, genes, times, events = planted_hub_data(99)
    result = nl.build_network(features, risk, genes, times, events, seed=0)
    top = result.table[0]
    assert top.centrality == 1.0  # exactly, after max-normalization
    assert {r.group for r in result.table} <= {"Gene", "Extractor Channel"}
    assert all(r.degree >= 1 for r in result.table)
    assert all(
        (e.node_a in {r.term for r in result.table}) and (e.node_b in {r.term for r in result.table})
        for e in result.cross_edges
    )
    assert all(e.node_b == nl.RISK_NODE for e in result.feature_risk_edges)
    # table sorted by descending centrality
    cents = [r.centrality for r in result.table]
    assert cents == sorted(cents, reverse=True)


def test_build_network_empty_when_no_signal():
    rng = np.random.default_rng(11)
    n = 60
    features = rng.standard_normal((n, 10))
    risk = rng.standard_normal(n)
    genes = rng.standard_normal((n, 5))
    times = rng.exponential(10, n) + 0.01
    events = np.ones(n, dtype=int)
    with pytest.raises(EmptyNetworkError):
        nl.build_network(features, risk, genes, times, events, seed=0)


def test_a_constant_feature_column_changes_nothing():
    features, risk, genes, times, events = planted_hub_data(0)
    base = nl.build_network(features, risk, genes, times, events, seed=0)
    more = nl.build_network(np.column_stack([features, np.full(features.shape[0], 2.5)]),
                            risk, genes, times, events, seed=0)
    assert more.table == base.table
    assert more.cross_edges == base.cross_edges
    assert more.feature_risk_edges == base.feature_risk_edges
    assert more.screened_features == base.screened_features
    assert more.enet.beta.tobytes() == base.enet.beta.tobytes()
    # a non-driver column made constant leaves the planted hub on top
    features[:, 20] = 1.0
    assert nl.build_network(features, risk, genes, times, events, seed=0).table[0].term == "Gene_0"


# -- gene screen ---------------------------------------------------------------------


def per_gene_cox(times, events, genes):
    """(beta, se, p) of one coxph_fit per column, NaN where the fit raises."""
    out = np.full((3, genes.shape[1]), np.nan)
    for j in range(genes.shape[1]):
        try:
            fit = ss.coxph_fit(times, events, genes[:, [j]])
        except (ConvergenceError, DataError):
            continue
        out[:, j] = fit.beta[0], fit.se[0], fit.wald_p[0]
    return out


def with_awkward_genes(times, genes, seed):
    """``genes`` plus columns whose own fits raise or nearly do: constant,
    NaN, infinite, separating (monotone likelihood), one whose estimate lies
    beyond COX_BETA_MAX, and near-separating ones."""
    rng = np.random.default_rng(seed)
    lead = -np.log(times)  # the highest value dies first: a separating column
    near = [lead + s * rng.standard_normal(times.size) for s in (0.05, 0.3, 1.0)]
    extra = [np.full(times.size, 3.0), np.where(np.arange(times.size) == 2, np.nan, 1.0),
             np.where(np.arange(times.size) == 5, np.inf, lead), lead, near[0] / 20.0, *near]
    return np.column_stack([genes, *extra])


def screen_draws():
    """(times, events, genes): planted hub, whole-day ties, monotone draws, and
    no events (every gene's fit raises)."""
    features, risk, genes, times, events = planted_hub_data(5)
    yield "hub", times, events, with_awkward_genes(times, genes, 0)
    yield "no-events", times, np.zeros_like(events), genes
    days = np.ceil(times / 4.0)  # many subjects share a day
    yield "tied", days, events, with_awkward_genes(days, genes, 1)
    rng = np.random.default_rng(2)
    n = 90
    t = np.sort(rng.exponential(10.0, n)) + 0.01
    e = (rng.random(n) < 0.7).astype(int)
    ranks = np.arange(n, dtype=np.float64)
    monotone = [ranks[::-1], ranks, np.exp(-ranks / 30.0), (ranks < n // 2).astype(float)]
    yield "monotone", t, e, np.column_stack([*monotone, rng.standard_normal((n, 3))])


@pytest.mark.parametrize("budget", [None, 1, 40_000])
def test_gene_screen_matches_one_coxph_fit_per_gene(monkeypatch, budget):
    if budget is not None:  # blocks of one gene, and of a few genes
        monkeypatch.setattr(ss, "COX_SCREEN_BYTES", budget)
    skipped = set()
    for name, times, events, genes in screen_draws():
        want = per_gene_cox(times, events, genes)
        got = np.array(ss.cox_screen(times, events, genes))
        assert got.shape == want.shape
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=name)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=name)
        skipped |= {(name, j) for j in np.flatnonzero(np.isnan(want[0]))}
    # constant, NaN, inf, separating and beyond-the-bound columns are skipped
    assert {("hub", j) for j in range(12, 17)} <= skipped
    assert ("monotone", 0) in skipped and ("monotone", 1) in skipped
    assert {("no-events", j) for j in range(12)} <= skipped


@pytest.mark.parametrize("defect", ["negative-time", "event-2", "short-times"])
def test_build_network_rejects_malformed_times_and_events(defect):
    features, risk, genes, times, events = planted_hub_data(0)
    if defect == "negative-time":
        times[3] = -1.0
    elif defect == "event-2":
        events[3] = 2
    else:
        times, events = times[:-1], events[:-1]
    with pytest.raises(DataError):
        nl.build_network(features, risk, genes, times, events, seed=0)


@pytest.mark.parametrize("budget", [None, 40_000])
def test_build_network_selects_the_genes_of_per_gene_fits(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(ss, "COX_SCREEN_BYTES", budget)
    for seed in range(4):
        features, risk, genes, times, events = planted_hub_data(seed)
        genes = with_awkward_genes(times, genes, seed)
        beta, _, p = per_gene_cox(times, events, genes)
        want = [f"Gene_{j}" for j in np.flatnonzero((p < nl.GENE_P_MAX) & (np.abs(beta) > 0))]
        result = nl.build_network(features, risk, genes, times, events, seed=seed)
        assert result.prognostic_genes == want


@pytest.mark.parametrize("names, match", [
    pytest.param(dict(gene_names=["G", "G"] + [f"N{i}" for i in range(10)]), "repeated", id="repeated-gene"),
    pytest.param(dict(feature_names=["F", "F"] + [f"X{i}" for i in range(28)]), "repeated", id="repeated-feature"),
    pytest.param(dict(feature_names=["G"] + [f"X{i}" for i in range(29)],
                      gene_names=["G"] + [f"N{i}" for i in range(11)]), "repeated", id="feature-named-as-gene"),
    pytest.param(dict(gene_names=[nl.RISK_NODE] + [f"N{i}" for i in range(11)]), "repeated", id="risk-node-name"),
    pytest.param(dict(gene_names=["A", "B"]), "one name per", id="too-few-gene-names"),
    pytest.param(dict(feature_names=[f"X{i}" for i in range(31)]), "one name per", id="too-many-feature-names"),
])
def test_build_network_rejects_names_that_do_not_label_one_node_each(names, match):
    """Each column's name is one node: a shared name would merge two nodes' edges."""
    features, risk, genes, times, events = planted_hub_data(0)
    with pytest.raises(DataError, match=match):
        nl.build_network(features, risk, genes, times, events, seed=0, **names)


def test_network_probe_script_prints_one_line_per_gene_count():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(root / "scripts" / "run_network_probe.py"),
                           "--genes", "5", "12", "--n", "80"],
                          env=env, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["n"], r["genes"]) for r in rows] == [(80, 5), (80, 12)]
    assert all(r["total_s"] > 0 and r["peak_rss_mb"] > 0 and r["top_hub"] for r in rows)

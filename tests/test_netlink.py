import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from tdam import netlink as nl
from tdam.errors import ConvergenceError, DataError, EmptyNetworkError


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

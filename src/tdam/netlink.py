"""Feature/gene network pipeline.

Two screening branches feed one interaction network: (1) extractor channels
are correlated against the model risk score (Spearman + BH-FDR gate) and
compressed with an elastic net; (2) genes are screened by univariable Cox
p-value. Surviving feature-gene pairs become weighted edges, and eigenvector
centrality (power iteration, largest component) ranks the hubs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError, DataError, EmptyNetworkError, UndefinedError
from .rng import substream
from .survstats import coxph_fit

RISK_NODE = "risk_score"


# -- Spearman -----------------------------------------------------------------


def _rank_columns(x: np.ndarray) -> np.ndarray:
    return stats.rankdata(x, axis=0, method="average")


def spearman_matrix(x, y):
    """Average-rank Spearman correlation of every column pair.

    Returns (rho, p) with shape (p, q); p-values use the t approximation on
    rho with n-2 degrees of freedom. Zero-variance columns yield NaN entries.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DataError("samples misaligned between x and y")
    n = x.shape[0]
    if n < 5:
        raise DataError(f"need at least 5 samples for Spearman, have {n}")
    rx = _rank_columns(x)
    ry = _rank_columns(y)
    rx = rx - rx.mean(axis=0)
    ry = ry - ry.mean(axis=0)
    sx = np.sqrt((rx * rx).sum(axis=0))
    sy = np.sqrt((ry * ry).sum(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = (rx.T @ ry) / np.outer(sx, sy)
    rho[~np.isfinite(rho)] = np.nan
    rho = np.clip(rho, -1.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * stats.t.sf(np.abs(t), df=n - 2)
    p[np.isnan(rho)] = np.nan
    p[np.abs(rho) == 1.0] = 0.0
    return rho, p


def bh_fdr(pvals) -> np.ndarray:
    """Benjamini-Hochberg step-up q-values with monotonicity enforcement."""
    p = np.asarray(pvals, dtype=np.float64).reshape(-1)
    if p.size == 0:
        return p.copy()
    finite = p[~np.isnan(p)]
    if finite.size and (np.any(finite < 0) or np.any(finite > 1)):
        raise DataError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    q_sorted = p[order] * m / np.arange(1, m + 1)
    q_sorted = np.minimum.accumulate(q_sorted[::-1])[::-1]
    q_sorted = np.minimum(q_sorted, 1.0)
    q = np.empty(m)
    q[order] = q_sorted
    q[np.isnan(p)] = np.nan
    return q


# -- elastic net -----------------------------------------------------------------


def standardize(x) -> np.ndarray:
    """Columns to mean 0, population sd 1 (what elastic_net_fit expects)."""
    x = np.asarray(x, dtype=np.float64)
    sd = x.std(axis=0)
    if np.any(sd == 0):
        raise DataError("zero-variance column cannot be standardized")
    return (x - x.mean(axis=0)) / sd


def _check_standardized(x: np.ndarray) -> None:
    if np.abs(x.mean(axis=0)).max() > 1e-6 or np.abs(x.std(axis=0) - 1.0).max() > 1e-4:
        raise DataError("X must be standardized (mean 0, sd 1) before the elastic net")


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


def kkt_residual(x, y, beta, lam, alpha) -> float:
    """Max violation of the coordinate-wise stationarity conditions."""
    n = x.shape[0]
    grad = -(x.T @ (y - x @ beta)) / n + lam * (1.0 - alpha) * beta
    res = 0.0
    for j, b in enumerate(beta):
        if b != 0.0:
            res = max(res, abs(grad[j] + lam * alpha * np.sign(b)))
        else:
            res = max(res, max(0.0, abs(grad[j]) - lam * alpha))
    return float(res)


@dataclass
class EnetFit:
    beta: np.ndarray
    lambda_: float
    alpha: float
    kkt: float
    lambdas: np.ndarray | None = None
    cv_mse: np.ndarray | None = None


def elastic_net_fit(
    x,
    y,
    alpha: float = 0.5,
    lambda_: float | None = None,
    n_lambdas: int = 100,
    lambda_min_ratio: float = 1e-3,
    cv_folds: int = 10,
    seed: int = 0,
) -> EnetFit:
    """Elastic net (1/2n)||y - Xb||^2 + lam(alpha |b|_1 + (1-alpha)/2 |b|_2^2).

    ``X`` must be standardized and ``y`` centered. With ``lambda_=None`` the
    penalty is chosen at the minimum of ``cv_folds``-fold CV MSE over a
    log-spaced path from lambda_max down; the chosen lambda gets a tight
    refit so the returned solution satisfies the KKT conditions to ~1e-10.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise DataError("X and y misaligned")
    _check_standardized(x)
    if abs(y.mean()) > 1e-6 * max(1.0, np.abs(y).max()):
        raise DataError("y must be centered")
    if not (0.0 < alpha <= 1.0):
        raise DataError("alpha must lie in (0, 1]")
    n, p = x.shape

    if lambda_ is not None:
        beta = _cd_solve(x, y, float(lambda_), alpha, np.zeros(p))
        return EnetFit(beta=beta, lambda_=float(lambda_), alpha=alpha,
                       kkt=kkt_residual(x, y, beta, float(lambda_), alpha))

    lam_max = np.abs(x.T @ y).max() / (n * alpha)
    if lam_max <= 0:
        raise DataError("X'y vanishes; nothing to fit")
    lambdas = np.geomspace(lam_max, lam_max * lambda_min_ratio, n_lambdas)
    rng = substream(seed, "enet-cv")
    perm = rng.permutation(n)
    folds = [perm[f::cv_folds] for f in range(min(cv_folds, n))]
    cv_mse = np.zeros(lambdas.size)
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        xt, yt = x[mask], y[mask]
        xv, yv = x[fold], y[fold]
        gram, xty = xt.T @ xt, xt.T @ yt
        beta = np.zeros(p)
        for i, lam in enumerate(lambdas):
            beta = _cd_solve(xt, yt, lam, alpha, beta, tol=1e-7, gram=gram, xty=xty)
            resid = yv - xv @ beta
            cv_mse[i] += float(resid @ resid) / yv.size
    cv_mse /= len(folds)
    lam_opt = float(lambdas[int(np.argmin(cv_mse))])
    # warm-start down the path, then polish at the selected lambda
    gram, xty = x.T @ x, x.T @ y
    beta = np.zeros(p)
    for lam in lambdas[lambdas >= lam_opt]:
        beta = _cd_solve(x, y, lam, alpha, beta, tol=1e-7, gram=gram, xty=xty)
    beta = _cd_solve(x, y, lam_opt, alpha, beta, tol=1e-12, gram=gram, xty=xty)
    return EnetFit(beta=beta, lambda_=lam_opt, alpha=alpha,
                   kkt=kkt_residual(x, y, beta, lam_opt, alpha),
                   lambdas=lambdas, cv_mse=cv_mse)


# -- eigenvector centrality ---------------------------------------------------------


def _components(adj: np.ndarray) -> list[np.ndarray]:
    """Connected components of the graph with an edge wherever ``adj > 0``,
    ordered by their smallest node, each as sorted node indices."""
    count, labels = connected_components(csr_matrix(adj > 0), directed=False)
    return [np.flatnonzero(labels == k) for k in range(count)]


def eigenvector_centrality(adjacency, tol: float = 1e-10, max_iter: int = 10_000) -> np.ndarray:
    """Principal-eigenvector scores, max-normalized to 1.

    The power iteration runs on A + I (same eigenvectors, strictly dominant
    top eigenvalue even on bipartite graphs). Scores are computed per
    connected component; nodes outside the largest component are scaled by
    their component-size ratio so the global top score stays exactly 1.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError("adjacency must be square")
    if not np.allclose(a, a.T):
        raise DataError("adjacency must be symmetric")
    if (a < 0).any():
        raise DataError("adjacency weights must be nonnegative")
    n = a.shape[0]
    scores = np.zeros(n)
    comps = sorted(_components(a), key=len, reverse=True)
    largest = len(comps[0])
    for comp in comps:
        sub = a[np.ix_(comp, comp)]
        if len(comp) == 1:
            local = np.ones(1)
        else:
            v = np.full(len(comp), 1.0 / np.sqrt(len(comp)))
            for _ in range(max_iter):
                w = sub @ v + v
                norm = np.linalg.norm(w)
                if norm == 0:
                    break
                w /= norm
                if np.abs(w - v).max() < tol:
                    v = w
                    break
                v = w
            else:
                raise ConvergenceError("power iteration did not converge")
            local = v / v.max()
        scores[comp] = local * (len(comp) / largest)
    return scores


# -- network assembly ------------------------------------------------------------------


@dataclass(frozen=True)
class CorrEdge:
    node_a: str
    node_b: str
    rho: float
    p: float
    q: float


@dataclass(frozen=True)
class CentralityRow:
    term: str
    group: str  # "Gene" or "Extractor Channel"
    degree: int
    centrality: float


@dataclass
class NetworkResult:
    core_features: list[str]
    prognostic_genes: list[str]
    feature_risk_edges: list[CorrEdge]
    cross_edges: list[CorrEdge]
    table: list[CentralityRow]
    enet: EnetFit
    screened_features: list[str] = field(default_factory=list)


def build_network(
    features,
    risk,
    genes,
    times,
    events,
    feature_names: list[str] | None = None,
    gene_names: list[str] | None = None,
    rho_min: float = 0.2,
    fdr_max: float = 0.05,
    gene_p_max: float = 0.01,
    binary_adjacency: bool = False,
    seed: int = 0,
) -> NetworkResult:
    """Run both screening branches and assemble the centrality table.

    Branch 1: |Spearman(feature, risk)| >= rho_min with BH q < fdr_max, then an
    elastic net (alpha 0.5) keeps nonzero-coefficient features. Branch 2:
    univariable Cox per gene at p < gene_p_max with a non-degenerate hazard
    ratio. Cross edges between survivors at the same rho/FDR gate form the
    network scored by eigenvector centrality.
    """
    features = np.asarray(features, dtype=np.float64)
    risk = np.asarray(risk, dtype=np.float64).reshape(-1)
    genes = np.asarray(genes, dtype=np.float64)
    n = risk.size
    if features.shape[0] != n or genes.shape[0] != n:
        raise DataError("features, risk, and genes must share the sample axis")
    if feature_names is None:
        feature_names = [f"Feature_{i}" for i in range(features.shape[1])]
    if gene_names is None:
        gene_names = [f"Gene_{i}" for i in range(genes.shape[1])]

    # branch 1: feature screen against the risk score
    rho_fr, p_fr = spearman_matrix(features, risk.reshape(-1, 1))
    rho_fr, p_fr = rho_fr[:, 0], p_fr[:, 0]
    q_fr = bh_fdr(p_fr)
    screened = np.flatnonzero((np.abs(rho_fr) >= rho_min) & (q_fr < fdr_max))
    if screened.size == 0:
        raise EmptyNetworkError("no feature passed the risk-correlation screen")
    x = standardize(features[:, screened])
    enet = elastic_net_fit(x, risk - risk.mean(), alpha=0.5, seed=seed)
    core_idx = screened[np.flatnonzero(enet.beta != 0.0)]
    if core_idx.size == 0:
        raise EmptyNetworkError("elastic net zeroed every screened feature")
    core_names = [feature_names[i] for i in core_idx]
    feature_risk_edges = [
        CorrEdge(feature_names[i], RISK_NODE, float(rho_fr[i]), float(p_fr[i]), float(q_fr[i]))
        for i in core_idx
    ]

    # branch 2: per-gene univariable Cox screen
    prognostic_idx = []
    for g in range(genes.shape[1]):
        col = genes[:, g]
        if col.std() == 0:
            continue
        try:
            fit = coxph_fit(times, events, col.reshape(-1, 1), [gene_names[g]])
        except (ConvergenceError, DataError, UndefinedError):
            continue
        if fit.wald_p[0] < gene_p_max and abs(fit.beta[0]) > 0:
            prognostic_idx.append(g)
    if not prognostic_idx:
        raise EmptyNetworkError("no gene passed the prognostic screen")
    prog_names = [gene_names[g] for g in prognostic_idx]

    # cross edges between core features and prognostic genes
    rho_fg, p_fg = spearman_matrix(features[:, core_idx], genes[:, prognostic_idx])
    q_fg = bh_fdr(p_fg).reshape(rho_fg.shape)
    cross_edges = []
    for i in range(rho_fg.shape[0]):
        for j in range(rho_fg.shape[1]):
            if np.isnan(rho_fg[i, j]):
                continue
            if abs(rho_fg[i, j]) >= rho_min and q_fg[i, j] < fdr_max:
                cross_edges.append(
                    CorrEdge(core_names[i], prog_names[j], float(rho_fg[i, j]),
                             float(p_fg[i, j]), float(q_fg[i, j]))
                )
    if not cross_edges:
        raise EmptyNetworkError("no feature-gene pair passed the correlation gate")

    nodes = sorted({e.node_a for e in cross_edges} | {e.node_b for e in cross_edges})
    index = {name: i for i, name in enumerate(nodes)}
    adj = np.zeros((len(nodes), len(nodes)))
    degree = dict.fromkeys(nodes, 0)
    for e in cross_edges:
        w = 1.0 if binary_adjacency else abs(e.rho)
        ia, ib = index[e.node_a], index[e.node_b]
        adj[ia, ib] = adj[ib, ia] = w
        degree[e.node_a] += 1
        degree[e.node_b] += 1
    centrality = eigenvector_centrality(adj)
    gene_set = set(prog_names)
    table = [
        CentralityRow(
            term=name,
            group="Gene" if name in gene_set else "Extractor Channel",
            degree=degree[name],
            centrality=float(centrality[index[name]]),
        )
        for name in nodes
    ]
    table.sort(key=lambda r: (-r.centrality, r.term))
    return NetworkResult(
        core_features=core_names,
        prognostic_genes=prog_names,
        feature_risk_edges=feature_risk_edges,
        cross_edges=cross_edges,
        table=table,
        enet=enet,
        screened_features=[feature_names[i] for i in screened],
    )

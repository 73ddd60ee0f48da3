"""Feature/gene network pipeline.

Two screening branches feed one interaction network: (1) extractor channels
are correlated against the model risk score (Spearman + BH-FDR gate) and
compressed with an elastic net; (2) genes are screened by univariable Cox
p-value, all genes in one vectorized Newton. Surviving feature-gene pairs
become weighted edges, and eigenvector centrality (power iteration, largest
component) ranks the hubs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError, DataError, EmptyNetworkError
from .rng import substream
from .survstats import cox_screen
from .survstats import coxph_fit  # noqa: F401  (perfbench/layers.py rebinds netlink.coxph_fit)

RISK_NODE = "risk_score"
RHO_MIN = 0.2
FDR_MAX = 0.05
GENE_P_MAX = 0.01
N_LAMBDAS = 100
LAMBDA_MIN_RATIO = 1e-3
CV_FOLDS = 10
CENTRALITY_TOL = 1e-10
CENTRALITY_MAX_ITER = 10_000
_SPAN_TOL = 1e-9
# Lambdas in the elastic-net path's first stacked solve. The window doubles
# while every lambda in it keeps the active set and starts again after a
# change, whose later rows are wasted: solving every remaining lambda at once
# was slower than one solve per lambda when the active set changed often.
PATH_WINDOW = 8


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
    """Benjamini-Hochberg step-up q-values with monotonicity enforcement.

    A NaN p-value (a zero-variance column's) stays NaN and is not a test:
    only the others are ranked, and m counts only them.
    """
    p = np.asarray(pvals, dtype=np.float64).reshape(-1)
    q = np.full(p.size, np.nan)
    tested = np.flatnonzero(~np.isnan(p))
    finite = p[tested]
    if np.any(finite < 0) or np.any(finite > 1):
        raise DataError("p-values must lie in [0, 1]")
    m = finite.size
    order = np.argsort(finite, kind="stable")
    q_sorted = finite[order] * m / np.arange(1, m + 1)
    q_sorted = np.minimum.accumulate(q_sorted[::-1])[::-1]
    q[tested[order]] = np.minimum(q_sorted, 1.0)
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


def _active_set_solve(g, c, lam, alpha, beta0):
    """Exact elastic-net coefficients at one lambda, with g = X'X/n and c = X'y/n.

    Active-set method of Osborne, Presnell & Turlach (2000), warm-started
    from the active set and signs s of ``beta0``: solve (g_AA + lam(1-alpha)I)
    b_A = c_A - lam alpha s_A. If a coefficient would change sign, step toward
    that solution only as far as the first zero crossing and drop that
    coordinate; else add the worst KKT violator. Without a ridge term, a
    violator whose column lies in the span of the active ones (its Schur
    complement is below _SPAN_TOL of its norm) is exchanged: along the null
    direction of the enlarged block the fit stays and |b|_1 falls, so b
    moves to the first zero crossing, which leaves as the violator enters.
    Every step lowers the objective, so no active set repeats. A violation
    within a few hundred ulps is rounding and stays out, which keeps g_AA
    nonsingular when columns repeat.
    """
    l1, l2 = lam * alpha, lam * (1.0 - alpha)
    beta = beta0.copy()
    active = beta != 0.0
    signs = np.sign(beta)
    for _ in range(10 * (c.size + 1)):
        idx = np.flatnonzero(active)
        if idx.size:
            try:
                target = np.linalg.solve(g[np.ix_(idx, idx)] + l2 * np.eye(idx.size),
                                         c[idx] - l1 * signs[idx])
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"singular active set at lambda={lam:.3e}") from exc
            crossed = target * signs[idx] <= 0.0
            if crossed.any():
                cur = beta[idx]
                frac = cur[crossed] / (cur[crossed] - target[crossed])
                k = int(np.argmin(frac))
                beta[idx] = cur + frac[k] * (target - cur)
                drop = idx[np.flatnonzero(crossed)[k]]
                beta[drop], active[drop], signs[drop] = 0.0, False, 0.0
                continue
            beta[idx] = target
        corr = c - g @ beta
        viol = np.where(active, 0.0, np.abs(corr) - l1)
        j = int(np.argmax(viol))
        if viol[j] <= 256 * np.spacing((np.abs(c) + np.abs(g) @ np.abs(beta)).max()):
            return beta
        s_j = np.sign(corr[j])
        if l2 == 0.0 and idx.size:
            u = np.linalg.solve(g[np.ix_(idx, idx)], g[idx, j])
            if g[j, j] - g[j, idx] @ u <= _SPAN_TOL * g[j, j]:
                move = -s_j * u  # change of b_A per unit |b_j|
                shrink = np.flatnonzero(beta[idx] * move < 0.0)
                if not shrink.size:
                    raise ConvergenceError(f"exchange found no crossing at lambda={lam:.3e}")
                taus = -beta[idx[shrink]] / move[shrink]
                k = int(np.argmin(taus))
                beta[idx] += taus[k] * move
                beta[j] = s_j * taus[k]
                drop = idx[shrink[k]]
                beta[drop], active[drop], signs[drop] = 0.0, False, 0.0
        active[j], signs[j] = True, s_j
    raise ConvergenceError(f"active set did not settle at lambda={lam:.3e}")


def _enet_path(g, c, lambdas, alpha, beta0) -> np.ndarray:
    """Exact coefficients at each lambda in turn, one row each: row i is
    ``_active_set_solve(g, c, lambdas[i], alpha, row i-1)`` bit for bit, with
    row -1 the warm start ``beta0``.

    Along a warm-started path the active set changes at few lambdas
    (Friedman, Hastie & Tibshirani 2010), so the path goes in rounds. Each
    round keeps the warm start's active set A and signs s, solves
    (g_AA + lam(1-alpha)I) b_A = c_A - lam alpha s_A for a window of the
    next lambdas in one stacked solve, and applies ``_active_set_solve``'s
    checks to all of them at once: no sign crossing and no KKT violation
    beyond its rounding gate. A lambda that passes gets exactly what
    ``_active_set_solve`` returns after its first solve. The leading run
    that passes is kept, the first lambda that fails goes to
    ``_active_set_solve``, and the next round starts after it. The window
    starts at PATH_WINDOW lambdas and doubles after a round in which all
    pass. A stacked solve or product gives each slice the bits of its own
    call, which the tests check.
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    path = np.empty((lambdas.size, beta0.size))
    abs_c, abs_g = np.abs(c), np.abs(g)
    beta, k, width = beta0, 0, PATH_WINDOW
    while k < lambdas.size:
        l1, l2 = lambdas[k:k + width] * alpha, lambdas[k:k + width] * (1.0 - alpha)
        active = beta != 0.0
        idx = np.flatnonzero(active)
        cand = np.repeat(beta[None], l1.size, axis=0)  # copies keep the zeros' sign bits
        passed = np.ones(l1.size, dtype=bool)
        if idx.size:
            signs = np.sign(beta[idx])
            a = g[np.ix_(idx, idx)] + l2[:, None, None] * np.eye(idx.size)
            try:
                target = np.linalg.solve(a, (c[idx] - l1[:, None] * signs)[..., None])[..., 0]
            except np.linalg.LinAlgError:  # a singular system: the exact solver decides
                passed[:] = False
            else:
                passed = (target * signs > 0.0).all(axis=1)
                cand[:, idx] = target
        with np.errstate(over="ignore", invalid="ignore"):  # rows that fail are dropped
            corr = c - np.matmul(g, cand[..., None])[..., 0]
            viol = np.where(active, 0.0, np.abs(corr) - l1[:, None])
            gate = 256 * np.spacing((abs_c + np.matmul(abs_g, np.abs(cand)[..., None])[..., 0]).max(axis=1))
            passed &= viol.max(axis=1) <= gate
        run = int(np.argmin(passed)) if not passed.all() else passed.size
        path[k:k + run] = cand[:run]
        k += run
        if run < passed.size:
            path[k] = _active_set_solve(g, c, lambdas[k], alpha, path[k - 1] if k else beta0)
            k += 1
        width = 2 * width if run == passed.size else PATH_WINDOW
        beta = path[k - 1]
    return path


def kkt_residual(x, y, beta, lam, alpha) -> float:
    """Largest violation of the elastic-net KKT conditions (stationarity)."""
    n = x.shape[0]
    grad = -(x.T @ (y - x @ beta)) / n + lam * (1.0 - alpha) * beta
    active = beta != 0.0
    res_active = np.abs(grad + lam * alpha * np.sign(beta))[active]
    res_zero = np.maximum(np.abs(grad) - lam * alpha, 0.0)[~active]
    return float(np.concatenate([res_active, res_zero, [0.0]]).max())


@dataclass
class EnetFit:
    beta: np.ndarray
    lambda_: float
    alpha: float
    kkt: float
    lambdas: np.ndarray | None = None
    cv_mse: np.ndarray | None = None


def elastic_net_fit(x, y, alpha: float = 0.5, lambda_: float | None = None, seed: int = 0) -> EnetFit:
    """Elastic net (1/2n)||y - Xb||^2 + lam(alpha |b|_1 + (1-alpha)/2 |b|_2^2).

    ``X`` must be standardized and ``y`` centered. Each lambda is solved
    exactly by an active-set method warm-started from the previous lambda,
    so the returned solution meets the KKT conditions to rounding. With
    ``lambda_=None`` the penalty is chosen at the minimum of CV_FOLDS-fold
    CV MSE over N_LAMBDAS log-spaced values from lambda_max down to
    LAMBDA_MIN_RATIO * lambda_max. Each fold's path and the full-data path
    down to the chosen lambda are solved by ``_enet_path`` in stacked
    solves, with the bits of one ``_active_set_solve`` per lambda, and each
    fold scores all its lambdas in one stacked product.
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
    g, c = x.T @ x / n, x.T @ y / n

    if lambda_ is not None:
        beta = _active_set_solve(g, c, float(lambda_), alpha, np.zeros(p))
        return EnetFit(beta=beta, lambda_=float(lambda_), alpha=alpha,
                       kkt=kkt_residual(x, y, beta, float(lambda_), alpha))

    lam_max = np.abs(x.T @ y).max() / (n * alpha)
    if lam_max <= 0:
        raise DataError("X'y vanishes; nothing to fit")
    lambdas = np.geomspace(lam_max, lam_max * LAMBDA_MIN_RATIO, N_LAMBDAS)
    rng = substream(seed, "enet-cv")
    perm = rng.permutation(n)
    folds = [perm[f::CV_FOLDS] for f in range(min(CV_FOLDS, n))]
    cv_mse = np.zeros(lambdas.size)
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        xt, yt = x[mask], y[mask]
        xv, yv = x[fold], y[fold]
        g_t, c_t = xt.T @ xt / yt.size, xt.T @ yt / yt.size
        path = _enet_path(g_t, c_t, lambdas, alpha, np.zeros(p))
        resid = yv - np.matmul(xv, path[..., None])[..., 0]
        cv_mse += np.matmul(resid[:, None, :], resid[..., None])[:, 0, 0] / yv.size
    cv_mse /= len(folds)
    lam_opt = float(lambdas[int(np.argmin(cv_mse))])
    beta = _enet_path(g, c, lambdas[lambdas >= lam_opt], alpha, np.zeros(p))[-1]
    return EnetFit(beta=beta, lambda_=lam_opt, alpha=alpha,
                   kkt=kkt_residual(x, y, beta, lam_opt, alpha),
                   lambdas=lambdas, cv_mse=cv_mse)


# -- eigenvector centrality ---------------------------------------------------------


def _components(adj: np.ndarray) -> list[np.ndarray]:
    """Connected components of the graph with an edge wherever ``adj > 0``,
    ordered by their smallest node, each as sorted node indices."""
    count, labels = connected_components(csr_matrix(adj > 0), directed=False)
    return [np.flatnonzero(labels == k) for k in range(count)]


def eigenvector_centrality(adjacency) -> np.ndarray:
    """Principal-eigenvector scores, max-normalized to 1.

    The power iteration runs on A + I (same eigenvectors, strictly dominant
    top eigenvalue even on bipartite graphs) until no score moves by
    CENTRALITY_TOL, for at most CENTRALITY_MAX_ITER steps. Scores are
    computed per connected component; nodes outside the largest component
    are scaled by their component-size ratio so the global top score stays
    exactly 1.
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
            for _ in range(CENTRALITY_MAX_ITER):
                w = sub @ v + v
                norm = np.linalg.norm(w)
                if norm == 0:
                    break
                w /= norm
                if np.abs(w - v).max() < CENTRALITY_TOL:
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
    binary_adjacency: bool = False,
    seed: int = 0,
) -> NetworkResult:
    """Run both screening branches and assemble the centrality table.

    Branch 1: |Spearman(feature, risk)| >= RHO_MIN with BH q < FDR_MAX, then an
    elastic net (alpha 0.5) keeps nonzero-coefficient features; a constant
    feature has no rho and is not a test. Branch 2: univariable Cox per gene
    at p < GENE_P_MAX with a non-degenerate hazard ratio, all genes in one
    vectorized Newton (``survstats.cox_screen``); a gene whose own
    ``coxph_fit`` would raise (constant, non-finite, monotone likelihood) is
    skipped. Cross edges between survivors at the same rho/FDR gate form the
    network scored by eigenvector centrality. Malformed times or events
    raise DataError.
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
    if len(feature_names) != features.shape[1] or len(gene_names) != genes.shape[1]:
        raise DataError("need one name per feature column and one per gene column")
    repeated = sorted(name for name, k in Counter([*feature_names, *gene_names, RISK_NODE]).items() if k > 1)
    if repeated:  # each name is one network node, and RISK_NODE is the risk score's
        raise DataError(f"feature and gene names must be distinct and not {RISK_NODE!r}; repeated: {repeated}")

    # branch 1: feature screen against the risk score
    rho_fr, p_fr = spearman_matrix(features, risk.reshape(-1, 1))
    rho_fr, p_fr = rho_fr[:, 0], p_fr[:, 0]
    q_fr = bh_fdr(p_fr)
    screened = np.flatnonzero((np.abs(rho_fr) >= RHO_MIN) & (q_fr < FDR_MAX))
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

    # branch 2: univariable Cox screen of every gene at once
    gene_beta, _, gene_p = cox_screen(times, events, genes)
    prognostic_idx = np.flatnonzero((gene_p < GENE_P_MAX) & (np.abs(gene_beta) > 0))
    if not prognostic_idx.size:
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
            if abs(rho_fg[i, j]) >= RHO_MIN and q_fg[i, j] < FDR_MAX:
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

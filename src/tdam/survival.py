"""Discrete-time survival machinery.

Continuous follow-up times are discretized into four bins at the quartiles
of the uncensored event times. The model emits one logit per bin; sigmoid
logits are per-bin hazards, survival is the running product of (1 - hazard),
and the scalar risk score is the negated sum of the four survival values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .autodiff import Tensor
from .bags import Cohort
from .errors import InsufficientEventsError, UndefinedError

N_BINS = 4
_LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class BinEdges:
    """Quartile cut points (25/50/75%) of the uncensored event times."""

    edges: tuple[float, float, float]

    def __post_init__(self):
        e = self.edges
        if len(e) != 3 or not all(np.isfinite(e)):
            raise ValueError(f"need 3 finite edges, got {e}")
        if not (e[0] <= e[1] <= e[2]):
            raise ValueError(f"edges must be non-decreasing, got {e}")


@dataclass(frozen=True)
class RiskOutput:
    logits: np.ndarray
    hazards: np.ndarray
    survival: np.ndarray
    risk: float

    @classmethod
    def from_logits(cls, logits) -> "RiskOutput":
        logits = np.asarray(logits, dtype=np.float64).reshape(-1)
        if logits.shape != (N_BINS,):
            raise ValueError(f"expected {N_BINS} logits, got shape {logits.shape}")
        hazards = special.expit(logits)
        survival = np.cumprod(1.0 - hazards)
        return cls(logits=logits, hazards=hazards, survival=survival, risk=float(-survival.sum()))


def compute_bin_edges(cohort: Cohort) -> BinEdges:
    """Quartiles (linear-interpolation quantiles) of uncensored event times."""
    times = np.array([r.time for r in cohort.records if r.event == 1], dtype=np.float64)
    if times.size < 4:
        raise InsufficientEventsError(f"need at least 4 events to place quartiles, have {times.size}")
    q = np.quantile(times, [0.25, 0.5, 0.75], method="linear")
    return BinEdges(edges=(float(q[0]), float(q[1]), float(q[2])))


def assign_bin(time: float, edges: BinEdges) -> int:
    """Bin index = number of edges strictly below ``time`` (ties go low)."""
    return int(np.searchsorted(np.asarray(edges.edges), time, side="left"))


def risk_score(logits) -> float:
    return RiskOutput.from_logits(logits).risk


def survival_nll(logits, bin_index, censored) -> float:
    """Censoring-aware negative log-likelihood of the discrete hazards.

    With S_{-1} = 1: L = -c log S_Y - (1-c)(log S_{Y-1} + log h_Y), where
    c = 1 marks a censored record. Accepts a single record (logits shape
    (4,)) or a batch (shape (B, 4)); batches return the mean loss.
    """
    logits = np.asarray(logits, dtype=np.float64)
    single = logits.ndim == 1
    logits = np.atleast_2d(logits)
    y = np.atleast_1d(np.asarray(bin_index, dtype=np.int64))
    c = np.atleast_1d(np.asarray(censored, dtype=np.float64))
    if np.any((y < 0) | (y >= N_BINS)):
        raise ValueError("bin index out of range")
    h = special.expit(logits)
    surv = np.cumprod(1.0 - h, axis=1)
    rows = np.arange(logits.shape[0])
    log_s_y = np.log(np.maximum(surv[rows, y], _LOG_CLAMP))
    s_prev = np.where(y > 0, surv[rows, np.maximum(y - 1, 0)], 1.0)
    log_s_prev = np.log(np.maximum(s_prev, _LOG_CLAMP))
    log_h = np.log(np.maximum(h[rows, y], _LOG_CLAMP))
    losses = -c * log_s_y - (1.0 - c) * (log_s_prev + log_h)
    return float(losses[0]) if single else float(losses.mean())


def nll_graph(logits: Tensor, bin_index: int, censored: int) -> Tensor:
    """The same loss as :func:`survival_nll`, built on the autodiff tape.

    Uses the softplus form log(1-h_j) = -softplus(l_j), log h_j =
    -softplus(-l_j), which is exact and never needs clamping.
    """
    flat = logits.reshape(N_BINS)
    loss = None
    if bin_index > 0:
        loss = flat[:bin_index].softplus().sum()
    last = flat[bin_index : bin_index + 1]
    tail = last.softplus().sum() if censored else (-last).softplus().sum()
    return tail if loss is None else loss + tail


# -- concordance --------------------------------------------------------------


# boolean entries per comparison block: rows * n stays near 4M
_BLOCK = 1 << 22


def _concordance_counts(risks, times, events, horizon=None):
    """(concordant, tied, total) over pairs t_i < t_j with event_i = 1.

    Compares a block of ``_BLOCK // n`` event rows with every subject at
    once. Risks are compared by rank among the distinct risks, so a NaN
    risk ranks above every number and ties with other NaNs.
    """
    risks = np.asarray(risks, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.int64)
    if not (risks.shape == times.shape == events.shape):
        raise ValueError("risks, times, events must share a shape")
    ranks = np.searchsorted(np.unique(risks), risks)
    keep = events == 1
    if horizon is not None:
        keep &= times < horizon
    rows = np.flatnonzero(keep)
    step = max(1, _BLOCK // max(1, times.size))
    concordant = tied = total = 0
    for start in range(0, rows.size, step):
        i = rows[start : start + step]
        later = times > times[i, None]
        concordant += int(np.count_nonzero(later & (ranks < ranks[i, None])))
        tied += int(np.count_nonzero(later & (ranks == ranks[i, None])))
        total += int(np.count_nonzero(later))
    return concordant, tied, total


def concordance_index(risks, times, events) -> float:
    """Harrell's C: fraction of comparable pairs ordered correctly by risk.

    Pairs (i, j) with t_i < t_j and event_i = 1 are comparable; the pair is
    concordant when risk_i > risk_j, and risk ties count one half. Raises
    ``UndefinedError`` when no pair is comparable.
    """
    concordant, tied, total = _concordance_counts(risks, times, events)
    if total == 0:
        raise UndefinedError("no comparable pair")
    return float((concordant + 0.5 * tied) / total)


@dataclass(frozen=True)
class CindexPoint:
    horizon: float
    cindex: float | None
    n_pairs: int
    omitted: bool


def time_dependent_cindex(risks, times, events, horizons) -> list[CindexPoint]:
    """C restricted to comparable pairs whose event time precedes each horizon."""
    horizons = list(horizons)
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly ascending")
    out = []
    for tau in horizons:
        concordant, tied, total = _concordance_counts(risks, times, events, horizon=tau)
        if total == 0:
            out.append(CindexPoint(float(tau), None, 0, True))
        else:
            out.append(CindexPoint(float(tau), float((concordant + 0.5 * tied) / total), total, False))
    return out

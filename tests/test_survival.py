import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdam import survival
from tdam.autodiff import Tensor
from tdam.bags import Cohort, SurvivalRecord
from tdam.errors import InsufficientEventsError, UndefinedError


def cohort_from(times, events):
    recs = [SurvivalRecord(f"P{i}", float(t), int(e)) for i, (t, e) in enumerate(zip(times, events))]
    return Cohort(records=recs)


# -- bins ---------------------------------------------------------------------


def test_bin_edges_quartiles():
    c = cohort_from([1, 2, 3, 4], [1, 1, 1, 1])
    edges = survival.compute_bin_edges(c)
    assert edges.edges == (1.75, 2.5, 3.25)


def test_bin_edges_ignore_censored():
    c = cohort_from([1, 2, 3, 4, 99, 98], [1, 1, 1, 1, 0, 0])
    assert survival.compute_bin_edges(c).edges == (1.75, 2.5, 3.25)


def test_bin_edges_degenerate_equal_times():
    c = cohort_from([5, 5, 5, 5], [1, 1, 1, 1])
    assert survival.compute_bin_edges(c).edges == (5.0, 5.0, 5.0)


def test_bin_edges_insufficient_events():
    c = cohort_from([1, 2, 3, 4], [0, 0, 0, 1])
    with pytest.raises(InsufficientEventsError):
        survival.compute_bin_edges(c)


def test_assign_bin_counting_rule():
    edges = survival.BinEdges((1.75, 2.5, 3.25))
    assert survival.assign_bin(2.0, edges) == 1
    assert survival.assign_bin(2.5, edges) == 1  # tie goes to the lower bin
    assert survival.assign_bin(100.0, edges) == 3
    assert survival.assign_bin(0.5, edges) == 0


# -- loss and risk ------------------------------------------------------------


def test_nll_uncensored_bin0():
    logits = np.array([0.0, 0.0, 0.0, 0.0])
    assert survival.survival_nll(logits, 0, 0) == pytest.approx(math.log(2), rel=1e-12)


def test_nll_censored_bin0():
    logits = np.array([0.0, 0.0, 0.0, 0.0])
    assert survival.survival_nll(logits, 0, 1) == pytest.approx(-math.log(0.5), rel=1e-12)


def test_nll_perfect_prediction_limit():
    logits = np.array([40.0, 0.0, 0.0, 0.0])  # h0 -> 1
    assert survival.survival_nll(logits, 0, 0) < 1e-12


def test_nll_batch_mean():
    logits = np.zeros((2, 4))
    single = survival.survival_nll(logits[0], 0, 0)
    batch = survival.survival_nll(logits, [0, 0], [0, 0])
    assert batch == pytest.approx(single)


def test_nll_graph_matches_numpy():
    rng = np.random.default_rng(0)
    for y in range(4):
        for c in (0, 1):
            logits = rng.standard_normal(4)
            got = survival.nll_graph(Tensor(logits.copy()), y, c).data
            want = survival.survival_nll(logits, y, c)
            assert got == pytest.approx(want, rel=1e-10)


def test_risk_all_zero_logits():
    out = survival.RiskOutput.from_logits(np.zeros(4))
    np.testing.assert_allclose(out.survival, [0.5, 0.25, 0.125, 0.0625])
    assert out.risk == -0.9375


def test_risk_limits():
    assert survival.risk_score(np.full(4, 50.0)) == pytest.approx(0.0, abs=1e-12)
    assert survival.risk_score(np.full(4, -50.0)) == pytest.approx(-4.0, abs=1e-12)
    assert -4 < survival.risk_score(np.zeros(4)) < 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-6, 6), min_size=4, max_size=4))
def test_risk_bounds_and_hazard_monotonicity(logit_list):
    logits = np.array(logit_list)
    base = survival.risk_score(logits)
    assert -4.0 < base < 0.0
    for j in range(4):
        bumped = logits.copy()
        bumped[j] += 1e-3
        assert survival.risk_score(bumped) > base  # raising any hazard raises risk


# -- concordance ---------------------------------------------------------------


def brute_force_cindex(risks, times, events, horizon=None):
    num = den = 0.0
    n = len(risks)
    for i in range(n):
        if events[i] != 1:
            continue
        if horizon is not None and times[i] >= horizon:
            continue
        for j in range(n):
            if times[j] > times[i]:
                den += 1
                if risks[i] > risks[j]:
                    num += 1
                elif risks[i] == risks[j]:
                    num += 0.5
    return None if den == 0 else num / den


def test_cindex_perfect_ranking():
    assert survival.concordance_index([3, 2, 1], [2, 4, 6], [1, 1, 1]) == 1.0


def test_cindex_with_risk_tie():
    got = survival.concordance_index([3, 3, 1], [2, 4, 6], [1, 1, 1])
    assert got == pytest.approx(2.5 / 3)


def test_cindex_reversed():
    assert survival.concordance_index([1, 2, 3], [2, 4, 6], [1, 1, 1]) == 0.0


def test_cindex_no_comparable_pairs():
    with pytest.raises(UndefinedError):
        survival.concordance_index([1, 2], [5, 5], [1, 1])


def test_cindex_streaming_equals_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        times = rng.integers(1, 12, size=n).astype(float)  # many ties
        events = rng.integers(0, 2, size=n)
        risks = np.round(rng.standard_normal(n), 1)  # risk ties too
        expect = brute_force_cindex(risks, times, events)
        if expect is None:
            with pytest.raises(UndefinedError):
                survival.concordance_index(risks, times, events)
        else:
            got = survival.concordance_index(risks, times, events)
            assert got == pytest.approx(expect, abs=1e-12)


# The Fenwick-tree counter that _concordance_counts used before the blocked
# comparison, kept verbatim as the reference its counts must equal exactly.
class _Fenwick:
    def __init__(self, n: int):
        self.tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, i: int) -> None:
        i += 1
        while i < len(self.tree):
            self.tree[i] += 1
            i += i & (-i)

    def prefix(self, i: int) -> int:
        # count of inserted ranks <= i
        total = 0
        i += 1
        while i > 0:
            total += self.tree[i]
            i -= i & (-i)
        return int(total)


def _concordance_counts(risks, times, events, horizon=None):
    """(concordant, tied, total) over pairs t_i < t_j with event_i = 1.

    Streams subjects in decreasing time order through a Fenwick tree over
    risk ranks, so each event subject is compared against everyone with a
    strictly larger time in O(log n).
    """
    risks = np.asarray(risks, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.int64)
    if not (risks.shape == times.shape == events.shape):
        raise ValueError("risks, times, events must share a shape")
    uniq = np.unique(risks)
    ranks = np.searchsorted(uniq, risks)
    order = np.argsort(-times, kind="stable")
    tree = _Fenwick(len(uniq))
    inserted = 0
    concordant = tied = 0.0
    total = 0
    i = 0
    n = len(order)
    while i < n:
        j = i
        while j < n and times[order[j]] == times[order[i]]:
            j += 1
        group = order[i:j]
        for idx in group:
            if events[idx] == 1 and (horizon is None or times[idx] < horizon) and inserted:
                # everyone already inserted has a strictly larger time
                below = tree.prefix(ranks[idx] - 1) if ranks[idx] > 0 else 0
                at = tree.prefix(ranks[idx]) - below
                concordant += below
                tied += at
                total += inserted
        for idx in group:
            tree.add(ranks[idx])
        inserted += len(group)
        i = j
    return concordant, tied, total


def test_blocked_counts_equal_the_fenwick_counts():
    rng = np.random.default_rng(11)
    draws = []
    for _ in range(200):
        n = int(rng.integers(1, 60))
        draws.append((np.round(rng.standard_normal(n), 1), rng.integers(1, 12, size=n).astype(float),
                      rng.integers(0, 2, size=n)))
    n = 3000  # more event rows than one block holds
    draws.append((np.round(rng.standard_normal(n), 2), rng.integers(1, 400, size=n).astype(float),
                  (rng.random(n) < 0.7).astype(int)))
    assert draws[-1][2].sum() > survival._BLOCK // n
    for risks, times, events in draws:
        for horizon in (None, 3.0, 6.0, 200.0):
            want = _concordance_counts(risks, times, events, horizon)
            assert survival._concordance_counts(risks, times, events, horizon) == want


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 25), seed=st.integers(0, 10**6))
@example(n=4, seed=275)
@example(n=4, seed=168)
@example(n=4, seed=655)
@example(n=9, seed=0)
def test_cindex_invariant_under_monotone_transform(n, seed):
    rng = np.random.default_rng(seed)
    risks = rng.standard_normal(n)
    times = rng.exponential(10, size=n) + 0.1
    events = rng.integers(0, 2, size=n)
    events[np.argmin(times)] = 1  # earliest subject pairs with all others, so the C-index is defined
    c1 = survival.concordance_index(risks, times, events)
    c2 = survival.concordance_index(np.exp(3 * risks) + 7, times, events)
    assert c1 == pytest.approx(c2, abs=1e-12)


def test_time_dependent_cindex_brackets():
    risks = [3.0, 2.0, 1.0, 0.5]
    times = [2.0, 4.0, 6.0, 8.0]
    events = [1, 1, 0, 1]
    full = survival.concordance_index(risks, times, events)
    pts = survival.time_dependent_cindex(risks, times, events, [1.0, 5.0, 100.0])
    assert pts[0].omitted  # before the first event time
    assert pts[2].cindex == pytest.approx(full)  # beyond max time equals Harrell C
    assert pts[1].cindex == pytest.approx(brute_force_cindex(risks, times, events, horizon=5.0))


def test_time_dependent_cindex_random_vs_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(4, 30))
        times = rng.integers(1, 15, size=n).astype(float)
        events = rng.integers(0, 2, size=n)
        risks = np.round(rng.standard_normal(n), 1)
        for tau in (3.0, 8.0, 20.0):
            expect = brute_force_cindex(risks, times, events, horizon=tau)
            (pt,) = survival.time_dependent_cindex(risks, times, events, [tau])
            if expect is None:
                assert pt.omitted
            else:
                assert pt.cindex == pytest.approx(expect, abs=1e-12)

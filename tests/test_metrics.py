from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvsc.errors import ValidationError
from mvsc.metrics import (
    METRIC_FIELDS,
    EvaluationReport,
    accuracy,
    _min_cost_assignment,
    aggregate,
    avgent,
    contingency_table,
    evaluate,
    format_mean_std,
    nmi,
    pairwise_scores,
    parse_mean_std,
)


def brute_force_accuracy(pred, truth):
    """Exhaustive search over one-to-one cluster-class mappings."""
    pl = {v: i for i, v in enumerate(sorted(set(pred)))}
    tl = {v: i for i, v in enumerate(sorted(set(truth)))}
    m = max(len(pl), len(tl))
    C = np.zeros((m, m), dtype=int)
    for p, t in zip(pred, truth):
        C[pl[p], tl[t]] += 1
    best = max(sum(C[i, perm[i]] for i in range(m)) for perm in permutations(range(m)))
    return best / len(pred)


def pair_loop_scores(pred, truth):
    """Quadruple (f, precision, recall, ri) by explicit pair enumeration."""
    n = len(pred)
    tp = fp = fn = tn = 0
    for i in range(n):
        for j in range(i + 1, n):
            sp = pred[i] == pred[j]
            stv = truth[i] == truth[j]
            if sp and stv:
                tp += 1
            elif sp:
                fp += 1
            elif stv:
                fn += 1
            else:
                tn += 1
    prec = tp / (tp + fp) if tp + fp else 1.0
    rec = tp / (tp + fn) if tp + fn else 1.0
    f = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    ri = (tp + tn) / (tp + fp + fn + tn)
    return f, prec, rec, ri


def test_contingency_counts():
    C = contingency_table([0, 0, 1, 1], [0, 1, 1, 1])
    np.testing.assert_array_equal(C, [[1, 1], [0, 2]])
    assert C.sum() == 4


def test_accuracy_trivials():
    assert accuracy([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0
    # renaming clusters cannot change the score
    assert accuracy([2, 0, 1, 2], [0, 1, 2, 0]) == 1.0


def test_accuracy_six_sample_case():
    pred = [0, 0, 0, 1, 1, 1]
    truth = [0, 0, 1, 1, 1, 1]
    assert accuracy(pred, truth) == pytest.approx(5 / 6)
    assert brute_force_accuracy(pred, truth) == pytest.approx(5 / 6)


def test_accuracy_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        cp = int(rng.integers(1, 6))
        ct = int(rng.integers(1, 6))
        pred = rng.integers(0, cp, n)
        truth = rng.integers(0, ct, n)
        assert accuracy(pred, truth) == pytest.approx(
            brute_force_accuracy(pred, truth)
        )


def test_min_cost_assignment_matches_brute_force():
    # small value ranges make ties between optimal assignments common;
    # half the tables are rectangular, zero-padded the way accuracy pads
    rng = np.random.default_rng(4)
    for trial in range(300):
        m = int(rng.integers(1, 7))
        rows, cols = (m, m) if trial % 2 else (m, int(rng.integers(1, m + 1)))
        cost = np.zeros((m, m))
        cost[:rows, :cols] = -rng.integers(0, int(rng.integers(1, 10)), (rows, cols))
        assignment = _min_cost_assignment(cost)
        assert sorted(assignment) == list(range(m))
        best = min(sum(cost[i, p[i]] for i in range(m)) for p in permutations(range(m)))
        assert cost[np.arange(m), assignment].sum() == best


def test_min_cost_assignment_matches_scipy():
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(6)
    for _ in range(200):
        m = int(rng.integers(1, 13))
        cost = -rng.integers(0, int(rng.integers(1, 60)), (m, m)).astype(float)
        rows, cols = linear_sum_assignment(cost)
        ours = _min_cost_assignment(cost)
        assert cost[np.arange(m), ours].sum() == cost[rows, cols].sum()


def test_accuracy_symmetric_for_equal_cluster_counts():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pred = rng.integers(0, 3, 15)
        truth = rng.integers(0, 3, 15)
        assert accuracy(pred, truth) == pytest.approx(accuracy(truth, pred))


def test_accuracy_length_mismatch():
    with pytest.raises(ValidationError):
        accuracy([0, 1], [0, 1, 2])


def test_nmi_identical():
    assert nmi([0, 1, 0, 1], [1, 0, 1, 0]) == 1.0


def test_nmi_single_cluster_convention():
    # zero-entropy prediction against a balanced 2-class truth
    assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0
    # both degenerate and identical as partitions
    assert nmi([3, 3, 3], [7, 7, 7]) == 1.0


def test_nmi_independent_partitions():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_hand_fixture_all_normalizations():
    pred, truth = [0, 0, 1, 1], [0, 1, 1, 1]
    assert nmi(pred, truth) == pytest.approx(0.3455920299442113, abs=1e-10)
    assert nmi(pred, truth, "arithmetic") == pytest.approx(
        0.3437110184854508, abs=1e-10
    )
    assert nmi(pred, truth, "max") == pytest.approx(0.31127812445913283, abs=1e-10)


def test_nmi_rejects_unknown_normalization():
    with pytest.raises(ValidationError):
        nmi([0, 1], [0, 1], "harmonic")


def test_pairwise_trivials():
    f, p, r, ri = pairwise_scores([0, 1, 0, 2], [0, 1, 0, 2])
    assert (f, p, r, ri) == (1.0, 1.0, 1.0, 1.0)
    # all singletons versus one big cluster
    f, p, r, ri = pairwise_scores([0, 1, 2, 3], [0, 0, 0, 0])
    assert p == 1.0 and r == 0.0 and f == 0.0 and ri == 0.0


def test_pairwise_matches_pair_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        pred = rng.integers(0, 4, n)
        truth = rng.integers(0, 4, n)
        got = pairwise_scores(pred, truth)
        expect = pair_loop_scores(list(pred), list(truth))
        assert got == pytest.approx(expect, abs=1e-12)


def test_pairwise_needs_two_samples():
    with pytest.raises(ValidationError):
        pairwise_scores([0], [0])


def test_rand_index_one_iff_identical_partition():
    assert pairwise_scores([0, 0, 1, 1], [5, 5, 2, 2])[3] == 1.0
    assert pairwise_scores([0, 0, 1, 1], [0, 1, 0, 1])[3] < 1.0


def test_avgent_pure_clusters():
    assert avgent([0, 0, 1, 1], [4, 4, 9, 9]) == 0.0


def test_avgent_fair_coin():
    # every predicted cluster is a 50/50 class mixture -> exactly one bit
    assert avgent([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_avgent_hand_case():
    # single cluster with a 3/1 class split
    assert avgent([0, 0, 0, 0], [1, 1, 1, 2]) == pytest.approx(
        0.8112781244591328, abs=1e-10
    )


def test_avgent_weights_by_cluster_size():
    # cluster 0: 2 samples pure; cluster 1: 2 samples 50/50
    val = avgent([0, 0, 1, 1], [0, 0, 0, 1])
    assert val == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=2, max_size=20),
    st.integers(0, 2**31 - 1),
)
# one class: the float-summed marginal of the renamed pair is 1 - 1ulp
@example(truth=[0] * 6, seed=5)
def test_all_metrics_invariant_under_relabeling(truth, seed):
    rng = np.random.default_rng(seed)
    n = len(truth)
    pred = rng.integers(0, 4, n)
    # bijective renamings of both sides
    pmap = rng.permutation(5)
    tmap = rng.permutation(5)
    pred2 = pmap[pred]
    truth2 = tmap[np.asarray(truth)]
    r1 = evaluate(pred, truth)
    r2 = evaluate(pred2, truth2)
    for name in METRIC_FIELDS:
        assert getattr(r1, name) == pytest.approx(getattr(r2, name), abs=1e-12)


def test_evaluate_report_ranges():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pred = rng.integers(0, 3, 12)
        truth = rng.integers(0, 3, 12)
        rep = evaluate(pred, truth)
        for name in ("nmi", "acc", "f_score", "precision", "rand_index"):
            assert 0.0 <= getattr(rep, name) <= 1.0
        assert 0.0 <= rep.avgent <= np.log2(3) + 1e-12


def test_aggregate_mean_std():
    reports = [
        EvaluationReport(nmi=0.9, acc=0.8, f_score=0.7, avgent=0.1, precision=0.6, rand_index=0.5),
        EvaluationReport(nmi=0.7, acc=0.6, f_score=0.5, avgent=0.3, precision=0.4, rand_index=0.3),
    ]
    mean, std = aggregate(reports)
    assert mean.nmi == pytest.approx(0.8)
    assert std.nmi == pytest.approx(0.1)
    assert mean.avgent == pytest.approx(0.2)
    with pytest.raises(ValidationError):
        aggregate([])


def test_format_parse_round_trip():
    cell = format_mean_std(0.95474, 0.00341)
    assert cell == "0.9547(0.0034)"
    mean, std = parse_mean_std(cell)
    assert mean == pytest.approx(0.9547, abs=1e-12)
    assert std == pytest.approx(0.0034, abs=1e-12)
    # values already at table precision survive unchanged
    m2, s2 = parse_mean_std(format_mean_std(mean, std))
    assert (m2, s2) == (mean, std)


def test_parse_mean_std_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_mean_std("0.9547")
    with pytest.raises(ValidationError):
        parse_mean_std("nope(")

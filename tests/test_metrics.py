import dataclasses

import numpy as np
import pytest

from dirlink.metrics import MetricsReport, accuracy, ap, auc, hits_at_k, mrr


def _oracle_rank(pos_score, neg):
    """Pessimistic competition rank: 1 + number of negatives scoring >= pos."""
    return 1 + int(np.sum(neg >= pos_score))


def _oracle_hits(pos, neg, k):
    return 100.0 * np.mean([_oracle_rank(p, neg) <= k for p in pos])


def _oracle_mrr(pos, neg):
    return 100.0 * np.mean([1.0 / _oracle_rank(p, neg) for p in pos])


def _oracle_auc(pos, neg):
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return 100.0 * wins / (len(pos) * len(neg))


def _oracle_ap(pos, neg):
    """Precision-weighted recall increments over descending score thresholds."""
    scores = np.concatenate([pos, neg])
    labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    result = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        sel = scores >= t
        tp = labels[sel].sum()
        precision = tp / sel.sum()
        recall = tp / len(pos)
        result += (recall - prev_recall) * precision
        prev_recall = recall
    return 100.0 * result


def _instances(seed, count=100):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        npos = int(rng.integers(1, 40))
        nneg = int(rng.integers(1, 60))
        if rng.random() < 0.5:
            # heavy ties: quantized scores
            pos = rng.integers(0, 5, size=npos).astype(float)
            neg = rng.integers(0, 5, size=nneg).astype(float)
        else:
            pos = rng.standard_normal(npos)
            neg = rng.standard_normal(nneg)
        yield pos, neg


def test_hits_and_mrr_match_sort_oracle():
    for pos, neg in _instances(20):
        for k in (1, 3, 20):
            assert hits_at_k(pos, neg, k) == pytest.approx(_oracle_hits(pos, neg, k))
        assert mrr(pos, neg) == pytest.approx(_oracle_mrr(pos, neg))


def test_auc_matches_pairwise_oracle():
    for pos, neg in _instances(21):
        # U is a sum of halves, exact in float64 on either side
        assert auc(pos, neg) == _oracle_auc(pos, neg)


def test_ap_matches_threshold_sweep_oracle():
    for pos, neg in _instances(22):
        assert ap(pos, neg) == pytest.approx(_oracle_ap(pos, neg), abs=1e-10)


def test_ties_rank_positives_below_negatives():
    pos = np.array([1.0])
    neg = np.array([1.0, 1.0, 0.0])
    # two equal negatives push the positive to rank 3
    assert hits_at_k(pos, neg, 2) == 0.0
    assert hits_at_k(pos, neg, 3) == 100.0
    assert mrr(pos, neg) == pytest.approx(100.0 / 3.0)
    assert auc(pos, neg) == pytest.approx(100.0 * (0.5 + 0.5 + 1.0) / 3.0)


def test_hand_worked_example():
    pos = np.array([3.0, 1.0])
    neg = np.array([2.0, 0.0])
    # ranks: 1 and 2
    assert hits_at_k(pos, neg, 1) == 50.0
    assert hits_at_k(pos, neg, 2) == 100.0
    assert mrr(pos, neg) == pytest.approx(100.0 * (1.0 + 0.5) / 2)
    assert auc(pos, neg) == pytest.approx(75.0)
    assert accuracy(pos, neg) == pytest.approx(75.0)  # 2 pos > 0, 1 neg <= 0


def test_ap_hand_worked_with_positives_tied_to_each_other_and_to_a_negative():
    pos = np.array([3.0, 2.0, 2.0, 0.0])
    neg = np.array([2.0, 1.0])
    # precision at each positive's score, tp / (tp + fp): at 3 it is 1/1; at
    # the two tied 2s, 3 positives and the tied negative are at or above, 3/4;
    # at 0 everything is, 4/6
    assert ap(pos, neg) == pytest.approx(100.0 * (1.0 + 0.75 + 0.75 + 4.0 / 6.0) / 4)
    assert ap(pos, neg) == pytest.approx(_oracle_ap(pos, neg), abs=1e-12)
    # the tied pair counts half for AUC: (2 + 1.5 + 1.5 + 0) / 8
    assert auc(pos, neg) == 62.5
    # and ranks the tied positives second for MRR
    assert mrr(pos, neg) == pytest.approx(100.0 * (1.0 + 0.5 + 0.5 + 1.0 / 3.0) / 4)


def test_perfect_and_inverted_separation():
    pos = np.array([5.0, 4.0])
    neg = np.array([1.0, 2.0])
    assert auc(pos, neg) == 100.0
    assert ap(pos, neg) == 100.0
    assert mrr(pos, neg) == 100.0
    assert auc(neg - 10, pos) == 0.0


def test_accuracy_zero_threshold_ties_count_negative():
    assert accuracy(np.array([0.0]), np.array([0.0])) == pytest.approx(50.0)
    assert accuracy(np.array([0.1]), np.array([-0.1])) == 100.0


def test_ap_constant_scores_equals_positive_fraction():
    pos = np.ones(3)
    neg = np.ones(7)
    assert ap(pos, neg) == pytest.approx(30.0)


def test_validation_errors():
    good = np.array([1.0])
    with pytest.raises(ValueError):
        hits_at_k(np.array([]), good, 5)
    with pytest.raises(ValueError):
        auc(good, np.array([]))
    with pytest.raises(ValueError):
        mrr(np.array([np.nan]), good)
    with pytest.raises(ValueError):
        hits_at_k(good, good, 0)


def test_report_from_scores_consistent_with_functions():
    rng = np.random.default_rng(23)
    pos = rng.standard_normal(150)
    neg = rng.standard_normal(300)
    rep = MetricsReport.from_scores(pos, neg)
    assert rep.hits20 == pytest.approx(hits_at_k(pos, neg, 20))
    assert rep.hits50 == pytest.approx(hits_at_k(pos, neg, 50))
    assert rep.hits100 == pytest.approx(hits_at_k(pos, neg, 100))
    assert rep.mrr == pytest.approx(mrr(pos, neg))
    assert rep.auc == pytest.approx(auc(pos, neg))
    assert rep.ap == pytest.approx(ap(pos, neg))
    assert rep.acc == pytest.approx(accuracy(pos, neg))
    d = dataclasses.asdict(rep)
    assert tuple(d) == MetricsReport.FIELDS
    assert all(0.0 <= v <= 100.0 for v in d.values())

"""Ranking and classification metrics for link prediction, all as percentages.

Every positive is ranked against one shared negative pool.  Ties are handled
pessimistically for Hits@K and MRR (a tied negative counts as ranked above
the positive), with the standard 0.5 convention for AUC.  Inputs are raw
scores; only accuracy interprets them as pre-sigmoid logits with the decision
threshold at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _validate(pos_scores, neg_scores):
    pos = np.asarray(pos_scores, dtype=np.float64).reshape(-1)
    neg = np.asarray(neg_scores, dtype=np.float64).reshape(-1)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("metrics need at least one positive and one negative score")
    if np.isnan(pos).any() or np.isnan(neg).any():
        raise ValueError("scores contain NaN")
    return pos, neg


def _ranks(pos, neg):
    # rank = 1 + #{negatives >= positive}; ties count as greater (pessimistic)
    neg_sorted = np.sort(neg)
    geq = len(neg) - np.searchsorted(neg_sorted, pos, side="left")
    return 1 + geq


def hits_at_k(pos_scores, neg_scores, k):
    """Percentage of positives whose rank against the shared negatives is <= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pos, neg = _validate(pos_scores, neg_scores)
    return 100.0 * np.mean(_ranks(pos, neg) <= k)


def mrr(pos_scores, neg_scores):
    """Mean reciprocal rank of each positive against the shared negatives, x100."""
    pos, neg = _validate(pos_scores, neg_scores)
    return 100.0 * np.mean(1.0 / _ranks(pos, neg))


def auc(pos_scores, neg_scores):
    """Probability that a positive outranks a negative, ties counting 0.5, x100.

    Computed in O((M+N) log(M+N)) from midranks of the pooled scores:
    AUC = (sum of positive midranks - M(M+1)/2) / (M*N).
    """
    pos, neg = _validate(pos_scores, neg_scores)
    m, n = len(pos), len(neg)
    pooled = np.concatenate([pos, neg])
    uniq, inv = np.unique(pooled, return_inverse=True)
    counts = np.bincount(inv, minlength=len(uniq)).astype(np.float64)
    below = np.concatenate([[0.0], np.cumsum(counts)[:-1]])
    midrank = below + (counts + 1.0) / 2.0
    pos_rank_sum = midrank[inv[:m]].sum()
    return 100.0 * (pos_rank_sum - m * (m + 1) / 2.0) / (m * n)


def ap(pos_scores, neg_scores):
    """Average precision: sum of precision-weighted recall increments, x100.

    Thresholds sweep the distinct pooled scores in descending order with tied
    scores grouped, so AP = sum_i (R_i - R_{i-1}) * P_i.
    """
    pos, neg = _validate(pos_scores, neg_scores)
    m = len(pos)
    pos_sorted = np.sort(pos)
    neg_sorted = np.sort(neg)
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    tp = m - np.searchsorted(pos_sorted, thresholds, side="left")
    fp = len(neg) - np.searchsorted(neg_sorted, thresholds, side="left")
    precision = tp / (tp + fp)
    recall = tp / m
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return 100.0 * np.sum((recall - prev_recall) * precision)


def accuracy(pos_scores, neg_scores):
    """(TP + TN) / total, x100: predict an edge iff sigmoid(logit) > 0.5.

    A logit of exactly zero sits on the threshold and is classified negative.
    """
    pos, neg = _validate(pos_scores, neg_scores)
    correct = np.sum(pos > 0.0) + np.sum(neg <= 0.0)
    return 100.0 * correct / (len(pos) + len(neg))


@dataclass
class MetricsReport:
    """The seven benchmark metrics, each a percentage in [0, 100]."""

    hits20: float
    hits50: float
    hits100: float
    mrr: float
    auc: float
    ap: float
    acc: float

    FIELDS = ("hits20", "hits50", "hits100", "mrr", "auc", "ap", "acc")

    @classmethod
    def from_scores(cls, pos_scores, neg_scores):
        return cls(
            hits20=hits_at_k(pos_scores, neg_scores, 20),
            hits50=hits_at_k(pos_scores, neg_scores, 50),
            hits100=hits_at_k(pos_scores, neg_scores, 100),
            mrr=mrr(pos_scores, neg_scores),
            auc=auc(pos_scores, neg_scores),
            ap=ap(pos_scores, neg_scores),
            acc=accuracy(pos_scores, neg_scores),
        )

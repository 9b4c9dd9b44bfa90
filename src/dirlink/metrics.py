"""Ranking and classification metrics for link prediction, all as percentages.

Every positive is ranked against one shared negative pool, and the four rank
metrics read one count: the negatives below each positive, and for AUC also
those tied with it.  A tie ranks the positive below the negative for Hits@K,
MRR and AP's precision, and counts half for AUC.  Inputs are raw scores;
only accuracy interprets them as pre-sigmoid logits with the decision
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


def _below(keys, ref, ties=False):
    """How many entries of ref fall below each key, and with ``ties`` also
    how many equal it."""
    ref = np.sort(ref)
    below = np.searchsorted(ref, keys, side="left")
    if not ties:
        return below
    return below, np.searchsorted(ref, keys, side="right") - below


def hits_at_k(pos_scores, neg_scores, k):
    """Percentage of positives whose rank against the shared negatives is <= k.

    A positive's rank is 1 + the negatives at or above it."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pos, neg = _validate(pos_scores, neg_scores)
    return 100.0 * np.mean(1 + len(neg) - _below(pos, neg) <= k)


def mrr(pos_scores, neg_scores):
    """Mean reciprocal rank of each positive against the shared negatives, x100."""
    pos, neg = _validate(pos_scores, neg_scores)
    return 100.0 * np.mean(1.0 / (1 + len(neg) - _below(pos, neg)))


def auc(pos_scores, neg_scores):
    """Probability that a positive outranks a negative, ties counting 0.5, x100.

    The Mann-Whitney U over M*N: U sums, over the positives, the negatives
    below each plus half those tied with it.
    """
    pos, neg = _validate(pos_scores, neg_scores)
    # sorted keys make searchsorted's binary searches cheap; the sums are exact
    below, tied = _below(np.sort(pos), neg, ties=True)
    return 100.0 * (below.sum() + 0.5 * tied.sum()) / (len(pos) * len(neg))


def ap(pos_scores, neg_scores):
    """Average precision, x100: the mean over positives of the precision at
    each one's score, tp / (tp + fp), counting the positives (tp) and the
    negatives (fp) at or above it."""
    pos, neg = _validate(pos_scores, neg_scores)
    pos = np.sort(pos)
    tp = len(pos) - _below(pos, pos)
    fp = len(neg) - _below(pos, neg)
    return 100.0 * np.mean(tp / (tp + fp))


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

"""Benchmark task setup: edge splitting, negative sampling, feature inputs.

The split keeps the training graph weakly connected by pinning one directed
edge per spanning connection of the underlying undirected graph into the
train set; test and validation positives are drawn uniformly from whatever
remains removable.  Evaluation negatives are sampled with the full graph
visible; training negatives exclude only training edges, so held-out
positives stay eligible (excluding them would leak test labels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import (
    DataError,
    DirectedGraph,
    degrees,
    member,
    read_pairs,
    run_starts,
    save_edge_list,
    spanning_forest,
)

DEFAULT_RATIOS = (0.80, 0.05, 0.15)
DEFAULT_SEEDS = tuple(range(10))
FEATURE_MODES = ("original", "degrees", "random")
_DISCONNECTED = "split requires a weakly connected graph; run preprocess first"


@dataclass
class SplitBundle:
    """One benchmark split: positives by role, fixed evaluation negatives,
    the seed that produced it, and the training graph built from train_pos."""

    train_pos: np.ndarray
    val_pos: np.ndarray
    test_pos: np.ndarray
    val_neg: np.ndarray
    test_neg: np.ndarray
    seed: int
    train_graph: DirectedGraph


@dataclass
class FeatureInit:
    """Feature input choice: the dataset's own features (the matrix
    ``original``), train-graph degrees, or standard-normal noise of width dim
    drawn with seed 0."""

    mode: str = "degrees"
    dim: int = 64
    original: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in FEATURE_MODES:
            raise ValueError(f"unknown feature mode {self.mode!r}")


def split_edges(g, seed=0):
    """Split g's edges 80/5/15 into train/val/test (DEFAULT_RATIOS) keeping
    the train graph weakly connected.

    Holdout sizes use floor rounding: |test| = floor(0.15 * m),
    |val| = floor(0.05 * m), remainder to train.  Raises if the holdout
    cannot be reached without disconnecting the training graph.
    """
    _, r_val, r_test = DEFAULT_RATIOS
    m = g.edge_count
    # n nodes need n - 1 edges to connect: say so before any array of length n
    if g.n > m + 1:
        raise DataError(_DISCONNECTED)
    # the epsilon keeps exact products like 0.15*500 from flooring to 74
    n_val = int(np.floor(r_val * m + 1e-9))
    n_test = int(np.floor(r_test * m + 1e-9))

    root = np.random.SeedSequence(seed)
    shuffle_ss, neg_ss = root.spawn(2)
    order = np.random.default_rng(shuffle_ss).permutation(m)
    shuffled = g.edges[order]

    tree = np.flatnonzero(spanning_forest(g.n, shuffled[:, 0], shuffled[:, 1])[0])
    if len(tree) != g.n - 1:
        raise DataError(_DISCONNECTED)
    # one directed edge per undirected spanning connection stays in train;
    # with both directions present the lexicographic smaller wins, which is
    # the reverse exactly when its source is the smaller node
    keys = g.edge_keys()
    tu, tv = shuffled[tree, 0], shuffled[tree, 1]
    rev = np.minimum(np.searchsorted(keys, tv * g.n + tu), m - 1)
    use_rev = (tv < tu) & (keys[rev] == tv * g.n + tu)
    position = np.empty(m, dtype=np.int64)
    position[order] = np.arange(m)
    pinned = np.zeros(m, dtype=bool)
    pinned[np.where(use_rev, position[rev], tree)] = True

    removable = np.flatnonzero(~pinned)
    if n_test + n_val > len(removable):
        raise DataError(
            f"cannot hold out {n_test + n_val} edges without disconnecting the "
            f"training graph; at most {len(removable)} of {m} are removable"
        )
    test_idx = removable[:n_test]
    val_idx = removable[n_test : n_test + n_val]
    held = np.zeros(m, dtype=bool)
    held[test_idx] = True
    held[val_idx] = True

    test_pos = shuffled[test_idx]
    val_pos = shuffled[val_idx]
    train_pos = shuffled[~held]

    negs = sample_eval_negatives(g, n_test + n_val, neg_ss)
    return SplitBundle(
        train_pos=train_pos,
        val_pos=val_pos,
        test_pos=test_pos,
        val_neg=negs[n_test:],
        test_neg=negs[:n_test],
        seed=seed,
        train_graph=DirectedGraph(g.n, train_pos),
    )


def _sample_non_edges(n, count, excluded_keys, rng):
    """count distinct ordered pairs (u, v), u != v, whose key u*n+v is not in
    the sorted array excluded_keys.

    Sparse regime: pairs are drawn in batches and kept in draw order, each
    the first draw of its key that is neither excluded nor picked before."""
    available = n * (n - 1) - len(excluded_keys)
    if count > available:
        raise DataError(f"requested {count} negatives but only {available} non-edges exist")
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    if count * 2 > available:
        # dense regime: enumerate the complement and draw without replacement
        all_keys = np.arange(n * n, dtype=np.int64)
        diag = np.arange(n, dtype=np.int64) * (n + 1)
        bad = np.union1d(excluded_keys, diag)
        pool = np.setdiff1d(all_keys, bad, assume_unique=True)
        chosen = rng.choice(pool, size=count, replace=False)
        return np.stack([chosen // n, chosen % n], axis=1)
    picked = []
    taken = np.empty(0, dtype=np.int64)  # sorted keys of the picked pairs
    need = count
    while need:
        cand = rng.integers(0, n, size=(max(2 * need, 256), 2), dtype=np.int64)
        cand = cand[cand[:, 0] != cand[:, 1]]
        keys = cand[:, 0] * n + cand[:, 1]
        order = np.argsort(keys)
        starts = np.flatnonzero(run_starts(keys[order]))
        # each distinct key once, sorted, which keeps the searches cache-friendly
        distinct = keys[order[starts]]
        first_draw = np.minimum.reduceat(order, starts)
        fresh = ~(member(distinct, excluded_keys) | member(distinct, taken))
        first = np.sort(first_draw[fresh])[:need]
        picked.append(cand[first])
        taken = np.sort(np.concatenate([taken, keys[first]]))
        need -= len(first)
    return np.concatenate(picked)


def sample_eval_negatives(g_full, count, seed):
    """Uniform negative pairs sampled with the full graph visible.

    Excludes every edge of g_full and all self-loops; reverse directions of
    true edges remain eligible.  `seed` may be an int or a numpy SeedSequence.
    """
    rng = np.random.default_rng(seed)
    return _sample_non_edges(g_full.n, count, g_full.edge_keys(), rng)


def sample_train_negatives(train_graph, count, seed, strategy="per_run", epoch=0):
    """Training negatives: uniform pairs outside the TRAIN edge set only.

    Held-out positives are deliberately eligible; only the training graph is
    visible at sampling time.  per_run ignores the epoch; per_epoch derives
    an independent stream from (seed, epoch).
    """
    if strategy == "per_run":
        entropy = [int(seed)]
    elif strategy == "per_epoch":
        entropy = [int(seed), int(epoch)]
    else:
        raise ValueError(f"unknown negative sampling strategy {strategy!r}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    return _sample_non_edges(train_graph.n, count, train_graph.edge_keys(), rng)


def init_features(init, train_graph):
    """Materialize the feature matrix for one split.

    degrees mode returns exactly the two columns [out_deg, in_deg] of the
    training graph (no self-loops, no held-out information); random mode is
    standard normal drawn with seed 0; original passes init.original through.
    """
    if init.mode == "original":
        if init.original is None:
            raise DataError("feature mode 'original' requires a feature matrix")
        feats = np.asarray(init.original, dtype=np.float64)
        if feats.shape[0] != train_graph.n:
            raise DataError(f"feature rows ({feats.shape[0]}) != node count ({train_graph.n})")
        return feats
    if init.mode == "degrees":
        out_deg, in_deg = degrees(train_graph)
        return np.stack([out_deg, in_deg], axis=1).astype(np.float64)
    return np.random.default_rng(0).standard_normal((train_graph.n, init.dim))


def save_split(directory, bundle):
    """Write one split as a directory of edge-list files plus a meta file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_edge_list(directory / "train.txt", bundle.train_pos)
    save_edge_list(directory / "val_pos.txt", bundle.val_pos)
    save_edge_list(directory / "val_neg.txt", bundle.val_neg)
    save_edge_list(directory / "test_pos.txt", bundle.test_pos)
    save_edge_list(directory / "test_neg.txt", bundle.test_neg)
    m = len(bundle.train_pos) + len(bundle.val_pos) + len(bundle.test_pos)
    with open(directory / "meta", "w", encoding="utf-8") as fh:
        fh.write(f"n = {bundle.train_graph.n}\n")
        fh.write(f"m = {m}\n")
        fh.write(f"seed = {bundle.seed}\n")
        fh.write(f"ratios = {','.join(map(repr, DEFAULT_RATIOS))}\n")


def load_split(directory):
    directory = Path(directory)
    meta = {}
    with open(directory / "meta", encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                key, val = line.split("=", 1)
                meta[key.strip()] = val.strip()
    n = int(meta["n"])
    train_pos = read_pairs(directory / "train.txt")
    return SplitBundle(
        train_pos=train_pos,
        val_pos=read_pairs(directory / "val_pos.txt"),
        test_pos=read_pairs(directory / "test_pos.txt"),
        val_neg=read_pairs(directory / "val_neg.txt"),
        test_neg=read_pairs(directory / "test_neg.txt"),
        seed=int(meta["seed"]),
        train_graph=DirectedGraph(n, train_pos),
    )

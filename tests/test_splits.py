import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from dirlink.graph import DataError, DirectedGraph
from dirlink.splits import (
    FeatureInit,
    _sample_non_edges,
    init_features,
    load_split,
    sample_eval_negatives,
    sample_train_negatives,
    save_split,
    split_edges,
)
from helpers import (kruskal_pins, run_under_memory_bound, sample_non_edges_loop,
                     weakly_connected_random_graph)


def _keys(pairs, n):
    return set(int(u) * n + int(v) for u, v in pairs)


def _is_weakly_connected(g):
    if g.edge_count == 0:
        return g.n == 1
    a = sp.coo_matrix((np.ones(g.edge_count), (g.edges[:, 0], g.edges[:, 1])), shape=(g.n, g.n))
    ncomp, _ = connected_components(a, directed=True, connection="weak")
    return ncomp == 1


def test_floor_rule_sizes():
    rng = np.random.default_rng(30)
    g = weakly_connected_random_graph(rng, 40, p=0.35)
    m = g.edge_count
    bundle = split_edges(g, seed=0)
    assert len(bundle.test_pos) == int(np.floor(0.15 * m + 1e-9))
    assert len(bundle.val_pos) == int(np.floor(0.05 * m + 1e-9))
    assert len(bundle.train_pos) == m - len(bundle.test_pos) - len(bundle.val_pos)


def test_floor_rule_exact_products_do_not_truncate():
    # 0.15 * 500 is 74.999... in binary; the split must still hold out 75
    rng = np.random.default_rng(31)
    while True:
        g = weakly_connected_random_graph(rng, 60, p=0.13)
        if g.edge_count >= 500:
            break
    g = DirectedGraph(g.n, g.edges[:500])
    while not _is_weakly_connected(g):  # trimming may disconnect; rebuild
        rng2 = np.random.default_rng(int(rng.integers(1 << 30)))
        g = weakly_connected_random_graph(rng2, 60, p=0.13)
        g = DirectedGraph(g.n, g.edges[:500]) if g.edge_count >= 500 else g
    assert g.edge_count == 500
    bundle = split_edges(g, seed=3)
    assert len(bundle.test_pos) == 75
    assert len(bundle.val_pos) == 25


def test_split_partitions_edges_exactly():
    rng = np.random.default_rng(32)
    g = weakly_connected_random_graph(rng, 30, p=0.2)
    bundle = split_edges(g, seed=1)
    n = g.n
    train = _keys(bundle.train_pos, n)
    val = _keys(bundle.val_pos, n)
    test = _keys(bundle.test_pos, n)
    assert not (train & val) and not (train & test) and not (val & test)
    assert train | val | test == _keys(g.edges, n)


def test_train_graph_stays_weakly_connected_across_seeds():
    rng = np.random.default_rng(33)
    g = weakly_connected_random_graph(rng, 50, p=0.1)
    for seed in range(10):
        bundle = split_edges(g, seed=seed)
        assert _is_weakly_connected(bundle.train_graph)
        assert bundle.train_graph.n == g.n


def test_split_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(34)
    g = weakly_connected_random_graph(rng, 25, p=0.25)
    a = split_edges(g, seed=5)
    b = split_edges(g, seed=5)
    assert np.array_equal(a.train_pos, b.train_pos)
    assert np.array_equal(a.test_neg, b.test_neg)
    c = split_edges(g, seed=6)
    assert not np.array_equal(a.test_pos, c.test_pos)


def test_split_pins_match_kruskal_oracle():
    # connected graphs with reciprocal pairs: the held-out edges are the first
    # unpinned ones in shuffled order, pins as a union-find pass keeps them
    rng = np.random.default_rng(41)
    sizes = [int(k) for k in rng.integers(3, 80, size=12)] + [5000]
    for n in sizes:
        perm = rng.permutation(n)
        path = np.stack([perm[:-1], perm[1:]], axis=1)
        extra = rng.integers(0, n, size=(3 * n, 2))
        extra = extra[extra[:, 0] != extra[:, 1]]
        e = np.concatenate([path, extra, extra[: n, ::-1], path[: n // 2, ::-1]])
        g = DirectedGraph(n, e)
        for seed in range(2):
            bundle = split_edges(g, seed=seed)
            shuffle_ss, _ = np.random.SeedSequence(seed).spawn(2)
            shuffled = g.edges[np.random.default_rng(shuffle_ss).permutation(g.edge_count)]
            _, pinned = kruskal_pins(n, shuffled)
            removable = np.flatnonzero(~pinned)
            n_test, n_val = len(bundle.test_pos), len(bundle.val_pos)
            assert np.array_equal(bundle.test_pos, shuffled[removable[:n_test]])
            assert np.array_equal(bundle.val_pos, shuffled[removable[n_test : n_test + n_val]])
            assert np.array_equal(bundle.train_pos,
                                  np.delete(shuffled, removable[: n_test + n_val], axis=0))


class _CountingRng:
    """Delegates integers() to a numpy Generator and counts the batches drawn."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.batches = 0

    def integers(self, *args, **kwargs):
        self.batches += 1
        return self.rng.integers(*args, **kwargs)


def test_sparse_sampler_matches_loop_oracle():
    # half the pairs excluded and count at the sparse-regime limit, so each
    # batch leaves many pairs unpicked and the sampler draws again
    rng = np.random.default_rng(42)
    for n, seed in [(40, 0), (40, 1), (41, 2), (120, 3)]:
        keys = np.sort(rng.choice(n * n, size=n * n // 2, replace=False))
        excluded = keys[keys // n != keys % n]
        count = (n * (n - 1) - len(excluded)) // 2
        ours_rng, ref_rng = _CountingRng(seed), _CountingRng(seed)
        ours = _sample_non_edges(n, count, excluded, ours_rng)
        ref = sample_non_edges_loop(n, count, excluded, ref_rng)
        assert np.array_equal(ours, ref)
        assert ours_rng.batches == ref_rng.batches >= 3
    # nothing excluded, many repeated draws
    ours = _sample_non_edges(30, 400, np.empty(0, dtype=np.int64), _CountingRng(5))
    ref = sample_non_edges_loop(30, 400, np.empty(0, dtype=np.int64), _CountingRng(5))
    assert np.array_equal(ours, ref)


def test_split_rejects_unreachable_holdout():
    # a directed path is a spanning tree: every edge is pinned
    n = 30
    path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    g = DirectedGraph(n, path)
    with pytest.raises(DataError, match="removable"):
        split_edges(g, seed=0)


def test_split_requires_connected_input():
    g = DirectedGraph(4, [[0, 1], [2, 3]])
    with pytest.raises(DataError, match="weakly connected"):
        split_edges(g, seed=0)


SPARSE_IDS_CHILD = """
import resource
# an int64 array of one entry per id (16 GB) fails to allocate under this cap,
# before its fill could outrun the watchdog's RSS bound
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
from dirlink import cli
rc = cli.main(["split", "--dataset", {path!r}, "--out", {out!r}, "--seeds", "0"])
print(f"rc={{rc}}", flush=True)
"""


def test_split_of_too_few_edges_for_its_node_count_fails_before_allocating_by_id(tmp_path):
    # 3 edges cannot connect 2e9 + 1 nodes; arrays of length n would need 16 GB each
    path = tmp_path / "raw.txt"
    path.write_text("0 1\n1 2\n2 2000000000\n")
    code = SPARSE_IDS_CHILD.format(path=str(path), out=str(tmp_path / "splits"))
    assert run_under_memory_bound(code, bound_mb=200)["rc"] == "2"
    assert not (tmp_path / "splits" / "seed0").exists()


def test_eval_negatives_avoid_full_edge_set_only():
    rng = np.random.default_rng(35)
    g = weakly_connected_random_graph(rng, 20, p=0.3)
    negs = sample_eval_negatives(g, 60, seed=9)
    assert len(negs) == 60
    assert len(_keys(negs, g.n)) == 60  # distinct
    assert not (_keys(negs, g.n) & _keys(g.edges, g.n))
    assert np.all(negs[:, 0] != negs[:, 1])
    assert negs.min() >= 0 and negs.max() < g.n


def test_eval_negatives_may_be_reverse_edges():
    # complement of this graph contains only reverse directions
    edges = [(u, v) for u in range(3) for v in range(3) if u != v]
    edges.remove((0, 1))
    edges.remove((1, 2))
    g = DirectedGraph(3, edges)
    negs = sample_eval_negatives(g, 2, seed=0)
    assert _keys(negs, 3) == _keys([(0, 1), (1, 2)], 3)


def test_eval_negatives_dense_regime_forced_choice():
    edges = [(u, v) for u in range(4) for v in range(4) if u != v]
    edges.remove((2, 3))
    g = DirectedGraph(4, edges)
    negs = sample_eval_negatives(g, 1, seed=123)
    assert np.array_equal(negs, [[2, 3]])


def test_eval_negatives_infeasible_count():
    edges = [(u, v) for u in range(3) for v in range(3) if u != v]
    g = DirectedGraph(3, edges)
    with pytest.raises(DataError, match="only 0"):
        sample_eval_negatives(g, 1, seed=0)


def test_split_negatives_joint_and_disjoint():
    rng = np.random.default_rng(36)
    g = weakly_connected_random_graph(rng, 40, p=0.2)
    bundle = split_edges(g, seed=2)
    n = g.n
    vn, tn = _keys(bundle.val_neg, n), _keys(bundle.test_neg, n)
    assert len(bundle.val_neg) == len(bundle.val_pos)
    assert len(bundle.test_neg) == len(bundle.test_pos)
    assert not (vn & tn)
    assert not ((vn | tn) & _keys(g.edges, n))


def test_train_negatives_exclude_only_train_edges():
    rng = np.random.default_rng(37)
    g = weakly_connected_random_graph(rng, 12, p=0.5)
    bundle = split_edges(g, seed=4)
    tg = bundle.train_graph
    # enumerate every pair outside the train graph (dense regime)
    total = tg.n * (tg.n - 1) - tg.edge_count
    negs = sample_train_negatives(tg, total, seed=0)
    keys = _keys(negs, tg.n)
    assert not (keys & _keys(bundle.train_pos, tg.n))
    # held-out positives are legitimate training negatives and must be present
    assert _keys(bundle.test_pos, tg.n) <= keys
    assert _keys(bundle.val_pos, tg.n) <= keys


def test_train_negative_strategies():
    g = DirectedGraph(10, [[i, (i + 1) % 10] for i in range(10)])
    a = sample_train_negatives(g, 15, seed=7, strategy="per_run", epoch=0)
    b = sample_train_negatives(g, 15, seed=7, strategy="per_run", epoch=9)
    assert np.array_equal(a, b)
    c = sample_train_negatives(g, 15, seed=7, strategy="per_epoch", epoch=0)
    d = sample_train_negatives(g, 15, seed=7, strategy="per_epoch", epoch=1)
    assert not np.array_equal(c, d)
    e = sample_train_negatives(g, 15, seed=7, strategy="per_epoch", epoch=1)
    assert np.array_equal(d, e)
    with pytest.raises(ValueError):
        sample_train_negatives(g, 5, seed=0, strategy="always")


def test_init_features_modes():
    g = DirectedGraph(4, [[0, 1], [0, 2], [3, 0]])
    feats = init_features(FeatureInit(mode="degrees"), g)
    assert np.array_equal(feats, [[2, 1], [0, 1], [0, 1], [1, 0]])

    r1 = init_features(FeatureInit(mode="random", dim=16), g)
    r2 = init_features(FeatureInit(mode="random", dim=16), g)
    assert r1.shape == (4, 16)
    assert np.array_equal(r1, r2)

    orig = np.eye(4)
    assert np.array_equal(init_features(FeatureInit(mode="original", original=orig), g), orig)
    with pytest.raises(DataError):
        init_features(FeatureInit(mode="original"), g)
    with pytest.raises(DataError):
        init_features(FeatureInit(mode="original", original=np.eye(3)), g)
    with pytest.raises(ValueError):
        FeatureInit(mode="onehot")


def test_random_features_are_standard_normal():
    g = DirectedGraph(600, [[i, (i + 1) % 600] for i in range(600)])
    feats = init_features(FeatureInit(mode="random", dim=64), g)
    assert abs(feats.mean()) < 0.02
    assert abs(feats.std() - 1.0) < 0.02


def test_split_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(38)
    g = weakly_connected_random_graph(rng, 30, p=0.2)
    bundle = split_edges(g, seed=3)
    save_split(tmp_path / "s3", bundle)
    loaded = load_split(tmp_path / "s3")
    for name in ("train_pos", "val_pos", "test_pos", "val_neg", "test_neg"):
        assert np.array_equal(getattr(bundle, name), getattr(loaded, name)), name
    assert loaded.seed == 3
    assert loaded.train_graph.n == g.n
    assert np.array_equal(loaded.train_graph.edges, bundle.train_graph.edges)


def test_load_split_rejects_malformed_file(tmp_path):
    # 40 edges: the 80/5/15 split holds out 2 validation negatives
    g = DirectedGraph(8, [[u, (u + d) % 8] for u in range(8) for d in (1, 2, 3, 5, 6)])
    save_split(tmp_path / "s", split_edges(g, seed=0))
    path = tmp_path / "s" / "val_neg.txt"
    path.write_text(path.read_text() + "12 x 4\n")
    line = len(path.read_text().splitlines())
    with pytest.raises(DataError, match=rf"val_neg\.txt:{line}: expected 'u v'"):
        load_split(tmp_path / "s")
    path.write_text("0 1\n12 99999999999999999999\n")
    with pytest.raises(DataError, match=r"val_neg\.txt:2: node index above"):
        load_split(tmp_path / "s")

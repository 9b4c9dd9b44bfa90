import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from dirlink.graph import (
    CsrMatrix,
    DataError,
    DirectedGraph,
    UnionFind,
    adjacency,
    bipartite_block,
    degrees,
    graph_stats,
    load_edge_list,
    load_features,
    normalize_adj,
    normalize_sym,
    preprocess,
    save_edge_list,
    save_features,
    spmm,
    spmm_t,
    weakly_connected_components,
)
from helpers import random_graph


def test_union_find_merges_and_reports():
    uf = UnionFind(5)
    assert uf.union(0, 1)
    assert uf.union(1, 2)
    assert not uf.union(0, 2)
    assert uf.find(0) == uf.find(2)
    assert uf.find(3) != uf.find(0)


def test_csr_from_coo_sums_duplicates():
    m = CsrMatrix.from_coo(3, 3, [0, 0, 2, 0], [1, 1, 0, 2], [1.0, 2.0, 5.0, 7.0])
    dense = m.to_dense()
    expected = np.zeros((3, 3))
    expected[0, 1] = 3.0
    expected[0, 2] = 7.0
    expected[2, 0] = 5.0
    assert np.array_equal(dense, expected)


def test_csr_matches_scipy_on_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(20):
        r, c = rng.integers(1, 12, size=2)
        k = int(rng.integers(0, r * c + 1))
        rows = rng.integers(0, r, size=k)
        cols = rng.integers(0, c, size=k)
        vals = rng.standard_normal(k)
        ours = CsrMatrix.from_coo(r, c, rows, cols, vals)
        ref = sp.coo_matrix((vals, (rows, cols)), shape=(r, c)).toarray()
        assert np.allclose(ours.to_dense(), ref)
        assert np.allclose(ours.transpose().to_dense(), ref.T)


def test_operator_dies_by_refcount_after_transpose_product():
    # the transpose is cached on the operator but holds no reference back,
    # so dropping the operator frees both without the cyclic collector
    g = random_graph(np.random.default_rng(1), 12)
    x = np.random.default_rng(2).standard_normal((12, 3))
    gc.disable()
    try:
        op = normalize_sym(g)
        t = op.transpose()
        assert op.transpose() is t
        assert np.allclose(spmm_t(op, x), op.to_dense().T @ x)
        refs = [weakref.ref(op), weakref.ref(t)]
        del op, t
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_csr_invariant_violations_rejected():
    with pytest.raises(ValueError):
        CsrMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]), np.ones(2))
    with pytest.raises(ValueError):
        # duplicate column within a row
        CsrMatrix(1, 2, np.array([0, 2]), np.array([1, 1]), np.ones(2))


def test_spmm_agrees_with_dense_product():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 15)))
        x = rng.standard_normal((g.n, 4))
        a = adjacency(g)
        assert np.allclose(spmm(a, x), a.to_dense() @ x)
        assert np.allclose(spmm_t(a, x), a.to_dense().T @ x)


def test_spmm_rejects_wrong_shapes():
    g = DirectedGraph(3, [[0, 1]])
    with pytest.raises(ValueError):
        spmm(adjacency(g), np.zeros((4, 2)))


def test_bipartite_block_layout():
    g = DirectedGraph(3, [[0, 1], [2, 0]])
    a = adjacency(g).to_dense()
    block = bipartite_block(adjacency(g)).to_dense()
    n = g.n
    assert np.array_equal(block[:n, n:], a)
    assert np.array_equal(block[n:, :n], a.T)
    assert not block[:n, :n].any()
    assert not block[n:, n:].any()


def test_directed_graph_dedups_and_sorts():
    g = DirectedGraph(4, [[2, 1], [0, 3], [2, 1]])
    assert np.array_equal(g.edges, [[0, 3], [2, 1]])
    assert g.edge_count == 2
    assert g.has_edge(2, 1)
    assert not g.has_edge(1, 2)


def test_directed_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        DirectedGraph(3, [[0, 0]])
    with pytest.raises(ValueError):
        DirectedGraph(3, [[0, 3]])
    with pytest.raises(ValueError):
        DirectedGraph(0, [])


def test_degrees_and_self_loop_offset():
    g = DirectedGraph(3, [[0, 1], [0, 2], [1, 2]])
    out_deg, in_deg = degrees(g)
    assert np.array_equal(out_deg, [2, 1, 0])
    assert np.array_equal(in_deg, [0, 1, 2])
    out_sl, in_sl = degrees(g, add_self_loops=True)
    assert np.array_equal(out_sl, [3, 2, 1])
    assert np.array_equal(in_sl, [1, 2, 3])


def test_normalize_adj_matches_dense_formula():
    rng = np.random.default_rng(2)
    for alpha, beta in [(0.0, 0.0), (0.5, 0.5), (0.3, 0.8)]:
        g = random_graph(rng, 8)
        a_hat = adjacency(g, self_loops=True).to_dense()
        d_out = a_hat.sum(axis=1)
        d_in = a_hat.sum(axis=0)
        want = np.diag(d_out ** -beta) @ a_hat @ np.diag(d_in ** -alpha)
        assert np.allclose(normalize_adj(g, alpha, beta).to_dense(), want, atol=1e-14)
    g = random_graph(rng, 8)
    assert np.allclose(
        normalize_sym(g).to_dense(), normalize_adj(g, 0.5, 0.5).to_dense(), atol=1e-15
    )


def test_weak_components_match_scipy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 30)), p=0.08)
        ours = weakly_connected_components(g)
        a = sp.coo_matrix(
            (np.ones(g.edge_count), (g.edges[:, 0], g.edges[:, 1])), shape=(g.n, g.n)
        )
        n_ref, ref = connected_components(a, directed=True, connection="weak")
        assert ours.max() + 1 == n_ref
        # same partition, possibly different label names
        for c in range(n_ref):
            members = np.flatnonzero(ref == c)
            assert len(set(ours[members])) == 1


def test_weak_component_labels_first_appearance_order():
    g = DirectedGraph(5, [[3, 4], [0, 1]])
    labels = weakly_connected_components(g)
    assert np.array_equal(labels, [0, 0, 1, 2, 2])


def test_preprocess_keeps_largest_component_and_reindexes():
    # component {0,2,4} has 3 nodes, {1,3} has 2
    g = DirectedGraph(5, [[0, 2], [4, 0], [1, 3]])
    feats = np.arange(10.0).reshape(5, 2)
    kept, kept_feats = preprocess(g, feats)
    assert kept.n == 3
    # order-preserving reindex: 0->0, 2->1, 4->2
    assert np.array_equal(kept.edges, [[0, 1], [2, 0]])
    assert np.array_equal(kept_feats, feats[[0, 2, 4]])


def test_preprocess_component_tie_breaks_by_edges_then_min_node():
    # two 2-node components; second has more edges
    g = DirectedGraph(4, [[0, 1], [2, 3], [3, 2]])
    kept, _ = preprocess(g)
    assert kept.n == 2
    assert np.array_equal(kept.edges, [[0, 1], [1, 0]])
    # equal nodes and edges: earliest component wins
    g = DirectedGraph(4, [[0, 1], [2, 3]])
    kept, _ = preprocess(g)
    assert np.array_equal(kept.edges, [[0, 1]])


def test_preprocess_rejects_edgeless_result():
    with pytest.raises(DataError):
        preprocess(DirectedGraph(3, np.empty((0, 2), dtype=np.int64)))


def test_graph_stats_counts_unreciprocated_edges():
    g = DirectedGraph(3, [[0, 1], [1, 0], [1, 2]])
    stats = graph_stats(g)
    assert stats["n"] == 3
    assert stats["m"] == 3
    assert stats["avg_degree"] == pytest.approx(2.0)
    assert stats["pct_directed"] == pytest.approx(100.0 / 3.0)


def test_edge_list_round_trip(tmp_path):
    path = tmp_path / "g.txt"
    g = DirectedGraph(6, [[0, 5], [3, 1], [2, 4]])
    save_edge_list(path, g.edges, header="toy")
    g2 = load_edge_list(path)
    assert g2.n == 6
    assert np.array_equal(g2.edges, g.edges)


def test_edge_list_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n2\n")
    with pytest.raises(DataError, match="bad.txt:2"):
        load_edge_list(path)
    path.write_text("0 x\n")
    with pytest.raises(DataError, match="non-integer"):
        load_edge_list(path)
    path.write_text("-1 2\n")
    with pytest.raises(DataError, match="negative"):
        load_edge_list(path)
    path.write_text("# only comments\n\n")
    with pytest.raises(DataError, match="no edges"):
        load_edge_list(path)
    path.write_text("0 1\n5 2\n")
    with pytest.raises(DataError, match="declared count"):
        load_edge_list(path, n=4)


def test_edge_list_drops_self_loops_with_warning(tmp_path):
    path = tmp_path / "loops.txt"
    path.write_text("0 0\n0 1\n1 1\n")
    with pytest.warns(UserWarning, match="2 self-loop"):
        g = load_edge_list(path)
    assert np.array_equal(g.edges, [[0, 1]])


def test_features_round_trip_and_errors(tmp_path):
    path = tmp_path / "f.txt"
    feats = np.random.default_rng(4).standard_normal((3, 5))
    save_features(path, feats)
    assert np.array_equal(load_features(path), feats)
    path.write_text("2 2\n1 2\n")
    with pytest.raises(DataError, match="declares 2 rows"):
        load_features(path)
    path.write_text("1 2\n1 nan\n")
    with pytest.raises(DataError, match="non-finite"):
        load_features(path)

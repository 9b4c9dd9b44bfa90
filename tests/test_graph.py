import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import dirlink.autodiff as ad
from dirlink import datasets, models
from dirlink.graph import (
    MAX_NODES,
    DataError,
    DirectedGraph,
    adjacency,
    degrees,
    graph_stats,
    load_edge_list,
    load_features,
    normalize_adj,
    normalize_sym,
    preprocess,
    save_edge_list,
    save_features,
    spanning_forest,
    spmm,
    spmm_t,
    weakly_connected_components,
)
from dirlink.training import TrainConfig
from helpers import UnionFind, bipartite_block, kruskal_pins, planted_graph, random_graph


def test_union_find_merges_and_reports():
    uf = UnionFind(5)
    assert uf.union(0, 1)
    assert uf.union(1, 2)
    assert not uf.union(0, 2)
    assert uf.find(0) == uf.find(2)
    assert uf.find(3) != uf.find(0)


def _graph_with_empty_rows_and_cols(rng):
    """A random graph in which node 0 has no out-edges, node 1 no in-edges
    and the last two nodes no edges at all."""
    n = int(rng.integers(3, 40))
    edges = rng.integers(0, n, size=(int(rng.integers(1, 4 * n)), 2))
    edges = edges[(edges[:, 0] != edges[:, 1]) & (edges[:, 0] != 0) & (edges[:, 1] != 1)]
    return DirectedGraph(n + 2, edges)


@pytest.mark.parametrize("operator", ["adjacency", "adjacency_self_loops", "normalize_adj"])
def test_operators_are_canonical_and_transpose_views_match_copies_bitwise(operator):
    # the encoders multiply by an operator's transpose through its CSC view;
    # forward and grad must equal, bit for bit, products with a CSR copy
    build = {
        "adjacency": adjacency,
        "adjacency_self_loops": lambda g: adjacency(g) + sp.identity(g.n, format="csr"),
        "normalize_adj": lambda g: normalize_adj(g, 0.3, 0.8),
    }[operator]
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = _graph_with_empty_rows_and_cols(rng)
        m = build(g)
        assert isinstance(m, sp.csr_matrix) and m.has_canonical_format
        dense = np.zeros((g.n, g.n))
        dense[g.edges[:, 0], g.edges[:, 1]] = 1.0
        if operator != "adjacency":
            dense += np.eye(g.n)
        assert np.array_equal(m.toarray() != 0, dense != 0)
        m_t = m.T.tocsr()
        assert m_t.has_canonical_format
        for d in (1, 3, 8):
            x = ad.Tensor(rng.standard_normal((g.n, d)), requires_grad=True)
            up = rng.standard_normal((g.n, d))
            out = ad.spmm_const(m.T, x)
            assert np.array_equal(out.data, m_t @ x.data)
            out = ad.spmm_const(m, x)
            ad.backward(ad.sum_all(ad.hadamard(out, ad.Tensor(up))))
            assert np.array_equal(out.data, m @ x.data)
            assert np.array_equal(x.grad, m_t @ up)


def test_operator_dies_by_refcount_after_transpose_product():
    # the operator's transpose is a view held only by the tape's rules, and
    # nothing refers back, so dropping the model that owns the operator and
    # an SDGAE pass, with or without its backward pass, frees them all
    # without the cyclic collector
    rng = np.random.default_rng(1)
    g = random_graph(rng, 12)
    x = rng.standard_normal((12, 3))
    gc.disable()
    try:
        p = models.SdgaeParams.init(rng, g, 3, TrainConfig(hidden=4, emb=4, k=2))
        op = p.op
        t = op.T
        assert np.allclose(spmm_t(op, x), op.toarray().T @ x)
        enc = models.encoder_forward(p, x)
        loss = ad.sum_all(ad.hadamard(enc.S, enc.T))
        ad.backward(loss)
        unreplayed = models.encoder_forward(p, x)
        refs = [weakref.ref(o) for o in (op, op.data, op.indices, t, enc.S, enc.T, loss,
                                         unreplayed.S, unreplayed.T)]
        del p, op, t, enc, loss, unreplayed
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_spmm_agrees_with_dense_product():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 15)))
        x = rng.standard_normal((g.n, 4))
        a = adjacency(g)
        assert np.allclose(spmm(a, x), a.toarray() @ x)
        assert np.allclose(spmm_t(a, x), a.toarray().T @ x)


def test_spmm_into_out_matches_the_product_bitwise():
    # out= is overwritten whatever it held; with or without it, for CSR and its
    # CSC view, the bits are those of scipy's own product
    rng = np.random.default_rng(2)
    a = normalize_sym(random_graph(rng, 40))
    for m in (a, a.T):
        for d in (1, 5):
            x = rng.standard_normal((40, d))
            out = rng.standard_normal((40, d))
            assert spmm(m, x, out=out) is out
            assert np.array_equal(out, m @ x)
            assert np.array_equal(spmm(m, x), m @ x)
    for bad in (np.zeros((40, 4)), np.zeros((40, 5), dtype=np.float32),
                np.zeros((5, 40)).T):
        with pytest.raises(ValueError, match="spmm out"):
            spmm(a, x, out=bad)
    with pytest.raises(ValueError, match="spmm out"):
        spmm(a.tocoo(), x, out=np.zeros((40, 5)))


def test_spmm_rejects_wrong_shapes():
    g = DirectedGraph(3, [[0, 1]])
    with pytest.raises(ValueError):
        spmm(adjacency(g), np.zeros((4, 2)))


def test_bipartite_block_layout():
    g = DirectedGraph(3, [[0, 1], [2, 0]])
    a = adjacency(g).toarray()
    block = bipartite_block(adjacency(g)).toarray()
    n = g.n
    assert np.array_equal(block[:n, n:], a)
    assert np.array_equal(block[n:, :n], a.T)
    assert not block[:n, :n].any()
    assert not block[n:, n:].any()


def test_directed_graph_dedups_and_sorts():
    g = DirectedGraph(4, [[2, 1], [0, 3], [2, 1]])
    assert np.array_equal(g.edges, [[0, 3], [2, 1]])
    assert g.edge_count == 2
    assert adjacency(g)[2, 1]
    assert not adjacency(g)[1, 2]


def test_directed_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        DirectedGraph(3, [[0, 0]])
    with pytest.raises(ValueError):
        DirectedGraph(3, [[0, 3]])
    with pytest.raises(ValueError):
        DirectedGraph(0, [])


def test_node_counts_whose_edge_keys_overflow_int64_are_rejected(tmp_path):
    # the largest n whose keys u*n + v fit in int64 keeps its edges exactly
    top = MAX_NODES - 1
    assert MAX_NODES == 3_037_000_499
    g = DirectedGraph(MAX_NODES, [[top, 0], [0, 1], [top, top - 1]])
    assert np.array_equal(g.edges, [[0, 1], [top, 0], [top, top - 1]])
    assert np.array_equal(np.diff(g.edge_keys()) > 0, [True, True])
    path = tmp_path / "huge.txt"
    path.write_text("3999999999 0\n0 1\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="node count 4000000000 above 3037000499"):
            DirectedGraph(4_000_000_000, [[3_999_999_999, 0], [0, 1]])
        with pytest.raises(ValueError, match="overflow int64"):
            DirectedGraph(MAX_NODES + 1, [[0, 1]])
        with pytest.raises(DataError, match=f"{path}: node count 4000000000 above"):
            load_edge_list(path)
        path.write_text(f"{MAX_NODES} 0\n0 1\n")
        with pytest.raises(DataError, match=f"{path}: node count 3037000500 above"):
            load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # no array sized by the node count


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
        a_hat = adjacency(g).toarray() + np.eye(g.n)
        d_out = a_hat.sum(axis=1)
        d_in = a_hat.sum(axis=0)
        want = np.diag(d_out ** -beta) @ a_hat @ np.diag(d_in ** -alpha)
        assert np.allclose(normalize_adj(g, alpha, beta).toarray(), want, atol=1e-14)
    g = random_graph(rng, 8)
    assert np.allclose(
        normalize_sym(g).toarray(), normalize_adj(g, 0.5, 0.5).toarray(), atol=1e-15
    )


def test_weak_components_match_scipy():
    rng = np.random.default_rng(3)
    graphs = [random_graph(rng, int(rng.integers(2, 30)), p=0.08) for _ in range(20)]
    # thousands of nodes: many small components and isolated nodes
    big = rng.integers(0, 3000, size=(2500, 2))
    graphs.append(DirectedGraph(3000, big[big[:, 0] != big[:, 1]]))
    for g in graphs:
        ours = weakly_connected_components(g)
        # first-appearance order: each node's label is at most one above all before it
        seen_max = np.concatenate([[-1], np.maximum.accumulate(ours)[:-1]])
        assert np.all(ours <= seen_max + 1)
        a = sp.coo_matrix(
            (np.ones(g.edge_count), (g.edges[:, 0], g.edges[:, 1])), shape=(g.n, g.n)
        )
        n_ref, ref = connected_components(a, directed=True, connection="weak")
        assert ours.max() + 1 == n_ref
        # same partition, possibly different label names
        for c in range(n_ref):
            members = np.flatnonzero(ref == c)
            assert len(set(ours[members])) == 1


def _forest_inputs():
    """Shuffled edge lists with reciprocal pairs, parallel edges, several
    components and isolated nodes, up to n = 5000."""
    rng = np.random.default_rng(40)
    for n, m in [(2, 1), (3, 4), (10, 6)] + [(int(k), int(2 * k)) for k in
                                             rng.integers(5, 60, size=30)] + [(5000, 9000)]:
        e = rng.integers(0, n - n // 10, size=(m, 2))  # the top tenth of ids stays isolated
        e = e[e[:, 0] != e[:, 1]]
        e = np.concatenate([e, e[: m // 3, ::-1], e[: m // 7]])
        yield n, e[rng.permutation(len(e))]


def test_spanning_forest_matches_union_find_oracle():
    for n, e in _forest_inputs():
        tree, comp = spanning_forest(n, e[:, 0], e[:, 1])
        want_tree, _ = kruskal_pins(n, e)
        assert np.array_equal(tree, want_tree)
        uf = UnionFind(n)
        for u, v in e:
            uf.union(int(u), int(v))
        roots = np.array([uf.find(x) for x in range(n)])
        # same partition: each representative names exactly one oracle set
        pairs = np.unique(np.stack([comp, roots], axis=1), axis=0)
        assert len(pairs) == len(np.unique(comp)) == len(np.unique(roots))


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
    save_edge_list(path, g.edges)
    path.write_text("# toy\n" + path.read_text())
    g2 = load_edge_list(path)
    assert g2.n == 6
    assert np.array_equal(g2.edges, g.edges)


def test_synthetic200_fixture_is_the_planted_graph():
    fixture, planted = datasets.load_fixture("synthetic200"), planted_graph()
    assert fixture.n == planted.n
    assert np.array_equal(fixture.edges, planted.edges)


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


def test_edge_list_ingest_edge_cases(tmp_path):
    path = tmp_path / "g.txt"
    # a bad token on a late line, after comments and blank lines
    lines = ["# header", "", "0 1", "  # indented comment", "", "1 2", "2 x", "3 4"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"g\.txt:7: non-integer endpoint in '2 x'"):
        load_edge_list(path)
    path.write_text("0 1\n1 2 3\n")
    with pytest.raises(DataError, match=r"g\.txt:2: expected 'u v', got '1 2 3'"):
        load_edge_list(path)
    # every line with three tokens is no edge list either
    path.write_text("0 1 2\n1 2 3\n")
    with pytest.raises(DataError, match=r"g\.txt:1: expected 'u v'"):
        load_edge_list(path)
    path.write_bytes(b"# crlf\r\n0 1\r\n\r\n2 0\r\n")
    assert np.array_equal(load_edge_list(path).edges, [[0, 1], [2, 0]])
    # only whole lines are comments
    path.write_text("0 1\n1 2 # note\n")
    with pytest.raises(DataError, match=r"g\.txt:2: expected 'u v', got '1 2 # note'"):
        load_edge_list(path)
    # an index past int64 is a bad line, not a bare OverflowError
    for big in ("99999999999999999999", str(2**63)):
        path.write_text(f"0 1\n12 {big}\n")
        with pytest.raises(DataError, match=rf"g\.txt:2: node index above 2\^63 - 1 in '12 {big}'"):
            load_edge_list(path)


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
    path.write_text("2 2\n1 2\n\n3 x\n")
    with pytest.raises(DataError, match=r"f\.txt:4: non-numeric value"):
        load_features(path)
    path.write_text("2 2\n1 2\n3\n")
    with pytest.raises(DataError, match=r"f\.txt:3: expected 2 values, got 1"):
        load_features(path)
    path.write_text("2 x\n")
    with pytest.raises(DataError, match=r"f\.txt:1: non-integer header"):
        load_features(path)

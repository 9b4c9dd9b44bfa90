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
    member,
    normalize_adj,
    normalize_sym,
    preprocess,
    save_edge_list,
    save_features,
    spanning_forest,
    spmm,
)
from dirlink.training import TrainConfig
from helpers import (UnionFind, bipartite_block, kruskal_pins, planted_graph, random_graph,
                     run_under_memory_bound, sum_all)


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
            out = ad.spmm_const(m.T, x, m)
            assert np.array_equal(out.data, m_t @ x.data)
            out = ad.spmm_const(m, x, m.T)
            ad.backward(sum_all(ad.hadamard(out, ad.Tensor(up))))
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
        assert np.allclose(spmm(op.T, x), op.toarray().T @ x)
        enc = models.encoder_forward(p, x)
        loss = sum_all(ad.hadamard(enc.S, enc.T))
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
        assert np.allclose(spmm(a.T, x), a.toarray().T @ x)


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


@pytest.mark.parametrize("order", ["unsorted", "duplicated", "sorted", "sorted_fortran"])
def test_directed_graph_edges_are_the_sorted_unique_pairs_in_an_array_of_their_own(order):
    """Unsorted, duplicated and already sorted input give the same bytes:
    the sorted unique pairs, in a C-ordered int64 array that shares no
    memory with the input."""
    rng = np.random.default_rng(41)
    n = 50
    keys = np.unique(rng.integers(0, n * n, size=400))
    keys = keys[keys // n != keys % n]
    expected = np.stack([keys // n, keys % n], axis=1)
    edges = {"unsorted": expected[rng.permutation(len(expected))],
             "duplicated": np.repeat(expected, 2, axis=0),  # sorted, each pair twice
             "sorted": expected.copy(),
             "sorted_fortran": np.asfortranarray(expected)}[order]
    g = DirectedGraph(n, edges)
    assert g.edges.dtype == np.int64 and g.edges.flags.c_contiguous
    assert g.edges.tobytes() == expected.tobytes()
    assert not np.shares_memory(g.edges, edges)


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


def test_degrees_are_out_and_in_counts():
    g = DirectedGraph(3, [[0, 1], [0, 2], [1, 2]])
    out_deg, in_deg = degrees(g)
    assert np.array_equal(out_deg, [2, 1, 0])
    assert np.array_equal(in_deg, [0, 1, 2])


def test_normalize_adj_reads_self_looped_degrees_off_its_operator():
    # bit for bit the former formula: degrees(g) plus one for the self-loop
    rng = np.random.default_rng(3)
    for _ in range(12):
        g = random_graph(rng, int(rng.integers(2, 40)), p=float(rng.uniform(0.01, 0.4)))
        out_deg, in_deg = (d + 1 for d in degrees(g))
        for alpha in (0.0, 0.4, 0.5, 0.8, 1.0):
            for beta in (0.0, 0.4, 0.5, 0.8, 1.0):
                want = adjacency(g) + sp.identity(g.n, format="csr")
                rr = np.repeat(np.arange(g.n), np.diff(want.indptr))
                want.data *= np.power(out_deg[rr], -beta) * np.power(in_deg[want.indices], -alpha)
                got = normalize_adj(g, alpha, beta)
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert got.data.tobytes() == want.data.tobytes()


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


def _scattered_graphs(rng):
    """Edge sets of a few small components on ids scattered up to about 10^6,
    with isolated ids between and after them.  Components of 2 or 3 nodes
    with a spare edge or not tie often in node count and in edge count."""
    for _ in range(40):
        n = int(rng.choice([20, 300, 1_000_000]))
        sizes = rng.integers(2, 4, size=int(rng.integers(1, 5)))
        nodes = rng.choice(n - 1, size=int(sizes.sum()), replace=False)
        edges = []
        for part in np.split(nodes, np.cumsum(sizes)[:-1]):
            edges += zip(part[:-1], part[1:])  # a path connects the component
            if rng.random() < 0.5:
                edges.append(tuple(rng.choice(part, size=2, replace=False)))
        yield DirectedGraph(n, edges)
    for _ in range(20):
        yield random_graph(rng, int(rng.integers(2, 40)), p=0.06)


def test_preprocess_matches_a_scipy_components_oracle():
    rng = np.random.default_rng(21)
    for g in _scattered_graphs(rng):
        feats = rng.standard_normal((g.n, 2))
        kept, kept_feats = preprocess(g, feats)
        a = sp.coo_matrix((np.ones(g.edge_count), (g.edges[:, 0], g.edges[:, 1])),
                          shape=(g.n, g.n))
        _, labels = connected_components(a, directed=True, connection="weak")
        src_labels = labels[g.edges[:, 0]]

        def rank(c):
            members = np.flatnonzero(labels == c)
            # most nodes, then most edges, then the smallest node id
            return len(members), int((src_labels == c).sum()), -int(members[0])

        best = max(np.unique(src_labels), key=rank)
        keep = np.flatnonzero(labels == best)
        new_id = {int(old): new for new, old in enumerate(keep)}
        want = sorted((new_id[int(u)], new_id[int(v)]) for u, v in g.edges[src_labels == best])
        assert kept.n == len(keep)
        assert kept.edges.tolist() == [list(e) for e in want]
        assert np.array_equal(kept_feats, feats[keep])


PREPROCESS_CHILD = """
import resource
# an array of one entry per id (16 GB) fails to allocate under this cap,
# before its fill could outrun the watchdog's RSS bound
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from dirlink import cli
rc = cli.main(["preprocess", "--dataset", {path!r}, "--out", {out!r}])
print(f"rc={{rc}}", flush=True)
"""


def test_preprocess_memory_follows_the_edges_not_the_largest_id(tmp_path):
    path = tmp_path / "raw.txt"
    path.write_text("0 1\n1 2\n2 2000000000\n")
    out = tmp_path / "prep"
    stats = run_under_memory_bound(PREPROCESS_CHILD.format(path=str(path), out=str(out)),
                                   bound_mb=200)
    assert (stats["rc"], stats["n"], stats["m"]) == ("0", "4", "3")
    assert (out / "edges.txt").read_text() == "0 1\n1 2\n2 3\n"


def test_graph_stats_counts_unreciprocated_edges():
    g = DirectedGraph(3, [[0, 1], [1, 0], [1, 2]])
    stats = graph_stats(g)
    assert stats["n"] == 3
    assert stats["m"] == 3
    assert stats["avg_degree"] == pytest.approx(2.0)
    assert stats["pct_directed"] == pytest.approx(100.0 / 3.0)


def test_member_and_has_edges_match_isin():
    rng = np.random.default_rng(71)
    for _ in range(40):
        n = int(rng.integers(1, 25))
        mask = (rng.random((n, n)) < rng.uniform(0.0, 0.5)) & ~np.eye(n, dtype=bool)
        g = DirectedGraph(n, np.argwhere(mask))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 60)), 2))
        keys = pairs[:, 0] * n + pairs[:, 1]
        oracle = np.isin(keys, g.edge_keys())
        assert np.array_equal(member(keys, g.edge_keys()), oracle)
        assert np.array_equal(g.has_edges(pairs), oracle)
        assert g.has_edges(g.edges).all()
    empty = np.empty(0, dtype=np.int64)
    assert member(np.array([0, 3, 7]), empty).tolist() == [False, False, False]
    assert member(empty, np.array([1, 4])).shape == (0,)
    assert DirectedGraph(3, []).has_edges([[0, 1], [2, 1]]).tolist() == [False, False]


def test_has_edges_rejects_pairs_outside_the_node_range():
    g = DirectedGraph(3, [[1, 0]])
    # the key of (0, 3) would be 0 * 3 + 3, the key of the edge (1, 0)
    for pair in ([0, 3], [3, 0], [-1, 2], [2, -1]):
        with pytest.raises(ValueError, match="out of range"):
            g.has_edges([[0, 1], pair])
    assert g.has_edges(np.empty((0, 2), dtype=np.int64)).shape == (0,)


def _save_features_by_line(path, feats):
    # reference writer: one formatted line per row
    feats = np.asarray(feats, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{feats.shape[0]} {feats.shape[1]}\n")
        for row in feats:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def test_save_features_writes_the_bytes_of_the_line_writer(tmp_path):
    rng = np.random.default_rng(72)
    cases = [rng.standard_normal((7, 4)), rng.standard_normal((1, 1)) * 1e12,
             np.array([[-0.0, 5e-324, 1e300], [0.1, -1e-300, 2.0**60]]),
             np.zeros((3, 0)), np.zeros((0, 4))]
    for feats in cases:
        save_features(tmp_path / "new.txt", feats)
        _save_features_by_line(tmp_path / "old.txt", feats)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


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

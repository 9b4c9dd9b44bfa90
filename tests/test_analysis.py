import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import dirlink.autodiff as ad
from dirlink import analysis, datasets, models
from dirlink.graph import DataError, DirectedGraph
from helpers import EinsumSpy, planted_graph, run_under_memory_bound


def test_degree_histograms_hand_cases():
    ring = datasets.load_fixture("ring3")
    h = analysis.degree_histograms(ring.edges, ring.n)
    assert h.out_hist == {1: 3}
    assert h.in_hist == {1: 3}

    star = DirectedGraph(4, [[0, 1], [0, 2], [0, 3]])
    h = analysis.degree_histograms(star.edges, star.n)
    assert h.out_hist == {0: 3, 3: 1}
    assert h.in_hist == {0: 1, 1: 3}


def test_degree_histograms_conserve_edge_count():
    g = planted_graph(n=50, per_node=4, seed=11)
    h = analysis.degree_histograms(g.edges, g.n)
    m = len(g.edges)
    assert sum(d * c for d, c in h.out_hist.items()) == m
    assert sum(d * c for d, c in h.in_hist.items()) == m
    assert sum(h.out_hist.values()) == g.n
    assert sum(h.in_hist.values()) == g.n


def test_write_degree_tsv(tmp_path):
    path = tmp_path / "deg.tsv"
    analysis.write_degree_tsv(path, {3: 1, 0: 3})
    assert path.read_text() == "degree\tcount\n0\t3\n3\t1\n"


def _table_score_fn(table):
    return lambda pairs: table[pairs[:, 0], pairs[:, 1]]


def test_reconstruct_matches_exhaustive_oracle():
    rng = np.random.default_rng(60)
    n = 5
    table = rng.standard_normal((n, n))
    us, vs = np.nonzero(~np.eye(n, dtype=bool))
    order = np.lexsort((vs, us, -table[us, vs]))
    for m_prime in (1, 4, 11, n * (n - 1)):
        got = analysis.reconstruct_topm(_table_score_fn(table), n, m_prime)
        want = np.stack([us[order], vs[order]], axis=1)[:m_prime]
        assert np.array_equal(got, want)


def test_reconstruct_indicator_recovers_edges_exactly():
    g = planted_graph(n=30, per_node=3, seed=12)
    table = np.zeros((g.n, g.n))
    table[g.edges[:, 0], g.edges[:, 1]] = 1.0
    got = analysis.reconstruct_topm(_table_score_fn(table), g.n, len(g.edges))
    assert np.array_equal(got, g.edges)


def test_reconstruct_chunking_is_invisible(monkeypatch):
    rng = np.random.default_rng(61)
    table = rng.standard_normal((7, 7))
    fn = _table_score_fn(table)
    whole = analysis.reconstruct_topm(fn, 7, 20)
    monkeypatch.setattr(analysis, "RECONSTRUCT_CHUNK", 1)
    tiny = analysis.reconstruct_topm(fn, 7, 20)
    assert np.array_equal(whole, tiny)


def test_reconstruct_validation():
    fn = _table_score_fn(np.zeros((4, 4)))
    with pytest.raises(DataError, match="candidate pairs"):
        analysis.reconstruct_topm(fn, 4, 13)
    assert analysis.reconstruct_topm(fn, 4, 0).shape == (0, 2)
    with pytest.raises(ValueError, match="wrong number"):
        analysis.reconstruct_topm(lambda pairs: np.zeros(3), 4, 2)


def test_reconstruct_rejects_negative_m_prime():
    calls = []
    with pytest.raises(DataError, match="negative"):
        analysis.reconstruct_topm(lambda pairs: calls.append(pairs), 4, -1)
    assert calls == []


def _capped_score_fn(table, cap):
    """Table lookup that fails if a call gets no pair or more than cap pairs."""

    def fn(pairs):
        assert 1 <= len(pairs) <= cap, f"score_fn got {len(pairs)} pairs, cap {cap}"
        return table[pairs[:, 0], pairs[:, 1]]

    return fn


def _score_table(case, n, rng):
    if case == "distinct":
        return rng.standard_normal((n, n))
    if case == "few_values":
        # three values over 72 pairs: ties straddle every block boundary
        return rng.integers(0, 3, size=(n, n)).astype(np.float64)
    if case == "all_equal":
        return np.full((n, n), 0.5)
    if case == "nan_ties":
        # about 22 ones, 14 zeros and 36 NaN: the m'-th best is a tie at 1 for
        # m' = 8 and 9, at 0 for m' = 30 and NaN for m' = 60
        return rng.choice([1.0, 0.0, np.nan], size=(n, n), p=[0.3, 0.2, 0.5])
    table = rng.integers(0, 4, size=(n, n)).astype(np.float64)
    table[rng.random((n, n)) < 0.3] = np.nan
    table[0, 3], table[4, 1], table[8, 2] = np.inf, -np.inf, -np.inf
    return table


@pytest.mark.parametrize("case", ["distinct", "few_values", "all_equal", "nan_ties", "nan_inf"])
def test_reconstruct_streaming_matches_lexsort_oracle(case, monkeypatch):
    """Streamed top-m' equals an exhaustive lexsort on every block size:
    ties lose to earlier pairs across block boundaries, NaN ranks last."""
    n = 9
    table = _score_table(case, n, np.random.default_rng(64))
    us, vs = np.nonzero(~np.eye(n, dtype=bool))
    order = np.lexsort((vs, us, -table[us, vs]))
    oracle = np.stack([us[order], vs[order]], axis=1)
    for chunk_size in (1, 2, 5, 8, 13, 72, 100):
        fn = _capped_score_fn(table, chunk_size)
        monkeypatch.setattr(analysis, "RECONSTRUCT_CHUNK", chunk_size)
        for m_prime in (0, 1, 3, 8, 9, 30, 60, n * (n - 1)):
            got = analysis.reconstruct_topm(fn, n, m_prime)
            assert got.dtype == np.int64
            assert np.array_equal(got, oracle[:m_prime]), (chunk_size, m_prime)


def test_reconstruct_default_blocks_are_bounded():
    # more candidates than one default block, each call within the bound
    n = 200
    table = np.random.default_rng(65).integers(0, 50, size=(n, n)).astype(np.float64)
    chunk = models.SCORE_BLOCK_BYTES // 16
    assert n * (n - 1) > 2 * chunk
    us, vs = np.nonzero(~np.eye(n, dtype=bool))
    order = np.lexsort((vs, us, -table[us, vs]))[:500]
    got = analysis.reconstruct_topm(_capped_score_fn(table, chunk), n, 500)
    assert np.array_equal(got, np.stack([us[order], vs[order]], axis=1))


@pytest.mark.parametrize("chunk", [1, 4, 5, 6, 7, 13, 18, 100])
def test_reconstruct_blocks_are_whole_rows_or_pieces_of_one(chunk, monkeypatch):
    """Blocks hold the whole rows (the 6 candidates of a source) that fit in
    the chunk, or a piece of one row when a row is longer than it."""
    n, row = 7, 6
    calls = []

    def fn(pairs):
        calls.append(pairs.copy())
        return np.zeros(len(pairs))

    monkeypatch.setattr(analysis, "RECONSTRUCT_CHUNK", chunk)
    analysis.reconstruct_topm(fn, n, 3)
    us, vs = np.nonzero(~np.eye(n, dtype=bool))
    assert np.array_equal(np.vstack(calls), np.stack([us, vs], axis=1))
    sources = [np.unique(c[:, 0]) for c in calls]
    if row <= chunk:
        per = chunk // row
        assert all(len(c) == row * len(u) for c, u in zip(calls, sources))
        assert [len(u) for u in sources] == [per] * (n // per) + [n % per] * (n % per > 0)
    else:
        assert all(len(u) == 1 for u in sources)
        pieces = [min(chunk, row - p0) for p0 in range(0, row, chunk)]
        assert [len(c) for c in calls] == pieces * n


def test_reconstruct_scores_inner_blocks_in_boxes_without_decoding(monkeypatch):
    """An inner reconstruction never decodes, and each of its blocks, whole
    rows or a piece of one, is scored as one box, also where a row is
    longer than a block."""
    n, emb, m_prime = 30, 8, 40
    rng = np.random.default_rng(68)
    s, t = rng.standard_normal((n, emb)), rng.standard_normal((n, emb))
    enc = models.EncoderOutput(ad.Tensor(s), ad.Tensor(t))
    dec = models.DecoderKind.init(rng, "inner", emb, 64, 1)
    us, vs = np.nonzero(~np.eye(n, dtype=bool))
    scores = np.array([np.einsum("i,i->", s[u], t[v]) for u, v in zip(us, vs)])
    order = np.lexsort((vs, us, -scores))[:m_prime]
    monkeypatch.setattr(models, "decode", None)
    for chunk in (10, 29, 100, analysis.RECONSTRUCT_CHUNK):
        monkeypatch.setattr(analysis, "RECONSTRUCT_CHUNK", chunk)
        spy = EinsumSpy()
        monkeypatch.setattr(models, "np", spy)
        got = analysis.reconstruct_topm(lambda p: models.ranking_scores(dec, enc, p), n, m_prime)
        assert spy.boxes() == [True] * len(list(analysis._blocks(n))), chunk
        assert np.array_equal(got, np.stack([us[order], vs[order]], axis=1)), chunk


def test_reconstruct_symmetric_scores_close_under_reversal():
    # a direction-blind scorer can only ever return reversal-closed pair sets
    rng = np.random.default_rng(62)
    emb = rng.standard_normal((6, 3))
    table = emb @ emb.T
    for m_prime in (2, 6, 10):
        got = analysis.reconstruct_topm(_table_score_fn(table), 6, m_prime)
        pairs = set(map(tuple, got.tolist()))
        assert pairs == {(v, u) for (u, v) in pairs}


def test_reconstruct_from_trained_embeddings():
    # fit source/target embeddings on the planted graph with a hinge on every
    # ordered pair, then check the top-m list essentially recovers the edges
    g = planted_graph(n=60, per_node=4, seed=3)
    rng = np.random.default_rng(63)
    dim = 8
    s = ad.Tensor(rng.standard_normal((g.n, dim)) * 0.1, requires_grad=True)
    t = ad.Tensor(rng.standard_normal((g.n, dim)) * 0.1, requires_grad=True)
    dec = models.DecoderKind.init(rng, "inner", dim, 64, 1)

    table = np.zeros((g.n, g.n), dtype=bool)
    table[g.edges[:, 0], g.edges[:, 1]] = True
    us, vs = np.nonzero(~np.eye(g.n, dtype=bool) & ~table)
    neg_pairs = np.stack([us, vs], axis=1)
    pos_pairs = g.edges

    optimizer = ad.AdamState([s, t], lr=0.05)
    for _ in range(150):
        enc = models.EncoderOutput(s, t)
        pos = models.decode(dec, enc, pos_pairs)
        neg = models.decode(dec, enc, neg_pairs)
        ad.backward(ad.hinge(pos, neg, 1.0), [s, t])
        optimizer.step()

    enc = models.EncoderOutput(ad.Tensor(s.data), ad.Tensor(t.data))

    def score_fn(pairs):
        return models.ranking_scores(dec, enc, pairs)

    got = analysis.reconstruct_topm(score_fn, g.n, len(g.edges))
    truth = set(map(tuple, g.edges.tolist()))
    overlap = sum(1 for p in map(tuple, got.tolist()) if p in truth) / len(truth)
    assert overlap >= 0.9


def test_ring_single_symmetric_decoders_infeasible():
    ring = datasets.load_fixture("ring3")
    for decoder in ("inner", "mlp_hadamard"):
        cert = analysis.check_expressiveness(ring, "single", decoder, dim=2, attempts=50)
        assert cert.verdict == "infeasible"
        assert "direction-symmetric" in cert.detail
        assert cert.witness is None


def test_ring_single_lr_concat_infeasible_by_telescoping():
    cert = analysis.check_expressiveness(datasets.load_fixture("ring3"), "single", "lr_concat",
                                         dim=2, attempts=50)
    assert cert.verdict == "infeasible"
    assert "cycle" in cert.detail


def test_ring_dual_lr_concat_infeasible_without_search():
    # logit(u,v) - logit(v,u) = f(u) - f(v) holds for distinct S and T too
    start = time.perf_counter()
    cert = analysis.check_expressiveness(datasets.load_fixture("ring3"), "dual", "lr_concat",
                                         dim=2, attempts=50)
    assert time.perf_counter() - start < 1.0
    assert cert.verdict == "infeasible"
    assert cert.witness is None and cert.margin is None
    assert "cycle [0, 1, 2]" in cert.detail and "0 > 0" in cert.detail
    assert "f(x) = w1.s_x - w2.t_x" in cert.detail


# (graph, mode, decoder, verdict, repr(margin)) with the default search
# settings; ring3 dual lr_concat is the one case the cycle certificate
# settles before the search (the search alone leaves it undetermined)
CERTIFICATES = (
    ("ring3", "single", "inner", "infeasible", "None"),
    ("ring3", "single", "mlp_hadamard", "infeasible", "None"),
    ("ring3", "single", "mlp_concat", "feasible", "0.12150761704636069"),
    ("ring3", "single", "lr_concat", "infeasible", "None"),
    ("ring3", "dual", "inner", "feasible", "0.11974145448619533"),
    ("ring3", "dual", "mlp_hadamard", "feasible", "0.10440934042115486"),
    ("ring3", "dual", "mlp_concat", "feasible", "0.12059994757291184"),
    ("ring3", "dual", "lr_concat", "infeasible", "None"),
    ("graph_d", "single", "inner", "infeasible", "None"),
    ("graph_d", "single", "mlp_hadamard", "infeasible", "None"),
    ("graph_d", "single", "mlp_concat", "feasible", "0.15490799107847325"),
    ("graph_d", "single", "lr_concat", "feasible", "0.10998115205578829"),
    ("graph_d", "dual", "inner", "feasible", "0.1194530138822548"),
    ("graph_d", "dual", "mlp_hadamard", "feasible", "0.11685998637987058"),
    ("graph_d", "dual", "mlp_concat", "feasible", "0.1444764934079215"),
    ("graph_d", "dual", "lr_concat", "feasible", "0.10974010602004193"),
)


@pytest.mark.parametrize("mode", analysis.EMBEDDING_MODES)
@pytest.mark.parametrize("decoder", models.DECODER_KINDS)
def test_expressiveness_rejects_a_graph_without_edges(mode, decoder):
    with pytest.raises(ValueError, match="has none"):
        analysis.check_expressiveness(DirectedGraph(3, []), mode, decoder, dim=2, attempts=1)


def test_certificate_table():
    got = tuple(
        (name, mode, decoder, cert.verdict, repr(cert.margin))
        for name, mode, decoder, *_ in CERTIFICATES
        for cert in [analysis.check_expressiveness(datasets.load_fixture(name), mode, decoder,
                                                     dim=2, attempts=50)]
    )
    assert got == CERTIFICATES


def _has_avx2():
    if not (sys.platform.startswith("linux") and platform.machine() == "x86_64"):
        return False
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        return any("avx2" in line.split() for line in fh if line.startswith("flags"))


@pytest.mark.skipif(not _has_avx2(), reason="OpenBLAS's Haswell kernels need an x86-64 "
                                            "Linux CPU with AVX2")
def test_certificate_table_holds_under_haswell_kernels():
    """The table holds under OpenBLAS's Haswell (AVX2) kernels, the ones a
    CPU without AVX-512 gets: inner margins are einsum sums, not ddot ones.
    OpenBLAS reads its kernel at load, so the table runs in a fresh process."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).name}::test_certificate_table"],
        cwd=root / "tests", env=dict(os.environ, OPENBLAS_CORETYPE="Haswell"),
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def _random_small_graph(rng):
    n = int(rng.integers(1, 11))
    density = rng.uniform(0.05, 0.6)
    mask = (rng.random((n, n)) < density) & ~np.eye(n, dtype=bool)
    return DirectedGraph(n, np.argwhere(mask))


def test_unreciprocated_cycle_matches_strong_components():
    """A cycle is found exactly when the unreciprocated edges have a strong
    component of more than one node, and what is found is such a cycle."""
    rng = np.random.default_rng(66)
    found = 0
    for _ in range(2500):
        g = _random_small_graph(rng)
        edge_set = set(map(tuple, g.edges.tolist()))
        unrec = [(u, v) for u, v in sorted(edge_set) if (v, u) not in edge_set]
        pos, rev = analysis._constraint_pairs(g)
        assert pos is g.edges
        assert rev.dtype == np.int64 and rev.shape == (len(unrec), 2)
        assert rev.tolist() == sorted([v, u] for u, v in unrec)

        src, dst = np.asarray(unrec, dtype=np.int64).reshape(-1, 2).T
        adj = sp.csr_matrix((np.ones(len(src)), (src, dst)), shape=(g.n, g.n))
        _, labels = connected_components(adj, directed=True, connection="strong")
        has_cycle = np.bincount(labels).max() > 1
        cycle = analysis._unreciprocated_cycle(g)
        assert (cycle is not None) == has_cycle
        if cycle is not None:
            found += 1
            assert len(set(cycle)) == len(cycle) >= 3
            assert all(isinstance(x, int) for x in cycle)
            assert all((u, v) in edge_set and (v, u) not in edge_set
                       for u, v in zip(cycle, cycle[1:] + cycle[:1]))
    assert 500 < found < 2000  # both outcomes are well represented


def test_replay_margin_records_no_tape(monkeypatch):
    outputs = []
    decode = models.decode

    def recording_decode(*args):
        outputs.append(decode(*args))
        return outputs[-1]

    monkeypatch.setattr(models, "decode", recording_decode)
    rng = np.random.default_rng(67)
    g = datasets.load_fixture("graph_d")
    dec = models.DecoderKind.init(rng, "mlp_concat", 2, hidden=16, out_dim=1)
    assert all(t.requires_grad for t in dec.named_parameters().values())
    s, t = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
    margin = analysis.replay_margin(g, dec, s, t)
    assert len(outputs) == 2
    assert all(out.parents == () and not out.requires_grad for out in outputs)
    monkeypatch.undo()
    assert analysis.replay_margin(g, dec, s, t) == margin


def test_graph_d_single_lr_concat_feasible():
    cert = analysis.check_expressiveness(
        datasets.load_fixture("graph_d"), "single", "lr_concat", dim=2, attempts=10
    )
    assert cert.verdict == "feasible"
    assert cert.margin is not None and cert.margin > 0
    assert cert.witness["mode"] == "single"
    assert np.array_equal(cert.witness["S"], cert.witness["T"])
    assert set(cert.witness["decoder"]) == {"dec.0.w", "dec.0.b"}


def test_graph_d_hand_witness_margin():
    # h0=(1,-1), h1=(-1,1), h2=(2,-2) with logit = h_u[0] + h_v[1] orients
    # every edge of the two-path graph with margin exactly 1
    w = ad.Tensor(np.array([[1.0], [0.0], [0.0], [1.0]]))
    b = ad.Tensor(np.zeros((1, 1)))
    dec = models.DecoderKind(kind="lr_concat", out_dim=1, layers=[(w, b)])
    h = np.array([[1.0, -1.0], [-1.0, 1.0], [2.0, -2.0]])
    margin = analysis.replay_margin(datasets.load_fixture("graph_d"), dec, h, h)
    assert margin == 1.0


def test_ring_dual_inner_feasible():
    cert = analysis.check_expressiveness(datasets.load_fixture("ring3"), "dual", "inner",
                                         dim=3, attempts=10)
    assert cert.verdict == "feasible"
    assert cert.margin > 0
    assert not np.array_equal(cert.witness["S"], cert.witness["T"])


def test_ring_single_nonlinear_concat_finds_witness(monkeypatch):
    # the telescoping contradiction needs linearity; a relu decoder over
    # concatenated distinct embeddings can orient the cycle, and the search
    # should find a witness that survives an independent replay
    monkeypatch.setattr(analysis, "SEARCH_STEPS", 120)
    ring = datasets.load_fixture("ring3")
    cert = analysis.check_expressiveness(ring, "single", "mlp_concat", dim=2, attempts=5)
    assert cert.verdict == "feasible"
    w = cert.witness
    layers = []
    i = 0
    while f"dec.{i}.w" in w["decoder"]:
        layers.append((ad.Tensor(w["decoder"][f"dec.{i}.w"]),
                       ad.Tensor(w["decoder"][f"dec.{i}.b"])))
        i += 1
    dec = models.DecoderKind(kind=w["decoder_kind"], out_dim=1, layers=layers)
    enc = models.EncoderOutput(ad.Tensor(w["S"]), ad.Tensor(w["T"]))
    z = models.decode(dec, enc, [[0, 1], [1, 2], [2, 0]]).data[:, 0]
    rev = models.decode(dec, enc, [[1, 0], [2, 1], [0, 2]]).data[:, 0]
    assert z.min() >= cert.margin
    assert -rev.max() >= cert.margin


def test_failed_search_is_undetermined_not_infeasible(monkeypatch):
    # a search that cannot move must not claim anything stronger
    monkeypatch.setattr(analysis, "SEARCH_STEPS", 1)
    monkeypatch.setattr(analysis, "SEARCH_LR", 0.0)
    cert = analysis.check_expressiveness(
        datasets.load_fixture("ring3"), "single", "mlp_concat", dim=2, attempts=1
    )
    assert cert.verdict == "undetermined"
    assert "restarts" in cert.detail
    assert cert.witness is None and cert.margin is None


def test_witness_search_builds_each_pair_set_plans_once_per_restart(monkeypatch):
    """Each restart indexes its two constraint pair sets once, and each
    index builds a side's plan on the restart's first backward pass, which
    the later passes reuse."""
    builds, real_plan, real_backward = [], ad.PairIndex._plan, ad.backward
    passes = []

    def plan(self, side, pair):
        builds.append((self, side))  # holds the index, so no later one takes its id
        return real_plan(self, side, pair)

    def backward(loss, params=()):
        passes.append(len(builds))
        return real_backward(loss, params)

    monkeypatch.setattr(ad.PairIndex, "_plan", plan)
    monkeypatch.setattr(ad, "backward", backward)
    monkeypatch.setattr(analysis, "SEARCH_STEPS", 4)
    monkeypatch.setattr(analysis, "SEARCH_LR", 0.0)
    cert = analysis.check_expressiveness(
        datasets.load_fixture("ring3"), "single", "mlp_concat", dim=2, attempts=3
    )
    assert cert.verdict == "undetermined"
    assert len({(id(index), side) for index, side in builds}) == len(builds) == 3 * 2 * 2
    assert len({id(index) for index, _ in builds}) == 3 * 2
    # the first pass of a restart builds its 4 plans, and the other 3 build none
    assert passes == [4 * r + 4 * (step > 0) for r in range(3) for step in range(4)]


def test_expressiveness_validation():
    ring = datasets.load_fixture("ring3")
    with pytest.raises(ValueError, match="mode"):
        analysis.check_expressiveness(ring, "triple", "inner", dim=2, attempts=50)
    with pytest.raises(ValueError, match="decoder"):
        analysis.check_expressiveness(ring, "single", "bilinear", dim=2, attempts=50)
    big = planted_graph(n=20, per_node=2, seed=1)
    with pytest.raises(ValueError, match="small"):
        analysis.check_expressiveness(big, "single", "inner", dim=2, attempts=50)


RECON_SCALE_CHILD = """
import numpy as np
import dirlink.autodiff as ad
from dirlink import analysis, models

n, emb, m_prime = 3000, 64, 30_000
rng = np.random.default_rng(0)
s, t = rng.standard_normal((n, emb)), rng.standard_normal((n, emb))
enc = models.EncoderOutput(ad.Tensor(s), ad.Tensor(t))
dec = models.DecoderKind.init(rng, "inner", emb, 64, 1)
recon = analysis.reconstruct_topm(
    lambda pairs: models.ranking_scores(dec, enc, pairs), n, m_prime)
print(f"shape={recon.shape[0]},{recon.shape[1]}", flush=True)

# the top m' by (score desc, u, v), checked against the dense score matrix
scores = models.ranking_scores(dec, enc, recon)
dense = s @ t.T
np.fill_diagonal(dense, -np.inf)
dense[recon[:, 0], recon[:, 1]] = -np.inf
ordered = bool(np.array_equal(np.lexsort((recon[:, 1], recon[:, 0], -scores)),
                              np.arange(m_prime)))
print(f"ordered={ordered} distinct={len(np.unique(recon[:, 0] * n + recon[:, 1]))}"
      f" margin={scores[-1] - dense.max():.6g}", flush=True)
"""


def test_reconstruct_at_scale_within_memory_bound():
    """Top-30k of the 9.0M ordered pairs of n = 3000 in a fresh process.

    Scoring streams through fixed blocks, so the peak stays near the
    interpreter's own; a build that scores a million pairs at once passes
    the bound in its first block."""
    stats = run_under_memory_bound(RECON_SCALE_CHILD, bound_mb=400)
    assert stats["shape"] == "30000,2" and stats["distinct"] == "30000"
    assert stats["ordered"] == "True"
    # every pair left out scores below the last one kept, up to summation order
    assert float(stats["margin"]) >= -1e-9

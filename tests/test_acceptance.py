"""Acceptance gate: one test per criterion, each with its stated tolerance
and runtime budget.  Run with -v for one pass/fail line per criterion and
-s for the measured numbers."""

import os
import time
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp

import dirlink.autodiff as ad
from dirlink import analysis, datasets, models, training
from dirlink.graph import (
    adjacency,
    load_edge_list,
    load_features,
    normalize_sym,
    preprocess,
)
from dirlink.metrics import ap, auc, hits_at_k, mrr
from dirlink.splits import DEFAULT_SEEDS, FeatureInit, init_features, split_edges
from dirlink.training import TrainConfig, grid_run

from helpers import (
    bipartite_block,
    check_gradients,
    digae_encode_bipartite,
    expand_coefficients,
    random_graph,
    sdgae_encode_explicit,
    weakly_connected_random_graph,
)
from test_metrics import _instances, _oracle_ap, _oracle_auc, _oracle_hits, _oracle_mrr
from test_training import _RecordingBundle


def test_criterion_1_bipartite_normalization_identity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        g = random_graph(rng, int(rng.integers(2, 51)))
        block = bipartite_block(adjacency(g) + sp.identity(g.n, format="csr")).toarray()
        deg = block.sum(axis=1)
        sandwich = block / np.sqrt(np.outer(deg, deg))
        lifted = bipartite_block(normalize_sym(g)).toarray()
        worst = max(worst, float(np.max(np.abs(sandwich - lifted))))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: max |D^-1/2 S(A) D^-1/2 - S(A~)| = {worst:.2e} "
          f"(tol 1e-12), {elapsed:.1f}s (budget 5s)")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_digae_layer_equals_bipartite_gcn():
    start = time.perf_counter()
    rng = np.random.default_rng(2000)
    worst = 0.0
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(4, 16)))
        x = rng.standard_normal((g.n, 5))
        for alpha in (0.0, 0.4, 0.8):
            for beta in (0.0, 0.4, 0.8):
                cfg = TrainConfig(hidden=7, emb=6, digae_layers=1, alpha=alpha, beta=beta)
                p = models.DigaeParams.init(rng, g, 5, cfg)
                layered = models.encoder_forward(p, x)
                lifted = digae_encode_bipartite(p, g, x, alpha, beta)
                worst = max(worst,
                            float(np.max(np.abs(layered.S.data - lifted.S.data))),
                            float(np.max(np.abs(layered.T.data - lifted.T.data))))
    elapsed = time.perf_counter() - start
    print(f"criterion 2: max elementwise gap = {worst:.2e} (tol 1e-10), "
          f"{elapsed:.1f}s (budget 10s)")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_3_sdgae_iterative_equals_polynomial():
    start = time.perf_counter()
    rng = np.random.default_rng(3000)
    worst = 0.0
    for i in range(20):
        k = 1 + i % 5
        g = random_graph(rng, int(rng.integers(5, 25)))
        p = models.SdgaeParams.init(rng, g, 4, TrainConfig(hidden=8, emb=6, k=k))
        for gamma in p.gamma_s + p.gamma_t:
            gamma.data[0, 0] = rng.uniform(-1.5, 1.5)
        x = rng.standard_normal((g.n, 4))
        a = normalize_sym(g)
        it = models.encoder_forward(p, x)
        ex = sdgae_encode_explicit(p, a, x)
        worst = max(worst,
                    float(np.max(np.abs(it.S.data - ex.S.data))),
                    float(np.max(np.abs(it.T.data - ex.T.data))))

    # K=2 closed form, exact: w_S = [1, g_S0+g_S1, g_S1*g_T0] and the mirror
    gs = rng.uniform(-2, 2, size=2)
    gt = rng.uniform(-2, 2, size=2)
    w_s, w_t = expand_coefficients(list(gs), list(gt), 2)
    closed_ok = (np.array_equal(w_s, [1.0, gs[0] + gs[1], gs[1] * gt[0]])
                 and np.array_equal(w_t, [1.0, gt[0] + gt[1], gt[1] * gs[0]]))
    elapsed = time.perf_counter() - start
    print(f"criterion 3: max iterative/polynomial gap = {worst:.2e} (tol 1e-8), "
          f"K=2 closed form exact = {closed_ok}, {elapsed:.1f}s (budget 10s)")
    assert worst <= 1e-8
    assert closed_ok
    assert elapsed < 10.0


def test_criterion_4_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(4000)
    g = weakly_connected_random_graph(rng, 10, p=0.25)
    feats = init_features(FeatureInit(mode="degrees"), g)
    non_edges = [[u, v] for u in range(10) for v in range(10)
                 if u != v and not adjacency(g)[u, v]][:6]
    pairs = np.vstack([g.edges[:6], non_edges])
    labels = np.concatenate([np.ones(6), np.zeros(6)])
    classes = (1 - labels).astype(np.int64)

    worst = 0.0
    for encoder in ("mlp", "digae", "sdgae"):
        for decoder in ("inner", "mlp_hadamard", "mlp_concat"):
            for loss_name in ("bce", "ce"):
                cfg = TrainConfig(encoder=encoder, decoder=decoder, loss=loss_name,
                                  hidden=6, emb=5, k=2, dec_hidden=6)
                model = training.build_model(cfg, g, feats, rng)
                # move every parameter (biases included) to a generic point:
                # zero-init biases can park relu inputs exactly on the kink,
                # where finite differences are undefined
                for p in model.parameters():
                    p.data = rng.standard_normal(p.data.shape) * 0.5

                def loss_builder():
                    logits = models.decode(model.dec_params, model.encode(), pairs)
                    if loss_name == "bce":
                        return ad.bce_with_logits(logits, labels)
                    return ad.ce_pairwise(logits, classes)

                # h an order below the smallest relu pre-activation gap so the
                # central difference never straddles a kink
                err = check_gradients(loss_builder, model.parameters(), rng,
                                      coords_per_tensor=2, h=1e-6, tol=1e-4)
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    print(f"criterion 4: worst relative gradient error over 18 combos = {worst:.2e} "
          f"(tol 1e-4), {elapsed:.1f}s (budget 60s)")
    assert worst <= 1e-4
    assert elapsed < 60.0


def test_criterion_5_metric_oracle_equivalence():
    start = time.perf_counter()
    worst_auc = worst_ap = 0.0
    for pos, neg in _instances(5000):
        for k in (1, 3, 20):
            assert hits_at_k(pos, neg, k) == _oracle_hits(pos, neg, k)
        assert mrr(pos, neg) == _oracle_mrr(pos, neg)
        worst_auc = max(worst_auc, abs(auc(pos, neg) - _oracle_auc(pos, neg)))
        worst_ap = max(worst_ap, abs(ap(pos, neg) - _oracle_ap(pos, neg)))
    elapsed = time.perf_counter() - start
    print(f"criterion 5: hits/mrr exact on 100 instances, auc gap {worst_auc:.2e} "
          f"(tol 1e-12), ap gap {worst_ap:.2e} (tol 1e-10), {elapsed:.1f}s (budget 30s)")
    assert worst_auc <= 1e-12
    assert worst_ap <= 1e-10
    assert elapsed < 30.0


def test_criterion_6_proposition_certificates():
    start = time.perf_counter()
    ring = datasets.load_fixture("ring3")
    two_path = datasets.load_fixture("graph_d")

    ring_cert = analysis.check_expressiveness(ring, "single", "lr_concat")
    ring_dual_cert = analysis.check_expressiveness(ring, "dual", "lr_concat")
    feas_cert = analysis.check_expressiveness(two_path, "single", "lr_concat", attempts=10)

    w = ad.Tensor(np.array([[1.0], [0.0], [0.0], [1.0]]))
    b = ad.Tensor(np.zeros((1, 1)))
    dec = models.DecoderKind(kind="lr_concat", out_dim=1, layers=[(w, b)])
    hand = np.array([[1.0, -1.0], [-1.0, 1.0], [2.0, -2.0]])
    hand_margin = analysis.replay_margin(two_path, dec, hand, hand)

    dual_cert = analysis.check_expressiveness(ring, "dual", "inner", dim=3, attempts=10)
    elapsed = time.perf_counter() - start
    print(f"criterion 6: ring single+concat {ring_cert.verdict}; ring dual+concat "
          f"{ring_dual_cert.verdict}; two-path "
          f"{feas_cert.verdict} (margin {feas_cert.margin:.3f}); hand witness margin "
          f"{hand_margin}; ring dual+inner {dual_cert.verdict} "
          f"(margin {dual_cert.margin:.3f}); {elapsed:.1f}s (budget 60s)")
    assert ring_cert.verdict == "infeasible" and "0 > 0" in ring_cert.detail
    assert ring_dual_cert.verdict == "infeasible" and "0 > 0" in ring_dual_cert.detail
    assert feas_cert.verdict == "feasible" and feas_cert.margin > 0
    assert hand_margin == 1.0
    assert dual_cert.verdict == "feasible" and dual_cert.margin > 0
    assert elapsed < 60.0


def _bfs_weakly_connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def test_criterion_7_split_protocol_audit(monkeypatch):
    start = time.perf_counter()
    g = datasets.load_fixture("synthetic200")
    m = g.edge_count
    n_test, n_val = int(np.floor(0.15 * m)), int(np.floor(0.05 * m))
    full_keys = {(int(u), int(v)) for u, v in g.edges}
    for seed in DEFAULT_SEEDS:
        bundle = split_edges(g, seed=seed)
        assert len(bundle.test_pos) == n_test
        assert len(bundle.val_pos) == n_val
        assert len(bundle.train_pos) == m - n_test - n_val
        assert _bfs_weakly_connected(g.n, bundle.train_graph.edges)
        eval_negs = {(int(u), int(v)) for u, v in bundle.val_neg}
        eval_negs |= {(int(u), int(v)) for u, v in bundle.test_neg}
        assert len(eval_negs) == len(bundle.val_neg) + len(bundle.test_neg)
        assert not (eval_negs & full_keys)
        assert all(u != v for u, v in eval_negs)

    # leakage instrumentation: held-out pairs are first read after the last
    # validation callback of the training loop
    events = []
    real_make = training.make_validation_scorer

    def spy_make(b):
        scorer = real_make(b)

        def wrapped(score_many):
            events.append("val_call")
            return scorer(score_many)

        return wrapped

    monkeypatch.setattr(training, "make_validation_scorer", spy_make)
    bundle = split_edges(g, seed=0)
    feats = init_features(FeatureInit(mode="degrees"), bundle.train_graph)
    cfg = TrainConfig(hidden=8, emb=8, k=2, max_epochs=10, patience=5)
    training.train(cfg, _RecordingBundle(bundle, events), feats)
    test_reads = [i for i, e in enumerate(events) if e in ("test_pos", "test_neg")]
    val_calls = [i for i, e in enumerate(events) if e == "val_call"]
    leak_free = bool(test_reads) and min(test_reads) > max(val_calls)
    elapsed = time.perf_counter() - start
    print(f"criterion 7: 10 seeds audited (train {m - n_test - n_val} / val {n_val} "
          f"/ test {n_test}), leakage instrumentation clean = {leak_free}, "
          f"{elapsed:.1f}s (budget 10s)")
    assert leak_free
    assert elapsed < 10.0


def test_criterion_8_sdgae_learns_and_beats_mlp():
    start = time.perf_counter()
    g = datasets.load_fixture("synthetic200")
    bundles = [split_edges(g, seed=s) for s in DEFAULT_SEEDS]
    sdgae = TrainConfig()
    mlp = TrainConfig(encoder="mlp")
    result = grid_run([sdgae, mlp], bundles, feature_init=FeatureInit(mode="degrees"))
    by_config = {s.config: s for s in result.summaries}
    sdgae_auc = by_config[training.config_id(sdgae)].mean["auc"]
    mlp_auc = by_config[training.config_id(mlp)].mean["auc"]
    failed = sum(s.n_failed for s in result.summaries)
    elapsed = time.perf_counter() - start
    print(f"criterion 8: SDGAE mean test AUC {sdgae_auc:.2f} (floor 85), MLP "
          f"{mlp_auc:.2f}, failed runs {failed}, {elapsed:.0f}s (budget 300s)")
    assert failed == 0
    assert sdgae_auc >= 85.0
    assert sdgae_auc > mlp_auc
    assert elapsed < 300.0


CORA_EDGES = os.environ.get("DIRLINK_CORA_EDGES", "")
CORA_FEATURES = os.environ.get("DIRLINK_CORA_FEATURES", "")


@pytest.mark.skipif(
    not (CORA_EDGES and CORA_FEATURES),
    reason="optional: set DIRLINK_CORA_EDGES and DIRLINK_CORA_FEATURES to run",
)
def test_criterion_9_cora_ml_hits100():
    start = time.perf_counter()
    g = load_edge_list(CORA_EDGES)
    feats = load_features(CORA_FEATURES)
    g, feats = preprocess(g, feats)
    bundles = [split_edges(g, seed=s) for s in DEFAULT_SEEDS]
    sdgae = TrainConfig(mlp_layers=1)
    mlp = TrainConfig(encoder="mlp")
    result = grid_run([sdgae, mlp], bundles,
                      feature_init=FeatureInit(mode="original"), original=feats)
    by_config = {s.config: s for s in result.summaries}
    s_hits = by_config[training.config_id(sdgae)].mean["hits100"]
    m_hits = by_config[training.config_id(mlp)].mean["hits100"]
    elapsed = time.perf_counter() - start
    print(f"criterion 9: SDGAE Hits@100 {s_hits:.2f} (band [85, 95]), MLP "
          f"{m_hits:.2f} (band [50, 70]), {elapsed:.0f}s (budget 1800s)")
    assert 85.0 <= s_hits <= 95.0
    assert 50.0 <= m_hits <= 70.0
    assert elapsed < 1800.0

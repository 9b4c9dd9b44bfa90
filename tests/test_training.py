import dataclasses

import numpy as np
import pytest

from dirlink import models, splits, training
from dirlink.graph import DirectedGraph
from helpers import run_under_memory_bound, weakly_connected_random_graph


def small_bundle(seed=0, n=30):
    rng = np.random.default_rng(500 + seed)
    g = weakly_connected_random_graph(rng, n, p=0.15)
    return splits.split_edges(g, seed=seed)


def small_cfg(**kw):
    base = dict(hidden=8, emb=8, k=2, max_epochs=40, patience=10, lr=0.05)
    base.update(kw)
    return training.TrainConfig(**base)


def test_training_is_deterministic():
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    a = training.train(small_cfg(), bundle, feats)
    b = training.train(small_cfg(), bundle, feats)
    assert a.report.as_dict() == b.report.as_dict()
    assert np.array_equal(a.loss_history, b.loss_history)
    for name, arr in a.best_params.items():
        assert np.array_equal(arr, b.best_params[name])


def test_model_seed_changes_the_run():
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    a = training.train(small_cfg(seed=0), bundle, feats)
    b = training.train(small_cfg(seed=1), bundle, feats)
    assert not np.array_equal(a.loss_history[: len(b.loss_history)], b.loss_history[: len(a.loss_history)])


def test_negative_strategies_diverge():
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    a = training.train(small_cfg(max_epochs=12, patience=11), bundle, feats)
    b = training.train(small_cfg(max_epochs=12, patience=11, neg_strategy="per_epoch"), bundle, feats)
    assert not np.array_equal(a.loss_history, b.loss_history)


def test_run_entropy_separates_configs_and_splits():
    cfg = small_cfg()
    assert training._run_entropy(cfg, 3) == training._run_entropy(small_cfg(), 3)
    assert training._run_entropy(cfg, 3) != training._run_entropy(cfg, 4)
    assert training._run_entropy(cfg, 3)[0] != training._run_entropy(small_cfg(lr=0.06), 3)[0]


def test_config_id_covers_every_field():
    cfg = small_cfg()
    cid = training.config_id(cfg)
    parts = cid.split(",")
    assert len(parts) == len(dataclasses.asdict(cfg))
    assert "encoder=sdgae" in parts and "k=2" in parts
    assert parts == sorted(parts)


def test_config_validation():
    with pytest.raises(ValueError, match="encoder"):
        training.TrainConfig(encoder="gcn")
    with pytest.raises(ValueError, match="decoder"):
        training.TrainConfig(decoder="bilinear")
    with pytest.raises(ValueError, match="loss"):
        training.TrainConfig(loss="hinge")
    with pytest.raises(ValueError, match="strategy"):
        training.TrainConfig(neg_strategy="static")
    with pytest.raises(ValueError, match="patience"):
        training.TrainConfig(patience=2000, max_epochs=2000)


def test_zero_lr_plateaus_and_stops_at_patience():
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    cfg = small_cfg(lr=0.0, patience=5, max_epochs=50)
    fitted = training.fit(cfg, bundle.train_graph, feats,
                          training.make_validation_scorer(bundle), bundle.seed)
    assert fitted.best_epoch == 1
    assert fitted.epochs_run == 6
    assert len(fitted.val_history) == 6
    assert np.all(fitted.val_history == fitted.val_history[0])


def test_fit_restores_the_best_epoch():
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    scorer = training.make_validation_scorer(bundle)
    fitted = training.fit(small_cfg(), bundle.train_graph, feats, scorer, bundle.seed)
    assert scorer(fitted.model.score_many) == fitted.best_val
    assert fitted.best_val == max(fitted.val_history)


class _RecordingBundle:
    """Pass-through proxy that appends every attribute read to a shared log."""

    def __init__(self, bundle, events):
        object.__setattr__(self, "_bundle", bundle)
        object.__setattr__(self, "_events", events)

    def __getattr__(self, name):
        self._events.append(name)
        return getattr(self._bundle, name)


def test_test_pairs_read_only_after_validation_finishes(monkeypatch):
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    events = []
    real_make = training.make_validation_scorer

    def spy_make(b):
        scorer = real_make(b)

        def wrapped(score_many):
            events.append("val_call")
            return scorer(score_many)

        return wrapped

    monkeypatch.setattr(training, "make_validation_scorer", spy_make)
    training.train_with_model(small_cfg(max_epochs=12, patience=11),
                              _RecordingBundle(bundle, events), feats)
    test_reads = [i for i, e in enumerate(events) if e in ("test_pos", "test_neg")]
    val_calls = [i for i, e in enumerate(events) if e == "val_call"]
    assert test_reads and val_calls
    assert min(test_reads) > max(val_calls)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_run_raises_training_error():
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    cfg = small_cfg(lr=1e155, max_epochs=20, patience=10)
    with pytest.raises(training.TrainingError, match="aborted at epoch"):
        training.train(cfg, bundle, feats)


def _grid_inputs():
    cfgs = [small_cfg(max_epochs=15, patience=5),
            small_cfg(max_epochs=15, patience=5, encoder="mlp")]
    bundles = [small_bundle(seed=0), small_bundle(seed=1)]
    return cfgs, bundles


def _row_key(r):
    rep = tuple(sorted(r.report.as_dict().items())) if r.report is not None else None
    return (r.config, r.split_seed, r.status, rep, r.best_val, r.epochs_run)


def test_grid_run_is_worker_count_invariant():
    cfgs, bundles = _grid_inputs()
    serial = training.grid_run(cfgs, bundles, workers=1)
    parallel = training.grid_run(cfgs, bundles, workers=2)
    assert [_row_key(r) for r in serial.rows] == [_row_key(r) for r in parallel.rows]
    assert serial.best_config == parallel.best_config


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_aggregates_and_flags_failures():
    good = small_cfg(max_epochs=15, patience=5)
    bad = small_cfg(max_epochs=15, patience=5, lr=1e155)
    bundles = [small_bundle(seed=0), small_bundle(seed=1)]
    result = training.grid_run([good, bad], bundles)

    assert len(result.rows) == 4
    ok_rows = [r for r in result.rows if r.config == training.config_id(good)]
    bad_rows = [r for r in result.rows if r.config == training.config_id(bad)]
    assert [r.split_seed for r in ok_rows] == [0, 1]
    assert all(r.status == "failed" and r.report is None and r.error for r in bad_rows)

    good_sum = next(s for s in result.summaries if s.config == training.config_id(good))
    bad_sum = next(s for s in result.summaries if s.config == training.config_id(bad))
    aucs = np.array([r.report.auc for r in ok_rows])
    assert good_sum.mean["auc"] == pytest.approx(aucs.mean())
    assert good_sum.std["auc"] == pytest.approx(aucs.std(ddof=1))
    assert bad_sum.n_failed == 2 and bad_sum.mean == {}
    assert result.best_config == training.config_id(good)
    assert result.best_by_family == {"sdgae": training.config_id(good)}


def test_grid_run_rejects_empty_inputs():
    with pytest.raises(ValueError):
        training.grid_run([], [small_bundle()])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_tsv_writers(tmp_path):
    good = small_cfg(max_epochs=15, patience=5)
    bad = small_cfg(max_epochs=15, patience=5, lr=1e155)
    result = training.grid_run([good, bad], [small_bundle(seed=0)])

    runs = tmp_path / "runs.tsv"
    training.write_runs_tsv(runs, result.rows, "toy")
    lines = runs.read_text().splitlines()
    assert lines[0].split("\t") == list(training.RUN_COLUMNS)
    assert len(lines) == 3
    failed = lines[2].split("\t")
    assert failed[-1] == "failed"
    assert failed[3:10] == [""] * 7
    ok = lines[1].split("\t")
    assert ok[-1] == "ok" and ok[1] == "toy"
    assert float(ok[7]) == pytest.approx(result.rows[0].report.auc, abs=1e-3)

    summary = tmp_path / "summary.tsv"
    training.write_summary_tsv(summary, result, "toy")
    lines = summary.read_text().splitlines()
    header = lines[0].split("\t")
    assert header[-1] == "selected" and len(lines) == 3
    selected = [ln.split("\t")[-1] for ln in lines[1:]]
    assert selected.count("1") == 1
    for ln in lines[1:]:
        assert len(ln.split("\t")) == len(header)


def test_score_many_builds_no_tape(monkeypatch):
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    model = training.build_model(small_cfg(), bundle.train_graph, feats, np.random.default_rng(0))
    encoded = []
    real_forward = models.encoder_forward

    def spy(*args):
        encoded.append(real_forward(*args))
        return encoded[-1]

    monkeypatch.setattr(models, "encoder_forward", spy)
    (scores,) = model.score_many([bundle.val_pos])
    assert scores.shape == (len(bundle.val_pos),)
    (enc,) = encoded
    assert not enc.S.requires_grad and enc.S.parents == () and enc.T.parents == ()


def _dense_bundle():
    # 84 edges on 12 nodes: the 68 train edges outnumber the 64 train non-edges
    n = 12
    g = DirectedGraph(n, [(u, v) for u in range(n) for v in range(n) if 0 < (v - u) % n <= 7])
    return splits.split_edges(g, seed=0)


def test_infeasible_train_negatives_are_a_flagged_row():
    bundle = _dense_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    with pytest.raises(training.TrainingError, match="68 negatives but only 64"):
        training.train(small_cfg(), bundle, feats)
    result = training.grid_run([small_cfg(max_epochs=15, patience=5)],
                               [_dense_bundle(), small_bundle()])
    assert [r.status for r in result.rows] == ["failed", "ok"]
    assert "only 64 non-edges" in result.rows[0].error


def test_empty_validation_split_is_rejected_before_training(monkeypatch):
    # 15 edges: the floor rule holds out 2 test edges and no validation edge
    g = DirectedGraph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    bundle = splits.split_edges(g, seed=0)
    assert len(bundle.val_pos) == 0
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    monkeypatch.setattr(training, "build_model", None)  # no model may be built
    with pytest.raises(training.TrainingError, match="empty validation split"):
        training.train(small_cfg(), bundle, feats)
    row = training.grid_run([small_cfg()], [bundle]).rows[0]
    assert row.status == "failed" and "empty validation split" in row.error


SCALE_CHILD = """
import numpy as np
from dirlink import training
from dirlink.graph import DirectedGraph
from dirlink.metrics import auc
from dirlink.splits import FeatureInit, init_features

n, m = 20_000, 200_000
rng = np.random.default_rng(0)
edges = rng.integers(0, n, size=(m, 2))
g = DirectedGraph(n, edges[edges[:, 0] != edges[:, 1]])
feats = init_features(FeatureInit(mode="degrees"), g)
pos, neg = g.edges[:1000], rng.integers(0, n, size=(1000, 2))
cfg = training.TrainConfig(max_epochs=2, patience=1)
fitted = training.fit(cfg, g, feats, lambda score_many: auc(*score_many([pos, neg])))
print(f"m={g.edge_count} epochs={fitted.epochs_run}", flush=True)
"""


def test_sdgae_trains_at_scale_within_memory_bound():
    """Default SDGAE, 2 epochs on n = 20k, m ~ 200k in a fresh process.

    The bound holds because no autodiff graph outlives its epoch; a tape that
    keeps its graphs alive passes it within the first epoch."""
    stats = run_under_memory_bound(SCALE_CHILD, bound_mb=3072)
    assert stats["epochs"] == "2" and int(stats["m"]) > 199_000

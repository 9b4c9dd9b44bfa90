import dataclasses
import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import dirlink.autodiff as ad
from dirlink import datasets, models, splits, training
from dirlink.graph import DirectedGraph
from dirlink.metrics import MetricsReport
from helpers import (force_lanes, run_under_memory_bound, sum_all,
                     weakly_connected_random_graph)


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
    a, a_row = training.train(small_cfg(), bundle, feats)
    b, b_row = training.train(small_cfg(), bundle, feats)
    assert a_row.report == b_row.report
    assert np.array_equal(a.loss_history, b.loss_history)
    b_params = b.model.named_parameters()
    for name, t in a.model.named_parameters().items():
        assert np.array_equal(t.data, b_params[name].data)


def test_model_seed_changes_the_run():
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    a, _ = training.train(small_cfg(seed=0), bundle, feats)
    b, _ = training.train(small_cfg(seed=1), bundle, feats)
    assert not np.array_equal(a.loss_history[: len(b.loss_history)],
                              b.loss_history[: len(a.loss_history)])


def test_negative_strategies_diverge():
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    a, _ = training.train(small_cfg(max_epochs=12, patience=11), bundle, feats)
    b, _ = training.train(small_cfg(max_epochs=12, patience=11, neg_strategy="per_epoch"), bundle,
                          feats)
    assert not np.array_equal(a.loss_history, b.loss_history)


def _record_plan_builds(monkeypatch):
    """The (index, side, pair) of every plan a PairIndex builds, in order."""
    builds, real = [], ad.PairIndex._plan

    def plan(self, side, pair):
        builds.append((self, side, pair))
        return real(self, side, pair)

    monkeypatch.setattr(ad.PairIndex, "_plan", plan)
    return builds


@pytest.mark.parametrize("decoder", ["inner", "mlp_hadamard"])
@pytest.mark.parametrize("strategy", ["per_run", "per_epoch"])
def test_fit_builds_the_pairs_plans_once_per_negative_draw(monkeypatch, strategy, decoder):
    """A fit indexes each draw of training pairs once, and the index builds
    each side's plan on the draw's first backward pass: once per run under
    per_run negatives and once per epoch under per_epoch.  Every epoch
    decodes through the index of the latest draw, so no plan of an older
    draw is read."""
    builds = _record_plan_builds(monkeypatch)
    draws, decoded = [], []
    real_sample, real_decode = training.sample_train_negatives, models.decode

    def sample(*args):
        draws.append(real_sample(*args))
        return draws[-1]

    def decode(dec, enc, pairs, index=None):
        if index is not None:  # the training loss; scoring passes no index
            decoded.append((index, len(draws), len(builds)))
        return real_decode(dec, enc, pairs, index)

    monkeypatch.setattr(training, "sample_train_negatives", sample)
    monkeypatch.setattr(models, "decode", decode)
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    cfg = small_cfg(decoder=decoder, neg_strategy=strategy, max_epochs=6, patience=5)
    epochs = len(training.fit(cfg, bundle.train_graph, feats, lambda score: 0.5).loss_history)
    assert epochs == 6 and len(draws) == (1 if strategy == "per_run" else epochs)
    assert len(decoded) == epochs
    indexes = list({id(index): index for index, _, _ in decoded}.values())
    assert len(indexes) == len(draws)
    # each index builds both sides' plans, in either order: autodiff.lanes may
    # run pair_dot's two backward products at once
    got = [(id(i), side) for i, side, _ in builds]
    assert [set(got[j:j + 2]) for j in range(0, len(got), 2)] == [{(id(i), 0), (id(i), 1)}
                                                                  for i in indexes]
    seen = set()
    for index, draw, built_before in decoded:
        pairs = np.vstack([bundle.train_graph.edges, draws[draw - 1]])
        assert np.array_equal(np.stack(index.sides, axis=1), pairs)
        if id(index) not in seen:  # a draw's index comes to its first pass without plans
            assert all(i is not index for i, _, _ in builds[:built_before])
            seen.add(id(index))


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
    for name in ("hidden", "emb", "dec_hidden", "mlp_layers"):
        for bad in (0, -2):
            with pytest.raises(ValueError, match=f"{name} must be >= 1, got {bad}"):
                training.TrainConfig(**{name: bad})
    with pytest.raises(ValueError, match="max_epochs must be >= 1, got 0"):
        training.TrainConfig(max_epochs=0, patience=-1)
    with pytest.raises(ValueError, match="patience must be >= 0, got -5"):
        training.TrainConfig(patience=-5)
    assert training.TrainConfig(patience=0).patience == 0
    for name in ("lr", "wd"):
        for bad in (-0.01, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got {bad}"):
                training.TrainConfig(**{name: bad})
        assert getattr(training.TrainConfig(**{name: 0.0}), name) == 0.0
    # the model ranges are checked here, before any run builds a model
    for bad in (0, 9):
        with pytest.raises(ValueError, match=f"k must be in 1..8, got {bad}"):
            training.TrainConfig(k=bad)
    for name in ("alpha", "beta"):
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match=f"{name} must lie in"):
                training.TrainConfig(**{name: bad})
    for bad in (0, 3):
        with pytest.raises(ValueError, match=f"digae_layers must be 1 or 2, got {bad}"):
            training.TrainConfig(digae_layers=bad)
    # each field takes exactly its default's type
    for name, bad in (("emb", 8.0), ("hidden", True), ("lr", "0.1"), ("lr", 1),
                      ("encoder", None)):
        kind = type(getattr(training.TrainConfig, name)).__name__
        with pytest.raises(ValueError, match=f"{name} must be {kind}, got {bad!r}"):
            training.TrainConfig(**{name: bad})


def test_fit_without_a_finite_validation_score_is_a_training_error():
    # NaN never beats -inf, so no epoch becomes the best one to restore
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    for score in (float("nan"), -np.inf):
        with pytest.raises(training.TrainingError, match="none of 2 epochs scored above -inf"):
            training.fit(small_cfg(max_epochs=3, patience=2), bundle.train_graph, feats,
                         lambda score_many: score, bundle.seed)


def test_mlp_encoder_depth_follows_mlp_layers():
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    widths = {}
    for layers in (1, 2, 3):
        model = training.build_model(small_cfg(encoder="mlp", mlp_layers=layers),
                                     bundle.train_graph, feats, np.random.default_rng(0))
        widths[layers] = [w.shape for w, _ in model.enc_params.mlp.layers]
    in_dim = feats.shape[1]
    assert widths == {1: [(in_dim, 8)], 2: [(in_dim, 8), (8, 8)],
                      3: [(in_dim, 8), (8, 8), (8, 8)]}


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
    assert scorer(fitted.model.scorer()) == fitted.best_val
    assert fitted.best_val == max(fitted.val_history)


@pytest.mark.parametrize("encoder", models.ENCODERS)
def test_scorer_without_embeddings_encodes_forward_only(monkeypatch, encoder):
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    model = training.build_model(small_cfg(encoder=encoder), bundle.train_graph, feats,
                                 np.random.default_rng(3))
    pairs = np.vstack([bundle.test_pos, bundle.test_neg])
    with ad.no_grad():
        expected = model.scorer(model.encode())(pairs)
    encodings = []
    forward = models.encoder_forward

    def recording_forward(*args):
        encodings.append(forward(*args))
        return encodings[-1]

    monkeypatch.setattr(models, "encoder_forward", recording_forward)
    scores = model.scorer()(pairs)
    assert len(encodings) == 1
    assert all(t.parents == () and not t.requires_grad
               for t in (encodings[0].S, encodings[0].T))
    assert scores.tobytes() == expected.tobytes()


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
    training.train(small_cfg(max_epochs=12, patience=11), _RecordingBundle(bundle, events), feats)
    test_reads = [i for i, e in enumerate(events) if e in ("test_pos", "test_neg")]
    val_calls = [i for i, e in enumerate(events) if e == "val_call"]
    assert test_reads and val_calls
    assert min(test_reads) > max(val_calls)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_run_is_a_flagged_row():
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    cfg = small_cfg(lr=1e155, max_epochs=20, patience=10)
    fitted, row = training.train(cfg, bundle, feats)
    assert fitted is None
    assert (row.config, row.split_seed, row.status) == (training.config_id(cfg), 0, "failed")
    assert row.error.startswith("aborted at epoch") and row.report is None


def _grid_inputs():
    cfgs = [small_cfg(max_epochs=15, patience=5),
            small_cfg(max_epochs=15, patience=5, encoder="mlp")]
    bundles = [small_bundle(seed=0), small_bundle(seed=1)]
    return cfgs, bundles


def _row_key(r):
    rep = tuple(sorted(dataclasses.asdict(r.report).items())) if r.report is not None else None
    return (r.config, r.split_seed, r.status, rep, r.best_val, r.epochs_run)


def test_grid_run_is_worker_count_invariant():
    cfgs, bundles = _grid_inputs()
    serial = training.grid_run(cfgs, bundles, workers=1)
    parallel = training.grid_run(cfgs, bundles, workers=2)
    assert [_row_key(r) for r in serial.rows] == [_row_key(r) for r in parallel.rows]
    assert serial.best_config == parallel.best_config


def test_grid_in_original_feature_mode_is_worker_count_invariant():
    cfgs, bundles = _grid_inputs()
    feats = np.random.default_rng(73).standard_normal((bundles[0].train_graph.n, 3))
    init = splits.FeatureInit(mode="original", original=feats)
    # the matrix is data, not a setting: it takes no part in comparison or repr
    assert init == splits.FeatureInit(mode="original") and "original=" not in repr(init)
    serial = training.grid_run(cfgs, bundles, feature_init=init, workers=1)
    parallel = training.grid_run(cfgs, bundles, feature_init=init, workers=2)
    assert all(r.status == "ok" for r in serial.rows)
    assert [_row_key(r) for r in serial.rows] == [_row_key(r) for r in parallel.rows]
    degree_rows = training.grid_run(cfgs, bundles, workers=1).rows
    assert [_row_key(r) for r in serial.rows] != [_row_key(r) for r in degree_rows]


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


def test_grid_selects_the_first_listed_config_on_tied_validation_means(monkeypatch):
    # mean validation AUCs 0.8, 0.9, 0.9, 0.9 over two families: ties go to
    # the config listed first, overall and within each family
    configs = [small_cfg(lr=0.01), small_cfg(encoder="mlp", lr=0.02),
               small_cfg(lr=0.03), small_cfg(encoder="mlp", lr=0.04)]
    best_val = dict(zip(map(training.config_id, configs), (0.8, 0.9, 0.9, 0.9)))
    report = MetricsReport.from_scores(np.array([1.0]), np.array([0.0]))

    def train(cfg, bundle, feats):
        config = training.config_id(cfg)
        return None, training.GridRow(config, bundle.seed, "ok", report, best_val[config])

    monkeypatch.setattr(training, "train", train)
    result = training.grid_run(configs, [small_bundle(seed=0), small_bundle(seed=1)])
    ids = [training.config_id(c) for c in configs]
    assert result.best_config == ids[1]
    assert result.best_by_family == {"sdgae": ids[2], "mlp": ids[1]}


def _failing_fit(monkeypatch, exc, config, split_seed):
    """Make fit raise exc for one run of the grid.  Grid workers are forked,
    so they inherit the patch."""
    real_fit = training.fit

    def fit(cfg, train_graph, feats, scorer, seed):
        if training.config_id(cfg) == config and seed == split_seed:
            raise exc
        return real_fit(cfg, train_graph, feats, scorer, seed)

    monkeypatch.setattr(training, "fit", fit)


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_flags_a_run_that_raises_any_exception(monkeypatch, tmp_path, workers):
    cfgs, bundles = _grid_inputs()
    doomed = training.config_id(cfgs[1])
    _failing_fit(monkeypatch, MemoryError("no room for the tape"), doomed, 1)
    result = training.grid_run(cfgs, bundles, workers=workers)
    training.write_runs_tsv(tmp_path / "runs.tsv", result.rows, "toy")
    header, *lines = (tmp_path / "runs.tsv").read_text().splitlines()
    rows = [dict(zip(header.split("\t"), line.split("\t"))) for line in lines]
    assert [(r["config"], r["seed"], r["status"]) for r in rows] == [
        (training.config_id(cfgs[0]), "0", "ok"), (training.config_id(cfgs[0]), "1", "ok"),
        (doomed, "0", "ok"), (doomed, "1", "failed")]
    assert result.rows[3].error == "MemoryError: no room for the tape"
    assert [s.n_failed for s in result.summaries] == [0, 1]


def test_keyboard_interrupt_stops_the_grid(monkeypatch):
    cfgs, bundles = _grid_inputs()
    _failing_fit(monkeypatch, KeyboardInterrupt(), training.config_id(cfgs[0]), 0)
    with pytest.raises(KeyboardInterrupt):
        training.grid_run(cfgs, bundles)


def test_grid_pool_starts_no_more_workers_than_tasks(monkeypatch):
    # with fork, every worker starts at the first submit, needed or not
    pools = []

    class InlinePool:
        """Records the pool size and initializer, and runs the tasks in this
        process without the initializer."""

        def __init__(self, max_workers, initializer):
            pools.append((max_workers, initializer))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(training, "ProcessPoolExecutor", InlinePool)
    cfgs = [small_cfg(max_epochs=3, patience=2), small_cfg(max_epochs=3, patience=2, lr=0.1)]
    result = training.grid_run(cfgs, [small_bundle()], workers=64)
    assert pools == [(2, ad.serial_lanes)]
    assert [r.status for r in result.rows] == ["ok", "ok"]


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


def test_last_score_and_evaluate_record_no_tape(monkeypatch):
    # a run that reaches max_epochs: 3 recorded passes that the steps consume,
    # then one forward-only pass for the last score; evaluate encodes once more
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    encoded = []
    real_forward = models.encoder_forward

    def spy(*args):
        encoded.append(real_forward(*args))
        return encoded[-1]

    monkeypatch.setattr(models, "encoder_forward", spy)
    fitted, row = training.train(small_cfg(max_epochs=3, patience=2), bundle, feats)
    assert fitted.epochs_run == 3 and row.status == "ok"
    assert [enc.S.requires_grad for enc in encoded] == [True, True, True, False, False]
    for enc in encoded[3:]:
        assert enc.S.parents == () and enc.T.parents == () and not enc.T.requires_grad


def _dense_bundle():
    # 84 edges on 12 nodes: the 68 train edges outnumber the 64 train non-edges
    n = 12
    g = DirectedGraph(n, [(u, v) for u in range(n) for v in range(n) if 0 < (v - u) % n <= 7])
    return splits.split_edges(g, seed=0)


def test_infeasible_train_negatives_are_a_flagged_row():
    bundle = _dense_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    fitted, row = training.train(small_cfg(), bundle, feats)
    assert fitted is None and "68 negatives but only 64" in row.error
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
    fitted, row = training.train(small_cfg(), bundle, feats)
    assert fitted is None and row.error.startswith("empty validation split")
    row = training.grid_run([small_cfg()], [bundle]).rows[0]
    assert row.status == "failed" and "empty validation split" in row.error


def _fixture_model(cfg):
    """A model of cfg on synthetic200 split seed 0, and a function that
    encodes it and runs one training step on the embeddings."""
    bundle = splits.split_edges(datasets.load_fixture("synthetic200"), seed=0)
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    model = training.build_model(cfg, bundle.train_graph, feats, np.random.default_rng(0))
    optimizer = ad.AdamState(model.parameters(), lr=cfg.lr)
    pos = bundle.train_graph.edges
    pairs = np.vstack([pos, splits.sample_train_negatives(bundle.train_graph, len(pos), 0)])
    index = ad.PairIndex(pairs, bundle.train_graph.n, bundle.train_graph.n)
    targets = np.repeat(training.LOSSES[cfg.loss][2], len(pos))

    def step():
        # the encode and the step, as one iteration of fit runs them on one draw
        training._train_step(cfg, model.dec_params, model.encode(), optimizer, pairs, index,
                             targets)

    return model, step, pairs


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("loss", list(training.LOSSES))
@pytest.mark.parametrize("encoder", list(models.ENCODERS))
def test_train_step_allocates_no_pair_sized_array(encoder, loss):
    """A training step with the inner decoder peaks, beyond what the encoder
    forward pass alone needs, at less than one (P, d) float64 array."""
    cfg = training.TrainConfig(encoder=encoder, decoder="inner", loss=loss)
    model, step, pairs = _fixture_model(cfg)
    step()  # warm-up: the optimizer state and the parameter grads exist from here on
    encode_peak = _traced_peak(model.encode)
    step_peak = _traced_peak(step)
    pair_array = len(pairs) * cfg.emb * 8
    assert len(pairs) == 2560 and pair_array < 1.4e6
    assert step_peak - encode_peak < pair_array


def test_sdgae_step_memory_does_not_grow_with_k():
    """A warm SDGAE step holds as many (n, d) arrays at k = 8 as at k = 1: its
    traced peak differs by less than one.  The propagation keeps its products
    and temporaries in the run's workspace, allocated by the first step; a
    tape of per-step nodes, or a fused op with fresh arrays per pass, holds
    2k or more new (n, d) arrays at its peak."""
    peaks = {}
    for k in (1, 8):
        cfg = training.TrainConfig(encoder="sdgae", k=k)
        model, step, _ = _fixture_model(cfg)
        step()
        peaks[k] = _traced_peak(step)
    n_by_d = model.feats.shape[0] * cfg.emb * 8
    assert abs(peaks[8] - peaks[1]) < n_by_d


def test_workspace_never_backs_returned_embeddings():
    # embeddings held across later passes keep their values: replayed,
    # recorded and not replayed, or unrecorded
    cfg = training.TrainConfig(encoder="sdgae")
    model, step, _ = _fixture_model(cfg)
    step()
    replayed = model.encode()
    ad.backward(sum_all(ad.hadamard(replayed.S, replayed.T)))
    held = [replayed, model.encode()]
    with ad.no_grad():
        held.append(model.encode())
    before = [(enc.S.data.copy(), enc.T.data.copy()) for enc in held]
    step()
    step()
    with ad.no_grad():
        model.encode()
    for enc, (s, t) in zip(held, before):
        assert np.array_equal(enc.S.data, s) and np.array_equal(enc.T.data, t)


def test_dropping_the_model_frees_its_workspace_by_refcount():
    cfg = training.TrainConfig(encoder="sdgae", k=3)
    gc.disable()
    try:
        model, step, _ = _fixture_model(cfg)
        step()
        workspace = model.enc_params.workspace
        arrays = workspace._free  # the step's arrays, given back by its backward pass
        assert len(arrays) == 2 * cfg.k + 6
        refs = [weakref.ref(o) for o in (model, workspace, *arrays)]
        del model, step, workspace, arrays
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


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
fitted = training.fit(cfg, g, feats, lambda score: auc(score(pos), score(neg)))
print(f"m={g.edge_count} epochs={fitted.epochs_run}", flush=True)
"""


def test_sdgae_trains_at_scale_within_memory_bound():
    """Default SDGAE, 2 epochs on n = 20k, m ~ 200k in a fresh process.

    The bound holds because no autodiff graph outlives its epoch; a tape that
    keeps its graphs alive passes it within the first epoch."""
    stats = run_under_memory_bound(SCALE_CHILD, bound_mb=1024)
    assert stats["epochs"] == "2" and int(stats["m"]) > 199_000


def test_laned_fit_matches_serial_bitwise(monkeypatch):
    """An SDGAE fit with its S and T sides on two threads trains the same
    parameters and histories, bit for bit, as one on one thread."""
    bundle = small_bundle()
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    cfg = small_cfg(max_epochs=8, patience=7)
    scorer = training.make_validation_scorer(bundle)
    serial = training.fit(cfg, bundle.train_graph, feats, scorer)
    threads = force_lanes(monkeypatch)
    laned = training.fit(cfg, bundle.train_graph, feats, scorer)
    assert threads and all(name.startswith("dirlink-lane") for name in threads)
    for history in ("loss_history", "val_history"):
        assert np.array_equal(getattr(laned, history), getattr(serial, history))
    want = serial.model.named_parameters()
    for name, t in laned.model.named_parameters().items():
        assert np.array_equal(t.data, want[name].data), name


_RMAT = Path(__file__).resolve().parents[1] / "perfbench"

BLAS_BITS_CHILD = """
import hashlib, sys, warnings
sys.path.insert(0, {perfbench!r})
from rmat import rmat_edges, write_edge_list
from dirlink import graph, splits, training

write_edge_list({raw!r}, rmat_edges(11, 14_000, 7))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # the raw R-MAT edges keep their self-loops
    g, _ = graph.preprocess(graph.load_edge_list({raw!r}))
bundle = splits.split_edges(g, seed=0)
feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
cfg = training.TrainConfig(max_epochs=1, patience=0)
fitted = training.fit(cfg, bundle.train_graph, feats, training.make_validation_scorer(bundle),
                      bundle.seed)
h = hashlib.sha256()
for name, t in sorted(fitted.model.named_parameters().items()):
    h.update(name.encode())
    h.update(t.data.tobytes())
print(f"n={{g.n}} digest={{h.hexdigest()}}", flush=True)
"""


def test_trained_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    """One SDGAE epoch on the R-MAT 2^11 graph of the benchmark (seed 7, n =
    1,513) trains the same parameters under OPENBLAS_NUM_THREADS=1 and =2:
    importing dirlink caps numpy's BLAS at one thread.  Uncapped, its
    weight-gradient products sum differently on two threads."""
    digests = set()
    for threads in ("1", "2"):
        code = BLAS_BITS_CHILD.format(perfbench=str(_RMAT), raw=str(tmp_path / f"raw{threads}.txt"))
        stats = run_under_memory_bound(code, bound_mb=400, env={"OPENBLAS_NUM_THREADS": threads})
        assert stats["n"] == "1513"
        digests.add(stats["digest"])
    assert len(digests) == 1


FORK_CHILD = """
import dataclasses, os, signal, threading
from dirlink import autodiff as ad, datasets, splits, training

ad.LANE_MIN_VALUES = 0  # lanes at the fixture's size, on any machine
ad._usable_cpus = lambda: 2
bundles = [splits.split_edges(datasets.load_fixture("synthetic200"), seed=s) for s in (0, 1)]
feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundles[0].train_graph)
cfg = training.TrainConfig(max_epochs=3, patience=2)
training.fit(cfg, bundles[0].train_graph, feats, training.make_validation_scorer(bundles[0]))
lane = any(t.name.startswith("dirlink-lane") for t in threading.enumerate())
cfgs = [cfg, training.TrainConfig(encoder="mlp", max_epochs=3, patience=2)]
rows = [[dataclasses.replace(r, seconds=0.0) for r in training.grid_run(cfgs, bundles,
                                                                         workers=w).rows]
        for w in (2, 1)]
pid = os.fork()
if pid == 0:  # a forked child starts a lane thread of its own, or is ended by the alarm
    signal.alarm(30)
    os._exit(0 if ad.lanes(0, lambda: "s", lambda: "t") == ("s", "t") else 1)
_, status = os.waitpid(pid, 0)
print(f"lane={lane} same={rows[0] == rows[1]} ok={all(r.status == 'ok' for r in rows[0])} "
      f"child={os.waitstatus_to_exitcode(status)}", flush=True)
"""


def test_a_process_with_a_lane_thread_forks_grid_workers_and_children_safely():
    """After a laned fit, grid_run(workers=2) finishes with the rows of
    workers=1, and a forked child's laned call runs: a fork inherits the
    lane thread's objects but not the thread, so the child starts its own."""
    stats = run_under_memory_bound(FORK_CHILD, bound_mb=600, timeout=120)
    assert stats == {**stats, "lane": "True", "same": "True", "ok": "True", "child": "0"}

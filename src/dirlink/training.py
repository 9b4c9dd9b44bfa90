"""Training protocol: full-batch runs with early stopping, and the seed grid.

The leakage boundary is structural: fit() receives only the training graph,
the features, and an opaque validation-scoring callback.  Held-out edges
enter through that callback and through evaluate(), never through the
training loop itself.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import models
# normalize_sym is not called here, but perfbench/spans.py traces it under
# this module's name as well, so it stays importable from here
from .graph import DataError, normalize_sym  # noqa: F401
from .metrics import MetricsReport, auc
from .splits import FeatureInit, init_features, sample_train_negatives

# each loss: its op, its logits per pair, and the targets of an edge and a non-edge
LOSSES = {
    "bce": (ad.bce_with_logits, 1, (1.0, 0.0)),
    "ce": (ad.ce_pairwise, 2, (0, 1)),
}


def check_field_types(obj):
    """ValueError unless each field of ``obj`` with a plain default has exactly its type."""
    for f in fields(obj):
        value, typ = getattr(obj, f.name), type(f.default)
        if f.default is not MISSING and type(value) is not typ:
            raise ValueError(f"{f.name} must be {typ.__name__}, got {value!r}")


class TrainingError(RuntimeError):
    """A run aborted (non-finite loss, an infeasible sampling request, or an
    empty validation split).  The message is the reason alone; the caller
    that knows the run names its config."""


@dataclass
class TrainConfig:
    encoder: str = "sdgae"
    decoder: str = "inner"
    loss: str = "bce"
    lr: float = 0.01
    wd: float = 0.0
    max_epochs: int = 2000
    patience: int = 200
    neg_strategy: str = "per_run"
    seed: int = 0
    hidden: int = 64
    emb: int = 64
    mlp_layers: int = 2
    k: int = 5
    alpha: float = 0.4
    beta: float = 0.4
    digae_layers: int = 1
    dec_hidden: int = 64

    def __post_init__(self):
        check_field_types(self)
        if self.encoder not in models.ENCODERS:
            raise ValueError(f"unknown encoder {self.encoder!r}")
        if self.decoder not in models.DECODER_KINDS:
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.neg_strategy not in ("per_run", "per_epoch"):
            raise ValueError(f"unknown negative strategy {self.neg_strategy!r}")
        for name in ("hidden", "emb", "dec_hidden", "mlp_layers", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        for name in ("lr", "wd"):
            if not 0.0 <= getattr(self, name) < np.inf:  # NaN fails both
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.patience < self.max_epochs:
            raise ValueError("patience must be smaller than max_epochs")
        if not 1 <= self.k <= 8:
            raise ValueError(f"k must be in 1..8, got {self.k}")
        for name in ("alpha", "beta"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if self.digae_layers not in (1, 2):
            raise ValueError(f"digae_layers must be 1 or 2, got {self.digae_layers}")


def config_id(cfg):
    """Canonical config identity: every field, fixed order."""
    return ",".join(f"{k}={v}" for k, v in sorted(asdict(cfg).items()))


def _run_entropy(cfg, split_seed):
    # stable across processes: hash the canonical config string, mix the seeds
    digest = hashlib.sha256(config_id(cfg).encode()).digest()
    return [int.from_bytes(digest[:8], "little"), int(split_seed), int(cfg.seed)]


@dataclass
class TrainedModel:
    enc_params: object
    dec_params: models.DecoderKind
    feats: np.ndarray

    def parameters(self):
        return list(self.named_parameters().values())

    def named_parameters(self):
        named = dict(self.enc_params.named_parameters())
        named.update(self.dec_params.named_parameters())
        return named

    def encode(self):
        return models.encoder_forward(self.enc_params, self.feats)

    def scorer(self, enc=None):
        """pairs -> ranking scores of the decoder on enc, embeddings of the
        current parameters, which it scores without encoding them again; on
        a forward-only encode of them when enc is None."""
        if enc is None:
            with ad.no_grad():
                enc = self.encode()
        return functools.partial(models.ranking_scores, self.dec_params, enc)


def build_model(cfg, train_graph, feats, rng):
    feats = np.asarray(feats, dtype=np.float64)
    enc = models.ENCODERS[cfg.encoder].init(rng, train_graph, feats.shape[1], cfg)
    dec = models.DecoderKind.init(rng, cfg.decoder, cfg.emb, cfg.dec_hidden, LOSSES[cfg.loss][1])
    return TrainedModel(enc, dec, feats)


@dataclass
class FitResult:
    model: TrainedModel
    loss_history: np.ndarray
    val_history: np.ndarray
    best_epoch: int
    best_val: float
    epochs_run: int


def _train_step(cfg, dec, enc, optimizer, pairs, index, targets):
    """Epoch's loss on the embeddings enc, its backward pass and the
    optimizer step; returns the loss value.  ``index`` is the
    ``autodiff.PairIndex`` of the pairs, and ``targets`` their loss targets.

    The loss's graph lives in this frame only, and the backward pass frees
    the embeddings' tape, so the caller that drops enc drops the epoch."""
    loss = LOSSES[cfg.loss][0](models.decode(dec, enc, pairs, index), targets)
    ad.backward(loss, optimizer.params)
    optimizer.step()
    return float(loss.data[0, 0])


def fit(cfg, train_graph, feats, validation_scorer, split_seed=0):
    """Train on the training graph alone, early-stopping on the callback score.

    Iteration e encodes the parameters after e epochs once.  For e >= 1 the
    callback scores epoch e on those embeddings: it receives a scorer (pairs
    -> ranking scores) and returns a scalar to maximize.  A new best state
    is copied, or patience stops the run; otherwise the same embeddings,
    encoded with the tape on, form epoch e + 1's loss and the optimizer
    steps.  At e = max_epochs the encode is forward-only and serves the last
    score alone, so a run of E epochs encodes E + 1 times.  Returns the
    model restored to its best-scoring epoch.  Raises TrainingError when the
    loss diverges, the training negatives cannot be sampled, or no epoch
    scores above -inf (a NaN score never counts as a best); an error names
    the epoch whose loss or score failed.
    """
    root = np.random.SeedSequence(_run_entropy(cfg, split_seed))
    init_ss, neg_ss = root.spawn(2)
    model = build_model(cfg, train_graph, feats, np.random.default_rng(init_ss))
    optimizer = ad.AdamState(model.parameters(), lr=cfg.lr, weight_decay=cfg.wd)

    pos_pairs = train_graph.edges
    count = len(pos_pairs)
    neg_seed = int(neg_ss.generate_state(1)[0])
    targets = np.repeat(LOSSES[cfg.loss][2], count)

    pairs = None
    losses = []
    vals = []
    best_val = -np.inf
    best_epoch = 0
    best_state = None

    for epochs_run in range(cfg.max_epochs + 1):
        last = epochs_run == cfg.max_epochs
        with ad.no_grad() if last else contextlib.nullcontext():
            enc = model.encode()
        if epochs_run:
            # a diverged model first shows up here as NaN ranking scores
            try:
                val = float(validation_scorer(model.scorer(enc)))
            except (FloatingPointError, ValueError) as exc:
                raise TrainingError(f"aborted at epoch {epochs_run}: {exc}") from exc
            vals.append(val)
            if val > best_val:
                best_val = val
                best_epoch = epochs_run
                best_state = {name: t.data.copy() for name, t in model.named_parameters().items()}
            elif epochs_run - best_epoch >= cfg.patience:
                break
        if last:
            break
        epoch = epochs_run + 1
        try:
            # the positives followed by negatives drawn once per run or per epoch,
            # with the index that keeps the draw's backward plans
            if pairs is None or cfg.neg_strategy == "per_epoch":
                negs = sample_train_negatives(train_graph, count, neg_seed, cfg.neg_strategy,
                                              epoch)
                pairs = np.vstack([pos_pairs, negs])
                index = ad.PairIndex(pairs, train_graph.n, train_graph.n)
            losses.append(_train_step(cfg, model.dec_params, enc, optimizer, pairs, index,
                                      targets))
        except FloatingPointError as exc:
            raise TrainingError(f"aborted at epoch {epoch}: {exc}") from exc
        except DataError as exc:
            raise TrainingError(str(exc)) from exc
        del enc  # before the next pass allocates its own (n, d) arrays
    if best_state is None:
        raise TrainingError(f"none of {epochs_run} epochs scored above -inf on validation "
                            f"(last score {vals[-1]})")

    for name, t in model.named_parameters().items():
        t.data = best_state[name]
    return FitResult(
        model=model,
        loss_history=np.asarray(losses),
        val_history=np.asarray(vals),
        best_epoch=best_epoch,
        best_val=best_val,
        epochs_run=epochs_run,
    )


def make_validation_scorer(bundle):
    """Validation AUC callback over the bundle's validation pairs only.

    Raises TrainingError up front when either validation set is empty, as
    the floor rule leaves it on very small graphs: AUC needs both."""
    val_pos = np.array(bundle.val_pos, dtype=np.int64)
    val_neg = np.array(bundle.val_neg, dtype=np.int64)
    if len(val_pos) == 0 or len(val_neg) == 0:
        raise TrainingError(
            f"empty validation split: {len(val_pos)} positive and "
            f"{len(val_neg)} negative pairs; early stopping needs at least one of each"
        )

    def scorer(score):
        return auc(score(val_pos), score(val_neg))

    return scorer


def evaluate(model, bundle):
    """Score the held-out test pairs on one forward-only encode and compute
    all seven metrics.  Raises DataError when either test set is empty, as
    the floor rule leaves it on very small graphs."""
    if len(bundle.test_pos) == 0 or len(bundle.test_neg) == 0:
        raise DataError(f"empty test split: {len(bundle.test_pos)} positive and "
                        f"{len(bundle.test_neg)} negative pairs; metrics need at least one of each")
    score = model.scorer()
    return MetricsReport.from_scores(score(bundle.test_pos), score(bundle.test_neg))


@dataclass
class GridRow:
    """The record of one run: its runs.tsv row, and its reason if it failed."""

    config: str
    split_seed: int
    status: str
    # a failed run has no report, no score, no epochs and no time
    report: MetricsReport | None = None
    best_val: float = float("nan")
    epochs_run: int = 0
    seconds: float = 0.0
    error: str = ""


def train(cfg, bundle, feats):
    """Full protocol on one split: fit with early stopping, then test.

    Returns the FitResult, whose model is the one at its best epoch, and the
    run's GridRow, whose seconds cover the fit and the test evaluation.  A
    run that raises any Exception, a TrainingError or a MemoryError say,
    returns None and a flagged row instead; its error is a TrainingError's
    reason, or any other exception's type and message.  KeyboardInterrupt
    propagates.
    """
    start = time.perf_counter()
    try:
        fitted = fit(cfg, bundle.train_graph, feats, make_validation_scorer(bundle), bundle.seed)
        report = evaluate(fitted.model, bundle)
    except Exception as exc:  # one failed run, even out of memory, is one flagged row
        error = str(exc)
        if not isinstance(exc, TrainingError):
            error = type(exc).__name__ + (f": {error}" if error else "")
        return None, GridRow(config_id(cfg), bundle.seed, "failed", error=error)
    row = GridRow(config_id(cfg), bundle.seed, "ok", report, fitted.best_val, fitted.epochs_run,
                  time.perf_counter() - start)
    return fitted, row


@dataclass
class GridSummary:
    config: str
    family: str
    n_runs: int
    n_failed: int
    mean: dict = field(default_factory=dict)
    std: dict = field(default_factory=dict)
    mean_val: float = float("nan")


@dataclass
class GridResult:
    rows: list
    summaries: list
    best_config: str
    best_by_family: dict = field(default_factory=dict)


def _grid_task(args):
    cfg, bundle, feature_init = args
    return train(cfg, bundle, init_features(feature_init, bundle.train_graph))[1]


def grid_run(configs, bundles, feature_init=None, workers=1):
    """Train every config on every bundle; aggregate mean and sample std.

    A failed run is train's flagged row, excluded from aggregates, never
    silently averaged; KeyboardInterrupt still stops the grid.  A pool
    starts at most one worker per task, and none for one task.  Output is
    independent of the worker count: both maps return the rows in task
    order, config-major, and every run seeds its own RNG streams from the
    config identity and the split seed.
    """
    if not configs or not bundles:
        raise ValueError("grid_run needs at least one config and one bundle")
    feature_init = feature_init or FeatureInit(mode="degrees")
    tasks = [(cfg, bundle, feature_init) for cfg in configs for bundle in bundles]
    workers = min(workers, len(tasks))
    if workers > 1:
        # the workers use the cores, so their fits run S and T on one thread
        with ProcessPoolExecutor(max_workers=workers, initializer=ad.serial_lanes) as pool:
            rows = list(pool.map(_grid_task, tasks))
    else:
        rows = list(map(_grid_task, tasks))
    summaries = []
    for ci, cfg in enumerate(configs):
        cfg_rows = rows[ci * len(bundles):(ci + 1) * len(bundles)]
        ok = [r for r in cfg_rows if r.status == "ok"]
        summary = GridSummary(
            config=config_id(cfg),
            family=cfg.encoder,
            n_runs=len(cfg_rows),
            n_failed=len(cfg_rows) - len(ok),
        )
        if ok:
            for name in MetricsReport.FIELDS:
                vals = np.array([getattr(r.report, name) for r in ok])
                summary.mean[name] = float(vals.mean())
                summary.std[name] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
            summary.mean_val = float(np.mean([r.best_val for r in ok]))
        summaries.append(summary)
    # highest mean validation AUC first, and the first listed on ties
    ranked = sorted((s for s in summaries if s.n_failed < s.n_runs), key=lambda s: -s.mean_val)
    best_by_family = {}
    for s in ranked:
        best_by_family.setdefault(s.family, s.config)
    return GridResult(
        rows=rows,
        summaries=summaries,
        best_config=ranked[0].config if ranked else "",
        best_by_family=best_by_family,
    )


RUN_COLUMNS = ("config", "dataset", "seed", *MetricsReport.FIELDS,
               "epochs", "seconds", "status")


def write_runs_tsv(path, rows, dataset):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(RUN_COLUMNS) + "\n")
        for r in rows:
            metric_cells = (
                [f"{getattr(r.report, name):.4f}" for name in MetricsReport.FIELDS]
                if r.report is not None
                else [""] * len(MetricsReport.FIELDS)
            )
            cells = [r.config, dataset, str(r.split_seed), *metric_cells,
                     str(r.epochs_run), f"{r.seconds:.3f}", r.status]
            fh.write("\t".join(cells) + "\n")


def write_summary_tsv(path, result, dataset):
    header = ["config", "dataset", "n_runs", "n_failed"]
    for name in MetricsReport.FIELDS:
        header += [f"{name}_mean", f"{name}_std"]
    header += ["val_auc_mean", "selected"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for s in result.summaries:
            cells = [s.config, dataset, str(s.n_runs), str(s.n_failed)]
            for name in MetricsReport.FIELDS:
                if s.mean:
                    cells += [f"{s.mean[name]:.4f}", f"{s.std[name]:.4f}"]
                else:
                    cells += ["", ""]
            cells += [f"{s.mean_val:.4f}", "1" if s.config == result.best_config else "0"]
            fh.write("\t".join(cells) + "\n")

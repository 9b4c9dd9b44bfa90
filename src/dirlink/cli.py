"""Command-line entry point: ingestion, splits, training, evaluation, analysis.

Configuration is flat ``key = value`` text under ``[section]`` headers: the
``[experiment]`` keys are ExperimentConfig's fields and the ``[model]`` and
``[grid]`` keys are TrainConfig's, with ``encoder`` spelled ``model``.  Some
values can also be set by a flag, and flags win.  Exit codes: 0 success,
1 usage error, 2 data error, 3 run failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import configparser
import numpy as np

from . import analysis, datasets, models, training
from .graph import (
    DataError,
    graph_stats,
    load_edge_list,
    load_features,
    preprocess,
    save_edge_list,
    save_features,
)
from .metrics import MetricsReport
from .splits import (DEFAULT_SEEDS, FEATURE_MODES, FeatureInit, init_features, save_split,
                     split_edges)
from .training import TrainConfig


class UsageError(Exception):
    pass


# [model] / [grid] keys, typed by their defaults; "model" names the encoder family.
MODEL_KEY_TYPES = {
    ("model" if f.name == "encoder" else f.name): type(f.default) for f in fields(TrainConfig)
}


@dataclass
class ExperimentConfig:
    """One experiment: data, feature mode, model settings, seeds, output dir.

    ``grid`` maps model keys to candidate tuples, a [model] value or a flag
    to a one-value tuple; expand_grid expands their cartesian product:
    cmd_grid trains every combination, cmd_train the only one.
    """

    dataset: str = ""
    features: str = "degrees"
    features_path: str = ""
    feature_dim: int = 64
    out: str = "runs"
    seeds: tuple = DEFAULT_SEEDS
    workers: int = 1
    grid: dict = field(default_factory=dict)

    def validate(self):
        try:
            training.check_field_types(self)
            if any(type(s) is not int for s in self.seeds):
                raise ValueError(f"seeds must be a tuple of ints, got {self.seeds!r}")
        except ValueError as exc:
            raise UsageError(f"experiment key {exc}") from None
        if not self.dataset:
            raise UsageError("a dataset is required (--dataset or config)")
        if self.features not in FEATURE_MODES:
            raise UsageError(f"unknown feature mode {self.features!r}")
        if not self.seeds:
            raise UsageError("seed list must be nonempty")
        if min(self.seeds) < 0:
            raise UsageError(f"seeds must be >= 0, got {min(self.seeds)}")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise UsageError(f"split seed(s) {', '.join(map(str, repeated))} repeated in seeds; "
                             f"each split runs once")
        for key, values in self.grid.items():
            if len(set(values)) < len(values):
                raise UsageError(f"[grid] {key} repeats a value; each config runs once")
        for key in ("workers", "feature_dim"):
            if getattr(self, key) < 1:
                raise UsageError(f"{key} must be >= 1")
        if self.features == "original" and not self.features_path:
            raise UsageError("feature mode 'original' needs features_path")


# [experiment] keys, typed by their defaults, in field order
EXPERIMENT_KEY_TYPES = {
    f.name: type(f.default) for f in fields(ExperimentConfig) if f.name != "grid"
}


def _parse_value(section, key, typ, raw):
    """One typed config value.  A [grid] value, and a tuple field such as
    seeds, is a comma list; a tuple field's items are ints."""
    try:
        if section == "grid" or typ is tuple:
            item = int if typ is tuple else typ
            return tuple(item(v.strip()) for v in raw.split(","))
        return typ(raw.strip())
    except ValueError:
        raise DataError(f"bad value for {section} key {key!r}: {raw!r}") from None


def config_from_text(text, seeds=DEFAULT_SEEDS):
    """The ExperimentConfig of a config text; ``seeds`` are its split seeds
    when the text sets none."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise DataError(f"bad config: {exc}") from None
    schema = {"experiment": EXPERIMENT_KEY_TYPES, "model": MODEL_KEY_TYPES, "grid": MODEL_KEY_TYPES}
    extra = set(cp.sections()) - set(schema)
    if extra:
        raise DataError(f"unknown config section(s): {sorted(extra)}")
    parsed = {section: {} for section in schema}
    for section, types in schema.items():
        if not cp.has_section(section):
            continue
        for key, raw in cp.items(section):
            if key not in types:
                raise DataError(f"unknown {section} key {key!r}")
            parsed[section][key] = _parse_value(section, key, types[key], raw)
    # a [grid] key replaces the one-value candidate list of its [model] value
    grid = {**{key: (value,) for key, value in parsed["model"].items()}, **parsed["grid"]}
    return ExperimentConfig(**{"seeds": seeds, **parsed["experiment"]}, grid=grid)


def load_config(path, seeds=DEFAULT_SEEDS):
    try:
        with open(path, encoding="utf-8") as fh:
            return config_from_text(fh.read(), seeds)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from None


def expand_grid(cfg):
    """One TrainConfig per combination of [grid] values over the training
    defaults; one with no grid.  A bad value is a usage error."""
    keys = sorted(cfg.grid)
    combos = [dict(zip(keys, combo)) for combo in itertools.product(*(cfg.grid[k] for k in keys))]
    try:
        return [TrainConfig(**{("encoder" if key == "model" else key): v for key, v in c.items()})
                for c in combos]
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolve(args, seeds=DEFAULT_SEEDS):
    """Merge config file and flags; a flag replaces its key's [grid]
    candidates.  ``seeds`` are the split seeds when neither sets any."""
    cfg = load_config(args.config, seeds) if args.config else ExperimentConfig(seeds=seeds)
    for key in _SHARED_FLAGS:
        value = getattr(args, key, None)
        if value is None:
            continue
        if key in EXPERIMENT_KEY_TYPES:
            setattr(cfg, key, value)
        else:
            cfg.grid[key] = (value,)
    cfg.validate()
    return cfg


def _load_graph(name_or_path):
    """A bundled fixture by name, or an edge-list file by path."""
    if name_or_path in datasets.FIXTURE_NAMES and not os.path.exists(name_or_path):
        return datasets.load_fixture(name_or_path)
    return load_edge_list(name_or_path)


def _dataset_label(name_or_path):
    base = os.path.basename(str(name_or_path))
    return base[:-4] if base.endswith(".txt") else base


def _runs(cfg):
    """The inputs of cfg's runs: the graph, its split on each seed, and the
    FeatureInit, whose feature matrix is read only in the 'original' mode."""
    g = _load_graph(cfg.dataset)
    original = load_features(cfg.features_path) if cfg.features == "original" else None
    # before --out is made: a grid would otherwise fail in its first run
    if original is not None and len(original) != g.n:
        raise DataError(f"feature rows ({len(original)}) != node count ({g.n})")
    bundles = [split_edges(g, seed=s) for s in cfg.seeds]
    return g, bundles, FeatureInit(mode=cfg.features, dim=cfg.feature_dim, original=original)


def _metrics_line(report):
    return " ".join(f"{name}={getattr(report, name):.2f}" for name in MetricsReport.FIELDS)


def cmd_preprocess(args):
    g = _load_graph(args.dataset)
    feats = load_features(args.features_file) if args.features_file else None
    g, feats = preprocess(g, feats)
    os.makedirs(args.out, exist_ok=True)
    save_edge_list(os.path.join(args.out, "edges.txt"), g.edges)
    if feats is not None:
        save_features(os.path.join(args.out, "features.txt"), feats)
    stats = graph_stats(g)
    line = (f"n={stats['n']} m={stats['m']} avg_degree={stats['avg_degree']:.4f} "
            f"pct_directed={stats['pct_directed']:.2f}")
    with open(os.path.join(args.out, "stats.txt"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


def cmd_split(args):
    cfg = _resolve(args)
    g = _load_graph(cfg.dataset)
    for seed in cfg.seeds:
        # save_split makes --out; a graph that cannot be split fails on every
        # seed, so on the first one, before --out is made
        bundle = split_edges(g, seed=seed)
        save_split(os.path.join(cfg.out, f"seed{seed}"), bundle)
        print(f"seed {seed}: train={len(bundle.train_pos)} val={len(bundle.val_pos)} "
              f"test={len(bundle.test_pos)}")
    return 0


# the [experiment] values a checkpoint records besides its config and split seed
_META_KEYS = ("features", "feature_dim", "features_path", "dataset")


def cmd_train(args):
    cfg = _resolve(args, seeds=(0,))
    if len(cfg.seeds) > 1:
        raise UsageError(f"train runs one split seed, got {len(cfg.seeds)}; "
                         f"use grid to train on several")
    configs = expand_grid(cfg)
    if len(configs) > 1:
        raise UsageError(f"train runs one config, got {len(configs)} from [grid]; "
                         f"use grid to train on several")
    (tcfg,) = configs
    _, (bundle,), init = _runs(cfg)
    feats = init_features(init, bundle.train_graph)
    os.makedirs(cfg.out, exist_ok=True)
    fitted, row = training.train(tcfg, bundle, feats)
    training.write_runs_tsv(os.path.join(cfg.out, "runs.tsv"), [row], _dataset_label(cfg.dataset))
    checkpoint = os.path.join(cfg.out, "model.npz")
    if fitted is None:
        # an earlier run's checkpoint in --out would pass for this run's
        with contextlib.suppress(FileNotFoundError):
            os.remove(checkpoint)
        _print_failure(row)
        return 3
    meta = {"config": asdict(tcfg), "split_seed": bundle.seed,
            **{key: getattr(cfg, key) for key in _META_KEYS}}
    models.save_checkpoint(
        checkpoint,
        {n: t.data for n, t in fitted.model.named_parameters().items()},
        meta,
    )
    print(f"seed {bundle.seed}: epochs={row.epochs_run} best_val_auc={row.best_val:.2f}")
    print(_metrics_line(row.report))
    return 0


def _print_failure(row):
    print(f"run failed: seed {row.split_seed} [{row.config}]: {row.error}", file=sys.stderr)


def cmd_grid(args):
    cfg = _resolve(args)
    configs = expand_grid(cfg)
    _, bundles, init = _runs(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    result = training.grid_run(configs, bundles, feature_init=init, workers=cfg.workers)
    label = _dataset_label(cfg.dataset)
    training.write_runs_tsv(os.path.join(cfg.out, "runs.tsv"), result.rows, label)
    training.write_summary_tsv(os.path.join(cfg.out, "summary.tsv"), result, label)
    for r in result.rows:
        if r.status == "failed":
            _print_failure(r)
    if not result.best_config:
        return 3
    for family in sorted(result.best_by_family):
        print(f"best[{family}]: {result.best_by_family[family]}")
    print(f"best overall: {result.best_config}")
    return 0


def _restore_model(checkpoint, dataset_override=None):
    """A checkpoint's model, split and graph; any fault in it is a DataError."""
    meta, arrays = models.load_checkpoint(checkpoint)
    try:
        config = meta["config"]
        cfg = ExperimentConfig(seeds=(meta["split_seed"],), **{key: meta[key] for key in _META_KEYS})
    except KeyError as exc:
        raise DataError(f"{checkpoint}: checkpoint meta has no {exc} key") from None
    if not isinstance(config, dict):
        raise DataError(f"{checkpoint}: checkpoint config is not a table")
    cfg.dataset = dataset_override or cfg.dataset
    try:
        cfg.validate()
    except UsageError as exc:
        raise DataError(f"{checkpoint}: bad checkpoint meta: {exc}") from None
    try:
        tcfg = TrainConfig(**config)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{checkpoint}: bad checkpoint config: {exc}") from None
    g, (bundle,), init = _runs(cfg)
    feats = init_features(init, bundle.train_graph)
    model = training.build_model(tcfg, bundle.train_graph, feats, np.random.default_rng(0))
    try:
        models.load_state(model, arrays)
    except ValueError as exc:
        raise DataError(f"{checkpoint}: {exc}") from None
    return model, bundle, g


def cmd_eval(args):
    model, bundle, _ = _restore_model(args.checkpoint, args.dataset)
    report = training.evaluate(model, bundle)
    print(_metrics_line(report))
    return 0


def cmd_reconstruct(args):
    if args.m_prime is not None and args.m_prime < 0:
        raise UsageError(f"--m-prime must be >= 0, got {args.m_prime}")
    model, _, g = _restore_model(args.checkpoint, args.dataset)
    m_prime = args.m_prime if args.m_prime is not None else g.edge_count
    if m_prime > g.n * (g.n - 1):  # reconstruct_topm's check, before --out is made
        raise DataError(f"m_prime {m_prime} exceeds the {g.n * (g.n - 1)} candidate pairs")
    os.makedirs(args.out, exist_ok=True)
    recon = analysis.reconstruct_topm(model.scorer(), g.n, m_prime)
    save_edge_list(os.path.join(args.out, "reconstructed.txt"), recon)
    true_hist = analysis.degree_histograms(g.edges, g.n)
    recon_hist = analysis.degree_histograms(recon, g.n)
    for tag, hist in (("true", true_hist), ("recon", recon_hist)):
        analysis.write_degree_tsv(os.path.join(args.out, f"out_degree_{tag}.tsv"), hist.out_hist)
        analysis.write_degree_tsv(os.path.join(args.out, f"in_degree_{tag}.tsv"), hist.in_hist)
    hit = int(g.has_edges(recon).sum())
    print(f"reconstructed {m_prime} pairs; {hit} of {g.edge_count} true edges recovered")
    return 0


def cmd_check(args):
    g = _load_graph(args.dataset)
    cert = analysis.check_expressiveness(
        g, args.mode, args.decoder, dim=args.dim, attempts=args.attempts
    )
    print(f"verdict: {cert.verdict}")
    if cert.detail:
        print(f"detail: {cert.detail}")
    if cert.verdict == "feasible":
        print(f"margin: {cert.margin:.4f}")
        with np.printoptions(precision=4, suppress=True):
            print(f"S =\n{cert.witness['S']}")
            if cert.witness["mode"] == "dual":
                print(f"T =\n{cert.witness['T']}")
            for name, arr in sorted(cert.witness["decoder"].items()):
                print(f"{name} =\n{arr}")
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract wants 1
    def error(self, message):
        raise UsageError(message)


def _seed_list(raw):
    """The value of --seeds, read by the config file's comma-list rule."""
    try:
        return _parse_value("experiment", "seeds", EXPERIMENT_KEY_TYPES["seeds"], raw)
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _one_seed(raw):
    """The value of --seed: a one-seed list."""
    seeds = _seed_list(raw)
    if len(seeds) > 1:
        raise argparse.ArgumentTypeError(f"expected one split seed, got {raw!r}")
    return seeds


# Flags of split, train and grid that set the config key of the same name, with
# the options they add to the key's type; --seed sets a one-seed "seeds".
_SHARED_FLAGS = {
    "dataset": {"help": "edge list path or bundled fixture name"},
    "features": {"choices": FEATURE_MODES},
    "out": {"help": "output directory"},
    "seeds": {"help": "comma-separated split seeds"},
    "workers": {},
    "model": {"choices": models.ENCODERS},
    "decoder": {"choices": models.DECODER_KINDS},
    "loss": {"choices": training.LOSSES},
    "k": {"help": "propagation steps"},
    "lr": {},
    "wd": {},
}


def _add_shared(p, *names):
    p.add_argument("--config", help="experiment config file")
    for name in names:
        if name == "seeds":
            group = p.add_mutually_exclusive_group()
            group.add_argument("--seed", dest="seeds", type=_one_seed, metavar="SEED",
                               help="single split seed")
            group.add_argument("--seeds", type=_seed_list, **_SHARED_FLAGS[name])
        else:
            typ = EXPERIMENT_KEY_TYPES.get(name) or MODEL_KEY_TYPES[name]
            p.add_argument(f"--{name}", type=typ, **_SHARED_FLAGS[name])


def build_parser():
    parser = _Parser(prog="dirlink", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("preprocess", help="clean a raw edge list, keep the largest component")
    p.add_argument("--dataset", required=True)
    p.add_argument("--features-file", help="raw feature matrix to align with the kept nodes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("split", help="write per-seed benchmark splits")
    _add_shared(p, "dataset", "out", "seeds")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train one model on one split")
    _add_shared(p, "dataset", "features", "out", "seeds",
                "model", "decoder", "loss", "k", "lr", "wd")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid", help="run a config grid over all seeds")
    _add_shared(p, *_SHARED_FLAGS)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("eval", help="re-evaluate a checkpoint on its split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", help="override the dataset recorded in the checkpoint")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reconstruct", help="top-m' reconstruction and degree histograms")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset")
    p.add_argument("--m-prime", type=int, dest="m_prime")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("check", help="expressiveness certificate for a small graph")
    p.add_argument("--dataset", required=True, help="fixture name or edge list path")
    p.add_argument("--mode", choices=analysis.EMBEDDING_MODES, required=True)
    p.add_argument("--decoder", choices=models.DECODER_KINDS, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--attempts", type=int, default=50)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise UsageError("a command is required (see dirlink --help)")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

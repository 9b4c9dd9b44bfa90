"""Command-line entry point: ingestion, splits, training, evaluation, analysis.

Configuration is flat ``key = value`` text under ``[section]`` headers; every
config value can also be set by a flag, and flags win.  Exit codes: 0 success,
1 usage error, 2 data error, 3 run failure.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import asdict, dataclass, field

import configparser
import numpy as np

from . import analysis, datasets, models, training
from . import autodiff as ad
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
from .splits import DEFAULT_SEEDS, FeatureInit, init_features, save_split, split_edges
from .training import TrainConfig, TrainingError


class UsageError(Exception):
    pass


# [model] / [grid] keys, typed; "model" names the encoder family.
MODEL_KEY_TYPES = {
    "model": str,
    "decoder": str,
    "loss": str,
    "lr": float,
    "wd": float,
    "max_epochs": int,
    "patience": int,
    "neg_strategy": str,
    "seed": int,
    "hidden": int,
    "emb": int,
    "mlp_layers": int,
    "k": int,
    "alpha": float,
    "beta": float,
    "digae_layers": int,
    "dec_hidden": int,
}


@dataclass
class ExperimentConfig:
    """One experiment: data, feature mode, model settings, seeds, output dir.

    ``model`` holds scalar overrides of the training defaults; ``grid`` maps
    keys to candidate tuples whose cartesian product cmd_grid expands.
    """

    dataset: str = ""
    features: str = "degrees"
    features_path: str = ""
    feature_dim: int = 64
    out: str = "runs"
    seeds: tuple = DEFAULT_SEEDS
    workers: int = 1
    model: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    def validate(self):
        if not self.dataset:
            raise UsageError("a dataset is required (--dataset or config)")
        if self.features not in ("original", "degrees", "random"):
            raise UsageError(f"unknown feature mode {self.features!r}")
        if not self.seeds:
            raise UsageError("seed list must be nonempty")
        if self.workers < 1:
            raise UsageError("workers must be >= 1")
        if self.features == "original" and not self.features_path:
            raise UsageError("feature mode 'original' needs features_path")
        for key in list(self.model) + list(self.grid):
            if key not in MODEL_KEY_TYPES:
                raise UsageError(f"unknown model key {key!r}")


def config_to_text(cfg):
    lines = ["[experiment]"]
    lines.append(f"dataset = {cfg.dataset}")
    lines.append(f"features = {cfg.features}")
    if cfg.features_path:
        lines.append(f"features_path = {cfg.features_path}")
    lines.append(f"feature_dim = {cfg.feature_dim}")
    lines.append(f"out = {cfg.out}")
    lines.append("seeds = " + ", ".join(str(s) for s in cfg.seeds))
    lines.append(f"workers = {cfg.workers}")
    if cfg.model:
        lines.append("")
        lines.append("[model]")
        lines.extend(f"{k} = {cfg.model[k]}" for k in sorted(cfg.model))
    if cfg.grid:
        lines.append("")
        lines.append("[grid]")
        lines.extend(f"{k} = " + ", ".join(str(v) for v in cfg.grid[k]) for k in sorted(cfg.grid))
    return "\n".join(lines) + "\n"


def config_from_text(text):
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise DataError(f"bad config: {exc}") from None
    known = {"experiment", "model", "grid"}
    extra = set(cp.sections()) - known
    if extra:
        raise DataError(f"unknown config section(s): {sorted(extra)}")
    cfg = ExperimentConfig()
    if cp.has_section("experiment"):
        for key, raw in cp.items("experiment"):
            if key == "dataset":
                cfg.dataset = raw
            elif key == "features":
                cfg.features = raw
            elif key == "features_path":
                cfg.features_path = raw
            elif key == "feature_dim":
                cfg.feature_dim = int(raw)
            elif key == "out":
                cfg.out = raw
            elif key == "seeds":
                cfg.seeds = tuple(int(s) for s in raw.split(","))
            elif key == "workers":
                cfg.workers = int(raw)
            else:
                raise DataError(f"unknown experiment key {key!r}")
    for section, dest in (("model", cfg.model), ("grid", cfg.grid)):
        if not cp.has_section(section):
            continue
        for key, raw in cp.items(section):
            if key not in MODEL_KEY_TYPES:
                raise DataError(f"unknown {section} key {key!r}")
            typ = MODEL_KEY_TYPES[key]
            try:
                if section == "grid":
                    dest[key] = tuple(typ(v.strip()) for v in raw.split(","))
                else:
                    dest[key] = typ(raw.strip())
            except ValueError:
                raise DataError(f"bad value for {section} key {key!r}: {raw!r}") from None
    return cfg


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return config_from_text(fh.read())
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from None


def save_config(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_text(cfg))


def _to_train_config(model_args):
    kwargs = dict(model_args)
    encoder = kwargs.pop("model", "sdgae")
    try:
        return TrainConfig(encoder=encoder, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def expand_grid(cfg):
    base = dict(cfg.model)
    if not cfg.grid:
        return [_to_train_config(base)]
    keys = sorted(cfg.grid)
    out = []
    for combo in itertools.product(*(cfg.grid[k] for k in keys)):
        out.append(_to_train_config({**base, **dict(zip(keys, combo))}))
    return out


def _resolve(args):
    """Merge config file and flags; flags win."""
    cfg = load_config(args.config) if getattr(args, "config", None) else ExperimentConfig()
    for name in ("dataset", "features", "out"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    if getattr(args, "workers", None) is not None:
        cfg.workers = args.workers
    if getattr(args, "seeds", None) is not None:
        cfg.seeds = tuple(args.seeds)
    if getattr(args, "seed", None) is not None:
        cfg.seeds = (args.seed,)
    for flag, key in (("model", "model"), ("decoder", "decoder"), ("loss", "loss"),
                      ("k", "k"), ("lr", "lr"), ("wd", "wd")):
        val = getattr(args, flag, None)
        if val is not None:
            cfg.model[key] = val
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


def _make_features(cfg, train_graph):
    original = None
    if cfg.features == "original":
        original = load_features(cfg.features_path)
    init = FeatureInit(mode=cfg.features, dim=cfg.feature_dim)
    return init, init_features(init, train_graph, original), original


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
    os.makedirs(cfg.out, exist_ok=True)
    for seed in cfg.seeds:
        bundle = split_edges(g, seed=seed)
        save_split(os.path.join(cfg.out, f"seed{seed}"), bundle)
        print(f"seed {seed}: train={len(bundle.train_pos)} val={len(bundle.val_pos)} "
              f"test={len(bundle.test_pos)}")
    return 0


def cmd_train(args):
    cfg = _resolve(args)
    g = _load_graph(cfg.dataset)
    split_seed = cfg.seeds[0]
    bundle = split_edges(g, seed=split_seed)
    _, feats, _ = _make_features(cfg, bundle.train_graph)
    tcfg = _to_train_config(cfg.model)
    result, model = training.train_with_model(tcfg, bundle, feats)
    os.makedirs(cfg.out, exist_ok=True)
    row = training.GridRow(
        config=training.config_id(tcfg),
        split_seed=split_seed,
        status="ok",
        report=result.report,
        best_val=result.best_val,
        epochs_run=result.epochs_run,
        seconds=result.seconds,
    )
    training.write_runs_tsv(os.path.join(cfg.out, "runs.tsv"), [row], _dataset_label(cfg.dataset))
    meta = {
        "config": asdict(tcfg),
        "split_seed": split_seed,
        "features": cfg.features,
        "feature_dim": cfg.feature_dim,
        "features_path": cfg.features_path,
        "dataset": cfg.dataset,
    }
    models.save_checkpoint(
        os.path.join(cfg.out, "model.npz"),
        {n: t.data for n, t in model.named_parameters().items()},
        meta,
    )
    print(f"seed {split_seed}: epochs={result.epochs_run} best_val_auc={result.best_val:.2f}")
    print(_metrics_line(result.report))
    return 0


def cmd_grid(args):
    cfg = _resolve(args)
    g = _load_graph(cfg.dataset)
    original = None
    if cfg.features == "original":
        original = load_features(cfg.features_path)
    bundles = [split_edges(g, seed=s) for s in cfg.seeds]
    configs = expand_grid(cfg)
    init = FeatureInit(mode=cfg.features, dim=cfg.feature_dim)
    result = training.grid_run(configs, bundles, feature_init=init, original=original,
                               workers=cfg.workers)
    os.makedirs(cfg.out, exist_ok=True)
    label = _dataset_label(cfg.dataset)
    training.write_runs_tsv(os.path.join(cfg.out, "runs.tsv"), result.rows, label)
    training.write_summary_tsv(os.path.join(cfg.out, "summary.tsv"), result, label)
    for family in sorted(result.best_by_family):
        print(f"best[{family}]: {result.best_by_family[family]}")
    print(f"best overall: {result.best_config}")
    return 0


def _restore_model(checkpoint, dataset_override=None):
    meta, arrays = models.load_checkpoint(checkpoint)
    tcfg = TrainConfig(**meta["config"])
    dataset = dataset_override or meta["dataset"]
    g = _load_graph(dataset)
    bundle = split_edges(g, seed=meta["split_seed"])
    original = load_features(meta["features_path"]) if meta["features"] == "original" else None
    init = FeatureInit(mode=meta["features"], dim=meta["feature_dim"])
    feats = init_features(init, bundle.train_graph, original)
    model = training.build_model(tcfg, bundle.train_graph, feats, np.random.default_rng(0))
    models.load_state(model, arrays)
    return model, bundle, g


def cmd_eval(args):
    model, bundle, _ = _restore_model(args.checkpoint, args.dataset)
    report = training.evaluate(model, bundle)
    print(_metrics_line(report))
    return 0


def cmd_reconstruct(args):
    model, _, g = _restore_model(args.checkpoint, args.dataset)
    m_prime = args.m_prime if args.m_prime is not None else g.edge_count
    with ad.no_grad():
        enc = model.encode()

    def score_fn(pairs):
        return models.ranking_scores(model.dec_params, enc, pairs)

    recon = analysis.reconstruct_topm(score_fn, g.n, m_prime)
    os.makedirs(args.out, exist_ok=True)
    save_edge_list(os.path.join(args.out, "reconstructed.txt"), recon)
    true_hist = analysis.degree_histograms(g.edges, g.n)
    recon_hist = analysis.degree_histograms(recon, g.n)
    for tag, hist in (("true", true_hist), ("recon", recon_hist)):
        analysis.write_degree_tsv(os.path.join(args.out, f"out_degree_{tag}.tsv"), hist.out_hist)
        analysis.write_degree_tsv(os.path.join(args.out, f"in_degree_{tag}.tsv"), hist.in_hist)
    hit = int(np.isin(recon[:, 0] * np.int64(g.n) + recon[:, 1], g.edge_keys()).sum())
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


def _int_list(text):
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _add_common(p, *names):
    reg = {
        "config": lambda: p.add_argument("--config", help="experiment config file"),
        "dataset": lambda: p.add_argument("--dataset", help="edge list path or bundled fixture name"),
        "features": lambda: p.add_argument("--features", choices=("original", "degrees", "random")),
        "out": lambda: p.add_argument("--out", help="output directory"),
        "seed": lambda: p.add_argument("--seed", type=int, help="single split seed"),
        "seeds": lambda: p.add_argument("--seeds", type=_int_list, help="comma-separated split seeds"),
        "workers": lambda: p.add_argument("--workers", type=int),
        "model": lambda: p.add_argument("--model", choices=training.ENCODERS),
        "decoder": lambda: p.add_argument("--decoder", choices=models.DECODER_KINDS),
        "loss": lambda: p.add_argument("--loss", choices=training.LOSSES),
        "k": lambda: p.add_argument("--k", type=int, help="propagation steps"),
        "lr": lambda: p.add_argument("--lr", type=float),
        "wd": lambda: p.add_argument("--wd", type=float),
    }
    for name in names:
        reg[name]()


def build_parser():
    parser = _Parser(prog="dirlink", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("preprocess", help="clean a raw edge list, keep the largest component")
    p.add_argument("--dataset", required=True)
    p.add_argument("--features-file", help="raw feature matrix to align with the kept nodes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("split", help="write per-seed benchmark splits")
    _add_common(p, "config", "dataset", "out", "seed", "seeds")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train one model on one split")
    _add_common(p, "config", "dataset", "features", "out", "seed", "seeds",
                "model", "decoder", "loss", "k", "lr", "wd")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid", help="run a config grid over all seeds")
    _add_common(p, "config", "dataset", "features", "out", "seed", "seeds", "workers",
                "model", "decoder", "loss", "k", "lr", "wd")
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
    p.add_argument("--mode", choices=("single", "dual"), required=True)
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
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TrainingError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""One unit of benchmark work, run by ``run.py`` in a fresh process.

    python3 perfbench/child.py MODE --out DIR --seed N --t0 T [--trace] [...]

MODE is ``grid``, ``train``, ``recon`` or ``prep``.  The child imports
dirlink, makes its inputs, then times its phase; ``setup_s`` runs from the
parent's spawn time ``--t0`` (``time.monotonic``) until the inputs are ready.
With ``--setup-only`` it stops there.
It checks what can be checked inside one process and writes
``DIR/result.json``; a traced child also writes ``DIR/spans.json``.  The
parent compares digests across repeats.  A child that raises exits nonzero
and writes nothing, so the parent counts it as failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import time
import warnings
from pathlib import Path

GRID_ENCODERS = ("sdgae", "digae", "mlp")
# a prefix of the ten protocol seeds: one seed keeps a run within budget
GRID_SPLIT_SEEDS = (0,)
# the workload seed picks TrainConfig.seed modulo this; grid_epochs.json holds
# the epoch counts of every training seed below it
GRID_TRAIN_SEEDS = 64
# fixed so that training never stops early and every seed does the same work
TRAIN_EPOCHS = 30
RMAT_RECON = {"scale": 11, "edges": 14_000}
RMAT_PREP = {"scale": 16, "edges": 600_000}


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_info():
    """OpenBLAS build string and thread count of the library numpy loaded."""
    import ctypes

    path = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            if "openblas" in line:
                path = line.split()[-1]
                break
    info = {"library": path, "config": None, "threads": None}
    if path is None:
        return info
    lib = ctypes.CDLL(path)
    # numpy wheels bundle a prefixed ILP64 build; a system OpenBLAS has the plain names
    for prefix, suffix in (("scipy_", "64_"), ("", "")):
        try:
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
        except AttributeError:
            continue
        threads.restype = ctypes.c_int
        config.restype = ctypes.c_char_p
        info["threads"] = threads()
        info["config"] = config().decode()
        break
    return info


def _environment():
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": _blas_info()}


def _write_rmat(path, spec, seed):
    """Generate the R-MAT input for this seed; return its provenance."""
    from rmat import rmat_edges, write_edge_list

    edges = rmat_edges(spec["scale"], spec["edges"], seed)
    write_edge_list(path, edges)
    return {
        "generator": f"rmat(scale={spec['scale']}, edges={spec['edges']}, seed={seed})",
        "raw_n": 1 << spec["scale"],
        "raw_m": len(edges),
        "raw_self_loops": int((edges[:, 0] == edges[:, 1]).sum()),
        "sha256": _sha256_file(path),
    }


def _params_digest(model):
    """sha256 over the trained parameters.  The checkpoint file is no digest
    across repeats: its meta records each repeat's own dataset path."""
    h = hashlib.sha256()
    for name, t in sorted(model.named_parameters().items()):
        h.update(name.encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


def _timed(tracer, phase):
    """Run the timed phase inside the root span; (result, wall seconds)."""
    start = time.perf_counter()
    result = tracer.span("bench", phase)
    return result, time.perf_counter() - start


def _load_graph(graph, path):
    # the generated files keep self-loops on purpose; the loader's warning is expected
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return graph.load_edge_list(path)


def run_grid(args, tracer):
    """grid_run over the default configs of three encoders, workers=1."""
    from dirlink import datasets, splits, training

    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}
    fixture = datasets.fixture_path("synthetic200")
    train_seed = args.seed % GRID_TRAIN_SEEDS
    configs = [training.TrainConfig(encoder=e, seed=train_seed) for e in GRID_ENCODERS]

    def phase():
        g = datasets.load_fixture("synthetic200")
        bundles = [splits.split_edges(g, seed=s) for s in args.split_seeds]
        return g, training.grid_run(configs, bundles,
                                    feature_init=splits.FeatureInit(mode="degrees"), workers=1)

    (g, result), run_s = _timed(tracer, phase)

    runs_tsv = Path(args.out) / "runs.tsv"
    training.write_runs_tsv(runs_tsv, result.rows, "synthetic200")
    with open(runs_tsv, encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh]
    drop = lines[0].index("seconds")
    table = "\n".join("\t".join(c for i, c in enumerate(row) if i != drop) for row in lines)

    ok_rows = [r for r in result.rows if r.status == "ok"]
    by_encoder = {e: [r.report.auc for r in ok_rows if r.config == training.config_id(c)]
                  for e, c in zip(GRID_ENCODERS, configs)}
    sdgae_auc = sum(by_encoder["sdgae"]) / max(len(by_encoder["sdgae"]), 1)
    mlp_auc = sum(by_encoder["mlp"]) / max(len(by_encoder["mlp"]), 1)
    failed_rows = len(result.rows) - len(ok_rows)
    checks = []
    if failed_rows:
        checks.append(f"{failed_rows} failed grid rows: "
                      + "; ".join(r.error for r in result.rows if r.status != "ok"))
    if not sdgae_auc >= 85.0:
        checks.append(f"SDGAE mean test AUC {sdgae_auc:.4f} below 85")
    if not sdgae_auc > mlp_auc:
        checks.append(f"SDGAE mean test AUC {sdgae_auc:.4f} not above MLP {mlp_auc:.4f}")
    epochs = sum(r.epochs_run for r in ok_rows)
    return {
        "ready": ready,
        "run_s": run_s,
        "ops": len(result.rows),
        "failed_ops": failed_rows,
        "epochs": epochs,
        "metrics": {
            "grid_s": run_s,
            # row seconds cover fit plus one test evaluation
            "epoch_ms": 1000.0 * sum(r.seconds for r in ok_rows) / max(epochs, 1),
            "test_auc": sdgae_auc,
        },
        "digest": hashlib.sha256(table.encode()).hexdigest(),
        "checks": checks,
        "data": {
            # the fixture ships preprocessed, so its raw and preprocessed n, m agree
            "inputs": {"fixture": "synthetic200", "sha256": _sha256_file(fixture),
                       "n": g.n, "m": g.edge_count},
            "split_seeds": list(args.split_seeds),
            "train_seed": train_seed,
            "rows": [{"config": r.config, "split_seed": r.split_seed, "status": r.status,
                      "auc": r.report.auc if r.report else None, "epochs": r.epochs_run,
                      "best_val": r.best_val, "seconds": r.seconds} for r in result.rows],
            "mean_test_auc": {e: sum(v) / max(len(v), 1) for e, v in by_encoder.items()},
        },
    }


def run_train(args, tracer):
    """Child A of rmat_train_recon: prepare, split, train a fixed epoch count, checkpoint."""
    from dirlink import graph, models, splits, training

    raw_path = Path(args.out) / "raw.txt"
    inputs = _write_rmat(raw_path, RMAT_RECON, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}
    dataset = Path(args.work) / "dataset.txt"
    checkpoint = Path(args.work) / "model.npz"
    cfg = training.TrainConfig(max_epochs=TRAIN_EPOCHS, patience=TRAIN_EPOCHS - 1)

    def phase():
        g_raw = _load_graph(graph, raw_path)
        g, _ = graph.preprocess(g_raw)
        graph.save_edge_list(dataset, g.edges)
        bundle = splits.split_edges(g, seed=0)
        init = splits.FeatureInit(mode="degrees")
        feats = splits.init_features(init, bundle.train_graph)
        fit_start = time.perf_counter()
        fitted = training.fit(cfg, bundle.train_graph, feats,
                              training.make_validation_scorer(bundle), bundle.seed)
        fit_s = time.perf_counter() - fit_start
        report = training.evaluate(fitted.model, bundle)
        meta = {"config": dataclasses.asdict(cfg), "split_seed": bundle.seed,
                "features": init.mode, "feature_dim": init.dim, "features_path": None,
                "dataset": str(dataset)}
        models.save_checkpoint(checkpoint,
                               {n: t.data for n, t in fitted.model.named_parameters().items()},
                               meta)
        return g_raw, g, fitted, fit_s, report

    (g_raw, g, fitted, fit_s, report), run_s = _timed(tracer, phase)
    checks = []
    if fitted.epochs_run != TRAIN_EPOCHS:
        checks.append(f"trained {fitted.epochs_run} epochs, expected exactly {TRAIN_EPOCHS}")
    inputs.update(loaded_n=g_raw.n, loaded_m=g_raw.edge_count, n=g.n, m=g.edge_count)
    return {
        "ready": ready,
        "run_s": run_s,
        "ops": 1,
        "failed_ops": 0,
        "metrics": {"epoch_ms": 1000.0 * fit_s / fitted.epochs_run, "test_auc": report.auc},
        "digest": _params_digest(fitted.model),
        "checks": checks,
        "data": {"inputs": inputs, "epochs_run": fitted.epochs_run,
                 "best_epoch": fitted.best_epoch, "checkpoint": str(checkpoint)},
    }


def run_recon(args, tracer):
    """Child B of rmat_train_recon: restore the checkpoint and reconstruct, as
    ``dirlink reconstruct`` does."""
    import numpy as np

    from dirlink import analysis, graph, models, splits, training

    ready = time.monotonic()

    def phase():
        meta, arrays = models.load_checkpoint(args.checkpoint)
        cfg = training.TrainConfig(**meta["config"])
        g = graph.load_edge_list(meta["dataset"])
        bundle = splits.split_edges(g, seed=meta["split_seed"])
        init = splits.FeatureInit(mode=meta["features"], dim=meta["feature_dim"])
        feats = splits.init_features(init, bundle.train_graph)
        model = training.build_model(cfg, bundle.train_graph, feats, np.random.default_rng(0))
        models.load_state(model, arrays)
        enc = model.encode()
        recon = analysis.reconstruct_topm(
            lambda pairs: models.ranking_scores(model.dec_params, enc, pairs), g.n, g.edge_count)
        analysis.degree_histograms(g.edges, g.n)
        analysis.degree_histograms(recon, g.n)
        return g, model, enc, recon

    (g, model, enc, recon), run_s = _timed(tracer, phase)
    peak = _peak_rss_mb()

    checks = []
    m_prime = g.edge_count
    if recon.shape != (m_prime, 2):
        checks.append(f"reconstruction has shape {recon.shape}, expected ({m_prime}, 2)")
    else:
        u, v = recon[:, 0], recon[:, 1]
        if np.any(u == v):
            checks.append("reconstruction contains self-loops")
        if np.any((recon < 0) | (recon >= g.n)):
            checks.append("reconstruction contains out-of-range nodes")
        if len(np.unique(u * g.n + v)) != m_prime:
            checks.append("reconstruction contains duplicate pairs")
        scores = models.ranking_scores(model.dec_params, enc, recon)
        if not np.array_equal(np.lexsort((v, u, -scores)), np.arange(m_prime)):
            checks.append("reconstruction is not in (score desc, u, v) order")
    true_keys = g.edge_keys()
    return {
        "ready": ready,
        "run_s": run_s,
        "peak_rss_mb": peak,
        "ops": 1,
        "failed_ops": 0,
        "metrics": {"recon_s": run_s},
        "digest": hashlib.sha256(np.ascontiguousarray(recon, dtype=np.int64).tobytes()).hexdigest(),
        "checks": checks,
        "data": {"m_prime": m_prime,
                 "true_edges_recovered": int(np.isin(recon[:, 0] * g.n + recon[:, 1],
                                                     true_keys).sum())},
    }


def run_prep(args, tracer):
    """The data path of prep_rmat40k: ingest through operator normalization."""
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    from dirlink import graph, splits

    raw_path = Path(args.out) / "raw.txt"
    inputs = _write_rmat(raw_path, RMAT_PREP, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}
    split_dir = Path(args.out) / "split"

    def phase():
        g_raw = _load_graph(graph, raw_path)
        g, _ = graph.preprocess(g_raw)
        bundle = splits.split_edges(g, seed=0)
        splits.save_split(split_dir, bundle)
        negs = splits.sample_train_negatives(bundle.train_graph, len(bundle.train_pos), 0,
                                             "per_run")
        splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
        graph.normalize_sym(bundle.train_graph)
        return g_raw, g, bundle, negs

    (g_raw, g, bundle, negs), run_s = _timed(tracer, phase)
    peak = _peak_rss_mb()

    checks = []
    n, m = g.n, g.edge_count
    n_test, n_val = (15 * m) // 100, (5 * m) // 100
    sizes = (len(bundle.train_pos), len(bundle.val_pos), len(bundle.test_pos))
    if sizes != (m - n_test - n_val, n_val, n_test):
        checks.append(f"split sizes {sizes} break the floor rule for m={m}")

    def keys(pairs):
        return pairs[:, 0] * np.int64(n) + pairs[:, 1]

    full = g.edge_keys()
    positives = np.sort(np.concatenate([keys(bundle.train_pos), keys(bundle.val_pos),
                                        keys(bundle.test_pos)]))
    if not np.array_equal(positives, full):
        checks.append("train/val/test positives are not a partition of the edge set")
    tp = bundle.train_pos
    adj = coo_matrix((np.ones(len(tp)), (tp[:, 0], tp[:, 1])), shape=(n, n))
    n_comp, _ = connected_components(adj, directed=True, connection="weak")
    if n_comp != 1:
        checks.append(f"train graph has {n_comp} weak components")
    eval_neg = np.concatenate([bundle.val_neg, bundle.test_neg])
    if np.isin(keys(eval_neg), full).any():
        checks.append("evaluation negatives overlap the full edge set")
    if np.any(eval_neg[:, 0] == eval_neg[:, 1]) or len(np.unique(keys(eval_neg))) != len(eval_neg):
        checks.append("evaluation negatives contain self-loops or duplicates")
    if np.isin(keys(negs), keys(tp)).any():
        checks.append("train negatives overlap the train edge set")

    digest = hashlib.sha256()
    for name in sorted(os.listdir(split_dir)):
        digest.update(name.encode())
        digest.update(_sha256_file(split_dir / name).encode())
    inputs.update(loaded_n=g_raw.n, loaded_m=g_raw.edge_count, n=n, m=m)
    return {
        "ready": ready,
        "run_s": run_s,
        "peak_rss_mb": peak,
        "ops": 1,
        "failed_ops": 0,
        "metrics": {"prep_s": run_s},
        "digest": digest.hexdigest(),
        "checks": checks,
        "data": {"inputs": inputs, "split_sizes": sizes},
    }


MODES = {"grid": run_grid, "train": run_train, "recon": run_recon, "prep": run_prep}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", help="directory shared by the children of one repeat")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the inputs are ready; report setup_s only")
    parser.add_argument("--split-seeds", type=int, nargs="+", default=list(GRID_SPLIT_SEEDS))
    parser.add_argument("--checkpoint")
    args = parser.parse_args()

    from spans import NULL_TRACER, Tracer

    tracer = Tracer() if args.trace else NULL_TRACER
    if args.trace:
        tracer.install()
    result = MODES[args.mode](args, tracer)
    result["setup_s"] = result.pop("ready") - args.t0
    result.setdefault("peak_rss_mb", _peak_rss_mb())
    result["env"] = _environment()
    out = Path(args.out)
    if args.trace:
        tracer.write(out / "spans.json", f"{args.mode}:{out.name}")
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()

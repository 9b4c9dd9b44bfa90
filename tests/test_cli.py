import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dirlink
from dirlink import analysis, cli, datasets, models, training
from dirlink.graph import DataError, load_features, save_features
from dirlink.metrics import MetricsReport
from dirlink.splits import FeatureInit, init_features, split_edges


def _sample_config(tmp_path):
    return cli.ExperimentConfig(
        dataset="synthetic200",
        features="degrees",
        feature_dim=32,
        out=str(tmp_path / "run"),
        seeds=(0, 4),
        workers=2,
        grid={"model": ("mlp",), "lr": (0.1, 0.01), "k": (1, 2)},
    )


def test_cli_import_leaves_out_csgraph_and_linalg():
    # scipy.sparse.csgraph pulls in scipy.linalg and scipy.sparse.linalg: about
    # 10 MB of resident memory in every run for modules the program never calls
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(dirlink.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, dirlink.cli\n"
            "print(*sorted(m for m in sys.modules if m.startswith("
            "('scipy.sparse.csgraph', 'scipy.linalg', 'scipy.sparse.linalg'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _sample_config_text(tmp_path):
    return (
        "[experiment]\ndataset = synthetic200\nfeatures = degrees\nfeature_dim = 32\n"
        f"out = {tmp_path / 'run'}\nseeds = 0, 4\nworkers = 2\n\n"
        "[model]\nk = 3\nlr = 0.05\nmodel = mlp\n\n"
        "[grid]\nk = 1, 2\nlr = 0.1, 0.01\n"
    )


def test_config_round_trip(tmp_path):
    cfg = _sample_config(tmp_path)
    assert cli.config_from_text(_sample_config_text(tmp_path)) == cfg
    path = tmp_path / "exp.cfg"
    path.write_text(_sample_config_text(tmp_path))
    assert cli.load_config(path) == cfg


# a valid non-default value for the fields where default + 1 is none
_FIELD_VALUES = {"encoder": "mlp", "decoder": "mlp_concat", "loss": "ce",
                 "neg_strategy": "per_epoch", "alpha": 0.5, "beta": 0.6}


def test_every_train_config_field_is_a_model_and_grid_key():
    for f in dataclasses.fields(training.TrainConfig):
        key = "model" if f.name == "encoder" else f.name
        value = _FIELD_VALUES.get(f.name) or f.default + 1
        cfg = cli.config_from_text(f"[model]\n{key} = {value}\n")
        (single,) = cli.expand_grid(cfg)
        assert getattr(single, f.name) == value, f.name
        assert type(getattr(single, f.name)) is type(f.default), f.name
        cfg = cli.config_from_text(f"[grid]\n{key} = {value}, {f.default}\n")
        got = [getattr(c, f.name) for c in cli.expand_grid(cfg)]
        assert got == [value, f.default], f.name
        assert all(type(v) is type(f.default) for v in got), f.name


def test_config_rejects_unknown_content():
    with pytest.raises(DataError, match="section"):
        cli.config_from_text("[experimnt]\ndataset = x\n")
    with pytest.raises(DataError, match="model key"):
        cli.config_from_text("[model]\nlayers = 3\n")
    with pytest.raises(DataError, match="experiment key"):
        cli.config_from_text("[experiment]\ndata = x\n")
    with pytest.raises(DataError, match="bad value"):
        cli.config_from_text("[model]\nlr = fast\n")
    with pytest.raises(DataError, match="bad config"):
        cli.config_from_text("dataset = x\n")
    with pytest.raises(DataError, match="bad value for experiment key 'feature_dim'"):
        cli.config_from_text("[experiment]\nfeature_dim = abc\n")
    with pytest.raises(DataError, match="bad value for experiment key 'seeds'"):
        cli.config_from_text("[experiment]\nseeds = 0,,1\n")
    with pytest.raises(DataError, match="bad value for grid key 'k'"):
        cli.config_from_text("[grid]\nk = 1,,2\n")


def test_flags_override_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(_sample_config_text(tmp_path))
    parser = cli.build_parser()
    args = parser.parse_args(
        ["train", "--config", str(path), "--lr", "0.5", "--seed", "3", "--dataset", "ring3"]
    )
    cfg = cli._resolve(args)
    assert cfg.dataset == "ring3"
    assert cfg.seeds == (3,)
    assert cfg.grid["lr"] == (0.5,)
    assert cfg.grid["k"] == (1, 2)
    assert cfg.features == "degrees"
    # each flag takes its config key's type, and --seeds the config's list rule
    args = parser.parse_args(["grid", "--config", str(path), "--workers", "3", "--k", "2",
                              "--lr", "1", "--wd", "0", "--seeds", "1,2"])
    cfg = cli._resolve(args)
    ((k,), (lr,), (wd,)) = cfg.grid["k"], cfg.grid["lr"], cfg.grid["wd"]
    assert type(cfg.workers) is int and type(k) is int
    assert type(lr) is float and type(wd) is float
    assert (cfg.workers, k, lr, wd) == (3, 2, 1.0, 0.0)
    assert cfg.seeds == (1, 2)


def test_expand_grid_orders_and_types(tmp_path):
    cfg = _sample_config(tmp_path)
    configs = cli.expand_grid(cfg)
    assert [(c.k, c.lr) for c in configs] == [(1, 0.1), (1, 0.01), (2, 0.1), (2, 0.01)]
    assert all(c.encoder == "mlp" for c in configs)
    cfg.grid = {"model": ("mlp",), "lr": (0.05,), "k": (3,)}
    solo = cli.expand_grid(cfg)
    assert len(solo) == 1 and solo[0].lr == 0.05 and solo[0].k == 3 and solo[0].encoder == "mlp"
    cfg.grid = {}
    assert cli.expand_grid(cfg) == [training.TrainConfig()]


def test_grid_beats_model_for_a_shared_key_and_a_flag_beats_both(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[experiment]\ndataset = ring3\n\n[model]\nk = 3\nlr = 0.05\n\n"
                    "[grid]\nk = 1, 2\n")
    cfg = cli.load_config(path)
    assert [(c.k, c.lr) for c in cli.expand_grid(cfg)] == [(1, 0.05), (2, 0.05)]
    parser = cli.build_parser()
    for flags in (["--k", "4"], ["--k", "4", "--lr", "0.5"]):
        cfg = cli._resolve(parser.parse_args(["grid", "--config", str(path), *flags]))
        (single,) = cli.expand_grid(cfg)
        assert single.k == 4 and single.lr == (0.5 if "--lr" in flags else 0.05)


def test_preprocess_is_idempotent(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("0 1\n1 2\n2 0\n2 0\n3 4\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["preprocess", "--dataset", str(raw), "--out", str(out1)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("n=3 m=3 ")
    assert (out1 / "stats.txt").read_text().strip() == line
    assert cli.main(["preprocess", "--dataset", str(out1 / "edges.txt"), "--out", str(out2)]) == 0
    assert (out1 / "edges.txt").read_bytes() == (out2 / "edges.txt").read_bytes()


def test_preprocess_writes_the_kept_nodes_feature_rows_in_their_new_order(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    # the triangle on 0, 2, 4 is the largest component: 1 and 3 are dropped,
    # and 2 and 4 become nodes 1 and 2
    raw.write_text("0 2\n1 3\n2 4\n4 0\n")
    feats = np.column_stack([np.arange(5.0), np.arange(5.0) / 3.0])
    save_features(tmp_path / "feats.txt", feats)
    out = tmp_path / "o"
    assert cli.main(["preprocess", "--dataset", str(raw), "--features-file",
                     str(tmp_path / "feats.txt"), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("n=3 m=3 ")
    assert np.array_equal(load_features(out / "features.txt"), feats[[0, 2, 4]])


def test_original_features_without_a_features_path_exit_1(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("[experiment]\ndataset = synthetic200\nfeatures = original\nseeds = 0\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: feature mode 'original' needs features_path\n"
    assert not out.exists()


def test_split_command_writes_seed_dirs(tmp_path, capsys):
    out = tmp_path / "splits"
    rc = cli.main(["split", "--dataset", "synthetic200", "--seeds", "0,1", "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("seed 0: train=")
    for seed in (0, 1):
        for name in ("train.txt", "val_pos.txt", "val_neg.txt", "test_pos.txt", "test_neg.txt", "meta"):
            assert (out / f"seed{seed}" / name).exists()
    out2 = tmp_path / "again"
    cli.main(["split", "--dataset", "synthetic200", "--seeds", "0", "--out", str(out2)])
    assert (out / "seed0" / "train.txt").read_bytes() == (out2 / "seed0" / "train.txt").read_bytes()


def test_split_of_a_graph_it_cannot_split_exits_2_and_makes_no_out(tmp_path, capsys):
    edges = tmp_path / "two_parts.txt"
    edges.write_text("0 1\n1 2\n3 4\n4 5\n5 3\n")
    out = tmp_path / "splits"
    assert cli.main(["split", "--dataset", str(edges), "--seeds", "0,1", "--out", str(out)]) == 2
    assert "split requires a weakly connected graph" in capsys.readouterr().err
    assert not out.exists()


def _train_config_text(tmp_path):
    return (
        "[experiment]\n"
        "dataset = synthetic200\n"
        "features = degrees\n"
        f"out = {tmp_path / 'run'}\n"
        "seeds = 0\n"
        "\n"
        "[model]\n"
        "hidden = 8\n"
        "emb = 8\n"
        "k = 2\n"
        "max_epochs = 15\n"
        "patience = 5\n"
    )


def test_train_eval_reconstruct_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_train_config_text(tmp_path))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "best_val_auc=" in out
    run_dir = tmp_path / "run"
    ckpt = run_dir / "model.npz"
    assert ckpt.exists()

    header, row = (run_dir / "runs.tsv").read_text().splitlines()
    cells = dict(zip(header.split("\t"), row.split("\t")))
    assert cells["dataset"] == "synthetic200" and cells["status"] == "ok"

    # restoring the checkpoint must reproduce the recorded test metrics exactly
    model, bundle, graph = cli._restore_model(str(ckpt))
    report = training.evaluate(model, bundle)
    for name in ("hits20", "hits50", "hits100", "mrr", "auc", "ap", "acc"):
        assert f"{getattr(report, name):.4f}" == cells[name]

    assert cli.main(["eval", "--checkpoint", str(ckpt)]) == 0
    eval_line = capsys.readouterr().out.strip()
    assert eval_line == " ".join(
        f"{name}={getattr(report, name):.2f}" for name in report.FIELDS
    )

    recon_dir = tmp_path / "recon"
    rc = cli.main(["reconstruct", "--checkpoint", str(ckpt), "--m-prime", "100",
                   "--out", str(recon_dir)])
    assert rc == 0
    pairs = np.loadtxt(recon_dir / "reconstructed.txt", dtype=np.int64)
    assert pairs.shape == (100, 2)
    true_edges = {(int(u), int(v)) for u, v in graph.edges}
    hit = sum((int(u), int(v)) in true_edges for u, v in pairs)
    assert capsys.readouterr().out == (
        f"reconstructed 100 pairs; {hit} of {graph.edge_count} true edges recovered\n")
    hist_lines = (recon_dir / "out_degree_recon.tsv").read_text().splitlines()[1:]
    total = sum(int(d) * int(c) for d, c in (ln.split("\t") for ln in hist_lines))
    assert total == 100
    for name in ("out_degree_true.tsv", "in_degree_true.tsv", "in_degree_recon.tsv"):
        assert (recon_dir / name).exists()


def test_a_negative_m_prime_is_a_usage_error_before_anything_is_read(tmp_path, capsys):
    # the checkpoint does not exist: the flag is rejected before it is opened
    assert cli.main(["reconstruct", "--checkpoint", str(tmp_path / "missing.npz"),
                     "--m-prime", "-1", "--out", str(tmp_path / "negative")]) == 1
    assert capsys.readouterr().err == "usage error: --m-prime must be >= 0, got -1\n"
    assert not (tmp_path / "negative").exists()


def test_an_m_prime_above_the_candidate_pairs_exits_2_and_makes_no_out(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_train_config_text(tmp_path))
    assert cli.main(["train", "--config", str(cfg_path), "--model", "mlp"]) == 0
    capsys.readouterr()
    out = tmp_path / "recon"
    assert cli.main(["reconstruct", "--checkpoint", str(tmp_path / "run" / "model.npz"),
                     "--m-prime", "100000000", "--out", str(out)]) == 2
    with pytest.raises(DataError) as raised:
        analysis.reconstruct_topm(None, 200, 100000000)
    assert capsys.readouterr().err == f"data error: {raised.value}\n"
    assert str(raised.value) == "m_prime 100000000 exceeds the 39800 candidate pairs"
    assert not out.exists()


def test_train_takes_one_split_seed(tmp_path, capsys):
    # with no seeds given train uses split seed 0; several given is a usage error
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_train_config_text(tmp_path).replace("seeds = 0\n", ""))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.startswith("seed 0: epochs=")
    meta, _ = models.load_checkpoint(tmp_path / "run" / "model.npz")
    assert meta["split_seed"] == 0
    assert cli.main(["train", "--config", str(cfg_path), "--seeds", "3,4"]) == 1
    assert "got 2; use grid" in capsys.readouterr().err
    cfg_path.write_text(_train_config_text(tmp_path).replace("seeds = 0", "seeds = 3, 4"))
    assert cli.main(["train", "--config", str(cfg_path)]) == 1
    assert "got 2; use grid" in capsys.readouterr().err


def test_train_takes_its_config_from_a_grid_of_one(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_train_config_text(tmp_path) + "\n[grid]\nk = 3\n")
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    meta, _ = models.load_checkpoint(tmp_path / "run" / "model.npz")
    assert meta["config"]["k"] == 3


def test_train_with_a_grid_of_several_configs_is_a_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_train_config_text(tmp_path) + "\n[grid]\nlr = 0.01, 0.05\nk = 2, 3\n")
    assert cli.main(["train", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "train runs one config, got 4 from [grid]; use grid" in captured.err
    assert not (tmp_path / "run").exists()


def test_train_and_grid_of_one_run_write_the_same_row(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_train_config_text(tmp_path) + "\n[grid]\nk = 3\n")
    rows = []
    for argv in (["train", "--seed", "0"], ["grid", "--seeds", "0"]):
        out = tmp_path / argv[0]
        assert cli.main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 0
        header, row = (out / "runs.tsv").read_text().splitlines()
        cells = dict(zip(header.split("\t"), row.split("\t")))
        del cells["seconds"]
        assert "k=3," in cells["config"] and cells["status"] == "ok"
        rows.append(cells)
    assert rows[0] == rows[1]


def test_repeated_split_seeds_are_usage_errors(tmp_path, capsys):
    with pytest.raises(cli.UsageError, match=r"split seed\(s\) 0 repeated"):
        cli.ExperimentConfig(dataset="ring3", seeds=(0, 0)).validate()
    for command in ("split", "train", "grid"):
        assert cli.main([command, "--dataset", "ring3", "--seeds", "2,5,2,7,5",
                         "--out", str(tmp_path / command)]) == 1
        assert "split seed(s) 2, 5 repeated" in capsys.readouterr().err
        assert not (tmp_path / command).exists()
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text("[experiment]\ndataset = synthetic200\nseeds = 0, 0\n")
    assert cli.main(["grid", "--config", str(cfg_path), "--out", str(tmp_path / "g")]) == 1
    assert "split seed(s) 0 repeated" in capsys.readouterr().err


def test_a_flag_wins_over_a_grid_sweep_of_its_key(tmp_path, capsys):
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(_train_config_text(tmp_path) + "\n[grid]\nk = 2, 5\nlr = 0.01\n")
    out = tmp_path / "grid"
    assert cli.main(["grid", "--config", str(cfg_path), "--k", "3", "--out", str(out)]) == 0
    header, *rows = (out / "runs.tsv").read_text().splitlines()
    configs = [dict(zip(header.split("\t"), row.split("\t")))["config"] for row in rows]
    assert len(configs) == 1 and "k=3," in configs[0] and "lr=0.01," in configs[0]
    out = tmp_path / "train"
    assert cli.main(["train", "--config", str(cfg_path), "--k", "3", "--out", str(out)]) == 0
    meta, _ = models.load_checkpoint(out / "model.npz")
    assert meta["config"]["k"] == 3


def test_negative_seeds_are_usage_errors(tmp_path, capsys):
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        training.TrainConfig(seed=-1)
    with pytest.raises(cli.UsageError, match=r"seeds must be >= 0, got -2"):
        cli.ExperimentConfig(dataset="ring3", seeds=(0, -2)).validate()
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_train_config_text(tmp_path) + "seed = -1\n")
    for command in ("train", "grid"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: seed must be >= 0, got -1\n"
        assert not out.exists()
    out = tmp_path / "split"
    assert cli.main(["split", "--dataset", "ring3", "--seeds", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: seeds must be >= 0, got -1\n"
    assert not out.exists()


def test_repeated_grid_values_are_usage_errors(tmp_path, capsys):
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(_train_config_text(tmp_path) + "\n[grid]\nlr = 0.01, 0.05\nk = 2, 3, 2\n")
    out = tmp_path / "g"
    assert cli.main(["grid", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: [grid] k repeats a value; each config runs once\n"
    assert not out.exists()


def test_check_command_verdicts(capsys):
    assert cli.main(["check", "--dataset", "ring3", "--mode", "single",
                     "--decoder", "inner"]) == 0
    out = capsys.readouterr().out
    assert "verdict: infeasible" in out and "direction-symmetric" in out

    assert cli.main(["check", "--dataset", "graph_d", "--mode", "single",
                     "--decoder", "lr_concat", "--attempts", "10"]) == 0
    out = capsys.readouterr().out
    assert "verdict: feasible" in out
    assert "margin:" in out and "S =" in out


def test_usage_errors_exit_1(tmp_path, capsys):
    assert cli.main([]) == 1
    assert cli.main(["train", "--nonsense"]) == 1
    assert cli.main(["train"]) == 1  # dataset missing
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\ndataset = ring3\nfeatures = degrees\n")
    assert cli.main(["train", "--config", str(bad), "--seed", "0", "--features"]) == 1
    capsys.readouterr()
    assert cli.main(["grid", "--dataset", "ring3", "--seeds", "1,2", "--seed", "3",
                     "--out", str(tmp_path / "g")]) == 1
    assert "not allowed with" in capsys.readouterr().err
    for seeds in ("0,,1", "1,2,"):
        assert cli.main(["split", "--dataset", "ring3", "--seeds", seeds,
                         "--out", str(tmp_path / "s")]) == 1
        assert f"bad value for experiment key 'seeds': '{seeds}'" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()
    for dim in ("0", "-3"):
        bad.write_text("[experiment]\ndataset = synthetic200\nfeatures = random\n"
                       f"feature_dim = {dim}\n")
        assert cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "feature_dim" in capsys.readouterr().err
    for line in ("emb = 0", "hidden = 0", "dec_hidden = 0", "mlp_layers = 0",
                 "max_epochs = 0\npatience = -1"):
        bad.write_text(f"[experiment]\ndataset = synthetic200\nfeatures = degrees\n[model]\n{line}\n")
        assert cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert f"usage error: {line.split()[0]} must be >= 1" in capsys.readouterr().err
    for decoder, flag, value in (("inner", "--dim", "0"), ("mlp_concat", "--dim", "0"),
                                 ("inner", "--attempts", "-1")):
        assert cli.main(["check", "--dataset", "ring3", "--mode", "dual", "--decoder", decoder,
                         flag, value]) == 1
        assert capsys.readouterr().err == f"usage error: {flag[2:]} must be >= 1, got {value}\n"


@pytest.mark.parametrize("command", ["train", "grid"])
@pytest.mark.parametrize("line, why", [
    ("lr = -0.01", "lr must be finite and >= 0, got -0.01"),
    ("lr = nan", "lr must be finite and >= 0, got nan"),
    ("lr = inf", "lr must be finite and >= 0, got inf"),
    ("wd = -1", "wd must be finite and >= 0, got -1.0"),
    ("patience = -5", "patience must be >= 0, got -5"),
])
def test_bad_training_settings_are_usage_errors_before_anything_is_read(
        tmp_path, capsys, command, line, why):
    # the dataset does not exist: the setting is rejected before it is read
    missing = tmp_path / "missing.txt"
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"[experiment]\ndataset = {missing}\n[model]\n{line}\n")
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: {why}\n"
    key, _, value = line.partition(" = ")
    if key != "patience":
        assert cli.main([command, "--dataset", str(missing), f"--{key}", value,
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"usage error: {why}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "grid", "reconstruct"])
def test_an_out_that_is_a_file_fails_before_any_run(tmp_path, capsys, monkeypatch, command):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_train_config_text(tmp_path))
    if command == "reconstruct":
        assert cli.main(["train", "--config", str(cfg_path), "--model", "mlp"]) == 0
        argv = ["reconstruct", "--checkpoint", str(tmp_path / "run" / "model.npz")]
        owner, runner = analysis, "reconstruct_topm"
    else:
        argv = [command, "--config", str(cfg_path)]
        owner, runner = training, "train" if command == "train" else "grid_run"
    capsys.readouterr()
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise RuntimeError(f"{runner} ran before --out was made")

    monkeypatch.setattr(owner, runner, refuse)
    out = tmp_path / "taken"
    out.write_text("a file\n")
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "File exists" in err, err
    assert calls == []
    assert out.read_text() == "a file\n"


def test_grid_rejects_a_bad_model_value_before_any_run(tmp_path, capsys, monkeypatch):
    fits = []
    monkeypatch.setattr(training, "fit", lambda *a, **kw: fits.append(a))
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text("[experiment]\ndataset = synthetic200\nfeatures = degrees\nseeds = 0\n"
                        "[grid]\nk = 3, 9\n")
    out = tmp_path / "g"
    assert cli.main(["grid", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "usage error: k must be in 1..8, got 9" in capsys.readouterr().err
    assert fits == []
    assert not (out / "runs.tsv").exists()


def test_eval_of_a_file_that_is_not_a_checkpoint_exits_2(tmp_path, capsys):
    path = tmp_path / "x.npz"
    for meta, why in ((None, "no __meta__ entry"), ("{not json", "__meta__ is not JSON"),
                      ('{"format_version": 99}', "unsupported checkpoint version 99")):
        entries = {"w": np.zeros(3)} if meta is None else {"__meta__": np.array(meta)}
        np.savez(path, **entries)
        assert cli.main(["eval", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(path) in err and why in err
    path.write_text("not an archive\n")
    assert cli.main(["eval", "--checkpoint", str(path)]) == 2
    assert f"data error: {path} is not a checkpoint" in capsys.readouterr().err


# the meta keys cmd_train writes, with a config that builds a model on ring3
_META = {"config": {"encoder": "mlp"}, "split_seed": 0, "features": "degrees",
         "feature_dim": 64, "features_path": "", "dataset": "ring3"}


@pytest.mark.parametrize("change, why", [
    ({"config": None}, "checkpoint meta has no 'config' key"),
    ({"dataset": None}, "checkpoint meta has no 'dataset' key"),
    ({"config": [1, 2]}, "checkpoint config is not a table"),
    ({"config": {"encoder": "mlp", "bogus": 1}}, "bad checkpoint config: "),
    ({"config": {"k": 9}}, "bad checkpoint config: k must be in 1..8"),
    ({"config": {"emb": 8.0}}, "bad checkpoint config: emb must be int, got 8.0"),
    ({"config": {"hidden": True}}, "bad checkpoint config: hidden must be int, got True"),
    ({"config": {"lr": "0.1"}}, "bad checkpoint config: lr must be float, got '0.1'"),
    ({"config": {"lr": -0.01}}, "bad checkpoint config: lr must be finite and >= 0, got -0.01"),
    ({"config": {"wd": float("inf")}}, "bad checkpoint config: wd must be finite and >= 0"),
    ({"config": {"patience": -5}}, "bad checkpoint config: patience must be >= 0, got -5"),
    ({"split_seed": "x"}, "bad checkpoint meta: experiment key seeds must be a tuple of ints"),
    ({"split_seed": 1.5}, "bad checkpoint meta: experiment key seeds must be a tuple of ints"),
    ({"feature_dim": "64"}, "bad checkpoint meta: experiment key feature_dim must be int"),
    ({"features": "bogus"}, "bad checkpoint meta: unknown feature mode 'bogus'"),
])
def test_restore_of_a_bad_checkpoint_meta_exits_2(tmp_path, capsys, change, why):
    # a key changed to None is left out of the meta
    meta = {k: v for k, v in {**_META, **change}.items() if v is not None}
    path = str(tmp_path / "model.npz")
    np.savez(path, __meta__=np.array(json.dumps({"format_version": 1, **meta})))
    for argv in (["eval", "--checkpoint", path],
                 ["reconstruct", "--checkpoint", path, "--out", str(tmp_path / "r")]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and why in err, err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("arrays, why", [
    ({}, "checkpoint missing parameter 'mlp.0.w'"),
    ({"mlp.0.w": np.zeros((3, 64))}, "shape mismatch for 'mlp.0.w'"),
])
def test_restore_of_bad_parameter_arrays_exits_2(tmp_path, capsys, arrays, why):
    path = str(tmp_path / "model.npz")
    np.savez(path, __meta__=np.array(json.dumps({"format_version": 1, **_META})), **arrays)
    for argv in (["eval", "--checkpoint", path],
                 ["reconstruct", "--checkpoint", path, "--out", str(tmp_path / "r")]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and why in err, err
    assert not (tmp_path / "r").exists()


def test_eval_on_a_split_with_no_test_pairs_is_a_data_error(tmp_path, capsys):
    # ring3's three edges leave floor(0.15 * 3) = 0 test pairs
    bundle = split_edges(datasets.load_fixture("ring3"), seed=0)
    feats = init_features(FeatureInit(mode="degrees"), bundle.train_graph)
    model = training.build_model(training.TrainConfig(encoder="mlp"), bundle.train_graph, feats,
                                 np.random.default_rng(0))
    path = tmp_path / "model.npz"
    models.save_checkpoint(path, {n: t.data for n, t in model.named_parameters().items()}, _META)
    assert cli.main(["eval", "--checkpoint", str(path)]) == 2
    assert capsys.readouterr().err == ("data error: empty test split: 0 positive and 0 negative "
                                       "pairs; metrics need at least one of each\n")


def test_data_errors_exit_2(tmp_path, capsys):
    assert cli.main(["preprocess", "--dataset", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "o")]) == 2
    mangled = tmp_path / "mangled.txt"
    mangled.write_text("0 one\n")
    assert cli.main(["preprocess", "--dataset", str(mangled),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err


@pytest.mark.parametrize("command", ["train", "grid"])
def test_a_feature_file_of_the_wrong_row_count_fails_before_out_is_made(tmp_path, capsys,
                                                                       command):
    feats = tmp_path / "feats.txt"
    save_features(feats, np.ones((208, 3)))
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("[experiment]\ndataset = synthetic200\nfeatures = original\n"
                        f"features_path = {feats}\nseeds = 0\n")
    out = tmp_path / "run"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "data error: feature rows (208) != node count (200)\n"
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_run_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_train_config_text(tmp_path))
    rc = cli.main(["train", "--config", str(cfg_path), "--lr", "1e155"])
    assert rc == 3
    # the line dirlink grid prints for a failed run, its split seed and config once each
    config = training.config_id(training.TrainConfig(hidden=8, emb=8, k=2, max_epochs=15,
                                                     patience=5, lr=1e155))
    assert capsys.readouterr().err == (f"run failed: seed 0 [{config}]: aborted at epoch 1: "
                                       "scores contain NaN\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_train_replaces_an_earlier_run_in_its_out(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_train_config_text(tmp_path))
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--lr", "0.01"]) == 0
    assert (run_dir / "model.npz").exists()
    assert cli.main(["train", "--config", str(cfg_path), "--lr", "1e155"]) == 3
    header, row = (run_dir / "runs.tsv").read_text().splitlines()
    cells = dict(zip(header.split("\t"), row.split("\t")))
    assert cells["status"] == "failed" and "lr=1e+155," in cells["config"]
    assert [cells[name] for name in MetricsReport.FIELDS] == [""] * len(MetricsReport.FIELDS)
    assert not (run_dir / "model.npz").exists()


def test_train_that_runs_out_of_memory_writes_the_grid_row_and_drops_the_old_run(
        tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_train_config_text(tmp_path))
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    assert (run_dir / "model.npz").exists()
    capsys.readouterr()

    def fit(*args):
        raise MemoryError("no room for the tape")

    monkeypatch.setattr(training, "fit", fit)
    assert cli.main(["train", "--config", str(cfg_path)]) == 3
    config = training.config_id(training.TrainConfig(hidden=8, emb=8, k=2, max_epochs=15,
                                                     patience=5))
    assert capsys.readouterr().err == (f"run failed: seed 0 [{config}]: "
                                       "MemoryError: no room for the tape\n")
    assert not (run_dir / "model.npz").exists()
    assert cli.main(["grid", "--config", str(cfg_path), "--out", str(tmp_path / "grid")]) == 3
    rows = []
    for out in (run_dir, tmp_path / "grid"):
        header, row = (out / "runs.tsv").read_text().splitlines()
        cells = dict(zip(header.split("\t"), row.split("\t")))
        del cells["seconds"]
        rows.append(cells)
    assert rows[0] == rows[1] and rows[0]["status"] == "failed"


# ring3's splits hold out no validation pair, so every run on it fails
_RING3_GRID = ["grid", "--dataset", "ring3", "--seeds", "0,1"]


def test_grid_prints_why_each_run_failed(tmp_path, capsys):
    cli.main([*_RING3_GRID, "--out", str(tmp_path / "g")])
    config = training.config_id(training.TrainConfig())
    assert capsys.readouterr().err.splitlines() == [
        f"run failed: seed {seed} [{config}]: empty validation split: "
        "0 positive and 0 negative pairs; early stopping needs at least one of each"
        for seed in (0, 1)
    ]


def test_grid_in_which_every_run_failed_exits_3(tmp_path, capsys):
    out = tmp_path / "g"
    assert cli.main([*_RING3_GRID, "--out", str(out)]) == 3
    assert capsys.readouterr().out == ""
    runs = [line.split("\t") for line in (out / "runs.tsv").read_text().splitlines()]
    assert runs[0] == list(training.RUN_COLUMNS)
    assert [(row[2], row[-1]) for row in runs[1:]] == [("0", "failed"), ("1", "failed")]
    summary = [line.split("\t") for line in (out / "summary.tsv").read_text().splitlines()]
    assert len(summary) == 2 and summary[1][2:4] == ["2", "2"] and summary[1][-1] == "0"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_with_some_failed_runs_exits_0(tmp_path, capsys):
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(_train_config_text(tmp_path) + "\n[grid]\nlr = 0.01, 1e155\n")
    assert cli.main(["grid", "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    failed = training.config_id(training.TrainConfig(hidden=8, emb=8, k=2, max_epochs=15,
                                                     patience=5, lr=1e155))
    assert line.startswith(f"run failed: seed 0 [{failed}]: ")
    assert line.count(failed) == 1
    assert "lr=0.01," in captured.out.splitlines()[-1]

import numpy as np
import pytest

from dirlink import cli, models, training
from dirlink.graph import DataError


def _sample_config(tmp_path):
    return cli.ExperimentConfig(
        dataset="synthetic200",
        features="degrees",
        feature_dim=32,
        out=str(tmp_path / "run"),
        seeds=(0, 4),
        workers=2,
        model={"model": "mlp", "lr": 0.05, "k": 3},
        grid={"lr": (0.1, 0.01), "k": (1, 2)},
    )


def test_config_round_trip(tmp_path):
    cfg = _sample_config(tmp_path)
    assert cli.config_from_text(cli.config_to_text(cfg)) == cfg
    path = tmp_path / "exp.cfg"
    cli.save_config(path, cfg)
    assert cli.load_config(path) == cfg


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


def test_flags_override_config(tmp_path):
    path = tmp_path / "exp.cfg"
    cli.save_config(path, _sample_config(tmp_path))
    parser = cli.build_parser()
    args = parser.parse_args(
        ["train", "--config", str(path), "--lr", "0.5", "--seed", "3", "--dataset", "ring3"]
    )
    cfg = cli._resolve(args)
    assert cfg.dataset == "ring3"
    assert cfg.seeds == (3,)
    assert cfg.model["lr"] == 0.5
    assert cfg.model["k"] == 3
    assert cfg.features == "degrees"


def test_expand_grid_orders_and_types(tmp_path):
    cfg = _sample_config(tmp_path)
    configs = cli.expand_grid(cfg)
    assert [(c.k, c.lr) for c in configs] == [(1, 0.1), (1, 0.01), (2, 0.1), (2, 0.01)]
    assert all(c.encoder == "mlp" for c in configs)
    cfg.grid = {}
    solo = cli.expand_grid(cfg)
    assert len(solo) == 1 and solo[0].lr == 0.05 and solo[0].k == 3


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

    assert cli.main(["reconstruct", "--checkpoint", str(ckpt), "--m-prime", "-1",
                     "--out", str(tmp_path / "negative")]) == 2
    assert "m_prime -1 is negative" in capsys.readouterr().err
    assert not (tmp_path / "negative").exists()


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


def test_data_errors_exit_2(tmp_path, capsys):
    assert cli.main(["preprocess", "--dataset", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "o")]) == 2
    mangled = tmp_path / "mangled.txt"
    mangled.write_text("0 one\n")
    assert cli.main(["preprocess", "--dataset", str(mangled),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_run_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_train_config_text(tmp_path))
    rc = cli.main(["train", "--config", str(cfg_path), "--lr", "1e155"])
    assert rc == 3
    assert "run failed" in capsys.readouterr().err

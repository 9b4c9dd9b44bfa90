"""Golden split digests: the same seed gives byte-identical split files and
negatives across implementations of the data path.

The digests below were recorded on the loop-based data path (one Python
iteration per line, edge and sampled pair). Any rewrite of ingest,
preprocessing, splitting, negative sampling or saving must reproduce them
unchanged; an infeasible split records its DataError message instead.
"""

import hashlib
import warnings

import numpy as np
import pytest

from dirlink import datasets
from dirlink.graph import DataError, DirectedGraph, load_edge_list, preprocess, save_edge_list
from dirlink.splits import load_split, sample_train_negatives, save_split, split_edges


def _generated_raw_edges():
    """About 11k raw edges on 2500 ids: skewed endpoints, duplicates,
    reciprocal pairs, self-loops, a detached triangle and isolated ids."""
    rng = np.random.default_rng(np.random.SeedSequence([2024, 4]))
    n = 2490
    u = (n * rng.random(9000) ** 2).astype(np.int64)
    v = rng.integers(0, n, size=9000)
    edges = np.stack([u, v], axis=1)
    recip = edges[rng.random(len(edges)) < 0.2][:, ::-1]
    dups = edges[rng.integers(0, len(edges), size=500)]
    # ids 2497..2499 form their own component; 2490..2496, and any id no
    # draw touched, are isolated
    island = np.array([[2497, 2498], [2498, 2499], [2499, 2497]])
    return np.concatenate([edges, recip, dups, island])


def _split_digest(g, seed, directory):
    try:
        bundle = split_edges(g, seed=seed)
    except DataError as exc:
        return f"DataError: {exc}"
    save_split(directory, bundle)
    loaded = load_split(directory)
    for role in ("train_pos", "val_pos", "test_pos", "val_neg", "test_neg"):
        assert np.array_equal(getattr(loaded, role), getattr(bundle, role)), role
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(hashlib.sha256(path.read_bytes()).hexdigest().encode())
    tg = bundle.train_graph
    for strategy, epoch in (("per_run", 0), ("per_epoch", 3)):
        negs = sample_train_negatives(tg, len(bundle.train_pos), seed, strategy, epoch)
        h.update(np.ascontiguousarray(negs, dtype=np.int64).tobytes())
    return h.hexdigest()


GOLDEN = {
    "ring3": {
        0: "1e2587f0fc0557316748d0832208701db6a808586bd3035b8bddf4b1d5a03b01",
        1: "ca7dcb44062ef179d5ead33bc86980dcb94799255b986919f48b117a02a81299",
        2: "8081d9f42942d9dab51ffd56cbe84f8d451d8d44693a2b23e19c7287164620b1",
        3: "1f86a0ca8fe4ff0c5b27d4d2a2e15a3b0405198722f7f2bd229053d732b1f190",
        4: "b1b24939f0f55f2de8a9f109ca2be6f6b15889cf0e4c41bc9a1ca14bcfd3c7fe",
        5: "deecba782276ab908a0bb14880fc2a3babb157cb57e8bb4bb4a23994d020444c",
        6: "612f4d4171e3e3f31b99ce5d3fc770b237d95c9b3eaf5f0b463cd13ca10a3c0d",
        7: "2eceaf800f84e1f7e0b736d4214d486f96a32d70c3788503ce56b19ef6ba88e8",
        8: "e6afd2c6b4979306d2ae37f5fbd8113986c4bc820af04d999ace77bbe4704c46",
        9: "9dd8a7b907edced86252e7e6836d5e64f83f7e1589ca8dcbbdbe33abbf318609",
    },
    "graph_d": {
        0: "3c2bdade1c509dc7bff7daaceff32d8e780a175a283876474f69805d194b2595",
        1: "88583517c027eb3d85a0a25b27e734102a3cba6d67d3348e4025b6006fbda74e",
        2: "3cb22e870569cfc76c728b3df4cf311ac62ae61e889a5c9ef08167c4516e6096",
        3: "20af7a37fe10f6474d5684162a809b183a5f01e90b6e09bb61dea9373ab0c305",
        4: "36df22787265e610e2c272711453edac4273d07617b699fd3a3744ea5705dc12",
        5: "fe2463438db0c3dde1b4594e31f58807861fda4e56ad0aaa8a250a9f920100b7",
        6: "4e70df54d36ddb163ef8ccc4e3f28a259dd7f5fad74d6d5783bd5d26df55396f",
        7: "da21520d9c92033df7dc2df3eff0c1718957d7c6240922637c9b4d1ebdf7baaf",
        8: "60a116782af69fbe9b579e7d37068b576911f6a54597b4fa0efea75182589749",
        9: "2a37042ad70bb08036738966571a8d08a1f3b44a58f6c23dc8b9edd315032bbb",
    },
    "synthetic200": {
        0: "07c6b514f7d02b66487ee4eda8151cbb7f8e5deed2ad2e4e305a3b93d7819e9a",
        1: "2d9f543640fc62bf16a0c4bce055686f2e1dc4278aaeddde1c10bc5d2b271c35",
        2: "f894768152b2e9fb474e304b7bf2be4efda0c6dc854ab087888c08d05428abac",
        3: "e75a3c31889c6232e653a2525236a87d27f799b9ad297ea18bd8722262d940b9",
        4: "a29cf1294fa6f083b232f81800d002d03ca8defcf33e9d9912092d91185f596b",
        5: "1b2ca9dd2317a2c61505762bd706c72c721938d4e1c1217beb9c33529e7092d6",
        6: "2631990714795a964548c29d009bab69ad6d7a5f2d3e09e44d2b193189f24ac8",
        7: "bd9a28e2b038e06edc06ac4c1625152358798f8d85f08a78f799d00208157696",
        8: "41e6fd6e2abffba8448ec2ced959c59c6b98456f1aea9a213cc36c76997d6a32",
        9: "5bbbc838fda662c405e0d12f897fcd082e4084de463fd1f48f1c9ea60423cf35",
    },
    "generated2k": {
        0: "8081f46f1077fab7a4a3c24f1164873035f2f99fcccf28aa890f7e6d0100a5e7",
        1: "f743234b9cda0a2cf28598dbda950208263f20eb9ab90586691ead11120f8406",
        2: "04667a78c5d80d8ca0c18c8788d296873397a5756be1efcd35d42f68acbb3bab",
        "edges": "4277758528012c0fe8b3c566222ef71f40cc8f818e6d268b7284d16be1fb48bc",
    },
    "ring30": {
        0: ("DataError: cannot hold out 5 edges without disconnecting the training "
            "graph; at most 1 of 30 are removable"),
        1: ("DataError: cannot hold out 5 edges without disconnecting the training "
            "graph; at most 1 of 30 are removable"),
        2: ("DataError: cannot hold out 5 edges without disconnecting the training "
            "graph; at most 1 of 30 are removable"),
    },
}


def _digests(name, tmp_path):
    """Digests of every split of one dataset; for the generated graph, also
    of its preprocessed edge list."""
    if name == "generated2k":
        raw = tmp_path / "raw.txt"
        save_edge_list(raw, _generated_raw_edges(), header="golden generated graph")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            g, _ = preprocess(load_edge_list(raw))
        save_edge_list(tmp_path / "edges.txt", g.edges)
        got = {"edges": hashlib.sha256((tmp_path / "edges.txt").read_bytes()).hexdigest()}
        seeds = range(3)
    elif name == "ring30":
        # a spanning tree plus one edge: every holdout size above 1 is infeasible
        g = DirectedGraph(30, np.stack([np.arange(30), (np.arange(30) + 1) % 30], axis=1))
        got = {}
        seeds = range(3)
    else:
        g = datasets.load_fixture(name)
        got = {}
        seeds = range(10)
    for seed in seeds:
        got[seed] = _split_digest(g, seed, tmp_path / f"s{seed}")
    return got


@pytest.mark.parametrize("name", list(datasets.FIXTURE_NAMES) + ["generated2k", "ring30"])
def test_split_files_and_negatives_match_golden_digests(name, tmp_path):
    assert _digests(name, tmp_path) == GOLDEN[name]

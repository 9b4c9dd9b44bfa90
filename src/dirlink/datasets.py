"""Bundled fixture graphs.

Three graphs ship with the package so the whole pipeline runs with zero
downloads: the 3-node directed ring, the 3-node regular graph used by the
expressiveness certificates, and a 200-node planted-factor graph large
enough to exercise splitting and end-to-end training.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .graph import DirectedGraph, load_edge_list, weakly_connected_components

FIXTURE_NAMES = ("ring3", "graph_d", "synthetic200")


def ring3():
    """0 -> 1 -> 2 -> 0: every edge unreciprocated, so orienting it defeats
    any direction-symmetric scorer."""
    return load_fixture("ring3")


def graph_d():
    """Three nodes, edges 0->1, 2->1, 2->0: same size as the ring but
    orientable by a single embedding with an affine concat decoder."""
    return load_fixture("graph_d")


def planted_graph(n=200, latent_dim=2, per_node=8, seed=7):
    """A directed graph whose edges are the strongest pairs of a planted
    low-rank score matrix.

    Each node keeps its ``per_node`` highest-scoring outgoing pairs under
    logits S* T*^T with Gaussian factors, then components are stitched
    together (best cross-component pair first) until the graph is weakly
    connected.  Out-degrees are uniform; in-degrees are heavy-tailed.
    Deterministic in ``seed``.
    """
    if per_node >= n:
        raise ValueError("per_node must be below n")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    src = rng.standard_normal((n, latent_dim))
    dst = rng.standard_normal((n, latent_dim))
    scores = src @ dst.T
    np.fill_diagonal(scores, -np.inf)
    edges = []
    for u in range(n):
        order = np.argsort(-scores[u], kind="stable")[:per_node]
        edges.extend((u, int(v)) for v in order)
    g = DirectedGraph(n, np.asarray(edges, dtype=np.int64))
    while True:
        labels = weakly_connected_components(g)
        if labels.max() == 0:
            return g
        cross = labels[:, None] != labels[None, :]
        masked = np.where(cross, scores, -np.inf)
        flat = int(np.argmax(masked))
        u, v = divmod(flat, n)
        g = DirectedGraph(n, np.vstack([g.edges, [[u, v]]]))


def fixture_path(name):
    """Filesystem path of a bundled edge list."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    return resources.files("dirlink").joinpath("data", f"{name}.txt")


def load_fixture(name):
    return load_edge_list(fixture_path(name))

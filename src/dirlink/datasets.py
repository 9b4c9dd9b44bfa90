"""Bundled fixture graphs, shipped as edge lists so the whole pipeline runs
with zero downloads."""

from __future__ import annotations

from importlib import resources

from .graph import load_edge_list

# ring3: 0 -> 1 -> 2 -> 0, every edge unreciprocated, so orienting it defeats
#   any direction-symmetric scorer.
# graph_d: edges 0->1, 2->1, 2->0; the ring's size, but orientable by a single
#   embedding with an affine concat decoder.  The certificates use both.
# synthetic200: large enough for splitting and end-to-end training; the
#   strongest pairs of a planted low-rank score matrix on 200 nodes, stitched
#   weakly connected (its generator is planted_graph in tests/helpers.py).
FIXTURE_NAMES = ("ring3", "graph_d", "synthetic200")


def fixture_path(name):
    """Filesystem path of a bundled edge list."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    return resources.files("dirlink").joinpath("data", f"{name}.txt")


def load_fixture(name):
    return load_edge_list(fixture_path(name))

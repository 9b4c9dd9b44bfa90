"""R-MAT directed graph generator (Chakrabarti, Zhan & Faloutsos, SDM 2004).

Each edge picks one quadrant of the adjacency matrix per level of a
``2**scale`` recursion, with probabilities (a, b, c, d).  With a > d the
recursion concentrates edges on few rows and columns, so both in- and
out-degrees are heavy-tailed.  Node ids are permuted at the end so that
degree does not correlate with id.  Self-loops and duplicate edges are kept:
the benchmark feeds them to the ingest path, which must drop them.

Cost is O(m * scale) vectorized work, deterministic in the seed.
"""

from __future__ import annotations

import numpy as np

# quadrant probabilities (a, b, c, d)
PROBS = (0.57, 0.19, 0.19, 0.05)


def rmat_edges(scale, m, seed):
    """An (m, 2) int64 array of raw R-MAT edges over ``2**scale`` node ids."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, scale, m]))
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # quadrant 0 = (0, 0), 1 = (0, 1), 2 = (1, 0), 3 = (1, 1)
    cuts = np.cumsum(PROBS[:3])
    for _ in range(scale):
        quad = np.searchsorted(cuts, rng.random(m), side="right")
        src = 2 * src + (quad >= 2)
        dst = 2 * dst + (quad % 2 == 1)
    perm = rng.permutation(1 << scale)
    return np.stack([perm[src], perm[dst]], axis=1)


def write_edge_list(path, edges):
    """Write edges as ``u v`` lines, the format ``dirlink.graph.load_edge_list`` reads.

    Kept apart from ``dirlink.graph.save_edge_list`` so that the inputs and
    their set-up time do not change with the program under test.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(f"{u} {v}" for u, v in edges.tolist()))
        fh.write("\n")

"""Directed graph representation, preprocessing, and sparse linear algebra.

Graphs are stored as deduplicated, sorted directed edge sets; the adjacency
matrix and its normalized forms are scipy CSR matrices built from them on
demand.  All normalization here follows the source/target convention:
out-degrees normalize rows, in-degrees normalize columns, and self-loops are
added only when building normalized operators, never stored in the graph
itself.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as _sp
from scipy.sparse import _sparsetools


class DataError(ValueError):
    """Raised for malformed input files or infeasible data requests."""


def run_starts(sorted_keys):
    """Boolean mask of the first entry of each run of equal values in a
    sorted array."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def spmm(m, x, out=None):
    """Sparse-dense product ``m @ x`` by scipy's CSR or CSC multi-vector
    kernel, the one ``m @ x`` runs; a test pins the bits to those of ``m @ x``.

    Parameters
    ----------
    m : float64 scipy sparse matrix in CSR or CSC format, shape (r, c)
    x : ndarray, shape (c, d)
    out : C-ordered float64 ndarray, shape (r, d), optional
        Zeroed, written with the product and returned, so a caller that
        multiplies the same shapes over and over reuses one array.  A new
        array when None.

    Returns
    -------
    ndarray, shape (r, d)
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != m.shape[1]:
        raise ValueError(f"dimension mismatch: {m.shape[0]}x{m.shape[1]} @ {x.shape}")
    shape = (m.shape[0], x.shape[1])
    if (m.format not in ("csr", "csc") or m.dtype != np.float64
            or out is not None and (out.shape != shape or out.dtype != np.float64
                                    or not out.flags.c_contiguous)):
        got = "no out" if out is None else f"out {out.dtype} {out.shape}"
        raise ValueError(f"spmm needs a float64 CSR or CSC matrix, and spmm out a C-ordered "
                         f"float64 array of shape {shape}; got {m.format} {m.dtype}, {got}")
    if out is None:
        out = np.zeros(shape)
    else:
        out.fill(0.0)
    kernel = getattr(_sparsetools, m.format + "_matvecs")
    kernel(m.shape[0], m.shape[1], x.shape[1], m.indptr, m.indices, m.data,
           np.ascontiguousarray(x).ravel(), out.ravel())
    return out


def spmm_t(m, x):
    """Sparse-dense product by the transpose, ``m.T @ x``.  scipy's ``.T`` of
    a CSR matrix is a CSC view of the same arrays, so nothing is copied."""
    return spmm(m.T, x)


# edge keys u*n + v run up to n*n - 1, so they fit in int64 up to this node count
MAX_NODES = math.isqrt(2**63)


class DirectedGraph:
    """A directed graph: node count plus a deduplicated self-loop-free edge set.

    Edges are stored sorted lexicographically, so identical edge sets produce
    identical objects regardless of input order.  ``adjacency`` builds the
    sparse matrix from them.  The node count is at most ``MAX_NODES``.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        self.n = int(n)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if self.n <= 0:
            raise ValueError("graph needs at least one node")
        if self.n > MAX_NODES:
            raise ValueError(f"node count {self.n} above {MAX_NODES}: its edge keys overflow int64")
        if len(edges):
            if edges.min() < 0 or edges.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed; filter them before construction")
            keys = np.sort(edges[:, 0] * np.int64(self.n) + edges[:, 1])
            keys = keys[run_starts(keys)]
            edges = np.stack([keys // self.n, keys % self.n], axis=1)
        self.edges = edges

    @property
    def edge_count(self):
        return len(self.edges)

    def edge_keys(self):
        """Edges encoded as sorted int64 keys u*n + v, for fast membership tests.

        The edges are stored in lexicographic order, so their keys are sorted."""
        return self.edges[:, 0] * np.int64(self.n) + self.edges[:, 1]


def degrees(g, add_self_loops=False):
    """Out- and in-degree vectors of g.

    With ``add_self_loops`` both are incremented by one, matching the
    degrees of the self-looped adjacency used by normalized operators.
    """
    out_deg = np.bincount(g.edges[:, 0], minlength=g.n)
    in_deg = np.bincount(g.edges[:, 1], minlength=g.n)
    if add_self_loops:
        out_deg = out_deg + 1
        in_deg = in_deg + 1
    return out_deg.astype(np.int64), in_deg.astype(np.int64)


def adjacency(g):
    """The adjacency matrix of g as a scipy CSR matrix in canonical form
    (sorted columns, no duplicates).

    The edges are sorted, so their targets are the column indices as they
    stand and the row pointer is the running count of sources."""
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(g.edges[:, 0], minlength=g.n), out=indptr[1:])
    return _sp.csr_matrix((np.ones(g.edge_count), g.edges[:, 1], indptr), shape=(g.n, g.n))


def normalize_adj(g, alpha, beta):
    """Degree-normalized self-looped adjacency, a scipy CSR matrix.

    Entry (u, v) equals ``d_out(u)^-beta * d_in(v)^-alpha`` for every edge of
    the self-looped adjacency, where degrees include the self-loops (so they
    are strictly positive and the powers are always defined).
    """
    out_deg, in_deg = degrees(g, add_self_loops=True)
    a_hat = adjacency(g) + _sp.identity(g.n, format="csr")
    rr = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(a_hat.indptr))
    a_hat.data *= np.power(out_deg[rr], -beta) * np.power(in_deg[a_hat.indices], -alpha)
    return a_hat


def normalize_sym(g):
    """Symmetrically normalized self-looped adjacency.

    Entry (u, v) equals ``1 / sqrt(d_out(u) * d_in(v))`` with both degrees
    taken from the self-looped adjacency.
    """
    return normalize_adj(g, 0.5, 0.5)


def spanning_forest(n, u, v):
    """The spanning forest that adding edges (u[i], v[i]) in index order keeps.

    Edge directions are ignored.  Returns ``(tree, comp)``: ``tree[i]`` is
    True when edge i joins two components of the edges before it (exactly
    the edges a union-find pass in index order would merge on), and
    ``comp[x]`` is a representative node of x's component.

    Runs Borůvka rounds with the edge index as a distinct weight.  Each
    component takes its lowest-index leaving edge, and the components those
    edges join merge.  With distinct weights the minimum spanning forest is
    unique, so it is the forest Kruskal's algorithm keeps in index order.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    tree = np.zeros(len(u), dtype=bool)
    comp = np.arange(n, dtype=np.int64)
    eid = np.arange(len(u), dtype=np.int64)
    while True:
        cu, cv = comp[u], comp[v]
        live = cu != cv
        if not live.any():
            return tree, comp
        # edges inside a component never leave it again; live keeps index order
        u, v, eid, cu, cv = u[live], v[live], eid[live], cu[live], cv[live]
        pos = np.arange(len(eid))
        best = np.full(n, len(eid))
        np.minimum.at(best, cu, pos)
        np.minimum.at(best, cv, pos)
        roots = np.flatnonzero(best < len(eid))
        pick = best[roots]
        tree[eid[pick]] = True
        other = np.where(cu[pick] == roots, cv[pick], cu[pick])
        hook = np.arange(n, dtype=np.int64)
        hook[roots] = other
        # two components that picked each other picked the same edge; the
        # smaller id stays a root, so the hooks form a forest
        mutual = (hook[other] == roots) & (roots < other)
        hook[roots[mutual]] = roots[mutual]
        while True:
            jumped = hook[hook]
            if np.array_equal(jumped, hook):
                break
            hook = jumped
        comp = hook[comp]


def weakly_connected_components(g):
    """Component labels ignoring edge direction.

    Returns an int array of length n with labels numbered 0..c-1 in order of
    first appearance by node index.
    """
    _, comp = spanning_forest(g.n, g.edges[:, 0], g.edges[:, 1])
    nodes = np.arange(g.n, dtype=np.int64)
    first = np.full(g.n, g.n, dtype=np.int64)
    np.minimum.at(first, comp, nodes)
    first = first[comp]
    return (np.cumsum(first == nodes) - 1)[first]


def preprocess(g, feats=None):
    """Canonicalize a graph for benchmarking.

    Keeps only the largest weakly connected component (ties broken by edge
    count, then by smallest node index), drops isolated nodes, and reindexes
    the survivors densely in increasing order of their old index.  Feature
    rows are permuted consistently.

    Returns
    -------
    (DirectedGraph, ndarray or None)
    """
    if feats is not None:
        feats = np.asarray(feats, dtype=np.float64)
        if feats.shape[0] != g.n:
            raise DataError(f"feature rows ({feats.shape[0]}) != node count ({g.n})")
    if g.edge_count == 0:
        raise DataError("graph has no edges after preprocessing")
    labels = weakly_connected_components(g)
    node_counts = np.bincount(labels)
    edge_counts = np.bincount(labels[g.edges[:, 0]], minlength=len(node_counts))
    # isolated nodes form singleton zero-edge components, so they never win;
    # lexsort is stable and labels are ordered by first-seen node, so a tie in
    # nodes and edges goes to the component with the smallest node id
    best = np.lexsort((-edge_counts, -node_counts))[0]
    keep = np.flatnonzero(labels == best)
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep), dtype=np.int64)
    # both endpoints of an edge share a weak component, so one check suffices
    kept_edges = g.edges[labels[g.edges[:, 0]] == best]
    out = DirectedGraph(len(keep), remap[kept_edges])
    return out, (feats[keep] if feats is not None else None)


def graph_stats(g):
    """Summary statistics: n, m, average total degree 2m/n, and the percentage
    of edges whose reverse direction is absent."""
    keys = g.edge_keys()
    rev = g.edges[:, 1] * np.int64(g.n) + g.edges[:, 0]
    reciprocated = np.isin(rev, keys).sum()
    pct = 100.0 * (g.edge_count - reciprocated) / g.edge_count if g.edge_count else 0.0
    return {
        "n": g.n,
        "m": g.edge_count,
        "avg_degree": 2.0 * g.edge_count / g.n,
        "pct_directed": pct,
    }


def read_pairs(path):
    """The ``u v`` lines of an edge-list file as a (k, 2) int64 array.

    Format: UTF-8 text, one pair of nonnegative integers per line; blank
    lines and lines starting with ``#`` are skipped.  Anything else, an
    inline comment included, raises DataError naming ``path:line``.
    """
    try:
        with warnings.catch_warnings():
            # a file without data lines is an empty edge list here
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            pairs = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2, encoding="utf-8")
    except (ValueError, OverflowError):
        return _scan_pairs(path)
    if not len(pairs):
        return np.empty((0, 2), dtype=np.int64)
    # loadtxt also takes what the format rejects; the line scan names the line
    if pairs.shape[1] != 2 or pairs.min() < 0 or _has_inline_comment(path):
        return _scan_pairs(path)
    return pairs


def _has_inline_comment(path):
    """True if some line holds more than whitespace before its first ``#``."""
    raw = Path(path).read_bytes()
    pos = raw.find(b"#")
    while pos >= 0:
        if raw[raw.rfind(b"\n", 0, pos) + 1 : pos].strip():
            return True
        end = raw.find(b"\n", pos)
        pos = raw.find(b"#", end) if end >= 0 else -1
    return False


_INT64_MAX = np.iinfo(np.int64).max


def _scan_pairs(path):
    """read_pairs one line at a time: the reference for its format and errors."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer endpoint in {line!r}") from None
            if u < 0 or v < 0:
                raise DataError(f"{path}:{lineno}: negative node index in {line!r}")
            if max(u, v) > _INT64_MAX:
                raise DataError(f"{path}:{lineno}: node index above 2^63 - 1 in {line!r}")
            pairs.append((u, v))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def load_edge_list(path):
    """Read a directed graph from an edge-list file.

    Format: as ``read_pairs``.  Duplicate edges are collapsed; self-loops
    are dropped with a warning giving their count.  The node count is
    ``1 + max index``.
    """
    edges = read_pairs(path)
    loops = edges[:, 0] == edges[:, 1]
    edges = edges[~loops]
    if not len(edges):
        raise DataError(f"{path}: no edges found")
    if loops.any():
        warnings.warn(f"{path}: dropped {int(loops.sum())} self-loop(s)", stacklevel=2)
    n = int(edges.max()) + 1
    if n > MAX_NODES:
        raise DataError(f"{path}: node count {n} above {MAX_NODES}: its edge keys overflow int64")
    return DirectedGraph(n, edges)


# lines formatted per write: one string for the whole file would cost as much
# memory again as the edge array
_SAVE_BLOCK = 1 << 14


def save_edge_list(path, edges):
    """Write edges (iterable of pairs) in the edge-list format."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(edges), _SAVE_BLOCK):
            block = edges[lo : lo + _SAVE_BLOCK]
            fh.write("%d %d\n" * len(block) % tuple(block.ravel().tolist()))


def load_features(path):
    """Read a dense feature matrix.

    Format: first line ``n d``, then n whitespace-separated rows of d floats;
    blank lines are skipped.
    """
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
    if len(head) != 2:
        raise DataError(f"{path}:1: expected header 'n d'")
    try:
        n, d = int(head[0]), int(head[1])
    except ValueError:
        raise DataError(f"{path}:1: non-integer header") from None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            feats = np.loadtxt(path, dtype=np.float64, comments=None, skiprows=1, ndmin=2,
                               encoding="utf-8")
    except ValueError:
        feats = None
    if n == 0 or feats is None or feats.shape != (n, d):
        # the line scan names the offending line, or counts the rows
        feats = _scan_features(path, d)
        if len(feats) != n:
            raise DataError(f"{path}: header declares {n} rows, found {len(feats)}")
    if not np.all(np.isfinite(feats)):
        raise DataError(f"{path}: non-finite feature value")
    return feats


def _scan_features(path, d):
    """The rows of a feature file one line at a time, with line-numbered errors."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            vals = line.split()
            if len(vals) != d:
                raise DataError(f"{path}:{lineno}: expected {d} values, got {len(vals)}")
            try:
                rows.append([float(x) for x in vals])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric value") from None
    return np.asarray(rows, dtype=np.float64)


def save_features(path, feats):
    feats = np.asarray(feats, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{feats.shape[0]} {feats.shape[1]}\n")
        for row in feats:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")

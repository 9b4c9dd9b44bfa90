"""Directed graph representation, preprocessing, and sparse linear algebra.

Graphs are stored as deduplicated directed edge sets with CSR forms of the
adjacency matrix and its transpose.  All normalization here follows the
source/target convention: out-degrees normalize rows, in-degrees normalize
columns, and self-loops are added only when building normalized operators,
never stored in the graph itself.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as _sp


class DataError(ValueError):
    """Raised for malformed input files or infeasible data requests."""


def run_starts(sorted_keys):
    """Boolean mask of the first entry of each run of equal values in a
    sorted array."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


class CsrMatrix:
    """Weighted sparse matrix in compressed-sparse-row form.

    Invariants: ``row_ptr`` is monotone nondecreasing with ``rows + 1``
    entries, and within each row the column indices are strictly increasing.

    Parameters
    ----------
    rows, cols : int
        Matrix dimensions.
    row_ptr, col_idx, values : array_like
        Standard CSR arrays.  ``values[row_ptr[r]:row_ptr[r+1]]`` are the
        entries of row ``r``.
    """

    __slots__ = ("rows", "cols", "row_ptr", "col_idx", "values", "_scipy_cache", "_t_cache",
                 "__weakref__")

    def __init__(self, rows, cols, row_ptr, col_idx, values):
        self.rows = int(rows)
        self.cols = int(cols)
        self.row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        self.col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._scipy_cache = None
        self._t_cache = None
        if self.row_ptr.shape != (self.rows + 1,):
            raise ValueError("row_ptr must have rows + 1 entries")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.col_idx):
            raise ValueError("row_ptr endpoints inconsistent with col_idx")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be monotone nondecreasing")
        if len(self.col_idx) != len(self.values):
            raise ValueError("col_idx and values length mismatch")
        if len(self.col_idx) and (self.col_idx.min() < 0 or self.col_idx.max() >= self.cols):
            raise ValueError("column index out of range")
        if self.nnz > 1:
            # neighbouring entries k, k + 1 must increase unless a row starts at k + 1
            same_row = np.ones(self.nnz - 1, dtype=bool)
            starts = self.row_ptr[1:-1]
            same_row[starts[(starts > 0) & (starts < self.nnz)] - 1] = False
            bad = np.flatnonzero(same_row & (np.diff(self.col_idx) <= 0))
            if len(bad):
                r = np.searchsorted(self.row_ptr, bad[0], side="right") - 1
                raise ValueError(f"column indices not strictly increasing in row {r}")

    @classmethod
    def from_coo(cls, rows, cols, r, c, v):
        """Build a CSR matrix from coordinate triplets, summing duplicates."""
        r = np.asarray(r, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        v = np.asarray(v, dtype=np.float64)
        if not (len(r) == len(c) == len(v)):
            raise ValueError("coordinate arrays must have equal length")
        if len(r) and (r.min() < 0 or r.max() >= rows or c.min() < 0 or c.max() >= cols):
            raise ValueError("coordinate out of range")
        key = r * np.int64(cols) + c
        order = np.argsort(key, kind="stable")
        key, v = key[order], v[order]
        start = np.flatnonzero(run_starts(key))
        uniq = key[start]
        summed = np.add.reduceat(v, start) if len(v) else v
        rr = uniq // cols
        cc = uniq % cols
        row_ptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rr, minlength=rows), out=row_ptr[1:])
        return cls(rows, cols, row_ptr, cc, summed)

    @property
    def nnz(self):
        return len(self.col_idx)

    def _scipy(self):
        if self._scipy_cache is None:
            self._scipy_cache = _sp.csr_matrix(
                (self.values, self.col_idx, self.row_ptr), shape=(self.rows, self.cols)
            )
        return self._scipy_cache

    def transpose(self):
        """Return the transpose as a CsrMatrix, cached on this matrix only: the
        transpose keeps no reference back, so a matrix dies by refcount."""
        if self._t_cache is None:
            rr = np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.row_ptr))
            self._t_cache = CsrMatrix.from_coo(self.cols, self.rows, self.col_idx, rr, self.values)
        return self._t_cache

    def to_dense(self):
        out = np.zeros((self.rows, self.cols))
        rr = np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.row_ptr))
        out[rr, self.col_idx] = self.values
        return out


def spmm(m, x):
    """Sparse-dense product ``m @ x``.

    Parameters
    ----------
    m : CsrMatrix
    x : ndarray, shape (m.cols, d)

    Returns
    -------
    ndarray, shape (m.rows, d)
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != m.cols:
        raise ValueError(f"dimension mismatch: {m.rows}x{m.cols} @ {x.shape}")
    return np.ascontiguousarray(m._scipy() @ x)


def spmm_t(m, x):
    """Sparse-dense product by the transpose, ``m.T @ x``."""
    return spmm(m.transpose(), x)


def bipartite_block(m):
    """Lift a square matrix M to its symmetric bipartite block form.

    Returns the 2n x 2n matrix ``[[0, M], [M^T, 0]]``.  The result is
    symmetric for any M and has exactly twice the nonzeros.
    """
    if m.rows != m.cols:
        raise ValueError("bipartite_block requires a square matrix")
    n = m.rows
    t = m.transpose()
    row_ptr = np.concatenate([m.row_ptr[:-1], m.row_ptr[-1] + t.row_ptr])
    col_idx = np.concatenate([m.col_idx + n, t.col_idx])
    values = np.concatenate([m.values, t.values])
    return CsrMatrix(2 * n, 2 * n, row_ptr, col_idx, values)


class DirectedGraph:
    """A directed graph: node count plus a deduplicated self-loop-free edge set.

    ``csr_out`` holds the adjacency matrix A (row = source) and ``csr_in``
    its transpose.  Edges are stored sorted lexicographically, so identical
    edge sets produce identical objects regardless of input order.
    """

    __slots__ = ("n", "edges", "csr_out", "csr_in")

    def __init__(self, n, edges):
        self.n = int(n)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if self.n <= 0:
            raise ValueError("graph needs at least one node")
        if len(edges):
            if edges.min() < 0 or edges.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed; filter them before construction")
            keys = np.sort(edges[:, 0] * np.int64(self.n) + edges[:, 1])
            keys = keys[run_starts(keys)]
            edges = np.stack([keys // self.n, keys % self.n], axis=1)
        self.edges = edges
        ones = np.ones(len(edges))
        self.csr_out = CsrMatrix.from_coo(self.n, self.n, edges[:, 0], edges[:, 1], ones)
        self.csr_in = self.csr_out.transpose()

    @property
    def edge_count(self):
        return len(self.edges)

    def edge_keys(self):
        """Edges encoded as sorted int64 keys u*n + v, for fast membership tests.

        The edges are stored in lexicographic order, so their keys are sorted."""
        return self.edges[:, 0] * np.int64(self.n) + self.edges[:, 1]

    def has_edge(self, u, v):
        lo, hi = self.csr_out.row_ptr[u], self.csr_out.row_ptr[u + 1]
        i = np.searchsorted(self.csr_out.col_idx[lo:hi], v)
        return i < hi - lo and self.csr_out.col_idx[lo + i] == v


def degrees(g, add_self_loops=False):
    """Out- and in-degree vectors of g.

    With ``add_self_loops`` both are incremented by one, matching the
    degrees of the self-looped adjacency used by normalized operators.
    """
    out_deg = np.diff(g.csr_out.row_ptr)
    in_deg = np.diff(g.csr_in.row_ptr)
    if add_self_loops:
        out_deg = out_deg + 1
        in_deg = in_deg + 1
    return out_deg.astype(np.int64), in_deg.astype(np.int64)


def adjacency(g, self_loops=False):
    """The adjacency matrix of g as a CsrMatrix, optionally with self-loops added."""
    if not self_loops:
        return g.csr_out
    diag = np.arange(g.n, dtype=np.int64)
    r = np.concatenate([g.edges[:, 0], diag])
    c = np.concatenate([g.edges[:, 1], diag])
    return CsrMatrix.from_coo(g.n, g.n, r, c, np.ones(len(r)))


def normalize_adj(g, alpha, beta):
    """Degree-normalized self-looped adjacency.

    Entry (u, v) equals ``d_out(u)^-beta * d_in(v)^-alpha`` for every edge of
    the self-looped adjacency, where degrees include the self-loops (so they
    are strictly positive and the powers are always defined).
    """
    out_deg, in_deg = degrees(g, add_self_loops=True)
    a_hat = adjacency(g, self_loops=True)
    rr = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(a_hat.row_ptr))
    scale = np.power(out_deg[rr], -beta) * np.power(in_deg[a_hat.col_idx], -alpha)
    return CsrMatrix(g.n, g.n, a_hat.row_ptr, a_hat.col_idx, a_hat.values * scale)


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


def load_edge_list(path, n=None):
    """Read a directed graph from an edge-list file.

    Format: as ``read_pairs``.  Duplicate edges are collapsed; self-loops
    are dropped with a warning giving their count.  The node count is
    ``1 + max index`` unless ``n`` overrides it.
    """
    edges = read_pairs(path)
    loops = edges[:, 0] == edges[:, 1]
    edges = edges[~loops]
    if not len(edges):
        raise DataError(f"{path}: no edges found")
    if loops.any():
        warnings.warn(f"{path}: dropped {int(loops.sum())} self-loop(s)", stacklevel=2)
    max_idx = int(edges.max())
    if n is None:
        n = max_idx + 1
    elif n <= max_idx:
        raise DataError(f"{path}: node index {max_idx} exceeds declared count {n}")
    return DirectedGraph(n, edges)


# lines formatted per write: one string for the whole file would cost as much
# memory again as the edge array
_SAVE_BLOCK = 1 << 14


def save_edge_list(path, edges, header=None):
    """Write edges (iterable of pairs) in the edge-list format."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
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

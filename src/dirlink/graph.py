"""Directed graph representation, preprocessing, and sparse linear algebra.

Graphs are stored as deduplicated directed edge sets with CSR forms of the
adjacency matrix and its transpose.  All normalization here follows the
source/target convention: out-degrees normalize rows, in-degrees normalize
columns, and self-loops are added only when building normalized operators,
never stored in the graph itself.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as _sp


class DataError(ValueError):
    """Raised for malformed input files or infeasible data requests."""


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        """Merge the sets containing a and b; return True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


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
        for r in range(self.rows):
            lo, hi = self.row_ptr[r], self.row_ptr[r + 1]
            if hi - lo > 1 and np.any(np.diff(self.col_idx[lo:hi]) <= 0):
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
        uniq, start = np.unique(key, return_index=True)
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
            edges = np.unique(edges, axis=0)
        self.edges = edges
        ones = np.ones(len(edges))
        self.csr_out = CsrMatrix.from_coo(self.n, self.n, edges[:, 0], edges[:, 1], ones)
        self.csr_in = self.csr_out.transpose()

    @property
    def edge_count(self):
        return len(self.edges)

    def edge_keys(self):
        """Edges encoded as sorted int64 keys u*n + v, for fast membership tests."""
        return np.sort(self.edges[:, 0] * np.int64(self.n) + self.edges[:, 1])

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


def weakly_connected_components(g):
    """Component labels ignoring edge direction.

    Returns an int array of length n with labels numbered 0..c-1 in order of
    first appearance by node index.
    """
    uf = UnionFind(g.n)
    for u, v in g.edges:
        uf.union(int(u), int(v))
    labels = np.empty(g.n, dtype=np.int64)
    seen = {}
    for v in range(g.n):
        root = uf.find(v)
        if root not in seen:
            seen[root] = len(seen)
        labels[v] = seen[root]
    return labels


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
    # labels are ordered by first-seen node, so -c prefers the smallest node id
    best = max(range(len(node_counts)), key=lambda c: (node_counts[c], edge_counts[c], -c))
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


def load_edge_list(path, n=None):
    """Read a directed graph from an edge-list file.

    Format: UTF-8 text, one ``u v`` pair of nonnegative integers per line;
    blank lines and lines starting with ``#`` are skipped.  Duplicate edges
    are collapsed; self-loops are dropped with a warning giving their count.
    The node count is ``1 + max index`` unless ``n`` overrides it.
    """
    pairs = []
    loops = 0
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
            if u == v:
                loops += 1
                continue
            pairs.append((u, v))
    if not pairs:
        raise DataError(f"{path}: no edges found")
    if loops:
        warnings.warn(f"{path}: dropped {loops} self-loop(s)", stacklevel=2)
    edges = np.asarray(pairs, dtype=np.int64)
    max_idx = int(edges.max())
    if n is None:
        n = max_idx + 1
    elif n <= max_idx:
        raise DataError(f"{path}: node index {max_idx} exceeds declared count {n}")
    return DirectedGraph(n, edges)


def save_edge_list(path, edges, header=None):
    """Write edges (iterable of pairs) in the edge-list format."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for u, v in np.asarray(edges, dtype=np.int64).reshape(-1, 2):
            fh.write(f"{u} {v}\n")


def load_features(path):
    """Read a dense feature matrix.

    Format: first line ``n d``, then n whitespace-separated rows of d floats.
    """
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        if len(head) != 2:
            raise DataError(f"{path}:1: expected header 'n d'")
        try:
            n, d = int(head[0]), int(head[1])
        except ValueError:
            raise DataError(f"{path}:1: non-integer header") from None
        rows = []
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
    if len(rows) != n:
        raise DataError(f"{path}: header declares {n} rows, found {len(rows)}")
    feats = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(feats)):
        raise DataError(f"{path}: non-finite feature value")
    return feats


def save_features(path, feats):
    feats = np.asarray(feats, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{feats.shape[0]} {feats.shape[1]}\n")
        for row in feats:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")

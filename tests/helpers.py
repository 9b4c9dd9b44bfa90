"""Shared test utilities: random graph builders, the generator of the
synthetic200 fixture, loop-based reference implementations of the data path,
dense and explicit-form oracles of the encoders, of ``pair_dot``, of the
backward scatter of ``pair_dot`` and ``gather_rows``, of ``hinge`` and of a
biased ``matmul``, the tape ops that only tests build graphs with
(``row_sum``, ``add_bias``, ``add``, ``scale``, ``sum_all``),
finite-difference checks, a switch that runs ``autodiff.lanes`` on two
threads at any size, and a memory-bounded subprocess runner."""

import os
import subprocess
import sys
import threading

import numpy as np
import scipy.sparse as sp

import dirlink
import dirlink.autodiff as ad
from dirlink.graph import DirectedGraph, adjacency, spanning_forest, spmm
from dirlink.models import EncoderOutput


def random_graph(rng, n, p=0.2, ensure_edge=True):
    """Erdos-Renyi style directed graph without self-loops."""
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    edges = np.argwhere(mask)
    if ensure_edge and len(edges) == 0:
        edges = np.array([[0, (1 % n) or 0]])
        if n == 1:
            raise ValueError("need n >= 2")
        edges = np.array([[0, 1]])
    return DirectedGraph(n, edges)


def weakly_connected_random_graph(rng, n, p=0.2):
    """Random graph made weakly connected by a directed path over a permutation."""
    g = random_graph(rng, n, p, ensure_edge=False)
    perm = rng.permutation(n)
    path = np.stack([perm[:-1], perm[1:]], axis=1)
    edges = np.vstack([g.edges, path]) if len(g.edges) else path
    return DirectedGraph(n, edges)


def planted_graph(n=200, latent_dim=2, per_node=8, seed=7):
    """A directed graph whose edges are the strongest pairs of a planted
    low-rank score matrix; with its defaults, the synthetic200 fixture.

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
        # only the partition is read, so the forest's representatives serve as labels
        _, labels = spanning_forest(n, g.edges[:, 0], g.edges[:, 1])
        if np.all(labels == labels[0]):
            return g
        cross = labels[:, None] != labels[None, :]
        masked = np.where(cross, scores, -np.inf)
        flat = int(np.argmax(masked))
        u, v = divmod(flat, n)
        g = DirectedGraph(n, np.vstack([g.edges, [[u, v]]]))


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


def kruskal_pins(n, shuffled):
    """Reference split pinning: a union-find pass over the shuffled edges in
    order.  Returns (tree, pinned) masks over the shuffled positions: the
    edges that merged two components, and for each of them the edge kept in
    train, the lexicographically smaller of its two directions if both exist."""
    index_of = {(int(u), int(v)): i for i, (u, v) in enumerate(shuffled)}
    uf = UnionFind(n)
    tree = np.zeros(len(shuffled), dtype=bool)
    pinned = np.zeros(len(shuffled), dtype=bool)
    for i, (u, v) in enumerate(shuffled):
        if uf.union(int(u), int(v)):
            tree[i] = True
            cand = (int(u), int(v))
            rev = (cand[1], cand[0])
            if rev in index_of and rev < cand:
                cand = rev
            pinned[index_of[cand]] = True
    return tree, pinned


def sample_non_edges_loop(n, count, excluded_keys, rng):
    """Reference sparse-regime negative sampler: batches of draws, scanned one
    pair at a time with a set of the keys already picked."""
    picked = []
    seen = set()
    while len(picked) < count:
        batch = max(2 * (count - len(picked)), 256)
        cand = rng.integers(0, n, size=(batch, 2), dtype=np.int64)
        cand = cand[cand[:, 0] != cand[:, 1]]
        keys = cand[:, 0] * n + cand[:, 1]
        fresh = ~np.isin(keys, excluded_keys)
        for key, pair in zip(keys[fresh], cand[fresh]):
            k = int(key)
            if k not in seen:
                seen.add(k)
                picked.append(pair)
                if len(picked) == count:
                    break
    return np.asarray(picked, dtype=np.int64).reshape(-1, 2)


def bipartite_block(m):
    """The symmetric 2n x 2n block lift ``[[0, M], [M.T, 0]]`` of a square
    sparse matrix M, in CSR form."""
    return sp.bmat([[None, m], [m.T, None]], format="csr")


def expand_coefficients(gamma_s, gamma_t, k):
    """Collapse the k-step recurrence into explicit polynomial coefficients.

    Returns (w_s, w_t), each of length k+1, such that the encoder output
    equals sum_j of w[j] times the j-th alternating power of the normalized
    block adjacency applied to the initial embeddings.  Degree-j terms on the
    S side pick up gamma_s on odd hops, gamma_t on even ones, and vice versa.
    """
    gs = np.asarray(gamma_s, dtype=np.float64).reshape(-1)
    gt = np.asarray(gamma_t, dtype=np.float64).reshape(-1)
    if len(gs) != k or len(gt) != k:
        raise ValueError("need exactly k coefficients per side")
    w_s = np.zeros(k + 1)
    w_t = np.zeros(k + 1)
    w_s[0] = 1.0
    w_t[0] = 1.0
    for step in range(k):
        new_s = w_s.copy()
        new_t = w_t.copy()
        new_s[1:] += gs[step] * w_t[:-1]
        new_t[1:] += gt[step] * w_s[:-1]
        w_s, w_t = new_s, new_t
    return w_s, w_t


def sdgae_encode_explicit(p, a_norm, x):
    """Forward-only oracle evaluating the explicit polynomial form.

    Expands the step coefficients, then accumulates w[j] times the j-th
    alternating block power of the initial embeddings.  No tape is built.
    """
    xt = ad.Tensor(x)
    s0 = p.mlp_s(xt).data
    t0 = p.mlp_t(xt).data
    gs = [float(g.data[0, 0]) for g in p.gamma_s]
    gt = [float(g.data[0, 0]) for g in p.gamma_t]
    w_s, w_t = expand_coefficients(gs, gt, len(gs))
    u, v = s0, t0
    s_out = w_s[0] * u
    t_out = w_t[0] * v
    for j in range(1, len(gs) + 1):
        u, v = spmm(a_norm, v), spmm(a_norm.T, u)
        s_out = s_out + w_s[j] * u
        t_out = t_out + w_t[j] * v
    return EncoderOutput(ad.Tensor(s_out), ad.Tensor(t_out))


def sdgae_encode_composite(p, a_norm, x):
    """The SDGAE encoder as a composite of primitive tape ops: per step and
    side one ``spmm_const``, one ``scale`` and one ``add``.  The oracle of
    ``autodiff.sdgae_propagate``, which must match its values and grads bit
    for bit."""
    xt = ad.Tensor(x)
    a_t = a_norm.T
    s = p.mlp_s(xt)
    t = p.mlp_t(xt)
    for step in range(len(p.gamma_s)):
        s_next = add(scale(ad.spmm_const(a_norm, t, a_t), p.gamma_s[step]), s)
        t_next = add(scale(ad.spmm_const(a_t, s, a_norm), p.gamma_t[step]), t)
        s, t = s_next, t_next
    return EncoderOutput(s, t)


def scatter(rows, cols, vals, shape):
    """CSR whose row r lists the positions i with rows[i] == r in ascending
    i, so a product with it sums each row in index order, like np.add.at:
    the oracle of ``PairIndex.scatter``, which is ``scatter(u, v, g, (n_u,
    n_v)) @ x`` for ``pair_dot`` and ``scatter(u, arange(P), ones(P), (n_u,
    P)) @ x`` for ``gather_rows``, side 0; side 1 swaps u and v."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    order = np.argsort(rows, kind="stable")
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=shape)


def row_sum(x):
    """Sum each row to a single column, (n, d) -> (n, 1), as a tape op: the
    last op of ``pair_dot``'s three-op composite oracle.  Its grad map
    broadcasts the (n, 1) g to x's shape."""
    return ad._op(x.data.sum(axis=1, keepdims=True), "row_sum", (x,),
                  (x, lambda g: np.broadcast_to(g, x.data.shape).copy()))


def add_bias(x, b):
    """Add a (1, d) bias row to every row of x, as a tape op: after a
    ``matmul`` without a bias, the two-op oracle of ``matmul(x, w, b)``."""
    if b.data.shape != (1, x.data.shape[1]):
        raise ValueError(f"bias shape {b.data.shape} incompatible with {x.data.shape}")
    return ad._op(x.data + b.data, "add_bias", (x, b),
                  (x, lambda g: g.copy()), (b, lambda g: g.sum(axis=0, keepdims=True)))


def add(a, b):
    """Elementwise a + b as a tape op; both grad maps return a copy of g."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    return ad._op(a.data + b.data, "add", (a, b),
                  (a, lambda g: g.copy()), (b, lambda g: g.copy()))


def scale(x, s):
    """Multiply a matrix by a scalar held in a (1, 1) tensor, as a tape op."""
    if s.data.shape != (1, 1):
        raise ValueError("scale factor must be a 1x1 tensor")
    return ad._op(x.data * s.data[0, 0], "scale", (x, s),
                  (x, lambda g: g * s.data[0, 0]),
                  (s, lambda g: (g * x.data).sum(keepdims=True)))


def sum_all(x):
    """The sum of every entry, (n, d) -> (1, 1), as a tape op: the scalar
    loss of most gradient tests.  Its grad map fills x's shape with g."""
    return ad._op(x.data.sum().reshape(1, 1), "sum_all", (x,),
                  (x, lambda g: np.full(x.data.shape, g[0, 0])))


def hinge_composite(pos, rev, margin):
    """``autodiff.hinge`` as the composite of add, scale, relu and sum_all
    over constant margin columns: its oracle for values and grads, bit for
    bit."""
    margin_pos = ad.Tensor(np.full(pos.data.shape, margin))
    loss = sum_all(ad.relu(add(margin_pos, scale(pos, ad.Tensor(-1.0)))))
    if rev is None:
        return loss
    margin_rev = ad.Tensor(np.full(rev.data.shape, margin))
    return add(loss, sum_all(ad.relu(add(margin_rev, rev))))


def digae_encode_bipartite(p, g, x, alpha, beta):
    """Forward-only oracle for the convolution via the bipartite block form.

    Stacks [S @ W_s; T @ W_t], multiplies by the symmetric 2n x 2n block
    lift of the self-looped adjacency sandwiched between the degree scalings,
    and splits the halves back.  Dense; for tests on small graphs.
    """
    x = np.asarray(x, dtype=np.float64)
    n = g.n
    a_hat = adjacency(g).toarray() + np.eye(n)
    block = np.zeros((2 * n, 2 * n))
    block[:n, n:] = a_hat
    block[n:, :n] = a_hat.T
    dvec = np.concatenate([np.power(a_hat.sum(axis=1), -beta),
                           np.power(a_hat.sum(axis=0), -alpha)])
    norm_block = dvec[:, None] * block * dvec[None, :]
    s = t = x
    last = len(p.w_s) - 1
    for layer, (w_s, w_t) in enumerate(zip(p.w_s, p.w_t)):
        z = np.vstack([s @ w_s.data, t @ w_t.data])
        h = norm_block @ z
        s, t = h[:n], h[n:]
        if layer < last:
            s, t = np.maximum(s, 0.0), np.maximum(t, 0.0)
    return EncoderOutput(ad.Tensor(s), ad.Tensor(t))


class EinsumSpy:
    """numpy, with the subscripts of each einsum recorded: patched in for a
    module's ``np``, it shows which path of ``models._inner_scores`` ran,
    an "id,jd->ij" einsum over a box or "ij,ij->i" ones over gathered rows."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, subscripts, *operands):
        self.calls.append(subscripts)
        return np.einsum(subscripts, *operands)

    def boxes(self):
        return [c == "id,jd->ij" for c in self.calls]


def force_lanes(monkeypatch):
    """Run every ``autodiff.lanes`` call of this test on two threads, at any
    block size and CPU count.  Returns the list to which each T side run on
    the lane thread appends that thread's name."""
    monkeypatch.setattr(ad, "LANE_MIN_VALUES", 0)
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
    threads, real = [], ad._in_mode

    def in_mode(record, side):
        threads.append(threading.current_thread().name)
        return real(record, side)

    monkeypatch.setattr(ad, "_in_mode", in_mode)
    return threads


def rel_err(a, b, floor=1e-3):
    return abs(a - b) / max(abs(a), abs(b), floor)


def central_diff(loss_fn, tensor, idx, h=1e-5):
    """Two-point estimate of d loss / d tensor[idx]."""
    orig = tensor.data[idx]
    tensor.data[idx] = orig + h
    up = loss_fn()
    tensor.data[idx] = orig - h
    down = loss_fn()
    tensor.data[idx] = orig
    return (up - down) / (2.0 * h)


def check_gradients(loss_builder, params, rng, coords_per_tensor=3, h=1e-5, tol=1e-4):
    """Compare analytic gradients against central differences.

    loss_builder() must rebuild the graph from the current parameter data and
    return the scalar loss Tensor.  Samples a few coordinates per parameter.
    Returns the worst relative error seen.
    """
    loss = loss_builder()
    ad.backward(loss, params)
    grads = [p.grad.copy() for p in params]

    def loss_value():
        return float(loss_builder().data[0, 0])

    worst = 0.0
    for p, g in zip(params, grads):
        nrow, ncol = p.data.shape
        count = min(coords_per_tensor, nrow * ncol)
        flat = rng.choice(nrow * ncol, size=count, replace=False)
        for f in flat:
            idx = (int(f) // ncol, int(f) % ncol)
            numeric = central_diff(loss_value, p, idx, h=h)
            err = rel_err(g[idx], numeric)
            worst = max(worst, err)
            assert err <= tol, (
                f"gradient mismatch at {idx}: analytic {g[idx]:.8g} vs numeric {numeric:.8g}"
            )
    return worst


_WATCHDOG = """
import os, resource, sys, threading, time

def peak_mb():
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    scale = 1024.0 ** 2 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale

def _watchdog(bound_mb):
    # stop at the bound instead of growing until the machine runs out
    while True:
        if peak_mb() > bound_mb:
            print(f"peak RSS passed {bound_mb:.0f} MB", flush=True)
            os._exit(3)
        time.sleep(0.02)

threading.Thread(target=_watchdog, args=(float(sys.argv[1]),), daemon=True).start()
"""


def run_under_memory_bound(child_code, bound_mb, timeout=600, env=None):
    """Run child_code in a fresh interpreter that imports dirlink from this
    checkout, with the variables of ``env`` added to this environment,
    stopping it once its peak RSS passes bound_mb.

    child_code prints whitespace-separated key=value pairs.  Returns them as
    a dict, plus the process's peak RSS in MB under "peak", after asserting
    a clean exit and a peak within the bound."""
    env = {**os.environ, **(env or {})}
    src = os.path.dirname(os.path.dirname(dirlink.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = _WATCHDOG + child_code + '\nprint(f"peak={peak_mb():.0f}", flush=True)\n'
    proc = subprocess.run([sys.executable, "-c", code, str(bound_mb)], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    stats = dict(kv.split("=") for kv in proc.stdout.split())
    assert float(stats["peak"]) <= bound_mb
    return stats

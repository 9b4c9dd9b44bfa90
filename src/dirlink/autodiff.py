"""Minimal dense reverse-mode autodiff over float64 matrices.

Every value is a 2-D array wrapped in a Tensor.  While recording (the
default), an op whose inputs require gradients records its parents and a
backward rule on the output; backward() linearizes the graph into a list
(parents before children) and replays it in reverse exactly once.
Rules capture their inputs, never their own output, so a graph holds no
reference cycles and is freed as soon as its last tensor is dropped.  Inside
``no_grad()`` ops record nothing.  No broadcasting beyond the dedicated
row-gather and bias ops, no higher-order derivatives.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import scipy.sparse as _sp

from .graph import spmm as _spmm

# No op calls this: perfbench/spans.py patches the name, so it stays
# importable until the layers report their own spans (ROADMAP item 5).
from .graph import spmm_t as _spmm_t


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_backward", "_done",
                 "__weakref__")

    def __init__(self, data, requires_grad=False, op="leaf", parents=()):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim == 0:
            data = data.reshape(1, 1)
        if data.ndim != 2:
            raise ValueError(f"tensors are 2-D matrices, got shape {data.shape}")
        self.data = np.ascontiguousarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self.parents = parents
        self._backward = None
        self._done = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


_mode = threading.local()


def _recording():
    return getattr(_mode, "record", True)


@contextlib.contextmanager
def no_grad():
    """Forward-only mode for this thread: ops record no parents and no rules,
    so their outputs are plain values that never join a tape."""
    previous = _recording()
    _mode.record = False
    try:
        yield
    finally:
        _mode.record = previous


def _trace(loss):
    order = []
    visited = set()
    stack = [(loss, iter(loss.parents))]
    visited.add(id(loss))
    while stack:
        node, it = stack[-1]
        advanced = False
        for p in it:
            if id(p) not in visited and p.requires_grad:
                visited.add(id(p))
                stack.append((p, iter(p.parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def backward(loss, params=()):
    """Populate .grad on every leaf tensor reachable from loss.

    Parameters listed in ``params`` but not touched by the forward pass get a
    zero gradient.  The tape frees itself as it replays: once a node's rule
    has run, the rule and the node's gradient are dropped, so only leaf
    gradients survive the call.  Backward through the same loss, or through
    any node a previous backward already replayed, is therefore an error; the
    forward pass must be rebuilt first.  Returns the replayed tensors,
    parents before children.
    """
    if loss.data.shape != (1, 1):
        raise ValueError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise ValueError("loss does not require gradients")
    if loss._done:
        raise RuntimeError("backward already called on this loss; rebuild the forward pass")
    loss._done = True
    tape = _trace(loss)
    for t in (*tape, *params):
        t.grad = None
    loss.grad = np.ones((1, 1))
    for t in reversed(tape):
        if t._backward is not None:
            t._backward(t.grad)
            t._backward = _released
            t.grad = None
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
    return tape


def _released(g):
    raise RuntimeError("backward already ran through this tensor; rebuild the forward pass")


def _accumulate(t, g):
    """Add g into t.grad.  The first contribution is copied (and broadcast to
    t's shape), so no gradient ever aliases another node's array."""
    if t.grad is None:
        t.grad = np.array(np.broadcast_to(g, t.data.shape))
    else:
        t.grad += g


def _result(data, op, parents, rule):
    """The output tensor of an op.  It records its parents and backward rule
    only while recording and when some parent requires gradients."""
    if _recording() and any(p.requires_grad for p in parents):
        out = Tensor(data, True, op, parents)
        out._backward = rule
        return out
    return Tensor(data, op=op)


def matmul(a, b):
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")

    def rule(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _result(a.data @ b.data, "matmul", (a, b), rule)


def add(a, b):
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")

    def rule(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _result(a.data + b.data, "add", (a, b), rule)


def add_bias(x, b):
    """Add a (1, d) bias row to every row of x."""
    if b.data.shape != (1, x.data.shape[1]):
        raise ValueError(f"bias shape {b.data.shape} incompatible with {x.data.shape}")

    def rule(g):
        if x.requires_grad:
            _accumulate(x, g)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0, keepdims=True))

    return _result(x.data + b.data, "add_bias", (x, b), rule)


def hadamard(a, b):
    if a.data.shape != b.data.shape:
        raise ValueError(f"hadamard shape mismatch: {a.data.shape} vs {b.data.shape}")

    def rule(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _result(a.data * b.data, "hadamard", (a, b), rule)


def concat_cols(a, b):
    if a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"concat_cols row mismatch: {a.data.shape} vs {b.data.shape}")
    split = a.data.shape[1]

    def rule(g):
        if a.requires_grad:
            _accumulate(a, g[:, :split])
        if b.requires_grad:
            _accumulate(b, g[:, split:])

    return _result(np.hstack([a.data, b.data]), "concat_cols", (a, b), rule)


def relu(x):
    def rule(g):
        _accumulate(x, g * (x.data > 0.0))

    return _result(np.maximum(x.data, 0.0), "relu", (x,), rule)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _row_index(idx, n, op):
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"{op} takes a 1-D index array")
    if len(idx) and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"{op} index out of range")
    return idx


def _scatter(rows, cols, vals, shape):
    """CSR whose row r lists the positions i with rows[i] == r in ascending
    i, so a product with it sums each row in index order, like np.add.at."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    order = np.argsort(rows, kind="stable")
    return _sp.csr_matrix((vals[order], cols[order], indptr), shape=shape)


def gather_rows(x, idx):
    n = x.data.shape[0]
    idx = _row_index(idx, n, "gather_rows")

    def rule(g):
        p = len(idx)
        _accumulate(x, _scatter(idx, np.arange(p), np.ones(p), (n, p)) @ g)

    return _result(x.data[idx], "gather_rows", (x,), rule)


def pair_dot(s, t, u, v, block):
    """Row-wise inner products of S[u] and T[v]: a (P, 1) column.

    The numbers of row_sum(hadamard(gather_rows(s, u), gather_rows(t, v)))
    without its (P, d) arrays.  The forward pass is a sampled dense-dense
    product over blocks of ``block`` pairs.  The backward pass is two
    sparse-dense products with W, the CSR of the output grads at (u, v):
    first dT = W.T @ S, then dS = W @ T, the order in which the three-op
    graph replays them, so a T that aliases S sums its grad the same way.
    """
    n_s, n_t = s.data.shape[0], t.data.shape[0]
    u = _row_index(u, n_s, "pair_dot")
    v = _row_index(v, n_t, "pair_dot")
    if len(u) != len(v):
        raise ValueError(f"pair_dot index length mismatch: {len(u)} vs {len(v)}")
    if s.data.shape[1] != t.data.shape[1]:
        raise ValueError(f"pair_dot width mismatch: {s.data.shape} vs {t.data.shape}")
    out = np.empty((len(u), 1))
    for b0 in range(0, len(u), block):
        b = slice(b0, b0 + block)
        out[b, 0] = (s.data[u[b]] * t.data[v[b]]).sum(axis=1)

    def rule(g):
        g = g[:, 0]
        if t.requires_grad:
            _accumulate(t, _scatter(v, u, g, (n_t, n_s)) @ s.data)
        if s.requires_grad:
            _accumulate(s, _scatter(u, v, g, (n_s, n_t)) @ t.data)

    return _result(out, "pair_dot", (s, t), rule)


def row_sum(x):
    """Sum each row to a single column: (n, d) -> (n, 1)."""

    def rule(g):
        _accumulate(x, g)

    return _result(x.data.sum(axis=1, keepdims=True), "row_sum", (x,), rule)


def sum_all(x):
    def rule(g):
        _accumulate(x, g[0, 0])

    return _result(x.data.sum().reshape(1, 1), "sum_all", (x,), rule)


def scale(x, s):
    """Multiply a matrix by a scalar held in a (1, 1) tensor."""
    if s.data.shape != (1, 1):
        raise ValueError("scale factor must be a 1x1 tensor")

    def rule(g):
        if x.requires_grad:
            _accumulate(x, g * s.data[0, 0])
        if s.requires_grad:
            _accumulate(s, (g * x.data).sum())

    return _result(x.data * s.data[0, 0], "scale", (x, s), rule)


def spmm_const(m, x, m_t):
    """Multiply a constant sparse matrix into a tensor: out = m @ x.

    The backward pass multiplies the output grad by ``m_t``, the transpose of
    m.  A product by the transpose swaps the two, and the scipy ``.T`` view
    of a CSR matrix serves as either, so no transposed copy is ever built.
    """
    if x.data.shape[0] != m.shape[1] or m_t.shape != m.shape[::-1]:
        raise ValueError(f"spmm_const shape mismatch: {m.shape} @ {x.data.shape}, "
                         f"transpose {m_t.shape}")

    def rule(g):
        _accumulate(x, _spmm(m_t, g))

    return _result(_spmm(m, x.data), "spmm_const", (x,), rule)


def bce_with_logits(logits, labels):
    """Mean binary cross-entropy on pre-sigmoid logits, log-sum-exp stable form.

    labels must be 0/1; logits shape (n, 1).
    """
    if logits.data.shape[1] != 1:
        raise ValueError("bce_with_logits expects (n, 1) logits")
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    if y.shape[0] != logits.data.shape[0]:
        raise ValueError("logits and labels length mismatch")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be binary")
    z = logits.data
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    val = per.mean()
    if not np.isfinite(val):
        raise FloatingPointError("non-finite loss")
    inv_n = 1.0 / z.shape[0]

    def rule(g):
        _accumulate(logits, g[0, 0] * (_sigmoid(z) - y) * inv_n)

    return _result(np.array([[val]]), "bce_with_logits", (logits,), rule)


def ce_pairwise(logits, classes):
    """Mean two-class softmax cross-entropy over (n, 2) logit pairs."""
    if logits.data.shape[1] != 2:
        raise ValueError("ce_pairwise expects (n, 2) logits")
    cls = np.asarray(classes, dtype=np.int64).reshape(-1)
    if cls.shape[0] != logits.data.shape[0]:
        raise ValueError("logits and classes length mismatch")
    if len(cls) and (cls.min() < 0 or cls.max() > 1):
        raise ValueError("class labels must be 0 or 1")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    rows = np.arange(len(cls))
    per = lse[:, 0] - z[rows, cls]
    val = per.mean()
    if not np.isfinite(val):
        raise FloatingPointError("non-finite loss")
    inv_n = 1.0 / z.shape[0]

    def rule(g):
        soft = np.exp(z - lse)
        soft[rows, cls] -= 1.0
        _accumulate(logits, g[0, 0] * soft * inv_n)

    return _result(np.array([[val]]), "ce_pairwise", (logits,), rule)


class AdamState:
    """Adam with bias correction; weight decay enters as an L2 term on the gradient."""

    def __init__(self, params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                raise ValueError("parameter has no gradient; call backward first")
            if p.grad.shape != p.data.shape:
                raise ValueError("gradient shape mismatch")
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

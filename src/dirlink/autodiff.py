"""Minimal dense reverse-mode autodiff over float64 matrices.

Every value is a 2-D array wrapped in a Tensor.  While recording (the
default), an op whose inputs require gradients records its parents and a
backward rule on the output; backward() linearizes the graph into a list
(parents before children) and replays it in reverse exactly once.  An op
states one grad map per input, from the output grad to that input's grad,
and ``_op`` makes the rule that applies them to the inputs that require
gradients; only the fused ``sdgae_propagate`` writes a rule of its own.
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
_spmm_t = _spmm


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_backward", "__weakref__")

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
    if loss._backward is _released:
        raise RuntimeError("backward already called on this loss; rebuild the forward pass")
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


def _accumulate(t, g, owned=False):
    """Add g into t.grad.  A first contribution that is ``owned``, a new
    array of t's shape that nothing else holds, becomes t.grad as it is;
    any other is copied (and broadcast to t's shape).  So no gradient ever
    aliases another node's array."""
    if t.grad is None:
        t.grad = g if owned else np.array(np.broadcast_to(g, t.data.shape))
    else:
        t.grad += g


def _copied(grad):
    """Mark a grad map whose result the engine copies before keeping it: one
    that returns g itself, a view of g or a scalar.  Every other map returns
    a new array, which the engine keeps as the first contribution."""
    grad.copied = True
    return grad


def _result(data, op, parents, rule):
    """The output tensor of an op.  It records its parents and backward rule
    only while recording and when some parent requires gradients."""
    if _recording() and any(p.requires_grad for p in parents):
        out = Tensor(data, True, op, parents)
        out._backward = rule
        return out
    return Tensor(data, op=op)


def _op(data, op, parents, *grads):
    """The output tensor of an op whose backward pass is one grad map per
    input: each of ``grads`` is (input, g -> the input's grad), applied in
    the order given, to the inputs that require gradients only.  A map
    returns a new array unless it is marked ``_copied``."""

    def rule(g):
        for x, grad in grads:
            if x.requires_grad:
                _accumulate(x, grad(g), not getattr(grad, "copied", False))

    return _result(data, op, parents, rule)


def matmul(a, b):
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    return _op(a.data @ b.data, "matmul", (a, b),
               (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def add(a, b):
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    return _op(a.data + b.data, "add", (a, b),
               (a, _copied(lambda g: g)), (b, _copied(lambda g: g)))


def add_bias(x, b):
    """Add a (1, d) bias row to every row of x."""
    if b.data.shape != (1, x.data.shape[1]):
        raise ValueError(f"bias shape {b.data.shape} incompatible with {x.data.shape}")
    return _op(x.data + b.data, "add_bias", (x, b),
               (x, _copied(lambda g: g)), (b, lambda g: g.sum(axis=0, keepdims=True)))


def hadamard(a, b):
    if a.data.shape != b.data.shape:
        raise ValueError(f"hadamard shape mismatch: {a.data.shape} vs {b.data.shape}")
    return _op(a.data * b.data, "hadamard", (a, b),
               (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def concat_cols(a, b):
    if a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"concat_cols row mismatch: {a.data.shape} vs {b.data.shape}")
    split = a.data.shape[1]
    return _op(np.hstack([a.data, b.data]), "concat_cols", (a, b),
               (a, _copied(lambda g: g[:, :split])), (b, _copied(lambda g: g[:, split:])))


def relu(x):
    return _op(np.maximum(x.data, 0.0), "relu", (x,), (x, lambda g: g * (x.data > 0.0)))


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
    p = len(idx)
    return _op(x.data[idx], "gather_rows", (x,),
               (x, lambda g: _scatter(idx, np.arange(p), np.ones(p), (n, p)) @ g))


def pair_dot(s, t, u, v, block):
    """Row-wise inner products of S[u] and T[v]: a (P, 1) column.

    The numbers of gathering S[u] and T[v], multiplying them elementwise
    and summing each row, without the (P, d) arrays.  The forward pass is a
    sampled dense-dense product over blocks of ``block`` pairs.  The
    backward pass is two sparse-dense products with W, the CSR of the
    output grads at (u, v): first dT = W.T @ S, then dS = W @ T, the order
    in which the three-op graph replays them, so a T that aliases S sums
    its grad the same way.
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
    return _op(out, "pair_dot", (s, t),
               (t, lambda g: _scatter(v, u, g[:, 0], (n_t, n_s)) @ s.data),
               (s, lambda g: _scatter(u, v, g[:, 0], (n_s, n_t)) @ t.data))


def sum_all(x):
    return _op(x.data.sum().reshape(1, 1), "sum_all", (x,), (x, _copied(lambda g: g[0, 0])))


def scale(x, s):
    """Multiply a matrix by a scalar held in a (1, 1) tensor."""
    if s.data.shape != (1, 1):
        raise ValueError("scale factor must be a 1x1 tensor")
    return _op(x.data * s.data[0, 0], "scale", (x, s),
               (x, lambda g: g * s.data[0, 0]), (s, _copied(lambda g: (g * x.data).sum())))


def spmm_const(m, x):
    """Multiply a constant sparse matrix into a tensor: out = m @ x.

    The backward pass multiplies the output grad by ``m.T``.  The scipy
    ``.T`` of a CSR matrix is a CSC view of the same arrays, so no
    transposed copy is ever built.
    """
    if x.data.shape[0] != m.shape[1]:
        raise ValueError(f"spmm_const shape mismatch: {m.shape} @ {x.data.shape}")
    return _op(_spmm(m, x.data), "spmm_const", (x,), (x, lambda g: _spmm(m.T, g)))


class Workspace:
    """Scratch arrays that a fused op reuses from one call to the next.

    Whoever runs the op owns one: a run's SDGAE parameters hold the one its
    propagation uses, so it lives and dies with the model.  ``lease`` lends
    the arrays out until the lease is dropped.  A recorded op's backward rule
    holds its lease, so the arrays come back once the rule has run or its
    graph is dropped unreplayed, and a second pass recorded before then gets
    arrays of its own.
    """

    __slots__ = ("_free", "__weakref__")

    def __init__(self):
        self._free = None

    def lease(self, count, shape):
        arrays, self._free = self._free, None
        if arrays is None or len(arrays) != count or arrays[0].shape != shape:
            arrays = [np.empty(shape) for _ in range(count)]
        return _Lease(self, arrays)


class _Lease:
    __slots__ = ("workspace", "arrays")

    def __init__(self, workspace, arrays):
        self.workspace = workspace
        self.arrays = arrays

    def __del__(self):
        self.workspace._free = self.arrays


def _propagation_arrays(lease, k):
    """The 2k products, the two running sums and three temporaries."""
    a = lease.arrays
    return a[:k], a[k:2 * k], *a[2 * k:]


def sdgae_propagate(m, s0, t0, gamma_s, gamma_t, workspace=None):
    """k steps of S <- gamma_s[j] * (m @ T) + S and T <- gamma_t[j] * (m.T @ S) + T,
    both reading the pre-step values, as one tape node.  Returns (S, T).

    S is the node.  T hangs on it as a companion whose only parent is S and
    whose rule hands its grad over to S's rule, since a node has one output.
    The forward pass keeps the 2k sparse products, which the gamma grads
    read.  The backward pass runs the steps in reverse: g_S += m @ (gamma_t
    g_T) and g_T += m.T @ (gamma_s g_S), from the pre-step grads, and each
    gamma gets (g * product).sum().  Those are the operations the composite
    of spmm_const, scale and add replays, and every grad there has two
    addends, so the numbers agree bit for bit when S0 and T0 are distinct
    tensors.  The products, the running sums and the backward temporaries
    are arrays leased from ``workspace`` (a fresh one if None); S, T and the
    grads written to the inputs are new arrays.  Products go through
    ``_spmm``, 2k per pass each way.
    """
    k = len(gamma_s)
    n, d = s0.data.shape
    if not 1 <= k == len(gamma_t):
        raise ValueError(f"sdgae_propagate needs k >= 1 coefficients per side, "
                         f"got {k} and {len(gamma_t)}")
    if m.shape != (n, n) or t0.data.shape != (n, d):
        raise ValueError(f"sdgae_propagate shape mismatch: {m.shape} operator, "
                         f"{s0.data.shape} S0, {t0.data.shape} T0")
    if any(g.data.shape != (1, 1) for g in (*gamma_s, *gamma_t)):
        raise ValueError("sdgae_propagate coefficients must be 1x1 tensors")
    m_t = m.T
    lease = (Workspace() if workspace is None else workspace).lease(2 * k + 5, (n, d))
    prod_s, prod_t, buf_s, buf_t, tmp, _, _ = _propagation_arrays(lease, k)
    s, t = s0.data, t0.data
    for j in range(k):
        _spmm(m, t, out=prod_s[j])
        _spmm(m_t, s, out=prod_t[j])
        last = j == k - 1
        s_next = np.empty((n, d)) if last else buf_s
        t_next = np.empty((n, d)) if last else buf_t
        np.add(np.multiply(prod_s[j], gamma_s[j].data[0, 0], out=tmp), s, out=s_next)
        np.add(np.multiply(prod_t[j], gamma_t[j].data[0, 0], out=tmp), t, out=t_next)
        s, t = s_next, t_next
    companion = []

    def plus(g, h, buf):
        # the grad of a pre-step value: one addend, or two, as the composite sums them
        if h is None:
            return g
        if g is None:
            buf[...] = h
            return buf
        return np.add(g, h, out=buf)

    def rule(g_s):
        prod_s, prod_t, buf_s, buf_t, tmp, into_s, into_t = _propagation_arrays(lease, k)
        g_t = companion.pop() if companion else None
        for j in reversed(range(k)):
            if g_s is not None and gamma_s[j].requires_grad:
                _accumulate(gamma_s[j], np.multiply(g_s, prod_s[j], out=tmp).sum())
            if g_t is not None and gamma_t[j].requires_grad:
                _accumulate(gamma_t[j], np.multiply(g_t, prod_t[j], out=tmp).sum())
            h_s = h_t = None
            if g_t is not None:
                h_s = _spmm(m, np.multiply(g_t, gamma_t[j].data[0, 0], out=tmp), out=into_s)
            if g_s is not None:
                h_t = _spmm(m_t, np.multiply(g_s, gamma_s[j].data[0, 0], out=tmp), out=into_t)
            g_s, g_t = plus(g_s, h_s, buf_s), plus(g_t, h_t, buf_t)
        if g_s is not None and s0.requires_grad:
            _accumulate(s0, g_s)
        if g_t is not None and t0.requires_grad:
            _accumulate(t0, g_t)

    out_s = _result(s, "sdgae_propagate", (s0, t0, *gamma_s, *gamma_t), rule)
    if not out_s.requires_grad:
        return out_s, Tensor(t, op="sdgae_propagate")
    out_t = Tensor(t, True, "sdgae_propagate", (out_s,))
    out_t._backward = companion.append
    return out_s, out_t


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
    return _op(np.array([[val]]), "bce_with_logits", (logits,),
               (logits, lambda g: g[0, 0] * (_sigmoid(z) - y) * inv_n))


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

    def grad(g):
        soft = np.exp(z - lse)
        soft[rows, cls] -= 1.0
        return g[0, 0] * soft * inv_n

    return _op(np.array([[val]]), "ce_pairwise", (logits,), (logits, grad))


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adam with bias correction; weight decay enters as an L2 term on the gradient."""

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        c1 = 1.0 - ADAM_BETA1 ** self.step_count
        c2 = 1.0 - ADAM_BETA2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                raise ValueError("parameter has no gradient; call backward first")
            if p.grad.shape != p.data.shape:
                raise ValueError("gradient shape mismatch")
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

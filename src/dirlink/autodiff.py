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
``no_grad()`` ops record nothing.  No broadcasting beyond the row gather
and matmul's bias row, no higher-order derivatives.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import scipy.sparse as sp

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


def _accumulate(t, g):
    """Add g into t.grad.  g is a new array of t's shape that nothing else
    holds, so a first contribution becomes t.grad as it is and no gradient
    ever aliases another node's array."""
    if t.grad is None:
        t.grad = g
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


def _op(data, op, parents, *grads):
    """The output tensor of an op whose backward pass is one grad map per
    input: each of ``grads`` is (input, g -> the input's grad), applied in
    the order given, to the inputs that require gradients only.  A map
    returns a new array of its input's shape."""

    def rule(g):
        for x, grad in grads:
            if x.requires_grad:
                _accumulate(x, grad(g))

    return _result(data, op, parents, rule)


def matmul(a, w, bias=None):
    """a @ w, plus the (1, d) row ``bias`` on every row when given: a dense
    layer as one node, whose bias grad is the column sums of g."""
    if a.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {w.data.shape}")
    out, grads = a.data @ w.data, [(a, lambda g: g @ w.data.T), (w, lambda g: a.data.T @ g)]
    if bias is not None:
        if bias.data.shape != (1, out.shape[1]):
            raise ValueError(f"bias shape {bias.data.shape} incompatible with {out.shape}")
        out += bias.data
        grads.append((bias, lambda g: g.sum(axis=0, keepdims=True)))
    return _op(out, "matmul", tuple(x for x, _ in grads), *grads)


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
               (a, lambda g: g[:, :split].copy()), (b, lambda g: g[:, split:].copy()))


def relu(x):
    return _op(np.maximum(x.data, 0.0), "relu", (x,), (x, lambda g: g * (x.data > 0.0)))


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class PairIndex:
    """P pairs of rows (u[i], v[i]) of an (n_u, d) matrix S and an (n_v, d)
    matrix T, checked once, and the backward plans of the ops that read them.

    The backward pass of ``gather_rows`` and of ``pair_dot`` sums P rows
    onto the rows of one side of the pairs, in index order, like np.add.at:
    it is a product with the CSR whose row r lists the positions i with that
    side's index r in ascending i.  That CSR is the plan.  The first backward
    pass that needs a plan builds it and the index keeps it, so a later pass
    only refills a ``pair_dot`` plan's values.  Forward passes build no plan.
    """

    __slots__ = ("sides", "n", "_plans")

    def __init__(self, pairs, n_u, n_v):
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"a PairIndex takes a (P, 2) pair array, got shape {pairs.shape}")
        self.n = (int(n_u), int(n_v))
        self.sides = (pairs[:, 0], pairs[:, 1])
        if len(pairs) and any(r.min() < 0 or r.max() >= n for r, n in zip(self.sides, self.n)):
            raise IndexError("PairIndex row index out of range")
        self._plans = {}

    def rows(self, x, side, op):
        """Side 0 (u) or 1 (v) of the pairs, the rows they read of x."""
        if x.data.shape[0] != self.n[side]:
            raise ValueError(f"{op}: the pairs index {self.n[side]} rows, "
                             f"the matrix has {x.data.shape[0]}")
        return self.sides[side]

    def scatter(self, side, x, values=None):
        """Sum rows of x onto the rows of one side of the pairs, in index
        order: x[i] onto row sides[side][i], the grad of gather_rows; or,
        given the P values, values[i] * x[j] with j the pair's other side,
        the grad of pair_dot.  A new (n of the side, d) array."""
        pair = values is not None
        plan = self._plans.get((side, pair))
        if plan is None:
            plan = self._plans[side, pair] = self._plan(side, pair)
        order, m = plan
        if pair:
            # order is a permutation, so nothing clips; "raise" would buffer out
            np.take(values, order, out=m.data, mode="clip")
        return m @ x

    def _plan(self, side, pair):
        """(order, CSR of ones) of one side.  The CSR's row pointer counts
        the side's rows, and its column indices are, in the side's stable
        order, the other side (a pair plan, which keeps that order to put
        its values in) or the positions."""
        rows = self.sides[side]
        n, p = self.n[side], len(rows)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        order = np.argsort(rows, kind="stable")
        if not pair:
            return None, sp.csr_matrix((np.ones(p), order, indptr), shape=(n, p))
        other = self.sides[1 - side][order]
        return order, sp.csr_matrix((np.ones(p), other, indptr), shape=(n, self.n[1 - side]))


def gather_rows(x, index, side):
    """Rows of x at side 0 (u) or 1 (v) of the PairIndex ``index``."""
    idx = index.rows(x, side, "gather_rows")
    return _op(x.data[idx], "gather_rows", (x,), (x, lambda g: index.scatter(side, g)))


def pair_dot(s, t, index, block):
    """Row-wise inner products of S[u] and T[v] over the PairIndex
    ``index``: a (P, 1) column.

    The numbers of gathering S[u] and T[v], multiplying them elementwise
    and summing each row, without the (P, d) arrays.  The forward pass is a
    sampled dense-dense product over blocks of ``block`` pairs.  The
    backward pass is two sparse-dense products with W, the CSR of the
    output grads at (u, v): first dT = W.T @ S, then dS = W @ T, the order
    in which the three-op graph replays them, so a T that aliases S sums
    its grad the same way.
    """
    u, v = index.rows(s, 0, "pair_dot"), index.rows(t, 1, "pair_dot")
    if s.data.shape[1] != t.data.shape[1]:
        raise ValueError(f"pair_dot width mismatch: {s.data.shape} vs {t.data.shape}")
    out = np.empty((len(u), 1))
    for b0 in range(0, len(u), block):
        b = slice(b0, b0 + block)
        out[b, 0] = (s.data[u[b]] * t.data[v[b]]).sum(axis=1)
    return _op(out, "pair_dot", (s, t),
               (t, lambda g: index.scatter(1, s.data, g[:, 0])),
               (s, lambda g: index.scatter(0, t.data, g[:, 0])))


def spmm_const(m, x, m_t):
    """Multiply a constant sparse matrix into a tensor: out = m @ x.

    The backward pass multiplies the output grad by ``m_t``, m's transpose,
    which the caller builds once for all its passes: the scipy ``.T`` of a
    CSR matrix is a CSC view of the same arrays (and that of a CSC a CSR
    view), so no transposed copy is ever built.
    """
    if x.data.shape[0] != m.shape[1]:
        raise ValueError(f"spmm_const shape mismatch: {m.shape} @ {x.data.shape}")
    return _op(_spmm(m, x.data), "spmm_const", (x,), (x, lambda g: _spmm(m_t, g)))


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


def sdgae_propagate(m, m_t, s0, t0, gamma_s, gamma_t, workspace=None):
    """k steps of S <- gamma_s[j] * (m @ T) + S and T <- gamma_t[j] * (m_t @ S) + T,
    both reading the pre-step values, as one tape node.  Returns (S, T).

    S is the node.  T hangs on it as a companion whose only parent is S and
    whose rule hands its grad over to S's rule, since a node has one output.
    The forward pass keeps the 2k sparse products, which the gamma grads
    read.  The backward pass runs the steps in reverse: g_S += m @ (gamma_t
    g_T) and g_T += m_t @ (gamma_s g_S), from the pre-step grads, and each
    gamma gets (g * product).sum().  Those are the operations the composite
    of spmm_const, scale and add replays, and every grad there has two
    addends, so the numbers agree bit for bit when S0 and T0 are distinct
    tensors.  The products, the running sums and the backward temporaries
    are arrays leased from ``workspace`` (a fresh one if None); S, T and the
    grads written to the inputs are new arrays.  Products go through
    ``_spmm``, 2k per pass each way.  ``m_t`` is m's transpose, which the
    caller builds once for all its passes.
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
                _accumulate(gamma_s[j], np.multiply(g_s, prod_s[j], out=tmp).sum(keepdims=True))
            if g_t is not None and gamma_t[j].requires_grad:
                _accumulate(gamma_t[j], np.multiply(g_t, prod_t[j], out=tmp).sum(keepdims=True))
            h_s = h_t = None
            if g_t is not None:
                h_s = _spmm(m, np.multiply(g_t, gamma_t[j].data[0, 0], out=tmp), out=into_s)
            if g_s is not None:
                h_t = _spmm(m_t, np.multiply(g_s, gamma_s[j].data[0, 0], out=tmp), out=into_t)
            g_s, g_t = plus(g_s, h_s, buf_s), plus(g_t, h_t, buf_t)
        if g_s is not None and s0.requires_grad:
            _accumulate(s0, g_s.copy())
        if g_t is not None and t0.requires_grad:
            _accumulate(t0, g_t.copy())

    out_s = _result(s, "sdgae_propagate", (s0, t0, *gamma_s, *gamma_t), rule)
    if not out_s.requires_grad:
        return out_s, Tensor(t, op="sdgae_propagate")
    out_t = Tensor(t, True, "sdgae_propagate", (out_s,))
    out_t._backward = companion.append
    return out_s, out_t


def hinge(pos, rev, margin):
    """Sum of relu(margin - pos) over (n, 1) logits, plus that of relu(margin
    + rev) unless rev is None: each part is summed, then the sums are added."""
    parts = [(pos, -1.0)] + ([] if rev is None else [(rev, 1.0)])
    if any(x.data.shape[1] != 1 for x, _ in parts):
        raise ValueError("hinge expects (n, 1) logits")
    pre = [margin + sign * x.data for x, sign in parts]
    sums = [np.maximum(p, 0.0).sum() for p in pre]
    return _op(np.array([[sum(sums[1:], sums[0])]]), "hinge", tuple(x for x, _ in parts),
               *((x, lambda g, active=p > 0.0, sign=sign: g[0, 0] * active * sign)
                 for (x, sign), p in zip(parts, pre)))


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

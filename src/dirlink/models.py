"""Encoders and decoders for directed link prediction.

Every encoder emits a pair of embedding matrices (S, T): row u of S encodes
node u in its role as an edge source, row u of T as a target.  An ordered
pair (u, v) is scored by a decoder over (s_u, t_v), so scores need not be
symmetric under direction reversal.  The plain MLP encoder aliases T to S,
which is exactly what makes it direction-blind.

Each encoder is built by ``init(rng, g, in_dim, cfg)`` on the training graph
g, reading its settings from the ``training.TrainConfig`` cfg; it holds what
it needs of g and is called on the (n, in_dim) feature tensor alone.
``ENCODERS`` maps the config's encoder names to the classes, and
``encoder_forward`` is the call the package makes.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .graph import DataError, normalize_adj

DECODER_KINDS = ("inner", "mlp_hadamard", "mlp_concat", "lr_concat")


@dataclass
class EncoderOutput:
    S: ad.Tensor
    T: ad.Tensor


def _uniform_weight(rng, fan_in, fan_out):
    bound = 1.0 / np.sqrt(fan_in)
    return ad.Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)


def _widths(in_dim, hidden, out_dim, depth):
    """Layer widths of a depth-layer stack: hidden between in_dim and out_dim."""
    return [in_dim] + [hidden] * (depth - 1) + [out_dim]


class Mlp:
    """Dense layers, one ``matmul`` node each, relu between them, the last linear."""

    def __init__(self, layers):
        self.layers = layers

    @classmethod
    def init(cls, rng, in_dim, hidden, out_dim, depth):
        dims = _widths(in_dim, hidden, out_dim, depth)
        return cls([(_uniform_weight(rng, fan_in, fan_out),
                     ad.Tensor(np.zeros((1, fan_out)), requires_grad=True))
                    for fan_in, fan_out in zip(dims[:-1], dims[1:])])

    def __call__(self, x):
        for i, (w, b) in enumerate(self.layers):
            x = ad.matmul(x if i == 0 else ad.relu(x), w, b)
        return x

    def named_parameters(self, prefix):
        out = {}
        for i, (w, b) in enumerate(self.layers):
            out[f"{prefix}.{i}.w"] = w
            out[f"{prefix}.{i}.b"] = b
        return out


@dataclass
class SdgaeParams:
    """Source/target polynomial-filter encoder.

    Two input MLPs produce the initial embeddings; k propagation steps then
    mix them through ``op``, the symmetrically normalized self-looped
    adjacency, with one learnable scalar per step and side, each initialized
    to exactly one.  Each step computes S <- gamma_s[j] * (op @ T) + S and
    T <- gamma_t[j] * (op.T @ S) + T, both reading the pre-step values: two
    sparse products of the edge set.  The k steps are one tape node,
    ``autodiff.sdgae_propagate``, working in the arrays of ``workspace``.
    """

    mlp_s: Mlp
    mlp_t: Mlp
    gamma_s: list
    gamma_t: list
    op: object = field(repr=False, compare=False)
    op_t: object = field(repr=False, compare=False)  # op.T, one view for every pass
    # the propagation's scratch arrays, reused across the run's passes
    workspace: ad.Workspace = field(default_factory=ad.Workspace, repr=False, compare=False)

    @classmethod
    def init(cls, rng, g, in_dim, cfg):
        mlp_s = Mlp.init(rng, in_dim, cfg.hidden, cfg.emb, cfg.mlp_layers)
        mlp_t = Mlp.init(rng, in_dim, cfg.hidden, cfg.emb, cfg.mlp_layers)
        ones = lambda: ad.Tensor(np.ones((1, 1)), requires_grad=True)
        # normalize_adj at exponents 1/2 is graph.normalize_sym; both encoders build
        # their operator through this one name, which perfbench/spans.py traces
        op = normalize_adj(g, 0.5, 0.5)
        return cls(mlp_s, mlp_t, [ones() for _ in range(cfg.k)], [ones() for _ in range(cfg.k)],
                   op, op.T)

    @property
    def n(self):
        return self.op.shape[0]

    def __call__(self, x):
        s, t = ad.sdgae_propagate(self.op, self.op_t, self.mlp_s(x), self.mlp_t(x),
                                  self.gamma_s, self.gamma_t, self.workspace)
        return EncoderOutput(s, t)

    def named_parameters(self):
        out = {}
        out.update(self.mlp_s.named_parameters("mlp_s"))
        out.update(self.mlp_t.named_parameters("mlp_t"))
        for i, g in enumerate(self.gamma_s):
            out[f"gamma_s.{i}"] = g
        for i, g in enumerate(self.gamma_t):
            out[f"gamma_t.{i}"] = g
        return out


@dataclass
class DigaeParams:
    """Directed graph-convolution encoder.

    ``op`` is the self-looped adjacency normalized by out-degrees to the
    power -beta on rows and in-degrees to the power -alpha on columns.
    Starting from S = T = X, each layer computes S <- act(op @ (T @ W_t)) and
    T <- act(op.T @ (S @ W_s)), where act is relu except on the last layer.
    """

    w_s: list
    w_t: list
    op: object = field(repr=False, compare=False)
    op_t: object = field(repr=False, compare=False)  # op.T, one view for every pass

    @classmethod
    def init(cls, rng, g, in_dim, cfg):
        dims = _widths(in_dim, cfg.hidden, cfg.emb, cfg.digae_layers)
        w_s = [_uniform_weight(rng, a, b) for a, b in zip(dims[:-1], dims[1:])]
        w_t = [_uniform_weight(rng, a, b) for a, b in zip(dims[:-1], dims[1:])]
        op = normalize_adj(g, cfg.alpha, cfg.beta)
        return cls(w_s, w_t, op, op.T)

    @property
    def n(self):
        return self.op.shape[0]

    def __call__(self, x):
        op, op_t = self.op, self.op_t
        s = t = x
        last = len(self.w_s) - 1
        for layer, (w_s, w_t) in enumerate(zip(self.w_s, self.w_t)):
            s_next = ad.spmm_const(op, ad.matmul(t, w_t), op_t)
            t_next = ad.spmm_const(op_t, ad.matmul(s, w_s), op)
            if layer < last:
                s_next = ad.relu(s_next)
                t_next = ad.relu(t_next)
            s, t = s_next, t_next
        return EncoderOutput(s, t)

    def named_parameters(self):
        out = {}
        for i, w in enumerate(self.w_s):
            out[f"w_s.{i}"] = w
        for i, w in enumerate(self.w_t):
            out[f"w_t.{i}"] = w
        return out


@dataclass
class MlpParams:
    """Graph-free baseline: one embedding per node, so T aliases S.  Of the
    graph it keeps the node count only."""

    mlp: Mlp
    n: int

    @classmethod
    def init(cls, rng, g, in_dim, cfg):
        return cls(Mlp.init(rng, in_dim, cfg.hidden, cfg.emb, cfg.mlp_layers), g.n)

    def __call__(self, x):
        h = self.mlp(x)
        return EncoderOutput(h, h)

    def named_parameters(self):
        return self.mlp.named_parameters("mlp")


ENCODERS = {"sdgae": SdgaeParams, "digae": DigaeParams, "mlp": MlpParams}


def encoder_forward(enc, x):
    """An encoder's forward pass on the node features x, an array or tensor
    with one row per node of the encoder's graph."""
    x = x if isinstance(x, ad.Tensor) else ad.Tensor(np.asarray(x, dtype=np.float64))
    if x.shape[0] != enc.n:
        raise ValueError(f"feature rows {x.shape[0]} != node count {enc.n}")
    return enc(x)


@dataclass
class DecoderKind:
    """A pair scorer: kind plus the dense layers of its head, applied as an
    ``Mlp``.

    out_dim 1 yields a single pre-sigmoid logit per pair; out_dim 2 yields a
    two-logit head (column 0 = edge present) for the softmax loss.  The inner
    decoder has no layers; under out_dim 2 its score is paired with a fixed
    zero logit, which makes the two losses coincide there.
    """

    kind: str
    layers: list
    out_dim: int

    @classmethod
    def init(cls, rng, kind, emb, hidden, out_dim):
        if kind not in DECODER_KINDS:
            raise ValueError(f"unknown decoder kind {kind!r}")
        if out_dim not in (1, 2):
            raise ValueError("out_dim must be 1 or 2")
        if kind == "inner":
            return cls(kind, [], out_dim)
        width = emb if kind == "mlp_hadamard" else 2 * emb
        depth = 1 if kind == "lr_concat" else 2
        return cls(kind, Mlp.init(rng, width, hidden, out_dim, depth).layers, out_dim)

    def named_parameters(self):
        return Mlp(self.layers).named_parameters("dec")


def decode(dec, enc, pairs, index=None):
    """Logits for ordered pairs: row u of S with row v of T.

    inner: dot product, one fused op that allocates no (pairs, d) array in
    either pass.  mlp_hadamard / mlp_concat: relu MLP over the elementwise
    product / the concatenation.  lr_concat: affine map over the
    concatenation.  Output shape (len(pairs), out_dim), pre-sigmoid.
    ``index`` is an ``autodiff.PairIndex`` of these pairs, which keeps the
    backward plans from one call to the next; a fresh one when None.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if index is None:
        index = ad.PairIndex(pairs, enc.S.shape[0], enc.T.shape[0])
    if dec.kind == "inner":
        z = ad.pair_dot(enc.S, enc.T, index, score_block_pairs(dec, enc))
        if dec.out_dim == 2:
            z = ad.concat_cols(z, ad.Tensor(np.zeros((z.shape[0], 1))))
        return z
    su = ad.gather_rows(enc.S, index, 0)
    tv = ad.gather_rows(enc.T, index, 1)
    h = ad.hadamard(su, tv) if dec.kind == "mlp_hadamard" else ad.concat_cols(su, tv)
    return Mlp(dec.layers)(h)


# Forward-only scoring decodes its pairs in blocks whose widest per-pair
# array, a gather of embedding rows or a hidden layer, fills at most this
# many bytes: 512 pairs of 64 float64 columns; the inner decoder's forward
# pass uses blocks of the same height in training too.  So the working set
# does not grow with the number of pairs, and its arrays stay small enough
# that the allocator reuses them from block to block instead of returning
# them to the system and faulting them back in.
SCORE_BLOCK_BYTES = 256 * 1024


def score_block_pairs(dec, enc):
    """Pairs per scoring block for this decoder and these embeddings."""
    # a head's first weight reads the gathered rows, so its input dim is their width
    width = max([enc.S.shape[1]] + [d for w, _ in dec.layers for d in w.shape])
    return max(1, SCORE_BLOCK_BYTES // (8 * width))


def _inner_scores(s, t, pairs, block):
    """S[u] . T[v] per pair, summed by numpy's einsum (no BLAS), so a pair's
    score has the same bits on either path below, in any call.

    When the pairs fill at least half of the box of their row range u0..u1
    by their column range v0..v1, as whole or partial rows of candidates
    do, the dots run over S[u0:u1] x T[v0:v1], which gathers nothing, and
    the pairs are picked out of the box: at most 2P floats.  Otherwise they
    run on gathered blocks of ``block`` pairs."""
    u, v = ad.PairIndex(pairs, s.shape[0], t.shape[0]).sides
    if not len(pairs):
        return np.empty(0)
    u0, v0 = u.min(), v.min()
    rows, cols = u.max() + 1 - u0, v.max() + 1 - v0
    if 2 * len(pairs) >= rows * cols:
        box = np.einsum("id,jd->ij", s[u0:u0 + rows], t[v0:v0 + cols])
        return box.reshape(-1)[(u - u0) * cols + (v - v0)]
    out = np.empty(len(pairs))
    for b0 in range(0, len(pairs), block):
        b = slice(b0, b0 + block)
        out[b] = np.einsum("ij,ij->i", s[u[b]], t[v[b]])
    return out


def ranking_scores(dec, enc, pairs):
    """Scalar scores for ranking: the logit, or the logit margin of the
    edge-present column for two-logit heads.

    Forward-only: no tape is built.  The inner decoder scores through
    ``_inner_scores``, whose einsum may differ from training's ``pair_dot``
    sum by an ulp; a pair's inner score does not depend on the other pairs
    of the call.  The other decoders decode in blocks of score_block_pairs
    into one output array, and may differ by an ulp from block to block."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    block = score_block_pairs(dec, enc)
    if dec.kind == "inner":
        # a two-logit inner head pairs the dot with a zero logit
        return _inner_scores(enc.S.data, enc.T.data, pairs, block)
    out = np.empty(len(pairs))
    with ad.no_grad():
        for b0 in range(0, len(pairs), block):
            z = decode(dec, enc, pairs[b0:b0 + block]).data
            out[b0:b0 + len(z)] = z[:, 0] if dec.out_dim == 1 else z[:, 0] - z[:, 1]
    return out


CHECKPOINT_VERSION = 1


def save_checkpoint(path, named_arrays, meta):
    """Write named parameter arrays plus a JSON meta blob; format versioned."""
    payload = dict(meta)
    payload["format_version"] = CHECKPOINT_VERSION
    arrays = {name: np.asarray(a, dtype=np.float64) for name, a in named_arrays.items()}
    np.savez(path, __meta__=np.array(json.dumps(payload)), **arrays)


def load_checkpoint(path):
    """The (meta, arrays) that save_checkpoint wrote.  A file that is not such
    an archive, or is one of another format version, is a DataError naming it."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path} is not a checkpoint: {exc}") from None
    if not isinstance(data, np.lib.npyio.NpzFile) or "__meta__" not in data.files:
        raise DataError(f"{path} is not a checkpoint: no __meta__ entry")
    with data:
        try:
            meta = json.loads(str(data["__meta__"]))
        except json.JSONDecodeError:
            raise DataError(f"{path} is not a checkpoint: its __meta__ is not JSON") from None
        version = meta.get("format_version") if isinstance(meta, dict) else None
        if version != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
    meta.pop("format_version")
    return meta, arrays


def load_state(params_obj, arrays):
    """Copy checkpoint arrays into an existing parameter object by name."""
    named = params_obj.named_parameters()
    for name, t in named.items():
        if name not in arrays:
            raise ValueError(f"checkpoint missing parameter {name!r}")
        a = np.asarray(arrays[name], dtype=np.float64)
        if a.shape != t.data.shape:
            raise ValueError(f"shape mismatch for {name!r}: {a.shape} vs {t.data.shape}")
        t.data = a.copy()

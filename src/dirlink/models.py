"""Encoders and decoders for directed link prediction.

Every encoder emits a pair of embedding matrices (S, T): row u of S encodes
node u in its role as an edge source, row u of T as a target.  An ordered
pair (u, v) is scored by a decoder over (s_u, t_v), so scores need not be
symmetric under direction reversal.  The plain MLP encoder aliases T to S,
which is exactly what makes it direction-blind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .graph import normalize_adj

DECODER_KINDS = ("inner", "mlp_hadamard", "mlp_concat", "lr_concat")


@dataclass
class EncoderOutput:
    S: ad.Tensor
    T: ad.Tensor


def _uniform_weight(rng, fan_in, fan_out):
    bound = 1.0 / np.sqrt(fan_in)
    return ad.Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)


def _zero_bias(fan_out):
    return ad.Tensor(np.zeros((1, fan_out)), requires_grad=True)


class Mlp:
    """Dense layers with relu between them and a linear final layer."""

    def __init__(self, layers):
        self.layers = layers

    @classmethod
    def init(cls, rng, dims):
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            layers.append((_uniform_weight(rng, fan_in, fan_out), _zero_bias(fan_out)))
        return cls(layers)

    def __call__(self, x):
        for i, (w, b) in enumerate(self.layers):
            x = ad.add_bias(ad.matmul(x, w), b)
            if i < len(self.layers) - 1:
                x = ad.relu(x)
        return x

    def named_parameters(self, prefix):
        out = {}
        for i, (w, b) in enumerate(self.layers):
            out[f"{prefix}.{i}.w"] = w
            out[f"{prefix}.{i}.b"] = b
        return out


def _as_tensor(x):
    return x if isinstance(x, ad.Tensor) else ad.Tensor(np.asarray(x, dtype=np.float64))


@dataclass
class SdgaeParams:
    """Source/target polynomial-filter encoder parameters.

    Two input MLPs produce the initial embeddings; k propagation steps then
    mix them through the normalized adjacency with one learnable scalar per
    step and side, each initialized to exactly one.
    """

    mlp_s: Mlp
    mlp_t: Mlp
    gamma_s: list
    gamma_t: list
    k: int
    # the propagation's scratch arrays, reused across the run's passes
    workspace: ad.Workspace = field(default_factory=ad.Workspace, repr=False, compare=False)

    @classmethod
    def init(cls, rng, in_dim, hidden=64, emb=64, mlp_layers=2, k=5):
        if not 1 <= k <= 8:
            raise ValueError(f"k must be in 1..8, got {k}")
        dims = [in_dim, emb] if mlp_layers == 1 else [in_dim] + [hidden] * (mlp_layers - 1) + [emb]
        mlp_s = Mlp.init(rng, dims)
        mlp_t = Mlp.init(rng, dims)
        ones = lambda: ad.Tensor(np.ones((1, 1)), requires_grad=True)
        return cls(mlp_s, mlp_t, [ones() for _ in range(k)], [ones() for _ in range(k)], k)

    def named_parameters(self):
        out = {}
        out.update(self.mlp_s.named_parameters("mlp_s"))
        out.update(self.mlp_t.named_parameters("mlp_t"))
        for i, g in enumerate(self.gamma_s):
            out[f"gamma_s.{i}"] = g
        for i, g in enumerate(self.gamma_t):
            out[f"gamma_t.{i}"] = g
        return out


def sdgae_encode(p, a_norm, x):
    """Iterative propagation: each step applies the normalized adjacency to
    the opposite side and adds it back, scaled by that step's coefficient.

    S <- gamma_s[k] * (A_norm @ T) + S and T <- gamma_t[k] * (A_norm.T @ S) + T,
    both updates reading the pre-step values.  Cost is two sparse products of
    the edge set per step.  A_norm is a scipy CSR matrix; its transpose is
    the CSC view ``.T``.  The k steps are one tape node,
    ``autodiff.sdgae_propagate``, working in the arrays of ``p.workspace``.
    """
    n = a_norm.shape[0]
    if a_norm.shape[1] != n:
        raise ValueError("normalized adjacency must be square")
    xt = _as_tensor(x)
    if xt.shape[0] != n:
        raise ValueError(f"feature rows {xt.shape[0]} != node count {n}")
    s, t = ad.sdgae_propagate(a_norm, p.mlp_s(xt), p.mlp_t(xt), p.gamma_s, p.gamma_t,
                              p.workspace)
    return EncoderOutput(s, t)


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


@dataclass
class DigaeParams:
    """Directed graph-convolution encoder parameters.

    Each layer multiplies the opposite side through the degree-normalized
    self-looped adjacency (out-degrees to the power -beta on rows, in-degrees
    to the power -alpha on columns).  Hidden layers use relu; the final layer
    is linear.
    """

    w_s: list
    w_t: list
    alpha: float
    beta: float

    @classmethod
    def init(cls, rng, in_dim, hidden=64, emb=64, layers=1, alpha=0.4, beta=0.4):
        if not 0.0 <= alpha <= 1.0 or not 0.0 <= beta <= 1.0:
            raise ValueError("alpha and beta must lie in [0, 1]")
        if layers not in (1, 2):
            raise ValueError("layers must be 1 or 2")
        dims = [in_dim, emb] if layers == 1 else [in_dim, hidden, emb]
        w_s = [_uniform_weight(rng, a, b) for a, b in zip(dims[:-1], dims[1:])]
        w_t = [_uniform_weight(rng, a, b) for a, b in zip(dims[:-1], dims[1:])]
        return cls(w_s, w_t, float(alpha), float(beta))

    def named_parameters(self):
        out = {}
        for i, w in enumerate(self.w_s):
            out[f"w_s.{i}"] = w
        for i, w in enumerate(self.w_t):
            out[f"w_t.{i}"] = w
        return out


def digae_operator(p, g):
    """The propagation operator of a DiGAE encoder on graph g: the self-looped
    adjacency normalized by the encoder's exponents.  It depends on the graph
    and the exponents only, so a run builds it once."""
    return normalize_adj(g, p.alpha, p.beta)


def digae_encode(p, b, x):
    """Layered directed convolution starting from S = T = X:

    S <- act(B @ (T @ W_t)) and T <- act(B.T @ (S @ W_s)), where B is the
    operator from digae_operator and act is relu except on the last layer.
    """
    xt = _as_tensor(x)
    if xt.shape[0] != b.shape[0]:
        raise ValueError(f"feature rows {xt.shape[0]} != node count {b.shape[0]}")
    b_t = b.T
    s = t = xt
    last = len(p.w_s) - 1
    for layer, (w_s, w_t) in enumerate(zip(p.w_s, p.w_t)):
        s_next = ad.spmm_const(b, ad.matmul(t, w_t), b_t)
        t_next = ad.spmm_const(b_t, ad.matmul(s, w_s), b)
        if layer < last:
            s_next = ad.relu(s_next)
            t_next = ad.relu(t_next)
        s, t = s_next, t_next
    return EncoderOutput(s, t)


@dataclass
class MlpParams:
    """Graph-free baseline: one embedding per node, so T aliases S."""

    mlp: Mlp

    @classmethod
    def init(cls, rng, in_dim, hidden=64, emb=64, layers=2):
        dims = [in_dim, emb] if layers == 1 else [in_dim] + [hidden] * (layers - 1) + [emb]
        return cls(Mlp.init(rng, dims))

    def named_parameters(self):
        return self.mlp.named_parameters("mlp")


def mlp_encode(p, x):
    h = p.mlp(_as_tensor(x))
    return EncoderOutput(h, h)


@dataclass
class DecoderKind:
    """A pair scorer: kind plus its weights where applicable.

    out_dim 1 yields a single pre-sigmoid logit per pair; out_dim 2 yields a
    two-logit head (column 0 = edge present) for the softmax loss.  The inner
    decoder has no weights; under out_dim 2 its score is paired with a fixed
    zero logit, which makes the two losses coincide there.
    """

    kind: str
    layers: list = field(default_factory=list)
    out_dim: int = 1

    @classmethod
    def init(cls, rng, kind, emb, hidden=64, out_dim=1):
        if kind not in DECODER_KINDS:
            raise ValueError(f"unknown decoder kind {kind!r}")
        if out_dim not in (1, 2):
            raise ValueError("out_dim must be 1 or 2")
        if kind == "inner":
            layers = []
        elif kind == "lr_concat":
            layers = [(_uniform_weight(rng, 2 * emb, out_dim), _zero_bias(out_dim))]
        else:
            width = emb if kind == "mlp_hadamard" else 2 * emb
            layers = [
                (_uniform_weight(rng, width, hidden), _zero_bias(hidden)),
                (_uniform_weight(rng, hidden, out_dim), _zero_bias(out_dim)),
            ]
        return cls(kind, layers, out_dim)

    def named_parameters(self):
        out = {}
        for i, (w, b) in enumerate(self.layers):
            out[f"dec.{i}.w"] = w
            out[f"dec.{i}.b"] = b
        return out


def decode(dec, enc, pairs):
    """Logits for ordered pairs: row u of S with row v of T.

    inner: dot product, one fused op that allocates no (pairs, d) array in
    either pass.  mlp_hadamard / mlp_concat: relu MLP over the elementwise
    product / the concatenation.  lr_concat: affine map over the
    concatenation.  Output shape (len(pairs), out_dim), pre-sigmoid.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if dec.kind == "inner":
        z = ad.pair_dot(enc.S, enc.T, pairs[:, 0], pairs[:, 1], score_block_pairs(dec, enc))
        if dec.out_dim == 2:
            z = ad.concat_cols(z, ad.Tensor(np.zeros((z.shape[0], 1))))
        return z
    su = ad.gather_rows(enc.S, pairs[:, 0])
    tv = ad.gather_rows(enc.T, pairs[:, 1])
    if dec.kind == "lr_concat":
        w, b = dec.layers[0]
        return ad.add_bias(ad.matmul(ad.concat_cols(su, tv), w), b)
    h = ad.hadamard(su, tv) if dec.kind == "mlp_hadamard" else ad.concat_cols(su, tv)
    (w1, b1), (w2, b2) = dec.layers
    hidden = ad.relu(ad.add_bias(ad.matmul(h, w1), b1))
    return ad.add_bias(ad.matmul(hidden, w2), b2)


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
    width = enc.S.shape[1] * (2 if dec.kind.endswith("concat") else 1)
    width = max([width] + [w.shape[1] for w, _ in dec.layers])
    return max(1, SCORE_BLOCK_BYTES // (8 * width))


def ranking_scores(dec, enc, pairs):
    """Scalar scores for ranking: the logit, or the logit margin of the
    edge-present column for two-logit heads.

    Forward-only: no tape is built.  Pairs are decoded in blocks of
    score_block_pairs into one output array.  A pair's inner score does not
    depend on the block it falls in; the BLAS decoders may differ by an ulp."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    out = np.empty(len(pairs))
    block = score_block_pairs(dec, enc)
    with ad.no_grad():
        for b0 in range(0, len(pairs), block):
            z = decode(dec, enc, pairs[b0:b0 + block]).data
            out[b0:b0 + len(z)] = z[:, 0] if dec.out_dim == 1 else z[:, 0] - z[:, 1]
    return out


def encoder_forward(enc_params, ctx, x):
    """Dispatch an encoder forward pass.

    ctx is the precomputed normalized adjacency for SdgaeParams, the
    precomputed digae_operator for DigaeParams, and ignored for MlpParams.
    """
    if isinstance(enc_params, SdgaeParams):
        return sdgae_encode(enc_params, ctx, x)
    if isinstance(enc_params, DigaeParams):
        return digae_encode(enc_params, ctx, x)
    if isinstance(enc_params, MlpParams):
        return mlp_encode(enc_params, x)
    raise TypeError(f"unknown encoder params {type(enc_params).__name__}")


CHECKPOINT_VERSION = 1


def save_checkpoint(path, named_arrays, meta):
    """Write named parameter arrays plus a JSON meta blob; format versioned."""
    payload = dict(meta)
    payload["format_version"] = CHECKPOINT_VERSION
    arrays = {name: np.asarray(a, dtype=np.float64) for name, a in named_arrays.items()}
    np.savez(path, __meta__=np.array(json.dumps(payload)), **arrays)


def load_checkpoint(path):
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"]))
        if meta.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('format_version')}")
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

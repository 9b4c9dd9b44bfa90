"""Structural analyses: graph reconstruction and expressiveness certificates.

The expressiveness checker asks whether node embeddings plus a decoder can
orient every edge of a small graph: logit(u, v) positive on edges, negative
on the reverse of every unreciprocated edge.  Analytic certificates settle
the symmetric and linear cases outright; everything else is decided by a
multi-restart hinge search whose witnesses are replayed through the real
decoder before being believed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import models
from .graph import DataError

EMBEDDING_MODES = ("single", "dual")
SEARCH_MARGIN = 0.1  # the hinge margin of the witness search
SEARCH_SEED = 0  # the root seed of its restarts
SEARCH_STEPS = 400  # the most Adam steps of one restart
SEARCH_LR = 0.05  # their learning rate
SEARCH_HIDDEN = 16  # the hidden width of the search's MLP decoders
# the candidates of one reconstruction block: their int64 pair array fills
# models.SCORE_BLOCK_BYTES
RECONSTRUCT_CHUNK = models.SCORE_BLOCK_BYTES // 16


@dataclass
class DegreeHistogram:
    """Degree -> node count maps for both directions; zero-degree nodes included."""

    out_hist: dict
    in_hist: dict


def degree_histograms(edges, n):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    out_counts = np.bincount(edges[:, 0], minlength=n)
    in_counts = np.bincount(edges[:, 1], minlength=n)
    out_hist = {int(d): int(c) for d, c in enumerate(np.bincount(out_counts)) if c > 0}
    in_hist = {int(d): int(c) for d, c in enumerate(np.bincount(in_counts)) if c > 0}
    return DegreeHistogram(out_hist, in_hist)


def write_degree_tsv(path, hist):
    """Two-column TSV (degree, count), degrees ascending."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("degree\tcount\n")
        for deg in sorted(hist):
            fh.write(f"{deg}\t{hist[deg]}\n")


def _candidate_pairs(k, n):
    """Candidates k of the n*(n-1) ordered pairs u != v, numbered in (u, v)
    order: k = u*(n-1) + j, where v = j, or j + 1 once j reaches u."""
    u, j = np.divmod(k, max(n - 1, 1))
    return np.stack([u, j + (j >= u)], axis=1)


def _blocks(n):
    """(start, stop) of the candidate blocks, cut at row starts: the whole
    rows that fit in RECONSTRUCT_CHUNK, or pieces of one row longer than it."""
    total, span = n * (n - 1), max(1, RECONSTRUCT_CHUNK // (n - 1)) * (n - 1)
    for r0 in range(0, total, span):
        r1 = min(r0 + span, total)
        for k0 in range(r0, r1, RECONSTRUCT_CHUNK):
            yield k0, min(k0 + RECONSTRUCT_CHUNK, r1)


def _top(ks, ss, m):
    """The m best of the concatenated candidates by (score desc, k asc)."""
    k, s = np.concatenate(ks), np.concatenate(ss)
    order = np.lexsort((k, -s))[:m]
    return k[order], s[order]


def reconstruct_topm(score_fn, n, m_prime):
    """The m_prime ordered pairs (u != v) with the highest scores.

    score_fn maps an (B, 2) int array of pairs to B scores; it is called on
    consecutive blocks of at most RECONSTRUCT_CHUNK candidates in (u, v) order:
    whole rows, the n - 1 candidates of a source u each, when a row fits in a
    block, else pieces of one row.
    Ties break deterministically by (score desc, u asc, v asc), which is also
    the order of the result; NaN scores rank last.  Working memory is the
    m_prime best candidates so far, at most m_prime newer survivors, and one
    block.
    """
    total = n * (n - 1)
    if m_prime < 0:
        raise DataError(f"m_prime {m_prime} is negative")
    if m_prime > total:
        raise DataError(f"m_prime {m_prime} exceeds the {total} candidate pairs")
    if m_prime == 0:
        return np.empty((0, 2), dtype=np.int64)
    best_k, best_s = np.empty(0, dtype=np.int64), np.empty(0)
    new_k, new_s, pending = [], [], 0
    threshold = None
    for k0, k1 in _blocks(n):
        k = np.arange(k0, k1, dtype=np.int64)
        pairs = _candidate_pairs(k, n)
        s = np.asarray(score_fn(pairs), dtype=np.float64).reshape(-1)
        if len(s) != len(pairs):
            raise ValueError("score_fn returned the wrong number of scores")
        if threshold is not None:
            # candidates arrive in (u, v) order, so a tie with the m'-th best
            # loses; a NaN m'-th best loses to every real score
            keep = ~np.isnan(s) if np.isnan(threshold) else s > threshold
            k, s = k[keep], s[keep]
        new_k.append(k)
        new_s.append(s)
        pending += len(k)
        if pending > m_prime:
            best_k, best_s = _top([best_k, *new_k], [best_s, *new_s], m_prime)
            new_k, new_s, pending = [], [], 0
            threshold = best_s[-1]
    best_k, _ = _top([best_k, *new_k], [best_s, *new_s], m_prime)
    return _candidate_pairs(best_k, n)


@dataclass
class FeasibilityCertificate:
    """Outcome of an expressiveness check.

    verdict: feasible | infeasible | undetermined.  A feasible certificate
    carries the witness (embeddings and decoder weights) and the margin it
    achieves when replayed through the decoder; an infeasible one carries the
    analytic argument in detail.
    """

    verdict: str
    witness: dict | None = None
    margin: float | None = None
    detail: str = ""


def _constraint_pairs(g):
    """(edges to score positive, reverse pairs to score negative): the
    reversed edges that are no edge, sorted lexicographically."""
    rev = g.edges[:, ::-1]
    rev = rev[~g.has_edges(rev)]
    return g.edges, rev[np.lexsort((rev[:, 1], rev[:, 0]))]


def _unreciprocated_cycle(g):
    """A directed cycle using only unreciprocated edges, as a node list, or None.

    An edge whose source has no in-edge or whose target has no out-edge lies
    on no cycle.  Once no such edge is left, every remaining node has an
    out-edge, so a walk along out-edges from the smallest one must repeat a
    node; the walk from its first visit on is a cycle.
    """
    edges = _constraint_pairs(g)[1][:, ::-1]
    while True:
        keep = np.isin(edges[:, 0], edges[:, 1]) & np.isin(edges[:, 1], edges[:, 0])
        if keep.all():
            break
        edges = edges[keep]
    if not len(edges):
        return None
    succ = dict(edges.tolist())
    walk = [int(edges[:, 0].min())]
    while (nxt := succ[walk[-1]]) not in walk:
        walk.append(nxt)
    return walk[walk.index(nxt):]


def replay_margin(g, dec, s_emb, t_emb):
    """Margin of a witness under the real decoder: min over all orientation
    constraints, positive iff every edge is oriented correctly."""
    enc = models.EncoderOutput(ad.Tensor(s_emb), ad.Tensor(t_emb))
    pos_pairs, rev_pairs = _constraint_pairs(g)
    margin = float(models.ranking_scores(dec, enc, pos_pairs).min())
    if len(rev_pairs):
        margin = min(margin, float(-models.ranking_scores(dec, enc, rev_pairs).max()))
    return margin


def _search_once(g, mode, decoder, dim, rng):
    n = g.n
    s_emb = ad.Tensor(rng.standard_normal((n, dim)), requires_grad=True)
    t_emb = s_emb if mode == "single" else ad.Tensor(rng.standard_normal((n, dim)), requires_grad=True)
    dec = models.DecoderKind.init(rng, decoder, dim, hidden=SEARCH_HIDDEN, out_dim=1)
    params = [s_emb] + ([t_emb] if mode == "dual" else []) + list(dec.named_parameters().values())
    optimizer = ad.AdamState(params, lr=SEARCH_LR)
    pos_pairs, rev_pairs = _constraint_pairs(g)
    # the indexes keep the plans of the restart's backward passes
    pos_index, rev_index = ad.PairIndex(pos_pairs, n, n), ad.PairIndex(rev_pairs, n, n)
    for step in range(SEARCH_STEPS):
        enc = models.EncoderOutput(s_emb, t_emb)
        pos_logits = models.decode(dec, enc, pos_pairs, pos_index)
        rev_logits = models.decode(dec, enc, rev_pairs, rev_index) if len(rev_pairs) else None
        hinge = ad.hinge(pos_logits, rev_logits, SEARCH_MARGIN)
        if float(hinge.data[0, 0]) == 0.0:
            break
        ad.backward(hinge, params)
        optimizer.step()
    margin = replay_margin(g, dec, s_emb.data, t_emb.data)
    if margin > 0.0:
        witness = {
            "mode": mode,
            "S": s_emb.data.copy(),
            "T": t_emb.data.copy(),
            "decoder_kind": decoder,
            "decoder": {k: t.data.copy() for k, t in dec.named_parameters().items()},
        }
        return FeasibilityCertificate("feasible", witness, margin, "search witness replayed")
    return None


def check_expressiveness(g, mode, decoder, dim, attempts):
    """Can this embedding/decoder combination orient every edge of g?

    Analytic shortcuts first: with a single embedding, inner and hadamard
    decoders are direction-symmetric, so any unreciprocated edge is already a
    contradiction.  The affine concat decoder scores w1.s_u + w2.t_v + b in
    either mode, so logit(u,v) - logit(v,u) = f(u) - f(v) with
    f(x) = w1.s_x - w2.t_x; around a directed cycle of unreciprocated edges
    these differences sum to 0, yet each must be positive.  Otherwise
    gradient-descent restarts search for a witness; failure to find one
    leaves the verdict undetermined.
    """
    if mode not in EMBEDDING_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if decoder not in models.DECODER_KINDS:
        raise ValueError(f"unknown decoder {decoder!r}")
    for name, value in (("dim", dim), ("attempts", attempts)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if g.n > 10:
        raise ValueError("expressiveness checks are for small graphs (n <= 10)")
    if not g.edge_count:
        raise ValueError("expressiveness checks need an edge to orient; the graph has none")
    pos_pairs, rev_pairs = _constraint_pairs(g)

    if mode == "single" and decoder in ("inner", "mlp_hadamard") and len(rev_pairs):
        u, v = rev_pairs[0][1], rev_pairs[0][0]
        return FeasibilityCertificate(
            "infeasible",
            detail=(
                f"single-embedding {decoder} scores are direction-symmetric, but edge "
                f"({u},{v}) has no reverse: logit({u},{v}) > 0 and logit({v},{u}) < 0 "
                "cannot both hold when the two logits are equal"
            ),
        )
    if decoder == "lr_concat":
        cycle = _unreciprocated_cycle(g)
        if cycle is not None:
            return FeasibilityCertificate(
                "infeasible",
                detail=(
                    f"cycle {cycle}: lr_concat gives logit(u,v) - logit(v,u) = f(u) - f(v) "
                    "with f(x) = w1.s_x - w2.t_x, and summing f(u) - f(v) > 0 over the "
                    "cycle's unreciprocated edges leaves 0 > 0"
                ),
            )

    for attempt in range(attempts):
        rng = np.random.default_rng(np.random.SeedSequence([SEARCH_SEED, attempt]))
        cert = _search_once(g, mode, decoder, dim, rng)
        if cert is not None:
            return cert
    return FeasibilityCertificate(
        "undetermined",
        detail=f"no witness found in {attempts} restarts; infeasibility not certified",
    )

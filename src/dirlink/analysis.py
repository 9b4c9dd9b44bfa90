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


def _top(ks, ss, m):
    """The m best of the concatenated candidates by (score desc, k asc)."""
    k, s = np.concatenate(ks), np.concatenate(ss)
    order = np.lexsort((k, -s))[:m]
    return k[order], s[order]


def reconstruct_topm(score_fn, n, m_prime, chunk_size=models.SCORE_BLOCK_BYTES // 16):
    """The m_prime ordered pairs (u != v) with the highest scores.

    score_fn maps an (B, 2) int array of pairs to B scores; it is called on
    consecutive blocks of at most chunk_size candidates in (u, v) order.  By
    default a block's int64 pair array fills models.SCORE_BLOCK_BYTES.
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
    for k0 in range(0, total, chunk_size):
        k = np.arange(k0, min(k0 + chunk_size, total), dtype=np.int64)
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
    """(edges to score positive, reverse pairs to score negative)."""
    keys = set(map(tuple, g.edges.tolist()))
    rev = [(v, u) for (u, v) in keys if (v, u) not in keys]
    rev_arr = np.asarray(sorted(rev), dtype=np.int64).reshape(-1, 2)
    return g.edges, rev_arr


def _unreciprocated_cycle(g):
    """A directed cycle using only unreciprocated edges, or None."""
    keys = set(map(tuple, g.edges.tolist()))
    adj = {}
    for u, v in sorted(keys):
        if (v, u) not in keys:
            adj.setdefault(u, []).append(v)
    color = {}
    stack_nodes = []

    def dfs(u):
        color[u] = 1
        stack_nodes.append(u)
        for v in adj.get(u, ()):
            if color.get(v, 0) == 1:
                return stack_nodes[stack_nodes.index(v):]
            if color.get(v, 0) == 0:
                found = dfs(v)
                if found is not None:
                    return found
        color[u] = 2
        stack_nodes.pop()
        return None

    for start in sorted(adj):
        if color.get(start, 0) == 0:
            cycle = dfs(start)
            if cycle is not None:
                return cycle
    return None


def _telescoping_cancels(cycle):
    """Symbolic check that summing the per-edge difference inequalities of an
    affine concat decoder over the cycle cancels every coefficient.

    Each edge (u, v) with absent reverse forces logit(u,v) - logit(v,u) > 0,
    i.e. (h_u - h_v) . w1 + (h_v - h_u) . w2 > 0; the bias cancels per edge.
    If the summed left side is identically zero, the constraints demand
    0 > 0, which is the contradiction.
    """
    coeff = {}
    edges = list(zip(cycle, cycle[1:] + cycle[:1]))
    for u, v in edges:
        coeff[(u, "w1")] = coeff.get((u, "w1"), 0) + 1
        coeff[(v, "w1")] = coeff.get((v, "w1"), 0) - 1
        coeff[(v, "w2")] = coeff.get((v, "w2"), 0) + 1
        coeff[(u, "w2")] = coeff.get((u, "w2"), 0) - 1
    return all(c == 0 for c in coeff.values())


def replay_margin(g, dec, s_emb, t_emb):
    """Margin of a witness under the real decoder: min over all orientation
    constraints, positive iff every edge is oriented correctly."""
    enc = models.EncoderOutput(ad.Tensor(s_emb), ad.Tensor(t_emb))
    pos_pairs, rev_pairs = _constraint_pairs(g)
    pos = models.decode(dec, enc, pos_pairs).data[:, 0]
    margin = float(pos.min())
    if len(rev_pairs):
        rev = models.decode(dec, enc, rev_pairs).data[:, 0]
        margin = min(margin, float(-rev.max()))
    return margin


def validate_witness(g, mode, dec, s_emb, t_emb=None):
    """Replay an explicit witness; returns its margin."""
    s_emb = np.asarray(s_emb, dtype=np.float64)
    t_emb = s_emb if (mode == "single" or t_emb is None) else np.asarray(t_emb, dtype=np.float64)
    return replay_margin(g, dec, s_emb, t_emb)


def _search_once(g, mode, decoder, dim, rng, delta, steps, lr):
    n = g.n
    s_emb = ad.Tensor(rng.standard_normal((n, dim)), requires_grad=True)
    t_emb = s_emb if mode == "single" else ad.Tensor(rng.standard_normal((n, dim)), requires_grad=True)
    dec = models.DecoderKind.init(rng, decoder, dim, hidden=16, out_dim=1)
    params = [s_emb] + ([t_emb] if mode == "dual" else []) + list(dec.named_parameters().values())
    optimizer = ad.AdamState(params, lr=lr)
    pos_pairs, rev_pairs = _constraint_pairs(g)
    minus_one = ad.Tensor(np.array([[-1.0]]))
    margin_pos = ad.Tensor(np.full((len(pos_pairs), 1), delta))
    margin_rev = ad.Tensor(np.full((len(rev_pairs), 1), delta))
    for step in range(steps):
        enc = models.EncoderOutput(s_emb, t_emb)
        pos_logits = models.decode(dec, enc, pos_pairs)
        hinge = ad.sum_all(ad.relu(ad.add(margin_pos, ad.scale(pos_logits, minus_one))))
        if len(rev_pairs):
            rev_logits = models.decode(dec, enc, rev_pairs)
            hinge = ad.add(hinge, ad.sum_all(ad.relu(ad.add(margin_rev, rev_logits))))
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


def check_expressiveness(g, mode, decoder, dim=2, attempts=50, delta=0.1, seed=0, steps=400, lr=0.05):
    """Can this embedding/decoder combination orient every edge of g?

    Analytic shortcuts first: with a single embedding, inner and hadamard
    decoders are direction-symmetric, so any unreciprocated edge is already a
    contradiction; with a single embedding and the affine concat decoder, an
    unreciprocated directed cycle makes the summed difference inequalities
    cancel to 0 > 0.  Otherwise gradient-descent restarts search for a
    witness; failure to find one leaves the verdict undetermined.
    """
    if mode not in ("single", "dual"):
        raise ValueError(f"unknown mode {mode!r}")
    if decoder not in models.DECODER_KINDS:
        raise ValueError(f"unknown decoder {decoder!r}")
    if g.n > 10:
        raise ValueError("expressiveness checks are for small graphs (n <= 10)")
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
    if mode == "single" and decoder == "lr_concat":
        cycle = _unreciprocated_cycle(g)
        if cycle is not None and _telescoping_cancels(cycle):
            return FeasibilityCertificate(
                "infeasible",
                detail=(
                    f"cycle {cycle}: summing logit(u,v) - logit(v,u) > 0 over the cycle "
                    "cancels every embedding coefficient, leaving 0 > 0"
                ),
            )

    for attempt in range(attempts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        cert = _search_once(g, mode, decoder, dim, rng, delta, steps, lr)
        if cert is not None:
            return cert
    return FeasibilityCertificate(
        "undetermined",
        detail=f"no witness found in {attempts} restarts; infeasibility not certified",
    )

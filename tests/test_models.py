import inspect

import numpy as np
import pytest

import dirlink.autodiff as ad
from dirlink import models, training
from dirlink.graph import normalize_sym
from dirlink.training import TrainConfig
from helpers import (EinsumSpy, digae_encode_bipartite, expand_coefficients, force_lanes,
                     random_graph, sdgae_encode_composite, sdgae_encode_explicit, sum_all)


def _sdgae(rng, g, in_dim=4, k=3, **kw):
    return models.SdgaeParams.init(rng, g, in_dim, TrainConfig(hidden=8, emb=6, k=k, **kw))


def _randomize_gammas(p, rng):
    for g in p.gamma_s + p.gamma_t:
        g.data[0, 0] = rng.uniform(-1.5, 1.5)


def test_gamma_coefficients_initialized_to_one():
    rng = np.random.default_rng(40)
    p = _sdgae(rng, random_graph(rng, 5))
    for g in p.gamma_s + p.gamma_t:
        assert g.data[0, 0] == 1.0
        assert g.requires_grad


def test_sdgae_iterative_matches_explicit_polynomial():
    rng = np.random.default_rng(41)
    for k in range(1, 6):
        g = random_graph(rng, int(rng.integers(5, 20)))
        p = _sdgae(rng, g, k=k)
        _randomize_gammas(p, rng)
        x = rng.standard_normal((g.n, 4))
        a = normalize_sym(g)
        it = models.encoder_forward(p, x)
        ex = sdgae_encode_explicit(p, a, x)
        assert np.max(np.abs(it.S.data - ex.S.data)) < 1e-8
        assert np.max(np.abs(it.T.data - ex.T.data)) < 1e-8


def test_sdgae_simultaneous_update_reads_pre_step_values():
    # with k=1 the cross terms must use the initial embeddings, not each other
    rng = np.random.default_rng(42)
    g = random_graph(rng, 6)
    p = _sdgae(rng, g, k=1)
    _randomize_gammas(p, rng)
    x = rng.standard_normal((6, 4))
    a = normalize_sym(g)
    out = models.encoder_forward(p, x)
    s0 = p.mlp_s(ad.Tensor(x)).data
    t0 = p.mlp_t(ad.Tensor(x)).data
    gs, gt = p.gamma_s[0].data[0, 0], p.gamma_t[0].data[0, 0]
    want_s = gs * (a.toarray() @ t0) + s0
    want_t = gt * (a.toarray().T @ s0) + t0
    assert np.allclose(out.S.data, want_s, atol=1e-12)
    assert np.allclose(out.T.data, want_t, atol=1e-12)


def test_expand_coefficients_closed_forms():
    # k=2 with integer steps: w_s = [1, gs0+gs1, gs1*gt0], exactly
    w_s, w_t = expand_coefficients([2.0, 3.0], [5.0, 7.0], 2)
    assert np.array_equal(w_s, [1.0, 5.0, 15.0])
    assert np.array_equal(w_t, [1.0, 12.0, 14.0])
    w_s, w_t = expand_coefficients([4.0], [9.0], 1)
    assert np.array_equal(w_s, [1.0, 4.0])
    assert np.array_equal(w_t, [1.0, 9.0])
    with pytest.raises(ValueError):
        expand_coefficients([1.0], [1.0, 2.0], 2)


def test_sdgae_rejects_features_of_the_wrong_shape():
    rng = np.random.default_rng(43)
    g = random_graph(rng, 5)
    p = _sdgae(rng, g, k=2)
    with pytest.raises(ValueError):
        models.encoder_forward(p, np.zeros((4, 4)))


def _sdgae_case(k, seed=44, n=30):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n)
    p = _sdgae(rng, g, k=k)
    _randomize_gammas(p, rng)
    return p, normalize_sym(g), rng.standard_normal((n, 4))


def _sdgae_loss(enc, read):
    """A scalar that reads S, T or both, with a grad that is not constant."""
    if read == "S":
        return sum_all(ad.hadamard(enc.S, enc.S))
    if read == "T":
        return sum_all(ad.relu(enc.T))
    return sum_all(ad.hadamard(enc.S, enc.T))


def _sdgae_backward(p, enc, read):
    """S, T and every leaf grad of p (both MLPs and the 2k gammas), by name."""
    named = p.named_parameters()
    ad.backward(_sdgae_loss(enc, read), list(named.values()))
    out = {"S": enc.S.data, "T": enc.T.data}
    out.update((name, t.grad.copy()) for name, t in named.items())
    return out


def _assert_bitwise(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].shape == want[name].shape, name
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("laned", [False, True])
@pytest.mark.parametrize("read", ["S", "T", "both"])
@pytest.mark.parametrize("k", [1, 5, 8])
def test_sdgae_propagate_matches_composite_bitwise(k, read, laned, monkeypatch):
    """One fused node gives the values and grads of the 6k primitive nodes it
    replaces, bit for bit, whichever outputs the loss reads, with its S and
    T sides on one thread or on two."""
    p, a, x = _sdgae_case(k)
    composite = _sdgae_backward(p, sdgae_encode_composite(p, a, x), read)
    threads = force_lanes(monkeypatch) if laned else []
    fused = _sdgae_backward(p, models.encoder_forward(p, x), read)
    # the two MLPs and k steps forward, and k steps back
    assert len(threads) == (1 + 2 * k if laned else 0)
    assert len(composite) == 2 + 8 + 2 * k
    _assert_bitwise(fused, composite)


def test_laned_encode_under_no_grad_records_no_tape(monkeypatch):
    # the lane thread runs the T side in the caller's recording state, which
    # the thread keeps no memory of from one call to the next
    threads = force_lanes(monkeypatch)
    p, _, x = _sdgae_case(3)
    for _ in range(2):
        with ad.no_grad():
            enc = models.encoder_forward(p, x)
        assert not (enc.S.requires_grad or enc.T.requires_grad)
        assert enc.S.parents == enc.T.parents == ()
        enc = models.encoder_forward(p, x)
        ad.backward(_sdgae_loss(enc, "T"))
        assert p.mlp_t.layers[0][0].grad is not None and p.gamma_t[0].grad is not None
    assert threads


def test_second_recorded_pass_gets_its_own_buffers():
    # the first pass's backward reads its forward products after a second
    # pass has run: had they shared arrays, its gamma grads would be wrong
    p, a, x = _sdgae_case(5)
    x2 = np.random.default_rng(45).standard_normal(x.shape)
    first = models.encoder_forward(p, x)
    second = models.encoder_forward(p, x2)
    got = [_sdgae_backward(p, first, "both"), _sdgae_backward(p, second, "both")]
    for feats, fused in zip((x, x2), got):
        _assert_bitwise(fused, _sdgae_backward(p, sdgae_encode_composite(p, a, feats), "both"))


def test_sdgae_products_go_through_spmm(monkeypatch):
    # 2k sparse products per pass each way, all through the name the tracer patches
    real = ad._spmm
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(ad, "_spmm", counting)
    for k in (1, 5):
        p, _, x = _sdgae_case(k)
        calls.clear()
        enc = models.encoder_forward(p, x)
        assert len(calls) == 2 * k
        ad.backward(_sdgae_loss(enc, "both"))
        assert len(calls) == 4 * k
        with ad.no_grad():
            models.encoder_forward(p, x)
        assert len(calls) == 6 * k


def test_sdgae_propagate_checks_its_inputs():
    rng = np.random.default_rng(46)
    a = normalize_sym(random_graph(rng, 5))
    x = ad.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    one = ad.Tensor(np.ones((1, 1)), requires_grad=True)
    with pytest.raises(ValueError, match="coefficients per side"):
        ad.sdgae_propagate(a, a.T, x, x, [], [])
    with pytest.raises(ValueError, match="coefficients per side"):
        ad.sdgae_propagate(a, a.T, x, x, [one], [one, one])
    with pytest.raises(ValueError, match="shape mismatch"):
        ad.sdgae_propagate(a, a.T, x, ad.Tensor(np.zeros((5, 2))), [one], [one])
    with pytest.raises(ValueError, match="1x1"):
        ad.sdgae_propagate(a, a.T, x, x, [ad.Tensor(np.ones((1, 2)))], [one])


def test_digae_matches_bipartite_oracle():
    rng = np.random.default_rng(44)
    for layers in (1, 2):
        for alpha in (0.0, 0.4, 0.8):
            for beta in (0.0, 0.4, 0.8):
                g = random_graph(rng, int(rng.integers(4, 12)))
                cfg = TrainConfig(hidden=7, emb=6, digae_layers=layers, alpha=alpha, beta=beta)
                p = models.DigaeParams.init(rng, g, 5, cfg)
                x = rng.standard_normal((g.n, 5))
                a = models.encoder_forward(p, x)
                b = digae_encode_bipartite(p, g, x, alpha, beta)
                assert np.max(np.abs(a.S.data - b.S.data)) < 1e-10
                assert np.max(np.abs(a.T.data - b.T.data)) < 1e-10


def test_mlp_encoder_is_direction_blind():
    rng = np.random.default_rng(46)
    p = models.MlpParams.init(rng, random_graph(rng, 5), 4, TrainConfig(hidden=8, emb=6))
    out = models.encoder_forward(p, rng.standard_normal((5, 4)))
    assert out.S is out.T


def test_model_settings_have_one_source():
    # TrainConfig holds every model setting and its default: the builders take
    # each one from their caller, and the config's encoder names are the table's
    builders = [*(cls.init for cls in models.ENCODERS.values()), models.DecoderKind.init,
                models.Mlp.init]
    for init in builders:
        params = inspect.signature(init).parameters.values()
        assert [p.name for p in params if p.default is not p.empty] == [], init
    g = random_graph(np.random.default_rng(55), 5)
    for name, cls in models.ENCODERS.items():
        cfg = TrainConfig(encoder=name, hidden=4, emb=3)
        model = training.build_model(cfg, g, np.ones((5, 2)), np.random.default_rng(0))
        assert type(model.enc_params) is cls


def test_inner_decoder_is_row_dot_product():
    rng = np.random.default_rng(47)
    s = ad.Tensor(rng.standard_normal((6, 4)))
    t = ad.Tensor(rng.standard_normal((6, 4)))
    enc = models.EncoderOutput(s, t)
    dec = models.DecoderKind.init(rng, "inner", 4, 64, 1)
    pairs = np.array([[0, 1], [5, 2], [3, 3]])
    z = models.decode(dec, enc, pairs)
    want = np.einsum("ij,ij->i", s.data[pairs[:, 0]], t.data[pairs[:, 1]])
    assert np.allclose(z.data[:, 0], want)


def test_inner_decoder_two_logit_pads_zero_column():
    rng = np.random.default_rng(48)
    enc = models.EncoderOutput(
        ad.Tensor(rng.standard_normal((4, 3))), ad.Tensor(rng.standard_normal((4, 3)))
    )
    dec = models.DecoderKind.init(rng, "inner", 3, 64, 2)
    z = models.decode(dec, enc, [[0, 1], [2, 3]])
    assert z.data.shape == (2, 2)
    assert np.array_equal(z.data[:, 1], [0.0, 0.0])
    scores = models.ranking_scores(dec, enc, [[0, 1], [2, 3]])
    assert np.allclose(scores, z.data[:, 0])


def test_lr_concat_decoder_is_affine():
    rng = np.random.default_rng(49)
    s = rng.standard_normal((5, 3))
    t = rng.standard_normal((5, 3))
    enc = models.EncoderOutput(ad.Tensor(s), ad.Tensor(t))
    dec = models.DecoderKind.init(rng, "lr_concat", 3, 64, 1)
    w, b = dec.layers[0]
    pairs = np.array([[1, 4], [0, 0]])
    z = models.decode(dec, enc, pairs)
    want = np.hstack([s[pairs[:, 0]], t[pairs[:, 1]]]) @ w.data + b.data
    assert np.allclose(z.data, want)


def test_mlp_decoders_shapes_and_hidden_width():
    rng = np.random.default_rng(50)
    enc = models.EncoderOutput(
        ad.Tensor(rng.standard_normal((4, 6))), ad.Tensor(rng.standard_normal((4, 6)))
    )
    had = models.DecoderKind.init(rng, "mlp_hadamard", 6, 9, 1)
    cat = models.DecoderKind.init(rng, "mlp_concat", 6, 9, 2)
    assert had.layers[0][0].shape == (6, 9)
    assert cat.layers[0][0].shape == (12, 9)
    assert models.decode(had, enc, [[0, 1]]).data.shape == (1, 1)
    assert models.decode(cat, enc, [[0, 1]]).data.shape == (1, 2)
    with pytest.raises(ValueError):
        models.DecoderKind.init(rng, "bilinear", 6, 64, 1)


def test_ranking_scores_margin_for_two_logits():
    dec = models.DecoderKind(kind="lr_concat", out_dim=2,
                             layers=[(ad.Tensor(np.zeros((4, 2))), ad.Tensor(np.array([[3.0, 1.0]])))])
    enc = models.EncoderOutput(ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((2, 2))))
    scores = models.ranking_scores(dec, enc, [[0, 1]])
    assert np.allclose(scores, [2.0])


@pytest.mark.parametrize("encoder", ["sdgae", "digae"])
def test_encoder_passes_build_no_operator_transpose(encoder, monkeypatch):
    """The encoder builds op's scipy transpose once; its forward and backward
    passes reuse it."""
    rng = np.random.default_rng(57)
    enc = models.ENCODERS[encoder].init(rng, random_graph(rng, 7), 4,
                                        TrainConfig(hidden=8, emb=6, k=2))
    assert enc.op_t.format == "csc" and np.shares_memory(enc.op_t.data, enc.op.data)
    built = []
    for cls in {type(enc.op), type(enc.op_t)}:
        real = cls.transpose
        monkeypatch.setattr(cls, "transpose",
                            lambda self, *a, real=real, **kw: built.append(1) or real(self, *a, **kw))
    params = list(enc.named_parameters().values())
    for _ in range(2):
        out = models.encoder_forward(enc, rng.standard_normal((7, 4)))
        ad.backward(sum_all(ad.hadamard(out.S, out.T)), params)
    assert built == []


def test_encoder_forward_dispatch():
    rng = np.random.default_rng(51)
    g = random_graph(rng, 7)
    x = rng.standard_normal((7, 4))
    sd = _sdgae(rng, g, k=2)
    out = models.encoder_forward(sd, x)
    ref = sd(ad.Tensor(x))
    assert np.allclose(out.S.data, ref.S.data)
    dg = models.DigaeParams.init(rng, g, 4, TrainConfig(emb=6))
    assert models.encoder_forward(dg, x).S.data.shape == (7, 6)
    ml = models.MlpParams.init(rng, g, 4, TrainConfig(emb=6))
    assert models.encoder_forward(ml, x).S.data.shape == (7, 6)
    # every encoder, the graph-free MLP included, checks the feature rows
    for enc in (sd, dg, ml):
        with pytest.raises(ValueError, match="feature rows 6 != node count 7"):
            models.encoder_forward(enc, x[:6])


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(52)
    g = random_graph(rng, 5)
    p = _sdgae(rng, g, k=2)
    named = {n: t.data for n, t in p.named_parameters().items()}
    path = tmp_path / "ckpt.npz"
    models.save_checkpoint(path, named, {"note": "test", "split_seed": 3})
    meta, arrays = models.load_checkpoint(path)
    assert meta == {"note": "test", "split_seed": 3}
    assert set(arrays) == set(named)

    q = _sdgae(np.random.default_rng(99), g, k=2)
    models.load_state(q, arrays)
    for name, t in q.named_parameters().items():
        assert np.array_equal(t.data, named[name])


def test_checkpoint_rejects_bad_version_and_shapes(tmp_path):
    rng = np.random.default_rng(53)
    g = random_graph(rng, 5)
    p = _sdgae(rng, g, k=2)
    path = tmp_path / "ckpt.npz"
    named = {n: t.data for n, t in p.named_parameters().items()}
    models.save_checkpoint(path, named, {})
    meta, arrays = models.load_checkpoint(path)
    wrong = _sdgae(rng, g, k=3)
    with pytest.raises(ValueError, match="missing parameter"):
        models.load_state(wrong, arrays)
    small = _sdgae(rng, g, k=2, mlp_layers=1)
    with pytest.raises(ValueError, match="shape mismatch"):
        models.load_state(small, arrays)

    import json
    import numpy as np_
    payload = {"format_version": 99}
    np_.savez(path, __meta__=np.array(json.dumps(payload)))
    with pytest.raises(ValueError, match="version"):
        models.load_checkpoint(path)


def test_ranking_scores_build_no_tape(monkeypatch):
    rng = np.random.default_rng(53)
    g = random_graph(rng, 6)
    p = _sdgae(rng, g, k=2)
    enc = models.encoder_forward(p, rng.standard_normal((6, 4)))
    dec = models.DecoderKind.init(rng, "mlp_concat", enc.S.shape[1], 5, 1)
    outputs = []
    real_decode = models.decode

    def spy(*args):
        outputs.append(real_decode(*args))
        return outputs[-1]

    monkeypatch.setattr(models, "decode", spy)
    scores = models.ranking_scores(dec, enc, np.array([[0, 1], [2, 3]]))
    assert scores.shape == (2,)
    (z,) = outputs
    assert not z.requires_grad and z.parents == () and z._backward is None
    assert models.decode(dec, enc, np.array([[0, 1]])).requires_grad


@pytest.mark.parametrize("out_dim", [1, 2])
@pytest.mark.parametrize("kind,width", [("mlp_hadamard", 64), ("mlp_concat", 128),
                                        ("lr_concat", 128)])
def test_ranking_scores_are_block_invariant(kind, width, out_dim, monkeypatch):
    """Blocked scoring equals one unblocked decode within 1e-12 for the BLAS
    decoders, whose matmul kernels may sum in another order for another
    block height."""
    rng = np.random.default_rng(54)
    n, emb = 80, 64
    enc = models.EncoderOutput(ad.Tensor(rng.standard_normal((n, emb))),
                               ad.Tensor(rng.standard_normal((n, emb))))
    dec = models.DecoderKind.init(rng, kind, emb, 64, out_dim)
    block = models.score_block_pairs(dec, enc)
    assert block == models.SCORE_BLOCK_BYTES // (8 * width)
    pairs = rng.integers(0, n, size=(3 * block + 17, 2))
    with ad.no_grad():
        z = models.decode(dec, enc, pairs).data
    whole = z[:, 0] if out_dim == 1 else z[:, 0] - z[:, 1]

    sizes = []
    real_decode = models.decode

    def spy(dec, enc, block_pairs):
        sizes.append(len(block_pairs))
        return real_decode(dec, enc, block_pairs)

    monkeypatch.setattr(models, "decode", spy)
    got = models.ranking_scores(dec, enc, pairs)
    assert sizes == [block, block, block, 17]
    np.testing.assert_allclose(got, whole, rtol=0, atol=1e-12)
    assert models.ranking_scores(dec, enc, np.empty((0, 2), dtype=np.int64)).shape == (0,)


def _inner_setup(rng, n, d, alias, out_dim):
    s = rng.standard_normal((n, d))
    t = s if alias else rng.standard_normal((n, d))
    enc = models.EncoderOutput(ad.Tensor(s), ad.Tensor(s) if alias else ad.Tensor(t))
    return enc, models.DecoderKind.init(rng, "inner", d, 64, out_dim), s, t


def _rows(*spans):
    """(u, v) for v in [v0, v1) minus v = u, for each (u, v0, v1)."""
    return np.array([(u, v) for u, v0, v1 in spans for v in range(v0, v1) if v != u],
                    dtype=np.int64).reshape(-1, 2)


N_INNER = 40
# name -> (embedding width, T aliases S, pairs, the path that scores them)
INNER_CASES = {
    "whole_rows": (64, False, _rows(*((u, 0, N_INNER) for u in range(3, 7))), "box"),
    "one_partial_row": (64, False, _rows((5, 3, 29)), "box"),
    "two_straddling_rows": (64, False, _rows((5, 12, N_INNER), (6, 0, 30)), "box"),
    "two_short_row_ends": (64, False, _rows((5, 34, N_INNER), (6, 0, 6)), "gathered"),
    "random": (64, False, np.random.default_rng(7).integers(0, N_INNER, (700, 2)),
               "gathered"),
    "none": (64, False, np.empty((0, 2), dtype=np.int64), None),
    "d1": (1, False, _rows((2, 0, N_INNER), (3, 0, N_INNER)), "box"),
    "d1_random": (1, False, np.random.default_rng(8).integers(0, N_INNER, (300, 2)),
                  "gathered"),
    "aliased": (64, True, _rows((1, 0, 20), (2, 0, 20)), "box"),
    "aliased_random": (64, True, np.random.default_rng(9).integers(0, N_INNER, (300, 2)),
                       "gathered"),
}


@pytest.mark.parametrize("out_dim", [1, 2])
@pytest.mark.parametrize("case", list(INNER_CASES))
def test_inner_scores_have_the_same_bits_on_both_paths(case, out_dim, monkeypatch):
    """The box path, the gathered path and one einsum per pair give equal
    bits: each sums the products of the same two rows in einsum's order.
    The box path runs when the pairs fill half of their row range by their
    column range."""
    d, alias, pairs, path = INNER_CASES[case]
    enc, dec, s, t = _inner_setup(np.random.default_rng(55), N_INNER, d, alias, out_dim)
    oracle = np.array([np.einsum("i,i->", s[u], t[v]) for u, v in pairs])
    spy = EinsumSpy()
    monkeypatch.setattr(models, "np", spy)
    got = models.ranking_scores(dec, enc, pairs)
    assert np.array_equal(got, oracle) and got.dtype == np.float64
    if path is None:
        assert spy.calls == []
        return
    # a box path runs one "id,jd->ij" einsum over S[u0:u1] and T[v0:v1]
    boxes = spy.boxes()
    assert boxes == ([True] if path == "box" else [False] * len(boxes))
    # two far corners stretch the box to n x n, so the same pairs gather
    spy.calls.clear()
    corners = [[0, N_INNER - 1], [N_INNER - 1, 0]]
    gathered = models.ranking_scores(dec, enc, np.vstack([pairs, corners]))
    assert not any(spy.boxes())
    assert np.array_equal(gathered[:len(pairs)], oracle)


def test_inner_scores_reject_a_pair_out_of_range():
    enc, dec, _, _ = _inner_setup(np.random.default_rng(56), 5, 3, False, 1)
    for bad in ([0, 5], [5, 0], [-1, 2], [2, -1]):
        with pytest.raises(IndexError, match="out of range"):
            models.ranking_scores(dec, enc, [[0, 1], bad])


@pytest.mark.parametrize("out_dim", [1, 2])
def test_inner_ranking_scores_are_block_invariant(out_dim, monkeypatch):
    """The inner decoder decodes nothing, and a pair's score has the same
    bits whatever the block height and whichever call it falls in."""
    rng = np.random.default_rng(54)
    n, emb = 80, 64
    enc, dec, s, t = _inner_setup(rng, n, emb, False, out_dim)
    block = models.score_block_pairs(dec, enc)
    assert block == models.SCORE_BLOCK_BYTES // (8 * emb)
    pairs = rng.integers(0, n, size=(3 * block + 17, 2))
    monkeypatch.setattr(models, "decode", None)
    got = models.ranking_scores(dec, enc, pairs)
    assert np.array_equal(got, [np.einsum("i,i->", s[u], t[v]) for u, v in pairs])
    for height in (1, 17, 4 * block):
        monkeypatch.setattr(models, "score_block_pairs", lambda dec, enc: height)
        assert np.array_equal(models.ranking_scores(dec, enc, pairs), got)
    pieces = [models.ranking_scores(dec, enc, pairs[i:i + 13]) for i in range(0, len(pairs), 13)]
    assert np.array_equal(np.concatenate(pieces), got)
    assert models.ranking_scores(dec, enc, np.empty((0, 2), dtype=np.int64)).shape == (0,)

import gc
import weakref

import numpy as np
import pytest

import dirlink.autodiff as ad
from dirlink.graph import DirectedGraph, adjacency, normalize_sym
from helpers import check_gradients, row_sum


def _param(rng, *shape):
    return ad.Tensor(rng.standard_normal(shape), requires_grad=True)


def test_tensor_wraps_scalars_and_rejects_higher_rank():
    t = ad.Tensor(3.0)
    assert t.shape == (1, 1)
    with pytest.raises(ValueError):
        ad.Tensor(np.zeros((2, 2, 2)))


def test_every_op_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    g = DirectedGraph(5, [[0, 1], [1, 2], [3, 4], [4, 0], [2, 3], [0, 3]])
    a = normalize_sym(g)
    w = _param(rng, 4, 3)
    b = _param(rng, 1, 3)
    x = _param(rng, 5, 4)
    s = _param(rng, 1, 1)
    gammas = [_param(rng, 1, 1) for _ in range(4)]
    idx = np.array([0, 2, 2, 4, 1])

    builders = {
        "matmul": lambda: ad.sum_all(ad.matmul(x, w)),
        "add": lambda: ad.sum_all(ad.add(x, x)),
        "add_bias": lambda: ad.sum_all(ad.add_bias(ad.matmul(x, w), b)),
        "hadamard": lambda: ad.sum_all(ad.hadamard(x, x)),
        "concat": lambda: ad.sum_all(ad.matmul(ad.concat_cols(x, x), _ones(8, 1))),
        "relu": lambda: ad.sum_all(ad.relu(ad.matmul(x, w))),
        "gather": lambda: ad.sum_all(ad.gather_rows(x, idx)),
        "pair_dot": lambda: _squared_sum(ad.pair_dot(x, ad.relu(x), idx, idx[::-1], 2)),
        "row_sum": lambda: ad.sum_all(ad.hadamard(row_sum(x), row_sum(x))),
        "scale": lambda: ad.sum_all(ad.scale(ad.matmul(x, w), s)),
        "spmm": lambda: ad.sum_all(ad.relu(ad.spmm_const(a, x))),
        "spmm_t": lambda: ad.sum_all(ad.relu(ad.spmm_const(a.T, x))),
        "sdgae_propagate": lambda: ad.sum_all(ad.hadamard(*ad.sdgae_propagate(
            a, ad.matmul(x, w), ad.hadamard(ad.matmul(x, w), ad.matmul(x, w)),
            gammas[:2], gammas[2:]))),
    }
    for name, build in builders.items():
        worst = check_gradients(build, [x, w, b, s, *gammas], rng, coords_per_tensor=4)
        assert worst < 1e-4, name


def _ones(r, c):
    return ad.Tensor(np.ones((r, c)))


def _squared_sum(z):
    return ad.sum_all(ad.hadamard(z, z))


def test_gather_rows_accumulates_duplicate_indices():
    x = ad.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = ad.gather_rows(x, np.array([1, 1, 0]))
    loss = ad.sum_all(out)
    ad.backward(loss)
    assert np.array_equal(x.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])


def test_gather_rows_scatter_matches_add_at_bitwise():
    # the CSR scatter sums each row in index order, exactly as np.add.at does
    rng = np.random.default_rng(20)
    x = _param(rng, 50, 7)
    idx = rng.integers(0, 50, size=1000)
    g = rng.standard_normal((1000, 7))
    ad.backward(ad.sum_all(ad.hadamard(ad.gather_rows(x, idx), ad.Tensor(g))))
    ref = np.zeros_like(x.data)
    np.add.at(ref, idx, g)
    assert np.array_equal(x.grad, ref)


def test_gather_rows_bounds_check():
    x = ad.Tensor(np.zeros((2, 2)))
    with pytest.raises(IndexError):
        ad.gather_rows(x, np.array([2]))


def _pair_dot_composite(s, t, u, v):
    return row_sum(ad.hadamard(ad.gather_rows(s, u), ad.gather_rows(t, v)))


@pytest.mark.parametrize("case", ["distinct", "duplicates", "empty", "aliased_leaf", "aliased_mlp"])
def test_pair_dot_matches_gather_composite_bitwise(case):
    """Same forward values and the same grads, bit for bit, as the three-op
    graph it replaces, including a T that aliases S (the MLP encoder)."""
    rng = np.random.default_rng(25)
    n, d = 40, 9
    p = {"distinct": 300, "duplicates": 1000, "empty": 0}.get(case, 1000)
    u = rng.integers(0, n, size=p)
    v = rng.integers(0, n, size=p)
    if case == "distinct":
        keys = rng.choice(n * n, size=p, replace=False)
        u, v = keys // n, keys % n
    if case == "duplicates":
        u[500:], v[500:] = u[:500], v[:500]
    g = rng.standard_normal((p, 1))
    x0 = rng.standard_normal((n, d))
    y0 = rng.standard_normal((n, d))
    w0 = rng.standard_normal((d, d))

    def run(op):
        x = ad.Tensor(x0.copy(), requires_grad=True)
        y = ad.Tensor(y0.copy(), requires_grad=True)
        w = ad.Tensor(w0.copy(), requires_grad=True)
        if case == "aliased_leaf":
            s = t = x
        elif case == "aliased_mlp":
            s = t = ad.relu(ad.matmul(x, w))
        else:
            s, t = x, y
        z = op(s, t, u, v)
        ad.backward(ad.sum_all(ad.hadamard(z, ad.Tensor(g))), params=[x, y, w])
        return z.data, x.grad, y.grad, w.grad

    fused = run(lambda s, t, u, v: ad.pair_dot(s, t, u, v, 7))
    composite = run(_pair_dot_composite)
    assert fused[0].shape == (p, 1)
    for a, b in zip(fused, composite):
        assert np.array_equal(a, b)


def test_pair_dot_checks_its_inputs():
    x = ad.Tensor(np.zeros((3, 2)))
    y = ad.Tensor(np.zeros((4, 2)))
    for u, v in (([3], [0]), ([0], [4]), ([-1], [0]), ([0], [-1])):
        with pytest.raises(IndexError):
            ad.pair_dot(x, y, np.array(u), np.array(v), 512)
    assert ad.pair_dot(x, y, np.array([2]), np.array([3]), 512).shape == (1, 1)
    with pytest.raises(ValueError, match="1-D"):
        ad.pair_dot(x, y, np.zeros((1, 1)), np.zeros((1, 1)), 512)
    with pytest.raises(ValueError, match="length"):
        ad.pair_dot(x, y, np.array([0, 1]), np.array([0]), 512)
    with pytest.raises(ValueError, match="width"):
        ad.pair_dot(x, ad.Tensor(np.zeros((4, 3))), np.array([0]), np.array([0]), 512)


def test_losses_match_finite_differences():
    rng = np.random.default_rng(11)
    w = _param(rng, 3, 1)
    w2 = _param(rng, 3, 2)
    x = ad.Tensor(rng.standard_normal((7, 3)))
    y = rng.integers(0, 2, size=7)

    check_gradients(lambda: ad.bce_with_logits(ad.matmul(x, w), y), [w], rng, 3)
    check_gradients(lambda: ad.ce_pairwise(ad.matmul(x, w2), y), [w2], rng, 6)


def test_bce_stable_at_extreme_logits():
    logits = ad.Tensor(np.array([[800.0], [-800.0]]), requires_grad=True)
    loss = ad.bce_with_logits(logits, np.array([1.0, 0.0]))
    assert float(loss.data[0, 0]) == pytest.approx(0.0, abs=1e-12)
    ad.backward(loss)
    assert np.all(np.isfinite(logits.grad))
    loss2 = ad.bce_with_logits(ad.Tensor(np.array([[-800.0]]), requires_grad=True), [1.0])
    assert float(loss2.data[0, 0]) == pytest.approx(800.0)


def test_ce_stable_and_equals_bce_with_zero_padded_logit():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((20, 1)) * 5
    y = rng.integers(0, 2, size=20)
    bce = ad.bce_with_logits(ad.Tensor(z), y)
    # class 0 = edge present; pairing each logit with a zero makes CE match
    # BCE with flipped labels: softmax([z, 0])[0] = sigmoid(z)
    padded = np.hstack([z, np.zeros_like(z)])
    ce = ad.ce_pairwise(ad.Tensor(padded), 1 - y)
    assert float(ce.data[0, 0]) == pytest.approx(float(bce.data[0, 0]), rel=1e-12)
    huge = ad.Tensor(np.array([[900.0, -900.0]]), requires_grad=True)
    loss = ad.ce_pairwise(huge, [0])
    assert float(loss.data[0, 0]) == pytest.approx(0.0, abs=1e-12)


def test_loss_rejects_bad_labels():
    z1 = ad.Tensor(np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ad.bce_with_logits(z1, [0.5, 1.0])
    z2 = ad.Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ad.ce_pairwise(z2, [0, 2])
    with pytest.raises(FloatingPointError):
        ad.bce_with_logits(ad.Tensor(np.array([[np.nan]]), requires_grad=True), [1.0])


def test_tape_orders_parents_before_children():
    rng = np.random.default_rng(13)
    x = _param(rng, 3, 3)
    w = _param(rng, 3, 3)
    h = ad.relu(ad.matmul(x, w))
    out = ad.sum_all(ad.add(ad.matmul(h, w), h))  # diamond: h used twice
    tape = ad.backward(out)
    pos = {id(t): i for i, t in enumerate(tape)}
    for t in tape:
        for p in t.parents:
            if p.requires_grad:
                assert pos[id(p)] < pos[id(t)]
    # h participates in two consumers but its rule ran once: gradient is exact
    assert np.allclose(out.data, (h.data @ w.data + h.data).sum())


def test_backward_twice_raises():
    x = _param(np.random.default_rng(14), 2, 2)
    loss = ad.sum_all(x)
    ad.backward(loss)
    with pytest.raises(RuntimeError, match="rebuild"):
        ad.backward(loss)


def test_backward_requires_scalar():
    x = _param(np.random.default_rng(15), 2, 2)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.relu(x))
    with pytest.raises(ValueError):
        ad.backward(ad.sum_all(ad.Tensor(np.ones((2, 2)))))


def test_unreachable_params_get_zero_grads():
    rng = np.random.default_rng(16)
    used = _param(rng, 2, 2)
    unused = _param(rng, 3, 3)
    ad.backward(ad.sum_all(used), params=[used, unused])
    assert np.array_equal(unused.grad, np.zeros((3, 3)))
    assert np.array_equal(used.grad, np.ones((2, 2)))


def test_stale_gradients_cleared_between_passes():
    # a parameter used in pass 1 but not pass 2 must not keep its old grad
    rng = np.random.default_rng(17)
    a = _param(rng, 2, 2)
    b = _param(rng, 2, 2)
    ad.backward(ad.sum_all(ad.hadamard(a, b)), params=[a, b])
    assert not np.array_equal(a.grad, np.zeros((2, 2)))
    ad.backward(ad.sum_all(ad.hadamard(b, b)), params=[a, b])
    assert np.array_equal(a.grad, np.zeros((2, 2)))


def test_shape_mismatches_rejected():
    x = ad.Tensor(np.ones((2, 3)))
    y = ad.Tensor(np.ones((3, 2)))
    with pytest.raises(ValueError):
        ad.add(x, y)
    with pytest.raises(ValueError):
        ad.hadamard(x, y)
    with pytest.raises(ValueError):
        ad.matmul(x, ad.Tensor(np.ones((2, 2))))
    with pytest.raises(ValueError):
        ad.add_bias(x, ad.Tensor(np.ones((1, 2))))
    with pytest.raises(ValueError):
        ad.scale(x, ad.Tensor(np.ones((2, 1))))


def test_spmm_const_matches_dense_with_gradients():
    rng = np.random.default_rng(18)
    g = DirectedGraph(4, [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]])
    m = adjacency(g)
    x = _param(rng, 4, 3)
    out = ad.spmm_const(m, x)
    assert np.allclose(out.data, m.toarray() @ x.data)
    ad.backward(ad.sum_all(out))
    assert np.allclose(x.grad, m.toarray().T @ np.ones((4, 3)))
    out_t = ad.spmm_const(m.T, ad.Tensor(x.data))
    assert np.allclose(out_t.data, m.toarray().T @ x.data)


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(19)
    p_data = rng.standard_normal((3, 2))
    target = rng.standard_normal((3, 2))

    p = ad.Tensor(p_data.copy(), requires_grad=True)
    opt = ad.AdamState([p], lr=0.05, weight_decay=0.01)

    ref = p_data.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for step in range(1, 6):
        diff = ad.add(p, ad.Tensor(-target))
        loss = ad.sum_all(ad.hadamard(diff, diff))
        ad.backward(loss, [p])
        opt.step()

        g = 2.0 * (ref - target) + 0.01 * ref
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1.0 - 0.9 ** step)
        vh = v / (1.0 - 0.999 ** step)
        ref -= 0.05 * mh / (np.sqrt(vh) + 1e-8)
        assert np.allclose(p.data, ref, atol=1e-12), step


def test_adam_requires_gradients():
    p = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    opt = ad.AdamState([p], lr=0.1)
    with pytest.raises(ValueError, match="no gradient"):
        opt.step()


def test_backward_releases_the_graph():
    rng = np.random.default_rng(21)
    x = _param(rng, 4, 3)
    w = _param(rng, 3, 2)
    gc.disable()
    try:
        h = ad.relu(ad.matmul(x, w))
        loss = ad.sum_all(h)
        ref = weakref.ref(h)
        ad.backward(loss, [x, w])
        assert h.grad is None and h.parents  # non-leaf grad freed, parents kept
        assert x.grad is not None and w.grad is not None
        del h
        assert ref() is not None  # still reachable from the loss
        del loss
        assert ref() is None  # no reference cycle keeps it alive

        # a forward pass that never reaches backward is freed just the same
        h = ad.relu(ad.matmul(x, w))
        ref = weakref.ref(h)
        del h
        assert ref() is None
    finally:
        gc.enable()


def test_backward_through_a_replayed_node_raises():
    rng = np.random.default_rng(22)
    x = _param(rng, 2, 2)
    h = ad.relu(x)
    ad.backward(ad.sum_all(h))
    with pytest.raises(RuntimeError, match="rebuild"):
        ad.backward(ad.sum_all(h))


def test_first_gradient_write_is_a_copy():
    rng = np.random.default_rng(23)
    a = _param(rng, 2, 2)
    b = _param(rng, 2, 2)
    ad.backward(ad.sum_all(ad.add(a, b)))
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    assert np.array_equal(b.grad, np.ones((2, 2)))
    ad.backward(ad.sum_all(ad.add(a, a)))
    assert np.array_equal(a.grad, np.full((2, 2), 2.0))


def _every_op_loss(leaves, a):
    """A scalar loss through every op of the engine.  A grad map that returns
    g, a view or a scalar feeds a leaf's first contribution: those of xb, c,
    q and s, and of v and v2, which one add feeds.  u's grad is first a
    hadamard's, handed over, and then a concat slice sums into it."""
    xb, b, u, c, v, v2, w6, s, q, *gammas = leaves
    idx, idx2 = np.array([0, 2, 2, 4, 1, 3]), np.array([1, 1, 4, 0, 3, 2])
    h = ad.relu(ad.add_bias(xb, b))
    s_out, t_out = ad.sdgae_propagate(a, h, ad.spmm_const(a, ad.add(v, v2)), gammas[:2],
                                      gammas[2:])
    bce = ad.bce_with_logits(ad.matmul(ad.gather_rows(ad.concat_cols(u, c), idx), w6),
                             np.array([1, 0, 1, 0, 1, 0]))
    z = ad.pair_dot(s_out, t_out, idx, idx2, 4)
    ce = ad.ce_pairwise(ad.concat_cols(z, ad.scale(z, s)), np.array([0, 1, 0, 1, 1, 0]))
    return ad.add(ad.add(ad.add(bce, ce), ad.sum_all(q)),
                  ad.sum_all(ad.hadamard(ad.hadamard(u, s_out), t_out)))


def test_handed_over_grads_share_no_memory_and_match_copies(monkeypatch):
    rng = np.random.default_rng(25)
    a = normalize_sym(DirectedGraph(5, [[0, 1], [1, 2], [3, 4], [4, 0], [2, 3], [0, 3]]))
    shapes = [(5, 3), (1, 3), (5, 3), (5, 3), (5, 3), (5, 3), (6, 1), (1, 1), (2, 2)]
    leaves = [_param(rng, *shape) for shape in shapes + [(1, 1)] * 4]
    real = ad._accumulate
    calls = []

    def spy(t, g, owned=False):
        calls.append((t, owned))
        real(t, g, owned)

    monkeypatch.setattr(ad, "_accumulate", spy)
    tape = ad.backward(_every_op_loss(leaves, a), leaves)
    grads = [p.grad for p in leaves]
    # u's first grad was handed over, and the slice summed into it
    assert [owned for t, owned in calls if t is leaves[2]] == [True, False]
    for i, g in enumerate(grads):
        assert g.shape == leaves[i].data.shape and g.base is None
        others = [t.data for t in tape] + grads[:i] + grads[i + 1:]
        assert not any(np.shares_memory(g, d) for d in others)
    # the same grads, bit for bit, when every first contribution is copied
    monkeypatch.setattr(ad, "_accumulate", lambda t, g, owned=False: real(t, g))
    ad.backward(_every_op_loss(leaves, a), leaves)
    for p, g in zip(leaves, grads):
        assert np.array_equal(p.grad, g)


def test_no_grad_records_nothing():
    rng = np.random.default_rng(24)
    x = _param(rng, 3, 3)
    with ad.no_grad():
        out = ad.relu(ad.matmul(x, x))
    assert not out.requires_grad and out.parents == () and out._backward is None
    with pytest.raises(ValueError), ad.no_grad():
        ad.matmul(x, ad.Tensor(np.ones((2, 2))))
    assert ad.matmul(x, x).requires_grad  # recording resumes on every exit

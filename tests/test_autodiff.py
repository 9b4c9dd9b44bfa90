import ast
import gc
import inspect
import warnings
import weakref

import numpy as np
import pytest

import dirlink.autodiff as ad
from dirlink.graph import DirectedGraph, adjacency, normalize_sym
from helpers import (add, add_bias, check_gradients, force_lanes, hinge_composite, row_sum,
                     scale, scatter, sum_all)


def _param(rng, *shape):
    return ad.Tensor(rng.standard_normal(shape), requires_grad=True)


def test_tensor_wraps_scalars_and_rejects_higher_rank():
    t = ad.Tensor(3.0)
    assert t.shape == (1, 1)
    with pytest.raises(ValueError):
        ad.Tensor(np.zeros((2, 2, 2)))


def _gradient_cases():
    """name -> (scalar loss builder, the parameters it reads, coordinates
    checked per parameter): a finite-difference case through each tape op,
    the engine's and the tests' own.  Each builder rebuilds its graph from
    the parameters' current data."""
    rng = np.random.default_rng(10)
    g = DirectedGraph(5, [[0, 1], [1, 2], [3, 4], [4, 0], [2, 3], [0, 3]])
    a = normalize_sym(g)
    w = _param(rng, 4, 3)
    b = _param(rng, 1, 3)
    x = _param(rng, 5, 4)
    s = _param(rng, 1, 1)
    gammas = [_param(rng, 1, 1) for _ in range(4)]
    c = _param(rng, 4, 1)
    idx = np.array([0, 2, 2, 4, 1])
    # one index for every evaluation: its plans are built on the first backward pass
    index = ad.PairIndex(np.stack([idx, idx[::-1]], axis=1), 5, 5)
    # the hinge cases' rows sit well away from the kink, on both sides of it
    pre = np.vstack([0.5 - x.data @ c.data, 0.5 + (x.data * x.data) @ c.data])
    assert np.abs(pre).min() > 0.1 and (pre > 0).any() and (pre < 0).any()

    shared = [x, w, b, s, *gammas, c]
    builders = {
        "matmul": lambda: sum_all(ad.matmul(x, w)),
        "add": lambda: sum_all(add(x, x)),
        "matmul_bias": lambda: _squared_sum(ad.matmul(x, w, b)),
        "hadamard": lambda: sum_all(ad.hadamard(x, x)),
        "concat": lambda: sum_all(ad.matmul(ad.concat_cols(x, x), _ones(8, 1))),
        "relu": lambda: sum_all(ad.relu(ad.matmul(x, w))),
        "gather": lambda: sum_all(ad.gather_rows(x, index, 0)),
        "gather_v": lambda: sum_all(ad.gather_rows(x, index, 1)),
        "pair_dot": lambda: _squared_sum(ad.pair_dot(x, ad.relu(x), index, 2)),
        "row_sum": lambda: sum_all(ad.hadamard(row_sum(x), row_sum(x))),
        "scale": lambda: sum_all(scale(ad.matmul(x, w), s)),
        "spmm": lambda: sum_all(ad.relu(ad.spmm_const(a, x, a.T))),
        "spmm_t": lambda: sum_all(ad.relu(ad.spmm_const(a.T, x, a))),
        "sdgae_propagate": lambda: sum_all(ad.hadamard(*ad.sdgae_propagate(
            a, a.T, ad.matmul(x, w), ad.hadamard(ad.matmul(x, w), ad.matmul(x, w)),
            gammas[:2], gammas[2:]))),
        "hinge": lambda: ad.hinge(ad.matmul(x, c), None, 0.5),
        "hinge_rev": lambda: ad.hinge(ad.matmul(x, c), ad.matmul(ad.hadamard(x, x), c), 0.5),
    }
    cases = {name: (build, shared, 4) for name, build in builders.items()}

    lrng = np.random.default_rng(11)
    w1 = _param(lrng, 3, 1)
    w2 = _param(lrng, 3, 2)
    z = ad.Tensor(lrng.standard_normal((7, 3)))
    y = lrng.integers(0, 2, size=7)
    cases["bce_with_logits"] = (lambda: ad.bce_with_logits(ad.matmul(z, w1), y), [w1], 3)
    cases["ce_pairwise"] = (lambda: ad.ce_pairwise(ad.matmul(z, w2), y), [w2], 6)
    return cases


def test_every_op_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    for name, (build, params, coords) in _gradient_cases().items():
        worst = check_gradients(build, params, rng, coords_per_tensor=coords)
        assert worst < 1e-4, name


def _public_ops():
    """The tape ops autodiff offers: its public functions that make their
    output through ``_op`` or ``_result``."""
    tree = ast.parse(inspect.getsource(ad))
    return {f.name for f in tree.body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            and any(isinstance(n, ast.Name) and n.id in ("_op", "_result") for n in ast.walk(f))}


def test_every_public_op_has_a_gradient_check():
    public = _public_ops()
    assert {"matmul", "pair_dot", "sdgae_propagate", "hinge", "ce_pairwise"} <= public
    checked = set()
    for build, params, _ in _gradient_cases().values():
        checked.update(t.op for t in ad.backward(build(), params))
    assert public - checked == set()


# (rows, fan-in, fan-out) of the models' dense layers: degree features into
# a hidden layer, hidden to hidden, concat rows into a head's hidden layer,
# and the one- and two-logit outputs
DENSE_LAYERS = [(200, 2, 64), (200, 64, 64), (300, 128, 64), (300, 64, 1), (300, 64, 2)]


@pytest.mark.parametrize("rows,fan_in,fan_out", DENSE_LAYERS)
def test_matmul_with_a_bias_matches_matmul_then_add_bias_bitwise(rows, fan_in, fan_out):
    """The one-node dense layer gives the value and the grads of x, w and b
    of its two-op oracle, bit for bit."""
    rng = np.random.default_rng(26)
    x, w, b = _param(rng, rows, fan_in), _param(rng, fan_in, fan_out), _param(rng, 1, fan_out)
    up = ad.Tensor(rng.standard_normal((rows, fan_out)))
    results = []
    for layer in (lambda: ad.matmul(x, w, b), lambda: add_bias(ad.matmul(x, w), b)):
        out = layer()
        ad.backward(sum_all(ad.hadamard(out, up)), [x, w, b])
        results.append([out.data, x.grad, w.grad, b.grad])
    for got, want in zip(*results):
        assert np.array_equal(got, want)
    for shape in ((1, fan_out + 1), (2, fan_out), (rows, fan_out)):
        with pytest.raises(ValueError, match="bias shape"):
            ad.matmul(x, w, ad.Tensor(np.ones(shape)))


def _ones(r, c):
    return ad.Tensor(np.ones((r, c)))


def _squared_sum(z):
    return sum_all(ad.hadamard(z, z))


def test_gather_rows_accumulates_duplicate_indices():
    x = ad.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = ad.gather_rows(x, _index([1, 1, 0], [0, 0, 0], 3, 3), 0)
    loss = sum_all(out)
    ad.backward(loss)
    assert np.array_equal(x.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])


def test_gather_rows_scatter_matches_add_at_bitwise():
    # the CSR scatter sums each row in index order, exactly as np.add.at does
    rng = np.random.default_rng(20)
    x = _param(rng, 50, 7)
    idx = rng.integers(0, 50, size=1000)
    g = rng.standard_normal((1000, 7))
    ad.backward(sum_all(ad.hadamard(ad.gather_rows(x, _index(idx, idx, 50, 50), 0),
                                    ad.Tensor(g))))
    ref = np.zeros_like(x.data)
    np.add.at(ref, idx, g)
    assert np.array_equal(x.grad, ref)


def test_gather_rows_bounds_check():
    x = ad.Tensor(np.zeros((2, 2)))
    with pytest.raises(IndexError):
        ad.PairIndex([[2, 0]], 2, 2)
    with pytest.raises(ValueError, match="rows"):
        ad.gather_rows(x, _index([0], [0], 3, 2), 0)
    assert ad.gather_rows(x, _index([0], [1], 3, 2), 1).shape == (1, 2)


def _index(u, v, n_u, n_v):
    return ad.PairIndex(np.stack([u, v], axis=1), n_u, n_v)


def _pair_dot_composite(s, t, index):
    return row_sum(ad.hadamard(ad.gather_rows(s, index, 0), ad.gather_rows(t, index, 1)))


@pytest.mark.parametrize("laned", [False, True])
@pytest.mark.parametrize("case", ["distinct", "duplicates", "empty", "aliased_leaf", "aliased_mlp"])
def test_pair_dot_matches_gather_composite_bitwise(case, laned, monkeypatch):
    """Same forward values and the same grads, bit for bit, as the three-op
    graph it replaces, including a T that aliases S (the MLP encoder), with
    its two halves of blocks and its two backward products on one thread
    or on two."""
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
        z = op(s, t, _index(u, v, n, n))
        ad.backward(sum_all(ad.hadamard(z, ad.Tensor(g))), params=[x, y, w])
        return z.data, x.grad, y.grad, w.grad

    composite = run(_pair_dot_composite)
    threads = force_lanes(monkeypatch) if laned else []
    fused = run(lambda s, t, index: ad.pair_dot(s, t, index, 7))
    assert len(threads) == (2 if laned else 0)  # the forward pass and the backward pass
    assert fused[0].shape == (p, 1)
    for a, b in zip(fused, composite):
        assert np.array_equal(a, b)


def test_pair_dot_checks_its_inputs():
    x = ad.Tensor(np.zeros((3, 2)))
    y = ad.Tensor(np.zeros((4, 2)))
    for u, v in (([3], [0]), ([0], [4]), ([-1], [0]), ([0], [-1])):
        with pytest.raises(IndexError):
            _index(u, v, 3, 4)
    assert ad.pair_dot(x, y, _index([2], [3], 3, 4), 512).shape == (1, 1)
    with pytest.raises(ValueError, match=r"\(P, 2\)"):
        ad.PairIndex(np.zeros((1, 3)), 3, 4)
    with pytest.raises(ValueError, match="rows"):
        ad.pair_dot(x, y, _index([0], [0], 3, 3), 512)
    with pytest.raises(ValueError, match="width"):
        ad.pair_dot(x, ad.Tensor(np.zeros((4, 3))), _index([0], [0], 3, 4), 512)


@pytest.mark.parametrize("case", ["repeated", "aliased", "empty", "one_column"])
def test_pair_index_grads_match_the_scatter_oracle_bitwise(case):
    """The grads of pair_dot and of gather_rows through one PairIndex equal
    the products with the oracle CSR, bit for bit, on the pass that builds
    the plans and on a second pass that reuses them: 800 pairs on at most
    600 distinct ones repeat pairs and rows, and an aliased T sums its dT
    and dS into S's grad."""
    rng = np.random.default_rng(31)
    aliased = case == "aliased"
    n_u, n_v = (30, 30) if aliased else (30, 20)
    d = 1 if case == "one_column" else 6
    p = 0 if case == "empty" else 800
    u, v = rng.integers(0, n_u, size=p), rng.integers(0, n_v, size=p)
    index = _index(u, v, n_u, n_v)
    for _ in range(2):
        s0, t0 = rng.standard_normal((n_u, d)), rng.standard_normal((n_v, d))
        g, h = rng.standard_normal((p, 1)), rng.standard_normal((2, p, d))
        s = ad.Tensor(s0, requires_grad=True)
        t = s if aliased else ad.Tensor(t0, requires_grad=True)
        ad.backward(sum_all(ad.hadamard(ad.pair_dot(s, t, index, 7), ad.Tensor(g))))
        ds = scatter(u, v, g[:, 0], (n_u, n_v)) @ t.data
        dt = scatter(v, u, g[:, 0], (n_v, n_u)) @ s.data
        if aliased:
            assert np.array_equal(s.grad, dt + ds)
        else:
            assert np.array_equal(s.grad, ds) and np.array_equal(t.grad, dt)
        gathered = [ad.gather_rows(x, index, side) for side, x in enumerate((s, t))]
        if aliased:
            loss = sum_all(ad.hadamard(ad.concat_cols(*gathered), ad.Tensor(np.hstack(h))))
        else:
            loss = add(*(sum_all(ad.hadamard(a, ad.Tensor(b))) for a, b in zip(gathered, h)))
        ad.backward(loss)
        positions, ones = np.arange(p), np.ones(p)
        gu = scatter(u, positions, ones, (n_u, p)) @ h[0]
        gv = scatter(v, positions, ones, (n_v, p)) @ h[1]
        if aliased:
            assert np.array_equal(s.grad, gu + gv)
        else:
            assert np.array_equal(s.grad, gu) and np.array_equal(t.grad, gv)
    assert sorted(index._plans) == [(0, False), (0, True), (1, False), (1, True)]


@pytest.mark.parametrize("with_rev", [False, True])
@pytest.mark.parametrize("logits", ["leaf", "pair_dot"])
def test_hinge_matches_its_composite_bitwise(logits, with_rev):
    """The same value and leaf grads, bit for bit, as the add, scale, relu
    and sum_all graph it replaces, signed zeros included: rows exactly at
    the margin are inactive, and an inactive pos row's grad is -0.0."""
    rng = np.random.default_rng(27)
    margin = 0.1
    n, d, p_pos, p_rev = 12, 3, 40, 30
    x0, y0 = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    pos0, rev0 = rng.standard_normal((p_pos, 1)), rng.standard_normal((p_rev, 1))
    pos0[:4], rev0[:4] = margin, -margin
    u, v = rng.integers(0, n, size=(2, p_pos + p_rev))

    def run(loss_fn):
        x, y, pos, rev = (ad.Tensor(a.copy(), requires_grad=True) for a in (x0, y0, pos0, rev0))
        if logits == "pair_dot":
            pos = ad.pair_dot(x, y, _index(u[:p_pos], v[:p_pos], n, n), 16)
            rev = ad.pair_dot(x, y, _index(u[p_pos:], v[p_pos:], n, n), 16)
        leaves = [x, y] if logits == "pair_dot" else [pos, rev]
        loss = loss_fn(pos, rev if with_rev else None, margin)
        ad.backward(loss, leaves)
        return [loss.data] + [t.grad for t in leaves]

    fused, composite = run(ad.hinge), run(hinge_composite)
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(fused, composite))
    if logits == "leaf":
        assert np.all(fused[1][:4] == 0.0) and np.all(np.signbit(fused[1][:4]))
        assert np.all(fused[2][:4] == 0.0) and not np.any(np.signbit(fused[2][:4]))
        assert fused[0][0, 0] > 0.0 and np.any(fused[1] != 0.0)


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
    out = sum_all(add(ad.matmul(h, w), h))  # diamond: h used twice
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
    loss = sum_all(x)
    ad.backward(loss)
    with pytest.raises(RuntimeError, match="rebuild"):
        ad.backward(loss)


def test_backward_requires_scalar():
    x = _param(np.random.default_rng(15), 2, 2)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.relu(x))
    with pytest.raises(ValueError):
        ad.backward(sum_all(ad.Tensor(np.ones((2, 2)))))


def test_unreachable_params_get_zero_grads():
    rng = np.random.default_rng(16)
    used = _param(rng, 2, 2)
    unused = _param(rng, 3, 3)
    ad.backward(sum_all(used), params=[used, unused])
    assert np.array_equal(unused.grad, np.zeros((3, 3)))
    assert np.array_equal(used.grad, np.ones((2, 2)))


def test_stale_gradients_cleared_between_passes():
    # a parameter used in pass 1 but not pass 2 must not keep its old grad
    rng = np.random.default_rng(17)
    a = _param(rng, 2, 2)
    b = _param(rng, 2, 2)
    ad.backward(sum_all(ad.hadamard(a, b)), params=[a, b])
    assert not np.array_equal(a.grad, np.zeros((2, 2)))
    ad.backward(sum_all(ad.hadamard(b, b)), params=[a, b])
    assert np.array_equal(a.grad, np.zeros((2, 2)))


def test_shape_mismatches_rejected():
    x = ad.Tensor(np.ones((2, 3)))
    y = ad.Tensor(np.ones((3, 2)))
    with pytest.raises(ValueError):
        add(x, y)
    with pytest.raises(ValueError):
        ad.hadamard(x, y)
    with pytest.raises(ValueError):
        ad.matmul(x, ad.Tensor(np.ones((2, 2))))
    with pytest.raises(ValueError):
        ad.matmul(x, y, ad.Tensor(np.ones((1, 3))))
    with pytest.raises(ValueError):
        scale(x, ad.Tensor(np.ones((2, 1))))
    with pytest.raises(ValueError, match="hinge"):
        ad.hinge(x, None, 0.1)
    with pytest.raises(ValueError, match="hinge"):
        ad.hinge(ad.Tensor(np.ones((2, 1))), x, 0.1)


def test_spmm_const_matches_dense_with_gradients():
    rng = np.random.default_rng(18)
    g = DirectedGraph(4, [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]])
    m = adjacency(g)
    x = _param(rng, 4, 3)
    out = ad.spmm_const(m, x, m.T)
    assert np.allclose(out.data, m.toarray() @ x.data)
    ad.backward(sum_all(out))
    assert np.allclose(x.grad, m.toarray().T @ np.ones((4, 3)))
    out_t = ad.spmm_const(m.T, ad.Tensor(x.data), m)
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
        diff = add(p, ad.Tensor(-target))
        loss = sum_all(ad.hadamard(diff, diff))
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
        loss = sum_all(h)
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
    ad.backward(sum_all(h))
    with pytest.raises(RuntimeError, match="rebuild"):
        ad.backward(sum_all(h))


def test_first_gradient_write_is_a_copy():
    rng = np.random.default_rng(23)
    a = _param(rng, 2, 2)
    b = _param(rng, 2, 2)
    ad.backward(sum_all(add(a, b)))
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    assert np.array_equal(b.grad, np.ones((2, 2)))
    ad.backward(sum_all(add(a, a)))
    assert np.array_equal(a.grad, np.full((2, 2), 2.0))


def _every_op_loss(leaves, a):
    """A scalar loss through every op, the engine's and the tests' own.  A
    grad map that copies g or a slice of g, fills a shape with it or sums it
    to (1, 1) feeds a leaf's first contribution: those of xb, c, q, s and b6,
    and of v and v2, which one add feeds.  u's grad is first a hadamard's, and
    then a concat slice sums into it; r's only grad is the hinge's."""
    xb, b, u, c, v, v2, w6, s, q, r, b6, *gammas = leaves
    index = _index([0, 2, 2, 4, 1, 3], [1, 1, 4, 0, 3, 2], 5, 5)
    h = ad.relu(add_bias(xb, b))
    s_out, t_out = ad.sdgae_propagate(a, a.T, h, ad.spmm_const(a, add(v, v2), a.T),
                                      gammas[:2], gammas[2:])
    bce = ad.bce_with_logits(ad.matmul(ad.gather_rows(ad.concat_cols(u, c), index, 0), w6, b6),
                             np.array([1, 0, 1, 0, 1, 0]))
    z = ad.pair_dot(s_out, t_out, index, 4)
    ce = ad.ce_pairwise(ad.concat_cols(z, scale(z, s)), np.array([0, 1, 0, 1, 1, 0]))
    return add(add(add(add(bce, ce), sum_all(q)), ad.hinge(z, r, 0.1)),
               sum_all(ad.hadamard(ad.hadamard(u, s_out), t_out)))


def test_handed_over_grads_share_no_memory_and_match_copies(monkeypatch):
    rng = np.random.default_rng(25)
    a = normalize_sym(DirectedGraph(5, [[0, 1], [1, 2], [3, 4], [4, 0], [2, 3], [0, 3]]))
    shapes = [(5, 3), (1, 3), (5, 3), (5, 3), (5, 3), (5, 3), (6, 1), (1, 1), (2, 2), (6, 1), (1, 1)]
    leaves = [_param(rng, *shape) for shape in shapes + [(1, 1)] * 4]
    real = ad._accumulate
    tape = ad.backward(_every_op_loss(leaves, a), leaves)
    grads = [p.grad for p in leaves]
    assert "hinge" in {t.op for t in tape}
    for i, g in enumerate(grads):
        assert g.shape == leaves[i].data.shape and g.base is None
        others = [t.data for t in tape] + grads[:i] + grads[i + 1:]
        assert not any(np.shares_memory(g, d) for d in others)
    # the same grads, bit for bit, when every first contribution is copied
    monkeypatch.setattr(ad, "_accumulate", lambda t, g: real(t, g.copy()))
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


def test_blas_cap_warns_once_naming_a_library_it_cannot_cap(monkeypatch):
    calls = []

    def setter(threads):
        calls.append(threads)

    monkeypatch.setattr(ad, "_blas_setters", lambda: [("/usr/lib/libopenblas.so.0", None)])
    with pytest.warns(RuntimeWarning) as record:
        ad.cap_blas_threads()
    assert len(record) == 1 and "/usr/lib/libopenblas.so.0 has none of" in str(record[0].message)
    monkeypatch.setattr(ad, "_blas_setters", lambda: [])
    with pytest.warns(RuntimeWarning, match="no OpenBLAS library is loaded"):
        ad.cap_blas_threads()
    # scipy's own OpenBLAS, mapped beside numpy's, has other names: no warning then
    monkeypatch.setattr(ad, "_blas_setters", lambda: [("scipy.so", None), ("numpy.so", setter)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ad.cap_blas_threads()
    assert calls == [1]

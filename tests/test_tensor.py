"""Autodiff engine tests: hand-computed values, central finite differences,
numerical stability, and graph bookkeeping."""

import numpy as np
import pytest

from helpers import unfused_attention, unfused_gelu, unfused_layer_norm, unfused_linear
import ractr.tensor as T


def numeric_grads(forward, params, h=1e-5):
    """Central finite differences of a scalar-valued forward() in each
    parameter element. Mutates param data in place and restores it."""
    out = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = forward()
            flat[i] = orig - h
            lo = forward()
            flat[i] = orig
            gf[i] = (hi - lo) / (2.0 * h)
        out.append(g)
    return out


def analytic_grads(build, params):
    return build().backward(params)


def max_rel_err(ga, gn):
    # floored at unit scale so near-zero gradients compare absolutely
    return float(np.max(np.abs(ga - gn) / np.maximum(1.0, np.abs(gn))))


def check_op(build, params, tol=1e-4):
    ga = analytic_grads(build, params)
    gn = numeric_grads(lambda: float(build().data), params)
    for a, n in zip(ga, gn):
        assert max_rel_err(a, n) <= tol


class scalarize:
    """Project an op output to a scalar with a random weighting so the loss is
    sensitive to every output element. Weights are drawn once on first use and
    then frozen, keeping repeated forward passes identical for the FD probe."""

    def __init__(self, rng):
        self.rng = rng
        self.w = None

    def __call__(self, t: T.Tensor) -> T.Tensor:
        if self.w is None or self.w.shape != t.shape:
            self.w = self.rng.normal(size=t.shape)
        return T.tsum(T.mul(t, self.w))


# ---------------------------------------------------------------- values

def test_matmul_small_example():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[1.0], [1.0]])
    out = T.matmul(a, b)
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_softmax_quarter_three_quarters():
    x = T.Tensor([0.0, np.log(3.0)])
    out = T.softmax_lastdim(x)
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(size=(4, 7)))
    out = T.softmax_lastdim(x)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_masked_entries_exactly_zero():
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    mask = np.array([True, True, False, True, False])
    out = T.softmax_lastdim(x, mask)
    assert np.all(out.data[:, ~mask] == 0.0)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
    # no gradient reaches masked logits
    (gx,) = T.tsum(T.mul(out, rng.normal(size=out.shape))).backward([x])
    assert np.all(gx[:, ~mask] == 0.0)


def test_softmax_fully_masked_row_raises():
    x = T.Tensor(np.zeros((2, 3)))
    mask = np.array([[True, True, True], [False, False, False]])
    with pytest.raises(ValueError):
        T.softmax_lastdim(x, mask)


def test_layer_norm_unit_example():
    x = T.Tensor([1.0, 2.0, 3.0])
    gamma = T.Tensor(np.ones(3))
    beta = T.Tensor(np.zeros(3))
    out = T.layer_norm(x, gamma, beta)
    root = np.sqrt(1.5)  # (x - 2) / sqrt(2/3), eps shifts the 5th decimal
    assert np.allclose(out.data, [-root, 0.0, root], atol=1e-4)
    assert abs(out.data.sum()) < 1e-12


def test_sigmoid_values():
    x = T.Tensor([0.0, 1e3, -1e3])
    out = T.sigmoid(x)
    assert out.data[0] == 0.5
    assert 0.0 < out.data[2] < 1e-300 or out.data[2] == 0.0
    assert out.data[1] == 1.0


def test_clamp_keeps_boundary_gradient():
    x = T.Tensor([0.0, 0.5, 1.0, 1.5, -0.5], requires_grad=True)
    out = T.clamp(x, 0.0, 1.0)
    assert np.array_equal(out.data, [0.0, 0.5, 1.0, 1.0, 0.0])
    (gx,) = T.tsum(out).backward([x])
    # boundary values are inside the admissible range: gradient passes
    assert np.array_equal(gx, [1.0, 1.0, 1.0, 0.0, 0.0])


def test_prefix_slice_corner():
    a = T.Tensor(np.arange(24.0).reshape(2, 3, 4))
    assert T.prefix_slice(a, (2, 3)) is a  # the whole tensor: no node
    out = T.prefix_slice(a, (2, 1, 2))
    assert np.array_equal(out.data, a.data[:, :1, :2])
    assert out.data.flags.c_contiguous
    for bad in ((3, 1), (2, -1), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="not a corner"):
            T.prefix_slice(a, bad)


def test_gather_rows_out_of_range():
    table = T.Tensor(np.zeros((4, 2)))
    with pytest.raises(IndexError):
        T.gather_rows(table, np.array([0, 4]))
    with pytest.raises(IndexError):
        T.gather_rows(table, np.array([-1]))


def test_gather_rows_repeated_ids_accumulate():
    table = T.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    out = T.gather_rows(table, np.array([1, 1, 3]))
    (gt,) = T.tsum(out).backward([table])
    assert np.array_equal(gt, [[0, 0], [2, 2], [0, 0], [1, 1]])


# ---------------------------------------------------------------- gradients

def op_cases():
    rng = np.random.default_rng(7)
    proj = scalarize(rng)

    def p(*shape):
        return T.Tensor(rng.normal(size=shape), requires_grad=True)

    cases = []

    a, b = p(3, 4), p(3, 4)
    cases.append(("add", [a, b], lambda: proj(T.add(a, b))))

    c, d = p(2, 5), p(5)  # broadcast on the second operand
    cases.append(("sub_broadcast", [c, d], lambda: proj(T.sub(c, d))))

    e, f = p(4, 1, 3), p(3,)
    cases.append(("mul_broadcast", [e, f], lambda: proj(T.mul(e, f))))

    g, h = p(2, 3, 4), p(4, 5)  # batched x unbatched
    cases.append(("matmul_batched", [g, h], lambda: proj(T.matmul(g, h))))

    i = p(2, 3, 4)
    cases.append(("transpose", [i], lambda: proj(T.transpose(i, (1, 0, 2)))))

    j = p(6, 4)
    cases.append(("reshape", [j], lambda: proj(T.reshape(j, (2, 12)))))

    k = p(3, 5)
    cases.append(("sum_axis", [k], lambda: proj(T.tsum(k, axis=1))))
    cases.append(("sum_all", [k], lambda: T.tsum(k)))
    cases.append(("sum_keepdims", [k], lambda: proj(T.tsum(k, axis=0, keepdims=True))))
    cases.append(("mean_axis", [k], lambda: proj(T.tmean(k, axis=1))))

    m = p(4, 3)
    cases.append(("sigmoid", [m], lambda: proj(T.sigmoid(m))))
    cases.append(("exp", [m], lambda: proj(T.texp(m))))
    cases.append(("gelu", [m], lambda: proj(T.gelu(m))))

    pos = T.Tensor(np.exp(rng.normal(size=(3, 3))) + 0.5, requires_grad=True)
    cases.append(("log", [pos], lambda: proj(T.tlog(pos))))

    # keep inputs away from the relu kink and clamp corners by >> h
    r = T.Tensor(rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.2,
                 requires_grad=True)
    cases.append(("relu", [r], lambda: proj(T.relu(r))))
    cl = T.Tensor(rng.uniform(-2.0, 2.0, size=(3, 4)), requires_grad=True)
    cl.data[np.abs(cl.data - 1.0) < 0.05] += 0.1
    cl.data[np.abs(cl.data + 1.0) < 0.05] += 0.1
    cases.append(("clamp", [cl], lambda: proj(T.clamp(cl, -1.0, 1.0))))

    s = p(2, 6)
    cases.append(("softmax", [s], lambda: proj(T.softmax_lastdim(s))))
    sm = p(2, 6)
    smask = np.array([True, True, False, True, False, True])
    cases.append(("softmax_masked", [sm],
                  lambda: proj(T.softmax_lastdim(sm, smask))))

    x, ga, be = p(3, 5), p(5), p(5)
    cases.append(("layer_norm", [x, ga, be],
                  lambda: proj(T.layer_norm(x, ga, be))))

    tab = p(6, 4)
    ids = np.array([[0, 2], [5, 2]])
    cases.append(("gather_rows", [tab], lambda: proj(T.gather_rows(tab, ids))))

    s1, s2, s3 = p(2, 3), p(2, 3), p(2, 3)
    cases.append(("stack", [s1, s2, s3],
                  lambda: proj(T.stack([s1, s2, s3], axis=1))))
    c1, c2 = p(2, 3), p(2, 5)
    cases.append(("concat_lastdim", [c1, c2],
                  lambda: proj(T.concat_lastdim([c1, c2]))))

    wa, wb = p(3, 4), p(3, 4)
    wc = rng.random((3, 4)) < 0.5
    cases.append(("where_mask", [wa, wb],
                  lambda: proj(T.where_mask(wc, wa, wb))))

    tok = p(2, 3, 4, 5)
    cases.append(("token_at", [tok], lambda: proj(T.token_at(tok, 1, 2))))
    cases.append(("prefix_slice", [tok], lambda: proj(T.prefix_slice(tok, (2, 2, 1)))))

    comp_a, comp_b = p(3, 4), p(4, 4)
    def composite():
        h1 = T.matmul(comp_a, comp_b)
        h2 = T.gelu(h1)
        return T.tsum(T.mul(T.softmax_lastdim(h2), h1))
    cases.append(("composite", [comp_a, comp_b], composite))

    return cases


@pytest.mark.parametrize("name,params,build", op_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_gradients_match_finite_differences(name, params, build):
    check_op(build, params)


def test_gradients_deterministic():
    def run():
        rng = np.random.default_rng(11)
        a = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        loss = T.tsum(T.mul(T.softmax_lastdim(T.matmul(a, b)), rng.normal(size=(3, 3))))
        ga, gb = loss.backward([a, b])
        return float(loss.data), ga, gb

    l1, ga1, gb1 = run()
    l2, ga2, gb2 = run()
    assert l1 == l2
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


# ---------------------------------------------------------------- fused ops

@pytest.mark.parametrize("lead", ((2, 3), (2, 3, 2)), ids=("3d", "4d"))
def test_linear_gradients_match_finite_differences(lead):
    rng = np.random.default_rng(21)
    proj = scalarize(rng)
    x = T.Tensor(rng.normal(size=(*lead, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(5,)), requires_grad=True)
    check_op(lambda: proj(T.linear(x, w, b)), [x, w, b])


def attention_inputs(rng, g=3, tq=2, tk=4, h=2, dh=3):
    """Queries and keys/values of different lengths, and a key mask that
    pads some keys of every group but the first."""
    q, k, v = (T.Tensor(rng.normal(size=(g, t, h, dh)), requires_grad=True)
               for t in (tq, tk, tk))
    key_mask = np.ones((g, tk), dtype=bool)
    key_mask[1:, tk // 2:] = False
    return q, k, v, key_mask


def test_attention_gradients_match_finite_differences():
    rng = np.random.default_rng(22)
    proj = scalarize(rng)
    q, k, v, key_mask = attention_inputs(rng)
    check_op(lambda: proj(T.attention(q, k, v, 0.5, key_mask)), [q, k, v])
    check_op(lambda: proj(T.attention(q, k, v, 0.5)), [q, k, v])


def test_masked_keys_get_zero_weight_and_zero_gradient():
    rng = np.random.default_rng(23)
    q, k, v, key_mask = attention_inputs(rng)
    w = rng.normal(size=(3, 2, 2, 3))
    out = T.attention(q, k, v, 0.5, key_mask)
    gq, gk, gv = T.tsum(T.mul(out, w)).backward([q, k, v])
    assert np.all(gk[~key_mask] == 0.0) and np.all(gv[~key_mask] == 0.0)
    assert np.all(gk[key_mask] != 0.0) and np.all(gv[key_mask] != 0.0)
    # zero weight: a masked key's content changes no output bit
    noisy_k, noisy_v = k.data.copy(), v.data.copy()
    noisy_k[~key_mask] += rng.normal(0, 100.0, size=noisy_k[~key_mask].shape)
    noisy_v[~key_mask] += rng.normal(0, 100.0, size=noisy_v[~key_mask].shape)
    got = T.attention(q, T.Tensor(noisy_k), T.Tensor(noisy_v), 0.5, key_mask)
    assert got.data.tobytes() == out.data.tobytes()


def test_attention_fully_masked_row_raises():
    rng = np.random.default_rng(24)
    q, k, v, key_mask = attention_inputs(rng)
    key_mask[2] = False
    with pytest.raises(ValueError):
        T.attention(q, k, v, 0.5, key_mask)


@pytest.mark.parametrize("masked", (False, True), ids=("unmasked", "masked"))
def test_fused_ops_match_the_unfused_nodes(masked):
    """Each fused op against the separate nodes it replaces: the forward
    bit for bit, the gradients within rounding."""
    rng = np.random.default_rng(25)
    q, k, v, key_mask = attention_inputs(rng)
    key_mask = key_mask if masked else None
    x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    gamma, beta = (T.Tensor(rng.normal(size=4), requires_grad=True) for _ in range(2))
    cases = [
        ((lambda: T.attention(q, k, v, 0.5, key_mask)),
         (lambda: unfused_attention(q, k, v, 0.5, key_mask)), [q, k, v]),
        ((lambda: T.linear(x, w, gamma)), (lambda: unfused_linear(x, w, gamma)), [x, w, gamma]),
        ((lambda: T.layer_norm(x, gamma, beta)),
         (lambda: unfused_layer_norm(x, gamma, beta)), [x, gamma, beta]),
        ((lambda: T.gelu(x)), (lambda: unfused_gelu(x)), [x]),
    ]
    for fused, unfused, params in cases:
        f, u = fused(), unfused()
        assert f.data.tobytes() == u.data.tobytes()
        wts = rng.normal(size=f.shape)
        for gf, gu in zip(T.tsum(T.mul(f, wts)).backward(params),
                          T.tsum(T.mul(u, wts)).backward(params)):
            assert np.abs(gf - gu).max() <= 1e-13 * max(1.0, np.abs(gu).max())


# ---------------------------------------------------------------- stability

def test_large_inputs_stay_finite():
    rng = np.random.default_rng(3)
    big = rng.uniform(-1e3, 1e3, size=(4, 8))
    x = T.Tensor(big, requires_grad=True)
    for op in (T.sigmoid, T.gelu, T.softmax_lastdim):
        out = op(x)
        assert np.isfinite(out.data).all()
        (gx,) = T.tsum(out).backward([x])
        assert np.isfinite(gx).all()
    gamma = T.Tensor(np.ones(8), requires_grad=True)
    beta = T.Tensor(np.zeros(8), requires_grad=True)
    out = T.layer_norm(x, gamma, beta)
    assert np.isfinite(out.data).all()
    (gx,) = T.tsum(out).backward([x])
    assert np.isfinite(gx).all()


# ---------------------------------------------------------------- bookkeeping

def test_second_backward_returns_equal_gradients():
    # backward stores nothing, so the same root backpropagates again alike
    x = T.Tensor([2.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    (first,) = loss.backward([x])
    (second,) = loss.backward([x])
    assert np.array_equal(first, [4.0]) and np.array_equal(second, first)


def test_backward_needs_scalar():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        T.mul(x, 2.0).backward([x])


def test_disconnected_parameter_gets_no_grad():
    x = T.Tensor([1.0], requires_grad=True)
    unused = T.Tensor([5.0], requires_grad=True)
    gx, gu = T.tsum(T.mul(x, 3.0)).backward([x, unused])
    assert np.array_equal(gu, [0.0])
    assert np.array_equal(gx, [3.0])


def test_grads_accumulate_across_backwards():
    # gradients are values: two graphs' gradients sum, and neither is stored
    x = T.Tensor([2.0], requires_grad=True)
    (g3,) = T.tsum(T.mul(x, 3.0)).backward([x])
    (g4,) = T.tsum(T.mul(x, 4.0)).backward([x])
    assert np.array_equal(g3 + g4, [7.0])
    assert np.array_equal(g3, [3.0]) and np.array_equal(x.data, [2.0])
    assert not hasattr(x, "grad")


def test_diamond_graph_accumulates_through_shared_node():
    x = T.Tensor([3.0], requires_grad=True)
    y = T.mul(x, 2.0)           # y = 2x
    z = T.add(T.mul(y, y), y)   # z = 4x^2 + 2x, dz/dx = 8x + 2 = 26
    (gx,) = T.tsum(z).backward([x])
    assert np.allclose(gx, [26.0], atol=1e-12)


def test_python_scalars_promote():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    out = T.sub(T.add(1.0, T.mul(2.0, x)), 0.5)
    assert np.array_equal(out.data, [2.5, 4.5])
    (gx,) = T.tsum(out).backward([x])
    assert np.array_equal(gx, [2.0, 2.0])


def test_op_over_constants_builds_no_node():
    # graph building is a property of the inputs: an op builds a node only
    # when one of them requires grad
    c = T.Tensor([1.0, 2.0])
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    for out in (T.mul(c, 2.0), T.add(c, c), T.tsum(T.mul(c, c))):
        assert not out.requires_grad and out._parents == () and out._backward_fn is None
    assert np.array_equal(T.mul(c, 2.0).data, [2.0, 4.0])
    mixed = T.mul(x, c)
    assert mixed.requires_grad and mixed._parents and mixed._backward_fn is not None
    (gx,) = T.tsum(mixed).backward([x])
    assert np.array_equal(gx, [1.0, 2.0])

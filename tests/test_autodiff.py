import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalvit import autodiff
from fractalvit.autodiff import Tape, Tensor
from fractalvit.errors import ContractError, InvalidMaskError, ShapeError


def matmul_oracle(a, b):
    """Naive triple loop; the independent reference for matmul."""
    m, p = a.shape
    p2, q = b.shape
    assert p == p2
    out = np.zeros((m, q))
    for i in range(m):
        for j in range(q):
            acc = 0.0
            for r in range(p):
                acc += a[i, r] * b[r, j]
            out[i, j] = acc
    return out


def fd_gradient(fn, x, eps=1e-5):
    """Central finite differences of a scalar fn at array x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        plus = fn()
        flat[i] = saved - eps
        minus = fn()
        flat[i] = saved
        gflat[i] = (plus - minus) / (2 * eps)
    return grad


def rel_err(a, b):
    return np.abs(a - b) / np.maximum.reduce(
        [np.abs(a), np.abs(b), np.full_like(a, 1e-6)]
    )


def weighted_sum(t, y, w):
    """The scalar loss sum(y * w), as a (1, 1) tensor built from live ops:
    ``y`` gets exactly ``w`` as its gradient."""
    n = y.data.size
    return t.linear(t.reshape(y, (1, n)), Tensor(np.reshape(w, (1, n))))


# ----------------------------------------------------------------------
# matmul: the tape's one matrix product is ``linear``, x @ w.T
# ----------------------------------------------------------------------

def test_matmul_identity():
    t = Tape()
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = t.linear(a, Tensor(np.eye(2)))
    assert np.array_equal(out.data, a.data)


def test_matmul_known_product():
    t = Tape()
    out = t.linear(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0]]))
    assert np.array_equal(out.data, [[17.0], [39.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    t = Tape(recording=False)
    for _ in range(20):
        m, p, q = rng.integers(1, 17, size=3)
        a = rng.standard_normal((m, p))
        b = rng.standard_normal((p, q))
        out = t.linear(Tensor(a), Tensor(b.T))
        assert np.abs(out.data - matmul_oracle(a, b)).max() < 1e-12


def test_matmul_shape_error_names_both_shapes():
    t = Tape()
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
        t.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_matmul_grad_of_sum_is_ones_outer():
    t = Tape()
    a = Tensor(np.random.default_rng(1).standard_normal((3, 4)))
    b = np.random.default_rng(2).standard_normal((4, 2))
    w = Tensor(b.T)
    t.backward(weighted_sum(t, t.linear(a, w), np.ones((3, 2))))
    assert np.allclose(a.grad, np.ones((3, 2)) @ b.T, atol=1e-12)
    assert np.allclose(w.grad.T, a.data.T @ np.ones((3, 2)), atol=1e-12)


def test_matmul_grads_match_finite_differences():
    rng = np.random.default_rng(3)
    a = Tensor(rng.standard_normal((3, 5)))
    w = Tensor(rng.standard_normal((2, 5)))
    t = Tape()
    t.backward(weighted_sum(t, t.linear(a, w), np.ones((3, 2))))
    notape = Tape(recording=False)

    def run():
        return weighted_sum(notape, notape.linear(a, w), np.ones((3, 2))).data.item()

    for tensor in (a, w):
        fd = fd_gradient(run, tensor.data)
        assert rel_err(tensor.grad, fd).max() < 1e-4


# ----------------------------------------------------------------------
# masked softmax: the attention weights, read off ``attention``
# ----------------------------------------------------------------------

def mask_bias(mask):
    """The additive table of a boolean mask: 0 allowed, -inf excluded."""
    return np.where(mask, 0.0, -np.inf)


def softmax_rows(t, q, bias, heads=1):
    """softmax(q_i / sqrt(n) + bias) of every head i, from ``Tape.attention``
    with identity keys and values: the scores are the queries, scaled, and
    the output is the weights. ``q`` and the result are (b*n, heads*n)
    rows; n is the last axis of the bias table."""
    n = bias.shape[-1]
    eye = Tensor(np.tile(np.eye(n), (q.shape[0] // n, heads)))
    return t.attention(q, eye, eye, bias, heads)


def test_masked_softmax_single_allowed_entry():
    t = Tape()
    out = softmax_rows(t, Tensor(np.zeros((2, 2))),
                       np.array([[0.0, -np.inf], [0.0, 0.0]]))
    assert np.array_equal(out.data, [[1.0, 0.0], [0.5, 0.5]])
    assert out.data[0, 1] == 0.0 and not np.signbit(out.data[0, 1])  # bitwise zero


def test_masked_softmax_symmetry_and_closed_form():
    t = Tape()
    out = softmax_rows(t, Tensor(np.ones((3, 3))), np.zeros((3, 3)))
    assert np.allclose(out.data, 1 / 3, atol=1e-15)
    logits = [[0.0, math.sqrt(2.0) * math.log(2.0)]] * 2  # scaled by 1/sqrt(2)
    out2 = softmax_rows(t, Tensor(logits), np.zeros((2, 2)))
    assert np.allclose(out2.data, [[1 / 3, 2 / 3]] * 2, atol=1e-15)
    # at n = 4 the scale is 1/2; the bias leaves two entries per row
    logits = [[0.0, math.log(4.0), 5.0, -5.0]] * 4
    out3 = softmax_rows(t, Tensor(logits), mask_bias([[True, True, False, False]] * 4))
    assert np.allclose(out3.data, [[1 / 3, 2 / 3, 0.0, 0.0]] * 4, atol=1e-15)


def test_masked_softmax_all_masked_row_raises():
    t = Tape()
    mask = np.array([[True, True], [False, False]])
    with pytest.raises(InvalidMaskError):
        softmax_rows(t, Tensor(np.zeros((2, 2))), mask_bias(mask))
    with pytest.raises(InvalidMaskError):  # the same row in any stacked slice
        softmax_rows(t, Tensor(np.zeros((6, 2))), mask_bias(mask))


def test_masked_softmax_rows_sum_to_one_and_zeros_exact():
    rng = np.random.default_rng(4)
    t = Tape(recording=False)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        logits = rng.standard_normal((n, n)) * 5
        mask = rng.random((n, n)) < 0.5
        mask[np.arange(n), np.arange(n)] = True  # keep rows non-empty
        out = softmax_rows(t, Tensor(logits), mask_bias(mask))
        assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12
        assert np.all(out.data[~mask] == 0.0)


def test_masked_softmax_bias_shifts_logits():
    t = Tape(recording=False)
    rng = np.random.default_rng(12)
    logits = rng.standard_normal((4, 4))
    bias = rng.standard_normal((4, 4))
    with_bias = softmax_rows(t, Tensor(logits), bias)  # the scale is 1/2
    direct = softmax_rows(t, Tensor(2.0 * (0.5 * logits + bias)), np.zeros((4, 4)))
    assert np.allclose(with_bias.data, direct.data, atol=1e-15)
    # a table over the trailing axes applies to every stacked sequence
    stacked = softmax_rows(t, Tensor(np.concatenate([logits] * 2)), bias)
    assert np.array_equal(stacked.data, np.concatenate([with_bias.data] * 2))
    x = Tensor(logits)
    with pytest.raises(ShapeError):  # a table that does not match the scores
        t.attention(x, x, x, np.zeros((4, 3)), 1)


def test_masked_softmax_grads_match_finite_differences():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.standard_normal((4, 4)))
    mask = rng.random((4, 4)) < 0.6
    mask[np.arange(4), np.arange(4)] = True
    bias = np.where(mask, rng.standard_normal((4, 4)), -np.inf)
    t = Tape()
    weights = np.arange(16, dtype=float).reshape(4, 4)  # break symmetry
    t.backward(weighted_sum(t, softmax_rows(t, logits, bias), weights))
    notape = Tape(recording=False)

    def run():
        p = softmax_rows(notape, logits, bias)
        return weighted_sum(notape, p, weights).data.item()

    fd = fd_gradient(run, logits.data)
    assert rel_err(logits.grad, fd).max() < 1e-4
    assert np.all(logits.grad[~mask] == 0.0)


@settings(max_examples=25, deadline=None)
@given(images=st.integers(1, 3), heads=st.integers(1, 3), n=st.integers(1, 5),
       table_rank=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_masked_softmax_property(images, heads, n, table_rank, seed):
    rng = np.random.default_rng(seed)
    table_shape = (heads, n, n)[3 - table_rank:]
    allowed = rng.random(table_shape) < 0.6
    allowed[..., rng.integers(n)] = True  # no empty row
    bias = np.where(allowed, rng.standard_normal(table_shape), -np.inf)
    logits = Tensor(rng.standard_normal((images * n, heads * n)))
    weights = rng.standard_normal(logits.shape)
    t = Tape()
    p = softmax_rows(t, logits, bias, heads)
    # the table's excluded entries in the (image, row, head, column) layout
    excluded = np.broadcast_to(~allowed, (images, heads, n, n)) \
        .transpose(0, 2, 1, 3).reshape(p.shape)
    assert np.all(p.data[excluded] == 0.0)
    assert not np.signbit(p.data[excluded]).any()
    row_sums = p.data.reshape(images * n, heads, n).sum(axis=-1)
    assert np.abs(row_sums - 1.0).max() < 1e-12
    t.backward(weighted_sum(t, p, weights))
    assert np.all(logits.grad[excluded] == 0.0)
    notape = Tape(recording=False)

    def run():
        q = softmax_rows(notape, logits, bias, heads)
        return weighted_sum(notape, q, weights).data.item()

    assert rel_err(logits.grad, fd_gradient(run, logits.data)).max() < 1e-4


# ----------------------------------------------------------------------
# fused attention
# ----------------------------------------------------------------------

def attention_case(rng, images, heads, n, dh, bias_shape):
    """Random (images*n, heads*dh) k and v rows, (images*m, heads*dh) q
    rows, m being the bias table's row count, and a bias table with -inf
    on some entries but none on a whole row."""
    m = bias_shape[-2]
    q, k, v = (rng.standard_normal((images * t, heads * dh)) for t in (m, n, n))
    allowed = rng.random(bias_shape) < 0.6
    allowed[..., rng.integers(n)] = True
    bias = np.where(allowed, rng.standard_normal(bias_shape), -np.inf)
    return q, k, v, bias


def reference_attention(q, k, v, bias, heads, g):
    """(output, dq, dk, dv) of the unfused composition, in numpy, under the
    upstream gradient ``g``: split the rows into per-head stacks (reshape,
    then a transpose copied to C order; keys as (b, h, dh, n)), batched
    matmul, softmax(scores / sqrt(dh) + bias), batched matmul, and merge
    the heads back into rows. The backward runs each step's adjoint in
    reverse. A tape replays the composition's records last to first, so
    an input that q, k and v share gets v's adjoint, then q's, then k's.
    The queries are the m rows per sequence of the table's (m, n) rows.
    """
    m, n = bias.shape[-2:]
    d = q.shape[1]
    b, dh = k.shape[0] // n, d // heads

    def split(x, t, axes):
        return np.ascontiguousarray(x.reshape(b, t, heads, dh).transpose(axes))

    def merge(stack, axes):
        return np.ascontiguousarray(stack.transpose(axes)).reshape(-1, d)

    qh, kt, vh = (split(q, m, (0, 2, 1, 3)), split(k, n, (0, 2, 3, 1)),
                  split(v, n, (0, 2, 1, 3)))
    scale = 1.0 / np.sqrt(dh)
    p = (qh @ kt) * scale
    p += bias
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = merge(p @ vh, (0, 2, 1, 3))

    gh = split(g, m, (0, 2, 1, 3))  # the pull of the merge: its inverse
    dp = gh @ vh.swapaxes(-1, -2)
    dvh = p.swapaxes(-1, -2) @ gh
    dz = dp - (dp * p).sum(axis=-1, keepdims=True)
    dz *= p
    dz *= scale
    dqh = dz @ kt.swapaxes(-1, -2)
    dkt = qh.swapaxes(-1, -2) @ dz
    return (out, merge(dqh, (0, 2, 1, 3)), merge(dkt, (0, 3, 1, 2)),
            merge(dvh, (0, 2, 1, 3)))


def fused_attention(q, k, v, bias, heads, weights):
    """(output, q.grad, k.grad, v.grad) of ``Tape.attention`` under the
    loss sum(out * weights), whose upstream gradient is ``weights``."""
    tq, tk, tv = Tensor(q), Tensor(k), Tensor(v)
    t = Tape()
    out = t.attention(tq, tk, tv, bias, heads)
    t.backward(weighted_sum(t, out, weights))
    return out.data, tq.grad, tk.grad, tv.grad


def assert_bitwise_equal(fused, reference):
    for name, a, b in zip(("out", "q", "k", "v"), fused, reference):
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name  # every bit, not a tolerance


BLOCK = 3  # images per block under the patched budget


@pytest.mark.parametrize("bias_rank", [3, 2])  # ALiBi (h, m, n), plain (m, n)
@pytest.mark.parametrize("images", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_attention_equals_the_composition_bitwise(monkeypatch, images, bias_rank):
    n, dh = 7, 3
    for heads in (1, 2, 4):
        rng = np.random.default_rng(100 + 10 * images + heads)
        for m in (n, 1, 3):  # query rows per sequence
            monkeypatch.setattr(autodiff, "ATTENTION_BLOCK_BYTES",
                                BLOCK * heads * m * n * 8)
            q, k, v, bias = attention_case(rng, images, heads, n, dh,
                                           (heads, m, n)[3 - bias_rank:])
            weights = rng.standard_normal(q.shape)
            assert_bitwise_equal(fused_attention(q, k, v, bias, heads, weights),
                                 reference_attention(q, k, v, bias, heads, weights))


def test_attention_shared_input_accumulates_like_the_composition():
    # self-attention on one tensor: q, k and v are the same leaf, so the
    # order the three adjoints are added in shows in the last bits
    rng = np.random.default_rng(8)
    x = rng.standard_normal((8, 8))
    bias = np.zeros((4, 4))
    weights = rng.standard_normal((8, 8))
    tx = Tensor(x)
    t = Tape()
    t.backward(weighted_sum(t, t.attention(tx, tx, tx, bias, 2), weights))
    _, dq, dk, dv = reference_attention(x, x, x, bias, 2, weights)
    expected = dv + dq
    expected += dk
    assert np.array_equal(tx.grad, expected)


def test_attention_all_masked_row_raises(monkeypatch):
    monkeypatch.setattr(autodiff, "ATTENTION_BLOCK_BYTES", 1)
    bias = mask_bias(np.array([[True, True], [False, False]]))
    q, k, v = (Tensor(np.zeros((6, 2))) for _ in range(3))
    with pytest.raises(InvalidMaskError):
        Tape().attention(q, k, v, bias, 1)


def test_overflowed_scores_are_not_a_mask_error():
    # the bias allows every entry; the scores alone overflow to -inf
    q = Tensor(np.full((4, 2), 1e200))
    k = Tensor(np.full((4, 2), -1e200))
    v = Tensor(np.ones((4, 2)))
    t = Tape(recording=False)
    with np.errstate(over="ignore", invalid="ignore"):
        out = t.attention(q, k, v, np.zeros((2, 2)), 1)
    assert np.isnan(out.data).all()


def test_attention_rejects_shapes_that_do_not_chain():
    t = Tape()
    x = Tensor(np.zeros((6, 4)))
    assert t.attention(x, x, x, np.zeros((3, 3)), 2).shape == (6, 4)
    assert t.attention(x, x, x, np.zeros((2, 3, 3)), 2).shape == (6, 4)
    with pytest.raises(ShapeError, match="heads"):  # d % heads != 0
        t.attention(x, x, x, np.zeros((3, 3)), 3)
    with pytest.raises(ShapeError):
        t.attention(x, x, x, np.zeros((3, 3)), 0)
    with pytest.raises(ShapeError):  # 6 rows do not split into sequences of 4
        t.attention(x, x, x, np.zeros((4, 4)), 2)
    other = Tensor(np.zeros((6, 2)))
    for q, k, v in ((other, x, x), (x, other, x), (x, x, other)):
        with pytest.raises(ShapeError):  # q, k and v differ
            t.attention(q, k, v, np.zeros((3, 3)), 2)
    with pytest.raises(ShapeError):  # rows, not stacks
        t.attention(*(Tensor(np.zeros((2, 3, 4))) for _ in range(3)),
                    np.zeros((3, 3)), 2)
    for bias in (np.zeros((3, 2)), np.zeros((3, 3, 3)), np.zeros((1, 2, 3, 3)),
                 np.zeros(3), np.zeros(())):
        with pytest.raises(ShapeError):  # a bias that fits no head layout
            t.attention(x, x, x, bias, 2)


def test_attention_takes_m_query_rows_per_sequence():
    t = Tape()
    x = Tensor(np.zeros((6, 4)))  # keys and values: 2 sequences of 3
    for m in (1, 2):
        q = Tensor(np.zeros((2 * m, 4)))
        assert t.attention(q, x, x, np.zeros((m, 3)), 2).shape == (2 * m, 4)
        assert t.attention(q, x, x, np.zeros((2, m, 3)), 2).shape == (2 * m, 4)
        for rows in (m, 3 * m, 6):  # not 2 sequences of m query rows
            with pytest.raises(ShapeError, match="query rows"):
                t.attention(Tensor(np.zeros((rows, 4))), x, x, np.zeros((m, 3)), 2)
    for bias in (np.zeros((4, 3)), np.zeros((2, 4, 3)), np.zeros((0, 3)),
                 np.zeros((3, 1, 3)), np.zeros((2, 1, 2))):
        # more query rows than keys, none, a head count other than 2, and
        # 3 sequences of 2 keys, which take 3 query rows, not 8
        with pytest.raises(ShapeError, match="does not fit"):
            t.attention(Tensor(np.zeros((8, 4))), x, x, bias, 2)
    with pytest.raises(ShapeError):  # q's width is not the keys'
        t.attention(Tensor(np.zeros((2, 2))), x, x, np.zeros((1, 3)), 2)


@settings(max_examples=40, deadline=None)
@given(images=st.integers(1, 5), heads=st.integers(1, 4), n=st.integers(1, 5),
       dh=st.integers(1, 4), table_rank=st.integers(2, 3), data=st.data(),
       per_block=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_attention_property(images, heads, n, dh, table_rank, data, per_block, seed):
    m = data.draw(st.integers(1, n), label="m")
    rng = np.random.default_rng(seed)
    q, k, v, bias = attention_case(rng, images, heads, n, dh,
                                   (heads, m, n)[3 - table_rank:])
    weights = rng.standard_normal(q.shape)
    # a budget of per_block images; 0 is below one image
    budget = per_block * heads * m * n * 8
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(autodiff, "ATTENTION_BLOCK_BYTES", budget)
        fused = fused_attention(q, k, v, bias, heads, weights)
    assert_bitwise_equal(fused, reference_attention(q, k, v, bias, heads, weights))


# ----------------------------------------------------------------------
# layer norm
# ----------------------------------------------------------------------

def test_layer_norm_constant_row_is_zero():
    t = Tape()
    out = t.layer_norm(Tensor([[1.0, 1.0]]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized_row():
    # population variance of [-1, 1] is exactly 1, so only the 1e-6 added
    # to it moves the row
    t = Tape()
    out = t.layer_norm(Tensor([[-1.0, 1.0]]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))
    inv = 1.0 / np.sqrt(1.0 + 1e-6)
    assert np.array_equal(out.data, [[-inv, inv]])


def test_layer_norm_needs_two_features():
    t = Tape()
    with pytest.raises(ContractError):
        t.layer_norm(Tensor([[1.0]]), Tensor([1.0]), Tensor([0.0]))


def test_layer_norm_grads_match_finite_differences():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((3, 6)))
    gain = Tensor(rng.standard_normal(6))
    shift = Tensor(rng.standard_normal(6))
    weights = rng.standard_normal((3, 6))
    t = Tape()
    t.backward(weighted_sum(t, t.layer_norm(x, gain, shift), weights))
    notape = Tape(recording=False)

    def run():
        out = notape.layer_norm(x, gain, shift)
        return weighted_sum(notape, out, weights).data.item()

    for tensor in (x, gain, shift):
        fd = fd_gradient(run, tensor.data)
        assert rel_err(tensor.grad, fd).max() < 1e-4


@settings(max_examples=25, deadline=None)
@given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=2),
       d=st.integers(2, 40), offset=st.floats(-1e3, 1e3),
       spread=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_layer_norm_equals_the_numpy_mean_var_formula_bitwise(
        lead, d, offset, spread, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((*lead, d)) * spread + offset
    gain = rng.standard_normal(d)
    shift = rng.standard_normal(d)
    out = Tape(recording=False).layer_norm(Tensor(x), Tensor(gain), Tensor(shift))
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    expected = (x - mu) * (1.0 / np.sqrt(var + 1e-6)) * gain + shift
    assert np.array_equal(out.data, expected)


# ----------------------------------------------------------------------
# gelu
# ----------------------------------------------------------------------

def test_gelu_fixed_points():
    t = Tape()
    out = t.gelu(Tensor([0.0, 10.0, -10.0]))
    assert out.data[0] == 0.0
    assert abs(out.data[1] - 10.0) < 1e-9
    assert abs(out.data[2]) < 1e-9


def test_gelu_gradient_at_zero_is_half():
    t = Tape()
    x = Tensor([0.0])
    t.backward(weighted_sum(t, t.gelu(x), 1.0))
    assert x.grad[0] == 0.5


def test_gelu_grads_match_finite_differences():
    x = Tensor(np.linspace(-3, 3, 13))
    ones = np.ones(13)
    t = Tape()
    t.backward(weighted_sum(t, t.gelu(x), ones))
    notape = Tape(recording=False)
    fd = fd_gradient(
        lambda: weighted_sum(notape, notape.gelu(x), ones).data.item(), x.data
    )
    assert rel_err(x.grad, fd).max() < 1e-4


def test_central_difference_error_shrinks_quadratically():
    # Richardson check: the central-difference error at 2*eps should be
    # about 4x the error at eps while truncation dominates.
    x0 = 0.7
    t = Tape()
    x = Tensor([x0])
    t.backward(weighted_sum(t, t.gelu(x), 1.0))
    exact = x.grad[0]
    notape = Tape(recording=False)

    def fd(eps):
        plus = notape.gelu(Tensor([x0 + eps])).data[0]
        minus = notape.gelu(Tensor([x0 - eps])).data[0]
        return (plus - minus) / (2 * eps)

    err1 = abs(fd(1e-3) - exact)
    err2 = abs(fd(2e-3) - exact)
    assert 2.5 < err2 / err1 < 6.0


# ----------------------------------------------------------------------
# backward mechanics
# ----------------------------------------------------------------------

def square_sum(t, x):
    """sum(x * x) as x . x: one ``linear`` of two reshapes of ``x``."""
    row = (1, x.data.size)
    return t.linear(t.reshape(x, row), t.reshape(x, row))


def test_backward_of_plain_sum_is_ones():
    t = Tape()
    x = Tensor(np.random.default_rng(7).standard_normal((2, 3, 4)))
    t.backward(weighted_sum(t, x, np.ones(x.shape)))
    assert np.array_equal(x.grad, np.ones_like(x.data))


def test_backward_of_half_square_sum_is_identity():
    t = Tape()
    x = Tensor([1.0, -2.0, 3.0])
    t.backward(weighted_sum(t, square_sum(t, x), 0.5))
    assert np.array_equal(x.grad, x.data)


def test_backward_requires_scalar_loss():
    t = Tape()
    x = Tensor([1.0, 2.0])
    y = t.add(x, x)
    with pytest.raises(ContractError):
        t.backward(y)


def test_repeated_backward_accumulates():
    t = Tape()
    x = Tensor([1.0, 2.0])
    loss = weighted_sum(t, x, np.ones(2))
    t.backward(loss)
    t.backward(loss)
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_branching_graph_accumulates_through_shared_input():
    t = Tape()
    x = Tensor([1.0, 2.0])
    loss = t.add(square_sum(t, x), weighted_sum(t, x, np.ones(2)))
    t.backward(loss)
    assert np.array_equal(x.grad, 2 * x.data + 1)


def test_intermediates_keep_grad_none():
    t = Tape()
    x = Tensor([[1.0, -2.0, 3.0]])
    w = Tensor([[0.5, 0.25, 2.0], [-1.0, 0.5, 0.0]])
    prod = t.linear(x, w)
    act = t.gelu(prod)
    loss = weighted_sum(t, t.add(act, prod), np.ones(2))
    t.backward(loss)
    assert x.grad is not None and w.grad is not None
    assert prod.grad is None and act.grad is None and loss.grad is None


def _backward_peak_bytes(depth: int, size: int) -> int:
    """tracemalloc peak of backward over a chain of ``depth`` reshape ops
    on a ``size``-element tensor, above what was allocated before it."""
    import tracemalloc

    t = Tape()
    x = Tensor(np.ones(size))
    y = x
    for _ in range(depth):
        y = t.reshape(y, (size,))
    loss = weighted_sum(t, y, np.ones(size))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        t.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(x.grad, np.ones(size))
    return peak - base


def test_backward_peak_memory_does_not_grow_with_depth():
    size = 20_000
    tensor_bytes = 8 * size
    for depth in (4, 64):
        assert _backward_peak_bytes(depth, size) < 4 * tensor_bytes


# ----------------------------------------------------------------------
# structural ops
# ----------------------------------------------------------------------

def test_add_equal_shapes_and_grads():
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((3, 4)))
    weights = rng.standard_normal((3, 4))
    t = Tape()
    out = t.add(a, b)
    assert np.array_equal(out.data, a.data + b.data)
    t.backward(weighted_sum(t, out, weights))
    assert np.array_equal(a.grad, weights)
    assert np.array_equal(b.grad, weights)


def test_add_shape_mismatch_raises():
    t = Tape()
    for shape in ((3,), (4,), (1, 4), (4, 3)):
        with pytest.raises(ShapeError, match="differ"):
            t.add(Tensor(np.zeros((3, 4))), Tensor(np.zeros(shape)))


def test_linear_matches_explicit_composition():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((5, 3)))
    w = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal(4))
    t = Tape()
    fused = t.linear(x, w, b)
    # add takes equal shapes: the bias row repeated on every row
    bias_rows = t.concat([(t.reshape(b, (1, 4)), slice(None))] * 5)
    explicit = t.add(t.linear(x, w), bias_rows)
    assert np.allclose(fused.data, explicit.data, atol=1e-15)
    t.backward(weighted_sum(t, fused, np.ones((5, 4))))
    notape = Tape(recording=False)

    def run():
        return weighted_sum(notape, notape.linear(x, w, b), np.ones((5, 4))).data.item()

    for tensor in (x, w, b):
        fd = fd_gradient(run, tensor.data)
        assert rel_err(tensor.grad, fd).max() < 1e-4


def test_slice_concat_reshape_roundtrip_grads():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((4, 6)))
    t = Tape()
    stacked = t.concat([(x, slice(2, 4)), (x, slice(0, 2))])  # halves swapped
    assert np.array_equal(stacked.data, np.concatenate([x.data[2:], x.data[:2]]))
    middle = t.concat([(stacked, slice(1, 3))])  # x's last row over its first
    regrouped = t.reshape(middle, (3, 4))
    tail = t.concat([(regrouped, slice(1, None))])  # the last 8 of the 12 entries
    t.backward(weighted_sum(t, tail, np.ones((2, 4))))
    expected = np.zeros((4, 6))
    expected[3, 4:] = 1.0
    expected[0] = 1.0
    assert np.array_equal(x.grad, expected)


def test_slice_out_of_range_raises():
    # out of range, then empty, then reversed or of step 0
    t = Tape()
    x = Tensor(np.zeros((3, 2)))
    for rows in (slice(0, 4), slice(-1, 2), slice(3, None), slice(5, 7),
                 slice(None, 4, 2), slice(1, 1), slice(2, 1), slice(2, 0, -1),
                 slice(None, None, -1), slice(0, 3, 0)):
        with pytest.raises(ContractError, match="empty, reversed or outside"):
            t.concat([(x, slice(None)), (x, rows)])


def test_concat_rejects_parts_that_are_not_matrices_of_one_width():
    t = Tape()
    x = Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError, match="non-empty"):
        t.concat([])
    for other in (np.zeros((3, 3)), np.zeros(2), np.zeros((1, 3, 2)),
                  np.zeros(())):
        for parts in ([(x, slice(None)), (Tensor(other), slice(None))],
                      [(Tensor(other), slice(None)), (x, slice(None))]):
            with pytest.raises(ShapeError, match="one column count"):
                t.concat(parts)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_concat_equals_numpy_slices_bitwise(data, seed):
    # the forward is numpy's concatenation of the slices; each source's
    # gradient starts from zeros and adds each part's rows in part order
    rng = np.random.default_rng(seed)
    cols = data.draw(st.integers(1, 4))
    sources = [Tensor(rng.standard_normal((data.draw(st.integers(1, 6)), cols)))
               for _ in range(data.draw(st.integers(1, 3)))]
    parts = []
    for _ in range(data.draw(st.integers(1, 6))):
        a = data.draw(st.sampled_from(sources))
        n = a.data.shape[0]
        start = data.draw(st.none() | st.integers(0, n - 1))
        stop = data.draw(st.none() | st.integers((start or 0) + 1, n))
        step = data.draw(st.none() | st.integers(1, 3))
        parts.append((a, slice(start, stop, step)))
    t = Tape()
    out = t.concat(parts)
    expected = np.concatenate([a.data[rows] for a, rows in parts])
    assert out.data.tobytes() == expected.tobytes()
    assert out.data.shape == expected.shape
    g = rng.standard_normal(out.data.shape)
    t.backward(weighted_sum(t, out, g))
    sums = {id(a): np.zeros_like(a.data) for a, _ in parts}
    row = 0
    for a, rows in parts:
        size = len(a.data[rows])
        sums[id(a)][rows] += g[row:row + size]
        row += size
    for a in sources:
        if id(a) in sums:
            assert a.grad.tobytes() == sums[id(a)].tobytes()
        else:
            assert a.grad is None


# ----------------------------------------------------------------------
# cross entropy
# ----------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    t = Tape()
    out = t.softmax_cross_entropy_rows(Tensor(np.zeros((1, 16))), [3])
    assert abs(float(out.data) - math.log(16)) < 1e-15


def test_cross_entropy_confident_correct():
    t = Tape()
    out = t.softmax_cross_entropy_rows(Tensor([[10.0, -10.0]]), [0])
    # closed form: log(1 + exp(-20)); float cancellation leaves ~1e-15 slack
    assert abs(float(out.data) - 2.0611536181902037e-09) < 1e-14


def test_cross_entropy_label_out_of_range():
    t = Tape()
    with pytest.raises(ContractError):
        t.softmax_cross_entropy_rows(Tensor(np.zeros((1, 4))), [4])


def test_cross_entropy_grads_match_finite_differences():
    logits = Tensor(np.array([[1.5, -0.3, 0.8, 0.0]]))
    t = Tape()
    t.backward(t.softmax_cross_entropy_rows(logits, [2]))
    notape = Tape(recording=False)
    fd = fd_gradient(
        lambda: float(notape.softmax_cross_entropy_rows(logits, [2]).data),
        logits.data,
    )
    assert rel_err(logits.grad, fd).max() < 1e-4


# ----------------------------------------------------------------------
# randomized per-op gradient sweep
# ----------------------------------------------------------------------

def test_primitive_gradients_on_random_shapes():
    rng = np.random.default_rng(10)
    for _ in range(10):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(2, 9))
        x = Tensor(rng.standard_normal((rows, cols)))
        gain = Tensor(rng.standard_normal(cols))
        shift = Tensor(rng.standard_normal(cols))
        w = Tensor(rng.standard_normal((3, cols)))
        labels = rng.integers(0, 3, size=rows)
        t = Tape()
        h = t.layer_norm(x, gain, shift)
        h = t.gelu(t.linear(h, w))
        t.backward(t.softmax_cross_entropy_rows(h, labels))
        notape = Tape(recording=False)

        def run():
            h2 = notape.layer_norm(x, gain, shift)
            h2 = notape.gelu(notape.linear(h2, w))
            return float(notape.softmax_cross_entropy_rows(h2, labels).data)

        for tensor in (x, gain, shift, w):
            fd = fd_gradient(run, tensor.data)
            assert rel_err(tensor.grad, fd).max() < 1e-4


# ----------------------------------------------------------------------
# properties of the primitives on random shapes
# ----------------------------------------------------------------------

PRIMITIVE_CASES = (
    "linear", "linear_bias", "layer_norm", "gelu", "concat_rows",
    "concat_strided", "concat_repeated", "softmax_cross_entropy_rows",
)


def primitive_case(op, rng, a, b, c):
    """Random inputs with sizes from (a, b, c) and a call of one primitive
    on them, as ``(inputs, call)`` with ``call(tape, *inputs)``."""
    def normal(*shape):
        return Tensor(rng.standard_normal(shape))

    if op == "linear":
        return [normal(a, b), normal(c, b)], lambda t, x, w: t.linear(x, w)
    if op == "linear_bias":
        return ([normal(a, b), normal(c, b), normal(c)],
                lambda t, x, w, bias: t.linear(x, w, bias))
    if op == "layer_norm":
        # with 2 features every row normalizes to +-1, and its x-gradient is
        # too small for central differences to resolve
        return ([normal(a, b + 2), normal(b + 2), normal(b + 2)],
                lambda t, x, gain, shift: t.layer_norm(x, gain, shift))
    if op == "gelu":
        return [normal(a, b)], lambda t, x: t.gelu(x)
    if op == "concat_rows":
        start = int(rng.integers(0, a))
        stop = int(rng.integers(start + 1, a + 1))
        return ([normal(a, b), normal(c, b)],
                lambda t, x, y: t.concat([(x, slice(start, stop)), (y, slice(None))]))
    if op == "concat_strided":
        start, step = int(rng.integers(0, a)), int(rng.integers(1, c + 1))
        return ([normal(a + c, b)],
                lambda t, x: t.concat([(x, slice(start, None, step))]))
    if op == "concat_repeated":
        # the source recurs, and its slices overlap
        start = int(rng.integers(0, a))
        return ([normal(a, b)], lambda t, x: t.concat(
            [(x, slice(None)), (x, slice(start, a)), (x, slice(None, None, 2))]))
    if op == "softmax_cross_entropy_rows":
        labels = rng.integers(0, c + 1, size=a)
        return ([normal(a, c + 1)],
                lambda t, logits: t.softmax_cross_entropy_rows(logits, labels))
    raise ValueError(op)


@pytest.mark.parametrize("op", PRIMITIVE_CASES)
@settings(max_examples=25, deadline=None)
@given(a=st.integers(1, 5), b=st.integers(1, 5), c=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_primitive_gradient_property(op, a, b, c, seed):
    rng = np.random.default_rng(seed)
    inputs, call = primitive_case(op, rng, a, b, c)
    t = Tape()
    out = call(t, *inputs)
    weights = rng.standard_normal(out.data.shape)
    t.backward(weighted_sum(t, out, weights))
    notape = Tape(recording=False)

    def run():
        return weighted_sum(notape, call(notape, *inputs), weights).data.item()

    for tensor in inputs:
        assert rel_err(tensor.grad, fd_gradient(run, tensor.data)).max() < 1e-4

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


# ----------------------------------------------------------------------
# matmul
# ----------------------------------------------------------------------

def test_matmul_identity():
    t = Tape()
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = t.matmul(a, Tensor(np.eye(2)))
    assert np.array_equal(out.data, a.data)


def test_matmul_known_product():
    t = Tape()
    out = t.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    assert np.array_equal(out.data, [[17.0], [39.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    t = Tape(recording=False)
    for _ in range(20):
        m, p, q = rng.integers(1, 17, size=3)
        a = rng.standard_normal((m, p))
        b = rng.standard_normal((p, q))
        out = t.matmul(Tensor(a), Tensor(b))
        assert np.abs(out.data - matmul_oracle(a, b)).max() < 1e-12


def test_matmul_shape_error_names_both_shapes():
    t = Tape()
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        t.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_grad_of_sum_is_ones_outer():
    t = Tape()
    a = Tensor(np.random.default_rng(1).standard_normal((3, 4)))
    b = Tensor(np.random.default_rng(2).standard_normal((4, 2)))
    t.backward(t.sum_all(t.matmul(a, b)))
    assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T, atol=1e-12)
    assert np.allclose(b.grad, a.data.T @ np.ones((3, 2)), atol=1e-12)


def test_matmul_grads_match_finite_differences():
    rng = np.random.default_rng(3)
    a = Tensor(rng.standard_normal((3, 5)))
    b = Tensor(rng.standard_normal((5, 2)))
    t = Tape()
    t.backward(t.sum_all(t.matmul(a, b)))
    notape = Tape(recording=False)

    def run():
        return float(notape.sum_all(notape.matmul(a, b)).data)

    for tensor in (a, b):
        fd = fd_gradient(run, tensor.data)
        assert rel_err(tensor.grad, fd).max() < 1e-4


# ----------------------------------------------------------------------
# masked softmax
# ----------------------------------------------------------------------

def mask_bias(mask):
    """The additive table of a boolean mask: 0 allowed, -inf excluded."""
    return np.where(mask, 0.0, -np.inf)


def test_masked_softmax_single_allowed_entry():
    t = Tape()
    out = t.masked_softmax(Tensor([[0.0, 0.0]]), np.array([[0.0, -np.inf]]))
    assert np.array_equal(out.data, [[1.0, 0.0]])
    assert out.data[0, 1] == 0.0 and not np.signbit(out.data[0, 1])  # bitwise zero


def test_masked_softmax_symmetry_and_closed_form():
    t = Tape()
    out = t.masked_softmax(Tensor([[1.0, 1.0, 1.0]]), np.zeros((1, 3)))
    assert np.allclose(out.data, 1 / 3, atol=1e-15)
    out2 = t.masked_softmax(Tensor([[0.0, math.log(2.0)]]), np.zeros((1, 2)))
    assert np.allclose(out2.data, [[1 / 3, 2 / 3]], atol=1e-15)
    out3 = t.masked_softmax(Tensor([[0.0, math.log(4.0)]]), np.zeros((1, 2)), 0.5)
    assert np.allclose(out3.data, [[1 / 3, 2 / 3]], atol=1e-15)


def test_masked_softmax_all_masked_row_raises():
    t = Tape()
    mask = np.array([[True, True], [False, False]])
    with pytest.raises(InvalidMaskError):
        t.masked_softmax(Tensor(np.zeros((2, 2))), mask_bias(mask))
    with pytest.raises(InvalidMaskError):  # the same row in any stacked slice
        t.masked_softmax(Tensor(np.zeros((3, 2, 2))), mask_bias(mask))


def test_masked_softmax_rows_sum_to_one_and_zeros_exact():
    rng = np.random.default_rng(4)
    t = Tape(recording=False)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        logits = rng.standard_normal((n, n)) * 5
        mask = rng.random((n, n)) < 0.5
        mask[np.arange(n), np.arange(n)] = True  # keep rows non-empty
        out = t.masked_softmax(Tensor(logits), mask_bias(mask), rng.random() + 0.5)
        assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12
        assert np.all(out.data[~mask] == 0.0)


def test_masked_softmax_bias_shifts_logits():
    t = Tape(recording=False)
    logits = Tensor([[1.0, 2.0, 0.5]])
    bias = np.array([[0.3, -0.7, 0.0]])
    with_bias = t.masked_softmax(logits, bias, 0.25)
    direct = t.masked_softmax(Tensor(0.25 * logits.data + bias), np.zeros((1, 3)))
    assert np.allclose(with_bias.data, direct.data, atol=1e-15)
    # a table over the trailing axes applies to every leading slice
    stacked = t.masked_softmax(Tensor(np.stack([logits.data] * 2)), bias, 0.25)
    assert np.array_equal(stacked.data, np.stack([with_bias.data] * 2))
    with pytest.raises(ShapeError):
        t.masked_softmax(logits, np.zeros((1, 2)))


def test_masked_softmax_grads_match_finite_differences():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.standard_normal((4, 4)))
    mask = rng.random((4, 4)) < 0.6
    mask[np.arange(4), np.arange(4)] = True
    bias = np.where(mask, rng.standard_normal((4, 4)), -np.inf)
    t = Tape()
    weights = np.arange(16, dtype=float).reshape(4, 4)  # break symmetry
    out = t.masked_softmax(logits, bias, 0.7)
    t.backward(t.sum_all(t.mul(out, Tensor(weights))))
    notape = Tape(recording=False)

    def run():
        p = notape.masked_softmax(logits, bias, 0.7)
        return float(notape.sum_all(notape.mul(p, Tensor(weights))).data)

    fd = fd_gradient(run, logits.data)
    assert rel_err(logits.grad, fd).max() < 1e-4
    assert np.all(logits.grad[~mask] == 0.0)


# ----------------------------------------------------------------------
# fused attention
# ----------------------------------------------------------------------

def attention_case(rng, images, heads, n, dh, bias_shape):
    """Random (images*n, heads*dh) q, k and v rows and a bias table with
    -inf on some entries but none on a whole row."""
    q, k, v = (rng.standard_normal((images * n, heads * dh)) for _ in range(3))
    allowed = rng.random(bias_shape) < 0.6
    allowed[..., rng.integers(n)] = True
    bias = np.where(allowed, rng.standard_normal(bias_shape), -np.inf)
    return q, k, v, bias


def composed_attention(t, q, k, v, bias, heads):
    """The attention op spelled out in tape primitives: split the rows into
    per-head stacks (keys transposed), ``bmm`` -> ``masked_softmax`` ->
    ``bmm``, and merge the heads back into rows.

    Keys are split before queries and values last, so a shared input
    receives its adjoints in the op's order: v, then q, then k.
    """
    n = bias.shape[-1]
    (rows, d), dh = q.shape, q.shape[1] // heads
    b = rows // n

    def split(x, axes):
        return t.transpose(t.reshape(x, (b, n, heads, dh)), axes)

    k_t = split(k, (0, 2, 3, 1))
    scores = t.bmm(split(q, (0, 2, 1, 3)), k_t)
    p = t.masked_softmax(scores, bias, 1.0 / np.sqrt(dh))
    heads_out = t.bmm(p, split(v, (0, 2, 1, 3)))
    return t.reshape(t.transpose(heads_out, (0, 2, 1, 3)), (rows, d))


def attention_both_ways(q, k, v, bias, heads, weights):
    """(output, q.grad, k.grad, v.grad) of ``attention`` and of the
    composition it fuses, under the loss sum(out * weights)."""
    results = []
    for fused in (True, False):
        tq, tk, tv = Tensor(q), Tensor(k), Tensor(v)
        t = Tape()
        if fused:
            out = t.attention(tq, tk, tv, bias, heads)
        else:
            out = composed_attention(t, tq, tk, tv, bias, heads)
        t.backward(t.sum_all(t.mul(out, Tensor(weights))))
        results.append((out.data, tq.grad, tk.grad, tv.grad))
    return results


def assert_bitwise_equal(fused, composed):
    for name, a, b in zip(("out", "q", "k", "v"), fused, composed):
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name  # every bit, not a tolerance


BLOCK = 3  # images per block under the patched budget


@pytest.mark.parametrize("bias_rank", [3, 2])  # ALiBi (h, n, n), plain (n, n)
@pytest.mark.parametrize("images", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_attention_equals_the_composition_bitwise(monkeypatch, images, bias_rank):
    n, dh = 7, 3
    for heads in (1, 2, 4):
        monkeypatch.setattr(autodiff, "ATTENTION_BLOCK_BYTES", BLOCK * heads * n * n * 8)
        rng = np.random.default_rng(100 + 10 * images + heads)
        q, k, v, bias = attention_case(rng, images, heads, n, dh,
                                       (heads, n, n)[3 - bias_rank:])
        weights = rng.standard_normal(q.shape)
        fused, composed = attention_both_ways(q, k, v, bias, heads, weights)
        assert_bitwise_equal(fused, composed)


def test_attention_shared_input_accumulates_like_the_composition():
    # self-attention on one tensor: q, k and v are the same leaf, so the
    # order the three adjoints are added in shows in the last bits
    rng = np.random.default_rng(8)
    x = rng.standard_normal((8, 8))
    bias = np.zeros((4, 4))
    weights = rng.standard_normal((8, 8))
    grads = []
    for fused in (True, False):
        tx = Tensor(x)
        t = Tape()
        out = t.attention(tx, tx, tx, bias, 2) if fused \
            else composed_attention(t, tx, tx, tx, bias, 2)
        t.backward(t.sum_all(t.mul(out, Tensor(weights))))
        grads.append(tx.grad)
    assert np.array_equal(*grads)


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
        probs = t.masked_softmax(Tensor(np.full((3, 2), -np.inf)), np.zeros(2))
    assert np.isnan(out.data).all()
    assert np.isnan(probs.data).all()


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


@settings(max_examples=25, deadline=None)
@given(images=st.integers(1, 5), heads=st.integers(1, 4), n=st.integers(1, 5),
       dh=st.integers(1, 4), table_rank=st.integers(2, 3),
       per_block=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_attention_property(images, heads, n, dh, table_rank, per_block, seed):
    rng = np.random.default_rng(seed)
    q, k, v, bias = attention_case(rng, images, heads, n, dh,
                                   (heads, n, n)[3 - table_rank:])
    weights = rng.standard_normal(q.shape)
    # a budget of per_block images; 0 is below one image
    budget = per_block * heads * n * n * 8
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(autodiff, "ATTENTION_BLOCK_BYTES", budget)
        fused, composed = attention_both_ways(q, k, v, bias, heads, weights)
    assert_bitwise_equal(fused, composed)


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
    weights = Tensor(rng.standard_normal((3, 6)))
    t = Tape()
    t.backward(t.sum_all(t.mul(t.layer_norm(x, gain, shift), weights)))
    notape = Tape(recording=False)

    def run():
        out = notape.layer_norm(x, gain, shift)
        return float(notape.sum_all(notape.mul(out, weights)).data)

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
    t.backward(t.sum_all(t.gelu(x)))
    assert x.grad[0] == 0.5


def test_gelu_grads_match_finite_differences():
    x = Tensor(np.linspace(-3, 3, 13))
    t = Tape()
    t.backward(t.sum_all(t.gelu(x)))
    notape = Tape(recording=False)
    fd = fd_gradient(lambda: float(notape.sum_all(notape.gelu(x)).data), x.data)
    assert rel_err(x.grad, fd).max() < 1e-4


def test_central_difference_error_shrinks_quadratically():
    # Richardson check: the central-difference error at 2*eps should be
    # about 4x the error at eps while truncation dominates.
    x0 = 0.7
    t = Tape()
    x = Tensor([x0])
    t.backward(t.sum_all(t.gelu(x)))
    exact = x.grad[0]
    notape = Tape(recording=False)

    def fd(eps):
        probe = Tensor([x0 + eps])
        plus = float(notape.sum_all(notape.gelu(probe)).data)
        probe = Tensor([x0 - eps])
        minus = float(notape.sum_all(notape.gelu(probe)).data)
        return (plus - minus) / (2 * eps)

    err1 = abs(fd(1e-3) - exact)
    err2 = abs(fd(2e-3) - exact)
    assert 2.5 < err2 / err1 < 6.0


# ----------------------------------------------------------------------
# backward mechanics
# ----------------------------------------------------------------------

def test_backward_of_plain_sum_is_ones():
    t = Tape()
    x = Tensor(np.random.default_rng(7).standard_normal((2, 3, 4)))
    t.backward(t.sum_all(x))
    assert np.array_equal(x.grad, np.ones_like(x.data))


def test_backward_of_half_square_sum_is_identity():
    t = Tape()
    x = Tensor([1.0, -2.0, 3.0])
    t.backward(t.scale(t.sum_all(t.mul(x, x)), 0.5))
    assert np.array_equal(x.grad, x.data)


def test_backward_requires_scalar_loss():
    t = Tape()
    x = Tensor([1.0, 2.0])
    y = t.mul(x, x)
    with pytest.raises(ContractError):
        t.backward(y)


def test_repeated_backward_accumulates():
    t = Tape()
    x = Tensor([1.0, 2.0])
    loss = t.sum_all(x)
    t.backward(loss)
    t.backward(loss)
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_branching_graph_accumulates_through_shared_input():
    t = Tape()
    x = Tensor([1.0, 2.0])
    loss = t.add(t.sum_all(t.mul(x, x)), t.sum_all(x))
    t.backward(loss)
    assert np.array_equal(x.grad, 2 * x.data + 1)


def test_intermediates_keep_grad_none():
    t = Tape()
    x = Tensor([1.0, -2.0, 3.0])
    w = Tensor([0.5, 0.25, 2.0])
    prod = t.mul(x, w)
    act = t.gelu(prod)
    loss = t.sum_all(t.add(act, prod))
    t.backward(loss)
    assert x.grad is not None and w.grad is not None
    assert prod.grad is None and act.grad is None and loss.grad is None


def _backward_peak_bytes(depth: int, size: int) -> int:
    """tracemalloc peak of backward over a chain of ``depth`` scale ops
    on a ``size``-element tensor, above what was allocated before it."""
    import tracemalloc

    t = Tape()
    x = Tensor(np.ones(size))
    y = x
    for _ in range(depth):
        y = t.scale(y, 1.0)
    loss = t.sum_all(y)
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
    t.backward(t.sum_all(t.mul(out, Tensor(weights))))
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
    bias_rows = t.gather_rows(t.reshape(b, (1, 4)), [0] * 5)
    explicit = t.add(t.matmul(x, t.transpose(w, (1, 0))), bias_rows)
    assert np.allclose(fused.data, explicit.data, atol=1e-15)
    t.backward(t.sum_all(fused))
    notape = Tape(recording=False)

    def run():
        return float(notape.sum_all(notape.linear(x, w, b)).data)

    for tensor in (x, w, b):
        fd = fd_gradient(run, tensor.data)
        assert rel_err(tensor.grad, fd).max() < 1e-4


def test_slice_concat_transpose_reshape_roundtrip_grads():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((4, 6)))
    t = Tape()
    left = t.slice_cols(x, 0, 3)
    right = t.slice_cols(x, 3, 6)
    stacked = t.concat([left, right])  # (8, 3): the left half over the right
    assert np.array_equal(stacked.data, np.concatenate([x.data[:, :3], x.data[:, 3:]]))
    top = t.slice_rows(stacked, 2, 6)  # rows 2-3 of each half
    flipped = t.transpose(top, (1, 0))
    flat = t.reshape(flipped, (12,))
    t.backward(t.sum_all(flat))
    expected = np.zeros((4, 6))
    expected[2:, :3] = 1.0
    expected[:2, 3:] = 1.0
    assert np.array_equal(x.grad, expected)


def test_transpose_axes_and_inverse_pull():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    t = Tape()
    out = t.transpose(x, (2, 0, 1))
    assert out.data.shape == (4, 2, 3) and out.data.flags.c_contiguous
    assert np.array_equal(out.data, x.data.transpose(2, 0, 1))
    weights = np.arange(24.0).reshape(4, 2, 3)
    t.backward(t.sum_all(t.mul(out, Tensor(weights))))
    assert np.array_equal(x.grad, weights.transpose(1, 2, 0))
    with pytest.raises(ShapeError):
        t.transpose(x, (1, 0))  # too few axes
    with pytest.raises(ShapeError):
        t.transpose(x, (0, 1, 1))


def test_bmm_stacks_of_rank_four():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 3, 4, 5))
    b = rng.standard_normal((2, 3, 5, 2))
    out = Tape(recording=False).bmm(Tensor(a), Tensor(b))
    for i in range(2):
        for j in range(3):
            assert np.abs(out.data[i, j] - matmul_oracle(a[i, j], b[i, j])).max() < 1e-12
    with pytest.raises(ShapeError):
        Tape().bmm(Tensor(a), Tensor(b[0]))  # ranks differ
    with pytest.raises(ShapeError):
        Tape().bmm(Tensor(a), Tensor(b[:, :2]))  # leading axes differ


def test_slice_out_of_range_raises():
    t = Tape()
    with pytest.raises(ContractError):
        t.slice_rows(Tensor(np.zeros((2, 2))), 0, 3)


# ----------------------------------------------------------------------
# cross entropy
# ----------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    t = Tape()
    out = t.softmax_cross_entropy(Tensor(np.zeros(16)), 3)
    assert abs(float(out.data) - math.log(16)) < 1e-15


def test_cross_entropy_confident_correct():
    t = Tape()
    out = t.softmax_cross_entropy(Tensor([10.0, -10.0]), 0)
    # closed form: log(1 + exp(-20)); float cancellation leaves ~1e-15 slack
    assert abs(float(out.data) - 2.0611536181902037e-09) < 1e-14


def test_cross_entropy_label_out_of_range():
    t = Tape()
    with pytest.raises(ContractError):
        t.softmax_cross_entropy(Tensor(np.zeros(4)), 4)


def test_cross_entropy_grads_match_finite_differences():
    logits = Tensor(np.array([1.5, -0.3, 0.8, 0.0]))
    t = Tape()
    t.backward(t.softmax_cross_entropy(logits, 2))
    notape = Tape(recording=False)
    fd = fd_gradient(
        lambda: float(notape.softmax_cross_entropy(logits, 2).data), logits.data
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
        t = Tape()
        h = t.layer_norm(x, gain, shift)
        h = t.gelu(t.linear(h, w))
        p = t.masked_softmax(h, np.zeros(3))
        t.backward(t.sum_all(t.mul(p, p)))
        notape = Tape(recording=False)

        def run():
            h2 = notape.layer_norm(x, gain, shift)
            h2 = notape.gelu(notape.linear(h2, w))
            p2 = notape.masked_softmax(h2, np.zeros(3))
            return float(notape.sum_all(notape.mul(p2, p2)).data)

        for tensor in (x, gain, shift, w):
            fd = fd_gradient(run, tensor.data)
            assert rel_err(tensor.grad, fd).max() < 1e-4


# ----------------------------------------------------------------------
# properties of the attention primitives on random shapes
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(dims=st.lists(st.integers(1, 4), min_size=4, max_size=4),
       rank=st.integers(2, 4), order=st.randoms(use_true_random=False),
       seed=st.integers(0, 2**32 - 1))
def test_transpose_property(dims, rank, order, seed):
    shape = tuple(dims[:rank])
    axes = list(range(rank))
    order.shuffle(axes)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(shape))
    weights = Tensor(rng.standard_normal(np.transpose(x.data, axes).shape))
    t = Tape()
    out = t.transpose(x, axes)
    assert np.array_equal(out.data, np.transpose(x.data, axes))
    t.backward(t.sum_all(t.mul(out, weights)))
    # the adjoint of a permutation is the inverse permutation, and the
    # upstream gradient is weights * 1.0, so the gradient is exact
    inverse = [axes.index(i) for i in range(rank)]
    expected = np.transpose(weights.data, inverse)
    assert x.grad.shape == expected.shape
    assert x.grad.tobytes() == expected.tobytes()


@settings(max_examples=25, deadline=None)
@given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       m=st.integers(1, 4), k=st.integers(1, 4), n=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_bmm_property(lead, m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((*lead, m, k)))
    b = Tensor(rng.standard_normal((*lead, k, n)))
    weights = Tensor(rng.standard_normal((*lead, m, n)))
    t = Tape()
    out = t.bmm(a, b)
    assert np.abs(out.data - np.einsum("...ij,...jk->...ik", a.data, b.data)).max() < 1e-12
    t.backward(t.sum_all(t.mul(out, weights)))
    # closed form: with upstream gradient g, a.grad = g @ b^T, b.grad = a^T @ g
    g = weights.data
    assert np.abs(a.grad - np.einsum("...mn,...kn->...mk", g, b.data)).max() < 1e-12
    assert np.abs(b.grad - np.einsum("...mk,...mn->...kn", a.data, g)).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(lead=st.lists(st.integers(1, 3), min_size=0, max_size=2),
       rows=st.integers(1, 5), cols=st.integers(1, 5),
       table_rank=st.integers(2, 4), scale=st.floats(0.1, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_masked_softmax_property(lead, rows, cols, table_rank, scale, seed):
    rng = np.random.default_rng(seed)
    shape = (*lead, rows, cols)
    table_shape = shape[max(0, len(shape) - table_rank):]
    allowed = rng.random(table_shape) < 0.6
    allowed[..., rng.integers(cols)] = True  # no empty row
    bias = np.where(allowed, rng.standard_normal(table_shape), -np.inf)
    logits = Tensor(rng.standard_normal(shape))
    weights = Tensor(rng.standard_normal(shape))
    t = Tape()
    p = t.masked_softmax(logits, bias, scale)
    excluded = np.broadcast_to(~allowed, shape)
    assert np.all(p.data[excluded] == 0.0)
    assert not np.signbit(p.data[excluded]).any()
    assert np.abs(p.data.sum(axis=-1) - 1.0).max() < 1e-12
    t.backward(t.sum_all(t.mul(p, weights)))
    assert np.all(logits.grad[excluded] == 0.0)
    notape = Tape(recording=False)

    def run():
        q = notape.masked_softmax(logits, bias, scale)
        return float(notape.sum_all(notape.mul(q, weights)).data)

    assert rel_err(logits.grad, fd_gradient(run, logits.data)).max() < 1e-4


# ----------------------------------------------------------------------
# properties of the remaining primitives on random shapes
# ----------------------------------------------------------------------

PRIMITIVE_CASES = (
    "linear", "linear_bias", "layer_norm", "gelu", "concat_rows",
    "gather_rows", "slice_rows", "softmax_cross_entropy_rows",
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
        return [normal(a, b), normal(c, b)], lambda t, x, y: t.concat([x, y])
    if op == "gather_rows":
        indices = rng.integers(0, a, size=a + c)  # more picks than rows repeat
        return [normal(a, b)], lambda t, x: t.gather_rows(x, indices)
    if op == "slice_rows":
        start = int(rng.integers(0, a))
        stop = int(rng.integers(start + 1, a + 1))
        return [normal(a, b)], lambda t, x: t.slice_rows(x, start, stop)
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
    weights = Tensor(rng.standard_normal(out.data.shape))
    t.backward(t.sum_all(t.mul(out, weights)))
    notape = Tape(recording=False)

    def run():
        return float(notape.sum_all(notape.mul(call(notape, *inputs), weights)).data)

    for tensor in inputs:
        assert rel_err(tensor.grad, fd_gradient(run, tensor.data)).max() < 1e-4

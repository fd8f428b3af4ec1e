import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from fractalvit.autodiff import Tape, Tensor
from fractalvit.encoder import (
    EncoderConfig,
    EncoderParams,
    apply_checkpoint,
    batch_loss,
    forward,
    forward_batch,
    forward_stages,
    init_params,
    load_checkpoint,
    patch_rows,
    run_stages,
    save_checkpoint,
)
from fractalvit.errors import ConfigError, ContractError, ShapeError
from fractalvit.grid import GridSpec
from fractalvit.harness import randomize_params
from fractalvit.mask import build_fractal_mask
from fractalvit.posenc import sincos2d
from fractalvit.rng import Rng
from test_autodiff import weighted_sum


def tiny_config(**overrides):
    base = dict(
        grid=GridSpec(4, 4, 2, 1), d=32, n_heads=2, n_layers=2, n_classes=16,
        patch_size=4, scheme="sincos2d", policy="summary", mask="fractal",
        seed=0,
    )
    base.update(overrides)
    return EncoderConfig(**base)


# ----------------------------------------------------------------------
# numpy reference: one image, one head at a time
# ----------------------------------------------------------------------

def np_layer_norm(x, gain, shift, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + shift


def per_head_attention(q, k, v, bits, alibi, n_heads):
    """Each head sliced out of one sequence and attended on its own:
    q @ k.T times 1/sqrt(dh), plus the head's ALiBi table, then a softmax
    over the allowed keys only."""
    dh = q.shape[1] // n_heads
    heads = []
    for i in range(n_heads):
        cols = slice(i * dh, (i + 1) * dh)
        z = (q[:, cols] @ k[:, cols].T) * (1.0 / np.sqrt(dh))
        if alibi is not None:
            z = z + alibi[i]
        top = np.where(bits, z, -np.inf).max(axis=-1, keepdims=True)
        e = np.where(bits, np.exp(np.where(bits, z - top, 0.0)), 0.0)
        heads.append((e / e.sum(axis=-1, keepdims=True)) @ v[:, cols])
    return np.concatenate(heads, axis=1)


def reference_forward(image, config, params, attend=per_head_attention,
                      regular_pos=None):
    """Class logits of one image in plain numpy: a per-patch loop for the
    embedding, the sequence [regular | summary inits | global] plus the
    position table (``regular_pos`` replaces its regular rows), then the
    pre-norm blocks with ``attend`` mixing the tokens."""
    def t(name):
        return params.tensors[name].data

    ps, layout = config.patch_size, params.layout
    regular = np.array([
        t("patch_w") @ image[i * ps:(i + 1) * ps, j * ps:(j + 1) * ps, :]
        .reshape(-1) + t("patch_b")
        for i in range(config.grid.n_h) for j in range(config.grid.n_w)
    ])
    parts = [regular]
    if layout.n_additional > 0:
        parts.append(t("summary_init"))
    parts.append(t("global_token"))
    pos = t("posenc").copy()
    if regular_pos is not None:
        pos[:layout.n_regular] = regular_pos
    x = np.concatenate(parts) + pos
    assert x.shape == (layout.total, config.d)
    for layer in range(config.n_layers):
        p = f"layer{layer}."
        h = np_layer_norm(x, t(p + "ln1_gain"), t(p + "ln1_shift"))
        q, k, v = (h @ t(p + w).T for w in ("wq", "wk", "wv"))
        mixed = attend(q, k, v, params.mask, params.alibi, config.n_heads)
        x = x + mixed @ t(p + "wo").T
        h = np_layer_norm(x, t(p + "ln2_gain"), t(p + "ln2_shift"))
        m = h @ t(p + "mlp_w1").T + t(p + "mlp_b1")
        m = m * 0.5 * (1.0 + erf(m / math.sqrt(2.0)))
        x = x + m @ t(p + "mlp_w2").T + t(p + "mlp_b2")
    x = np_layer_norm(x, t("final_gain"), t("final_shift"))
    return t("head_w") @ x[layout.global_index] + t("head_b")


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("scheme,policy,mask", [
    ("sincos2d", "summary", "fractal"),
    ("none", "none", "full"),
    ("alibi2d", "summary", "fractal"),
])
def test_forward_batch_matches_per_head_reference(n_heads, scheme, policy, mask):
    config = tiny_config(scheme=scheme, policy=policy, mask=mask, d=16,
                         n_heads=n_heads)
    params = init_params(config)
    randomize_params(params, Rng(40 + n_heads))
    rng = np.random.default_rng(41)
    images = [rng.random(config.image_shape) for _ in range(3)]
    batched = forward_batch(images, config, params).data
    expected = np.array([reference_forward(img, config, params) for img in images])
    assert np.abs(batched - expected).max() < 1e-12


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------

def test_config_rejects_bad_combinations():
    with pytest.raises(ConfigError):
        tiny_config(d=30)  # not divisible by 4 under sincos2d
    with pytest.raises(ConfigError):
        tiny_config(d=33, scheme="none", policy="none")  # heads mismatch
    for d in (1, 0):
        with pytest.raises(ConfigError, match="layer norm"):
            tiny_config(d=d, n_heads=1, scheme="none", policy="none")
    with pytest.raises(ConfigError):
        tiny_config(scheme="none")  # summary policy without a scheme
    with pytest.raises(ConfigError):
        tiny_config(mask="sparse")
    with pytest.raises(ConfigError):
        tiny_config(scheme="fourier")
    for tau in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="tau"):
            tiny_config(scheme="none", policy="none", tau=tau)  # unused, still checked


def test_config_allows_alibi_and_register():
    tiny_config(scheme="alibi2d", policy="summary", d=30, n_heads=2)
    tiny_config(scheme="none", policy="register")
    tiny_config(scheme="none", policy="sincos2d")


# ----------------------------------------------------------------------
# patch embedding
# ----------------------------------------------------------------------

def test_patch_count_from_shape():
    config = tiny_config(grid=GridSpec(2, 2, 2, 1), patch_size=16)
    image = np.zeros((32, 32, 3))
    assert patch_rows([image], config).shape == (4, 3 * 16 * 16)
    assert patch_rows([image] * 3, config).shape == (12, 3 * 16 * 16)


@pytest.mark.parametrize("grid, patch", [
    (GridSpec(4, 4, 2, 1), 4), (GridSpec(3, 5, 2, 1), 2), (GridSpec(1, 4, 2, 0), 3),
])
def test_patch_rows_match_a_per_patch_loop(grid, patch):
    config = tiny_config(grid=grid, patch_size=patch)
    rng = np.random.default_rng(5)
    images = [rng.standard_normal(config.image_shape) for _ in range(3)]
    want = np.array([
        image[i * patch:(i + 1) * patch, j * patch:(j + 1) * patch, :].reshape(-1)
        for image in images for i in range(grid.n_h) for j in range(grid.n_w)
    ])
    assert np.array_equal(patch_rows(images, config).data, want)


def test_zero_image_zero_bias_gives_zero_tokens():
    # With the initial (zero) patch bias, summary and global tokens and no
    # position table, a zero image makes every token zero, so the tokens
    # stay equal through the blocks and the mask cannot matter.
    fractal = tiny_config(scheme="none", policy="none")
    full = tiny_config(scheme="none", policy="none", mask="full")
    pf = init_params(fractal)
    randomize_params(pf, Rng(1))
    init = init_params(fractal)
    for name in ("patch_b", "summary_init", "global_token"):
        pf.tensors[name].data[...] = init.tensors[name].data
    pu = init_params(full)
    pu.tensors.update(pf.tensors)

    def gap(image):
        return np.abs(forward_batch([image], fractal, pf).data
                      - forward_batch([image], full, pu).data).max()

    assert gap(np.zeros(fractal.image_shape)) < 1e-12
    assert gap(np.random.default_rng(2).random(fractal.image_shape)) > 1e-8


def test_patch_embed_matches_naive_loop():
    config = tiny_config()
    params = init_params(config)
    randomize_params(params, Rng(0))
    rng = np.random.default_rng(0)
    images = [rng.random(config.image_shape) for _ in range(2)]
    logits = forward_batch(images, config, params).data
    expected = np.array([reference_forward(img, config, params) for img in images])
    assert np.abs(logits - expected).max() < 1e-12


def test_patch_embed_rejects_wrong_image_shape():
    config = tiny_config()
    params = init_params(config)
    good = np.zeros(config.image_shape)
    with pytest.raises(ConfigError):
        forward_batch([np.zeros((8, 8, 3))], config, params, Tape())
    with pytest.raises(ConfigError) as caught:
        forward_batch([good, np.zeros((8, 8, 3))], config, params, Tape())
    assert str(caught.value) == \
        "image shape (8, 8, 3) does not match configured (16, 16, 3)"


# ----------------------------------------------------------------------
# token assembly
# ----------------------------------------------------------------------

def test_assembled_sequence_layout():
    config = tiny_config(scheme="none", policy="none")
    params = init_params(config)
    randomize_params(params, Rng(1))
    assert params.attn_bias.shape == (21, 21)
    image = np.random.default_rng(1).random(config.image_shape)
    # the reference assembles [16 regular | 4 summary | global] explicitly
    expected = reference_forward(image, config, params)
    assert np.abs(forward_batch([image], config, params).data[0] - expected).max() < 1e-12


def test_assembly_adds_positional_vectors():
    config = tiny_config()  # sincos2d + summary
    params = init_params(config)
    randomize_params(params, Rng(2))
    image = np.random.default_rng(1).random(config.image_shape)
    logits = forward_batch([image], config, params).data[0]
    pe = sincos2d(4, 4, config.d).reshape(-1, config.d)
    expected = reference_forward(image, config, params, regular_pos=pe)
    assert np.abs(logits - expected).max() < 1e-12
    unplaced = reference_forward(image, config, params, regular_pos=0.0)
    assert np.abs(logits - unplaced).max() > 1e-8


def test_sequence_length_273_for_16x16_k4():
    config = tiny_config(
        grid=GridSpec(16, 16, 4, 1), patch_size=1, d=32, n_heads=2,
        n_classes=4,
    )
    params = init_params(config)
    assert params.tensors["posenc"].data.shape == (273, config.d)
    assert params.attn_bias.shape == (273, 273)
    logits = forward_batch([np.zeros(config.image_shape)], config, params)
    assert logits.data.shape == (1, 4)


# ----------------------------------------------------------------------
# attention block
# ----------------------------------------------------------------------

def test_zero_qk_full_mask_averages_values():
    config = tiny_config(scheme="none", policy="none", mask="full")
    params = init_params(config)
    randomize_params(params, Rng(3))
    for i in range(config.n_layers):
        params.tensors[f"layer{i}.wq"].data[...] = 0.0
        params.tensors[f"layer{i}.wk"].data[...] = 0.0
    image = np.random.default_rng(4).random(config.image_shape)
    logits = forward_batch([image], config, params).data[0]

    def uniform(q, k, v, bits, alibi, n_heads):
        # uniform attention: every head output row is the mean over rows
        return np.tile(v.mean(axis=0), (v.shape[0], 1))

    expected = reference_forward(image, config, params, attend=uniform)
    assert np.abs(logits - expected).max() < 1e-12


def test_fractal_mask_zeroes_nonparent_attention():
    config = tiny_config()
    params = init_params(config)
    n = params.layout.total
    rng = np.random.default_rng(5)
    scores = rng.standard_normal((2, n, n)) + params.attn_bias
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = weights / weights.sum(axis=-1, keepdims=True)
    # regular token 0 may not attend summary (0,1) = index 17
    assert np.all(probs[:, 0, 17] == 0.0)
    assert np.all(probs[:, 0, 16] > 0.0)  # its parent
    assert np.array_equal(probs == 0.0, np.broadcast_to(~params.mask, probs.shape))


def test_single_token_attention_reduces_to_projections():
    config = tiny_config(scheme="none", policy="none", mask="full")
    params = init_params(config)
    randomize_params(params, Rng(6))
    single = EncoderParams(
        config, params.layout, np.ones((1, 1), dtype=bool),
        params.tensors, params.pos_trainable_rows, None,
    )
    x = Tensor(np.random.default_rng(7).standard_normal((1, config.d)))
    tape = Tape(recording=False)
    attention, mlp = forward_stages(single)[1:3]
    mid = attention.run(x, tape)
    out = run_stages([attention, mlp], x, tape)

    ln = tape.layer_norm(
        x, params.tensors["layer0.ln1_gain"], params.tensors["layer0.ln1_shift"]
    ).data
    v = ln @ params.tensors["layer0.wv"].data.T
    after = x.data + v @ params.tensors["layer0.wo"].data.T
    assert np.abs(mid.data - after).max() < 1e-12
    ln2 = tape.layer_norm(
        Tensor(after), params.tensors["layer0.ln2_gain"], params.tensors["layer0.ln2_shift"]
    )
    m = tape.gelu(tape.linear(ln2, params.tensors["layer0.mlp_w1"],
                              params.tensors["layer0.mlp_b1"]))
    m = tape.linear(m, params.tensors["layer0.mlp_w2"], params.tensors["layer0.mlp_b2"])
    assert np.abs(out.data - (after + m.data)).max() < 1e-12


# ----------------------------------------------------------------------
# forward stages
# ----------------------------------------------------------------------

SCHEME_POLICIES = [
    ("sincos2d", "summary"), ("alibi2d", "summary"), ("learned", "register"),
    ("learned", "none"), ("none", "register"), ("none", "none"),
]


@st.composite
def stage_configs(draw):
    scheme, policy = draw(st.sampled_from(SCHEME_POLICIES))
    return tiny_config(
        grid=draw(st.sampled_from(
            [GridSpec(2, 2, 2, 0), GridSpec(2, 2, 2, 1), GridSpec(4, 4, 2, 1)])),
        d=8, n_heads=draw(st.sampled_from([1, 2])),
        n_layers=draw(st.integers(1, 2)), n_classes=4, patch_size=2,
        scheme=scheme, policy=policy,
        mask=draw(st.sampled_from(["fractal", "full"])),
        seed=draw(st.integers(0, 3)),
    )


def stage_inputs(stages, images, config):
    """The input of every stage, then the logits, as arrays."""
    x = patch_rows(images, config)
    arrays = []
    for stage in stages:
        arrays.append(x.data)
        x = stage.run(x, Tape(recording=False))
    return arrays + [x.data]


@pytest.mark.parametrize("overrides", [
    {},
    dict(grid=GridSpec(4, 4, 2, 0), scheme="alibi2d", mask="full"),  # no summary_init
    dict(scheme="alibi2d", policy="summary", mask="fractal"),
    dict(scheme="learned", policy="register", n_layers=3),
])
def test_each_tensor_is_read_by_the_one_stage_that_names_it(overrides):
    config = tiny_config(**overrides)
    params = init_params(config)
    randomize_params(params, Rng(12))
    stages = forward_stages(params)
    assert len(stages) == 2 * config.n_layers + 2
    named = [name for stage in stages for name in stage.reads]
    assert sorted(named) == sorted(params.tensors)  # each name exactly once
    rng = np.random.default_rng(13)
    images = [rng.random(config.image_shape) for _ in range(2)]
    arrays = stage_inputs(stages, images, config)
    assert arrays[-1].shape == (2, config.n_classes)
    for i, stage in enumerate(stages):
        # every tensor the stage does not name turns NaN in place
        others = {name: tensor.data.copy() for name, tensor in params.tensors.items()
                  if name not in stage.reads}
        for name in others:
            params.tensors[name].data[...] = np.nan
        out = stage.run(Tensor(arrays[i]), Tape(recording=False)).data
        for name, data in others.items():
            params.tensors[name].data[...] = data
        assert np.isfinite(out).all(), i
        assert out.tobytes() == arrays[i + 1].tobytes(), i


@settings(max_examples=25, deadline=None)
@given(config=stage_configs(), batch=st.integers(1, 2),
       delta=st.sampled_from([-0.5, 0.25, 3.0]), seed=st.integers(0, 2 ** 16))
def test_perturbing_a_tensor_leaves_earlier_stage_inputs_unchanged(
        config, batch, delta, seed):
    params = init_params(config)
    randomize_params(params, Rng(seed))
    rng = np.random.default_rng(seed)
    images = [rng.random(config.image_shape) for _ in range(batch)]
    stages = forward_stages(params)
    before = stage_inputs(stages, images, config)

    for name, tensor, row_mask in params.trainable_items():
        allowed = np.ones(tensor.data.shape, dtype=bool)
        if row_mask is not None:
            allowed &= row_mask[:, None]
        flat = tensor.data.reshape(-1)
        idx = rng.choice(np.flatnonzero(allowed))
        saved = flat[idx]
        flat[idx] = saved + delta
        after = stage_inputs(stages, images, config)
        flat[idx] = saved

        (first,) = [i for i, stage in enumerate(stages) if name in stage.reads]
        for i in range(first + 1):
            assert np.array_equal(before[i], after[i]), (name, i)
        assert not np.array_equal(before[first + 1], after[first + 1]), name


@settings(max_examples=30, deadline=None)
@given(scheme=st.sampled_from(["none", "sincos2d", "alibi2d", "learned"]),
       mask=st.sampled_from(["fractal", "full"]), layers=st.integers(1, 2),
       copies=st.integers(1, 9), batch=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
def test_a_copies_tape_gives_each_copy_the_bits_of_its_own_run(
        scheme, mask, layers, copies, batch, seed):
    policy = {"none": "none", "learned": "register"}.get(scheme, "summary")
    config = tiny_config(d=8, n_layers=layers, n_classes=4, patch_size=2,
                         scheme=scheme, policy=policy, mask=mask)
    params = init_params(config)
    randomize_params(params, Rng(seed))
    rng = np.random.default_rng(seed)
    stages = forward_stages(params)
    notape = Tape(recording=False)
    seqs = [
        stages[0].run(patch_rows([rng.random(config.image_shape)
                                  for _ in range(batch)], config), notape).data
        for _ in range(copies)
    ]
    labels = rng.integers(0, config.n_classes, batch).tolist()
    stacked = Tape(recording=False, copies=copies)
    logits = run_stages(stages[1:], Tensor(np.concatenate(seqs)), stacked)
    losses = stacked.softmax_cross_entropy_rows(logits, labels * copies).data
    assert losses.shape == ((copies,) if copies > 1 else ())
    for c, seq in enumerate(seqs):
        own = run_stages(stages[1:], Tensor(seq), notape)
        assert logits.data[c * batch:(c + 1) * batch].tobytes() == own.data.tobytes()
        own_loss = notape.softmax_cross_entropy_rows(own, labels).data
        assert losses.reshape(-1)[c].tobytes() == own_loss.tobytes()


def test_copies_need_a_non_recording_tape_and_rows_that_split():
    for recording, copies in ((True, 2), (False, 0), (True, 0)):
        with pytest.raises(ContractError, match=f"copies={copies} needs"):
            Tape(recording=recording, copies=copies)
    assert Tape(recording=True, copies=1).recording
    with pytest.raises(ShapeError, match="5 rows do not split into 2 copies"):
        Tape(recording=False, copies=2).linear(Tensor(np.ones((5, 3))),
                                               Tensor(np.ones((4, 3))))


def test_mask_and_alibi_are_read_only():
    # attn_bias is derived from both once; a new value for either, bound
    # or written in place, would leave it stale and the logits unchanged
    config = tiny_config(scheme="alibi2d", policy="summary")
    params = init_params(config)
    mask, alibi = params.mask, params.alibi
    with pytest.raises(AttributeError):
        params.mask = np.ones_like(mask)
    with pytest.raises(AttributeError):
        params.alibi = np.zeros_like(alibi)
    for table, index in ((params.alibi, (0, 0, 1)), (params.attn_bias, (0, 0, 1)),
                         (params.mask, (0, 17))):
        with pytest.raises(ValueError):
            table[index] = 123.0
    assert params.mask is mask and params.alibi is alibi


def test_params_keep_their_own_copies_of_the_callers_tables():
    config = tiny_config(scheme="alibi2d", policy="summary")
    source = init_params(config)
    randomize_params(source, Rng(9))
    mask = build_fractal_mask(source.layout)
    alibi = np.array(source.alibi)
    params = EncoderParams(config, source.layout, mask, source.tensors,
                           source.pos_trainable_rows, alibi)
    image = np.random.default_rng(10).random(config.image_shape)
    bias, logits = params.attn_bias.copy(), forward(image, config, params).data
    assert not mask[0, 17] and bias[0, 0, 17] == -np.inf

    mask[0, 17] = True  # the caller's arrays stay writable and unshared
    alibi[0, 0, 1] = 123.0
    assert not params.mask[0, 17] and params.alibi[0, 0, 1] != 123.0
    assert np.array_equal(params.attn_bias, bias)
    assert np.array_equal(forward(image, config, params).data, logits)


# ----------------------------------------------------------------------
# forward and loss
# ----------------------------------------------------------------------

def test_zero_init_head_gives_equal_logits():
    config = tiny_config()
    params = init_params(config)
    image = np.random.default_rng(8).random(config.image_shape)
    logits = forward(image, config, params).data
    assert np.all(logits == logits[0])


def test_cross_entropy_of_equal_logits():
    config = tiny_config()
    params = init_params(config)
    image = np.random.default_rng(9).random(config.image_shape)
    tape = Tape()
    out = batch_loss([image], [5], config, params, tape)
    assert abs(float(out.data) - math.log(16)) < 1e-12


def test_forward_is_bitwise_deterministic():
    config = tiny_config()
    params = init_params(config)
    randomize_params(params, Rng(10))
    image = np.random.default_rng(11).random(config.image_shape)
    a = forward(image, config, params).data
    b = forward(image, config, params).data
    assert np.array_equal(a, b)


def test_same_seed_same_params():
    a = init_params(tiny_config())
    b = init_params(tiny_config())
    for name, tensor in a.tensors.items():
        assert np.array_equal(tensor.data, b.tensors[name].data), name


def test_loss_rejects_bad_label():
    config = tiny_config()
    params = init_params(config)
    images = [np.zeros(config.image_shape)]
    with pytest.raises(ContractError):
        batch_loss(images, [16], config, params, Tape())
    with pytest.raises(ContractError):
        batch_loss(images, [-1], config, params, Tape())


def test_summary_tokens_start_at_zero():
    params = init_params(tiny_config())
    assert np.all(params.tensors["summary_init"].data == 0.0)
    assert np.all(params.tensors["global_token"].data == 0.0)
    assert np.all(params.tensors["head_w"].data == 0.0)


def test_projection_weights_use_fan_in_scale():
    config = tiny_config()
    params = init_params(config)
    # std of a unit normal truncated at +-2
    z = 2.0
    density = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
    truncated_std = math.sqrt(1 - 2 * z * density / math.erf(z / math.sqrt(2)))
    projections = ("patch_w", "wq", "wk", "wv", "wo", "mlp_w1", "mlp_w2")
    checked = 0
    for name, tensor in params.tensors.items():
        data = tensor.data
        if name.split(".")[-1] in projections:
            std = 1.0 / math.sqrt(data.shape[1])
            assert np.abs(data).max() <= 2.0 * std
            assert abs(data.std() / (truncated_std * std) - 1.0) < 0.1, name
            checked += 1
        elif name.endswith("gain"):
            assert np.all(data == 1.0), name
        elif name != "posenc":
            assert np.all(data == 0.0), name
    assert checked == 1 + 6 * config.n_layers


def test_full_model_gradients_match_finite_differences():
    # small-but-complete model; the tiny preset runs in the acceptance suite
    config = tiny_config(
        grid=GridSpec(2, 2, 2, 1), d=8, n_heads=2, n_layers=1, n_classes=4,
        patch_size=2,
    )
    from fractalvit.harness import gradcheck

    assert gradcheck(config, eps=1e-5, batch_size=2, seed=1) < 1e-4


def test_alibi_bias_changes_attention():
    base = tiny_config(scheme="none", policy="none", mask="full")
    alibi = tiny_config(scheme="alibi2d", policy="summary", mask="full")
    pa, pb = init_params(base), init_params(alibi)
    randomize_params(pa, Rng(12))
    for name, tensor in pa.tensors.items():
        pb.tensors[name].data[...] = tensor.data
    image = np.random.default_rng(13).random(base.image_shape)
    la = forward(image, base, pa).data
    lb = forward(image, alibi, pb).data
    assert np.abs(la - lb).max() > 1e-8


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    config = tiny_config()
    params = init_params(config)
    randomize_params(params, Rng(14))
    image = np.random.default_rng(15).random(config.image_shape)
    before = forward(image, config, params).data

    path = str(tmp_path / "model.fvit")
    save_checkpoint(path, params)
    fresh = init_params(config)
    apply_checkpoint(fresh, load_checkpoint(path))
    after = forward(image, config, fresh).data
    assert np.array_equal(before, after)

    save_checkpoint(str(tmp_path / "again.fvit"), params)
    assert (tmp_path / "again.fvit").read_bytes() == (tmp_path / "model.fvit").read_bytes()


@st.composite
def checkpoint_configs(draw):
    scheme, policy = draw(st.sampled_from([("learned", "register"),
                                           ("alibi2d", "summary")]))
    return tiny_config(
        grid=draw(st.sampled_from(
            [GridSpec(2, 2, 2, 0), GridSpec(2, 2, 2, 1), GridSpec(4, 4, 2, 2)])),
        d=4, n_heads=draw(st.sampled_from([1, 2])),
        n_layers=draw(st.integers(1, 2)), n_classes=4, patch_size=1,
        scheme=scheme, policy=policy,
        mask=draw(st.sampled_from(["fractal", "full"])),
        seed=draw(st.integers(0, 3)),
    )


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=checkpoint_configs(), seed=st.integers(0, 2 ** 16), data=st.data())
def test_truncated_checkpoint_raises_contract_error(tmp_path, config, seed, data):
    params = init_params(config)
    randomize_params(params, Rng(seed))
    path = tmp_path / "model.fvit"
    save_checkpoint(str(path), params)
    blob = path.read_bytes()

    fresh = init_params(config)
    apply_checkpoint(fresh, load_checkpoint(str(path)))
    images = [np.random.default_rng(seed).random(config.image_shape)]
    assert forward_batch(images, config, fresh).data.tobytes() == \
        forward_batch(images, config, params).data.tobytes()
    save_checkpoint(str(tmp_path / "again.fvit"), fresh)
    assert (tmp_path / "again.fvit").read_bytes() == blob

    # the byte offset where each record ends, after the 8-byte header
    names = list(params.tensors)
    ends = [8]
    for name, tensor in params.tensors.items():
        shape = tensor.data.shape
        ends.append(ends[-1] + 4 + len(name.encode()) + 4 + 4 * len(shape)
                    + 8 * tensor.data.size)
    assert ends[-1] == len(blob)
    cut = tmp_path / "cut.fvit"
    # a cut between two records reads as the tensors before it, which
    # apply_checkpoint rejects by name
    for count, size in enumerate(ends[:-1]):
        cut.write_bytes(blob[:size])
        state = load_checkpoint(str(cut))
        assert list(state) == names[:count]
        with pytest.raises(ContractError):
            apply_checkpoint(init_params(config), state)
    inside = [size for size in range(len(blob)) if size not in ends]
    for size in data.draw(st.lists(st.sampled_from(inside), min_size=1, max_size=8)):
        cut.write_bytes(blob[:size])
        with pytest.raises(ContractError):
            load_checkpoint(str(cut))


def test_checkpoint_binary_layout(tmp_path):
    config = tiny_config()
    params = init_params(config)
    path = str(tmp_path / "model.fvit")
    save_checkpoint(path, params)
    blob = (tmp_path / "model.fvit").read_bytes()
    assert blob[:4] == b"FVIT"
    assert int.from_bytes(blob[4:8], "little") == 1
    name_len = int.from_bytes(blob[8:12], "little")
    assert blob[12:12 + name_len].decode() == "patch_w"
    state = load_checkpoint(path)
    assert list(state)[0] == "patch_w"
    assert state["patch_w"].shape == (32, 48)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.fvit"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ContractError):
        load_checkpoint(str(path))


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    config = tiny_config()
    params = init_params(config)
    path = str(tmp_path / "model.fvit")
    save_checkpoint(path, params)
    other = init_params(tiny_config(d=16))
    with pytest.raises(Exception):
        apply_checkpoint(other, load_checkpoint(path))


# ----------------------------------------------------------------------
# batched forward path
# ----------------------------------------------------------------------

def test_forward_batch_matches_per_sample():
    for scheme, policy, mask in [
        ("sincos2d", "summary", "fractal"),
        ("none", "none", "full"),
        ("alibi2d", "summary", "fractal"),
    ]:
        config = tiny_config(scheme=scheme, policy=policy, mask=mask, d=16)
        params = init_params(config)
        randomize_params(params, Rng(30))
        rng = np.random.default_rng(31)
        images = [rng.random(config.image_shape) for _ in range(3)]
        batched = forward_batch(images, config, params).data
        single = np.array([forward(img, config, params).data for img in images])
        assert np.abs(batched - single).max() < 1e-12, (scheme, mask)


def test_batch_loss_matches_mean_of_sample_losses():
    config = tiny_config(d=16)
    params = init_params(config)
    randomize_params(params, Rng(32))
    rng = np.random.default_rng(33)
    images = [rng.random(config.image_shape) for _ in range(4)]
    labels = [1, 5, 0, 15]
    tape = Tape(recording=False)
    batched = float(batch_loss(images, labels, config, params, tape).data)
    singles = [
        float(batch_loss([img], [lab], config, params, tape).data)
        for img, lab in zip(images, labels)
    ]
    assert abs(batched - float(np.mean(singles))) < 1e-12


def test_batch_gradients_match_per_sample_gradients():
    config = tiny_config(
        grid=GridSpec(2, 2, 2, 1), d=8, n_heads=2, n_layers=1, n_classes=4,
        patch_size=2,
    )
    params = init_params(config)
    randomize_params(params, Rng(34))
    rng = np.random.default_rng(35)
    images = [rng.random(config.image_shape) for _ in range(3)]
    labels = [0, 2, 3]

    tape = Tape()
    tape.backward(batch_loss(images, labels, config, params, tape))
    batched = {
        name: t.grad.copy() for name, t, _ in params.trainable_items()
    }
    params.zero_grads()

    tape = Tape()
    total = None
    for img, lab in zip(images, labels):
        one = batch_loss([img], [lab], config, params, tape)
        total = one if total is None else tape.add(total, one)
    tape.backward(weighted_sum(tape, total, 1.0 / 3.0))
    for name, t, _ in params.trainable_items():
        a, b = batched[name], t.grad
        denom = max(float(np.abs(a).max()), float(np.abs(b).max()), 1e-9)
        assert float(np.abs(a - b).max()) / denom < 1e-9, name

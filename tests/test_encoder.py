import math

import numpy as np
import pytest

from fractalvit.autodiff import Tape, Tensor
from fractalvit.encoder import (
    EncoderConfig,
    apply_checkpoint,
    assemble_tokens,
    attention_block,
    extract_patches,
    forward,
    init_params,
    load_checkpoint,
    loss,
    patch_embed,
    save_checkpoint,
)
from fractalvit.errors import ConfigError, ContractError
from fractalvit.grid import GridSpec
from fractalvit.harness import randomize_params
from fractalvit.mask import build_fractal_mask
from fractalvit.posenc import sincos2d
from fractalvit.rng import Rng


def tiny_config(**overrides):
    base = dict(
        grid=GridSpec(4, 4, 2, 1), d=32, n_heads=2, n_layers=2, n_classes=16,
        patch_size=4, scheme="sincos2d", policy="summary", mask="fractal",
        seed=0,
    )
    base.update(overrides)
    return EncoderConfig(**base)


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------

def test_config_rejects_bad_combinations():
    with pytest.raises(ConfigError):
        tiny_config(d=30)  # not divisible by 4 under sincos2d
    with pytest.raises(ConfigError):
        tiny_config(d=33, scheme="none", policy="none")  # heads mismatch
    with pytest.raises(ConfigError):
        tiny_config(scheme="none")  # summary policy without a scheme
    with pytest.raises(ConfigError):
        tiny_config(mask="sparse")
    with pytest.raises(ConfigError):
        tiny_config(scheme="fourier")


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
    assert extract_patches(image, config).shape == (4, 3 * 16 * 16)


def test_zero_image_zero_bias_gives_zero_tokens():
    config = tiny_config()
    params = init_params(config)
    tape = Tape(recording=False)
    tokens = patch_embed(np.zeros(config.image_shape), config, params, tape)
    assert np.all(tokens.data == 0.0)


def test_patch_embed_matches_naive_loop():
    config = tiny_config()
    params = init_params(config)
    rng = np.random.default_rng(0)
    image = rng.random(config.image_shape)
    tape = Tape(recording=False)
    tokens = patch_embed(image, config, params, tape).data

    w = params.t("patch_w").data
    b = params.t("patch_b").data
    ps = config.patch_size
    expected = np.zeros_like(tokens)
    for i in range(config.grid.n_h):
        for j in range(config.grid.n_w):
            flat = image[i * ps:(i + 1) * ps, j * ps:(j + 1) * ps, :].reshape(-1)
            expected[i * config.grid.n_w + j] = w @ flat + b
    assert np.abs(tokens - expected).max() < 1e-12


def test_patch_embed_rejects_wrong_image_shape():
    config = tiny_config()
    params = init_params(config)
    with pytest.raises(ConfigError):
        patch_embed(np.zeros((8, 8, 3)), config, params, Tape())


# ----------------------------------------------------------------------
# token assembly
# ----------------------------------------------------------------------

def test_assembled_sequence_layout():
    config = tiny_config(scheme="none", policy="none")
    params = init_params(config)
    tape = Tape(recording=False)
    tokens = patch_embed(np.zeros(config.image_shape), config, params, tape)
    seq = assemble_tokens(tokens, params, tape)
    assert seq.data.shape == (21, config.d)
    # zero-init summary and global rows stay zero without positional vectors
    assert np.all(seq.data[16:] == 0.0)


def test_assembly_adds_positional_vectors():
    config = tiny_config()  # sincos2d + summary
    params = init_params(config)
    tape = Tape(recording=False)
    image = np.random.default_rng(1).random(config.image_shape)
    tokens = patch_embed(image, config, params, tape)
    seq = assemble_tokens(tokens, params, tape)
    pe = sincos2d(4, 4, config.d).reshape(-1, config.d)
    assert np.allclose(seq.data[:16], tokens.data + pe, atol=1e-15)


def test_sequence_length_273_for_16x16_k4():
    config = tiny_config(
        grid=GridSpec(16, 16, 4, 1), patch_size=1, d=32, n_heads=2,
        n_classes=4,
    )
    params = init_params(config)
    tape = Tape(recording=False)
    tokens = patch_embed(np.zeros(config.image_shape), config, params, tape)
    seq = assemble_tokens(tokens, params, tape)
    assert seq.data.shape[0] == 273


def test_assemble_rejects_wrong_token_count():
    config = tiny_config()
    params = init_params(config)
    with pytest.raises(ContractError):
        assemble_tokens(Tensor(np.zeros((7, config.d))), params, Tape())


# ----------------------------------------------------------------------
# attention block
# ----------------------------------------------------------------------

def test_zero_qk_full_mask_averages_values():
    config = tiny_config(scheme="none", policy="none", mask="full")
    params = init_params(config)
    randomize_params(params, Rng(3))
    for i in range(config.n_layers):
        params.t(f"layer{i}.wq").data[...] = 0.0
        params.t(f"layer{i}.wk").data[...] = 0.0
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((21, config.d)))
    tape = Tape(recording=False)
    out = attention_block(x, 0, params, tape)

    # uniform attention means every head output row is the mean over rows
    ln = tape.layer_norm(
        x, params.t("layer0.ln1_gain"), params.t("layer0.ln1_shift")
    )
    v = ln.data @ params.t("layer0.wv").data.T
    mixed = np.tile(v.mean(axis=0), (21, 1))
    after_attn = x.data + mixed @ params.t("layer0.wo").data.T
    ln2 = tape.layer_norm(
        Tensor(after_attn), params.t("layer0.ln2_gain"),
        params.t("layer0.ln2_shift"),
    )
    m = tape.gelu(tape.linear(ln2, params.t("layer0.mlp_w1"),
                              params.t("layer0.mlp_b1")))
    m = tape.linear(m, params.t("layer0.mlp_w2"), params.t("layer0.mlp_b2"))
    expected = after_attn + m.data
    assert np.abs(out.data - expected).max() < 1e-12


def test_fractal_mask_zeroes_nonparent_attention():
    config = tiny_config()
    params = init_params(config)
    layout = params.layout
    bits = build_fractal_mask(layout).bits
    rng = np.random.default_rng(5)
    logits = Tensor(rng.standard_normal((layout.total, layout.total)))
    tape = Tape(recording=False)
    probs = tape.masked_softmax(logits, bits)
    # regular token 0 may not attend summary (0,1) = index 17
    assert probs.data[0, 17] == 0.0
    assert probs.data[0, 16] > 0.0  # its parent


def test_single_token_attention_reduces_to_projections():
    config = tiny_config(scheme="none", policy="none", mask="full")
    params = init_params(config)
    randomize_params(params, Rng(6))
    x = Tensor(np.random.default_rng(7).standard_normal((1, config.d)))
    tape = Tape(recording=False)

    bits_backup = params.mask.bits
    params.mask = type(params.mask)(np.ones((1, 1), dtype=bool))
    out = attention_block(x, 0, params, tape)
    params.mask = type(params.mask)(bits_backup)

    ln = tape.layer_norm(
        x, params.t("layer0.ln1_gain"), params.t("layer0.ln1_shift")
    ).data
    v = ln @ params.t("layer0.wv").data.T
    after = x.data + v @ params.t("layer0.wo").data.T
    ln2 = tape.layer_norm(
        Tensor(after), params.t("layer0.ln2_gain"), params.t("layer0.ln2_shift")
    )
    m = tape.gelu(tape.linear(ln2, params.t("layer0.mlp_w1"),
                              params.t("layer0.mlp_b1")))
    m = tape.linear(m, params.t("layer0.mlp_w2"), params.t("layer0.mlp_b2"))
    assert np.abs(out.data - (after + m.data)).max() < 1e-12


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
    out = loss(forward(image, config, params, tape), 5, tape)
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
    tape = Tape()
    logits = forward(np.zeros(config.image_shape), config, params, tape)
    with pytest.raises(ContractError):
        loss(logits, 16, tape)


def test_summary_tokens_start_at_zero():
    params = init_params(tiny_config())
    assert np.all(params.t("summary_init").data == 0.0)
    assert np.all(params.t("global_token").data == 0.0)
    assert np.all(params.t("head_w").data == 0.0)


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


def test_truncated_checkpoint_raises_contract_error(tmp_path):
    config = tiny_config(grid=GridSpec(2, 2, 2, 1), d=4, n_heads=1,
                         n_layers=1, n_classes=4, patch_size=1)
    params = init_params(config)
    path = tmp_path / "model.fvit"
    save_checkpoint(str(path), params)
    blob = path.read_bytes()
    names = list(params.tensors)
    cut = tmp_path / "cut.fvit"
    prefixes = 0
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        try:
            state = load_checkpoint(str(cut))
        except ContractError:
            continue
        # only a cut between two records parses: it lacks the later tensors
        assert list(state) == names[:len(state)] and len(state) < len(names)
        prefixes += 1
        with pytest.raises(ContractError):
            apply_checkpoint(init_params(config), state)
    # the cuts after the header and after every record but the last
    assert prefixes == len(names)


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
    from fractalvit.encoder import batch_loss, forward_batch

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
    from fractalvit.encoder import batch_loss

    config = tiny_config(d=16)
    params = init_params(config)
    randomize_params(params, Rng(32))
    rng = np.random.default_rng(33)
    images = [rng.random(config.image_shape) for _ in range(4)]
    labels = [1, 5, 0, 15]
    tape = Tape(recording=False)
    batched = float(batch_loss(images, labels, config, params, tape).data)
    singles = [
        float(loss(forward(img, config, params, tape), lab, tape).data)
        for img, lab in zip(images, labels)
    ]
    assert abs(batched - float(np.mean(singles))) < 1e-12


def test_batch_gradients_match_per_sample_gradients():
    from fractalvit.encoder import batch_loss

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
        one = loss(forward(img, config, params, tape), lab, tape)
        total = one if total is None else tape.add(total, one)
    tape.backward(tape.scale(total, 1.0 / 3.0))
    for name, t, _ in params.trainable_items():
        a, b = batched[name], t.grad
        denom = max(float(np.abs(a).max()), float(np.abs(b).max()), 1e-9)
        assert float(np.abs(a - b).max()) / denom < 1e-9, name

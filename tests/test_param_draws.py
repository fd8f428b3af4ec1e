"""``init_params`` and ``randomize_params`` draw every value of a model in
one stream call. These tests hold them to the one-call-per-tensor loops
they replaced, kept here as plain references, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalvit.encoder import EncoderConfig, init_params
from fractalvit.grid import GridSpec, max_levels
from fractalvit.harness import randomize_params
from fractalvit.posenc import POLICIES, SCHEMES
from fractalvit.rng import Rng, substream_seed

SCHEME_POLICIES = [(s, p) for s in SCHEMES for p in POLICIES
                   if (s, p) != ("none", "summary")]


def init_tensors_by_loop(config, n_additional):
    """Every tensor but ``posenc``, in canonical order, with one truncated
    normal draw per projection weight at its own std."""
    rng = Rng(substream_seed(config.seed, 0))
    d, r = config.d, config.mlp_ratio
    tensors = {}

    def weight(name, shape):
        std = 1.0 / math.sqrt(shape[1])
        tensors[name] = rng.truncated_normal_array(shape, std=std)

    def zeros(name, shape):
        tensors[name] = np.zeros(shape)

    def ones(name, shape):
        tensors[name] = np.ones(shape)

    weight("patch_w", (d, 3 * config.patch_size ** 2))
    zeros("patch_b", (d,))
    for i in range(config.n_layers):
        p = f"layer{i}."
        ones(p + "ln1_gain", (d,))
        zeros(p + "ln1_shift", (d,))
        weight(p + "wq", (d, d))
        weight(p + "wk", (d, d))
        weight(p + "wv", (d, d))
        weight(p + "wo", (d, d))
        ones(p + "ln2_gain", (d,))
        zeros(p + "ln2_shift", (d,))
        weight(p + "mlp_w1", (r * d, d))
        zeros(p + "mlp_b1", (r * d,))
        weight(p + "mlp_w2", (d, r * d))
        zeros(p + "mlp_b2", (d,))
    if n_additional > 0:
        zeros("summary_init", (n_additional, d))
    zeros("global_token", (1, d))
    ones("final_gain", (d,))
    zeros("final_shift", (d,))
    zeros("head_w", (config.n_classes, d))
    zeros("head_b", (config.n_classes,))
    return tensors


def randomize_params_by_loop(params, rng):
    """One ``normal_array`` call per trainable tensor."""
    for name, tensor, row_mask in params.trainable_items():
        draw = rng.normal_array(tensor.data.shape, std=0.2)
        if name.endswith("gain"):
            draw = 1.0 + draw
        if row_mask is None:
            tensor.data[...] = draw
        else:
            tensor.data[row_mask] = draw[row_mask]


@st.composite
def configs(draw):
    """Grids up to 6x6 with k = 2-3 and any level count they allow, 1-3
    layers, mlp_ratio 1-4 and every allowed (scheme, policy) pair."""
    n_h, n_w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(2, 3))
    grid = GridSpec(n_h, n_w, k, draw(st.integers(0, max_levels(n_h, n_w, k))))
    scheme, policy = draw(st.sampled_from(SCHEME_POLICIES))
    n_heads = draw(st.integers(1, 2))
    return EncoderConfig(
        grid=grid, d=4 * draw(st.integers(1, 3)) * n_heads, n_heads=n_heads,
        n_layers=draw(st.integers(1, 3)), n_classes=draw(st.integers(2, 5)),
        patch_size=draw(st.integers(1, 2)), mlp_ratio=draw(st.integers(1, 4)),
        scheme=scheme, policy=policy, mask=draw(st.sampled_from(("fractal", "full"))),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
    )


def assert_one_draw_equals_the_loops(config, seed):
    params = init_params(config)
    expected = init_tensors_by_loop(config, params.layout.n_additional)
    assert list(params.tensors) == list(expected) + ["posenc"]
    for name, data in expected.items():
        assert params.tensors[name].data.tobytes() == data.tobytes(), name

    by_loop = init_params(config)
    fast, slow = Rng(seed), Rng(seed)
    randomize_params(params, fast)
    randomize_params_by_loop(by_loop, slow)
    for name, tensor in by_loop.tensors.items():
        assert params.tensors[name].data.tobytes() == tensor.data.tobytes(), name
    assert fast._s == slow._s


@settings(max_examples=60, deadline=None)
@given(config=configs(), seed=st.integers(0, 2 ** 64 - 1))
def test_one_draw_equals_the_per_tensor_loops(config, seed):
    assert_one_draw_equals_the_loops(config, seed)


@pytest.mark.parametrize("scheme, policy, trained", [
    ("learned", "register", "all"),     # every row of the table
    ("learned", "sincos2d", "some"),    # regular and global rows only
    ("none", "register", "some"),       # register rows only
    ("alibi2d", "summary", "none"),     # no table to train
])
def test_position_tables_of_every_trainability(scheme, policy, trained):
    config = EncoderConfig(grid=GridSpec(6, 6, 2, 2), d=8, n_heads=2,
                           n_layers=2, n_classes=3, patch_size=1,
                           mlp_ratio=2, scheme=scheme, policy=policy, seed=3)
    rows = init_params(config).pos_trainable_rows
    assert trained == ("all" if rows.all() else "some" if rows.any() else "none")
    assert_one_draw_equals_the_loops(config, 5)

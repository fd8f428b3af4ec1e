import numpy as np
import pytest

from fractalvit.encoder import EncoderConfig
from fractalvit.errors import ConfigError
from fractalvit.grid import GridSpec, build_layout
from fractalvit.posenc import (
    alibi2d_bias,
    alibi_slopes,
    assemble_posenc,
    init_learned,
    sincos2d,
    postable_csv,
)


# ----------------------------------------------------------------------
# sincos2d
# ----------------------------------------------------------------------

def test_origin_is_alternating_zero_one():
    for d in (4, 8, 32):
        vec = sincos2d(3, 3, d)[0, 0]
        assert np.array_equal(vec, np.tile([0.0, 1.0], d // 2))


def test_direct_evaluation_d4():
    vec = sincos2d(2, 2, 4, tau=10000.0)[1, 0]
    expected = [np.sin(1.0), np.cos(1.0), 0.0, 1.0]
    assert np.allclose(vec, expected, atol=1e-12)
    assert abs(vec[0] - 0.841471) < 1e-6
    assert abs(vec[1] - 0.540302) < 1e-6


def test_pairwise_identity_and_norm():
    for h, w, d in [(4, 4, 32), (16, 16, 64), (7, 5, 8)]:
        table = sincos2d(h, w, d).reshape(-1, d)
        pair_sums = table[:, 0::2] ** 2 + table[:, 1::2] ** 2
        assert np.abs(pair_sums - 1.0).max() < 1e-12
        assert np.abs((table ** 2).sum(axis=1) - d / 2).max() < 1e-12


def test_norm_is_exactly_half_d_on_small_tables():
    # on these instances every float pair lands exactly on 1.0
    for h, w, d in [(4, 4, 32), (2, 2, 4)]:
        table = sincos2d(h, w, d).reshape(-1, d)
        assert np.all((table ** 2).sum(axis=1) == d / 2)


def test_distinct_positions_get_distinct_vectors():
    table = sincos2d(32, 32, 16).reshape(-1, 16)
    assert len(np.unique(table, axis=0)) == 32 * 32


def test_d_not_divisible_by_four_rejected():
    with pytest.raises(ConfigError):
        sincos2d(4, 4, 6)


@pytest.mark.parametrize("h, w", [(0, 4), (4, 0), (0, 0), (-1, 4)])
def test_empty_grid_rejected(h, w):
    with pytest.raises(ConfigError, match=f"at least 1x1, got {h}x{w}"):
        sincos2d(h, w, 8)


@pytest.mark.parametrize("tau", [0.0, -2.0, float("nan"), float("inf")])
def test_tau_that_is_not_positive_and_finite_rejected(tau):
    with pytest.raises(ConfigError, match="tau must be a positive finite number"):
        sincos2d(4, 4, 8, tau)
    layout = build_layout(GridSpec(4, 4, 2, 1))
    with pytest.raises(ConfigError, match="tau"):  # also where tau is unused
        assemble_posenc("learned", layout, 8, seed=0, policy="register", tau=tau)


# ----------------------------------------------------------------------
# learned init
# ----------------------------------------------------------------------

def test_learned_same_seed_identical():
    a = init_learned(10, 8, seed=3)
    b = init_learned(10, 8, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, init_learned(10, 8, seed=4))


def test_learned_truncation_bound():
    table = init_learned(500, 20, seed=5)
    assert np.abs(table).max() <= 0.04


def test_learned_mean_near_zero():
    table = init_learned(1000, 10, seed=6)  # 1e4 entries
    assert abs(table.mean()) < 3 * (0.02 / 100)


# ----------------------------------------------------------------------
# alibi slopes and bias
# ----------------------------------------------------------------------

def test_slopes_powers_of_two_for_eight_heads():
    assert np.array_equal(alibi_slopes(8), [2.0 ** -(h + 1) for h in range(8)])


def test_slopes_single_head():
    assert np.array_equal(alibi_slopes(1), [0.00390625])


def test_slopes_six_heads_first_value():
    assert abs(alibi_slopes(6)[0] - 0.39685026299204984) < 1e-15


def test_slope_ratio_constant():
    for n in (1, 2, 3, 6, 8, 12):
        slopes = alibi_slopes(n)
        assert np.all(np.diff(slopes) < 0)
        if n > 1:
            ratios = slopes[1:] / slopes[:-1]
            assert np.abs(ratios - 2.0 ** (-8.0 / n)).max() < 1e-12


def test_bias_three_four_five_triangle():
    layout = build_layout(GridSpec(8, 8, 2, 1))
    bias = alibi2d_bias(layout, 1)
    assert bias.shape == (1, layout.total, layout.total)
    token_a = 0             # regular (0, 0)
    token_b = 3 * 8 + 4     # regular (3, 4)
    assert bias[0][token_a, token_b] == -alibi_slopes(1)[0] * 5.0


def test_bias_zero_diagonal_and_symmetric():
    layout = build_layout(GridSpec(6, 6, 2, 2))
    bias = alibi2d_bias(layout, 4)
    for h in range(4):
        b = bias[h]
        assert np.all(np.diagonal(b) == 0.0)
        assert np.array_equal(b, b.T)
        assert np.all(b <= 0.0)


def test_bias_uses_each_levels_own_grid():
    layout = build_layout(GridSpec(16, 16, 4, 1))
    bias = alibi2d_bias(layout, 2)
    s0 = layout.offsets[1]  # summary (0, 0)
    s1 = s0 + 1             # summary (0, 1)
    # adjacent summary cells are distance 1 on the 4x4 summary grid
    assert bias[0][s0, s1] == -alibi_slopes(2)[0] * 1.0


def test_bias_cross_level_and_global_zero():
    layout = build_layout(GridSpec(8, 8, 2, 2))
    bias = alibi2d_bias(layout, 2)
    g = layout.global_index
    s = layout.offsets[1]
    assert bias[0][0, s] == 0.0
    assert np.all(bias[:, g, :] == 0.0)
    assert np.all(bias[:, :, g] == 0.0)


def test_bias_regular_only_mode():
    layout = build_layout(GridSpec(8, 8, 2, 1))
    bias = alibi2d_bias(layout, 2, regular_only=True)
    s0, s1 = layout.offsets[1], layout.offsets[1] + 1
    assert bias[0][s0, s1] == 0.0
    assert bias[0][0, 1] == -alibi_slopes(2)[0]


# ----------------------------------------------------------------------
# assembled tables
# ----------------------------------------------------------------------

def tiny_layout():
    return build_layout(GridSpec(4, 4, 2, 1))


def test_assemble_sincos_summary_per_level_grids():
    layout = build_layout(GridSpec(16, 16, 4, 1))
    table = assemble_posenc("sincos2d", layout, 16, seed=0, policy="summary")
    assert np.array_equal(
        table.vectors[:256], sincos2d(16, 16, 16).reshape(-1, 16)
    )
    assert np.array_equal(
        table.vectors[256:272], sincos2d(4, 4, 16).reshape(-1, 16)
    )
    assert np.all(table.vectors[-1] == 0.0)  # global zero
    assert not table.trainable.any()


def test_assemble_none_register():
    layout = tiny_layout()
    table = assemble_posenc("none", layout, 8, seed=1, policy="register")
    assert np.all(table.vectors[:16] == 0.0)
    assert np.all(table.vectors[16:20] != 0.0)
    assert np.all(table.vectors[-1] == 0.0)
    assert list(table.trainable) == [False] * 16 + [True] * 4 + [False]


def test_assemble_none_summary_rejected():
    with pytest.raises(ConfigError):
        assemble_posenc("none", tiny_layout(), 8, seed=0, policy="summary")


def test_assemble_learned_summary_equals_register():
    layout = tiny_layout()
    a = assemble_posenc("learned", layout, 8, seed=2, policy="summary")
    b = assemble_posenc("learned", layout, 8, seed=2, policy="register")
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.trainable, b.trainable)
    assert a.trainable.all()  # global vector is trainable too


def test_assemble_learned_global_trainable_under_policy_none():
    layout = tiny_layout()
    table = assemble_posenc("learned", layout, 8, seed=2, policy="none")
    assert table.trainable[-1]
    assert np.all(table.vectors[16:20] == 0.0)
    assert not table.trainable[16:20].any()


def test_assemble_summary_only_sincos():
    # regular tokens carry no positional information, summaries do
    layout = tiny_layout()
    table = assemble_posenc("none", layout, 8, seed=0, policy="sincos2d")
    assert np.all(table.vectors[:16] == 0.0)
    assert np.array_equal(table.vectors[16:20], sincos2d(2, 2, 8).reshape(-1, 8))
    assert np.all(table.vectors[-1] == 0.0)
    assert not table.trainable.any()


def test_assemble_learned_rows_are_init_learned_draws():
    layout = tiny_layout()
    table = assemble_posenc("learned", layout, 8, seed=5, policy="none")
    rows = list(range(16)) + [layout.global_index]
    assert np.array_equal(table.vectors[rows], init_learned(17, 8, seed=5))


@pytest.mark.parametrize("scheme,policy,d", [
    ("rope", "summary", 8),        # unknown scheme
    ("sincos2d", "tokens", 8),     # unknown policy
    ("none", "summary", 8),        # summary tokens indistinguishable
    ("sincos2d", "summary", 6),    # sincos2d needs d % 4 == 0
    ("none", "sincos2d", 6),
])
def test_scheme_policy_rules_are_shared_with_the_encoder_config(scheme, policy, d):
    with pytest.raises(ConfigError) as table_error:
        assemble_posenc(scheme, tiny_layout(), d, seed=0, policy=policy)
    with pytest.raises(ConfigError) as config_error:
        EncoderConfig(grid=GridSpec(4, 4, 2, 1), d=d, n_heads=1, n_layers=1,
                      n_classes=16, patch_size=4, scheme=scheme, policy=policy)
    assert str(table_error.value) == str(config_error.value)


def test_assemble_alibi2d_has_zero_vectors():
    table = assemble_posenc("alibi2d", tiny_layout(), 8, seed=0, policy="summary")
    assert np.all(table.vectors == 0.0)


def test_assemble_same_seed_reproducible():
    layout = tiny_layout()
    a = assemble_posenc("learned", layout, 12, seed=9, policy="summary")
    b = assemble_posenc("learned", layout, 12, seed=9, policy="summary")
    assert np.array_equal(a.vectors, b.vectors)


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------

def test_postable_csv():
    table = assemble_posenc("sincos2d", tiny_layout(), 4, seed=0, policy="summary")
    lines = postable_csv(table).strip().split("\n")
    assert len(lines) == 21
    first = lines[0].split(",")
    assert first[0] == "0"
    assert [float(v) for v in first[1:]] == [0.0, 1.0, 0.0, 1.0]


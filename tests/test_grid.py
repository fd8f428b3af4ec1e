import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalvit.errors import ConfigError, ContractError
from fractalvit.grid import GridSpec, build_layout, max_levels


def test_max_levels_known_values():
    assert max_levels(14, 14, 2) == 3
    assert max_levels(14, 14, 4) == 1
    assert max_levels(1, 1, 2) == 0
    assert max_levels(16, 16, 4) == 2
    assert max_levels(8, 8, 4) == 1


def test_max_levels_rejects_bad_input():
    with pytest.raises(ConfigError):
        max_levels(4, 4, 1)
    with pytest.raises(ConfigError):
        max_levels(0, 4, 2)


def test_gridspec_validation():
    GridSpec(14, 14, 2, 3)  # maximal is fine
    with pytest.raises(ConfigError):
        GridSpec(14, 14, 2, 4)  # level 4 grid would be 0x0
    with pytest.raises(ConfigError):
        GridSpec(3, 3, 4, 1)  # zero summary grid
    with pytest.raises(ConfigError):
        GridSpec(4, 4, 2, -1)
    with pytest.raises(ConfigError):
        GridSpec(4, 4, 1, 0)


def test_counts_16x16_k4_single_level():
    layout = build_layout(GridSpec(16, 16, 4, 1))
    assert layout.counts == (256, 16)
    assert layout.total == 256 + 16 + 1 == 273
    assert layout.n_additional == 16


def test_counts_14x14_k2_three_levels():
    layout = build_layout(GridSpec(14, 14, 2, 3))
    assert layout.counts == (196, 49, 9, 1)
    assert layout.n_additional == 49 + 9 + 1 == 59


def test_additional_token_identity_for_14x14():
    expected = {2: 59, 3: 17, 4: 9, 5: 4}
    for k, count in expected.items():
        layout = build_layout(GridSpec(14, 14, k, max_levels(14, 14, k)))
        assert layout.n_additional == count


def test_14x14_k5_single_level():
    layout = build_layout(GridSpec(14, 14, 5, 1))
    assert layout.n_additional == 4


def index(layout, level, i, j):
    """Canonical index of the level-``level`` token at row i, column j."""
    return layout.offsets[level] + i * layout.level_shapes[level][1] + j


def test_parent_examples():
    layout = build_layout(GridSpec(16, 16, 4, 1))
    assert layout.parent[index(layout, 0, 5, 7)] == index(layout, 1, 1, 1) == 261
    layout = build_layout(GridSpec(8, 8, 4, 1))
    assert layout.parent[0] == index(layout, 1, 0, 0) == 64


def test_floor_rule_orphans():
    # 14x14 with k=3: level-1 grid is 4x4, covering rows/cols 0..11 only
    layout = build_layout(GridSpec(14, 14, 3, 1))
    assert layout.parent[index(layout, 0, 13, 0)] is None
    assert layout.parent[index(layout, 0, 0, 12)] is None
    assert layout.parent[index(layout, 0, 11, 11)] == index(layout, 1, 3, 3)


def test_orphans_are_exactly_the_cells_outside_the_floor_grid():
    # 14x14 with k=3 and two levels: 14*14 - 12*12 orphan patches, and the
    # level-1 cells of row and column 3 fall outside the 1x1 level-2 grid
    layout = build_layout(GridSpec(14, 14, 3, 2))
    for level, covered in ((0, 12), (1, 3)):
        h, w = layout.level_shapes[level]
        for i in range(h):
            for j in range(w):
                orphan = i >= covered or j >= covered
                par = layout.parent[index(layout, level, i, j)]
                assert (par is None) == orphan
    assert layout.parent[:196].count(None) == 196 - 144
    assert layout.parent[196:212].count(None) == 16 - 9


def test_token_info_validates_index():
    layout = build_layout(GridSpec(8, 8, 4, 1))
    with pytest.raises(ContractError):
        layout.token_info(layout.total)
    with pytest.raises(ContractError):
        layout.token_info(-1)


def test_top_level_and_global_have_no_parent():
    layout = build_layout(GridSpec(16, 16, 4, 2))
    top_first = layout.offsets[2]
    assert layout.parent[top_first] is None
    assert layout.parent[layout.global_index] is None


def test_children_are_k_squared_when_divisible():
    layout = build_layout(GridSpec(8, 8, 4, 1))
    for cell in range(layout.counts[1]):
        idx = layout.offsets[1] + cell
        assert layout.parent.count(idx) == 16


def test_canonical_order_roundtrip():
    for spec in (GridSpec(14, 14, 2, 3), GridSpec(16, 16, 4, 2), GridSpec(5, 7, 2, 1)):
        layout = build_layout(spec)
        for idx in range(layout.total):
            group, level, i, j = layout.token_info(idx)
            if group == "global":
                assert idx == layout.global_index
            else:
                assert index(layout, level, i, j) == idx


def test_ordering_is_row_major_groups_in_level_order():
    layout = build_layout(GridSpec(4, 6, 2, 1))
    assert layout.token_info(0) == ("regular", 0, 0, 0)
    assert layout.token_info(1) == ("regular", 0, 0, 1)
    assert layout.token_info(6) == ("regular", 0, 1, 0)
    first_summary = layout.offsets[1]
    assert layout.token_info(first_summary) == ("summary", 1, 0, 0)
    assert layout.token_info(first_summary + 3) == ("summary", 1, 1, 0)
    assert layout.token_info(layout.total - 1)[0] == "global"


def test_dump_format():
    layout = build_layout(GridSpec(4, 4, 2, 1))
    lines = layout.dump().splitlines()
    assert len(lines) == layout.total
    assert lines[0] == "0\tregular\t0\t0,0\t16"
    assert lines[16] == "16\tsummary\t1\t0,0\t-"
    assert lines[-1] == f"{layout.total - 1}\tglobal\t-\t-\t-"


@st.composite
def grid_specs(draw):
    n_h, n_w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    k = draw(st.integers(2, 4))
    return GridSpec(n_h, n_w, k, draw(st.integers(0, max_levels(n_h, n_w, k))))


@settings(max_examples=80, deadline=None)
@given(spec=grid_specs())
def test_layout_counts_offsets_and_parents(spec):
    layout = build_layout(spec)
    k, top = spec.k, spec.levels
    assert layout.counts == tuple(
        (spec.n_h // k ** m) * (spec.n_w // k ** m) for m in range(top + 1))
    assert layout.offsets == tuple(sum(layout.counts[:m]) for m in range(top + 1))
    assert layout.total == sum(layout.counts) + 1
    assert layout.token_info(layout.total - 1)[0] == "global"
    assert layout.parent[layout.global_index] is None
    for cell in range(layout.counts[top]):
        assert layout.parent[layout.offsets[top] + cell] is None
    for m in range(top):
        h, w = layout.level_shapes[m]
        ph, pw = layout.level_shapes[m + 1]
        for i in range(h):
            for j in range(w):
                exists = i // k < ph and j // k < pw
                want = index(layout, m + 1, i // k, j // k) if exists else None
                assert layout.parent[index(layout, m, i, j)] == want, (m, i, j)
    assert len(layout.dump().splitlines()) == layout.total

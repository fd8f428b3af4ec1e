import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalvit.errors import ConfigError
from fractalvit.grid import GridSpec, build_layout, max_levels
from fractalvit.mask import (
    build_fractal_mask,
    build_full_mask,
    mask_csv,
    mask_pgm,
)


def reference_four_summary_mask(n_h, n_w):
    """Independent dense reference for the single-level 4-summary mask.

    Built the blunt way: three all-ones diagonal blocks, then explicit
    block<->summary edges, then the global row/column.
    """
    n_reg = n_h * n_w
    n_sum = n_reg // 16
    n = n_reg + n_sum + 1
    mask = np.zeros((n, n))
    mask[:n_reg, :n_reg] = 1
    mask[n_reg:n_reg + n_sum, n_reg:n_reg + n_sum] = 1
    mask[n - 1, n - 1] = 1
    sum_w = n_w // 4
    for i in range(n_h // 4):
        for j in range(n_w // 4):
            index = n_reg + i * sum_w + j
            for row in range(i * 4, i * 4 + 4):
                start = row * n_w + j * 4
                mask[start:start + 4, index] = mask[index, start:start + 4] = 1
    mask[-1, :] = mask[:, -1] = 1
    return mask.astype(bool)


def fractal_bits(n_h, n_w, k, levels):
    return build_fractal_mask(build_layout(GridSpec(n_h, n_w, k, levels)))


# ----------------------------------------------------------------------
# oracle equivalence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n_h", [4, 8, 12, 16])
@pytest.mark.parametrize("n_w", [4, 8, 12, 16])
def test_bit_identical_to_reference_for_k4_single_level(n_h, n_w):
    assert np.array_equal(
        fractal_bits(n_h, n_w, 4, 1), reference_four_summary_mask(n_h, n_w)
    )


def test_row_sums_8x8_k4():
    bits = fractal_bits(8, 8, 4, 1)
    sums = bits.sum(axis=1)
    assert sums[0] == 64 + 1 + 1 == 66       # regular: peers + parent + global
    assert sums[64] == 16 + 4 + 1 == 21      # summary: children + peers + global
    assert sums[-1] == 69                    # global: everything


def test_zero_levels_degenerates_to_full():
    bits = fractal_bits(5, 3, 2, 0)
    assert bits.all()
    assert bits.shape == (16, 16)


# ----------------------------------------------------------------------
# full mask
# ----------------------------------------------------------------------

def test_full_mask_trivial_cases():
    assert np.array_equal(build_full_mask(1), [[True]])
    m3 = build_full_mask(3)
    assert m3.dtype == bool and m3.all()
    assert (m3.sum(axis=1) == 3).all()
    with pytest.raises(ConfigError):
        build_full_mask(0)


# ----------------------------------------------------------------------
# structural invariants
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec",
    [GridSpec(8, 8, 4, 1), GridSpec(14, 14, 2, 3), GridSpec(5, 7, 2, 1)],
)
def test_symmetry_diagonal_global(spec):
    layout = build_layout(spec)
    bits = build_fractal_mask(layout)
    assert np.array_equal(bits, bits.T)
    assert np.diagonal(bits).all()
    assert bits[layout.global_index, :].all()
    assert bits[:, layout.global_index].all()


@pytest.mark.parametrize(
    "spec",
    [GridSpec(8, 8, 4, 1), GridSpec(14, 14, 2, 3), GridSpec(6, 6, 2, 1)],
)
def test_popcount_formula(spec):
    layout = build_layout(spec)
    bits = build_fractal_mask(layout)
    pairs = sum(1 for p in layout.parent if p is not None)
    expected = (
        sum(c * c for c in layout.counts)   # within-level complete blocks
        + 2 * pairs                          # parent<->child edges
        + 2 * (layout.total - 1) + 1         # global row and column
    )
    assert int(bits.sum()) == expected


def test_block_automorphisms_map_mask_onto_itself():
    layout = build_layout(GridSpec(8, 8, 4, 1))
    bits = build_fractal_mask(layout)
    rng = np.random.default_rng(0)
    k, n_w = 4, 8
    bw = n_w // k

    # within-block shuffle of regular tokens
    perm = np.arange(layout.total)
    for bi in range(2):
        for bj in range(2):
            members = [
                (bi * k + di) * n_w + (bj * k + dj)
                for di in range(k)
                for dj in range(k)
            ]
            perm[members] = rng.permutation(members)
    assert np.array_equal(bits[np.ix_(perm, perm)], bits)

    # whole-block permutation with consistent summary relabeling
    cell_perm = rng.permutation(4)
    perm = np.arange(layout.total)
    for dst_cell in range(4):
        src_cell = cell_perm[dst_cell]
        di_dst, dj_dst = divmod(dst_cell, bw)
        di_src, dj_src = divmod(src_cell, bw)
        for di in range(k):
            for dj in range(k):
                dst = (di_dst * k + di) * n_w + (dj_dst * k + dj)
                src = (di_src * k + di) * n_w + (dj_src * k + dj)
                perm[dst] = src
        perm[layout.offsets[1] + dst_cell] = layout.offsets[1] + src_cell
    assert np.array_equal(bits[np.ix_(perm, perm)], bits)

    # a cross-block transposition is not an automorphism
    perm = np.arange(layout.total)
    perm[[0, 4]] = [4, 0]  # (0,0) and (0,4) live in different blocks
    assert not np.array_equal(bits[np.ix_(perm, perm)], bits)


@settings(max_examples=25, deadline=None)
@given(n_h=st.integers(1, 12), n_w=st.integers(1, 12), k=st.integers(2, 4),
       data=st.data())
def test_random_layouts_keep_count_identities_and_a_clean_mask(
        n_h, n_w, k, data):
    levels = data.draw(st.integers(0, max_levels(n_h, n_w, k)), label="levels")
    layout = build_layout(GridSpec(n_h, n_w, k, levels))

    shapes = [(n_h // k ** m, n_w // k ** m) for m in range(levels + 1)]
    assert list(layout.level_shapes) == shapes
    assert list(layout.counts) == [h * w for h, w in shapes]
    assert list(layout.offsets) == [sum(layout.counts[:m]) for m in range(levels + 1)]
    assert layout.total == sum(layout.counts) + 1
    assert layout.n_regular == n_h * n_w
    assert layout.n_additional == sum(layout.counts[1:])
    assert layout.dump().count("\n") == layout.total

    children = np.zeros(layout.total, dtype=int)
    for m in range(levels + 1):
        start, stop = layout.offsets[m], layout.offsets[m] + layout.counts[m]
        parents = [p for p in layout.parent[start:stop] if p is not None]
        if m == levels:
            assert parents == []
            continue
        # floor rule: every level-(m+1) cell covers exactly k*k cells below
        assert len(parents) == k * k * layout.counts[m + 1]
        upper = layout.offsets[m + 1]
        assert all(upper <= p < upper + layout.counts[m + 1] for p in parents)
        np.add.at(children, parents, 1)
    assert layout.parent[layout.global_index] is None
    summaries = slice(layout.n_regular, layout.global_index)
    assert (children[summaries] == k * k).all()

    bits = build_fractal_mask(layout)
    g = layout.global_index
    assert np.array_equal(bits, bits.T)
    assert np.diagonal(bits).all()
    assert bits[g, :].all() and bits[:, g].all()
    # a token sees its own level, its children, its parent and the global
    # token (the global token's own row sees everything)
    levels_of = np.repeat(np.arange(levels + 1), layout.counts)
    has_parent = np.array([p is not None for p in layout.parent[:g]])
    expected = (np.array(layout.counts)[levels_of] + children[:g]
                + has_parent + 1)
    assert np.array_equal(bits.sum(axis=1), np.append(expected, layout.total))
    pairs = sum(1 for p in layout.parent if p is not None)
    assert int(bits.sum()) == (
        sum(c * c for c in layout.counts) + 2 * pairs + 2 * (layout.total - 1) + 1
    )


def test_fractal_mask_is_a_plain_bool_array():
    mask = build_fractal_mask(build_layout(GridSpec(4, 4, 2, 1)))
    assert type(mask) is np.ndarray and mask.dtype == bool
    assert mask.shape == (21, 21)
    assert not mask[0, 17] and mask[0, 16]  # its parent only


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------

def test_csv_export_roundtrip():
    layout = build_layout(GridSpec(4, 4, 2, 1))
    mask = build_fractal_mask(layout)
    text = mask_csv(mask)
    rows = [line.split(",") for line in text.strip().split("\n")]
    parsed = np.array(rows, dtype=int).astype(bool)
    assert np.array_equal(parsed, mask)
    assert "0" in text and "1" in text
    assert mask_csv(mask) == text


def test_pgm_export_format():
    mask = np.array([[True, False], [False, True]])
    lines = mask_pgm(mask).splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    assert lines[3] == "255 0"
    assert lines[4] == "0 255"

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalvit import rng as rng_module
from fractalvit.errors import ConfigError
from fractalvit.rng import (
    LANES_FROM,
    TRUNCATION,
    Rng,
    _apply,
    _jump_table,
    _lane_draw,
    _splitmix64_next,
    substream_seed,
)

SEEDS = (0, 1, 2 ** 63 + 5)


# ----------------------------------------------------------------------
# reference implementation: the array draws as scalar loops
# ----------------------------------------------------------------------

def ref_random(rng):
    """Uniform float64 in [0, 1) with 53 random bits: the scalar draw the
    array uniforms reproduce."""
    return (rng.next_u64() >> 11) * (2.0 ** -53)


def ref_normal(rng):
    """Box-Muller on two ``ref_random`` draws in Python floats, through
    ``math.log`` and ``math.cos``: the scalar draw the array normals
    reproduce."""
    u1 = 1.0 - ref_random(rng)  # (0, 1], keeps log finite
    u2 = ref_random(rng)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def ref_uniform_array(rng, shape):
    n = int(np.prod(shape))
    return np.array([ref_random(rng) for _ in range(n)]).reshape(shape)


def ref_normal_array(rng, shape, std=1.0):
    n = int(np.prod(shape))
    return np.array([ref_normal(rng) * std for _ in range(n)]).reshape(shape)


def ref_truncated_normal(rng, std, clip):
    """One normal draw, rejected and redrawn until within ``clip``."""
    while True:
        z = ref_normal(rng)
        if abs(z) <= clip:
            return z * std


def ref_truncated_normal_array(rng, shape, std, clip=TRUNCATION):
    n = int(np.prod(shape))
    return np.array(
        [ref_truncated_normal(rng, std, clip) for _ in range(n)]
    ).reshape(shape)


# (method, reference, extra arguments, generator words per value); a
# truncated draw's arguments are its std and the clip ``array_draw`` sets
ARRAY_DRAWS = {
    "uniform": ("uniform_array", ref_uniform_array, (), 1),
    "normal": ("normal_array", ref_normal_array, (0.3,), 2),
    "truncated": ("truncated_normal_array", ref_truncated_normal_array,
                  (0.02, 2.0), 2),
    # a third of the normals rejected, so several rounds per draw
    "truncated-narrow": ("truncated_normal_array",
                         ref_truncated_normal_array, (0.5, 1.0), 2),
    # no normal rejected: |z| <= sqrt(-2 ln 2^-53) < 8.6
    "truncated-wide": ("truncated_normal_array", ref_truncated_normal_array,
                       (1.0, 10.0), 2),
}


def array_draw(r, kind, shape):
    """The array method of ``kind`` on ``r``. A truncated draw runs with
    its clip in place of ``TRUNCATION``, so the rejection rounds are
    tested at other rates than the library's."""
    method, _, args, _ = ARRAY_DRAWS[kind]
    if method != "truncated_normal_array":
        return getattr(r, method)(shape, *args)
    std, clip = args
    with mock.patch.object(rng_module, "TRUNCATION", clip):
        return r.truncated_normal_array(shape, std)


def assert_same_draw(kind, seed, shape):
    """The array method and the scalar reference give the same bits and
    leave the generator in the same state."""
    _, ref, args, _ = ARRAY_DRAWS[kind]
    fast, slow = Rng(seed), Rng(seed)
    got = array_draw(fast, kind, shape)
    expected = ref(slow, shape, *args)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes(), (kind, seed, shape)
    assert fast.next_u64() == slow.next_u64(), (kind, seed, shape)


def test_splitmix64_published_vectors():
    # first output for state 0 is the classic reference value
    out, _ = _splitmix64_next(0)
    assert out == 0xE220A8397B1DCDAF
    state = 1234567
    outs = []
    for _ in range(5):
        out, state = _splitmix64_next(state)
        outs.append(out)
    assert outs == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_stream_determinism_and_independence():
    a, b = Rng(42), Rng(42)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]
    c = Rng(43)
    assert [Rng(42).next_u64() for _ in range(4)] != [c.next_u64() for _ in range(4)]


def test_frozen_stream_regression():
    # freezes the exact stream so seed-dependent artifacts stay reproducible
    r = Rng(0)
    assert [r.next_u64() for _ in range(3)] == [
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
    ]


def test_substream_seed():
    assert substream_seed(0, 0) == 0xE220A8397B1DCDAF
    assert substream_seed(7, 3) != substream_seed(7, 4)
    with pytest.raises(ValueError):
        substream_seed(1, -1)


def test_seeds_outside_the_stream_range_raise():
    # such seeds used to alias one in range: Rng(2**64) ran as Rng(0),
    # and substream_seed(-5, i) as substream_seed(2**64 - 5, i)
    for seed in (2 ** 64, -1, -5):
        with pytest.raises(ConfigError,
                           match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
            Rng(seed)
        with pytest.raises(ConfigError):
            substream_seed(seed, 0)


def test_random_unit_interval():
    r = Rng(5)
    draws = r.uniform_array((2000,))
    assert all(0.0 <= x < 1.0 for x in draws)
    assert abs(np.mean(draws) - 0.5) < 0.03


def test_below_range_and_uniformity():
    r = Rng(9)
    counts = np.zeros(7, dtype=int)
    for _ in range(7000):
        counts[r.below(7)] += 1
    assert counts.sum() == 7000
    # each bucket within 5 sigma of 1000
    sigma = np.sqrt(7000 * (1 / 7) * (6 / 7))
    assert np.abs(counts - 1000).max() < 5 * sigma
    with pytest.raises(ValueError):
        r.below(0)


def test_below_accepts_bounds_up_to_2_to_the_64():
    # a bound above 2**64 used to loop forever: no word lies below a
    # rejection threshold of ((2**64) // n) * n == 0
    for n in (2 ** 64 + 1, 2 ** 65):
        with pytest.raises(ValueError, match=rf"got {n}$"):
            Rng(0).below(n)
    with pytest.raises(ValueError, match="got -3$"):
        Rng(0).below(-3)
    # at 2**64 every word is accepted as it is
    r, words = Rng(0), Rng(0)
    assert [r.below(2 ** 64) for _ in range(3)] == [
        words.next_u64() for _ in range(3)
    ]


def test_normal_moments():
    r = Rng(11)
    draws = r.normal_array((20000,))
    assert abs(draws.mean()) < 0.03
    assert abs(draws.std() - 1.0) < 0.03


def test_truncated_normal_bounds():
    r = Rng(13)
    draws = r.truncated_normal_array((5000,), std=0.02)
    assert np.abs(draws).max() <= 0.04


def test_shuffle_is_permutation():
    r = Rng(17)
    items = list(range(50))
    r.shuffle(items)
    assert sorted(items) == list(range(50))
    assert items != list(range(50))


def test_array_helpers_shapes():
    r = Rng(19)
    assert r.uniform_array((3, 4, 2)).shape == (3, 4, 2)
    assert r.normal_array((5,), std=2.0).shape == (5,)
    assert r.truncated_normal_array((2, 3), std=0.02).shape == (2, 3)


# ----------------------------------------------------------------------
# array draws against the scalar reference
# ----------------------------------------------------------------------

def _boundary_sizes(words_per_value):
    """Value counts around the switch to lanes and around lane edges."""
    switch = -(-LANES_FROM // words_per_value)
    sizes = {1, 2, 3, 255, 256, 257, switch - 1, switch, switch + 1}
    for words in (1024, 4096, 16384):  # multiples of every lane length
        n = words // words_per_value
        sizes |= {n - 1, n, n + 1}
    return sorted(sizes)


@pytest.mark.parametrize("kind", sorted(ARRAY_DRAWS))
def test_array_draws_match_scalar_reference(kind):
    words = ARRAY_DRAWS[kind][3]
    for seed in SEEDS:
        for n in _boundary_sizes(words):
            assert_same_draw(kind, seed, (n,))
    assert_same_draw(kind, 7, (100_000,))
    assert_same_draw(kind, 8, (40, 3, 25))


@pytest.mark.parametrize("kind", sorted(ARRAY_DRAWS))
def test_zero_size_draws_leave_state_alone(kind):
    for shape in ((0,), (3, 0, 5)):
        r = Rng(3)
        out = array_draw(r, kind, shape)
        assert out.shape == shape and out.dtype == np.float64
        assert r.next_u64() == Rng(3).next_u64()


def _mixed_calls(r, uniform, normal, truncated):
    """Scalar and array draws interleaved on one generator."""
    out = []
    for _ in range(2):
        out += [
            r.next_u64(), uniform(r, (700,)), ref_normal(r),
            normal(r, (3, 300), 2.0), r.below(7),
            truncated(r, (40, 50), 0.1), ref_random(r), uniform(r, (2, 3)),
        ]
    items = list(range(30))
    r.shuffle(items)
    return out + [items, r.next_u64()]


def normals_from_words(words):
    """``ref_normal`` fed ``words`` in place of the generator's."""
    feed = iter(words.tolist())
    with mock.patch.object(Rng, "next_u64", lambda self: next(feed)):
        r = Rng(0)
        return np.array([ref_normal(r) for _ in range(words.size // 2)])


def test_large_normal_draw_is_pinned_to_the_scalar_formula():
    # the array Box-Muller runs scipy's xlogy and numpy's cos, which match
    # math.log and math.cos bit for bit (np.log differs on about 1 input
    # in 300); 2^19 normals also catch a vector log or cos that drifts
    # from libm on 1 input in 10^5
    words, _ = _lane_draw(Rng(2026)._s, 2 ** 20)
    got = Rng(2026).normal_array((2 ** 19,))
    assert got.tobytes() == normals_from_words(words).tobytes()


def test_normal_draw_edge_inputs_match_the_scalar_formula():
    # a uniform is (word >> 11) * 2^-53, so the word k << 11 draws
    # k * 2^-53; each pair also runs with the 11 dropped low bits set
    u1_ks = (0, 2 ** 53 - 1, 1)  # 1 - u1 = 1.0, 2^-53, 1 - 2^-53
    # 2 pi u2 = 0, pi/2, 3 pi/2, 2 pi (1 - 2^-53)
    u2_ks = (0, 2 ** 51, 3 * 2 ** 51, 2 ** 53 - 1)
    pairs = [(k1, k2) for k1 in u1_ks for k2 in u2_ks]
    words = np.array(
        [(k << 11) | low for k1, k2 in pairs for low in (0, 0x7FF)
         for k in (k1, k2)],
        dtype=np.uint64,
    )
    with mock.patch.object(Rng, "_words", lambda self, count: words[:count]):
        got = Rng(0).normal_array((words.size // 2,))
    assert got.tobytes() == normals_from_words(words).tobytes()


def test_scalar_and_array_calls_interleave():
    got = _mixed_calls(
        Rng(2 ** 64 - 1),
        lambda r, shape: r.uniform_array(shape),
        lambda r, shape, std: r.normal_array(shape, std),
        lambda r, shape, std: r.truncated_normal_array(shape, std),
    )
    expected = _mixed_calls(
        Rng(2 ** 64 - 1), ref_uniform_array, ref_normal_array,
        ref_truncated_normal_array,
    )
    for a, b in zip(got, expected, strict=True):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


# the lane length doubles at 2^(2j - 1) words from 32 on
LANE_LENGTH_CHANGES = (32, 128, 512, 2048, 8192, 32768)
# word counts of single draws that the symmetry probes make
WORKLOAD_COUNTS = (768, 2304, 52224, 54944)


def test_lane_draw_matches_next_u64():
    around_changes = tuple(c + d for c in LANE_LENGTH_CHANGES for d in (-1, 0))
    for seed in SEEDS:
        for count in (1, 2, 5, 63, 64, 65, 1023, 1024, 1025, 9000) \
                + WORKLOAD_COUNTS + around_changes:
            r = Rng(seed)
            words, end = _lane_draw(list(r._s), count)
            assert words.tolist() == [r.next_u64() for _ in range(count)]
            assert end == r._s


def test_jump_tables_are_powers_of_the_step():
    r = Rng(11)
    start = np.array([r._s], dtype=np.uint64)
    stepped = 0
    for k in range(11):
        while stepped < 2 ** k:
            r.next_u64()
            stepped += 1
        assert _apply(_jump_table(k), start).tolist() == [r._s]
        start = np.array([r._s], dtype=np.uint64)
        stepped = 0


@settings(max_examples=30, deadline=None)
@given(
    states=st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=2 ** 64 - 1)] * 4),
        min_size=1, max_size=5,
    ),
    k=st.integers(min_value=0, max_value=8),
)
def test_jump_equals_stepping_property(states, k):
    # the reference steps each state 2^k times with next_u64, whatever
    # form the jump tables take
    jumped = _apply(_jump_table(k), np.array(states, dtype=np.uint64))
    for state, image in zip(states, jumped.tolist(), strict=True):
        stepped, after_jump = Rng(0), Rng(0)
        stepped._s = list(state)
        for _ in range(2 ** k):
            stepped.next_u64()
        after_jump._s = image
        assert image == stepped._s
        assert after_jump.next_u64() == stepped.next_u64()


def test_jump_tables_touched_by_a_large_draw_stay_small():
    """Every jump table a 2^21-word draw builds takes at most 32 KB.

    Tables indexed by bytes instead of nibbles jump faster, but take
    256 KB each; they raised the benchmark's ``probe-4x4`` peak_rss_mb
    by 3.5 MB (62.2 to 65.7 MB)."""
    touched = []

    def record(k):
        touched.append(k)
        return _jump_table(k)

    with mock.patch.object(rng_module, "_jump_table", record):
        _lane_draw(Rng(4)._s, 2 ** 21)
    assert touched
    for k in set(touched):
        assert _jump_table(k).nbytes <= 32 * 1024, k


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(ARRAY_DRAWS)),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    n=st.integers(min_value=0, max_value=3000),
)
def test_array_draws_match_reference_property(kind, seed, n):
    assert_same_draw(kind, seed, (n,))


# ----------------------------------------------------------------------
# consecutive draws equal one draw of their concatenation
# ----------------------------------------------------------------------

SPLIT_SIZES = (0, LANES_FROM // 2 - 1, LANES_FROM // 2, 3001)


@pytest.mark.parametrize("a", SPLIT_SIZES)
@pytest.mark.parametrize("b", SPLIT_SIZES)
def test_split_draws_equal_one_draw(a, b):
    # sizes on both sides of the lane switch at LANES_FROM words
    for seed in SEEDS:
        one, split = Rng(seed), Rng(seed)
        whole = one.normal_array((a + b,), std=0.2)
        parts = [split.normal_array((a,), std=0.2),
                 split.normal_array((b,), std=0.2)]
        assert whole.tobytes() == np.concatenate(parts).tobytes()
        assert one._s == split._s

        one, split = Rng(seed), Rng(seed)
        whole = one.truncated_normal_array((a + b,), std=1.0)
        parts = [split.truncated_normal_array((a,), std=0.02),
                 split.truncated_normal_array((b,), std=0.7)]
        assert (whole[:a] * 0.02).tobytes() == parts[0].tobytes()
        assert (whole[a:] * 0.7).tobytes() == parts[1].tobytes()
        assert one._s == split._s

"""Seeded pseudo-random streams: splitmix64 expanding into xoshiro256**.

Both algorithms are fixed here (rather than delegating to ``random`` or
numpy generators) so that a given seed produces the same stream on every
platform and interpreter version.

The array draws step many lanes of the same stream at once in numpy
(see "lane-parallel draws" below). They return the same bits, and leave
the same state, as calling the scalar draw once per element (for the
truncated normal: ``normal()`` redrawn until it lies within
``TRUNCATION``). So consecutive array draws of one kind equal one draw
of their concatenation, and a truncated normal drawn at std 1 and then
scaled equals the draw at that std: callers that fill many tensors draw
once and slice.

Seeds are integers in [0, 2^64); ``check_seed``, ``Rng`` and
``substream_seed`` reject any other value with ``ConfigError`` rather
than let it alias one in range.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1

# truncated normals keep only draws within this many standard deviations
TRUNCATION = 2.0


def check_seed(seed: int, name: str) -> None:
    """Raise ``ConfigError`` unless ``seed`` is in [0, 2^64)."""
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"{name} must be in [0, 2**64), got {seed}")


def _splitmix64_next(state: int) -> tuple[int, int]:
    """One step of splitmix64; returns (output, new_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def substream_seed(seed: int, index: int) -> int:
    """The index-th output of the splitmix64 sequence started at ``seed``.

    Used to derive independent sub-seeds (parameter init, data shuffling,
    ...) from one user-facing seed.
    """
    check_seed(seed, "seed")
    if index < 0:
        raise ValueError("substream index must be non-negative")
    state = seed
    out = 0
    for _ in range(index + 1):
        out, state = _splitmix64_next(state)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** generator whose state is seeded through splitmix64."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        check_seed(seed, "seed")
        state = seed
        s = []
        for _ in range(4):
            word, state = _splitmix64_next(state)
            s.append(word)
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        """Uniform float64 in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        threshold = ((1 << 64) // n) * n
        while True:
            v = self.next_u64()
            if v < threshold:
                return v % n

    def normal(self) -> float:
        """Standard normal draw (Box-Muller; consumes two uniforms)."""
        u1 = 1.0 - self.random()  # (0, 1], keeps log finite
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


    def _lane_words(self, count: int) -> np.ndarray:
        """The next ``count`` outputs of ``next_u64``, stepped as lanes."""
        words, self._s = _lane_draw(self._s, count)
        return words

    def _normals(self, count: int) -> np.ndarray:
        """``count`` successive ``normal()`` draws as one array."""
        if 2 * count < LANES_FROM:
            return np.array([self.normal() for _ in range(count)])
        u = self._lane_words(2 * count)
        # math.log stays per element: np.log differs from it in the last
        # bit on some inputs. math.cos stays too, so the values do not
        # depend on numpy's vector math library.
        logs = np.fromiter(
            map(math.log, (1.0 - _unit(u[0::2])).tolist()), np.float64, count
        )
        cosines = np.fromiter(
            map(math.cos, (2.0 * math.pi * _unit(u[1::2])).tolist()),
            np.float64, count,
        )
        return np.sqrt(-2.0 * logs) * cosines

    def uniform_array(self, shape) -> np.ndarray:
        """``random()`` draws in row-major order."""
        n = int(np.prod(shape))
        if n < LANES_FROM:
            return np.array([self.random() for _ in range(n)]).reshape(shape)
        return _unit(self._lane_words(n)).reshape(shape)

    def normal_array(self, shape, std: float = 1.0) -> np.ndarray:
        """``normal() * std`` draws in row-major order."""
        n = int(np.prod(shape))
        return (self._normals(n) * std).reshape(shape)

    def truncated_normal_array(self, shape, std: float) -> np.ndarray:
        """``normal() * std`` draws in row-major order, each rejected and
        redrawn until it lies within ``TRUNCATION`` standard deviations.

        Each round draws one normal per value still missing, so no round
        draws past the last accepted value and the state ends where the
        per-value rejection loop would leave it.
        """
        n = int(np.prod(shape))
        parts = [np.empty(0)]  # keeps the result float64 when n == 0
        missing = n
        while missing:
            z = self._normals(missing)
            z = z[np.abs(z) <= TRUNCATION]
            parts.append(z)
            missing -= z.size
        return (np.concatenate(parts) * std).reshape(shape)


# ----------------------------------------------------------------------
# lane-parallel draws
# ----------------------------------------------------------------------
#
# The xoshiro256** transition T is linear over GF(2) on the 256 state
# bits (Blackman & Vigna, "Scrambled Linear Pseudorandom Number
# Generators", ACM TOMS 2021). So T^j is a 256x256 bit matrix, and a draw
# of ``count`` values can run as L lanes of m steps each, lane j starting
# at stream offset j*m. With m a power of two, the lane starts follow by
# doubling from the tables T^(2^k). Stepping the lanes together and
# reading them lane after lane gives the scalar stream, and the last
# lane's state after its last value is the scalar state after the draw.

LANES_FROM = 512  # draws of fewer words step the scalar generator


def _unit(u: np.ndarray) -> np.ndarray:
    """``random()``'s map from uint64 to [0, 1): exact in float64."""
    return (u >> 11).astype(np.float64) * (2.0 ** -53)


def _bits(states: np.ndarray) -> np.ndarray:
    """(L, 4) uint64 states -> (L, 256) 0/1, bit b of word w at 64*w + b."""
    return np.unpackbits(
        states.astype("<u8").view(np.uint8), axis=-1, bitorder="little"
    )


def _apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Apply a GF(2)-linear map, given as the images of the 256 basis
    states, to each row of ``states``.

    The bit products are summed as float32, which is exact: no sum
    exceeds 256.
    """
    counts = _bits(states).astype(np.float32) @ _bits(table).astype(np.float32)
    odd = (counts.astype(np.int32) & 1).astype(np.uint8)
    return np.packbits(odd, axis=-1, bitorder="little").view("<u8").astype(np.uint64)


def _step_lanes(lanes: np.ndarray, steps: int) -> np.ndarray:
    """Advance (4, L) lane states in place ``steps`` times.

    Returns the (steps, L) values of word 1 before each step, which the
    output scrambler maps to the draws (``_scramble``).
    """
    s0, s1, s2, s3 = lanes
    rows = np.empty((steps, lanes.shape[1]), dtype=np.uint64)
    t = np.empty_like(s1)
    for i in range(steps):
        rows[i] = s1
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=t)
        s3 >>= 19
        s3 |= t
    return rows


def _scramble(words: np.ndarray) -> np.ndarray:
    """rotl(s1 * 5, 7) * 9 in place, modulo 2^64."""
    words *= 5
    high = words >> 57
    words <<= 7
    words |= high
    words *= 9
    return words


@functools.cache
def _jump_table(k: int) -> np.ndarray:
    """T^(2^k) as a read-only (256, 4) uint64 array whose row b is the
    image of the state with only bit b set; 8 KB each."""
    if k > 0:
        table = _apply(_jump_table(k - 1), _jump_table(k - 1))
    else:
        table = np.zeros((4, 256), dtype=np.uint64)
        powers = np.uint64(1) << np.arange(64, dtype=np.uint64)
        for w in range(4):
            table[w, 64 * w:64 * (w + 1)] = powers
        _step_lanes(table, 1)
        table = table.T.copy()
    table.flags.writeable = False
    return table


def _lane_draw(state: list[int], count: int) -> tuple[np.ndarray, list[int]]:
    """The next ``count`` outputs from ``state``, and the state after them.

    Lanes run m = 2^a steps, m between 0.35 and 0.71 times sqrt(count).
    That balances the numpy calls of each step against the lane starts
    (one 256x256 bit product per lane).
    """
    a = max(0, count.bit_length() // 2 - 1)
    m = 1 << a
    n_lanes = -(-count // m)
    starts = np.array([state], dtype=np.uint64)
    k = a
    while len(starts) < n_lanes:
        ahead = _apply(_jump_table(k), starts[:n_lanes - len(starts)])
        starts = np.concatenate([starts, ahead])
        k += 1
    lanes = starts.T.copy()
    # the last lane gives only ``tail`` values; its state after them ends
    # the draw, and the full lanes then finish on their own
    tail = count - (n_lanes - 1) * m
    head = _step_lanes(lanes, tail)
    end = [int(w) for w in lanes[:, -1]]
    rest = _step_lanes(lanes[:, :-1], m - tail)

    words = np.empty(count, dtype=np.uint64)
    full = words[:(n_lanes - 1) * m].reshape(n_lanes - 1, m)
    full[:, :tail] = head[:, :-1].T
    full[:, tail:] = rest.T
    words[(n_lanes - 1) * m:] = head[:, -1]
    return _scramble(words), end

"""Positional information schemes: 2-D sinusoidal tables, learned tables,
2-D ALiBi attention biases, or none.

Additional (summary) tokens follow one of three policies:

* ``summary``  - same scheme as the regular tokens, evaluated on each
  summary level's own smaller grid;
* ``register`` - learned vectors regardless of the regular-token scheme;
* ``sincos2d`` - sinusoidal per-level tables regardless of the
  regular-token scheme (gives summary-only positional information when
  the regular scheme is ``none``);
* ``none``     - zero vectors.

The single global token gets a zero vector except under the learned
scheme, where it is part of the learned (trainable) table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import TokenLayout
from .rng import Rng

SCHEMES = ("sincos2d", "learned", "alibi2d", "none")
POLICIES = ("summary", "register", "sincos2d", "none")

LEARNED_STD = 0.02  # truncated at +-2 std


def check_tau(tau: float) -> None:
    """The sinusoid base must be a positive finite number: tau = 0 makes
    the frequencies infinite and the table NaN."""
    if not (math.isfinite(tau) and tau > 0):
        raise ConfigError(f"tau must be a positive finite number, got {tau!r}")


def sincos2d(h: int, w: int, d: int, tau: float = 10000.0) -> np.ndarray:
    """Fixed 2-D sinusoidal table of shape (h, w, d).

    The first d/2 dims encode the row coordinate, the second d/2 the
    column, with interleaved sin/cos pairs at frequencies tau**(-4i/d).
    """
    check_tau(tau)
    if h < 1 or w < 1:
        raise ConfigError(f"sincos2d needs a grid of at least 1x1, got {h}x{w}")
    if d < 4 or d % 4 != 0:
        raise ConfigError(f"sincos2d needs a positive d divisible by 4, got {d}")
    n_freq = d // 4
    omega = tau ** (-4.0 * np.arange(n_freq) / d)
    ys = np.arange(h, dtype=np.float64)
    xs = np.arange(w, dtype=np.float64)
    table = np.zeros((h, w, d), dtype=np.float64)
    y_angles = ys[:, None] * omega[None, :]  # (h, n_freq)
    x_angles = xs[:, None] * omega[None, :]  # (w, n_freq)
    for i in range(n_freq):
        table[:, :, 2 * i] = np.sin(y_angles[:, i])[:, None]
        table[:, :, 2 * i + 1] = np.cos(y_angles[:, i])[:, None]
        table[:, :, 2 * i + d // 2] = np.sin(x_angles[:, i])[None, :]
        table[:, :, 2 * i + d // 2 + 1] = np.cos(x_angles[:, i])[None, :]
    return table


def init_learned(count: int, d: int, seed: int) -> np.ndarray:
    """Learned-table initializer: truncated normal, std 0.02, cut at 2 std."""
    if count < 1:
        raise ConfigError(f"learned table needs count >= 1, got {count}")
    rng = Rng(seed)
    return rng.truncated_normal_array((count, d), std=LEARNED_STD)


def alibi_slopes(n_heads: int) -> np.ndarray:
    """Head slopes m(h) = 2**(-8(h+1)/n_heads), strictly decreasing in h."""
    if n_heads < 1:
        raise ConfigError(f"need at least one head, got {n_heads}")
    h = np.arange(n_heads, dtype=np.float64)
    return 2.0 ** (-8.0 * (h + 1.0) / n_heads)


def alibi2d_bias(layout: TokenLayout, n_heads: int,
                 regular_only: bool = False) -> np.ndarray:
    """Per-head additive attention biases, (n_heads, n_total, n_total):
    -m(h) * euclidean distance for same-level pairs, measured in each
    level's own grid coordinates, with m(h) from ``alibi_slopes``.
    Cross-level pairs and anything involving the global token stay
    exactly zero.

    ``regular_only`` restricts the bias to the patch grid, for
    configurations whose additional tokens are plain registers without
    grid positions.
    """
    slopes = alibi_slopes(n_heads)
    n = layout.total
    dist = np.zeros((n, n), dtype=np.float64)
    top = 0 if regular_only else layout.levels
    for level in range(top + 1):
        off = layout.offsets[level]
        h, w = layout.level_shapes[level]
        cnt = layout.counts[level]
        iy, ix = np.divmod(np.arange(cnt), w)
        dy = iy[:, None] - iy[None, :]
        dx = ix[:, None] - ix[None, :]
        dist[off:off + cnt, off:off + cnt] = np.sqrt(dy * dy + dx * dx)
    return -slopes[:, None, None] * dist[None, :, :]


@dataclass
class PosTable:
    """Per-token additive position vectors in canonical layout order."""

    vectors: np.ndarray     # (n_total, d)
    trainable: np.ndarray   # (n_total,) bool; rows the optimizer may update


def check_scheme_policy(scheme: str, policy: str, d: int) -> None:
    """The rules every scheme/policy pair obeys, for a model of width d."""
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}, choose from {SCHEMES}")
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}, choose from {POLICIES}")
    if scheme == "none" and policy == "summary":
        raise ConfigError(
            "scheme 'none' with policy 'summary' makes summary tokens "
            "indistinguishable; use policy 'register', 'sincos2d' or 'none'"
        )
    if "sincos2d" in (scheme, policy) and d % 4 != 0:
        raise ConfigError(f"sincos2d needs d divisible by 4, got {d}")


def assemble_posenc(scheme: str, layout: TokenLayout, d: int, seed: int,
                    policy: str = "summary", tau: float = 10000.0) -> PosTable:
    """Build the full per-token position table for one configuration."""
    check_scheme_policy(scheme, policy, d)
    check_tau(tau)
    if d < 1:
        raise ConfigError(f"position vectors need d >= 1, got {d}")

    n, g = layout.total, layout.global_index
    vectors = np.zeros((n, d), dtype=np.float64)
    trainable = np.zeros(n, dtype=bool)

    if scheme == "learned":
        # One learned table; regular tokens and the global token always
        # participate, additional tokens only when the policy gives them
        # positional vectors (summary and register collapse to the same
        # thing here).
        rows = list(range(layout.n_regular)) + [g]
        if policy in ("summary", "register"):
            rows = list(range(n))
        vectors[rows] = init_learned(len(rows), d, seed)
        trainable[rows] = True
        return PosTable(vectors=vectors, trainable=trainable)

    if scheme == "sincos2d":
        n_h, n_w = layout.level_shapes[0]
        vectors[:layout.n_regular] = sincos2d(n_h, n_w, d, tau).reshape(-1, d)

    if policy == "sincos2d" or (policy == "summary" and scheme == "sincos2d"):
        for level in range(1, layout.levels + 1):
            off = layout.offsets[level]
            cnt = layout.counts[level]
            h, w = layout.level_shapes[level]
            vectors[off:off + cnt] = sincos2d(h, w, d, tau).reshape(-1, d)

    if policy == "register" and layout.n_additional > 0:
        off = layout.offsets[1]
        vectors[off:off + layout.n_additional] = init_learned(
            layout.n_additional, d, seed
        )
        trainable[off:off + layout.n_additional] = True

    return PosTable(vectors=vectors, trainable=trainable)


def csv_row(values) -> str:
    """Comma-separated ``repr`` of each value as a float: text that reads
    back to the same float64 bits."""
    return ",".join(repr(float(v)) for v in values)


def postable_csv(table: PosTable) -> str:
    """One row per token: index, then the d vector components."""
    return "".join(f"{idx},{csv_row(vec)}\n" for idx, vec in enumerate(table.vectors))


"""Attention masks: the self-similar fractal pattern, the plain full mask,
and CSV / PGM export.

A mask is a boolean n x n matrix, rows = queries, columns = keys. The
fractal pattern is: full attention within each level, parent<->child edges
between adjacent levels, and the global token connected to everything.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .grid import TokenLayout


class AttentionMask:
    """Boolean query-by-key matrix; true means attention is allowed.

    The bits are a read-only copy: ``EncoderParams`` derives its attention
    table from them once, so a mask never changes after it is built.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: np.ndarray):
        bits = np.array(bits, dtype=bool)
        if bits.ndim != 2 or bits.shape[0] != bits.shape[1]:
            raise ConfigError(f"mask must be square, got shape {bits.shape}")
        bits.flags.writeable = False
        self._bits = bits

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    @property
    def n_total(self) -> int:
        return self.bits.shape[0]


def build_full_mask(n_total: int) -> AttentionMask:
    """All-pair attention; the unmasked baseline."""
    if n_total < 1:
        raise ConfigError(f"mask size must be positive, got {n_total}")
    return AttentionMask(np.ones((n_total, n_total), dtype=bool))


def build_fractal_mask(layout: TokenLayout) -> AttentionMask:
    n = layout.total
    bits = np.zeros((n, n), dtype=bool)
    for off, cnt in zip(layout.offsets, layout.counts):
        bits[off:off + cnt, off:off + cnt] = True
    for idx, par in enumerate(layout.parent):
        if par is not None:
            bits[idx, par] = True
            bits[par, idx] = True
    g = layout.global_index
    bits[g, :] = True
    bits[:, g] = True
    return AttentionMask(bits)


def write_mask_csv(mask: AttentionMask, path: str) -> None:
    """Rows of comma-separated 0/1, no header."""
    lines = [",".join("1" if b else "0" for b in row) for row in mask.bits]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_mask_pgm(mask: AttentionMask, path: str) -> None:
    """P2 (ASCII) PGM: 0 = black = blocked, 255 = white = allowed."""
    n = mask.n_total
    lines = ["P2", f"{n} {n}", "255"]
    for row in mask.bits:
        lines.append(" ".join("255" if b else "0" for b in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

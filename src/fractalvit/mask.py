"""Attention masks: the self-similar fractal pattern, the plain full mask,
and CSV / PGM export.

A mask is a plain boolean (n, n) ndarray, rows = queries, columns = keys;
true means attention is allowed. The fractal pattern is: full attention
within each level, parent<->child edges between adjacent levels, and the
global token connected to everything. ``EncoderParams`` keeps a read-only
copy of the mask it is given, so a caller's array stays its own.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .grid import TokenLayout


def build_full_mask(n_total: int) -> np.ndarray:
    """All-pair attention; the unmasked baseline."""
    if n_total < 1:
        raise ConfigError(f"mask size must be positive, got {n_total}")
    return np.ones((n_total, n_total), dtype=bool)


def build_fractal_mask(layout: TokenLayout) -> np.ndarray:
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
    return bits


def write_mask_csv(mask: np.ndarray, path: str) -> None:
    """Rows of comma-separated 0/1, no header."""
    lines = [",".join("1" if b else "0" for b in row) for row in mask]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_mask_pgm(mask: np.ndarray, path: str) -> None:
    """P2 (ASCII) PGM: 0 = black = blocked, 255 = white = allowed."""
    n = len(mask)
    lines = ["P2", f"{n} {n}", "255"]
    for row in mask:
        lines.append(" ".join("255" if b else "0" for b in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

"""Token bookkeeping: patch grid, summary levels under the floor rule,
parent assignment, and the canonical token ordering.

Canonical order is [regular | level-1 summaries | ... | top level | global],
row-major within each group. Level m of an (n_h, n_w) grid with branching
factor k has shape (n_h // k**m, n_w // k**m); positions whose k-block falls
outside that floor-truncated grid are orphans and get no parent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, ContractError


def max_levels(n_h: int, n_w: int, k: int) -> int:
    """Largest L for which the level-L grid is still at least 1x1."""
    if k < 2:
        raise ConfigError(f"branching factor k must be >= 2, got {k}")
    if n_h < 1 or n_w < 1:
        raise ConfigError(f"grid dims must be positive, got {n_h}x{n_w}")
    m = 0
    while n_h // k ** (m + 1) >= 1 and n_w // k ** (m + 1) >= 1:
        m += 1
    return m


@dataclass(frozen=True)
class GridSpec:
    """Patch grid dimensions plus the summary hierarchy parameters."""

    n_h: int
    n_w: int
    k: int
    levels: int

    def __post_init__(self):
        limit = max_levels(self.n_h, self.n_w, self.k)  # also checks k, dims
        if self.levels < 0 or self.levels > limit:
            raise ConfigError(
                f"levels={self.levels} invalid for {self.n_h}x{self.n_w} grid "
                f"with k={self.k} (floor rule allows at most {limit})"
            )

    def level_shape(self, m: int) -> tuple[int, int]:
        """Grid shape at level m (level 0 is the regular patch grid)."""
        if not 0 <= m <= self.levels:
            raise ContractError(f"level {m} outside [0, {self.levels}]")
        return self.n_h // self.k ** m, self.n_w // self.k ** m


@dataclass(frozen=True)
class TokenLayout:
    """Canonical ordering and parent assignment for one GridSpec."""

    grid: GridSpec
    level_shapes: tuple[tuple[int, int], ...]
    counts: tuple[int, ...]
    offsets: tuple[int, ...]
    total: int
    parent: tuple  # per token: parent index or None

    @property
    def global_index(self) -> int:
        return self.total - 1

    @property
    def n_regular(self) -> int:
        return self.counts[0]

    @property
    def n_additional(self) -> int:
        """Summary tokens across all levels (everything except regular + global)."""
        return self.total - self.counts[0] - 1

    @property
    def levels(self) -> int:
        return self.grid.levels

    def token_info(self, index: int):
        """(group, level, i, j) for a canonical index; global has no coords."""
        if not 0 <= index < self.total:
            raise ContractError(f"token index {index} outside [0, {self.total})")
        if index == self.global_index:
            return "global", None, None, None
        for level in range(self.levels, -1, -1):
            off = self.offsets[level]
            if index >= off:
                _, w = self.level_shapes[level]
                i, j = divmod(index - off, w)
                group = "regular" if level == 0 else "summary"
                return group, level, i, j
        raise AssertionError("unreachable")

    def dump(self) -> str:
        """One line per token: index, group, level, position, parent or '-'."""
        lines = []
        for idx in range(self.total):
            group, level, i, j = self.token_info(idx)
            par = self.parent[idx]
            lines.append(
                "\t".join(
                    (
                        str(idx),
                        group,
                        "-" if level is None else str(level),
                        "-" if i is None else f"{i},{j}",
                        "-" if par is None else str(par),
                    )
                )
            )
        return "\n".join(lines) + "\n"


def build_layout(grid: GridSpec) -> TokenLayout:
    """Lay out regular tokens, per-level summaries, and the global token."""
    shapes = tuple(grid.level_shape(m) for m in range(grid.levels + 1))
    counts = tuple(h * w for h, w in shapes)
    offsets = []
    acc = 0
    for c in counts:
        offsets.append(acc)
        acc += c
    total = acc + 1  # global token last

    parent: list = [None] * total
    k = grid.k
    for m in range(grid.levels):  # top level and global stay parentless
        h, w = shapes[m]
        ph, pw = shapes[m + 1]
        for i in range(h):
            for j in range(w):
                pi, pj = i // k, j // k
                if pi < ph and pj < pw:  # otherwise an orphan
                    parent[offsets[m] + i * w + j] = offsets[m + 1] + pi * pw + pj

    return TokenLayout(
        grid=grid,
        level_shapes=shapes,
        counts=counts,
        offsets=tuple(offsets),
        total=total,
        parent=tuple(parent),
    )

"""Plain-text and SVG pictures of 2-D tilings.

render_ascii draws one character per unit cell, row-major (axis 0 down,
axis 1 across), '.' for uncovered cells.  Letters cycle through A-Z,
a-z, 0-9, but never repeat between placements that share an edge, so
connected equal-letter regions are exactly the placements and the text
can be parsed back into the cell-ownership partition.  render_svg emits
one stroked rectangle per placement, colored by brick index, in
placement order.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionUnsupportedError, PreconditionError
from .model import Tiling

ASCII_SIDE_LIMIT = 200
_ALPHABET = string.ascii_uppercase + string.ascii_lowercase + string.digits

# matplotlib's tab10, a readable default for up to ten brick types
DEFAULT_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

RENDER_FORMATS = ("ascii", "svg")


@dataclass(frozen=True)
class RenderOptions:
    """SVG geometry and coloring choices."""

    cell_size: int = 10
    palette: Sequence[str] = DEFAULT_PALETTE

    def __post_init__(self):
        if self.cell_size < 1:
            raise PreconditionError(f"cell_size must be >= 1, got {self.cell_size}")
        if not self.palette:
            raise PreconditionError("palette must list at least one color")


def _require_2d(t: Tiling) -> None:
    if t.dimension != 2:
        raise DimensionUnsupportedError(f"rendering needs a 2-D tiling, got {t.dimension}-D")


def _cell_rects(t: Tiling) -> list[list[int]]:
    """[row0, row1, col0, col1] half-open cell ranges per placement."""
    lo = t.origin
    extents = t.oriented_extents()
    if (lo > np.iinfo(np.int64).max - extents).any():
        # a far corner beyond int64 would wrap around: sum as Python ints
        lo, extents = lo.astype(object), extents.astype(object)
    hi = lo + extents
    return np.column_stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]]).tolist()


def _assign_letters(owners: np.ndarray, rects) -> list[str]:
    """One symbol per placement, cycling, never matching an edge neighbor.

    owners holds, per cell, the index of the last placement covering it.
    """
    rows, cols = owners.shape
    grid = owners.tolist()
    letters: list[str] = []
    for idx, (r0, r1, c0, c1) in enumerate(rects):
        ring = set()
        if r0 > 0:
            ring.update(grid[r0 - 1][c0:c1])
        if r1 < rows:
            ring.update(grid[r1][c0:c1])
        if c0 > 0:
            ring.update(grid[r][c0 - 1] for r in range(r0, r1))
        if c1 < cols:
            ring.update(grid[r][c1] for r in range(r0, r1))
        taken = {letters[n] for n in ring if 0 <= n < idx}
        for offset in range(len(_ALPHABET)):
            symbol = _ALPHABET[(idx + offset) % len(_ALPHABET)]
            if symbol not in taken:
                break
        letters.append(symbol)
    return letters


def render_ascii(t: Tiling) -> str:
    """Character grid of a 2-D tiling, one letter per placement."""
    _require_2d(t)
    rows, cols = t.box.sides
    if rows > ASCII_SIDE_LIMIT or cols > ASCII_SIDE_LIMIT:
        raise DimensionUnsupportedError(
            f"ascii rendering caps sides at {ASCII_SIDE_LIMIT}, got {rows} x {cols}"
        )
    rects = _cell_rects(t)
    owners = np.full((rows, cols), -1, dtype=np.int32)
    for idx, (r0, r1, c0, c1) in enumerate(rects):
        owners[r0:r1, c0:c1] = idx
    # index -1, an uncovered cell, picks the trailing "."
    symbols = np.array(_assign_letters(owners, rects) + ["."])
    return "\n".join("".join(row) for row in symbols[owners].tolist())


def render_svg(t: Tiling, opts: RenderOptions = RenderOptions()) -> str:
    """SVG document with one stroked rect per placement."""
    _require_2d(t)
    cs = opts.cell_size
    rows, cols = t.box.sides
    width, height = cols * cs, rows * cs
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    palette = tuple(opts.palette)
    for index, (r0, r1, c0, c1) in zip(t.brick_index.tolist(), _cell_rects(t)):
        color = palette[index % len(palette)]
        parts.append(
            f'<rect x="{c0 * cs}" y="{r0 * cs}" width="{(c1 - c0) * cs}" '
            f'height="{(r1 - r0) * cs}" fill="{color}" stroke="#222" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)

"""Plain-text and SVG pictures of 2-D tilings.

render_ascii draws one character per unit cell, row-major (axis 0 down,
axis 1 across): the letter of the last placement covering the cell, '.'
for an uncovered one; cells past the box are not drawn.  Letters cycle
through A-Z, a-z, 0-9 and are chosen from the picture's own edges: a
placement takes the first symbol, from its index on, that no earlier
placement sharing an edge with it in the picture holds (the last one
tried if they hold all 62).  So, unless a placement borders all 62
symbols, two drawn regions never meet in one letter, and the text of an
exact tiling parses back into its placements; there the cells beside a
placement are its rectangle's ring, and the picture is byte-identical
to one drawn by walking each ring.  render_svg emits one stroked
rectangle per placement, colored by brick index, in placement order.
"""

from __future__ import annotations

import numbers
import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codec import _LINES_CHUNK, _fill_lines
from .errors import DimensionUnsupportedError, PreconditionError
from .model import Tiling
from .semigroup import INT64_MAX

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

# the literal text around a <rect> line's fields: x, y, width, height, fill
_RECT_LAYOUT = [
    b'<rect x="',
    b'" y="',
    b'" width="',
    b'" height="',
    b'" fill="',
    b'" stroke="#222" stroke-width="1"/>\n',
]


@dataclass(frozen=True)
class RenderOptions:
    """SVG geometry and coloring choices."""

    cell_size: int = 10
    palette: Sequence[str] = DEFAULT_PALETTE

    def __post_init__(self):
        if not isinstance(self.cell_size, numbers.Integral):
            # the SVG line writer writes integers
            raise PreconditionError(f"cell_size must be an integer, got {self.cell_size!r}")
        if self.cell_size < 1:
            raise PreconditionError(f"cell_size must be >= 1, got {self.cell_size}")
        if not self.palette:
            raise PreconditionError("palette must list at least one color")
        if any("\0" in str(color) for color in self.palette):
            # the SVG line writer drops NULs, and XML allows none
            raise PreconditionError("palette colors must not contain NUL")


def _require_2d(t: Tiling) -> None:
    if t.dimension != 2:
        raise DimensionUnsupportedError(f"rendering needs a 2-D tiling, got {t.dimension}-D")


def _scaled_corners(t: Tiling, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Each placement's origin and oriented extents, times scale.

    int64 while every far corner times scale fits it; else exact ints
    (object dtype), so that nothing wraps around.  The far corner is
    tested as lo <= int64 max // scale - extents, which cannot wrap: the
    extents are from 1 to the int64 maximum.
    """
    lo = t.origin
    extents = t.oriented_extents()
    if (lo > INT64_MAX // scale - extents).any():
        lo, extents = lo.astype(object), extents.astype(object)
    return lo * scale, extents * scale


def render_ascii(t: Tiling) -> str:
    """Character grid of a 2-D tiling, one letter per placement.

    Paints the owner raster (per cell, the last placement covering it),
    then reads each placement's earlier edge neighbours off the raster's
    pairs of adjacent cells with two different owners.
    """
    _require_2d(t)
    rows, cols = t.box.sides
    if rows > ASCII_SIDE_LIMIT or cols > ASCII_SIDE_LIMIT:
        raise DimensionUnsupportedError(
            f"ascii rendering caps sides at {ASCII_SIDE_LIMIT}, got {rows} x {cols}"
        )
    owners = np.full((rows, cols), -1, dtype=np.int64)
    # Python ints cannot wrap, and slices stop at the box's edge
    corners = zip(t.origin.tolist(), t.oriented_extents().tolist())
    for idx, ((r0, c0), (e0, e1)) in enumerate(corners):
        owners[r0 : r0 + e0, c0 : c0 + e1] = idx
    a = np.concatenate([owners[:-1].ravel(), owners[:, :-1].ravel()])
    b = np.concatenate([owners[1:].ravel(), owners[:, 1:].ravel()])
    later, earlier = np.maximum(a, b), np.minimum(a, b)
    edge = (later != earlier) & (earlier >= 0)
    m = len(t.brick_index)
    # sorted by the later placement, then the earlier one
    later, earlier = np.divmod(np.unique(later[edge] * m + earlier[edge]), m)
    starts = np.searchsorted(later, np.arange(m + 1)).tolist()
    earlier = earlier.tolist()
    letters: list[str] = []
    for idx in range(m):
        taken = {letters[n] for n in earlier[starts[idx] : starts[idx + 1]]}
        for offset in range(len(_ALPHABET)):
            symbol = _ALPHABET[(idx + offset) % len(_ALPHABET)]
            if symbol not in taken:
                break
        letters.append(symbol)
    # index -1, an uncovered cell, picks the trailing "."
    symbols = np.array(letters + ["."])
    return "\n".join("".join(row) for row in symbols[owners].tolist())


def _text_rows(strings: Sequence[str]) -> np.ndarray:
    """The strings in UTF-8 as the rows of a uint8 matrix, NUL-padded."""
    rows = np.array([s.encode("utf-8") for s in strings], dtype=bytes)
    return rows.view(np.uint8).reshape(len(rows), rows.itemsize)


def render_svg(t: Tiling, opts: RenderOptions = RenderOptions()) -> str:
    """SVG document with one stroked rect per placement.

    The <rect> lines are written _LINES_CHUNK at a time by the codec's
    line writer (_fill_lines); the fill is the palette's UTF-8 row for
    brick_index modulo the palette's length.
    """
    _require_2d(t)
    cs = opts.cell_size
    rows, cols = t.box.sides
    width, height = cols * cs, rows * cs
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    ]
    colors = _text_rows([str(color) for color in opts.palette])
    lo, extents = _scaled_corners(t, cs)
    numbers = [lo[:, 1], lo[:, 0], extents[:, 1], extents[:, 0]]
    m = len(t.brick_index)
    for s in range(0, m, _LINES_CHUNK):
        e = min(s + _LINES_CHUNK, m)
        fields = [c[s:e] for c in numbers]
        if lo.dtype == object:
            # exact ints past int64 as their decimal text
            fields = [_text_rows([str(v) for v in c.tolist()]) for c in fields]
        fields.append(colors[t.brick_index[s:e] % len(colors)])
        parts.append(_fill_lines(_RECT_LAYOUT, fields))
    parts.append("</svg>")
    return "".join(parts)

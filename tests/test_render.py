"""Tests for ASCII and SVG rendering."""

import hashlib
import random
import string

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frobtile import codec
from frobtile.errors import DimensionUnsupportedError, PreconditionError
from frobtile.model import BoxShape, Brick, Placement, Tiling, grid_fill
from frobtile.oracle import exact_cover_search
from frobtile.planar import decide_single_brick, decide_two_squares, tile_square_235p
from frobtile.render import RenderOptions, render_ascii, render_svg


def searched_square(side, *squares):
    """The first tiling the exact-cover search finds for a square box."""
    bricks = [Brick((s, s)) for s in squares]
    return exact_cover_search(BoxShape((side, side)), bricks).tiling


def reconstruct_partition(text):
    """Map each letter-labeled connected component back to its cell set."""
    grid = text.split("\n")
    rows, cols = len(grid), len(grid[0])
    seen = set()
    components = []
    for r in range(rows):
        for c in range(cols):
            if (r, c) in seen or grid[r][c] == ".":
                continue
            symbol = grid[r][c]
            stack, cells = [(r, c)], set()
            seen.add((r, c))
            while stack:
                rr, cc = stack.pop()
                cells.add((rr, cc))
                for nr, nc in ((rr - 1, cc), (rr + 1, cc), (rr, cc - 1), (rr, cc + 1)):
                    if 0 <= nr < rows and 0 <= nc < cols and (nr, nc) not in seen:
                        if grid[nr][nc] == symbol:
                            seen.add((nr, nc))
                            stack.append((nr, nc))
            components.append(frozenset(cells))
    return set(components)


def placement_cells(t):
    out = set()
    for p in t.placements:
        e0, e1 = p.oriented_sides(t.bricks[p.brick_index])
        r0, c0 = p.origin
        out.add(frozenset((r, c) for r in range(r0, r0 + e0) for c in range(c0, c0 + e1)))
    return out


class TestAscii:
    def test_four_blocks(self):
        text = render_ascii(grid_fill(BoxShape((4, 4)), Brick((2, 2))))
        lines = text.split("\n")
        assert len(lines) == 4 and all(len(line) == 4 for line in lines)
        assert len({ch for line in lines for ch in line}) == 4
        assert lines[0][0] == lines[0][1] == lines[1][0] == lines[1][1]

    def test_single_brick_uniform(self):
        text = render_ascii(grid_fill(BoxShape((2, 3)), Brick((2, 3))))
        assert text == "AAA\nAAA"

    def test_rejects_3d(self):
        t = grid_fill(BoxShape((2, 2, 2)), Brick((2, 2, 2)))
        with pytest.raises(DimensionUnsupportedError):
            render_ascii(t)

    def test_rejects_oversized(self):
        t = grid_fill(BoxShape((202, 2)), Brick((2, 2)))
        with pytest.raises(DimensionUnsupportedError, match="202"):
            render_ascii(t)

    def test_uncovered_cells_are_dots(self):
        t = Tiling(
            BoxShape((4, 4)),
            (Brick((2, 2)),),
            (Placement(0, (0, 1), (0, 0)),),
        )
        text = render_ascii(t)
        assert text.count(".") == 12 and text.count("A") == 4

    def test_partition_roundtrip_fixture(self):
        t = searched_square(13, 2, 3, 5)
        text = render_ascii(t)
        assert reconstruct_partition(text) == placement_cells(t)

    def test_partition_roundtrip_many_placements(self):
        # 225 placements exceed the alphabet; neighbors must still differ.
        # Shuffled, since in grid order neighbours' indices differ by 1 or
        # 15, never by a multiple of 62, and no placement needs the rule
        grid = grid_fill(BoxShape((30, 30)), Brick((2, 2)))
        placements = list(grid.placements)
        random.Random(24).shuffle(placements)
        t = Tiling(grid.box, grid.bricks, placements)
        text = render_ascii(t)
        assert reconstruct_partition(text) == placement_cells(t)

    def test_placement_past_the_last_row_is_clipped(self):
        t = Tiling(BoxShape((4, 4)), (Brick((2, 2)),), (Placement(0, (0, 1), (3, 1)),))
        assert render_ascii(t) == "....\n....\n....\n.AA."

    def test_deterministic(self):
        t = searched_square(17, 2, 3, 7)
        assert render_ascii(t) == render_ascii(t)


class TestSvg:
    def test_fixture_canvas_and_count(self):
        t = searched_square(13, 2, 3, 5)
        doc = render_svg(t, RenderOptions(cell_size=10))
        assert 'width="130" height="130"' in doc
        assert doc.count("<rect") == len(t.placements)

    def test_empty_tiling_canvas_only(self):
        t = Tiling(BoxShape((1, 1)), (Brick((1, 1)),), ())
        doc = render_svg(t)
        assert doc.count("<rect") == 0 and doc.startswith("<svg")

    def test_grid_count(self):
        doc = render_svg(grid_fill(BoxShape((6, 9)), Brick((3, 3))))
        assert doc.count("<rect") == 6

    def test_color_by_brick_index(self):
        t = Tiling(
            BoxShape((2, 5)),
            (Brick((2, 2)), Brick((2, 3))),
            (Placement(0, (0, 1), (0, 0)), Placement(1, (0, 1), (0, 2))),
        )
        opts = RenderOptions(palette=("#aaa", "#bbb"))
        doc = render_svg(t, opts)
        assert 'fill="#aaa"' in doc and 'fill="#bbb"' in doc

    def test_rejects_3d(self):
        t = grid_fill(BoxShape((2, 2, 2)), Brick((2, 2, 2)))
        with pytest.raises(DimensionUnsupportedError):
            render_svg(t)

    def test_options_validated(self):
        with pytest.raises(PreconditionError):
            RenderOptions(cell_size=0)
        with pytest.raises(PreconditionError):
            RenderOptions(palette=())
        with pytest.raises(PreconditionError, match="integer"):
            RenderOptions(cell_size=2.5)
        with pytest.raises(PreconditionError, match="NUL"):
            RenderOptions(palette=("#aaa", "#b\0b"))

    def test_far_origin_keeps_exact_coordinates(self):
        # the far corner is past 2^63 - 1, where int64 would wrap around
        far = 2**63 - 2
        t = Tiling(
            BoxShape((2, 2)),
            (Brick((2, 2)),),
            [Placement(0, (0, 1), (0, 0)), Placement(0, (0, 1), (0, far))],
        )
        svg = render_svg(t, RenderOptions(cell_size=1))
        assert f'<rect x="{far}" y="0" width="2" height="2"' in svg


# SHA-256 of svg_corpus() joined by NULs, as render_svg wrote it when
# each <rect> was formatted on its own
SVG_CORPUS_DIGEST = "21e54ae21c19018deab2afbb7010e3283f27ba587072f2ebd92ec94a7d9ad45d"


def svg_corpus():
    """render_svg over pinwheel, composition, two-squares, rotated and
    empty tilings at cell sizes 1 and 7, one of them with a non-ASCII
    palette, and far placements whose corners times 3 leave int64."""
    witnesses = [
        tile_square_235p(25, 11).witness,  # pinwheel
        tile_square_235p(43, 5).witness,  # composition
        decide_two_squares(12, 13, 2, 3).witness,
        decide_single_brick(6, 5, 2, 3).witness,  # strips, both orientations
        Tiling(BoxShape((1, 1)), (Brick((1, 1)),), ()),
    ]
    palette = ("#aaa", "vert-\u00e9t\u00e9", "\u7d05", "#0f0")
    for t in witnesses:
        for cs in (1, 7):
            yield render_svg(t, RenderOptions(cell_size=cs))
        yield render_svg(t, RenderOptions(cell_size=7, palette=palette))
    big = 2**63 - 1
    far = Tiling(
        BoxShape((5, 5)),
        (Brick((2, 2)), Brick((1, big // 3 + 1))),
        [
            Placement(0, (0, 1), (0, 0)),
            Placement(0, (0, 1), (big // 3, 2)),  # the origin times 3 fits, the far corner does not
            Placement(1, (1, 0), (2, 0)),  # the extent times 3 leaves int64
            Placement(0, (0, 1), (0, big - 1)),  # the far corner leaves int64
        ],
        rotation_policy="axis-permutations",
    )
    for cs in (1, 3):
        yield render_svg(far, RenderOptions(cell_size=cs, palette=palette))


def reference_svg(t, opts):
    """render_svg as one f-string per <rect>, over exact ints."""
    cs, palette = opts.cell_size, tuple(opts.palette)
    rows, cols = t.box.sides
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cols * cs}" height="{rows * cs}" '
        f'viewBox="0 0 {cols * cs} {rows * cs}">'
    ]
    for p in t.placements:
        (r0, c0), (e0, e1) = p.origin, p.oriented_sides(t.bricks[p.brick_index])
        parts.append(
            f'<rect x="{c0 * cs}" y="{r0 * cs}" width="{e1 * cs}" height="{e0 * cs}" '
            f'fill="{palette[p.brick_index % len(palette)]}" stroke="#222" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


@pytest.mark.parametrize("seed", range(4))
def test_svg_matches_reference(seed):
    # placements in random places, some of them past the box, with more
    # lines than one chunk of the line writer and numbers of 1 to 19 digits
    rng = np.random.default_rng(seed)
    m = codec._LINES_CHUNK + 17
    bricks = tuple(Brick(rng.integers(1, 10**6, size=2)) for _ in range(13))
    origin = rng.integers(0, 10 ** rng.integers(1, 19, size=(m, 1)), size=(m, 2))
    t = Tiling.from_arrays(
        BoxShape((50, 70)),
        bricks,
        rng.integers(0, len(bricks), size=m),
        np.tile([[0, 1], [1, 0]], (m, 1))[rng.integers(0, 2, size=m)],
        origin,
        rotation_policy="axis-permutations",
    )
    for opts in (RenderOptions(cell_size=1), RenderOptions(cell_size=999, palette=("#a", "\u00e9cru", "x"))):
        assert render_svg(t, opts) == reference_svg(t, opts)


def test_svg_corpus_is_pinned():
    digest = hashlib.sha256("\0".join(svg_corpus()).encode("utf-8")).hexdigest()
    assert digest == SVG_CORPUS_DIGEST


# SHA-256 of ascii_corpus() joined by NULs, as render_ascii wrote it when
# each placement's rectangle was walked a second time to find its neighbours
ASCII_CORPUS_DIGEST = "78d2d37c3a07a5513c717206542da684418386b7020832a5744702b1067e9748"


def ascii_corpus():
    """render_ascii over pinwheel, composition, 3,794-placement, two-squares,
    rotated and 225-placement tilings, one with uncovered cells and the
    empty tiling."""
    holes = Tiling(
        BoxShape((5, 7)),
        (Brick((2, 3)), Brick((1, 1))),
        [
            Placement(0, (0, 1), (0, 0)),
            Placement(0, (1, 0), (0, 4)),
            Placement(1, (0, 1), (2, 1)),
            Placement(0, (0, 1), (3, 3)),
            Placement(1, (0, 1), (4, 6)),
        ],
        rotation_policy="axis-permutations",
    )
    witnesses = [
        tile_square_235p(25, 11).witness,  # pinwheel
        tile_square_235p(43, 5).witness,  # composition
        tile_square_235p(199, 11).witness,
        decide_two_squares(12, 13, 2, 3).witness,
        decide_single_brick(6, 5, 2, 3).witness,  # strips, both orientations
        grid_fill(BoxShape((30, 30)), Brick((2, 2))),  # more placements than symbols
        holes,
        Tiling(BoxShape((3, 4)), (Brick((1, 1)),), ()),
    ]
    return [render_ascii(t) for t in witnesses]


def test_ascii_corpus_is_pinned():
    digest = hashlib.sha256("\0".join(ascii_corpus()).encode("utf-8")).hexdigest()
    assert digest == ASCII_CORPUS_DIGEST


SYMBOLS = string.ascii_uppercase + string.ascii_lowercase + string.digits


def reference_ascii(t):
    """render_ascii cell by cell: each cell shows the last placement covering
    it, and each placement takes the first symbol, cycling from its index,
    that no earlier placement sharing an edge with it in the picture holds."""
    rows, cols = t.box.sides
    owner = {}
    for idx, p in enumerate(t.placements):
        (r0, c0), (e0, e1) = p.origin, p.oriented_sides(t.bricks[p.brick_index])
        for r in range(r0, min(r0 + e0, rows)):
            for c in range(c0, min(c0 + e1, cols)):
                owner[r, c] = idx
    earlier = [set() for _ in range(len(t.brick_index))]
    for (r, c), i in owner.items():
        for j in (owner.get((r + 1, c)), owner.get((r, c + 1))):
            if j is not None and j != i:
                earlier[max(i, j)].add(min(i, j))
    letters = []
    for idx, near in enumerate(earlier):
        taken = {letters[n] for n in near}
        cycle = (SYMBOLS[(idx + k) % len(SYMBOLS)] for k in range(len(SYMBOLS)))
        letters.append(next(s for s in cycle if s not in taken))
    return "\n".join(
        "".join(letters[owner[r, c]] if (r, c) in owner else "." for c in range(cols))
        for r in range(rows)
    )


@st.composite
def corrupted_grids(draw):
    """A grid of one brick in shuffled order, so that placements whose
    indices differ by a multiple of 62 often share an edge, with some
    placements moved (up to past the box), duplicated or inserted past
    the last row."""
    brick = Brick((draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    rows = brick.sides[0] * draw(st.integers(1, 14))
    cols = brick.sides[1] * draw(st.integers(1, 14))
    placements = draw(st.permutations(grid_fill(BoxShape((rows, cols)), brick).placements))
    anywhere = st.tuples(st.integers(0, rows + 2), st.integers(0, cols + 2))
    # a placement from here runs past the last row
    past = st.tuples(st.integers(rows - brick.sides[0] + 1, rows + 2), st.integers(0, cols + 2))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("move", "duplicate", "past")))
        i = draw(st.integers(0, len(placements) - 1))
        if kind == "move":
            placements[i] = Placement(0, (0, 1), draw(anywhere))
        elif kind == "duplicate":
            placements.insert(draw(st.integers(0, len(placements))), placements[i])
        else:
            placements.insert(i, Placement(0, (0, 1), draw(past)))
    return Tiling(BoxShape((rows, cols)), (brick,), placements)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corrupted_grids())
def test_ascii_matches_reference_on_invalid_tilings(t):
    assert render_ascii(t) == reference_ascii(t)

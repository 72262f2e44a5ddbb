"""Properties of the columnar tiling core against slow references.

Random strip, grid and constructed tilings get one corruption each; the
raster verify_full must report exactly what the pairwise scan in
brute.py reports.  encode must match a line-by-line json.dumps writer,
decode must invert encode, and grid_blocks must build what a Python
loop builds, one Placement at a time, sorted by origin.
"""

import json
import re
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from frobtile import codec, model
from frobtile.codec import decode, encode
from frobtile.constructor import BrickSystem, construct_box, gn_bound
from frobtile.errors import DivisibilityError, TilingParseError
from frobtile.model import (
    ROTATION_AXIS_PERMUTATIONS,
    ROTATION_FIXED,
    BoxShape,
    Brick,
    Placement,
    Tiling,
    VerifyReport,
    grid_blocks,
    verify_full,
    verify_sampled,
)

from brute import pairwise_verify_full

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# admissible systems with small bounds, by dimension
SYSTEMS = (
    (Brick((2,)), Brick((3,))),
    (Brick((5,)), Brick((7,))),
    (Brick((2, 2)), Brick((3, 3)), Brick((5, 5))),
    (Brick((2, 2)), Brick((3, 3)), Brick((7, 7))),
    (Brick((2, 3)), Brick((5, 2)), Brick((3, 5))),
)


def reference_encode(t):
    """The tiling/1 writer, one json.dumps per placement field."""
    lines = [
        "{",
        f'  "format": {json.dumps("tiling/1")},',
        f'  "box": {json.dumps(list(t.box.sides))},',
        f'  "rotation_policy": {json.dumps(t.rotation_policy)},',
        f'  "bricks": {json.dumps([list(b.sides) for b in t.bricks])},',
        '  "placements": [',
    ]
    body = ",\n".join(
        '    {"brick": %d, "orientation": %s, "origin": %s}'
        % (p.brick_index, json.dumps(list(p.orientation)), json.dumps(list(p.origin)))
        for p in t.placements
    )
    if body:
        lines.append(body)
    lines += ["  ]", "}"]
    return "\n".join(lines) + "\n"


@st.composite
def orientations(draw, n, policy):
    if policy == ROTATION_FIXED:
        return tuple(range(n))
    return tuple(draw(st.permutations(range(n))))


def expanded(box, bricks, blocks, policy):
    """grid_blocks' tiling, built one Placement at a time in a Python loop."""
    ps = []
    for index, orientation, corner, sides in blocks:
        extents = [bricks[index].sides[a] for a in orientation]
        steps = [range(c, c + a, x) for c, a, x in zip(corner, sides, extents)]
        ps += [Placement(index, tuple(orientation), origin) for origin in product(*steps)]
    ps.sort(key=lambda p: p.origin)
    return Tiling(BoxShape(box), bricks, ps, rotation_policy=policy)


@st.composite
def strip_tilings(draw):
    """Grid-filled strips of random bricks stacked along one axis."""
    n = draw(st.integers(1, 3))
    policy = draw(st.sampled_from((ROTATION_FIXED, ROTATION_AXIS_PERMUTATIONS)))
    bricks = tuple(
        Brick(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        for _ in range(draw(st.integers(1, 3)))
    )
    axis = draw(st.integers(0, n - 1))
    # 6 is a multiple of every side, so every strip fills the cross-section
    cross = [6 * draw(st.integers(1, 2)) if n < 3 else 6 for _ in range(n)]
    strips, corner = [], [0] * n
    for _ in range(draw(st.integers(1, 4))):
        index = draw(st.integers(0, len(bricks) - 1))
        orientation = draw(orientations(n, policy))
        sides = list(cross)
        sides[axis] = bricks[index].sides[orientation[axis]]
        strips.append((index, orientation, tuple(corner), sides))
        corner[axis] += sides[axis]
    box = list(cross)
    box[axis] = corner[axis]
    return expanded(box, bricks, strips, policy)


@st.composite
def constructed_tilings(draw):
    bricks = draw(st.sampled_from(SYSTEMS))
    system = BrickSystem(bricks)
    bound = gn_bound(system)
    sides = [bound + 1 + draw(st.integers(0, 12)) for _ in range(system.n)]
    return construct_box(BoxShape(sides), system)


any_tiling = st.one_of(strip_tilings(), constructed_tilings())


@st.composite
def corrupted(draw, tilings):
    """A tiling with one placement moved, dropped, duplicated or pushed out."""
    t = draw(tilings)
    ps = list(t.placements)
    kind = draw(st.sampled_from(("moved", "dropped", "duplicated", "out_of_bounds")))
    k = draw(st.integers(0, len(ps) - 1))
    p = ps[k]
    if kind == "dropped":
        del ps[k]
    elif kind == "duplicated":
        ps.insert(draw(st.integers(0, len(ps))), p)
    else:
        axis = draw(st.integers(0, t.dimension - 1))
        origin = list(p.origin)
        if kind == "moved":
            origin[axis] = max(0, origin[axis] + draw(st.sampled_from((-2, -1, 1, 2))))
        else:
            extent = t.bricks[p.brick_index].sides[p.orientation[axis]]
            origin[axis] = t.box.sides[axis] - extent + draw(st.integers(1, 3))
        ps[k] = Placement(p.brick_index, p.orientation, tuple(origin))
    return Tiling(t.box, t.bricks, ps, rotation_policy=t.rotation_policy)


def assert_matches_pairwise(t):
    want = VerifyReport(mode="full", **pairwise_verify_full(t))
    assert verify_full(t) == want


@SETTINGS
@given(any_tiling)
def test_verify_full_accepts_valid_tilings(t):
    assert_matches_pairwise(t)
    assert verify_full(t).valid


@SETTINGS
@given(corrupted(any_tiling))
def test_verify_full_matches_pairwise_on_corruptions(t):
    assert_matches_pairwise(t)


@SETTINGS
@given(corrupted(any_tiling), st.integers(1, 40))
def test_verify_full_slabs_match_one_raster(t, budget):
    # a tiny cell budget splits the raster into many slabs along axis 0
    with mock.patch.object(model, "RASTER_SLAB_CELLS", budget):
        assert_matches_pairwise(t)


@SETTINGS
@given(corrupted(any_tiling), st.integers(1, 40))
def test_raster_slabs_int32_matches_int64(t, budget):
    # verify_full holds corners and offsets in int32 while the padded
    # raster has fewer than 2^31 cells, in int64 past that
    extents = t.oriented_extents()
    assume(model._check_fits(t, t.origin, extents, "full") is None)
    lo, hi = t.origin, t.origin + extents
    slabs = []
    with mock.patch.object(model, "RASTER_SLAB_CELLS", budget):
        for dtype in (np.int32, np.int64):
            corners = lo.astype(dtype), hi.astype(dtype)
            slabs.append([(row0, c.copy()) for row0, c in model._raster_slabs(*corners, t.box.sides)])
    narrow, wide = slabs
    assert [r for r, _ in narrow] == [r for r, _ in wide]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(narrow, wide))


# placements whose far corner, origin + side, lies beyond 2^63 - 1
NEAR_INT64_MAX = [
    ([4], [2], [[0], [2**63 - 2]], 1),
    ([4], [2], [[2**63 - 1], [0]], 0),
    ([4, 4], [2, 2], [[0, 0], [0, 2], [2, 0], [2, 2**63 - 2]], 3),
]


@pytest.mark.parametrize("box, brick, origins, bad", NEAR_INT64_MAX)
def test_origins_near_int64_max_are_out_of_bounds(box, brick, origins, bad):
    n = len(box)
    doc = {
        "format": "tiling/1",
        "box": box,
        "rotation_policy": "fixed",
        "bricks": [brick],
        "placements": [
            {"brick": 0, "orientation": list(range(n)), "origin": o} for o in origins
        ],
    }
    t = decode(json.dumps(doc))
    want = VerifyReport(
        valid=False, mode="full", reason="placement_out_of_bounds", placement_index=bad
    )
    assert pairwise_verify_full(t) == {
        "valid": False, "reason": "placement_out_of_bounds", "placement_index": bad
    }
    assert verify_full(t) == want
    sampled = verify_sampled(t, samples=50, seed=1)
    assert (sampled.reason, sampled.placement_index) == ("placement_out_of_bounds", bad)


@st.composite
def block_layouts(draw):
    """Strips along one axis, or 2 x 2 blocks over two axes, each block a
    grid of one random oriented brick.

    Returns (bricks, policy, layout).  A layout is a block (brick index,
    orientation, sides) or a split (axis, [layouts]) whose parts follow
    each other along axis.
    """
    n = draw(st.integers(1, 3))
    policy = draw(st.sampled_from((ROTATION_FIXED, ROTATION_AXIS_PERMUTATIONS)))
    bricks = tuple(
        Brick(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        for _ in range(draw(st.integers(1, 3)))
    )

    def oriented_brick():
        return draw(st.integers(0, len(bricks) - 1)), draw(orientations(n, policy))

    axis = draw(st.integers(0, n - 1))
    # 6 is a multiple of every side, so every brick divides every such block
    sixes = [6 * draw(st.integers(1, 2)) for _ in range(n)]
    if n == 1 or draw(st.booleans()):
        strips = []
        for _ in range(draw(st.integers(1, 4))):
            index, orientation = oriented_brick()
            sides = list(sixes)
            sides[axis] = draw(st.integers(1, 2)) * bricks[index].sides[orientation[axis]]
            strips.append((index, orientation, tuple(sides)))
        return bricks, policy, (axis, strips)
    other = draw(st.sampled_from([k for k in range(n) if k != axis]))
    # every row splits the other axis at the same place
    splits = [[6 * draw(st.integers(1, 2)) for _ in range(2)] for _ in range(2)]
    rows = []
    for first in splits[0]:
        row = []
        for second in splits[1]:
            sides = list(sixes)
            sides[axis], sides[other] = first, second
            row.append((*oriented_brick(), tuple(sides)))
        rows.append((other, row))
    return bricks, policy, (axis, rows)


def flattened(layout, corner):
    """The layout's grid_blocks blocks, with corners, and its sides."""
    if len(layout) == 3:
        index, orientation, sides = layout
        return [(index, orientation, corner, sides)], sides
    axis, parts = layout
    blocks, at = [], list(corner)
    for part in parts:
        more, sides = flattened(part, tuple(at))
        blocks += more
        at[axis] += sides[axis]
    sides = list(sides)
    sides[axis] = at[axis] - corner[axis]
    return blocks, tuple(sides)


@SETTINGS
@given(block_layouts(), st.data())
def test_grid_blocks_equals_stacked_grids(drawn, data):
    bricks, policy, layout = drawn
    blocks, box = flattened(layout, (0,) * bricks[0].dimension)
    # the order of the blocks does not matter
    blocks = data.draw(st.permutations(blocks))
    t = grid_blocks(box, bricks, blocks, policy)
    want = expanded(box, bricks, blocks, policy)
    assert t == want
    assert t.placements == want.placements
    assert verify_full(t).valid
    assert grid_blocks(box, bricks, [], policy) == expanded(box, bricks, [], policy)


def test_grid_blocks_sorts_by_lexsort_past_int64_or_outside_the_box():
    # the row-major offsets of the cells order the origins only inside the
    # box and while its volume fits int64; past that the origins are
    # sorted one axis at a time, into the same order
    for side, past, by_lexsort in ((2, 0, False), (1, 6, True), (2**61, 0, True)):
        box = (3 * side, 4)
        bricks = (Brick((side, 1)), Brick((side, 3)))
        # past > 0 puts origins (0, 7) and (1, 0) at the same offset
        blocks = [(1, (0, 1), (0, 1), (3 * side, 3 + past)), (0, (0, 1), (0, 0), (3 * side, 1))]
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            t = grid_blocks(box, bricks, blocks)
        assert lexsort.called == by_lexsort
        want = expanded(box, bricks, blocks, ROTATION_FIXED)
        assert t == want
        assert t.placements == want.placements
        assert verify_full(t).valid == (past == 0)


@SETTINGS
@given(block_layouts(), st.data())
def test_grid_blocks_rejects_a_block_its_brick_does_not_divide(drawn, data):
    bricks, policy, layout = drawn
    blocks, box = flattened(layout, (0,) * bricks[0].dimension)
    k = data.draw(st.integers(0, len(blocks) - 1))
    index, orientation, corner, sides = blocks[k]
    axes = [j for j, a in enumerate(orientation) if bricks[index].sides[a] > 1]
    assume(axes)
    sides = list(sides)
    sides[data.draw(st.sampled_from(axes))] += 1
    blocks[k] = (index, orientation, corner, tuple(sides))
    with pytest.raises(DivisibilityError, match="does not divide"):
        grid_blocks(box, bricks, blocks, policy)


@SETTINGS
@given(any_tiling, st.integers(1, 5))
def test_encode_matches_reference_writer(t, chunk):
    assert encode(t) == reference_encode(t)
    with mock.patch.object(codec, "_LINES_CHUNK", chunk):
        assert encode(t) == reference_encode(t)


@SETTINGS
@given(st.one_of(any_tiling, corrupted(any_tiling)))
def test_decode_inverts_encode(t):
    back = decode(encode(t))
    assert back == t
    assert hash(back) == hash(t)
    assert back.placements == t.placements


def outcome(text):
    try:
        return decode(text)
    except TilingParseError as e:
        return str(e)


@SETTINGS
@given(any_tiling, st.integers(1, 5), st.data())
def test_canonical_read_matches_json_read_on_edits(t, chunk, data):
    """One character of the document replaced, inserted or deleted: decode
    gives what it gives on the same text with a trailing space, which is
    never in encode's layout and so is always read by json.loads."""
    text = encode(t)
    at = data.draw(st.integers(0, len(text) - 1))
    kind = data.draw(st.sampled_from(("replace", "insert", "delete")))
    ch = data.draw(st.sampled_from(list('0179-.e ,"[]{}\n٠')))
    if kind == "replace":
        text = text[:at] + ch + text[at + 1 :]
    elif kind == "insert":
        text = text[:at] + ch + text[at:]
    else:
        text = text[:at] + text[at + 1 :]
    assert outcome(text) == outcome(text + " ")
    with mock.patch.object(codec, "_LINES_CHUNK", chunk):
        assert outcome(text) == outcome(text + " ")


@SETTINGS
@given(any_tiling, st.integers(1, 5), st.data())
def test_canonical_read_matches_json_read_on_edits_that_keep_the_layout(t, chunk, data):
    """Numbers edited on the first or last line of a window so that the
    text between the runs of digits, and the number of runs, stay: a
    digit moved into the neighbouring number, two neighbouring numbers
    swapped, or a leading 0 added.  Only the checks on each run can tell
    such a text from encode's."""
    text = encode(t)
    counts = []

    def read_window(window, *args):
        counts.append(window.count(b"\n"))
        return real(window, *args)

    real = codec._read_window
    with mock.patch.object(codec, "_LINES_CHUNK", chunk):
        with mock.patch.object(codec, "_read_window", read_window):
            assert codec._canonical(text) is not None
    firsts = np.cumsum([0, *counts[:-1]])
    lasts = firsts + counts - 1
    lines = text.split("\n")
    k = lines.index('  "placements": [') + 1 + int(data.draw(st.sampled_from([*firsts, *lasts])))
    line = lines[k]
    numbers = re.findall(r"[0-9]+", line)
    # a digit moves from number i, of two digits or more, to number j
    moves = [
        (i, j) for i, x in enumerate(numbers) if len(x) > 1 for j in (i - 1, i + 1) if 0 <= j < len(numbers)
    ]
    kinds = ["swapped", "leading zero"] + (["moved"] if moves else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "moved":
        i, j = data.draw(st.sampled_from(moves))
        if j > i:
            numbers[i], numbers[j] = numbers[i][:-1], numbers[i][-1] + numbers[j]
        else:
            numbers[j], numbers[i] = numbers[j] + numbers[i][0], numbers[i][1:]
    elif kind == "swapped":
        i = data.draw(st.integers(0, len(numbers) - 2))
        numbers[i], numbers[i + 1] = numbers[i + 1], numbers[i]
    else:
        i = data.draw(st.integers(0, len(numbers) - 1))
        numbers[i] = "0" + numbers[i]
    pieces = re.split(r"[0-9]+", line)
    lines[k] = "".join(p + x for p, x in zip(pieces, numbers + [""]))
    edited = "\n".join(lines)
    assert re.sub(r"[0-9]+", "0", edited) == re.sub(r"[0-9]+", "0", text)
    with mock.patch.object(codec, "_LINES_CHUNK", chunk):
        assert outcome(edited) == outcome(edited + " ")


# every number of digits the writer's three-digit groups meet, up to
# int64's largest; the reader converts runs of at most 18 digits
WIDE_VALUES = [0, 9, 10, 999, 1000, 10**6, 10**18 - 1, 10**18, 2**63 - 1]


def wide_tiling(values):
    """Placements whose brick indices and origins hold the given values."""
    bricks = (Brick((1, 1)),) * 1001
    ps = [
        Placement(b, o, (x, y))
        for b in (0, 9, 10, 999, 1000)
        for o in ((0, 1), (1, 0))
        for x in values
        for y in values[::-1]
    ]
    return Tiling(BoxShape((1, 1)), bricks, ps, rotation_policy=ROTATION_AXIS_PERMUTATIONS)


@pytest.mark.parametrize("chunk", [None, 1, 2, 5, 7])
def test_wide_values_match_reference_writer(chunk):
    with mock.patch.object(codec, "_LINES_CHUNK", chunk or codec._LINES_CHUNK):
        for values in (WIDE_VALUES, WIDE_VALUES[:7]):
            t = wide_tiling(values)
            text = encode(t)
            assert text == reference_encode(t)
            assert decode(text) == t
            assert decode(text).placements == t.placements
            # 19-digit numbers are read by json.loads, shorter ones are not
            assert (codec._canonical(text) is None) == (values == WIDE_VALUES)

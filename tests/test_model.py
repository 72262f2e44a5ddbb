"""Geometry model: verification and combinators."""

import gc
import hashlib
import json
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest

from frobtile.errors import (
    CapExceededError,
    DimensionMismatchError,
    DivisibilityError,
    PreconditionError,
)
from frobtile.model import (
    BoxShape,
    Brick,
    Placement,
    Tiling,
    VerifyReport,
    grid_blocks,
    grid_fill,
    identity_orientation,
    oriented_shapes,
    verify_full,
    verify_sampled,
)
from frobtile import codec, model
from frobtile.codec import decode, encode
from frobtile.oracle import exact_cover_search
from frobtile.planar import (
    corollary1_construct,
    decide_single_brick,
    decide_two_squares,
    prime_cubes_construct,
    tile_square_235p,
)
from frobtile.render import render_ascii, render_svg


def segments_1d(lengths, brick_lengths):
    """1-D tiling laying the given segments end to end."""
    bricks = tuple(Brick((L,)) for L in brick_lengths)
    index = {L: i for i, L in enumerate(brick_lengths)}
    placements = []
    at = 0
    for L in lengths:
        placements.append(Placement(brick_index=index[L], orientation=(0,), origin=(at,)))
        at += L
    return Tiling(box=BoxShape((at,)), bricks=bricks, placements=tuple(placements))


# ---------------------------------------------------------------------------
# construction-time structural checks
# ---------------------------------------------------------------------------

def test_shapes_validate():
    assert BoxShape((4, 6)).volume == 24
    assert Brick((2, 3)).volume == 6
    with pytest.raises(PreconditionError, match="^box must have at least one axis$"):
        BoxShape(())
    with pytest.raises(PreconditionError, match=re.escape("brick sides must be >= 1, got (0, 3)")):
        Brick((0, 3))
    with pytest.raises(PreconditionError, match="^brick must have at least one axis$"):
        Brick([])
    with pytest.raises(PreconditionError, match=re.escape("box sides must be >= 1, got (4, -1)")):
        BoxShape((4, -1))


def test_box_and_brick_are_distinct_classes():
    assert BoxShape((2, 3)) != Brick((2, 3))
    assert BoxShape((2, 3)) == BoxShape([2, 3])
    assert repr(BoxShape((2, 3))) == "BoxShape(sides=(2, 3))"
    assert repr(Brick((2, 3))) == "Brick(sides=(2, 3))"


def _holds_placement_tuple(t):
    return any(
        isinstance(r, tuple) and r and isinstance(r[0], Placement) for r in gc.get_referents(t)
    )


def test_tiling_stores_only_its_columns():
    box, bricks = BoxShape((4, 6)), (Brick((2, 3)),)
    from_rows = Tiling(box, bricks, [Placement(0, (0, 1), (x, y)) for x in (0, 2) for y in (0, 3)])
    for t in (from_rows, grid_fill(box, bricks[0])):
        assert not _holds_placement_tuple(t)
        first = t.placements
        assert first == t.placements and first is not t.placements
        assert first == tuple(Placement(0, (0, 1), (x, y)) for x in (0, 2) for y in (0, 3))
        assert all(type(v) is int for p in first for v in (p.brick_index, *p.orientation, *p.origin))
        assert not _holds_placement_tuple(t)


def test_fixed_policy_orientation_is_one_row():
    """Every way to a fixed-policy tiling holds a one-row orientation view."""
    witness = tile_square_235p(43, 5).witness  # several grid blocks
    m, n = witness.origin.shape
    identity = np.tile(np.arange(n, dtype=np.int64), (m, 1))
    explicit = Tiling.from_arrays(
        witness.box, witness.bricks, witness.brick_index, identity, witness.origin
    )
    built = [
        witness,
        grid_fill(BoxShape((4, 6)), Brick((2, 3))),
        decode(encode(witness)),
        Tiling(witness.box, witness.bricks, witness.placements),
        explicit,
    ]
    for t in built:
        assert t.rotation_policy == "fixed"
        assert t.orientation.shape == t.origin.shape and t.orientation.strides[0] == 0
        assert not t.orientation.flags.writeable
        assert (t.orientation == np.arange(t.dimension)).all()
        back = pickle.loads(pickle.dumps(t))
        assert back == t and hash(back) == hash(t) and back.orientation.strides[0] == 0
        # the pickle carries the one row, not m copies of it
        assert t.__reduce__()[1][3].shape == (t.dimension,)
    for t in built[2:]:
        assert t.placements == witness.placements
        assert t == explicit and hash(t) == hash(explicit)
    # a non-identity row is still rejected, as a column or as the one row
    rotated = identity.copy()
    rotated[3] = np.arange(n)[::-1]
    message = "placement 3: non-identity orientation under the fixed policy"
    with pytest.raises(PreconditionError, match=message):
        Tiling.from_arrays(witness.box, witness.bricks, witness.brick_index, rotated, witness.origin)
    with pytest.raises(PreconditionError, match=message.replace("3", "0")):
        Tiling.from_arrays(
            witness.box, witness.bricks, witness.brick_index, rotated[3], witness.origin
        )


def test_structural_error_names_the_callers_origin():
    # 2**63 does not fit the int64 column; the message shows it as given
    with pytest.raises(PreconditionError, match=re.escape(f"bad origin ({2**63}, 0)")):
        Tiling(BoxShape((4, 4)), (Brick((2, 2)),), [Placement(0, (0, 1), (2**63, 0))])


def test_pipeline_never_reads_placement_objects(monkeypatch):
    def refuse(self):
        raise AssertionError("Tiling.placements was read")

    monkeypatch.setattr(Tiling, "placements", property(refuse))
    t = prime_cubes_construct(31, (2, 3, 5))
    text = encode(t)
    indented = json.dumps(json.loads(text), indent=1)
    assert codec._canonical(indented) is None  # the json.loads path
    for back in (decode(text), decode(indented)):
        assert back == t
        assert verify_full(back).valid and verify_sampled(back, 500, 1).valid
        assert encode(back) == text
    render_ascii(t)
    render_svg(t)
    found = exact_cover_search(BoxShape((5, 6)), (Brick((2, 3)), Brick((3, 2))))
    assert found.status == "found" and verify_full(found.tiling).valid
    for d in (
        decide_single_brick(6, 5, 2, 3),
        decide_two_squares(12, 13, 2, 3),
        tile_square_235p(25, 11),
        tile_square_235p(43, 5),
    ):
        assert d.tileable and verify_full(d.witness).valid


def test_tiling_rejects_structural_garbage():
    box = BoxShape((4, 4))
    brick = Brick((2, 2))
    ok = Placement(brick_index=0, orientation=(0, 1), origin=(0, 0))
    Tiling(box, (brick,), (ok,))
    with pytest.raises(PreconditionError):
        Tiling(box, (brick,), (Placement(1, (0, 1), (0, 0)),))
    with pytest.raises(PreconditionError):
        Tiling(box, (brick,), (Placement(0, (0, 0), (0, 0)),))
    with pytest.raises(PreconditionError):
        Tiling(box, (brick,), (Placement(0, (0, 1), (-1, 0)),))
    with pytest.raises(DimensionMismatchError):
        Tiling(box, (Brick((2, 2, 2)),), ())
    # fixed policy forbids rotations; the permissive policy allows them
    rot = Placement(0, (1, 0), (0, 0))
    with pytest.raises(PreconditionError):
        Tiling(box, (brick,), (rot,))
    Tiling(box, (brick,), (rot,), rotation_policy="axis-permutations")
    with pytest.raises(PreconditionError):
        Tiling(box, (brick,), (), rotation_policy="free-spin")


@pytest.mark.parametrize("brick_index, orientation, origin, policy, message", [
    # two placements named, one row of orientation and origin given
    ([0, 0], [[0, 1]], [[0, 0]], "fixed", r"origin: expected shape \(2, 2\), found \(1, 2\)"),
    # one orientation row for all is allowed under the fixed policy only
    ([0, 0], [0, 1], [[0, 0], [0, 2]], "axis-permutations",
     r"orientation: expected shape \(2, 2\), found \(2,\)"),
    ([0], [[0, 1]], [[0, 0, 0]], "fixed", r"origin: expected shape \(1, 2\), found \(1, 3\)"),
    ([0], [[0, 1]], [0, 0], "fixed", r"origin: expected shape \(1, 2\), found \(2,\)"),
    (0, [0, 1], [[0, 0]], "fixed", r"brick_index: expected shape \(m,\), found \(\)"),
], ids=["short-columns", "one-row-rotating", "wide-origin", "flat-origin", "scalar-index"])
def test_from_arrays_checks_column_shapes(brick_index, orientation, origin, policy, message):
    box, bricks = BoxShape((4, 4)), (Brick((2, 2)),)
    with pytest.raises(PreconditionError, match=message):
        Tiling.from_arrays(box, bricks, np.array(brick_index), np.array(orientation),
                           np.array(origin), rotation_policy=policy)


# ---------------------------------------------------------------------------
# verify_full
# ---------------------------------------------------------------------------

def test_verify_full_grid():
    t = grid_fill(BoxShape((4, 6)), Brick((2, 2)))
    assert len(t.placements) == 6
    assert verify_full(t).valid


def test_verify_full_detects_overlap():
    t = grid_fill(BoxShape((4, 6)), Brick((2, 2)))
    shifted = list(t.placements)
    shifted[1] = Placement(0, (0, 1), (0, 1))  # was (0, 2)
    bad = Tiling(t.box, t.bricks, tuple(shifted))
    report = verify_full(bad)
    assert not report.valid
    assert report.reason == "overlap"
    assert report.overlap_pair == (0, 1)


def test_verify_full_detects_volume_deficit():
    t = grid_fill(BoxShape((4, 6)), Brick((2, 2)))
    bad = Tiling(t.box, t.bricks, t.placements[:-1])
    report = verify_full(bad)
    assert not report.valid
    assert report.reason == "volume_mismatch"
    assert report.expected_volume == 24
    assert report.actual_volume == 20


def test_verify_full_detects_out_of_bounds():
    box = BoxShape((4, 4))
    brick = Brick((2, 2))
    bad = Tiling(box, (brick,), (Placement(0, (0, 1), (3, 0)),))
    report = verify_full(bad)
    assert not report.valid
    assert report.reason == "placement_out_of_bounds"
    assert report.placement_index == 0


def test_verify_full_handles_rotated_placements():
    # a 3x2 box covered by one rotated 2x3 brick
    box = BoxShape((3, 2))
    brick = Brick((2, 3))
    p = Placement(0, (1, 0), (0, 0))
    t = Tiling(box, (brick,), (p,), rotation_policy="axis-permutations")
    assert p.oriented_sides(brick) == (3, 2)
    assert verify_full(t).valid


def test_verify_full_first_overlap_is_lexicographic():
    box = BoxShape((2, 8))
    brick = Brick((2, 2))
    ps = tuple(Placement(0, (0, 1), (0, j)) for j in (0, 2, 3, 5))
    report = verify_full(Tiling(box, (brick,), ps))
    assert report.overlap_pair == (1, 2)


# ---------------------------------------------------------------------------
# verify_sampled
# ---------------------------------------------------------------------------

def test_verify_sampled_accepts_valid_tilings():
    t = grid_fill(BoxShape((12, 10)), Brick((3, 2)))
    for seed in (0, 1, 99):
        report = verify_sampled(t, samples=500, seed=seed)
        assert report.valid
        assert report.samples == 500


def test_verify_sampled_rejects_volume_doubling():
    box = BoxShape((2, 2))
    brick = Brick((2, 2))
    ps = (Placement(0, (0, 1), (0, 0)), Placement(0, (0, 1), (0, 0)))
    report = verify_sampled(Tiling(box, (brick,), ps), samples=10, seed=0)
    assert not report.valid
    assert report.reason == "volume_mismatch"


def test_verify_sampled_catches_overlap_with_matching_volume():
    # volume matches (2+2 = 4) but cell 1 is doubled and cell 3 is bare
    box = BoxShape((4,))
    brick = Brick((2,))
    ps = (Placement(0, (0,), (0,)), Placement(0, (0,), (1,)))
    report = verify_sampled(Tiling(box, (brick,), ps), samples=200, seed=3)
    assert not report.valid
    assert report.reason == "sample_coverage"
    # the report names the first bad sampled cell and how often it is covered
    assert report.cell in ((1,), (3,))
    assert report.cover_count == {(1,): 2, (3,): 0}[report.cell]
    assert report.expected_volume is None and report.actual_volume is None
    assert f"cell={report.cell}, cover_count={report.cover_count}" in str(report)


def test_verify_sampled_rejects_a_negative_seed_before_any_work():
    # an invalid tiling, so a check made after the verdict would not run
    box = BoxShape((2, 2))
    ps = (Placement(0, (0, 1), (0, 0)), Placement(0, (0, 1), (0, 0)))
    t = Tiling(box, (Brick((2, 2)),), ps)
    with pytest.raises(PreconditionError, match="seed must be >= 0"):
        verify_sampled(t, samples=10, seed=-1)
    with pytest.raises(PreconditionError, match="samples must be >= 1"):
        verify_sampled(t, samples=0, seed=0)
    assert verify_sampled(t, samples=10, seed=0).reason == "volume_mismatch"


def test_verify_sampled_too_many_samples_is_cap_exceeded():
    # numpy refuses these sizes outright, without trying to allocate
    t = grid_fill(BoxShape((12, 10)), Brick((3, 2)))
    for samples in (2**62, 2**70):
        with pytest.raises(CapExceededError, match=f"{samples} samples"):
            verify_sampled(t, samples=samples, seed=0)


def _crowded(layer):
    """One 16 x 32 x 32 brick and 16,384 unit cubes in a 32^3 box, the
    cubes' first layer at axis-0 coordinate layer: a tiling at 16, and
    at 15 a layer over the brick and one left empty."""
    blocks = [(0, (0, 1, 2), (0, 0, 0), (16, 32, 32)), (1, (0, 1, 2), (layer, 0, 0), (1, 32, 32)),
              (1, (0, 1, 2), (17, 0, 0), (15, 32, 32))]
    return grid_blocks((32, 32, 32), (Brick((16, 32, 32)), Brick((1, 1, 1))), blocks)


def test_verify_sampled_memory_is_bounded_when_one_brick_widens_the_buckets():
    # the large brick makes every bucket 16 x 32 x 32 cells, so the unit
    # cubes share one bucket and a cell beside them has all of them for
    # candidates: 8,192 a cell on average, 134 million pairs in 16,384 cells
    t = _crowded(16)
    tracemalloc.start()
    try:
        report = verify_sampled(t, samples=1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid and peak < 64 << 20


@pytest.mark.parametrize("budget", [1, 1000])
def test_verify_sampled_reports_do_not_depend_on_the_pair_budget(monkeypatch, budget):
    # below a cell's candidate count, each such cell is probed on its own
    cases = [(_crowded(16), 300, 0), (_crowded(15), 300, 1), (_crowded(15), 300, 2)]
    want = [str(verify_sampled(*case)) for case in cases]
    assert not any(w.startswith("Valid") for w in want[1:])
    monkeypatch.setattr(model, "_SAMPLE_PAIRS", budget)
    assert [str(verify_sampled(*case)) for case in cases] == want


def test_verify_sampled_agrees_with_full_on_random_grids():
    rng = random.Random(8)
    for _ in range(25):
        bx = rng.choice([2, 3, 4]) * rng.randint(1, 3)
        by = rng.choice([2, 3, 4]) * rng.randint(1, 3)
        sx = next(s for s in (4, 3, 2, 1) if bx % s == 0)
        sy = next(s for s in (4, 3, 2, 1) if by % s == 0)
        t = grid_fill(BoxShape((bx, by)), Brick((sx, sy)))
        full = verify_full(t)
        sampled = verify_sampled(t, samples=10 * bx * by, seed=1)
        assert full.valid and sampled.valid
        if len(t.placements) > 1:
            broken = Tiling(t.box, t.bricks, t.placements[1:])
            assert not verify_full(broken).valid
            assert not verify_sampled(broken, samples=10 * bx * by, seed=1).valid


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def test_grid_fill_examples():
    assert len(grid_fill(BoxShape((6, 9)), Brick((3, 3))).placements) == 6
    assert len(grid_fill(BoxShape((10, 10)), Brick((5, 5))).placements) == 4
    with pytest.raises(DivisibilityError):
        grid_fill(BoxShape((5, 6)), Brick((2, 2)))


def lifted(flat, bricks, height):
    """flat lifted to the given height: each placement becomes a column,
    one grid block of the brick above it, as construct_box lifts a slab."""
    orientation = identity_orientation(flat.dimension + 1)
    blocks = [
        (p.brick_index, orientation, p.origin + (0,), flat.bricks[p.brick_index].sides + (height,))
        for p in flat.placements
    ]
    return grid_blocks(flat.box.sides + (height,), bricks, blocks)


def test_extrude_segments_to_rectangle():
    t1 = segments_1d([5, 5, 7, 7], brick_lengths=[5, 7])
    assert t1.box.sides == (24,)
    assert verify_full(t1).valid
    t2 = lifted(t1, [Brick((5, 5)), Brick((7, 7))], height=35)
    assert t2.box.sides == (24, 35)
    assert verify_full(t2).valid
    # 5-wide columns stack 7 copies, 7-wide columns stack 5
    assert len(t2.placements) == 2 * 7 + 2 * 5


def test_extrude_single_stack():
    t1 = grid_fill(BoxShape((2, 3)), Brick((2, 3)))
    t2 = lifted(t1, [Brick((2, 3, 4))], height=4)
    assert t2.box.sides == (2, 3, 4)
    assert len(t2.placements) == 1
    assert verify_full(t2).valid


def test_stack_concatenates_along_axis():
    # a 6 x 4 grid with a 6 x 2 grid of the same brick on top
    bricks = (Brick((3, 2)),)
    t = grid_blocks((6, 6), bricks, [(0, (0, 1), (0, 0), (6, 4)), (0, (0, 1), (0, 4), (6, 2))])
    assert t.box.sides == (6, 6)
    assert len(t.placements) == 4 + 2
    assert verify_full(t).valid


def test_stack_volume_bookkeeping():
    bricks = (Brick((2, 1)),)
    blocks = [(0, (0, 1), (0, y), (6, h)) for y, h in ((0, 2), (2, 3), (5, 4))]
    t = grid_blocks((6, 9), bricks, blocks)
    assert t.placement_volume() == t.box.volume == sum(6 * h for *_, (_, h) in blocks)
    assert verify_full(t).valid


def test_combinators_emit_sorted_placements():
    t1 = segments_1d([3, 2, 2, 3], brick_lengths=[2, 3])
    t2 = lifted(t1, [Brick((2, 2)), Brick((3, 3))], height=6)
    origins = [p.origin for p in t2.placements]
    assert origins == sorted(origins)
    assert identity_orientation(2) == (0, 1)


def test_oriented_shapes_keep_the_first_brick_and_orientation_of_each_shape():
    sides = [(3, 5), (2, 2), (5, 3), (7, 2)]
    # bricks as given, identity first; 2 x 2 turned and all of 5 x 3 repeat
    assert oriented_shapes(sides, "axis-permutations") == [
        (0, (0, 1), (3, 5)), (0, (1, 0), (5, 3)),
        (1, (0, 1), (2, 2)),
        (3, (0, 1), (7, 2)), (3, (1, 0), (2, 7)),
    ]
    assert oriented_shapes(sides, "fixed") == [
        (0, (0, 1), (3, 5)), (1, (0, 1), (2, 2)), (2, (0, 1), (5, 3)), (3, (0, 1), (7, 2)),
    ]
    assert oriented_shapes([(1, 2, 3), (3, 1, 2), (2, 2, 2)], "axis-permutations") == [
        (0, (0, 1, 2), (1, 2, 3)), (0, (0, 2, 1), (1, 3, 2)), (0, (1, 0, 2), (2, 1, 3)),
        (0, (1, 2, 0), (2, 3, 1)), (0, (2, 0, 1), (3, 1, 2)), (0, (2, 1, 0), (3, 2, 1)),
        (2, (0, 1, 2), (2, 2, 2)),
    ]
    with pytest.raises(PreconditionError, match="^unknown rotation policy 'mirrored'$"):
        oriented_shapes([(1, 2)], "mirrored")


# ---------------------------------------------------------------------------
# verify_sampled against a count made here
# ---------------------------------------------------------------------------

def _with_origin(t, origin):
    return Tiling.from_arrays(
        t.box, t.bricks, t.brick_index, t.orientation, origin, rotation_policy=t.rotation_policy
    )


def _moved(t, rows):
    """t with each given placement moved one cell along the first axis it can move on."""
    origin = t.origin.copy()
    hi = origin + t.oriented_extents()
    box = t.box.sides
    for k in rows:
        axis = next(a for a in range(t.dimension) if hi[k, a] < box[a] or origin[k, a] > 0)
        origin[k, axis] += 1 if hi[k, axis] < box[axis] else -1
    return _with_origin(t, origin)


def _replaced(t, k, j):
    """t with placement k replaced by a copy of placement j."""
    columns = [c.copy() for c in (t.brick_index, t.orientation, t.origin)]
    for c in columns:
        c[k] = c[j]
    return Tiling.from_arrays(t.box, t.bricks, *columns, rotation_policy=t.rotation_policy)


def _same_volume_partner(t, k):
    """Another placement whose brick has the volume of placement k's, or None."""
    volumes = np.array([b.volume for b in t.bricks])[t.brick_index]
    others = np.flatnonzero(volumes == volumes[k])
    others = others[others != k]
    return int(others[len(others) // 2]) if len(others) else None


def _rotated(t):
    """t under the axis-permutations policy, each brick stored with sorted sides."""
    kinds = sorted({tuple(sorted(b.sides)) for b in t.bricks})
    bricks = tuple(Brick(s) for s in kinds)
    index, orientation = [], []
    for b in t.bricks:
        base = sorted(b.sides)
        # box axis j gets the first unused brick axis of the same length
        perm = []
        for side in b.sides:
            perm.append(next(a for a, s in enumerate(base) if s == side and a not in perm))
        index.append(kinds.index(tuple(base)))
        orientation.append(perm)
    brick_index = np.array(index)[t.brick_index]
    return Tiling.from_arrays(
        t.box, bricks, brick_index, np.array(orientation)[t.brick_index], t.origin,
        rotation_policy="axis-permutations",
    )


def _guillotine(rng, sides, largest):
    """Boxes (origin, sides) of a random guillotine cut of a box at the origin."""
    boxes, done = [((0,) * len(sides), tuple(sides))], []
    while boxes:
        origin, box = boxes.pop()
        cuttable = [k for k, s in enumerate(box) if s > 1]
        if max(box) <= largest and (not cuttable or rng.random() < 0.3):
            done.append((origin, box))
            continue
        k = rng.choice([k for k in cuttable if box[k] > largest] or cuttable)
        at = rng.randint(1, box[k] - 1)
        far = list(origin)
        far[k] += at
        boxes.append((origin, box[:k] + (at,) + box[k + 1:]))
        boxes.append((tuple(far), box[:k] + (box[k] - at,) + box[k + 1:]))
    return done


def _random_tiling(rng, n, policy):
    box = tuple(rng.randint(2, {1: 40, 2: 14, 3: 8, 4: 5}[n]) for _ in range(n))
    pieces = _guillotine(rng, box, largest=3)
    rng.shuffle(pieces)
    kinds = sorted({s for _, s in pieces})
    fixed = Tiling.from_arrays(
        BoxShape(box),
        [Brick(s) for s in kinds],
        [kinds.index(s) for _, s in pieces],
        np.tile(np.arange(n), (len(pieces), 1)),
        [o for o, _ in pieces],
    )
    return fixed if policy == "fixed" else _rotated(fixed)


def _counted_report(t, samples, seed):
    """The report verify_sampled must give, from the fit and volume checks
    and a cover count of every sampled cell over every placement."""
    lo = t.origin
    hi = lo + t.oriented_extents()
    box = np.array(t.box.sides, dtype=np.int64)
    out = (lo < 0).any(axis=1) | (hi > box).any(axis=1)
    if out.any():
        return VerifyReport(
            False, "sampled", reason="placement_out_of_bounds", placement_index=int(np.argmax(out))
        )
    if t.placement_volume() != t.box.volume:
        return VerifyReport(
            False, "sampled", reason="volume_mismatch",
            expected_volume=t.box.volume, actual_volume=t.placement_volume(),
        )
    pts = np.random.default_rng(seed).integers(0, box, size=(samples, t.dimension))
    inside = (lo <= pts[:, None, :]) & (pts[:, None, :] < hi)
    counts = inside.all(axis=2).sum(axis=1)
    if (counts != 1).any():
        i = int(np.argmax(counts != 1))
        return VerifyReport(
            False, "sampled", reason="sample_coverage",
            cell=tuple(pts[i].tolist()), cover_count=int(counts[i]),
        )
    return VerifyReport(True, "sampled", samples=samples)


@pytest.mark.parametrize("policy", ["fixed", "axis-permutations"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_sampled_matches_a_direct_count(n, policy):
    rng = random.Random(1000 * n + len(policy))
    seen = set()
    for trial in range(12):
        t = _random_tiling(rng, n, policy)
        k = rng.randrange(len(t.brick_index))
        variants = [t]
        if len(t.brick_index) > 1:
            variants.append(_moved(t, [k]))
        j = _same_volume_partner(t, k)
        if j is not None:
            variants.append(_replaced(t, k, j))
        for v in variants:
            samples = rng.choice([1, 7, 300])
            report = verify_sampled(v, samples=samples, seed=trial)
            assert report == _counted_report(v, samples, trial), (n, policy, trial, str(v))
            seen.add(report.reason)
    assert seen >= {None, "sample_coverage"}


def test_out_of_box_placement_reports_its_index_in_both_verifiers():
    t = grid_fill(BoxShape((4, 6)), Brick((2, 3)))
    last = len(t.brick_index) - 1
    past = t.origin.copy()
    past[last, 1] += 1  # far corner one past the box
    negative = t.origin.copy()
    negative[last, 0] = -1  # the constructors refuse this
    unchecked = object.__new__(Tiling)
    for name in Tiling.__slots__:
        object.__setattr__(unchecked, name, negative if name == "origin" else getattr(t, name))
    both = t.origin.copy()
    both[1, 1] += 1
    both[last, 0] += 1
    cases = [
        (_with_origin(t, past), last),
        (unchecked, last),
        (_with_origin(t, both), 1),
    ]
    for bad, index in cases:
        for report in (verify_full(bad), verify_sampled(bad, samples=50, seed=0)):
            assert not report.valid
            assert report.reason == "placement_out_of_bounds"
            assert report.placement_index == index


# sha256 of the reports below, one str() a line, as the verifier gave them
# before its probe loop was rewritten
PINNED_SAMPLED_DIGEST = "10578c47ebb95f8e83e77c4d272758b6357dc35ef7b10d0e7b3a9fed27914ef2"


def _pinned_corpus():
    """(tiling, samples, seed) triples, valid and corrupted, in 2-D and 3-D."""
    squares = [prime_cubes_construct(a, (2, 3, 5)) for a in (30, 41, 57)]
    rect = corollary1_construct(198, 203, 6, 4, 5, 7)
    slab = lifted(squares[1], [Brick((2, 2, 3)), Brick((3, 3, 5)), Brick((5, 5, 2))], 30)
    cube = prime_cubes_construct(384, (2, 3, 5, 7))
    for t, samples in [*((s, 2000) for s in squares), (rect, 5000), (_rotated(rect), 5000),
                       (slab, 4000), (cube, 10_000)]:
        m = len(t.brick_index)
        k = m // 3
        yield t, samples, 0
        yield t, samples, 17
        yield _moved(t, [k]), samples, 1
        yield _moved(t, range(0, m, 97)), samples, 2
        yield _replaced(t, k, _same_volume_partner(t, k)), samples, 3
        yield _replaced(t, k, (k + 1) % m), samples, 4


def test_verify_sampled_reports_are_pinned():
    text = "\n".join(str(verify_sampled(*case)) for case in _pinned_corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SAMPLED_DIGEST

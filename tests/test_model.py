"""Geometry model: verification and combinators."""

import random

import pytest

from frobtile.errors import (
    DimensionMismatchError,
    DivisibilityError,
    PreconditionError,
    ShapeMismatchError,
)
from frobtile.model import (
    BoxShape,
    Brick,
    Placement,
    Tiling,
    extrude,
    grid_fill,
    identity_orientation,
    stack,
    verify_full,
    verify_sampled,
)


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
    with pytest.raises(PreconditionError):
        BoxShape(())
    with pytest.raises(PreconditionError):
        Brick((0, 3))


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


def test_extrude_segments_to_rectangle():
    t1 = segments_1d([5, 5, 7, 7], brick_lengths=[5, 7])
    assert t1.box.sides == (24,)
    assert verify_full(t1).valid
    t2 = extrude(t1, [Brick((5, 5)), Brick((7, 7))], height_product=35)
    assert t2.box.sides == (24, 35)
    assert verify_full(t2).valid
    # 5-wide columns stack 7 copies, 7-wide columns stack 5
    assert len(t2.placements) == 2 * 7 + 2 * 5


def test_extrude_single_stack():
    t1 = grid_fill(BoxShape((2, 3)), Brick((2, 3)))
    t2 = extrude(t1, [Brick((2, 3, 4))], height_product=4)
    assert t2.box.sides == (2, 3, 4)
    assert len(t2.placements) == 1
    assert verify_full(t2).valid


def test_extrude_rejects_bad_heights_and_bricks():
    t1 = segments_1d([2, 3], brick_lengths=[2, 3])
    with pytest.raises(DivisibilityError):
        extrude(t1, [Brick((2, 2)), Brick((3, 3))], height_product=8)
    with pytest.raises(DimensionMismatchError):
        extrude(t1, [Brick((4, 2)), Brick((3, 3))], height_product=6)
    with pytest.raises(DimensionMismatchError):
        extrude(t1, [Brick((2, 2))], height_product=6)


def test_stack_concatenates_along_axis():
    a = grid_fill(BoxShape((6, 4)), Brick((3, 2)))
    b = grid_fill(BoxShape((6, 2)), Brick((3, 2)))
    t = stack([a, b], axis=1)
    assert t.box.sides == (6, 6)
    assert len(t.placements) == len(a.placements) + len(b.placements)
    assert verify_full(t).valid


def test_stack_identity_and_errors():
    a = grid_fill(BoxShape((4, 4)), Brick((2, 2)))
    only = stack([a], axis=0)
    assert only.box.sides == a.box.sides
    assert only.placements == a.placements
    with pytest.raises(ShapeMismatchError):
        stack([], axis=0)
    b = grid_fill(BoxShape((4, 6)), Brick((2, 2)))
    with pytest.raises(ShapeMismatchError):
        stack([a, b], axis=0)  # off-axis sides differ
    c = grid_fill(BoxShape((4, 4)), Brick((4, 4)))
    with pytest.raises(ShapeMismatchError):
        stack([a, c], axis=0)  # different brick lists


def test_stack_volume_bookkeeping():
    parts = [grid_fill(BoxShape((6, h)), Brick((2, 1))) for h in (2, 3, 4)]
    t = stack(parts, axis=1)
    assert t.box.volume == sum(p.box.volume for p in parts)
    assert verify_full(t).valid


def test_combinators_emit_sorted_placements():
    t1 = segments_1d([3, 2, 2, 3], brick_lengths=[2, 3])
    t2 = extrude(t1, [Brick((2, 2)), Brick((3, 3))], height_product=6)
    origins = [p.origin for p in t2.placements]
    assert origins == sorted(origins)
    assert identity_orientation(2) == (0, 1)

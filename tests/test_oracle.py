"""Exact-cover search: verdicts, determinism, limits, stats, scans."""

import cmath
import dataclasses
import hashlib
import math
import sys
import time
from itertools import product
from unittest import mock

import numpy as np
import pytest
from brute import bitmask_search
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frobtile import oracle
from frobtile.codec import encode
from frobtile.errors import CapExceededError, PreconditionError, SearchLimitError
from frobtile.model import BoxShape, Brick, Tiling, oriented_shapes, verify_full
from frobtile.oracle import SearchConfig, exact_cover_search, threshold_scan
from frobtile.planar import Dissection, decide_two_squares


def squares(*sides):
    return [Brick((s, s)) for s in sides]


def test_grid_case():
    r = exact_cover_search(BoxShape((4, 4)), squares(2))
    assert r.status == "found"
    assert len(r.tiling.placements) == 4
    assert verify_full(r.tiling).valid


def test_small_infeasible_square():
    r = exact_cover_search(BoxShape((7, 7)), squares(2, 3, 5))
    assert r.status == "infeasible"


def test_found_13_and_17():
    r13 = exact_cover_search(BoxShape((13, 13)), squares(2, 3, 5))
    assert r13.status == "found"
    assert verify_full(r13.tiling).valid
    r17 = exact_cover_search(BoxShape((17, 17)), squares(2, 3, 7))
    assert r17.status == "found"
    assert verify_full(r17.tiling).valid


def test_infeasible_11_with_237():
    r = exact_cover_search(BoxShape((11, 11)), squares(2, 3, 7))
    assert r.status == "infeasible"


def test_volume_precheck_rejects_without_search():
    r = exact_cover_search(BoxShape((3, 3)), squares(2))
    assert r.status == "infeasible"
    assert r.nodes == 0


def test_rotation_policy_changes_verdict():
    box = BoxShape((3, 2))
    brick = [Brick((2, 3))]
    fixed = exact_cover_search(box, brick, SearchConfig(rotation_policy="fixed"))
    assert fixed.status == "infeasible"
    free = exact_cover_search(box, brick)
    assert free.status == "found"
    assert free.tiling.placements[0].orientation == (1, 0)


def test_sequential_determinism():
    cfg = SearchConfig()
    a = exact_cover_search(BoxShape((13, 13)), squares(2, 3, 5), cfg)
    b = exact_cover_search(BoxShape((13, 13)), squares(2, 3, 5), cfg)
    assert encode(a.tiling) == encode(b.tiling)


def test_declared_brick_order_steers_the_solution():
    asc = exact_cover_search(BoxShape((6, 6)), squares(2, 3))
    desc = exact_cover_search(BoxShape((6, 6)), squares(3, 2))
    assert asc.status == desc.status == "found"
    first_asc = asc.tiling.bricks[asc.tiling.placements[0].brick_index]
    first_desc = desc.tiling.bricks[desc.tiling.placements[0].brick_index]
    assert first_asc.sides == (2, 2)
    assert first_desc.sides == (3, 3)


def test_node_limit_exhausts():
    r = exact_cover_search(
        BoxShape((13, 13)), squares(2, 3, 5), SearchConfig(node_limit=5)
    )
    assert r.status == "exhausted"
    assert r.reason == "node_limit"


def test_cell_cap():
    with pytest.raises(CapExceededError):
        exact_cover_search(BoxShape((70, 70)), squares(2))
    with pytest.raises(CapExceededError):
        threshold_scan(squares(2, 3), 65)


def test_parallel_matches_sequential():
    cfg = SearchConfig(parallel=True)
    par = exact_cover_search(BoxShape((13, 13)), squares(2, 3, 5), cfg)
    seq = exact_cover_search(BoxShape((13, 13)), squares(2, 3, 5))
    assert par.status == "found"
    assert encode(par.tiling) == encode(seq.tiling)
    bad = exact_cover_search(BoxShape((7, 7)), squares(2, 3, 5), cfg)
    assert bad.status == "infeasible"
    # one root shape fills the box: the root's first child is the full box
    whole = [exact_cover_search(BoxShape((2, 3)), [Brick((2, 3))], SearchConfig(parallel=parallel))
             for parallel in (False, True)]
    assert [len(r.tiling.placements) for r in whole] == [1, 1]
    assert encode(whole[0].tiling) == encode(whole[1].tiling)


def test_threshold_scans():
    assert threshold_scan(squares(2, 3, 5), 30) == [1, 7]
    assert threshold_scan(squares(2, 3, 7), 30) == [1, 5, 11]
    assert threshold_scan(squares(2, 3), 20) == [1, 5, 7, 11, 13, 17, 19]
    # 7 is the first side that needs a search, and one node does not settle it
    with pytest.raises(SearchLimitError, match="inconclusive at a=7"):
        threshold_scan(squares(2, 3, 5), 30, SearchConfig(node_limit=1))


def test_threshold_scan_searches_distinct_squares():
    searched = []

    def record(box, bricks, cfg):
        searched.append([b.sides for b in bricks])
        return exact_cover_search(box, bricks, cfg)

    with mock.patch.object(oracle, "exact_cover_search", side_effect=record):
        assert threshold_scan(squares(2, 2, 3, 3, 7, 7), 30) == [1, 5, 11]
    assert searched
    assert all(sides == [(7, 7), (3, 3), (2, 2)] for sides in searched)


@pytest.mark.parametrize("sides, limit, misses", [
    ((2, 3, 5), 30, [1, 7]),
    ((2, 3, 7), 30, [1, 5, 11]),
    ((2, 5, 11), 64, [1, 3, 7, 9, 13, 17, 19, 23]),
    ((2, 5, 9), 64, [1, 3, 7, 11, 13, 17, 21]),
    ((4, 6, 10), 64, [1, 2, 3, 5, 7, 9, 11, 13, 14, *range(15, 64, 2)]),
])
def test_threshold_scan_searches_only_what_dissection_leaves(sides, limit, misses):
    # dissection settles every tileable side here, 13 of {2,3,5} and 17
    # of {2,3,7} by a pinwheel, so the search sees exactly the misses;
    # it refuses the odd sides of {4,6,10} at once, trying no cut or
    # pinwheel on them, which the time bound checks
    searched = []

    def record(box, bricks, cfg):
        searched.append(box.sides[0])
        return exact_cover_search(box, bricks, cfg)

    with mock.patch.object(oracle, "exact_cover_search", side_effect=record):
        start = time.perf_counter()
        assert threshold_scan(squares(*sides), limit) == misses
        assert time.perf_counter() - start < 0.5
    assert searched == misses


def test_threshold_scans_to_64_are_quick():
    # {2,5,11} stalled at side 49 when these sides were searched
    start = time.perf_counter()
    assert threshold_scan(squares(2, 5, 11), 64) == [1, 3, 7, 9, 13, 17, 19, 23]
    assert threshold_scan(squares(2, 5, 9), 64) == [1, 3, 7, 11, 13, 17, 21]
    assert time.perf_counter() - start < 5


def test_one_or_two_square_sizes_scan_without_search():
    # grids and the two-brick criterion decide these sides both ways
    want = [a for a in range(1, 65) if not decide_two_squares(a, a, 2, 3).tileable]
    with mock.patch.object(oracle, "exact_cover_search", side_effect=AssertionError):
        start = time.perf_counter()
        assert threshold_scan(squares(2, 3), 64) == want
        assert time.perf_counter() - start < 1
        assert threshold_scan(squares(3, 2, 3), 30) == [a for a in want if a <= 30]
        assert threshold_scan(squares(3), 10) == [1, 2, 4, 5, 7, 8, 10]


def test_threshold_scan_validates():
    with pytest.raises(PreconditionError):
        threshold_scan([Brick((2, 3))], 10)
    with pytest.raises(PreconditionError):
        threshold_scan(squares(2), 0)


def test_search_config_validates():
    with pytest.raises(PreconditionError):
        SearchConfig(node_limit=0)
    with pytest.raises(PreconditionError, match="time_limit must be > 0, got 0"):
        SearchConfig(time_limit=0)
    with pytest.raises(PreconditionError, match="at least one brick"):
        exact_cover_search(BoxShape((4, 4)), [])
    with pytest.raises(PreconditionError, match="has dimension 3, box has 2"):
        exact_cover_search(BoxShape((4, 4)), [Brick((2, 2, 2))])
    with pytest.raises(PreconditionError):
        SearchConfig(rotation_policy="mirror")


# 1-D, 2-D and 3-D boxes, square and oblong bricks, found and infeasible
DIFFERENTIAL_CASES = [
    ((10,), ((4,), (3,))),
    ((7,), ((2,), (5,))),
    ((6, 6), ((2, 2), (3, 3))),
    ((7, 7), ((2, 2), (3, 3), (5, 5))),
    ((13, 13), ((2, 2), (3, 3), (5, 5))),
    ((17, 17), ((2, 2), (3, 3), (7, 7))),
    ((7, 23), ((2, 2), (3, 3))),
    ((3, 2), ((2, 3),)),
    ((9, 10), ((2, 5), (3, 4))),
    ((9, 11), ((2, 3), (1, 5))),
    ((8, 13), ((3, 5), (2, 4))),
    ((4, 4, 4), ((1, 2, 2),)),
    ((3, 4, 5), ((1, 2, 3), (1, 1, 2))),
    ((5, 6, 7), ((2, 2, 2), (3, 3, 3))),
    ((2, 5, 7), ((1, 2, 3), (2, 2, 2))),
]


@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("policy", ["fixed", "axis-permutations"])
@pytest.mark.parametrize("box,sides", DIFFERENTIAL_CASES)
def test_matches_bitmask_reference(box, sides, policy, parallel):
    """Same status and first solution as the earlier engine, never more nodes."""
    bricks = [Brick(s) for s in sides]
    cfg = SearchConfig(rotation_policy=policy, parallel=parallel)
    got = exact_cover_search(BoxShape(box), bricks, cfg)
    status, placed, nodes = bitmask_search(box, sides, policy, per_branch=parallel)
    assert got.status == status
    assert got.nodes <= nodes
    if status == "found":
        index, perms, origins = zip(*placed)
        want = Tiling.from_arrays(BoxShape(box), bricks, index, perms, origins,
                                  rotation_policy=policy)
        assert encode(got.tiling) == encode(want)


@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("limit", [1, 2, 3, 100, 1000])
def test_node_limit_holds_for_the_whole_search(limit, parallel):
    # 134,412 nodes to Infeasible unlimited
    cfg = SearchConfig(node_limit=limit, parallel=parallel)
    r = exact_cover_search(BoxShape((25, 25)), squares(2, 3, 17), cfg)
    assert r.status == "exhausted" and r.reason == "node_limit"
    assert r.nodes <= limit


def test_parallel_time_limit_is_one_deadline():
    # 134,412 nodes, about 0.5 s, to Infeasible unlimited; the sequential
    # search checks the same deadline every 4096 nodes
    for parallel, limit in ((True, 0.05), (False, 0.01)):
        cfg = SearchConfig(time_limit=limit, parallel=parallel)
        r = exact_cover_search(BoxShape((25, 25)), squares(2, 3, 17), cfg)
        assert r.status == "exhausted" and r.reason == "time_limit"
        assert r.stats.elapsed_s < 5


def test_deep_search_needs_no_recursion_limit():
    before = sys.getrecursionlimit()
    r = exact_cover_search(BoxShape((4096,)), [Brick((1,))])
    assert r.status == "found" and len(r.tiling.placements) == 4096
    assert r.stats.max_depth == 4095 > before == sys.getrecursionlimit()


def test_witness_is_built_as_columns():
    runs = [exact_cover_search(BoxShape((64, 64)), [Brick((1, 1))], SearchConfig(parallel=parallel))
            for parallel in (False, True)]
    # a parallel worker does not count the root it enters
    assert [str(r) for r in runs] == ["Found(4096 placements, 4096 nodes)",
                                      "Found(4096 placements, 4095 nodes)"]
    i = np.arange(4096)
    for t in (r.tiling for r in runs):
        assert np.array_equal(t.origin, np.column_stack((i // 64, i % 64)))
        assert np.array_equal(t.brick_index, np.zeros(4096))
        assert np.array_equal(t.orientation, np.tile((0, 1), (4096, 1)))
        assert str(verify_full(t)) == "Valid(full)"
    assert encode(runs[0].tiling) == encode(runs[1].tiling)


def test_stats_record_counts_prunes():
    r = exact_cover_search(BoxShape((23, 23)), squares(2, 3, 7))
    st = r.stats
    assert r.status == "found" and st.nodes == r.nodes
    assert st.column_prunes > 0 and st.row_width_prunes > 0 and st.memo_hits > 0
    assert st.weight_prunes > 0
    assert 0 < st.memo_size <= st.nodes
    assert st.max_depth >= len(r.tiling.placements) - 1
    assert st.volume_prunes == 0 and st.elapsed_s > 0
    v = exact_cover_search(BoxShape((3, 3)), squares(2))
    assert v.stats.volume_prunes == 1 and v.stats.nodes == 0
    w = exact_cover_search(BoxShape((7, 23)), squares(2, 3))
    assert w.stats.weight_prunes == 1 and w.stats.volume_prunes == 0 and w.nodes == 0


@pytest.mark.parametrize("side,sides,parallel,counts", [
    (23, (2, 3, 7), False, (5814, 2, 2331, 1373, 184, 100)),
    (23, (2, 3, 7), True, (11731, 8, 4666, 2749, 368, 100)),
    (19, (2, 3, 17), False, (737, 0, 243, 183, 42, 16)),
    (19, (2, 3, 17), True, (953, 0, 315, 266, 20, 16)),
])
def test_stats_are_pinned(side, sides, parallel, counts):
    """Counts (nodes, column, row-width, weight, memo hits, depth).  In
    parallel every branch runs to completion in its own worker, so the
    sums do not depend on the number of CPUs."""
    r = exact_cover_search(BoxShape((side, side)), squares(*sides), SearchConfig(parallel=parallel))
    st = r.stats
    assert r.nodes == st.nodes
    assert (st.nodes, st.column_prunes, st.row_width_prunes, st.weight_prunes,
            st.memo_hits, st.max_depth) == counts


@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("box,sides,turned,status", [
    ((5, 23), ((7, 2), (3, 5)), (5, 3), "infeasible"),
    ((11, 13), ((7, 2), (3, 5)), (5, 3), "infeasible"),
    ((17, 13), ((7, 2), (3, 5)), (5, 3), "infeasible"),
    ((15, 13), ((7, 2), (3, 5)), (5, 3), "found"),
    ((2, 5, 7), ((1, 2, 3), (2, 2, 2)), (3, 1, 2), "found"),
])
def test_a_turned_duplicate_brick_changes_nothing(box, sides, turned, status, parallel):
    """A brick whose every orientation repeats an earlier brick's adds no
    shape, so the result, every count and the witness's columns are
    those of the list without it.  Were its shapes tried again, 17 x 13
    would read 1,554 memo hits instead of 124."""
    cfg = SearchConfig(parallel=parallel)
    runs = [exact_cover_search(BoxShape(box), [Brick(s) for s in bricks], cfg)
            for bricks in (sides, sides + (turned,))]
    assert [r.status for r in runs] == [status, status]
    assert str(runs[0]) == str(runs[1])
    assert dataclasses.replace(runs[0].stats, elapsed_s=0) == dataclasses.replace(
        runs[1].stats, elapsed_s=0)
    if status == "found":
        for column in ("brick_index", "orientation", "origin"):
            assert np.array_equal(getattr(runs[0].tiling, column), getattr(runs[1].tiling, column))


@pytest.mark.parametrize("policy", ["fixed", "axis-permutations"])
def test_search_and_dissection_read_one_shape_list(policy):
    # rotating, 5 x 3 and 2 x 7 repeat earlier shapes; 9 x 1 never fits
    # the box, 1 x 9 does
    sides = ((7, 2), (3, 5), (5, 3), (2, 7), (9, 1))
    shapes = oriented_shapes(sides, policy)
    assert Dissection([Brick(s) for s in sides], policy).tiles == shapes
    prob = oracle._Problem((8, 9), sides, policy)
    fitting = [(i, o) for i, o, (e0, e1) in shapes if e0 <= 8 and e1 <= 9]
    assert prob.placed == fitting and len(prob.shapes) == len(fitting)


# sha256 over encode() of the first solutions of 13x13 {2,3,5}, 17x17
# {2,3,7} and 23x23 {2,3,17}, in that order, before the weight prunes
SEARCH_WITNESS_DIGEST = "5c59d41adb71b287c27e5d67f21761ec8acb93cd88b5d127b1469177166b17e2"


def test_first_solutions_are_pinned():
    h = hashlib.sha256()
    for side, sides in ((13, (2, 3, 5)), (17, (2, 3, 7)), (23, (2, 3, 17))):
        r = exact_cover_search(BoxShape((side, side)), squares(*sides))
        h.update(encode(r.tiling).encode())
    assert h.hexdigest() == SEARCH_WITNESS_DIGEST


def test_weight_settles_odd_boxes_over_two_and_three_at_the_root():
    # at (z0, z1) = (-1, w), w a primitive cube root of unity, 2x2 and 3x3
    # vanish and an odd a x b box with 3 not dividing b does not
    sides = [a for a in range(1, 65, 2) if a % 3]
    for a, b in product(sides, sides):
        r = exact_cover_search(BoxShape((a, b)), squares(2, 3))
        assert r.status == "infeasible" and r.nodes == 0, (a, b)
        # a side of 1 leaves no shape that fits, when the volume passes
        assert r.stats.weight_prunes + r.stats.volume_prunes == 1 or min(a, b) == 1
        assert not decide_two_squares(a, b, 2, 3).tileable


def _origin(prob, m, x):
    """Origin of a placement at height m in flattened column x."""
    return (m, *map(int, np.unravel_index(x, prob.cross))) if prob.dimension > 1 else (m,)


def _coefficients(packed, width, count):
    """Signed coefficients of an unbiased packed weight."""
    packed += sum(1 << (width * f + width - 1) for f in range(count))
    return [(packed >> (width * f) & ((1 << width) - 1)) - (1 << (width - 1)) for f in range(count)]


def _value(weights, point, coeffs):
    """A point's packed coefficients evaluated at its first primitive roots."""
    z, _, strides, _, _ = point
    roots = [cmath.exp(2j * math.pi / q) for q in z]
    total = 0
    for digits in product(*(range(q - 1) if q > 1 else range(1) for q in z)):
        f = sum(d * st for d, st in zip(digits, strides)) // weights.width
        total += coeffs[f] * math.prod(r ** d for r, d in zip(roots, digits))
    return total


@pytest.mark.parametrize("box,sides,policy", [
    ((17, 17), ((2, 2), (3, 3), (7, 7)), "fixed"),
    ((9, 11), ((2, 3), (1, 5)), "axis-permutations"),
    ((7, 6, 6), ((2, 2, 2), (3, 3, 3)), "fixed"),
    ((33, 33), ((6, 4), (5, 7), (7, 5)), "axis-permutations"),
    ((12,), ((3,), (5,)), "fixed"),
    # 2x2 vanishes at all five kept points and 3x3 at two: skipped terms
    ((19, 19), ((2, 2), (3, 3), (17, 17)), "axis-permutations"),
])
def test_weight_tables_hold_each_placements_weight(box, sides, policy):
    """Each packed entry is the placed shape's weight at every kept point,
    exactly: checked against sums of z^cell with complex roots."""
    prob = oracle._Problem(box, sides, policy)
    weights = prob.weights
    assert weights.points
    fields = sum(p[4] for p in weights.points)
    columns = math.prod(prob.cross)
    extents = []
    for bi, perm in prob.placed:
        extents.append(tuple(sides[bi][a] for a in perm))
    for j, ext in enumerate(extents):
        for m in range(0, box[0] - ext[0] + 1, 2):
            for x in range(0, columns, 3):
                c = _origin(prob, m, x)
                if any(o + e > s for o, e, s in zip(c, ext, box)):
                    continue
                coeffs = _coefficients(prob.dw[j][m * columns + x], weights.width, fields)
                for point in weights.points:
                    z, _, _, offset, _ = point
                    roots = [cmath.exp(2j * math.pi / q) for q in z]
                    want = sum(
                        math.prod(r ** (o + d) for r, o, d in zip(roots, c, cell))
                        for cell in product(*(range(e) for e in ext))
                    )
                    got = _value(weights, point, coeffs[offset:])
                    assert abs(got - want) < 1e-6, (ext, c, z)


def test_weight_fields_are_bounded():
    # (61, 64) at (59, 61): 58 * 60 fields, about 6 KB an int if kept
    weights = oracle._Problem((61, 64), ((59, 61), (61, 2)), "fixed").weights
    assert [p[0] for p in weights.points] == [(59, 1)]
    assert sum(p[4] for p in weights.points) <= oracle._WEIGHT_FIELDS


def _region(weights, lo, hi):
    """Packed weight, without the bias, of the box lo <= cell < hi: at
    each point a product of per-axis sums."""
    total = 0
    for z, _, strides, offset, _ in weights.points:
        w = 1 << (weights.width * offset)
        for a, b, q, st in zip(lo, hi, z, strides):
            w *= oracle._axis_weights(b - a, q, st, a + 1)[a]
        total += w
    return total


def _remaining_weight(prob, heights):
    """Biased packed weight of the region above the height vector: the
    whole box less each filled column."""
    w = prob.weights.bias + _region(prob.weights, (0,) * prob.dimension, prob.box_sides)
    for x, h in enumerate(heights):
        if h:
            c = _origin(prob, 0, x)[1:]
            w -= _region(prob.weights, (0, *c), (h, *(k + 1 for k in c)))
    return w


@pytest.mark.parametrize("box,sides,policy", [
    ((9, 11), ((2, 3), (1, 5)), "axis-permutations"),
    ((17, 17), ((2, 2), (3, 3), (7, 7)), "fixed"),
    ((7, 6, 6), ((2, 2, 2), (3, 3, 3)), "fixed"),
    ((6, 5, 7), ((2, 3, 1), (3, 2, 2)), "axis-permutations"),
])
def test_split_branches_carry_the_remaining_region_weight(box, sides, policy):
    """Every branch below the root, and so every parallel worker's,
    carries the weight of the region left to fill.  The search starts
    from the empty box's weight and subtracts each placed shape's table
    entry, so it is enough that the start is the empty box's remaining
    weight and every entry, where its shape fits, is the weight of the
    cells the shape covers."""
    prob = oracle._Problem(box, sides, policy)
    assert prob.dw
    columns = math.prod(prob.cross)
    assert prob.weight == _remaining_weight(prob, [0] * columns)
    for j, (bi, perm) in enumerate(prob.placed):
        ext = tuple(sides[bi][a] for a in perm)
        for m in range(box[0] - ext[0] + 1):
            for x in range(columns):
                c = _origin(prob, m, x)
                if not all(o + e <= s for o, e, s in zip(c, ext, box)):
                    continue
                hi = tuple(o + e for o, e in zip(c, ext))
                assert prob.dw[j][m * columns + x] == _region(prob.weights, c, hi), (ext, c)
                if m == 0:
                    # one step down from the root, as the search takes it
                    under = [all(a <= b < h for a, b, h in zip(c[1:], _origin(prob, 0, y)[1:], hi[1:]))
                             for y in range(columns)]
                    left = _remaining_weight(prob, [ext[0] * u for u in under])
                    assert prob.weight - prob.dw[j][x] == left, (ext, c)


@st.composite
def weighted_instances(draw):
    """Boxes and bricks where the per-node weight test often cuts: two
    small bricks and a taller one, in any declared order."""
    if draw(st.booleans()):
        box = (draw(st.integers(5, 15)), draw(st.integers(5, 15)))
        sides = [(2, 2), (3, 3), draw(st.sampled_from([(5, 5), (7, 7), (4, 5), (5, 7), (7, 4)]))]
    else:
        # the reference engine slows sharply past 64 cells in 3-D
        box = tuple(draw(st.lists(st.integers(2, 4), min_size=3, max_size=3)))
        sides = [(2, 2, 2), draw(st.sampled_from([(3, 3, 3), (1, 3, 2), (1, 2, 3)])),
                 draw(st.sampled_from([(3, 2, 1), (5, 2, 1), (4, 1, 2)]))]
    return box, tuple(draw(st.permutations(sides)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(weighted_instances(), st.sampled_from(["fixed", "axis-permutations"]), st.booleans())
def test_weight_prunes_keep_status_and_first_solution(instance, policy, parallel):
    """Random 2-D and 3-D boxes against the earlier engine: the same status
    and first solution, never more nodes, sequential and parallel."""
    box, sides = instance
    bricks = [Brick(s) for s in sides]
    cfg = SearchConfig(rotation_policy=policy, parallel=parallel)
    got = exact_cover_search(BoxShape(box), bricks, cfg)
    status, placed, nodes = bitmask_search(box, sides, policy, per_branch=parallel)
    assert got.status == status
    assert got.nodes <= nodes
    if status == "found":
        index, perms, origins = zip(*placed)
        want = Tiling.from_arrays(BoxShape(box), bricks, index, perms, origins,
                                  rotation_policy=policy)
        assert encode(got.tiling) == encode(want)


@pytest.mark.parametrize("box,sides", [
    ((19, 19), (2, 3, 17)),
    ((23, 23), (2, 3, 7)),
    ((17, 17), (2, 3, 7)),
    ((11, 11), (2, 3, 7)),
])
def test_memo_evicts_its_oldest_half_at_the_cap(box, sides):
    full = exact_cover_search(BoxShape(box), squares(*sides))
    with mock.patch.object(oracle, "_MEMO_CAP", 16):
        small = exact_cover_search(BoxShape(box), squares(*sides))
    assert full.stats.memo_size > 16 >= small.stats.memo_size
    assert small.status == full.status
    if full.status == "found":
        assert encode(small.tiling) == encode(full.tiling)


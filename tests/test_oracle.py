"""Exact-cover search: verdicts, determinism, limits, stats, scans."""

import sys
import time
from unittest import mock

import pytest
from brute import bitmask_search

from frobtile import oracle
from frobtile.codec import encode
from frobtile.errors import CapExceededError, PreconditionError
from frobtile.model import BoxShape, Brick, Tiling, verify_full
from frobtile.oracle import SearchConfig, exact_cover_search, threshold_scan
from frobtile.planar import decide_two_squares


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


def test_threshold_scans():
    assert threshold_scan(squares(2, 3, 5), 30) == [1, 7]
    assert threshold_scan(squares(2, 3, 7), 30) == [1, 5, 11]
    assert threshold_scan(squares(2, 3), 20) == [1, 5, 7, 11, 13, 17, 19]


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
    cfg = SearchConfig(node_limit=limit, parallel=parallel)
    r = exact_cover_search(BoxShape((7, 23)), squares(2, 3), cfg)
    assert r.status == "exhausted" and r.reason == "node_limit"
    assert r.nodes <= limit


def test_parallel_time_limit_is_one_deadline():
    cfg = SearchConfig(time_limit=0.05, parallel=True)
    r = exact_cover_search(BoxShape((25, 25)), squares(2, 3, 17), cfg)
    assert r.status == "exhausted" and r.reason == "time_limit"
    assert r.stats.elapsed_s < 5


def test_deep_search_needs_no_recursion_limit():
    before = sys.getrecursionlimit()
    r = exact_cover_search(BoxShape((4096,)), [Brick((1,))])
    assert r.status == "found" and len(r.tiling.placements) == 4096
    assert r.stats.max_depth == 4095 > before == sys.getrecursionlimit()


def test_stats_record_counts_prunes():
    r = exact_cover_search(BoxShape((17, 17)), squares(2, 3, 7))
    st = r.stats
    assert st.nodes == r.nodes
    assert st.column_prunes > 0 and st.row_width_prunes > 0 and st.memo_hits > 0
    assert 0 < st.memo_size <= st.nodes
    assert st.max_depth >= len(r.tiling.placements) - 1
    assert st.volume_prunes == 0 and st.elapsed_s > 0
    v = exact_cover_search(BoxShape((3, 3)), squares(2))
    assert v.stats.volume_prunes == 1 and v.stats.nodes == 0


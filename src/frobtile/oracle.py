"""Exhaustive exact-cover search over small boxes: the ground truth.

Cells are numbered lexicographically and states are occupancy bitmasks
(arbitrary-precision ints).  The search always branches on the
lexicographically first free cell: any covering of that cell must be a
brick whose origin IS that cell (an origin strictly before it would
cover an earlier, already-filled cell), so trying every brick shape
anchored there is complete.  Bricks are tried in declared order,
orientations in permutation order, which makes the first solution found
deterministic.

Prunes, all exactness-preserving:

  * volume precheck: the box volume must be a nonnegative integer
    combination of the brick volumes, else Infeasible outright;
  * row-run prune: after a placement, if the contiguous free run along
    the last axis from the new first free cell is shorter than every
    brick's smallest last-axis extent, the child state is dead;
  * failed-state memo: occupancy masks proven unfillable are cached
    (bounded; the cap only stops new inserts, never soundness).

Infeasible is reported only after a complete search; hitting a node or
time limit yields Exhausted instead.  Parallel mode distributes the
root's candidate placements over worker processes and keeps the
branch-order-first solution, so a Found result matches the sequential
search whenever no limit truncates an earlier branch.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence

from .errors import CapExceededError, PreconditionError, SearchLimitError
from .model import (
    ROTATION_AXIS_PERMUTATIONS,
    ROTATION_FIXED,
    BoxShape,
    Brick,
    Tiling,
    identity_orientation,
)

DEFAULT_CELL_CAP = 4096          # max box volume in unit cells (64x64 in 2-D)
_MEMO_CAP = 2_000_000            # max failed states remembered per search

FOUND = "found"
INFEASIBLE = "infeasible"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class SearchConfig:
    rotation_policy: str = ROTATION_AXIS_PERMUTATIONS
    node_limit: int = 100_000_000
    time_limit: float = 600.0
    parallel: bool = False

    def __post_init__(self):
        if self.rotation_policy not in (ROTATION_FIXED, ROTATION_AXIS_PERMUTATIONS):
            raise PreconditionError(f"unknown rotation policy {self.rotation_policy!r}")
        if self.node_limit < 1 or self.time_limit <= 0:
            raise PreconditionError("search limits must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    status: str                      # found | infeasible | exhausted
    tiling: Optional[Tiling] = None
    nodes: int = 0
    reason: Optional[str] = None     # node_limit | time_limit when exhausted

    def __str__(self) -> str:
        if self.status == FOUND:
            return f"Found({len(self.tiling.placements)} placements, {self.nodes} nodes)"
        if self.status == INFEASIBLE:
            return f"Infeasible({self.nodes} nodes)"
        return f"Exhausted({self.reason}, {self.nodes} nodes)"


class _Limit(Exception):
    def __init__(self, reason):
        self.reason = reason


class _Solved(Exception):
    pass


def _oriented_shapes(box_sides, bricks, policy):
    """(brick_index, perm, extents, base_mask) per distinct oriented shape.

    Declared brick order, then permutation order; duplicate extents of
    the same brick keep only the first permutation.
    """
    n = len(box_sides)
    strides = [1] * n
    for k in range(n - 2, -1, -1):
        strides[k] = strides[k + 1] * box_sides[k + 1]
    perms = (
        (identity_orientation(n),)
        if policy == ROTATION_FIXED
        else tuple(permutations(range(n)))
    )
    shapes = []
    for bi, brick in enumerate(bricks):
        seen = set()
        for perm in perms:
            ext = tuple(brick.sides[a] for a in perm)
            if ext in seen:
                continue
            seen.add(ext)
            if any(e > s for e, s in zip(ext, box_sides)):
                continue
            mask = 0
            from itertools import product as _product

            for cell in _product(*[range(e) for e in ext]):
                mask |= 1 << sum(c * st for c, st in zip(cell, strides))
            shapes.append((bi, perm, ext, mask))
    return shapes, strides


def _volume_representable(volume, brick_volumes):
    reach = 1
    for v in sorted(set(brick_volumes)):
        if v > volume:
            continue
        shift = v
        mask = (1 << (volume + 1)) - 1
        while shift <= volume:
            reach |= (reach << shift) & mask
            shift <<= 1
    return (reach >> volume) & 1 == 1


def _run_dfs(box_sides, shapes, strides, occ0, node_limit, deadline):
    """Sequential DFS from a given occupancy state.

    Returns (status, placements or None, nodes).  placements are
    (brick_index, perm, origin) triples for the bricks placed BELOW
    occ0 (the caller keeps its own prefix).
    """
    n = len(box_sides)
    full = (1 << math.prod(box_sides)) - 1
    s_last = box_sides[-1]
    min_last = min(ext[-1] for _, _, ext, _ in shapes) if shapes else 1
    failed = set()
    placed = []
    nodes = 0

    def coords_of(idx):
        out = []
        for st in strides:
            out.append(idx // st)
            idx %= st
        return tuple(out)

    def dfs(occ):
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise _Limit("node_limit")
        if nodes % 4096 == 0 and time.monotonic() > deadline:
            raise _Limit("time_limit")
        if occ == full:
            raise _Solved
        if occ in failed:
            return
        inv = ~occ & full
        idx = (inv & -inv).bit_length() - 1
        coords = coords_of(idx)
        for bi, perm, ext, base in shapes:
            fits = True
            for c, e, s in zip(coords, ext, box_sides):
                if c + e > s:
                    fits = False
                    break
            if not fits:
                continue
            mask = base << idx
            if mask & occ:
                continue
            child = occ | mask
            if child != full:
                inv2 = ~child & full
                i2 = (inv2 & -inv2).bit_length() - 1
                tail = inv2 >> i2
                run = ((tail + 1) & ~tail).bit_length() - 1
                room = s_last - (i2 % s_last)
                if min(run, room) < min_last:
                    continue
            placed.append((bi, perm, coords))
            dfs(child)
            placed.pop()
        if len(failed) < _MEMO_CAP:
            failed.add(occ)

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * math.prod(box_sides) + 100))
    try:
        dfs(occ0)
        return (INFEASIBLE, None, nodes)
    except _Solved:
        return (FOUND, list(placed), nodes)
    except _Limit as e:
        return (EXHAUSTED, e.reason, nodes)
    finally:
        sys.setrecursionlimit(old_limit)


def _search_branch(args):
    """Worker for parallel mode: finish the search below one root branch."""
    box_sides, brick_sides, policy, occ0, node_limit, time_limit = args
    shapes, strides = _oriented_shapes(box_sides, [Brick(s) for s in brick_sides], policy)
    deadline = time.monotonic() + time_limit
    return _run_dfs(box_sides, shapes, strides, occ0, node_limit, deadline)


def _build_tiling(box, bricks, policy, triples):
    index, perms, origins = zip(*triples)
    return Tiling.from_arrays(box, bricks, index, perms, origins, rotation_policy=policy)


def exact_cover_search(
    box: BoxShape, bricks: Sequence[Brick], cfg: SearchConfig = SearchConfig()
) -> SearchResult:
    """Complete search for a tiling of box by the given bricks."""
    bricks = tuple(bricks)
    if not bricks:
        raise PreconditionError("need at least one brick")
    for b in bricks:
        if b.dimension != box.dimension:
            raise PreconditionError(
                f"brick {b.sides} has dimension {b.dimension}, box has {box.dimension}"
            )
    volume = box.volume
    if volume > DEFAULT_CELL_CAP:
        raise CapExceededError(
            f"box volume {volume} exceeds the search cell cap {DEFAULT_CELL_CAP}"
        )
    if not _volume_representable(volume, [b.volume for b in bricks]):
        return SearchResult(status=INFEASIBLE, nodes=0)

    shapes, strides = _oriented_shapes(box.sides, bricks, cfg.rotation_policy)
    if not shapes:
        return SearchResult(status=INFEASIBLE, nodes=0)
    deadline = time.monotonic() + cfg.time_limit

    if not cfg.parallel:
        status, payload, nodes = _run_dfs(
            box.sides, shapes, strides, 0, cfg.node_limit, deadline
        )
        if status == FOUND:
            return SearchResult(
                status=FOUND,
                tiling=_build_tiling(box, bricks, cfg.rotation_policy, payload),
                nodes=nodes,
            )
        if status == INFEASIBLE:
            return SearchResult(status=INFEASIBLE, nodes=nodes)
        return SearchResult(status=EXHAUSTED, reason=payload, nodes=nodes)

    # parallel: one branch per root candidate, joined in branch order
    root = (0,) * box.dimension
    branches = []
    for bi, perm, ext, base in shapes:
        if all(e <= s for e, s in zip(ext, box.sides)):
            branches.append((bi, perm, root, base))
    from concurrent.futures import ProcessPoolExecutor

    args = [
        (box.sides, [b.sides for b in bricks], cfg.rotation_policy, base, cfg.node_limit, cfg.time_limit)
        for _, _, _, base in branches
    ]
    with ProcessPoolExecutor(max_workers=min(len(args), os.cpu_count() or 1)) as pool:
        results = list(pool.map(_search_branch, args))
    total_nodes = sum(r[2] for r in results)
    for (bi, perm, origin, _), (status, payload, _) in zip(branches, results):
        if status == FOUND:
            triples = [(bi, perm, origin)] + payload
            return SearchResult(
                status=FOUND,
                tiling=_build_tiling(box, bricks, cfg.rotation_policy, triples),
                nodes=total_nodes,
            )
    if any(r[0] == EXHAUSTED for r in results):
        reason = next(r[1] for r in results if r[0] == EXHAUSTED)
        return SearchResult(status=EXHAUSTED, reason=reason, nodes=total_nodes)
    return SearchResult(status=INFEASIBLE, nodes=total_nodes)


# ---------------------------------------------------------------------------
# square-box threshold scanning
# ---------------------------------------------------------------------------

def _fricke_pair_tileable(w, h, x, y):
    """Rectangle w x h by squares x, y with gcd(x, y) = 1."""
    if w % x == 0 and h % x == 0:
        return True
    if w % y == 0 and h % y == 0:
        return True
    from .semigroup import pair_representation

    if w % (x * y) == 0 and pair_representation(h, x, y) is not None:
        return True
    if h % (x * y) == 0 and pair_representation(w, x, y) is not None:
        return True
    return False


def _guillotine_positive(w, h, sides, memo):
    """Sound-but-incomplete fast path: can w x h be cut into rectangles
    that the square-pair criterion settles?  True means tileable."""
    if w > h:
        w, h = h, w
    key = (w, h)
    hit = memo.get(key)
    if hit is not None:
        return hit
    ok = False
    for s in sides:
        if w % s == 0 and h % s == 0:
            ok = True
            break
    if not ok:
        for i in range(len(sides)):
            for j in range(i + 1, len(sides)):
                x, y = sides[i], sides[j]
                if math.gcd(x, y) == 1 and _fricke_pair_tileable(w, h, x, y):
                    ok = True
                    break
            if ok:
                break
    if not ok:
        smallest = min(sides)
        for cut in range(smallest, w // 2 + 1):
            if _guillotine_positive(cut, h, sides, memo) and _guillotine_positive(
                w - cut, h, sides, memo
            ):
                ok = True
                break
        if not ok:
            for cut in range(smallest, h // 2 + 1):
                if _guillotine_positive(w, cut, sides, memo) and _guillotine_positive(
                    w, h - cut, sides, memo
                ):
                    ok = True
                    break
    memo[key] = ok
    return ok


# ---------------------------------------------------------------------------
# committed fixtures: small square tilings the search found once
# ---------------------------------------------------------------------------

# name -> (box side, square brick sides, declared ascending)
BUILTIN_FIXTURES = {
    "square13-235": (13, (2, 3, 5)),
    "square17-237": (17, (2, 3, 7)),
}


def builtin_fixture(name: str) -> Tiling:
    """Load a committed search-found tiling by name."""
    if name not in BUILTIN_FIXTURES:
        raise PreconditionError(
            f"unknown fixture {name!r}; have {sorted(BUILTIN_FIXTURES)}"
        )
    from importlib.resources import files

    from .codec import decode

    text = files("frobtile").joinpath("fixtures", f"{name}.json").read_text("utf-8")
    return decode(text)


def regenerate_fixtures(out_dir) -> list[str]:
    """Re-run the canonical searches and write the fixture files.

    Deterministic: sequential search, bricks declared in ascending side
    order, axis-permutation rotations.  Returns the paths written.
    """
    from pathlib import Path

    from .codec import save_tiling

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, (side, sq) in sorted(BUILTIN_FIXTURES.items()):
        bricks = [Brick((s, s)) for s in sq]
        result = exact_cover_search(BoxShape((side, side)), bricks, SearchConfig())
        if result.status != FOUND:
            raise SearchLimitError(f"fixture {name}: search did not find a tiling")
        path = out / f"{name}.json"
        save_tiling(result.tiling, path)
        written.append(str(path))
    return written


def threshold_scan(
    bricks: Sequence[Brick], limit: int, cfg: SearchConfig = SearchConfig()
) -> list[int]:
    """All side lengths a <= limit whose a x a square is NOT tileable.

    Exact: positive cases are settled by divisibility / pair-criterion /
    guillotine composition when possible (cheap and sound), everything
    else by complete exact-cover search.
    """
    bricks = tuple(bricks)
    if limit < 1:
        raise PreconditionError(f"limit must be >= 1, got {limit}")
    for b in bricks:
        if b.dimension != 2 or b.sides[0] != b.sides[1]:
            raise PreconditionError(f"threshold_scan needs square 2-D bricks, got {b.sides}")
    if limit * limit > DEFAULT_CELL_CAP:
        raise CapExceededError(
            f"limit {limit} needs {limit * limit} cells, cap is {DEFAULT_CELL_CAP}"
        )
    sides = sorted({b.sides[0] for b in bricks})
    # bigger bricks first speeds up the cases that reach the full search
    search_order = tuple(sorted(bricks, key=lambda b: -b.sides[0]))
    memo: dict = {}
    out = []
    for a in range(1, limit + 1):
        if any(a % s == 0 for s in sides):
            continue
        if a >= min(sides) and _guillotine_positive(a, a, sides, memo):
            continue
        result = exact_cover_search(BoxShape((a, a)), search_order, cfg)
        if result.status == EXHAUSTED:
            raise SearchLimitError(
                f"scan inconclusive at a={a}: {result.reason} after {result.nodes} nodes"
            )
        if result.status == INFEASIBLE:
            out.append(a)
    return out

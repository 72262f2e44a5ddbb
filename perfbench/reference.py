"""Computations the benchmark checks frobtile against, written apart from it.

Nothing here imports frobtile.  Tilings are read through their public
attributes only (box.sides, bricks[i].sides, placements[i].brick_index,
.orientation, .origin), so the checks keep working if the library
changes how it stores a tiling.

- Frobenius numbers: a reachability bitmask over the integers up to
  g + m for small m, and a Bellman-Ford shortest path over the residues
  mod m (numpy, one roll per generator per pass) for large m.
- Tilings: a difference-array raster that counts how often every cell is
  covered; a tiling is exact when every count is 1.
- Tileability of small rectangles: a skyline exact-cover search (fill
  the lowest, leftmost free cell; the search state is the vector of
  column heights; failed states are remembered up to mirroring).
"""

from __future__ import annotations

import math

import numpy as np

BITMASK_MAX_M = 2000
MEMO_CAP = 2_000_000


# ---------------------------------------------------------------------------
# Frobenius numbers
# ---------------------------------------------------------------------------

def apery_table(gens):
    """Least representable integer in each residue class mod min(gens).

    Bellman-Ford over Z/mZ: an edge r -> r + a (mod m) of weight a for
    every generator a; passes repeat until no distance improves.
    """
    gens = sorted(gens)
    m = gens[0]
    big = np.iinfo(np.int64).max // 4
    dist = np.full(m, big, dtype=np.int64)
    dist[0] = 0
    while True:
        before = dist.copy()
        for a in gens[1:]:
            np.minimum(dist, np.roll(dist, a % m) + a, out=dist)
        if np.array_equal(before, dist):
            return dist


def frobenius_by_bitmask(gens):
    """Largest integer with no representation, by marking every sum.

    Integers up to bound + m are marked reachable one generator at a
    time; the bound is Schur's m * max - m - max, which is never below
    the Frobenius number.
    """
    gens = sorted(gens)
    m = gens[0]
    top = m * gens[-1] - m - gens[-1] + m + 1
    full = (1 << (top + 1)) - 1
    reach = 1
    for a in gens:
        shift = a
        while shift <= top:
            reach |= (reach << shift) & full
            shift <<= 1
    # the answer is the largest unmarked integer
    unreached = ~reach & full
    return unreached.bit_length() - 1


def frobenius(gens):
    """Frobenius number of a coprime generator list, with its Apery table."""
    gens = sorted(gens)
    if math.gcd(*gens) != 1 or gens[0] < 2:
        raise ValueError(f"not a Frobenius-valid set: {gens}")
    dist = apery_table(gens)
    g = int(dist.max()) - gens[0]
    if gens[0] <= BITMASK_MAX_M:
        g_bits = frobenius_by_bitmask(gens)
        if g_bits != g:
            raise AssertionError(f"reference methods disagree on {gens}: {g} vs {g_bits}")
    return g, dist


def representable(target, gens, dist):
    """Is target a nonnegative combination of gens (dist from apery_table)?"""
    m = min(gens)
    return target >= 0 and int(dist[target % m]) <= target


def check_representation(coefficients, target, gens):
    """The coefficient vector is nonnegative and its dot product is target."""
    gens = sorted(gens)
    return (
        len(coefficients) == len(gens)
        and all(isinstance(c, int) and c >= 0 for c in coefficients)
        and sum(c * g for c, g in zip(coefficients, gens)) == target
    )


def products_over_one(sides):
    total = math.prod(sides)
    return sorted({total // s for s in sides})


# ---------------------------------------------------------------------------
# exact raster check of a tiling
# ---------------------------------------------------------------------------

def placement_bounds(t):
    """(lo, hi) int64 arrays of shape (m, n) read from public attributes."""
    n = len(t.box.sides)
    sides = [tuple(b.sides) for b in t.bricks]
    m = len(t.placements)
    lo = np.empty((m, n), dtype=np.int64)
    hi = np.empty((m, n), dtype=np.int64)
    for i, p in enumerate(t.placements):
        if not 0 <= p.brick_index < len(sides):
            raise ValueError(f"placement {i}: brick index {p.brick_index} out of range")
        if sorted(p.orientation) != list(range(n)):
            raise ValueError(f"placement {i}: orientation {p.orientation} is not a permutation")
        s = sides[p.brick_index]
        lo[i] = p.origin
        hi[i] = [o + s[a] for o, a in zip(p.origin, p.orientation)]
    return lo, hi


def raster_problem(t):
    """None when every cell of the box is covered exactly once, else why not.

    Each placement adds +-1 at the 2^n corners of its box in a difference
    array; n prefix sums then give every cell's cover count.  Counts
    are kept in int8, so they are exact modulo 256; together with the
    volume check that still proves exactness, because counts that sum to
    the cell count and are each 1 mod 256 are all 1.
    """
    box = tuple(t.box.sides)
    n = len(box)
    try:
        lo, hi = placement_bounds(t)
    except ValueError as e:
        return str(e)
    if len(lo) == 0:
        return "no placements"
    if (lo < 0).any() or (hi > np.asarray(box)).any():
        return "placement outside the box"
    if int(np.prod(hi - lo, axis=1).sum()) != math.prod(box):
        return "volume mismatch"
    diff = np.zeros(tuple(s + 1 for s in box), dtype=np.int8)
    for corner in range(1 << n):
        picks = [(hi if (corner >> k) & 1 else lo)[:, k] for k in range(n)]
        sign = -1 if bin(corner).count("1") % 2 else 1
        np.add.at(diff, tuple(picks), np.int8(sign))
    # prefix sums one slice at a time: no temporary the size of the box
    for k in range(n):
        for x in range(1, box[k] + 1):
            cur = tuple(x if a == k else slice(None) for a in range(n))
            prev = tuple(x - 1 if a == k else slice(None) for a in range(n))
            diff[cur] += diff[prev]
    inner = tuple(slice(0, s) for s in box[1:])
    for x in range(box[0]):
        cells = diff[(x,) + inner]
        if not (cells == 1).all():
            bad = (x,) + tuple(int(v) for v in np.argwhere(cells != 1)[0])
            return f"cell {bad} covered {int(diff[bad])} times"
    return None


def overlapping(lo, hi, k):
    """Indices of the placements whose boxes meet placement k's interior."""
    meet = np.ones(len(lo), dtype=bool)
    for axis in range(lo.shape[1]):
        meet &= (lo[:, axis] < hi[k, axis]) & (lo[k, axis] < hi[:, axis])
    meet[k] = False
    return [int(i) for i in np.flatnonzero(meet)]


# ---------------------------------------------------------------------------
# skyline exact-cover search for small rectangles
# ---------------------------------------------------------------------------

def can_tile(rows, cols, bricks):
    """Can a rows x cols rectangle be tiled by the bricks, rotations allowed?

    bricks is a list of (a, b) rectangles.  The search fills the lowest,
    leftmost free cell of a skyline: any tiling covers that cell with a
    brick whose lower-left corner sits there, so trying every oriented
    brick at that corner is complete.  A state is the tuple of column
    heights; a state that failed once fails again, as does its mirror
    image.
    """
    width, height = min(rows, cols), max(rows, cols)
    shapes = sorted(
        {(a, b) for x, y in bricks for a, b in ((x, y), (y, x)) if a <= width and b <= height},
        reverse=True,
    )
    areas = sorted({w * h for w, h in shapes})
    if not _area_representable(width * height, areas):
        return False
    failed = set()

    def fill(heights):
        low = min(heights)
        if low == height:
            return True
        # the free region has the same shape at every height, so key it
        # relative to its floor; mirror images share a key
        rel = bytes(h - low for h in heights)
        key = min(rel, rel[::-1]) + bytes((height - low,))
        if key in failed:
            return False
        c = heights.index(low)
        run = 1
        while c + run < width and heights[c + run] == low:
            run += 1
        for w, h in shapes:
            if w <= run and low + h <= height:
                if fill(heights[:c] + (low + h,) * w + heights[c + w:]):
                    return True
        if len(failed) < MEMO_CAP:
            failed.add(key)
        return False

    return fill((0,) * width)


def _area_representable(total, areas):
    reach = 1
    full = (1 << (total + 1)) - 1
    for a in areas:
        shift = a
        while shift <= total:
            reach |= (reach << shift) & full
            shift <<= 1
    return bool((reach >> total) & 1)

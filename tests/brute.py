"""Brute-force oracles shared by the test suite.

Deliberately independent of the library's algorithms: representability
here is computed by closing a reachability bitmask under generator
shifts (bit i set <=> i is a nonnegative combination), never by residue
walks.  Doubling the shift closes the mask under one generator in
O(log bound) big-int operations.  Tilings are checked pair by pair over
Placement objects, never through the library's raster.  The
exact-cover reference is the library's earlier bitmask search engine.
"""

import math
import sys
from itertools import permutations, product


def reachable_mask(gens, bound):
    """Bitmask over 0..bound of nonnegative integer combinations of gens."""
    mask = (1 << (bound + 1)) - 1
    reach = 1
    for s in gens:
        shift = s
        while shift <= bound:
            reach |= (reach << shift) & mask
            shift <<= 1
    return reach


def brute_representable(x, gens):
    if x < 0:
        return False
    return (reachable_mask(gens, x) >> x) & 1 == 1


def brute_frobenius(gens):
    """Largest non-representable integer, from an explicit reachability scan.

    Grows the scan window until the top of the mask ends in a representable
    run of length >= min(gens); past such a run every larger integer is
    reachable by adding multiples of min(gens), so the scan is conclusive.
    """
    gens = sorted(set(gens))
    assert gens[0] >= 2 and math.gcd(*gens) == 1
    bound = gens[0] * gens[-1]
    while True:
        mask = (1 << (bound + 1)) - 1
        gaps = ~reachable_mask(gens, bound) & mask
        if gaps == 0:
            return -1
        g = gaps.bit_length() - 1
        if bound - g >= gens[0]:
            return g
        bound *= 2


def loop_pair_representation(target, x, y):
    """(u, v) with u*x + v*y = target, u, v >= 0, largest v; or None.

    Tries every v from target // y down, the way the library once did.
    """
    if target < 0:
        return None
    for v in range(target // y, -1, -1):
        rem = target - v * y
        if rem % x == 0:
            return (rem // x, v)
    return None


def walk_back_representation(a, gens):
    """Coefficients of a over ascending gens, greatest read from the top; or None.

    For each generator from the largest down, tries every coefficient
    from a // s down until the remainder is representable over the
    smaller generators, the way the library once did; representability
    comes from reachability masks.
    """
    masks = [reachable_mask(gens[:i], max(a, 0)) for i in range(1, len(gens) + 1)]
    if a < 0 or not (masks[-1] >> a) & 1:
        return None
    coeffs = [0] * len(gens)
    rem = a
    for i in range(len(gens) - 1, 0, -1):
        s = gens[i]
        for c in range(rem // s, -1, -1):
            if (masks[i - 1] >> (rem - c * s)) & 1:
                coeffs[i] = c
                rem -= c * s
                break
    coeffs[0] = rem // gens[0]
    return tuple(coeffs)


def pairwise_verify_full(t):
    """verify_full's report fields, from an O(m^2) scan of Placement objects.

    The first placement leaving the box, else the lexicographically first
    pair of placements overlapping on every axis, else a volume mismatch.
    """
    bounds = []
    for p in t.placements:
        sides = t.bricks[p.brick_index].sides
        hi = tuple(o + sides[a] for o, a in zip(p.origin, p.orientation))
        bounds.append((p.origin, hi))
    for i, (lo, hi) in enumerate(bounds):
        if min(lo) < 0 or any(h > s for h, s in zip(hi, t.box.sides)):
            return {"valid": False, "reason": "placement_out_of_bounds", "placement_index": i}
    for i, (a_lo, a_hi) in enumerate(bounds):
        for j in range(i + 1, len(bounds)):
            b_lo, b_hi = bounds[j]
            if all(al < bh and bl < ah for al, ah, bl, bh in zip(a_lo, a_hi, b_lo, b_hi)):
                return {"valid": False, "reason": "overlap", "overlap_pair": (i, j)}
    actual = sum(math.prod(t.bricks[p.brick_index].sides) for p in t.placements)
    expected = math.prod(t.box.sides)
    if actual != expected:
        return {
            "valid": False,
            "reason": "volume_mismatch",
            "expected_volume": expected,
            "actual_volume": actual,
        }
    return {"valid": True}


class _Limit(Exception):
    pass


class _Solved(Exception):
    pass


def _bitmask_shapes(box_sides, brick_sides, policy):
    """(brick_index, perm, extents, base_mask) per distinct oriented shape,
    in declared brick order, then permutation order."""
    n = len(box_sides)
    strides = [1] * n
    for k in range(n - 2, -1, -1):
        strides[k] = strides[k + 1] * box_sides[k + 1]
    perms = (tuple(range(n)),) if policy == "fixed" else tuple(permutations(range(n)))
    shapes = []
    for bi, sides in enumerate(brick_sides):
        seen = set()
        for perm in perms:
            ext = tuple(sides[a] for a in perm)
            if ext in seen:
                continue
            seen.add(ext)
            if any(e > s for e, s in zip(ext, box_sides)):
                continue
            mask = 0
            for cell in product(*[range(e) for e in ext]):
                mask |= 1 << sum(c * st for c, st in zip(cell, strides))
            shapes.append((bi, perm, ext, mask))
    return shapes, strides


def _bitmask_dfs(box_sides, shapes, strides, node_limit):
    """The library's earlier search engine: recursive DFS over occupancy
    bitmasks, with a row-run prune and a failed-state memo.

    Returns (status, placements or None, nodes); placements are
    (brick_index, perm, origin) triples.
    """
    full = (1 << math.prod(box_sides)) - 1
    s_last = box_sides[-1]
    min_last = min(ext[-1] for _, _, ext, _ in shapes)
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
            raise _Limit
        if occ == full:
            raise _Solved
        if occ in failed:
            return
        inv = ~occ & full
        idx = (inv & -inv).bit_length() - 1
        coords = coords_of(idx)
        for bi, perm, ext, base in shapes:
            if any(c + e > s for c, e, s in zip(coords, ext, box_sides)):
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
        failed.add(occ)

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * math.prod(box_sides) + 100))
    try:
        dfs(0)
        return ("infeasible", None, nodes)
    except _Solved:
        return ("found", list(placed), nodes)
    except _Limit:
        return ("exhausted", None, nodes)
    finally:
        sys.setrecursionlimit(old_limit)


def bitmask_search(box_sides, brick_sides, policy, node_limit=10**7):
    """(status, placements, nodes) from the earlier bitmask engine."""
    if not brute_representable(math.prod(box_sides), [math.prod(s) for s in brick_sides]):
        return ("infeasible", None, 0)
    shapes, strides = _bitmask_shapes(box_sides, brick_sides, policy)
    if not shapes:
        return ("infeasible", None, 0)
    return _bitmask_dfs(box_sides, shapes, strides, node_limit)

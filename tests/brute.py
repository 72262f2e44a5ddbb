"""Brute-force oracles shared by the test suite.

Deliberately independent of the library's algorithms: representability
here is computed by closing a reachability bitmask under generator
shifts (bit i set <=> i is a nonnegative combination), never by residue
walks.  Doubling the shift closes the mask under one generator in
O(log bound) big-int operations.  Tilings are checked pair by pair over
Placement objects, never through the library's raster.
"""

import math


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

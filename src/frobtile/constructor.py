"""Constructive tiling of large boxes by n+1 bricks in dimension n.

Given n+1 bricks with all sides >= 2, define for each axis k and each
(k+1)-subset of bricks the generator set

    X_k(i_1, ..., i_{k+1}) = { prod of the chosen bricks' k-th sides,
                               divided by one of them }

(the products-over-one).  The system is *admissible* when every such
set has gcd 1, that is, when each axis's n+1 sides are pairwise
coprime.  Writing g_n for the largest Frobenius number over all X_k
sets (each in closed form, semigroup.quotient_frobenius), every box
whose sides all exceed g_n can be tiled, and the proof is an algorithm:

  * dimension 1: represent the side over the two brick lengths and lay
    the segments, shortest first;
  * dimension m: for each brick j, tile the (m-1)-dim box with the
    other m bricks (recursively), and lift that tiling to a slab of
    height h_j = prod of the other bricks' m-th sides; represent the
    m-th side as sum w_j * h_j and stack w_j copies of each slab.

The representability of every side is exactly what the g_n bound
guarantees.  A grid block of the (m-1)-dim tiling, lifted through a
run of w_j equal slabs, is still one grid of a single brick, so the
recursion returns grid blocks, never placements: a box is at most
(n+1)! blocks, built into one tiling by a single grid_blocks call.
Block lists are this small, so no sub-result is memoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import (
    BoundNotMetError,
    DimensionMismatchError,
    NotAdmissibleError,
    PreconditionError,
)
from .model import BoxShape, Brick, Tiling, grid_blocks, identity_orientation
from .semigroup import GeneratorSet, checked_prod, quotient_frobenius, represent


@dataclass(frozen=True)
class BrickSystem:
    """n+1 bricks in dimension n, every side >= 2."""

    n: int
    bricks: tuple[Brick, ...]

    def __init__(self, bricks: Iterable[Brick]):
        bricks = tuple(bricks)
        if not bricks:
            raise PreconditionError("a brick system needs at least one brick")
        n = bricks[0].dimension
        if len(bricks) != n + 1:
            raise PreconditionError(
                f"dimension {n} needs exactly {n + 1} bricks, got {len(bricks)}"
            )
        for i, b in enumerate(bricks):
            if b.dimension != n:
                raise DimensionMismatchError(
                    f"brick {i} has dimension {b.dimension}, expected {n}"
                )
            if any(s < 2 for s in b.sides):
                raise PreconditionError(f"brick {i} has a side < 2: {b.sides}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bricks", bricks)


@dataclass(frozen=True)
class AdmissibilityReport:
    valid: bool
    axis: Optional[int] = None                  # 1-based axis k of the first failure
    subset: Optional[tuple[int, ...]] = None    # 0-based brick indices
    gcd: Optional[int] = None

    def __str__(self) -> str:
        if self.valid:
            return "Admissible"
        return f"NotAdmissible(axis={self.axis}, bricks={self.subset}, gcd={self.gcd})"


def xk_generators(sys: BrickSystem, k: int, subset: Sequence[int]) -> GeneratorSet:
    """Products-over-one of the k-th-axis sides of a (k+1)-subset.

    k is 1-based (axis k of the mathematical statement = model axis
    k-1); brick indices are 0-based.
    """
    if not 1 <= k <= sys.n:
        raise PreconditionError(f"axis k must be in 1..{sys.n}, got {k}")
    subset = tuple(subset)
    if len(set(subset)) != k + 1:
        raise PreconditionError(f"need a ({k + 1})-subset of distinct bricks, got {subset}")
    for i in subset:
        if not 0 <= i < len(sys.bricks):
            raise PreconditionError(f"brick index {i} out of range")
    sides = [sys.bricks[i].sides[k - 1] for i in subset]
    total = checked_prod(sides)
    return GeneratorSet(total // s for s in sides)


def check_admissible(sys: BrickSystem) -> AdmissibilityReport:
    """First (axis, subset) whose products-over-one share a factor, if any."""
    for k in range(1, sys.n + 1):
        for subset in combinations(range(sys.n + 1), k + 1):
            gens = xk_generators(sys, k, subset)
            g = math.gcd(*gens.generators) if len(gens) > 1 else gens.generators[0]
            if g != 1:
                return AdmissibilityReport(valid=False, axis=k, subset=subset, gcd=g)
    return AdmissibilityReport(valid=True)


def gn_bound(sys: BrickSystem) -> int:
    """Largest Frobenius number over every axis's products-over-one sets."""
    report = check_admissible(sys)
    if not report.valid:
        raise NotAdmissibleError(str(report))
    return _largest_frobenius(sys)


def _largest_frobenius(sys: BrickSystem) -> int:
    """gn_bound without check_admissible (whose products of sides must fit in
    int64), for sides known pairwise coprime along each axis, so that each
    X_k set's Frobenius number is in closed form."""
    return max(
        quotient_frobenius([b.sides[k - 1] for b in bricks])
        for k in range(1, sys.n + 1)
        for bricks in combinations(sys.bricks, k + 1)
    )


def _xk_sets(sys: BrickSystem) -> dict[tuple[int, tuple[int, ...]], GeneratorSet]:
    """Every X_k set, keyed by (k, subset), so each builds its tables once."""
    return {
        (k, subset): xk_generators(sys, k, subset)
        for k in range(1, sys.n + 1)
        for subset in combinations(range(sys.n + 1), k + 1)
    }


def _blocks(sys: BrickSystem, sides: tuple[int, ...], brick_ids: tuple[int, ...], sets) -> list:
    """Grid blocks (brick id, corner, sides) tiling the box by brick_ids.

    Along the last of the box's m axes each brick gives a run of w equal
    pieces of length h: its own segments when m = 1, shortest first, and
    when m > 1 slabs of height h tiled by the other bricks, in brick
    order.
    """
    m = len(sides)
    # brick_ids is ascending, so it is the subset of an X_m set, and the
    # lengths (m = 1) or heights (m > 1) along the last axis are X_m
    gens = sets[(m, brick_ids)]
    rep = represent(sides[m - 1], gens)
    assert rep is not None, (sides, brick_ids)
    weight = dict(zip(gens.generators, rep.coefficients))
    axis_sides = [sys.bricks[b].sides[m - 1] for b in brick_ids]
    if m == 1:
        runs = sorted(zip(axis_sides, brick_ids))
    else:
        total = checked_prod(axis_sides)
        runs = [(total // side, b) for side, b in zip(axis_sides, brick_ids)]
    blocks, at = [], 0
    for h, b in runs:
        w = weight[h]
        if w == 0:
            continue
        if m == 1:
            sub = [(b, (), ())]  # the segment itself, with no lower axes
        else:
            sub = _blocks(sys, sides[:-1], tuple(i for i in brick_ids if i != b), sets)
        for i, corner, block_sides in sub:
            blocks.append((i, corner + (at,), block_sides + (w * h,)))
        at += w * h
    return blocks


def construct_box(box: BoxShape, sys: BrickSystem) -> Tiling:
    """A valid fixed-orientation tiling of any box with all sides > g_n."""
    report = check_admissible(sys)
    if not report.valid:
        raise NotAdmissibleError(str(report))
    if box.dimension != sys.n:
        raise DimensionMismatchError(
            f"box dimension {box.dimension} != system dimension {sys.n}"
        )
    bound = gn_bound(sys)
    for axis, side in enumerate(box.sides):
        if side <= bound:
            raise BoundNotMetError(axis=axis, required=bound + 1, got=side)
    n = sys.n
    sets = _xk_sets(sys)
    blocks = [
        (index, identity_orientation(n), corner, sides)
        for index, corner, sides in _blocks(sys, box.sides, tuple(range(n + 1)), sets)
    ]
    return grid_blocks(box.sides, sys.bricks, blocks)

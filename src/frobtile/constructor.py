"""Constructive tiling of large boxes by n+1 bricks in dimension n.

Given n+1 bricks with all sides >= 2, define for each axis k and each
(k+1)-subset of bricks the generator set

    X_k(i_1, ..., i_{k+1}) = { prod of the chosen bricks' k-th sides,
                               divided by one of them }

(the products-over-one).  The system is *admissible* when every such
set has gcd 1.  Writing g_n for the largest Frobenius number over all
X_k sets, every box whose sides all exceed g_n can be tiled, and the
proof is an algorithm:

  * dimension 1: represent the side over the two brick lengths and lay
    segments;
  * dimension m: for each brick j, tile the (m-1)-dim box with the
    other m bricks (recursively), extrude that tiling to height
    h_j = prod of the other bricks' m-th sides, giving a slab; represent
    the m-th side as sum w_j * h_j and stack w_j copies of each slab.

The representability of every side is exactly what the g_n bound
guarantees.  Sub-tilings are memoized by (box sides, brick subset)
since each slab reuses the same (m-1)-dimensional solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BoundNotMetError,
    DimensionMismatchError,
    NotAdmissibleError,
    PreconditionError,
)
from .model import BoxShape, Brick, Tiling, extrude, remap_bricks, stack
from .semigroup import GeneratorSet, checked_prod, frobenius_general, represent


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
    return max(frobenius_general(S) for S in _xk_sets(sys).values())


def _xk_sets(sys: BrickSystem) -> dict[tuple[int, tuple[int, ...]], GeneratorSet]:
    """Every X_k set, keyed by (k, subset), so each builds its tables once."""
    return {
        (k, subset): xk_generators(sys, k, subset)
        for k in range(1, sys.n + 1)
        for subset in combinations(range(sys.n + 1), k + 1)
    }


def _construct(sys: BrickSystem, sides: tuple[int, ...], brick_ids: tuple[int, ...], sets, memo) -> Tiling:
    hit = memo.get((sides, brick_ids))
    if hit is not None:
        return hit
    m = len(sides)
    proj = tuple(Brick(sys.bricks[b].sides[:m]) for b in brick_ids)
    # brick_ids is ascending, so it is the subset of an X_m set, and the
    # lengths (m = 1) or heights (m > 1) along the last axis are X_m
    gens = sets[(m, brick_ids)]
    rep = represent(sides[m - 1], gens)
    assert rep is not None, (sides, brick_ids)
    if m == 1:
        by_length = {p.sides[0]: pos for pos, p in enumerate(proj)}
        lengths = np.repeat(gens.generators, rep.coefficients)
        index = np.repeat([by_length[length] for length in gens.generators], rep.coefficients)
        origin = (np.cumsum(lengths) - lengths).reshape(-1, 1)
        t = Tiling.from_arrays(BoxShape(sides), proj, index, np.zeros_like(origin), origin)
    else:
        axis_sides = [sys.bricks[b].sides[m - 1] for b in brick_ids]
        total = checked_prod(axis_sides)
        heights = [total // s for s in axis_sides]
        weight = dict(zip(gens.generators, rep.coefficients))
        slabs = []
        for pos, b in enumerate(brick_ids):
            w = weight[heights[pos]]
            if w == 0:
                continue
            sub_ids = brick_ids[:pos] + brick_ids[pos + 1:]
            sub = _construct(sys, sides[:-1], sub_ids, sets, memo)
            slab = extrude(
                sub,
                [Brick(sys.bricks[i].sides[:m]) for i in sub_ids],
                heights[pos],
            )
            slab = remap_bricks(slab, proj, [brick_ids.index(i) for i in sub_ids])
            slabs.extend([slab] * w)
        t = stack(slabs, axis=m - 1)
    memo[(sides, brick_ids)] = t
    return t


def construct_box(box: BoxShape, sys: BrickSystem) -> Tiling:
    """A valid fixed-orientation tiling of any box with all sides > g_n."""
    report = check_admissible(sys)
    if not report.valid:
        raise NotAdmissibleError(str(report))
    if box.dimension != sys.n:
        raise DimensionMismatchError(
            f"box dimension {box.dimension} != system dimension {sys.n}"
        )
    # gn_bound without its second admissibility check; it comes after the
    # dimension check because it can build a table as large as a generator
    sets = _xk_sets(sys)
    bound = max(frobenius_general(S) for S in sets.values())
    for axis, side in enumerate(box.sides):
        if side <= bound:
            raise BoundNotMetError(axis=axis, required=bound + 1, got=side)
    return _construct(sys, box.sides, tuple(range(sys.n + 1)), sets, {})

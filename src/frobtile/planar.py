"""Two-dimensional tiling criteria and square-brick constructions.

Deciders return a Decision: a verdict, an optional witness tiling, and
a short tag naming the branch that settled the question.  Witnesses
come from the cheapest applicable construction: a plain grid when
divisibility settles it, strip decompositions when one side has to be
split as a nonnegative combination of brick sides, block compositions
for large squares, and pinwheels (a square ringed by four rectangles)
for the squares between them.  Each construction is a list of grid
blocks, (brick index, orientation, corner, sides), and a witness is
one model.grid_blocks call over its list.  Nothing here runs the
exact-cover search.

Two bricks, each in a fixed orientation, tile a box exactly when one
cut across one axis leaves a plain grid of each, either grid possibly
empty (Bower and Michael, "When can you tile a box with translates of
two given rectangles?", Amer. Math. Monthly, 2004).  two_brick_blocks
is that test, in any dimension; one brick with rotations is the pair of
it unrotated and rotated.  The popular one-line phrasing ("each brick
side divides some box side, and ...") admits false positives such as a
(2 x 3) box against a (2 x 2) brick.

Dissection tiles boxes of any dimension the way the paper's proofs do,
from those pieces: guillotine cuts on every axis and, in 2-D, pinwheels
(one brick ringed by four rectangles, whose layout _pinwheel gives and
tile_square_235p uses too) down to boxes that two_brick_blocks tiles.
One object serves one brick list and policy, owns its memo, and refuses
at once the boxes that provably have no tiling; threshold_scan keeps
one per scan and searches only the sides it leaves.  It is sound but
not complete: it settles 13 x 13 over squares {2, 3, 5} (a 6-row strip,
then a 3-square ringed), but not 32 x 32 over {3, 5, 7}, which tiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .constructor import BrickSystem, construct_box, gn_bound
from .errors import NonCoprimeError, PreconditionError
from .model import (
    ROTATION_AXIS_PERMUTATIONS,
    ROTATION_FIXED,
    BoxShape,
    Brick,
    Tiling,
    grid_blocks,
    oriented_shapes,
)
from .semigroup import (
    checked_add,
    checked_mul,
    checked_prod,
    closed_form_primes,
    pair_representation,
    sums_mask,
)


@dataclass(frozen=True)
class Decision:
    """Verdict for one tiling question, with a witness when positive."""

    tileable: bool
    witness: Optional[Tiling]
    reason: str

    def __post_init__(self):
        if self.witness is not None and not self.tileable:
            raise PreconditionError("only a positive decision can carry a witness")

    def __str__(self) -> str:
        verdict = "tileable" if self.tileable else "not tileable"
        return f"{verdict} ({self.reason})"


def _require_positive(**named: int) -> None:
    for name, value in named.items():
        if value < 1:
            raise PreconditionError(f"{name} must be >= 1, got {value}")


def _strips(
    corner: tuple[int, ...],
    sides: tuple[int, ...],
    bricks: tuple[Brick, ...],
    axis: int,
    parts: Sequence[tuple[int, tuple[int, ...], int]],
) -> list:
    """Grid blocks splitting the box of these sides at corner along one
    axis into full-width strips.

    parts lists (brick index, orientation, strip count); each strip is
    as thick as the oriented brick along the split axis, so the counts
    must make the thicknesses sum to the box side.  A part's strips
    together are one block.
    """
    blocks, at = [], list(corner)
    for index, orientation, count in parts:
        if count:
            block = list(sides)
            block[axis] = count * bricks[index].sides[orientation[axis]]
            blocks.append((index, orientation, tuple(at), tuple(block)))
            at[axis] += block[axis]
    return blocks


def _divides(sides: tuple[int, ...], extents: list, skip: int = -1) -> bool:
    """Does each extent divide its side, the side along axis skip aside?"""
    for k in range(len(sides)):
        if k != skip and sides[k] % extents[k]:
            return False
    return True


def two_brick_blocks(
    corner: tuple[int, ...],
    sides: tuple[int, ...],
    bricks: tuple[Brick, ...],
    tiles: Sequence[tuple[int, tuple[int, ...]]],
) -> Optional[list]:
    """Grid blocks tiling the box of these sides at corner by two tiles,
    each a (brick index, orientation); or None when they cannot.

    A tile that grids the box gives one block: the grid of fewer
    placements, the later tile on a tie.  Else the lowest axis along
    which both tiles divide every other side, and the side is u*s + v*t
    for their thicknesses s and t, is cut into two blocks.  The tile
    with the lower-numbered side of its brick along the axis comes first
    (given order on a tie), and the other's count v is the largest.
    """
    (i, o), (j, q) = tiles
    e = [bricks[i].sides[a] for a in o]
    f = [bricks[j].sides[a] for a in q]
    grid_i, grid_j = _divides(sides, e), _divides(sides, f)
    if grid_j and (not grid_i or bricks[j].volume >= bricks[i].volume):
        return [(j, q, corner, sides)]
    if grid_i:
        return [(i, o, corner, sides)]
    for axis in range(len(sides)):
        if _divides(sides, e, axis) and _divides(sides, f, axis):
            first, other = (tiles[0], e), (tiles[1], f)
            if q[axis] < o[axis]:
                first, other = other, first
            rep = pair_representation(sides[axis], first[1][axis], other[1][axis])
            if rep is not None:
                parts = [(*first[0], rep[0]), (*other[0], rep[1])]
                return _strips(corner, sides, bricks, axis, parts)
    return None


def _tiled(box: tuple[int, int], bricks: tuple[Brick, ...], tiles, policy: str) -> Decision:
    """The two-brick decision for a rectangle, tagged by the blocks' shape."""
    blocks = two_brick_blocks((0, 0), box, bricks, tiles)
    if blocks is None:
        return Decision(False, None, "indivisible")
    reason = "strips" if len(blocks) == 2 else "grid" if blocks[0][1] == (0, 1) else "rotated-grid"
    return Decision(True, grid_blocks(box, bricks, blocks, policy), reason)


def decide_single_brick(a1: int, a2: int, x1: int, x2: int) -> Decision:
    """Decide whether (a1 x a2) can be tiled by copies of (x1 x x2).

    Rotations are allowed: two_brick_blocks over the brick rotated and
    unrotated, so an unrotated grid wins over a rotated one ("grid",
    "rotated-grid"), and a cut gives "strips".
    """
    _require_positive(a1=a1, a2=a2, x1=x1, x2=x2)
    tiles = ((0, (1, 0)), (0, (0, 1)))
    return _tiled((a1, a2), (Brick((x1, x2)),), tiles, ROTATION_AXIS_PERMUTATIONS)


def decide_two_squares(a1: int, a2: int, x: int, y: int) -> Decision:
    """Decide whether (a1 x a2) can be tiled by squares (x x x), (y x y).

    Requires gcd(x, y) = 1.  The verdict is two_brick_blocks over the
    two squares; the witness is a grid of one square, the larger (y on
    a tie) ("grid"), or strips of both ("strips").
    """
    _require_positive(a1=a1, a2=a2, x=x, y=y)
    g = math.gcd(x, y)
    if g != 1:
        raise NonCoprimeError(f"square sides must be coprime, gcd({x}, {y}) = {g}")
    tiles = ((0, (0, 1)), (1, (0, 1)))
    return _tiled((a1, a2), (Brick((x, x)), Brick((y, y))), tiles, ROTATION_FIXED)


def _corollary1_system(p: int, q: int, r: int, s: int) -> BrickSystem:
    """The bricks (p x q), (r x s), (s x r), once the parameters are valid."""
    for name, value in (("p", p), ("q", q), ("r", r), ("s", s)):
        if value < 2:
            raise PreconditionError(f"{name} must be >= 2, got {value}")
    if r >= s:
        raise PreconditionError(f"r < s required, got r={r}, s={s}")
    triple = math.gcd(q * s, q * r, r * s)
    if triple != 1:
        raise PreconditionError(
            f"gcd(qs, qr, rs) must be 1, got gcd({q * s}, {q * r}, {r * s}) = {triple}"
        )
    for lname, rname, left, right in (("p", "r", p, r), ("p", "s", p, s), ("r", "s", r, s)):
        g = math.gcd(left, right)
        if g != 1:
            raise PreconditionError(f"gcd({lname}, {rname}) must be 1, got {g}")
    return BrickSystem((Brick((p, q)), Brick((r, s)), Brick((s, r))))


def corollary1_threshold(p: int, q: int, r: int, s: int) -> int:
    """Side bound for tiling rectangles with (p x q), (r x s), (s x r).

    Every rectangle whose sides both reach the returned value is
    tileable by the three bricks.  The value is 1 plus g_n of the three
    bricks: the largest of the pairwise Frobenius numbers g(p,r), g(p,s),
    g(r,s) and the Frobenius number 2qrs - (qr + qs + rs) of {qr, qs, rs},
    each axis's sides being pairwise coprime; 2qrs and the value itself
    must fit in int64.
    """
    system = _corollary1_system(p, q, r, s)
    checked_mul(2, checked_prod((q, r, s)))
    return checked_add(gn_bound(system), 1)


def corollary1_construct(a1: int, a2: int, p: int, q: int, r: int, s: int) -> Tiling:
    """Tile (a1 x a2) with bricks (p x q), (r x s) and (s x r).

    Both box sides must be at least corollary1_threshold(p, q, r, s).
    """
    return construct_box(BoxShape((a1, a2)), _corollary1_system(p, q, r, s))


def prime_cubes_bound(primes: Sequence[int]) -> int:
    """Side bound for tiling an n-cube with n+1 prime hypercube bricks.

    For ascending distinct primes p_1 < ... < p_{n+1}, any hypercube
    side strictly above the bound admits a construction; the bound is
    the largest Frobenius number arising from the system, reached at
    the full products-over-one set.
    """
    return closed_form_primes(primes)


def prime_cubes_construct(a: int, primes: Sequence[int]) -> Tiling:
    """Tile the n-cube of side a with hypercubes of the n+1 given primes."""
    prime_cubes_bound(primes)  # validates the primes; construct_box checks a against it
    n = len(primes) - 1
    system = BrickSystem(tuple(Brick((prime,) * n) for prime in primes))
    return construct_box(BoxShape((a,) * n), system)


def _composed_square(
    bricks: tuple[Brick, ...], u: int, v: int, u_index: int, strip_index: int
) -> Tiling:
    """Square of side u + v as a 2x2 block layout of squares (a, b, c).

    Diagonal blocks [u x u] and [v x v] are grids of brick u_index and
    of the a-square; the off-diagonal [u x v] and [v x u] blocks are
    strips of the a-square and brick strip_index, splitting the u
    extent.  u must be a nonnegative combination of those two sides, and
    both must divide v.
    """
    ident = (0, 1)
    counts = pair_representation(u, bricks[0].sides[0], bricks[strip_index].sides[0])
    parts = [(0, ident, counts[0]), (strip_index, ident, counts[1])]
    blocks = [
        (u_index, ident, (0, 0), (u, u)),
        *_strips((0, u), (u, v), bricks, 0, parts),
        *_strips((u, 0), (v, u), bricks, 1, parts),
        (0, ident, (u, u), (v, v)),
    ]
    return grid_blocks((u + v, u + v), bricks, blocks, ROTATION_FIXED)


def compose_squares(a: int, b: int, c: int, r: int, L: int, k: int) -> tuple[Tiling, Tiling]:
    """Build two square tilings from squares (a x a), (b x b), (c x c).

    The first square has side r + a*c and needs b | r with r a
    nonnegative combination of a and c; the second has side L*c + k*a*b
    and needs L*c a nonnegative combination of a and b.  Each square is
    a 2x2 block layout of two grid blocks and two strip blocks.
    """
    _require_positive(a=a, b=b, c=c, r=r, L=L, k=k)
    if r % b != 0:
        raise PreconditionError(f"b must divide r, got b={b}, r={r}")
    if pair_representation(r, a, c) is None:
        raise PreconditionError(f"r={r} is not representable over {{{a}, {c}}}")
    lc = checked_mul(L, c)
    if pair_representation(lc, a, b) is None:
        raise PreconditionError(f"L*c={lc} is not representable over {{{a}, {b}}}")
    bricks = (Brick((a, a)), Brick((b, b)), Brick((c, c)))
    first = _composed_square(bricks, r, checked_mul(a, c), u_index=1, strip_index=2)
    second = _composed_square(bricks, lc, checked_prod((k, a, b)), u_index=2, strip_index=1)
    return first, second


def _pinwheel(
    corner: tuple[int, int], box: tuple[int, int], at: tuple[int, int], centre: tuple[int, int]
) -> list:
    """The four ring rectangles, each (corner, sides), of a pinwheel: the
    box at corner with a centre brick of these sides at `at` within it.

    Relative to corner, with the centre c0 x c1 at (y, x) in the H x W
    box, they are top [0, y) x [0, x+c1), right [0, y+c0) x [x+c1, W),
    bottom [y+c0, H) x [x, W) and left [y, H) x [0, x).
    """
    (i, j), (H, W), (y, x), (c0, c1) = corner, box, at, centre
    return [
        ((i, j), (y, x + c1)),
        ((i, j + x + c1), (y + c0, W - x - c1)),
        ((i + y + c0, j + x), (H - y - c0, W - x)),
        ((i + y, j), (H - y, x)),
    ]


def _ringed_square(
    corner: tuple[int, int],
    box: tuple[int, int],
    at: tuple[int, int],
    index: int,
    bricks: tuple[Brick, ...],
) -> list:
    """Grid blocks of a 2/3/p pinwheel: brick index's square at `at`,
    each ring rectangle the 2- and 3-squares' two_brick_blocks, or a grid
    of the third square when those two cannot tile it."""
    tiles = ((0, (0, 1)), (1, (0, 1)))
    centre = bricks[index].sides
    blocks = [(index, (0, 1), (corner[0] + at[0], corner[1] + at[1]), centre)]
    for ring, sides in _pinwheel(corner, box, at, centre):
        blocks += two_brick_blocks(ring, sides, bricks, tiles) or [(2, (0, 1), ring, sides)]
    return blocks


class Dissection:
    """Tilings of boxes by dissection, over one brick list and policy.

    tiles is model.oriented_shapes' list, which the exact-cover search
    reads too: each distinct oriented brick once, as (brick index,
    orientation, extents).  A box is settled, in this order of trial,
    when two_brick_blocks tiles it over some pair of tiles (a lone tile
    pairs with itself), when a guillotine cut leaves two settled boxes,
    or, in 2-D, when a tile at some (y, x) leaves four settled ring
    rectangles (a pinwheel).  Each part is smaller than its box, and the
    recursion runs on an explicit stack.  Boxes and bricks share one
    dimension, any dimension.

    Two refusals are proofs and cost no dissection: a side that is no
    sum of the tiles' extents along its axis (every line across a tiled
    box crosses whole tiles), and, with at most two tiles, a box the pair
    does not tile (Bower and Michael).  Any other False is no proof: some
    tileable boxes have no dissection, and the exact-cover search judges
    them.

    memo maps each box tried to how it was settled, or False, for the
    object's lifetime; blocks are built from it for the asked box alone.
    """

    def __init__(self, bricks: Sequence[Brick], policy: str = ROTATION_FIXED):
        bricks = tuple(bricks)
        if len({b.dimension for b in bricks}) != 1:
            raise PreconditionError("need at least one brick, all of one dimension")
        self.dimension = n = bricks[0].dimension
        self.bricks, self.memo, self.corner = bricks, {}, (0,) * n
        self.tiles = oriented_shapes([b.sides for b in bricks], policy)
        shapes = [tile[:2] for tile in self.tiles]
        self.pairs = list(combinations(shapes, 2)) or [(shapes[0], shapes[0])]
        self.axis_extents = [sorted({tile[2][k] for tile in self.tiles}) for k in range(n)]
        self.least = tuple(extents[0] for extents in self.axis_extents)
        self.bound, self.sums = 0, [0] * n

    def dissections(self, box: tuple[int, ...]):
        """Each guillotine cut and, in 2-D, pinwheel of the box, as (how,
        parts): cuts on axis 0, 1, ... in turn, nearest the low edge first,
        then each tile as the centre at each (y, x) in row-major order.
        No part is narrower than the least extent on its axis, which no
        tiling has; a pinwheel with an empty ring is a guillotine cut.
        Turning the box by 180 degrees maps the pinwheel at (y, x) to one
        with the same rings at (h - c0 - y, w - c1 - x), so y stops at the
        middle.
        """
        least = self.least
        for axis, side in enumerate(box):
            head, tail = box[:axis], box[axis + 1:]
            for at in range(least[axis], side // 2 + 1):
                yield ("cut", axis, at), (head + (at,) + tail, head + (side - at,) + tail)
        if len(box) == 2:
            h, w = box
            for index, orientation, extents in self.tiles:
                for y in range(least[0], (h - extents[0]) // 2 + 1):
                    for x in range(least[1], w - extents[1] - least[1] + 1):
                        rings = _pinwheel((0, 0), box, (y, x), extents)
                        yield ("pinwheel", (index, orientation), y, x), [s for _, s in rings]

    def settle(self, box: tuple[int, ...]):
        """A generator settling the box: it yields each part it needs that
        the memo lacks, is sent back how that part was settled, and
        returns how the box was, or False."""
        for sums, side in zip(self.sums, box):
            if not sums >> side & 1:
                return False
        for pair in self.pairs:
            if two_brick_blocks(self.corner, box, self.bricks, pair) is not None:
                return ("tiles", pair)
        if len(self.tiles) <= 2:
            return False
        for how, parts in self.dissections(box):
            for part in parts:
                settled = self.memo.get(part)
                if settled is None:
                    settled = yield part
                if not settled:
                    break
            else:
                return how
        return False

    def settled(self, box: Sequence[int]):
        """How the box is settled, or False, with no blocks built: a record
        ("tiles", pair), ("cut", axis, at) or ("pinwheel", tile, y, x)."""
        box = tuple(box)
        if len(box) != self.dimension or min(box) < 1:
            raise PreconditionError(f"need a {self.dimension}-D box of positive sides, got {box}")
        memo = self.memo
        if box not in memo:
            if max(box) > self.bound:
                self.bound = max(box)
                self.sums = [sums_mask(extents, self.bound) for extents in self.axis_extents]
            stack, settled = [(box, self.settle(box))], None
            while stack:
                key, settling = stack[-1]
                try:
                    part = settling.send(settled)
                except StopIteration as done:
                    memo[key] = settled = done.value
                    stack.pop()
                else:
                    stack.append((part, self.settle(part)))
                    settled = None
        return memo[box]

    def blocks(self, box: Sequence[int]) -> Optional[list]:
        """Grid blocks tiling the box, for grid_blocks; or None when
        dissection settles no tiling."""
        box = tuple(box)
        if not self.settled(box):
            return None
        blocks, todo = [], [(self.corner, box)]
        while todo:
            corner, sides = todo.pop()
            kind, *how = self.memo[sides]
            if kind == "tiles":
                blocks += two_brick_blocks(corner, sides, self.bricks, how[0])
            elif kind == "cut":
                axis, at = how
                near, far, beyond = list(sides), list(sides), list(corner)
                near[axis], far[axis] = at, sides[axis] - at
                beyond[axis] += at
                todo += [(corner, tuple(near)), (tuple(beyond), tuple(far))]
            else:
                (index, orientation), y, x = how
                extents = tuple(self.bricks[index].sides[a] for a in orientation)
                blocks.append((index, orientation, (corner[0] + y, corner[1] + x), extents))
                todo += _pinwheel(corner, sides, (y, x), extents)
        return blocks


def tile_square_235p(a: int, p: int) -> Decision:
    """Decide whether the (a x a) square is tileable by squares 2, 3, p.

    p must be odd, above 4 and not divisible by 3 (primality is not
    required).  Every side is settled in closed form, for every such p;
    nothing searches.  Sides sharing a factor with 2, 3 or p get grids;
    sides congruent to p mod 3 get the side-(p + 6k) composition; sides
    in the other nonzero class get the side-(r + 2p) composition once
    r = a - 2p reaches p; sides below p admit no brick but 2 and 3 and
    fail their divisibility criterion.

    That leaves the window p < a < 3p with a = -p (mod 6).  Let
    u = (a - p) / 2.  A side a >= p + 10 (the least is p + 10 when
    p = 1 (mod 6), p + 14 when p = 5 (mod 6)) is a "pinwheel": a
    p-square at (y, y), y = u for odd u and u - 3 for even u, ringed
    by four rectangles, each with one side divisible by 6 and the
    other a nonnegative combination of 2 and 3.  Side 13 at p = 5 is
    6 x 13 strips on the 7 x 13 pinwheel with a 3-square at (2, 5).

    Every other window side (p + 4 for p = 1 (mod 6); p + 2 and p + 8
    for p = 5 (mod 6); side 7 at p = 5) is not tileable, by the
    "weight-invariant" argument of de Bruijn, "Filling boxes with
    bricks" (Amer. Math. Monthly, 1969):

    - Since a < 2p, at most one p-square fits; with none, the 2- and
      3-squares fail the two-brick criterion, as 6 does not divide a.
    - Weight cell (i, j) by x^i y^j.  A 2-square's weights carry the
      factor (1 + x)(1 + y), a 3-square's (1 + x + x^2)(1 + y + y^2), so
      a region they tile weighs 0 at (x, y) = (-1, w) and at (w, -1),
      w a primitive cube root of unity.  Subtracting the p-square at
      (i, j) from the whole square, this forces i = j = 1 (mod 6) when
      a = 1 (mod 3) and i = j = 5 (mod 6) when a = 2 (mod 3).
    - Within 0 <= i, j <= a - p, which is 2, 4 or 8, such a coordinate
      can only be 1 or a - p - 1, and either leaves a strip 1 cell wide
      between the p-square and the box edge, which no brick can fill.
      No origin is left.
    """
    _require_positive(a=a, p=p)
    if p % 2 == 0 or p % 3 == 0 or p <= 4:
        raise PreconditionError(f"p must be odd, above 4 and not divisible by 3, got {p}")
    box = (a, a)
    bricks = (Brick((2, 2)), Brick((3, 3)), Brick((p, p)))
    for side, index in ((p, 2), (3, 1), (2, 0)):
        if a % side == 0:
            witness = grid_blocks(box, bricks, [(index, (0, 1), (0, 0), box)], ROTATION_FIXED)
            return Decision(True, witness, "grid")
    # a is now coprime to 6 and not a multiple of p
    if a < p:
        # only the 2- and 3-squares fit, and a is divisible by neither
        return Decision(False, None, "too-small")
    if a % 3 == p % 3:
        # a = p + 6k with k >= 1: compose_squares(2, 3, p, 6, 1, k)'s second square
        witness = _composed_square(bricks, p, a - p, u_index=2, strip_index=1)
        return Decision(True, witness, "composition")
    if a - 2 * p >= p:
        # r = a - 2p is odd, >= p (hence a combination of 2 and p) and 3 | r:
        # compose_squares(2, 3, p, r, 1, 1)'s first square
        witness = _composed_square(bricks, a - 2 * p, 2 * p, u_index=1, strip_index=2)
        return Decision(True, witness, "composition")
    # a = -p (mod 6) and p < a < 3p: the window the compositions leave
    if a >= p + 10:
        # odd u: four u x (u + p) rectangles; even u: the centre moves 3
        # up and left, so that each ring rectangle keeps a side 6 divides
        u = (a - p) // 2
        y = u if u % 2 else u - 3
        blocks = _ringed_square((0, 0), box, (y, y), 2, bricks)
        return Decision(True, grid_blocks(box, bricks, blocks, ROTATION_FIXED), "pinwheel")
    if (a, p) == (13, 5):
        # a >= 2p here, so two p-squares fit and the weight argument does not apply
        blocks = two_brick_blocks((0, 0), (6, 13), bricks, ((0, (0, 1)), (1, (0, 1))))
        blocks += _ringed_square((6, 0), (7, 13), (2, 5), 1, bricks)
        return Decision(True, grid_blocks(box, bricks, blocks, ROTATION_FIXED), "pinwheel")
    return Decision(False, None, "weight-invariant")

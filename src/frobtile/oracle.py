"""Exhaustive exact-cover search over small boxes: the ground truth.

The search always branches on the lexicographically first free cell:
any covering of that cell must be a brick whose origin IS that cell (an
origin strictly before it would cover an earlier, already-filled cell),
so trying every brick shape anchored there is complete.  Bricks are
tried in declared order, orientations in permutation order, which makes
the first solution found deterministic.  Each distinct oriented shape
is tried once (model.oriented_shapes), so a turned copy adds none.

State.  Call the cells that share their coordinates on axes 1..n-1 a
column, and flatten the cross-section of those axes lexicographically.
Every placement sits on cells whose axis-0 predecessors are filled
(they come earlier in lexicographic order), so the filled cells of each
column always form a prefix along axis 0.  The state is therefore the
vector of column heights, kept as a str of chr(height): one byte per
column below 256, and still exact up to the cell cap.  The first free
cell is the leftmost column of minimum height m, and a shape anchored
there fits exactly when its axis-0 extent is at most H - m (H the box's
axis-0 side) and every column under its footprint has height m: along
the last axis that is the min-height run from the branch cell, in n-D
the footprint's other rows are compared as well.

Prunes, each cutting only subtrees without a solution:

  * volume: the box volume must be a nonnegative integer combination of
    the brick volumes, else Infeasible before any node;
  * column: every column is filled bottom-up by bricks whose origin sits
    at its current height, so a placement that leaves H - height outside
    the numerical semigroup of the shapes' axis-0 extents is dead;
  * row-width: the cells of a min-height run at height m are covered by
    bricks with origin on that row and lying inside the run, so the run
    length must be a sum of last-axis extents of shapes that fit above m
    (axis-0 extent at most H - m, leaving a representable remainder).
    A placement is tested on the part of the run it leaves free, or,
    when it closes the run, on the new leftmost min-height run;
  * weight (de Bruijn, "Filling boxes with bricks", 1969; Barnes,
    "Algebraic theory of brick packing", 1982): the weight of a region
    at a point z = (z0..zn-1) is the sum of z^cell over its cells.  Each
    zk is 1 or a primitive p-th root of unity, p a prime dividing some
    shape's extent on axis k.  A shape vanishes at z when some zk != 1
    has p | ek, since its weight is z^origin times the product of
    1 + zk + ... + zk^(ek-1).  So a region tiled by vanishing shapes
    has weight 0.  Weights are exact: integer vectors in
    Z[x0..]/(Phi_p(xk)), Phi_p = 1 + x + ... + x^(p-1), one vector per
    point, all of them packed into one biased int (_Weights).  Testing
    the ring element for 0 tests every conjugate point at once.  The
    per-placement tables skip each point where the shape vanishes, since
    that term is exactly 0.
    - root: if every shape vanishes at some z and the box's weight there
      is not 0, the box is Infeasible before any node.
    - per node: the points kept have shapes that vanish and shapes that
      do not, every one of the latter taller along axis 0 than every
      vanishing one; t is the least axis-0 extent of a non-vanishing
      shape.  Placements sit at the minimum height, which never falls,
      so once H - m < t only vanishing shapes can still be placed and
      the remaining region's weight must be 0.  The weight is carried
      down the DFS, child = parent - the placed shape's weight, and is
      tested when a placement closes its run, the only way the minimum
      height can rise;
  * failed-state memo: height vectors proven unfillable are cached
    under min(heights, reversed heights).  Reversing the flattened
    cross-section reflects every trailing axis, a symmetry of the box
    that maps every axis-aligned brick shape to itself, so a state and
    its mirror are fillable together.  Past 2M states the oldest half
    is evicted; that costs repeated work, never soundness.

Every prune is a function of the height vector alone (the remaining
region) and cuts only subtrees holding no solution, so the memo and its
mirror key stay sound, the DFS meets the surviving subtrees in the same
order, and the first solution is the same with or without them.

The DFS runs on an explicit frame stack, so depth costs no recursion.
Infeasible is reported only after a complete search; hitting a node or
time limit yields Exhausted instead.  Every search starts from the empty
box.  Parallel mode runs that same search once per distinct shape that
fits the box, each in a worker process whose root frame tries that
shape alone, all under one deadline and with the node limit divided
evenly over the shapes; it builds the tiling once, from the first
solution in shape order, so a Found result matches the sequential
search whenever no limit truncates an earlier shape.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from itertools import islice, product
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceededError, PreconditionError, SearchLimitError
from .model import (
    ROTATION_AXIS_PERMUTATIONS,
    ROTATION_POLICIES,
    BoxShape,
    Brick,
    Tiling,
    oriented_shapes,
)
from .planar import Dissection
from .semigroup import sums_mask

DEFAULT_CELL_CAP = 4096          # max box volume in unit cells (64x64 in 2-D)
_MEMO_CAP = 2_000_000            # max failed states remembered per search
_WEIGHT_FIELDS = 64              # max packed weight coefficients per search

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
        if self.rotation_policy not in ROTATION_POLICIES:
            raise PreconditionError(f"unknown rotation policy {self.rotation_policy!r}")
        if self.node_limit < 1:
            raise PreconditionError(f"node_limit must be >= 1, got {self.node_limit}")
        if not self.time_limit > 0:
            raise PreconditionError(f"time_limit must be > 0, got {self.time_limit}")


@dataclass(frozen=True)
class SearchStats:
    """What one search cost.

    nodes counts states entered.  Parallel mode runs one worker per
    distinct shape that fits the box and sums their counts; each worker
    enters the root without counting it.  The prune counts and memo_hits
    count children cut before they were entered; volume_prunes is 1 when
    the volume precheck settled the box, weight_prunes 1 when the root
    weight test did.  memo_size is the number of failed states stored; a
    parallel worker that fails stores the root as well, so a parallel
    search without a solution reports up to one more per root shape.
    max_depth is the deepest frame stack (the largest worker's in
    parallel mode), elapsed_s the wall time of the call.
    """

    nodes: int = 0
    volume_prunes: int = 0
    column_prunes: int = 0
    row_width_prunes: int = 0
    weight_prunes: int = 0
    memo_hits: int = 0
    memo_size: int = 0
    max_depth: int = 0
    elapsed_s: float = 0.0


@dataclass(frozen=True)
class SearchResult:
    status: str                      # found | infeasible | exhausted
    tiling: Optional[Tiling] = None
    reason: Optional[str] = None     # node_limit | time_limit when exhausted
    stats: SearchStats = field(default_factory=SearchStats, compare=False)

    @property
    def nodes(self) -> int:
        return self.stats.nodes

    def __str__(self) -> str:
        if self.status == FOUND:
            return f"Found({len(self.tiling.brick_index)} placements, {self.nodes} nodes)"
        if self.status == INFEASIBLE:
            return f"Infeasible({self.nodes} nodes)"
        return f"Exhausted({self.reason}, {self.nodes} nodes)"


def _prime_factors(n):
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _axis_weights(e, q, shift, n):
    """For r < n, the sum of x^i over r <= i < r + e in Z[x]/(Phi_q(x)), packed.

    Coefficient i of the basis 1, x, ..., x^(q-2) goes to bit i * shift;
    x^(q-1) = -(1 + ... + x^(q-2)).  q = 1 stands for x = 1: the count e.
    """
    if q == 1:
        return [e] * n
    base = [(e - i + q - 1) // q for i in range(q)]    # of i in [0, e), by i mod q
    out = []
    for r in range(min(n, q)):
        count = base[-r:] + base[:-r] if r else base
        top = count[-1]
        out.append(sum((c - top) << (i * shift) for i, c in enumerate(count[:-1])))
    return [out[r % q] for r in range(n)]


class _Weights:
    """The weight points of one box and shape list, and the region
    weights at them packed into one int.

    points[i] = (z, t, strides, offset, fields): z[k] is 1 or the prime
    p of a primitive p-th root on axis k, t the least axis-0 extent of a
    shape that does not vanish at z.  Point i's coefficients fill the
    fields offset..offset + fields - 1, of width bits each, its axes'
    bases flattened by strides (in bits).  Every coefficient of a region
    weight is a sum of at most volume terms in {-1, 0, 1}, so with
    bias = 2^(width-1) > volume each field of bias + weight stays in
    [0, 2^width) and a field is 0 exactly when it reads bias.  Points
    are kept by ascending field count up to _WEIGHT_FIELDS fields, which
    bounds the int; dropping a point only weakens the prune.  root_cut
    is set when a point where every shape vanishes gives the box a
    nonzero weight; no points are kept then.  region gives the whole
    box's weight, where the search starts; every other region's weight
    is carried down from it, one placed shape at a time.
    """

    def __init__(self, box_sides, extents):
        self.root_cut = False
        self.points = []
        primes = [sorted({q for ext in extents for q in _prime_factors(ext[k])})
                  for k in range(len(box_sides))]
        kept = []
        for z in product(*([1] + ps for ps in primes)):
            vanishing = [any(q > 1 and e % q == 0 for e, q in zip(ext, z)) for ext in extents]
            tall_v = [ext[0] for ext, v in zip(extents, vanishing) if v]
            tall_n = [ext[0] for ext, v in zip(extents, vanishing) if not v]
            if not tall_v:
                continue
            if not tall_n:
                if all(s % q for s, q in zip(box_sides, z) if q > 1):
                    self.root_cut = True
                    return
            elif min(tall_n) > max(tall_v):
                kept.append((math.prod(q - 1 for q in z if q > 1), z, min(tall_n)))
        self.width = width = math.prod(box_sides).bit_length() + 1
        offset = 0
        for fields, z, t in sorted(kept):
            if offset + fields > _WEIGHT_FIELDS:
                break
            strides, stride = [], width
            for q in z:
                strides.append(stride)
                if q > 1:
                    stride *= q - 1
            self.points.append((z, t, strides, offset, fields))
            offset += fields
        self.bias = sum(1 << (width * f + width - 1) for f in range(offset))

    def region(self, sides):
        """Weight of the box 0 <= cell < sides, packed, without the bias."""
        total = 0
        for z, _, strides, offset, _ in self.points:
            w = 1 << (self.width * offset)
            for s, q, st in zip(sides, z, strides):
                w *= _axis_weights(s, q, st, 1)[0]
            total += w
        return total

    def masks(self, H):
        """Per minimum height m, the fields that must read 0 (bias) there."""
        masks = []
        for m in range(H + 1):
            mask = 0
            for _, t, _, offset, fields in self.points:
                if H - m < t:
                    mask |= ((1 << (self.width * fields)) - 1) << (self.width * offset)
            masks.append(mask)
        return masks, [self.bias & mask for mask in masks]


class _Problem:
    """One box and brick list, prepared for the skyline DFS.

    shapes[j] = (axis-0 extent, last-axis extent, offsets of the
    footprint's other cross-section rows, bytes marking the columns
    where the footprint stays inside the cross-section or None), with
    placed[j] = (brick_index, perm): model.oriented_shapes' entries that
    fit the box, in its order, each distinct extent vector once.  The
    cross-section of a 1-D box is a single column of width 1.  With
    weight points, dw[j][m * columns + x] is the packed weight of shape
    j placed at (m, column x).  When weights.root_cut is set the box is
    settled and nothing past the shapes is prepared.  Otherwise start is
    the empty box's height vector, where every search starts, and weight
    the biased packed weight of the whole box.
    """

    def __init__(self, box_sides, brick_sides, policy):
        self.box_sides = box_sides
        self.dimension = len(box_sides)
        self.height = H = box_sides[0]
        self.cross = cross = tuple(box_sides[1:]) or (1,)
        self.row = cross[-1]
        strides = [1] * len(cross)
        for k in range(len(cross) - 2, -1, -1):
            strides[k] = strides[k + 1] * cross[k + 1]
        self.shapes, self.placed = shapes, placed = [], []
        extents = []
        for bi, perm, ext in oriented_shapes(brick_sides, policy):
            if any(e > s for e, s in zip(ext, box_sides)):
                continue
            foot = ext[1:] or (1,)
            extra = tuple(
                sum(k * st for k, st in zip(ks, strides))
                for ks in product(*(range(e) for e in foot[:-1]))
            )[1:]
            fits = bytes(
                all(c + e <= s for c, e, s in zip(cs, foot, cross))
                for cs in product(*(range(s) for s in cross))
            ) if extra else None
            shapes.append((ext[0], foot[-1], extra, fits))
            placed.append((bi, perm))
            extents.append(ext)
        self.weights = weights = _Weights(box_sides, extents)
        if weights.root_cut:
            return
        self.start = chr(0) * math.prod(cross)
        self.weight = weights.bias + weights.region(box_sides)
        self.dw = None
        if weights.points:
            self.wmask, self.wwant = weights.masks(H)
            self.dw = self._weight_tables(extents)
        # column prune: colok[h] iff H - h is a sum of axis-0 extents
        reach = sums_mask([s[0] for s in shapes], H)
        self.colok = colok = [bool(reach >> (H - h) & 1) for h in range(H + 1)]
        # row-width prune: widthok[m][w] iff a run of w cells at height m
        # is a sum of last-axis extents of shapes that fit above m
        tables = {}
        self.widthok = []
        for m in range(H):
            usable = frozenset(el for e0, el, _, _ in shapes if e0 <= H - m and colok[m + e0])
            if usable not in tables:
                reach = sums_mask(usable, self.row)
                tables[usable] = [bool(reach >> w & 1) for w in range(self.row + 1)]
            self.widthok.append(tables[usable])

    def _weight_tables(self, extents):
        # a weight at z depends on each coordinate mod z[k] only, so one
        # entry per residue class of the origin serves every placement;
        # an entry is a sum over points of products of per-axis weights
        weights, H = self.weights, self.height
        lcm = [math.lcm(*(p[0][k] for p in weights.points)) for k in range(self.dimension)]
        reps = [range(min(s, period)) for s, period in zip(self.box_sides, lcm)]
        index = {rc: i for i, rc in enumerate(product(*reps[1:]))}
        xclass = [
            index[tuple(c % period for c, period in zip(cs, lcm[1:]))]
            for cs in product(*(range(s) for s in self.box_sides[1:]))
        ]
        tables = []
        for ext in extents:
            entries = [0] * (len(reps[0]) * len(index))
            for z, _, strides, offset, _ in weights.points:
                if any(q > 1 and e % q == 0 for e, q in zip(ext, z)):
                    continue        # the shape vanishes at z: every term is 0
                axes = [
                    _axis_weights(e, q, st, len(rep))
                    for rep, e, q, st in zip(reps, ext, z, strides)
                ]
                cross = [math.prod(f) for f in product(*axes[1:])]
                i = 0
                for f0 in axes[0]:
                    f0 <<= weights.width * offset
                    for f in cross:
                        entries[i] += f0 * f
                        i += 1
            rows = [[entries[r0 * len(index) + c] for c in xclass] for r0 in reps[0]]
            table = []
            for m in range(H):
                table += rows[m % lcm[0]]
            tables.append(table)
        return tables


def _skyline_dfs(prob, node_limit, deadline, root=None):
    """Depth-first search from the empty box, prob.start.

    Returns (status, payload, counts).  payload is the solution as three
    int lists when FOUND, one entry per placement in the order placed:
    the shape index j, the height m and the column x of its origin, read
    off the frame stack (see _build_tiling).  It is the limit's name
    when EXHAUSTED, and None when INFEASIBLE.  With root = j the root
    frame tries shape j alone: one parallel worker's search.  counts =
    [nodes, column, row-width, weight, memo hits, memo size, depth].
    """
    H, row, shapes = prob.height, prob.row, prob.shapes
    colok, widthok = prob.colok, prob.widthok
    dw = prob.dw
    if dw:
        wmask, wwant = prob.wmask, prob.wwant
        columns = len(prob.start)
    nshapes = len(shapes)
    root_end = nshapes if root is None else root + 1
    failed = {}     # insertion-ordered, so the oldest states go first
    nodes = col = wid = wgt = hits = dmax = 0
    stack = []      # parent frames: (heights, min char, min, column, run, next shape, key, weight)

    def done(status, payload):
        return status, payload, [nodes, col, wid, wgt, hits, len(failed), dmax]

    def path(j, m, x):
        return ([f[5] - 1 for f in stack] + [j], [f[2] for f in stack] + [m],
                [f[3] for f in stack] + [x])

    # the empty box: every column at height 0, the first row one run
    s = key = prob.start
    mc, m, x, L = s[0], 0, 0, row
    w = prob.weight
    nodes = 1
    j0 = root or 0
    while True:
        hm = H - m
        wok = widthok[m]
        for j in range(j0, nshapes if stack else root_end):
            e0, el, extra, fits = shapes[j]
            if el > L or e0 > hm:
                continue
            h = m + e0
            if not colok[h]:
                col += 1
                continue
            if extra and (not fits[x] or any(s[x + o:x + o + el] != mc * el for o in extra)):
                continue
            c = chr(h) * el
            child = s[:x] + c + s[x + el:]
            for o in extra:
                child = child[:x + o] + c + child[x + o + el:]
            rest = L - el
            if rest:
                if not wok[rest]:
                    wid += 1
                    continue
                cmc, cm, cx, cL = mc, m, x + el, rest
            else:
                cmc = min(child)
                cm = ord(cmc)
                if cm == H:
                    return done(FOUND, path(j, m, x))
                cx = child.index(cmc)
                t = child[cx:cx - cx % row + row]
                cL = len(t) - len(t.lstrip(cmc))
                if not widthok[cm][cL]:
                    wid += 1
                    continue
                # a placement that leaves its run open keeps the minimum
                # height, and every shape that fits there vanishes at the
                # points already tested, so only a closed run is tested
                if dw and wmask[cm] and (w - dw[j][m * columns + x]) & wmask[cm] != wwant[cm]:
                    wgt += 1
                    continue
            r = child[::-1]
            ckey = child if child <= r else r
            if ckey in failed:
                hits += 1
                continue
            if nodes >= node_limit:
                return done(EXHAUSTED, "node_limit")
            nodes += 1
            if not nodes & 4095 and time.monotonic() > deadline:
                return done(EXHAUSTED, "time_limit")
            stack.append((s, mc, m, x, L, j + 1, key, w))
            if len(stack) > dmax:
                dmax = len(stack)
            if dw:
                w -= dw[j][m * columns + x]
            s, mc, m, x, L, key = child, cmc, cm, cx, cL, ckey
            j0 = 0
            break
        else:
            failed[key] = None
            if len(failed) > _MEMO_CAP:
                for old in list(islice(failed, len(failed) // 2)):
                    del failed[old]
            if not stack:
                return done(INFEASIBLE, None)
            s, mc, m, x, L, j0, key, w = stack.pop()


def _search_branch(args):
    """Worker for parallel mode: the search whose root tries one shape.

    The root is entered but not counted, so it gets one node past the
    worker's share of the limit, and one node less is reported.
    """
    box_sides, brick_sides, policy, root, node_limit, deadline = args
    prob = _Problem(box_sides, brick_sides, policy)
    status, payload, counts = _skyline_dfs(prob, node_limit + 1, deadline, root)
    counts[0] -= 1
    return status, payload, counts


def _build_tiling(box, bricks, policy, prob, found):
    """The Tiling of a FOUND payload (shape, height, column lists), built
    as columns: each shape's brick index and orientation are looked up in
    arrays over prob.placed, and a column x is unravelled over the
    cross-section into the origin's coordinates on axes 1..n-1."""
    j, m, x = (np.array(a, dtype=np.int64) for a in found)
    index = np.array([bi for bi, _ in prob.placed], dtype=np.int64)
    perms = np.array([perm for _, perm in prob.placed], dtype=np.int64)
    if prob.dimension > 1:
        origin = np.column_stack((m, *np.unravel_index(x, prob.cross)))
    else:
        origin = m[:, None]
    return Tiling.from_arrays(box, bricks, index[j], perms[j], origin, rotation_policy=policy)


def exact_cover_search(
    box: BoxShape, bricks: Sequence[Brick], cfg: SearchConfig = SearchConfig()
) -> SearchResult:
    """Complete search for a tiling of box by the given bricks."""
    t0 = time.monotonic()
    deadline = t0 + cfg.time_limit
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

    def finish(status, payload=None, counts=(0,) * 7, volume_prunes=0):
        nodes, col, wid, wgt, hits, size, depth = counts
        stats = SearchStats(nodes, volume_prunes, col, wid, wgt, hits, size, depth,
                            time.monotonic() - t0)
        if status == FOUND:
            tiling = _build_tiling(box, bricks, cfg.rotation_policy, prob, payload)
            return SearchResult(FOUND, tiling=tiling, stats=stats)
        if status == EXHAUSTED:
            return SearchResult(EXHAUSTED, reason=payload, stats=stats)
        return SearchResult(INFEASIBLE, stats=stats)

    if not sums_mask([b.volume for b in bricks], volume) >> volume & 1:
        return finish(INFEASIBLE, volume_prunes=1)
    brick_sides = [b.sides for b in bricks]
    prob = _Problem(box.sides, brick_sides, cfg.rotation_policy)
    if not prob.shapes:
        return finish(INFEASIBLE)
    if prob.weights.root_cut:
        return finish(INFEASIBLE, counts=(0, 0, 0, 1, 0, 0, 0))
    if not cfg.parallel:
        return finish(*_skyline_dfs(prob, cfg.node_limit, deadline))

    # parallel: one worker per root shape, joined in shape order
    share, extra = divmod(cfg.node_limit, len(prob.shapes))
    args = [
        (box.sides, brick_sides, cfg.rotation_policy, j, share + (j < extra), deadline)
        for j in range(len(prob.shapes))
    ]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(len(args), os.cpu_count() or 1)) as pool:
        results = list(pool.map(_search_branch, args))
    counts = [sum(c) for c in zip(*(r[2] for r in results))]
    counts[6] = max(r[2][6] for r in results)
    for status, payload, _ in results:
        if status == FOUND:
            return finish(FOUND, payload, counts)
    exhausted = [r[1] for r in results if r[0] == EXHAUSTED]
    if exhausted:
        return finish(EXHAUSTED, exhausted[0], counts)
    return finish(INFEASIBLE, None, counts)

# ---------------------------------------------------------------------------
# square-box threshold scanning
# ---------------------------------------------------------------------------

def threshold_scan(
    bricks: Sequence[Brick], limit: int, cfg: SearchConfig = SearchConfig()
) -> list[int]:
    """All side lengths a <= limit whose a x a square is NOT tileable.

    Exact.  One planar.Dissection over the distinct squares judges each
    side first; it settles a side by the two-brick criterion over a
    pair of squares (a grid is its one-block case), guillotine cuts and
    pinwheels, and it refuses a side that is no sum of the square sides.
    With one or two sizes its answer is exact both ways, so nothing
    searches.  With more, complete exact-cover search judges each side
    dissection leaves, both ways.
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
    squares = tuple(Brick((s, s)) for s in sorted({b.sides[0] for b in bricks}))
    dissection = Dissection(squares)
    # bigger bricks first speeds up the cases that reach the full search
    search_order = squares[::-1]
    out = []
    for a in range(1, limit + 1):
        if dissection.settled((a, a)):
            continue
        if len(squares) >= 3:
            result = exact_cover_search(BoxShape((a, a)), search_order, cfg)
            if result.status == EXHAUSTED:
                raise SearchLimitError(
                    f"scan inconclusive at a={a}: {result.reason} after {result.nodes} nodes"
                )
            if result.status == FOUND:
                continue
        out.append(a)
    return out

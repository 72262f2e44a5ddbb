"""Boxes, bricks, placements, tilings; exact verification; the grid builder.

A tiling is a box, a list of brick types, and m axis-aligned placements
stored column-wise as three int64 arrays: ``brick_index`` (m,),
``orientation`` (m, n) and ``origin`` (m, n).  Placement i puts brick
``brick_index[i]`` at ``origin[i]``, with brick axis ``orientation[i, j]``
along box axis j.  The columns are all a tiling stores:
``Tiling.placements`` builds a fresh tuple of ``Placement`` objects from
them on every read, for callers that want one object per placement.

For axis-aligned placements, exact cover of the box is equivalent to
the conjunction of three checks:

    (i)   every placement fits inside the box,
    (ii)  placements are pairwise interior-disjoint, and
    (iii) total placement volume equals box volume,

which is what verify_full tests.  It decides (ii) with a difference
array: each placement adds +1 and -1 at the 2^n corners of its box,
and n cumulative sums turn that into the number of placements covering
every cell.  Coordinates are first compressed to the placements' own
breakpoints, so a few large bricks in a huge box cost a few cells, and
the raster is built in slabs along axis 0 under a fixed cell budget
(RASTER_SLAB_CELLS, or one plane if that is larger), so memory stays
bounded on any box.  Time is linear in cells plus placements, after a
few sorts of the placements' coordinates.  The fit check (i) compares
origins with box - extent, so an origin near the int64 limit cannot
wrap around into the box.  verify_sampled swaps (ii) for a randomized
unit-cell coverage check: it draws seeded random cells and asserts
each is covered exactly once, testing candidates from a bucket grid
against contiguous columns of origins and extents, one axis at a time.

Construction-time validation is structural only (dimensions, index
ranges, permutation validity) and runs once per tiling, vectorized;
geometric soundness is always the verifier's job, so malformed geometry
can be loaded and diagnosed.

Every tiling the library builds is a union of grids, each of one
oriented brick, so there is one builder: grid_blocks takes the blocks
(brick, orientation, corner, sides), broadcasts each grid's origins and
returns the placements in lexicographic origin order; grid_fill is its
one-block case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    DivisibilityError,
    PreconditionError,
)
from .semigroup import checked_add

ROTATION_FIXED = "fixed"
ROTATION_AXIS_PERMUTATIONS = "axis-permutations"
_ROTATION_POLICIES = (ROTATION_FIXED, ROTATION_AXIS_PERMUTATIONS)

# cells of the verify_full raster held in memory at once (int32 counts)
RASTER_SLAB_CELLS = 1 << 22
# verify_sampled probes this many cells at a time
_SAMPLE_CHUNK = 1 << 14


def identity_orientation(n: int) -> tuple[int, ...]:
    return tuple(range(n))


@dataclass(frozen=True)
class _Sides:
    """Sides of a BoxShape or a Brick; __eq__ tells the two classes apart."""

    sides: tuple[int, ...]
    _noun = "shape"  # for error messages

    def __init__(self, sides: Iterable[int]):
        s = tuple(int(v) for v in sides)
        if not s:
            raise PreconditionError(f"{self._noun} must have at least one axis")
        if any(v < 1 for v in s):
            raise PreconditionError(f"{self._noun} sides must be >= 1, got {s}")
        object.__setattr__(self, "sides", s)

    @property
    def dimension(self) -> int:
        return len(self.sides)

    @property
    def volume(self) -> int:
        return math.prod(self.sides)


class BoxShape(_Sides):
    _noun = "box"


class Brick(_Sides):
    _noun = "brick"


@dataclass(frozen=True, slots=True)
class Placement:
    """One brick copy: which brick, how its axes map, where it sits.

    oriented side along box axis j = brick.sides[orientation[j]].
    """

    brick_index: int
    orientation: tuple[int, ...]
    origin: tuple[int, ...]

    def oriented_sides(self, brick: Brick) -> tuple[int, ...]:
        return tuple(brick.sides[a] for a in self.orientation)


# ---------------------------------------------------------------------------
# the columnar tiling
# ---------------------------------------------------------------------------

# the structural checks, in the order they are applied to each placement
_PLACEMENT_ERRORS = (
    "placement {i}: brick index {p.brick_index} out of range",
    "placement {i}: bad origin {p.origin}",
    "placement {i}: orientation {p.orientation} is not a permutation",
    "placement {i}: non-identity orientation under the fixed policy",
)


def _row_array(rows: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """(m, n) int64 array; a row of another length, or with a value
    outside int64, becomes all -1 (which fails every structural check)."""
    try:
        a = np.array(rows, dtype=np.int64)
        if a.shape == (len(rows), n) or not rows:
            return a.reshape(len(rows), n)
    except (ValueError, OverflowError):
        pass
    out = np.full((len(rows), n), -1, dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) == n:
            try:
                out[i] = row
            except OverflowError:
                pass
    return out


def _readonly(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.int64)
    a.flags.writeable = False
    return a


class Tiling:
    """A box, its brick types, and placements stored as int64 columns."""

    __slots__ = (
        "box",
        "bricks",
        "brick_index",
        "orientation",
        "origin",
        "rotation_policy",
    )

    def __init__(
        self,
        box: BoxShape,
        bricks: Iterable[Brick],
        placements: Iterable[Placement],
        rotation_policy: str = ROTATION_FIXED,
    ):
        """Placement rows as columns; a structural error shows the caller's row."""
        rows = tuple(placements)
        n = box.dimension
        self._fill(
            box,
            tuple(bricks),
            _row_array([(p.brick_index,) for p in rows], 1).reshape(-1),
            _row_array([p.orientation for p in rows], n),
            _row_array([p.origin for p in rows], n),
            rotation_policy,
            rows,
        )

    @classmethod
    def from_arrays(
        cls,
        box: BoxShape,
        bricks: Iterable[Brick],
        brick_index,
        orientation,
        origin,
        rotation_policy: str = ROTATION_FIXED,
    ) -> "Tiling":
        """A tiling from column arrays, validated like the constructor.

        Arrays that already are contiguous int64 are kept, not copied,
        and are made read-only.
        """
        t = object.__new__(cls)
        t._fill(box, tuple(bricks), brick_index, orientation, origin, rotation_policy, None)
        return t

    def _fill(self, box, bricks, brick_index, orientation, origin, policy, rows):
        if policy not in _ROTATION_POLICIES:
            raise PreconditionError(f"unknown rotation policy {policy!r}")
        n = box.dimension
        for b in bricks:
            if b.dimension != n:
                raise DimensionMismatchError(
                    f"brick {b.sides} has dimension {b.dimension}, box has {n}"
                )
        brick_index = _readonly(brick_index)
        orientation = _readonly(orientation)
        origin = _readonly(origin)
        bad = _first_bad_placement(len(bricks), brick_index, orientation, origin, policy)
        if bad is not None:
            i, check = bad
            if rows is not None:
                p = rows[i]
            else:
                p = Placement(
                    int(brick_index[i]), tuple(orientation[i].tolist()), tuple(origin[i].tolist())
                )
            raise PreconditionError(_PLACEMENT_ERRORS[check].format(i=i, p=p))
        set_ = object.__setattr__
        set_(self, "box", box)
        set_(self, "bricks", bricks)
        set_(self, "brick_index", brick_index)
        set_(self, "orientation", orientation)
        set_(self, "origin", origin)
        set_(self, "rotation_policy", policy)

    def __setattr__(self, name, value):
        raise AttributeError(f"Tiling is immutable; cannot set {name!r}")

    def __reduce__(self):
        columns = (self.brick_index, self.orientation, self.origin)
        return Tiling.from_arrays, (self.box, self.bricks, *columns, self.rotation_policy)

    @property
    def dimension(self) -> int:
        return self.box.dimension

    @property
    def placements(self) -> tuple[Placement, ...]:
        """One Placement per row, built afresh from the columns on every read."""
        if self.rotation_policy == ROTATION_FIXED:
            orientations = [identity_orientation(self.dimension)] * len(self.brick_index)
        else:
            orientations = zip(*self.orientation.T.tolist())
        # one list per column, zipped into rows: no list per row
        origins = zip(*self.origin.T.tolist())
        return tuple(map(Placement, self.brick_index.tolist(), orientations, origins))

    def oriented_extents(self) -> np.ndarray:
        """(m, n) int64 array: placement i's side along each box axis."""
        n = self.dimension
        sides = np.array([b.sides for b in self.bricks], dtype=np.int64)
        sides = sides.reshape(len(self.bricks), n)
        if self.rotation_policy == ROTATION_FIXED:
            return sides.take(self.brick_index, axis=0)
        return sides[self.brick_index[:, None], self.orientation]

    def placement_volume(self) -> int:
        counts = np.bincount(self.brick_index, minlength=len(self.bricks)).tolist()
        return sum(c * b.volume for c, b in zip(counts, self.bricks))

    def __eq__(self, other):
        if not isinstance(other, Tiling):
            return NotImplemented
        return (
            self.box == other.box
            and self.bricks == other.bricks
            and self.rotation_policy == other.rotation_policy
            and np.array_equal(self.brick_index, other.brick_index)
            and np.array_equal(self.orientation, other.orientation)
            and np.array_equal(self.origin, other.origin)
        )

    def __hash__(self):
        return hash(
            (
                self.box,
                self.bricks,
                self.rotation_policy,
                self.brick_index.tobytes(),
                self.orientation.tobytes(),
                self.origin.tobytes(),
            )
        )

    def __repr__(self) -> str:
        return (
            f"Tiling(box={self.box.sides}, bricks={[b.sides for b in self.bricks]}, "
            f"placements={len(self.brick_index)}, rotation_policy={self.rotation_policy!r})"
        )


def _first_bad_placement(nbricks, brick_index, orientation, origin, policy):
    """(index, check) of the first placement failing a structural check."""
    m, n = origin.shape
    if m == 0:
        return None
    ident = np.arange(n)
    sorted_orientation = orientation if policy == ROTATION_FIXED else np.sort(orientation, axis=1)
    if (
        not np.count_nonzero(sorted_orientation != ident)
        and brick_index.min() >= 0
        and brick_index.max() < nbricks
        and origin.min() >= 0
    ):
        return None
    not_perm = (np.sort(orientation, axis=1) != ident).any(axis=1)
    checks = np.stack(
        [
            (brick_index < 0) | (brick_index >= nbricks),
            (origin < 0).any(axis=1),
            not_perm,
            (orientation != ident).any(axis=1) & (policy == ROTATION_FIXED),
        ]
    )
    i = int(np.argmax(checks.any(axis=0)))
    return i, int(np.argmax(checks[:, i]))


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    mode: str
    reason: Optional[str] = None
    placement_index: Optional[int] = None
    overlap_pair: Optional[tuple[int, int]] = None
    expected_volume: Optional[int] = None
    actual_volume: Optional[int] = None
    samples: Optional[int] = None
    cell: Optional[tuple[int, ...]] = None
    cover_count: Optional[int] = None

    def __str__(self) -> str:
        if self.valid:
            extra = f", samples={self.samples}" if self.samples is not None else ""
            return f"Valid({self.mode}{extra})"
        parts = [self.reason or "invalid"]
        if self.placement_index is not None:
            parts.append(f"placement={self.placement_index}")
        if self.overlap_pair is not None:
            parts.append(f"pair={self.overlap_pair}")
        if self.expected_volume is not None:
            parts.append(f"expected_volume={self.expected_volume}")
        if self.actual_volume is not None:
            parts.append(f"actual_volume={self.actual_volume}")
        if self.cell is not None:
            parts.append(f"cell={self.cell}")
        if self.cover_count is not None:
            parts.append(f"cover_count={self.cover_count}")
        return f"Invalid({', '.join(parts)})"


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _check_fits(
    t: Tiling, lo: np.ndarray, extents: np.ndarray, mode: str
) -> Optional[VerifyReport]:
    """The first placement not inside the box, as a report, or None.

    lo + extents could wrap around in int64, so the far corner is tested
    as lo <= box - extents; once this passes, lo + extents is exact.
    The rows are scanned only if a whole-array check finds one outside.
    """
    if len(lo) == 0:
        return None
    if t.rotation_policy == ROTATION_FIXED:
        # gathered per brick type, as oriented_extents gathers the sides:
        # box - extents would run numpy's inner loop n elements at a time
        rooms = [[a - x for a, x in zip(t.box.sides, b.sides)] for b in t.bricks]
        room = np.array(rooms, dtype=np.int64).take(t.brick_index, axis=0)
    else:
        room = np.asarray(t.box.sides, dtype=np.int64) - extents
    if lo.min() >= 0 and (lo <= room).all():
        return None
    idx = int(np.argmax((lo < 0).any(axis=1) | (lo > room).any(axis=1)))
    return VerifyReport(
        valid=False, mode=mode, reason="placement_out_of_bounds", placement_index=idx
    )


def _check_volume(t: Tiling, mode: str) -> Optional[VerifyReport]:
    expected = t.box.volume
    actual = t.placement_volume()
    if actual != expected:
        return VerifyReport(
            valid=False,
            mode=mode,
            reason="volume_mismatch",
            expected_volume=expected,
            actual_volume=actual,
        )
    return None


def _corner_terms(lo: np.ndarray, hi: np.ndarray, strides: Sequence[int]):
    """Flat offsets (2^k, m) and signs (2^k,) of the corners over the given axes.

    lo and hi hold one row of m coordinates per axis.  Corner c takes hi
    on the axes whose bit is set and lo elsewhere; its sign is -1 to the
    number of hi coordinates.
    """
    k = len(strides)
    offsets = np.zeros((2**k, lo.shape[1]), dtype=np.int64)
    signs = np.ones(2**k, dtype=np.int32)
    for c in range(2**k):
        for axis, stride in enumerate(strides):
            if c >> axis & 1:
                offsets[c] += hi[axis] * stride
                signs[c] = -signs[c]
            else:
                offsets[c] += lo[axis] * stride
    return offsets, signs


def _raster_slabs(lo: np.ndarray, hi: np.ndarray, shape: Sequence[int]):
    """Yield (row0, counts) over slabs of axis 0; counts[r] is row row0 + r.

    counts has one extra plane of padding on every axis but 0, which
    stays zero.  Each placement adds +1 or -1 at each of its corners,
    kept as offsets into the whole padded raster.  With several slabs
    the +1 and the -1 offsets are each sorted once, in place, so a slab
    adds one run of each.  Every axis of a slab is then summed, and the
    last row of the previous slab is carried in.
    """
    plane_shape = tuple(s + 1 for s in shape[1:])
    plane = math.prod(plane_shape)
    strides = [math.prod(plane_shape[k:]) for k in range(len(shape))]
    rows_per_slab = max(1, RASTER_SLAB_CELLS // plane)
    at, signs = _corner_terms(lo.T, hi.T, strides)
    corners = [(at[signs == sign].reshape(-1), sign) for sign in (1, -1)]
    del at
    several = rows_per_slab < shape[0]
    if several:
        for offsets, _ in corners:
            offsets.sort()
    carry = 0
    for row0 in range(0, shape[0], rows_per_slab):
        row1 = min(row0 + rows_per_slab, shape[0])
        # a spare last row takes the far corners at the end of the box
        counts = np.zeros((row1 - row0 + 1,) + plane_shape, dtype=np.int32)
        for offsets, sign in corners:
            if several:
                offsets = offsets[slice(*np.searchsorted(offsets, (row0 * plane, row1 * plane)))]
            weights = np.full(len(offsets), sign, dtype=np.int32)
            np.add.at(counts.reshape(-1), offsets - row0 * plane, weights)
        counts = counts[:-1]
        for axis in range(counts.ndim):
            np.cumsum(counts, axis=axis, dtype=np.int32, out=counts)
        counts += carry
        carry = counts[-1].copy()
        yield row0, counts


def _touching(lo, hi, row0, multi) -> np.ndarray:
    """Indices of placements touching a True cell of multi (rows row0...)."""
    rows = multi.shape[0]
    inside = (lo[:, 0] < row0 + rows) & (hi[:, 0] > row0)
    idx = np.flatnonzero(inside)
    # summed-area table with a zero plane in front of every axis
    table = np.zeros(tuple(s + 1 for s in multi.shape), dtype=np.int32)
    table[tuple(slice(1, None) for _ in multi.shape)] = multi
    for axis in range(table.ndim):
        np.cumsum(table, axis=axis, dtype=np.int32, out=table)
    a = lo[idx].copy()
    b = hi[idx].copy()
    a[:, 0] = np.maximum(a[:, 0], row0) - row0
    b[:, 0] = np.minimum(b[:, 0], row0 + rows) - row0
    strides = [math.prod(table.shape[k + 1:]) for k in range(table.ndim)]
    offsets, signs = _corner_terms(a.T, b.T, strides)
    # the signs are the difference array's, (-1)^n times the summed-area
    # table's, so each sum is +- the number of multi cells in the box
    sums = signs.astype(np.int64) @ table.reshape(-1)[offsets]
    return idx[sums != 0]


def _first_overlap(lo: np.ndarray, hi: np.ndarray) -> Optional[tuple[int, int]]:
    """The lexicographically first interior-overlapping pair, or None.

    Placements must already fit in the box.  Every overlapping pair
    shares a cell covered more than once, so the smallest index i
    touching such a cell starts the first pair (it overlaps another
    placement, which touches the same cell and so has a larger index);
    its partner is the first later placement overlapping it.
    """
    m, n = lo.shape
    if m < 2:
        return None
    # compress each axis to the placements' breakpoints: every compressed
    # cell is covered wholly or not at all by each placement
    clo = np.empty_like(lo)
    chi = np.empty_like(hi)
    shape = []
    for k in range(n):
        points, inverse = np.unique(np.concatenate([lo[:, k], hi[:, k]]), return_inverse=True)
        inverse = inverse.reshape(-1)
        clo[:, k], chi[:, k] = inverse[:m], inverse[m:]
        shape.append(len(points) - 1)
    first = m
    for row0, counts in _raster_slabs(clo, chi, shape):
        if counts.max() > 1:
            multi = counts[(slice(None),) + tuple(slice(0, s) for s in shape[1:])] > 1
            first = min(first, int(_touching(clo, chi, row0, multi).min()))
    if first == m:
        return None
    i = first
    later = ((lo[i + 1:] < hi[i]) & (lo[i] < hi[i + 1:])).all(axis=1)
    return i, i + 1 + int(np.argmax(later))


def verify_full(t: Tiling) -> VerifyReport:
    """Exact exact-cover check: fit, disjointness, volume.

    Reports the first violation in placement-list order: the first
    out-of-bounds placement, else the lexicographically first overlapping
    pair (i, j), else the volume mismatch.  Disjointness comes from a
    difference-array raster (see the module docstring), so time is
    linear in cells plus placements and memory stays within a fixed
    slab budget.
    """
    lo = t.origin
    extents = t.oriented_extents()
    report = _check_fits(t, lo, extents, "full")
    if report:
        return report
    hi = lo + extents
    pair = _first_overlap(lo, hi)
    if pair is not None:
        return VerifyReport(valid=False, mode="full", reason="overlap", overlap_pair=pair)
    report = _check_volume(t, "full")
    if report:
        return report
    return VerifyReport(valid=True, mode="full")


def verify_sampled(t: Tiling, samples: int, seed: int) -> VerifyReport:
    """Fit and volume exactly; disjoint coverage probabilistically.

    Draws `samples` unit cells uniformly (deterministic in seed) and
    requires each to be covered by exactly one placement.  Candidates
    come from a bucket grid over the first three axes, bucket width =
    the largest oriented side: a cell probes eight buckets, read as four
    runs of the placements sorted by bucket.  A candidate passes an axis
    if (cell - origin) as unsigned is below its extent, and is dropped
    before the next axis if not.  A failure names the first sampled cell
    not covered exactly once and its cover count.
    """
    if samples < 1:
        raise PreconditionError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")
    lo = t.origin
    extents = t.oriented_extents()
    report = _check_fits(t, lo, extents, "sampled") or _check_volume(t, "sampled")
    if report:
        return report
    n = t.dimension
    sides = np.asarray(t.box.sides, dtype=np.int64)
    try:
        pts = np.random.default_rng(seed).integers(0, sides, size=(samples, n))
    except (ValueError, MemoryError):
        raise CapExceededError(f"{samples} samples are too many to hold") from None

    # bucket coordinate cell // width + 1, so the bucket below the first
    # is empty.  Fit and volume hold, so the box's section over the grid
    # axes is at most m times the product of the widths: at most 27m
    # buckets, since side // width + 2 <= 3 * side / width.
    grid_axes = range(min(3, n))
    widths = [max(1, int(extents[:, k].max(initial=0))) for k in grid_axes]
    nb = [t.box.sides[k] // widths[k] + 2 for k in grid_axes]
    strides = [math.prod(nb[k + 1:]) for k in grid_axes]

    def bucket_key(coords: np.ndarray) -> np.ndarray:
        key = np.full(len(coords), sum(strides), dtype=np.int64)
        for k in grid_axes:
            key += coords[:, k] // widths[k] * strides[k]
        return key

    place_key = bucket_key(lo)
    order = np.argsort(place_key, kind="stable")
    origins = [lo[:, k].take(order) for k in range(n)]
    sizes = [extents[:, k].take(order).view(np.uint64) for k in range(n)]
    # bucket b's placements are rows bucket_start[b] to bucket_start[b + 1]
    buckets = math.prod(nb)
    bucket_start = np.zeros(buckets + 1, dtype=np.int64)
    np.cumsum(np.bincount(place_key, minlength=buckets), out=bucket_start[1:])

    # probe the cells in bucket order, which keeps the lookups local
    cell_key = bucket_key(pts)
    probe_order = np.argsort(cell_key)
    cell_key = cell_key.take(probe_order)
    cells = [pts[:, k].take(probe_order) for k in range(n)]
    # a cell can only be covered by a placement whose bucket, along each
    # grid axis, is the cell's own or the one just below it; along the
    # last grid axis those two are adjacent keys, so each pair is one run
    shifts = [sum(c) for c in product(*[(0, stride) for stride in strides[:-1]])]
    counts = np.zeros(samples, dtype=np.int64)  # in probe order, like cells
    for s0 in range(0, samples, _SAMPLE_CHUNK):
        keys = cell_key[s0:s0 + _SAMPLE_CHUNK]
        chunk = slice(s0, s0 + len(keys))
        for shift in shifts:
            starts = bucket_start.take(keys - shift - 1)
            runs = bucket_start.take(keys - shift + 1) - starts
            # one row per (sample, candidate placement) pair
            sample = np.repeat(np.arange(len(keys)), runs)
            cand = np.arange(len(sample)) + np.repeat(starts - (np.cumsum(runs) - runs), runs)
            for k in range(n):
                # a cell below the origin wraps around to a huge unsigned gap
                gap = cells[k][chunk].take(sample) - origins[k].take(cand)
                hit = np.flatnonzero(gap.view(np.uint64) < sizes[k].take(cand))
                sample, cand = sample.take(hit), cand.take(hit)
            counts[chunk] += np.bincount(sample, minlength=len(keys))
    bad = np.flatnonzero(counts != 1)
    if len(bad):
        first = bad[np.argmin(probe_order.take(bad))]
        cell = tuple(pts[probe_order[first]].tolist())
        return VerifyReport(
            False, "sampled", reason="sample_coverage", cell=cell, cover_count=int(counts[first])
        )
    return VerifyReport(valid=True, mode="sampled", samples=samples)


# ---------------------------------------------------------------------------
# the grid builder
# ---------------------------------------------------------------------------

def grid_blocks(
    box_sides: Sequence[int],
    bricks: Sequence[Brick],
    blocks: Sequence[tuple[int, Sequence[int], Sequence[int], Sequence[int]]],
    policy: str = ROTATION_FIXED,
) -> Tiling:
    """One tiling of a box from blocks, each a grid of one oriented brick.

    A block (brick index, orientation, corner, sides) is the box of the
    given sides at corner, gridded by the brick with its axis
    orientation[j] along box axis j; the oriented brick sides must divide
    the block's.  The blocks should fill the box exactly: that is the
    verifier's to check.  Placements come in lexicographic origin order.
    """
    n = len(box_sides)
    columns = []
    inside = True  # every block lies within the box
    for index, orientation, corner, sides in blocks:
        extents = [bricks[index].sides[a] for a in orientation]
        for k, (a, x) in enumerate(zip(sides, extents)):
            if a % x != 0:
                raise DivisibilityError(f"axis {k}: brick side {x} does not divide box side {a}")
            checked_add(corner[k], a - x)  # the last origin along axis k
            inside = inside and 0 <= corner[k] and corner[k] + a <= box_sides[k]
        counts = [a // x for a, x in zip(sides, extents)]
        # origin[..., k] runs along grid axis k in steps of the extent
        try:
            origin = np.empty(counts + [n], dtype=np.int64)
        except (ValueError, MemoryError):
            count = math.prod(counts)
            raise CapExceededError(f"a grid block of {count} placements is too large to hold") from None
        for k in range(n):
            steps = np.arange(corner[k], corner[k] + sides[k], extents[k])
            origin[..., k] = steps.reshape([-1] + [1] * (n - 1 - k))
        origin = origin.reshape(-1, n)
        brick_index = np.full(len(origin), index, dtype=np.int64)
        columns.append((brick_index, np.full(origin.shape, orientation, dtype=np.int64), origin))
    if len(columns) == 1:
        # one grid is already in origin order
        brick_index, orientation, origin = columns[0]
    else:
        brick_index, orientation, origin = map(np.concatenate, zip(*columns))
        del columns  # free the blocks' columns before the sort copies them
        # lexicographic origin order; ties keep block order.  Origins in
        # the box sort so by their row-major offset, which fits int64 while
        # the box's volume does
        if inside and math.prod(box_sides) < 2**63:
            strides = [math.prod(box_sides[k + 1 :]) for k in range(n)]
            order = np.argsort(origin @ np.array(strides, dtype=np.int64), kind="stable")
        else:
            order = np.lexsort(origin.T[::-1])
        brick_index, orientation, origin = brick_index[order], orientation[order], origin[order]
    return Tiling.from_arrays(
        BoxShape(box_sides), bricks, brick_index, orientation, origin, rotation_policy=policy
    )


def grid_fill(box: BoxShape, brick: Brick) -> Tiling:
    """Tile a box whose every side is divisible by the brick's."""
    if brick.dimension != box.dimension:
        raise DimensionMismatchError(
            f"brick dimension {brick.dimension} != box dimension {box.dimension}"
        )
    n = box.dimension
    return grid_blocks(box.sides, (brick,), [(0, identity_orientation(n), (0,) * n, box.sides)])

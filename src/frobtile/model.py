"""Boxes, bricks, placements, tilings; exact verification; combinators.

A tiling is a box, a list of brick types, and m axis-aligned placements
stored column-wise as three int64 arrays: ``brick_index`` (m,),
``orientation`` (m, n) and ``origin`` (m, n).  Placement i puts brick
``brick_index[i]`` at ``origin[i]``, with brick axis ``orientation[i, j]``
along box axis j.  ``Tiling.placements`` is a tuple of ``Placement``
objects built from the arrays the first time it is read, for callers
that want one object per placement.

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
each is covered exactly once, locating candidate placements through a
bucket grid.

Construction-time validation is structural only (dimensions, index
ranges, permutation validity) and runs once per tiling, vectorized;
geometric soundness is always the verifier's job, so malformed geometry
can be loaded and diagnosed.

The combinators mirror how larger tilings are assembled from smaller
ones: grid_blocks (a union of blocks, each a grid of one oriented brick)
and grid_fill (one brick over a box it divides), extrude (lift an
(n-1)-dim tiling to n dimensions by stacking copies of each brick up to
a common height), and stack (concatenate tilings along one axis).  Each
is array concatenation or broadcasting, and each returns its placements
in lexicographic origin order.
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
    ShapeMismatchError,
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
class BoxShape:
    sides: tuple[int, ...]

    def __init__(self, sides: Iterable[int]):
        s = tuple(int(v) for v in sides)
        if not s:
            raise PreconditionError("box must have at least one axis")
        if any(v < 1 for v in s):
            raise PreconditionError(f"box sides must be >= 1, got {s}")
        object.__setattr__(self, "sides", s)

    @property
    def dimension(self) -> int:
        return len(self.sides)

    @property
    def volume(self) -> int:
        return math.prod(self.sides)


@dataclass(frozen=True)
class Brick:
    sides: tuple[int, ...]

    def __init__(self, sides: Iterable[int]):
        s = tuple(int(v) for v in sides)
        if not s:
            raise PreconditionError("brick must have at least one axis")
        if any(v < 1 for v in s):
            raise PreconditionError(f"brick sides must be >= 1, got {s}")
        object.__setattr__(self, "sides", s)

    @property
    def dimension(self) -> int:
        return len(self.sides)

    @property
    def volume(self) -> int:
        return math.prod(self.sides)


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
        "_placements",
    )

    def __init__(
        self,
        box: BoxShape,
        bricks: Iterable[Brick],
        placements: Iterable[Placement],
        rotation_policy: str = ROTATION_FIXED,
    ):
        placements = tuple(placements)
        n = box.dimension
        self._fill(
            box,
            tuple(bricks),
            _row_array([(p.brick_index,) for p in placements], 1).reshape(-1),
            _row_array([p.orientation for p in placements], n),
            _row_array([p.origin for p in placements], n),
            rotation_policy,
            placements,
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

    def _fill(self, box, bricks, brick_index, orientation, origin, policy, placements):
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
            if placements is not None:
                p = placements[i]
            else:
                p = Placement(
                    int(brick_index[i]), tuple(orientation[i].tolist()), tuple(origin[i].tolist())
                )
            raise PreconditionError(_PLACEMENT_ERRORS[check].format(i=i, p=p))
        _init_fields(self, box, bricks, brick_index, orientation, origin, policy, placements)

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
        """One Placement per row, built from the arrays on first use."""
        ps = self._placements
        if ps is None:
            if self.rotation_policy == ROTATION_FIXED:
                orientations = [identity_orientation(self.dimension)] * len(self.brick_index)
            else:
                orientations = zip(*self.orientation.T.tolist())
            # one list per column, zipped into rows: no list per row
            origins = zip(*self.origin.T.tolist())
            ps = tuple(map(Placement, self.brick_index.tolist(), orientations, origins))
            object.__setattr__(self, "_placements", ps)
        return ps

    def oriented_extents(self) -> np.ndarray:
        """(m, n) int64 array: placement i's side along each box axis."""
        n = self.dimension
        sides = np.array([b.sides for b in self.bricks], dtype=np.int64)
        sides = sides.reshape(len(self.bricks), n)
        if self.rotation_policy == ROTATION_FIXED:
            return sides[self.brick_index]
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


def _init_fields(t, box, bricks, brick_index, orientation, origin, policy, placements):
    set_ = object.__setattr__
    set_(t, "box", box)
    set_(t, "bricks", bricks)
    set_(t, "brick_index", brick_index)
    set_(t, "orientation", orientation)
    set_(t, "origin", origin)
    set_(t, "rotation_policy", policy)
    set_(t, "_placements", placements)


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


def _trusted(box, bricks, brick_index, orientation, origin, policy) -> Tiling:
    """A tiling from columns that stack or extrude built from validated tilings.

    Those moves keep every structural check true, so the checks are not
    run again; on tilings of a few placements they cost about as much as
    the move itself.
    """
    t = object.__new__(Tiling)
    columns = (_readonly(brick_index), _readonly(orientation), _readonly(origin))
    _init_fields(t, box, tuple(bricks), *columns, policy, None)
    return t


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
    """
    if len(lo) == 0:
        return None
    box = np.asarray(t.box.sides, dtype=np.int64)
    bad = (lo < 0).any(axis=1) | (lo > box - extents).any(axis=1)
    if bad.any():
        idx = int(np.argmax(bad))
        return VerifyReport(
            valid=False, mode=mode, reason="placement_out_of_bounds", placement_index=idx
        )
    return None


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
    requires each to be covered by exactly one placement.  Candidate
    placements per cell come from a bucket grid over the first three
    axes with bucket width = the largest oriented side, so each
    placement lands in one bucket and each cell probes at most eight.
    A failure names the first sampled cell not covered exactly once and
    its cover count.
    """
    if samples < 1:
        raise PreconditionError(f"samples must be >= 1, got {samples}")
    lo = t.origin
    extents = t.oriented_extents()
    report = _check_fits(t, lo, extents, "sampled")
    if report:
        return report
    hi = lo + extents
    report = _check_volume(t, "sampled")
    if report:
        return report
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, np.asarray(t.box.sides, dtype=np.int64), size=(samples, t.dimension))

    # bucket grid over up to three axes.  Fit and volume hold, so the
    # box's section over them is at most m times the product of the
    # widths, and each width is at most the box's side: that makes at
    # most 8m buckets, since side // width + 1 <= 2 * side / width.
    grid_axes = range(min(3, t.dimension))
    widths = [max(1, int((hi[:, k] - lo[:, k]).max(initial=0))) for k in grid_axes]
    nb = [t.box.sides[k] // widths[k] + 1 for k in grid_axes]

    def bucket_key(coords: np.ndarray) -> np.ndarray:
        key = np.zeros(len(coords), dtype=np.int64)
        for k in grid_axes:
            key = key * nb[k] + coords[:, k] // widths[k]
        return key

    place_key = bucket_key(lo)
    order = np.argsort(place_key, kind="stable")
    lo_sorted = lo[order]
    hi_sorted = hi[order]
    # bucket b's placements are rows bucket_start[b] to bucket_start[b + 1]
    buckets = math.prod(nb)
    bucket_start = np.zeros(buckets + 1, dtype=np.int64)
    np.cumsum(np.bincount(place_key, minlength=buckets), out=bucket_start[1:])

    # probe the cells in bucket order, which keeps the lookups local
    probe_order = np.argsort(bucket_key(pts), kind="stable")
    probes = pts[probe_order]
    counts = np.zeros(samples, dtype=np.int64)
    for s0 in range(0, samples, _SAMPLE_CHUNK):
        cells = probes[s0:s0 + _SAMPLE_CHUNK]
        # a cell can only be covered by a placement whose bucket, along each
        # grid axis, is the cell's own or the one just below it
        for delta in product((0, -1), repeat=len(grid_axes)):
            b = np.zeros(len(cells), dtype=np.int64)
            skip = np.zeros(len(cells), dtype=bool)
            for k in grid_axes:
                bk = cells[:, k] // widths[k] + delta[k]
                skip |= bk < 0
                b = b * nb[k] + bk
            b[skip] = 0
            starts = bucket_start[b]
            sizes = bucket_start[b + 1] - starts
            sizes[skip] = 0
            # one row per (sample, candidate placement) pair
            sample = np.repeat(np.arange(len(cells)), sizes)
            cand = np.arange(len(sample)) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
            inside = np.ones(len(sample), dtype=bool)
            for k in range(t.dimension):
                at = cells[sample, k]
                inside &= (lo_sorted[cand, k] <= at) & (at < hi_sorted[cand, k])
            covered = np.bincount(sample[inside], minlength=len(cells))
            counts[probe_order[s0:s0 + len(cells)]] += covered
    if (counts != 1).any():
        idx = int(np.argmax(counts != 1))
        return VerifyReport(
            valid=False,
            mode="sampled",
            reason="sample_coverage",
            cell=tuple(pts[idx].tolist()),
            cover_count=int(counts[idx]),
        )
    return VerifyReport(valid=True, mode="sampled", samples=samples)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def _by_origin(brick_index, orientation, origin):
    """The columns reordered by origin, lexicographically; ties keep order."""
    order = np.lexsort(origin.T[::-1])
    return brick_index[order], orientation[order], origin[order]


def remap_bricks(t: Tiling, bricks: Sequence[Brick], index_map: Sequence[int]) -> Tiling:
    """Re-point placements at a different brick list; geometry unchanged.

    index_map[i] is the new index of the tiling's brick i; the mapped
    bricks must have identical sides.
    """
    bricks = tuple(bricks)
    for i, old in enumerate(t.bricks):
        if bricks[index_map[i]].sides != old.sides:
            raise ShapeMismatchError(
                f"brick {i} maps to {bricks[index_map[i]].sides}, expected {old.sides}"
            )
    new_index = np.asarray(index_map, dtype=np.int64)[t.brick_index]
    return Tiling.from_arrays(
        t.box, bricks, new_index, t.orientation, t.origin, rotation_policy=t.rotation_policy
    )


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
    for index, orientation, corner, sides in blocks:
        extents = [bricks[index].sides[a] for a in orientation]
        for k, (a, x) in enumerate(zip(sides, extents)):
            if a % x != 0:
                raise DivisibilityError(f"axis {k}: brick side {x} does not divide box side {a}")
            checked_add(corner[k], a - x)  # the last origin along axis k
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
        brick_index, orientation, origin = _by_origin(*map(np.concatenate, zip(*columns)))
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


def extrude(t: Tiling, full_bricks: Sequence[Brick], height_product: int) -> Tiling:
    """Lift an (n-1)-dim tiling to n dimensions at a common height.

    Each input brick must be the last-axis projection of the
    corresponding full brick; every placement becomes a stack of
    height_product / (full brick's last side) copies along the new axis.
    """
    full_bricks = tuple(full_bricks)
    if len(full_bricks) != len(t.bricks):
        raise DimensionMismatchError(
            f"{len(t.bricks)} projected bricks but {len(full_bricks)} full bricks"
        )
    n = t.dimension + 1
    for i, (proj, full) in enumerate(zip(t.bricks, full_bricks)):
        if full.dimension != n:
            raise DimensionMismatchError(
                f"full brick {i} has dimension {full.dimension}, expected {n}"
            )
        if full.sides[:-1] != proj.sides:
            raise DimensionMismatchError(
                f"brick {i}: {proj.sides} is not the projection of {full.sides}"
            )
    if t.rotation_policy != ROTATION_FIXED:
        raise PreconditionError("extrude requires a fixed-orientation tiling")
    if height_product < 1:
        raise PreconditionError(f"height must be >= 1, got {height_product}")
    for i, full in enumerate(full_bricks):
        if height_product % full.sides[-1] != 0:
            raise DivisibilityError(
                f"brick {i}: last side {full.sides[-1]} does not divide height {height_product}"
            )
    heights = np.array([full.sides[-1] for full in full_bricks], dtype=np.int64)[t.brick_index]
    copies = height_product // heights
    source = np.repeat(np.arange(len(copies)), copies)
    level = np.arange(len(source)) - np.repeat(np.cumsum(copies) - copies, copies)
    origin = np.empty((len(source), n), dtype=np.int64)
    origin[:, :-1] = t.origin[source]
    origin[:, -1] = level * heights[source]
    brick_index, orientation, origin = _by_origin(
        t.brick_index[source], np.broadcast_to(np.arange(n), (len(source), n)), origin
    )
    box = BoxShape(t.box.sides + (height_product,))
    return _trusted(box, full_bricks, brick_index, orientation, origin, ROTATION_FIXED)


def stack(parts: Sequence[Tiling], axis: int) -> Tiling:
    """Concatenate tilings along one axis; all other sides must agree."""
    parts = list(parts)
    if not parts:
        raise ShapeMismatchError("cannot stack an empty list of tilings")
    first = parts[0]
    n = first.dimension
    if not 0 <= axis < n:
        raise PreconditionError(f"axis {axis} out of range for dimension {n}")
    ref_other = tuple(s for k, s in enumerate(first.box.sides) if k != axis)
    ref_bricks = tuple(b.sides for b in first.bricks)
    for t in parts[1:]:
        if t.dimension != n:
            raise ShapeMismatchError("stacked tilings must share a dimension")
        other = tuple(s for k, s in enumerate(t.box.sides) if k != axis)
        if other != ref_other:
            raise ShapeMismatchError(
                f"sides off the stacking axis differ: {other} vs {ref_other}"
            )
        if tuple(b.sides for b in t.bricks) != ref_bricks:
            raise ShapeMismatchError("stacked tilings must share the same brick list")
        if t.rotation_policy != first.rotation_policy:
            raise ShapeMismatchError("stacked tilings must share a rotation policy")
    sides = list(first.box.sides)
    sides[axis] = sum(t.box.sides[axis] for t in parts)
    # move each part's rows along axis by the thickness of the parts before it
    origin = np.concatenate([t.origin for t in parts])
    offset = end = 0
    for t in parts:
        start, end = end, end + len(t.brick_index)
        origin[start:end, axis] += offset
        offset += t.box.sides[axis]
    if len(origin) and origin.min() < 0:
        # every origin was >= 0 and every shift is, so this one wrapped around
        raise PreconditionError("joining tilings moves an origin past 2^63 - 1")
    brick_index, orientation, origin = _by_origin(
        np.concatenate([t.brick_index for t in parts]),
        np.concatenate([t.orientation for t in parts]),
        origin,
    )
    box = BoxShape(sides)
    return _trusted(box, first.bricks, brick_index, orientation, origin, first.rotation_policy)

"""Tests for the 2-D deciders, thresholds, square compositions and dissection."""

import functools
import hashlib
import itertools
import warnings
from unittest import mock

import pytest
from brute import bitmask_search
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobtile.codec import encode
from frobtile.constructor import BrickSystem, gn_bound
from frobtile.errors import (
    BoundNotMetError,
    CapExceededError,
    NonCoprimeError,
    NotPrimeError,
    PreconditionError,
)
from frobtile.model import (
    ROTATION_AXIS_PERMUTATIONS,
    ROTATION_FIXED,
    BoxShape,
    Brick,
    Tiling,
    grid_blocks,
    verify_full,
)
from frobtile.oracle import FOUND, INFEASIBLE, SearchConfig, exact_cover_search
from frobtile.planar import (
    Decision,
    compose_squares,
    corollary1_construct,
    corollary1_threshold,
    decide_single_brick,
    Dissection,
    decide_two_squares,
    prime_cubes_bound,
    prime_cubes_construct,
    tile_square_235p,
    two_brick_blocks,
)


def assert_valid(tiling):
    report = verify_full(tiling)
    assert report.valid, str(report)


class TestDecideSingleBrick:
    def test_strip_case(self):
        d = decide_single_brick(5, 6, 2, 3)
        assert d.tileable and d.reason == "strips"
        assert_valid(d.witness)
        assert d.witness.box.sides == (5, 6)

    def test_not_tileable(self):
        d = decide_single_brick(7, 7, 2, 3)
        assert not d.tileable and d.witness is None

    def test_long_odd_box_is_indivisible(self):
        # 2 and 4 divide 4, but the odd side is no combination of them
        d = decide_single_brick(4, 10**7 + 1, 2, 4)
        assert not d.tileable and d.reason == "indivisible"

    def test_exact_fit(self):
        d = decide_single_brick(4, 6, 4, 6)
        assert d.tileable and len(d.witness.placements) == 1

    def test_rotated_grid(self):
        d = decide_single_brick(3, 2, 2, 3)
        assert d.tileable and d.reason == "rotated-grid"
        assert_valid(d.witness)

    def test_square_brick_volume_gap(self):
        # 2x3 against 2x2: each brick side divides a box side, yet the
        # area is not even divisible by 4; the decision must be negative
        assert not decide_single_brick(2, 3, 2, 2).tileable
        assert not decide_single_brick(3, 4, 2, 2).tileable

    def test_unit_brick(self):
        d = decide_single_brick(3, 5, 1, 1)
        assert d.tileable and len(d.witness.placements) == 15

    def test_agrees_with_search_on_small_boxes(self):
        cfg = SearchConfig()
        for a1 in range(1, 7):
            for a2 in range(1, 7):
                for x1 in range(1, 4):
                    for x2 in range(x1, 4):
                        d = decide_single_brick(a1, a2, x1, x2)
                        found = exact_cover_search(
                            BoxShape((a1, a2)), (Brick((x1, x2)),), cfg
                        )
                        assert d.tileable == (found.status == FOUND), (a1, a2, x1, x2)
                        if d.tileable:
                            assert_valid(d.witness)


    def test_last_origin_past_int64_is_overflow(self):
        # the third brick along axis 0 would start at 2^63
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="64-bit contract"):
                decide_single_brick(3 * 2**62, 4, 2**62, 4)
        assert_valid(decide_single_brick(3 * 2**61, 4, 2**61, 4).witness)


# brick pairs in fixed orientation: one brick and its rotation, two
# squares, and pairs with no shared shape, in 2-D and 3-D
TWO_BRICK_PAIRS_2D = [
    ((2, 3), (3, 2)), ((2, 2), (3, 3)), ((2, 3), (5, 2)),
    ((4, 6), (3, 5)), ((2, 5), (3, 4)), ((2, 3), (3, 5)),
]
TWO_BRICK_PAIRS_3D = [
    ((2, 3, 2), (3, 2, 3)), ((2, 2, 3), (3, 3, 2)), ((2, 3, 5), (3, 2, 2)),
]
BOXES_2D = list(itertools.product(range(1, 17), repeat=2))
BOXES_3D = [b for b in itertools.product(range(1, 13), repeat=3) if b[0] * b[1] * b[2] <= 600]


@pytest.mark.parametrize("pairs, boxes", [
    (TWO_BRICK_PAIRS_2D, BOXES_2D),
    (TWO_BRICK_PAIRS_3D, BOXES_3D),
], ids=["2d", "3d"])
def test_two_brick_blocks_agrees_with_search(pairs, boxes):
    # the criterion is for translates only, so the search must not rotate
    cfg = SearchConfig(rotation_policy=ROTATION_FIXED)
    shapes = set()
    for pair in pairs:
        bricks = tuple(Brick(sides) for sides in pair)
        ident = tuple(range(len(pair[0])))
        for box in boxes:
            blocks = two_brick_blocks((0,) * len(box), box, bricks, ((0, ident), (1, ident)))
            found = exact_cover_search(BoxShape(box), bricks, cfg)
            assert (blocks is not None) == (found.status == FOUND), (box, pair)
            if blocks is not None:
                assert 1 <= len(blocks) <= 2
                assert_valid(grid_blocks(box, bricks, blocks, ROTATION_FIXED))
                shapes.add(len(blocks))
    # both grids and cuts occur
    assert shapes == {1, 2}


class TestDecideTwoSquares:
    def test_common_divisor_grid(self):
        d = decide_two_squares(12, 18, 2, 3)
        assert d.tileable and d.reason == "grid"
        # the larger square grids the witness: fewer placements
        assert len(d.witness.placements) == 24
        assert_valid(d.witness)

    def test_strip_case(self):
        d = decide_two_squares(6, 5, 2, 3)
        assert d.tileable and d.reason == "strips"
        assert_valid(d.witness)

    def test_not_tileable(self):
        assert not decide_two_squares(5, 7, 2, 3).tileable

    def test_witness_too_large_to_hold_is_a_cap(self):
        # 2^61 x 3 placements: numpy refuses the columns outright
        with pytest.raises(CapExceededError, match=f"{3 * 2**61} placements"):
            decide_two_squares(2**62, 6, 2, 3)

    def test_coprimality_required(self):
        with pytest.raises(NonCoprimeError):
            decide_two_squares(8, 12, 2, 4)

    def test_agrees_with_search_on_small_boxes(self):
        import math

        cfg = SearchConfig()
        pairs = [(x, y) for x in range(1, 4) for y in range(x + 1, 5) if math.gcd(x, y) == 1]
        for a1 in range(1, 7):
            for a2 in range(1, 7):
                for x, y in pairs:
                    d = decide_two_squares(a1, a2, x, y)
                    found = exact_cover_search(
                        BoxShape((a1, a2)), (Brick((x, x)), Brick((y, y))), cfg
                    )
                    assert d.tileable == (found.status == FOUND), (a1, a2, x, y)
                    if d.tileable:
                        assert_valid(d.witness)


class TestCorollary1:
    def test_threshold_values(self):
        assert corollary1_threshold(6, 4, 5, 7) == 198
        assert corollary1_threshold(5, 2, 3, 7) == 44

    def test_threshold_precondition_gcd(self):
        with pytest.raises(PreconditionError):
            corollary1_threshold(3, 2, 4, 5)  # gcd(qs,qr,rs) = 2

    def test_threshold_precondition_order(self):
        with pytest.raises(PreconditionError):
            corollary1_threshold(5, 2, 7, 3)

    def test_threshold_precondition_pairwise(self):
        with pytest.raises(PreconditionError):
            corollary1_threshold(4, 3, 2, 5)  # gcd(p,r) = 2

    def test_threshold_at_the_int64_edge(self):
        # p * 3 leaves int64, g(p, 3) = 2p - 3 does not
        assert corollary1_threshold(2**62 - 3, 5, 2, 3) == 2**63 - 8
        # g_n = g(p, 3) = 2^63 - 1 fits, the threshold 2^63 does not
        with pytest.raises(OverflowError, match="64-bit contract"):
            corollary1_threshold(2**62 + 1, 5, 2, 3)
        # 2qrs leaves int64, 2qrs - (qr + qs + rs) does not
        with pytest.raises(OverflowError, match="64-bit contract"):
            corollary1_threshold(5, 4194289, 1048577, 1048579)

    def test_threshold_matches_system_bound(self):
        for p, q, r, s in ((6, 4, 5, 7), (5, 2, 3, 7), (7, 2, 3, 5)):
            system = BrickSystem((Brick((p, q)), Brick((r, s)), Brick((s, r))))
            assert corollary1_threshold(p, q, r, s) == gn_bound(system) + 1

    def test_construct_at_threshold(self):
        t = corollary1_construct(198, 198, 6, 4, 5, 7)
        assert tuple(b.sides for b in t.bricks) == ((6, 4), (5, 7), (7, 5))
        assert_valid(t)

    def test_construct_above_threshold(self):
        assert_valid(corollary1_construct(210, 205, 6, 4, 5, 7))

    def test_construct_below_threshold(self):
        with pytest.raises(BoundNotMetError) as info:
            corollary1_construct(100, 100, 6, 4, 5, 7)
        assert info.value.required == 198


class TestPrimeCubes:
    def test_bound_values(self):
        assert prime_cubes_bound([2, 3]) == 1
        assert prime_cubes_bound([2, 3, 5]) == 29
        assert prime_cubes_bound([2, 3, 5, 7]) == 383

    def test_bound_rejects_composite(self):
        with pytest.raises(NotPrimeError):
            prime_cubes_bound([2, 3, 6])

    def test_construct_2d(self):
        t = prime_cubes_construct(30, [2, 3, 5])
        assert t.box.sides == (30, 30)
        assert_valid(t)

    def test_construct_1d(self):
        assert_valid(prime_cubes_construct(4, [2, 3]))

    def test_bound_is_strict(self):
        with pytest.raises(BoundNotMetError) as info:
            prime_cubes_construct(29, [2, 3, 5])
        assert info.value.required == 30
        assert (info.value.axis, info.value.got) == (0, 29)
        # the primes are checked before the box, and the box before the bound
        with pytest.raises(NotPrimeError):
            prime_cubes_construct(29, [2, 3, 6])
        with pytest.raises(PreconditionError, match="box sides must be >= 1"):
            prime_cubes_construct(0, [2, 3, 5])


class TestComposeSquares:
    def test_example_pair(self):
        first, second = compose_squares(2, 3, 5, 9, 1, 1)
        assert first.box.sides == (19, 19)
        assert second.box.sides == (11, 11)
        assert tuple(b.sides for b in first.bricks) == ((2, 2), (3, 3), (5, 5))
        assert_valid(first)
        assert_valid(second)

    def test_second_example(self):
        first, second = compose_squares(2, 3, 5, 6, 1, 2)
        assert first.box.sides == (16, 16)
        assert second.box.sides == (17, 17)
        assert_valid(first)
        assert_valid(second)

    def test_unrepresentable_r(self):
        with pytest.raises(PreconditionError, match="not representable"):
            compose_squares(2, 3, 7, 3, 1, 1)

    def test_divisibility_required(self):
        with pytest.raises(PreconditionError, match="divide"):
            compose_squares(2, 3, 5, 5, 1, 1)


# every window side p < a < 3p left by the grids and compositions, that
# is a = -p (mod 6), for p from 5 to 59 coprime to 6
WINDOW = [
    (a, p)
    for p in range(5, 60)
    if p % 2 and p % 3
    for a in range(p + 1, 3 * p)
    if (a + p) % 6 == 0
]


def mul(s, t):
    """Product in Z[w], w a primitive cube root of unity (w^2 = -1 - w);
    (c0, c1) stands for c0 + c1*w."""
    return (s[0] * t[0] - s[1] * t[1], s[0] * t[1] + s[1] * t[0] - s[1] * t[1])


@functools.cache
def power_sum(z, lo, hi):
    """Sum of z^k over lo <= k < hi, in Z[w]."""
    term, total = (1, 0), (0, 0)
    for k in range(hi):
        if k >= lo:
            total = (total[0] + term[0], total[1] + term[1])
        term = mul(term, z)
    return total


def admissible_origins(a, p):
    """Origins (i, j) of one p-square in the (a x a) square whose
    complement leaves no strip 1 cell wide and, like every region of 2-
    and 3-squares, weighs 0 under x^i y^j at (x, y) = (-1, w) and (w, -1)."""
    def complement_weighs_zero(x, y, i, j):
        whole = mul(power_sum(x, 0, a), power_sum(y, 0, a))
        return whole == mul(power_sum(x, i, i + p), power_sum(y, j, j + p))

    minus_one, w = (-1, 0), (0, 1)
    return [
        (i, j)
        for i in range(a - p + 1)
        for j in range(a - p + 1)
        if 1 not in (i, j, a - p - i, a - p - j)
        and complement_weighs_zero(minus_one, w, i, j)
        and complement_weighs_zero(w, minus_one, i, j)
    ]


class TestTileSquare235p:
    def test_paper_characterization_values(self):
        for a, p in ((7, 5), (11, 7)):
            d = tile_square_235p(a, p)
            assert not d.tileable and d.reason == "weight-invariant"
        d = tile_square_235p(13, 5)
        assert d.tileable and d.reason == "pinwheel"
        assert_valid(d.witness)
        d = tile_square_235p(17, 7)
        assert d.tileable and d.reason == "pinwheel"
        assert_valid(d.witness)

    @pytest.mark.parametrize("a,p,digest", [
        (13, 5, "446afcaeb80a9dcc7ce3df2b6989bfad0005f0eca7a4a8046e0e6e05f6cad75b"),
        (17, 7, "84140c7743778dd9ac7eaa8c978da6410abacc933d890a2c781f0ee7a1ace3ed"),
    ])
    def test_searched_gap_witness_is_pinned(self, a, p, digest):
        result = exact_cover_search(BoxShape((a, a)), [Brick((s, s)) for s in (2, 3, p)])
        assert result.status == FOUND
        assert hashlib.sha256(encode(result.tiling).encode()).hexdigest() == digest

    @pytest.mark.parametrize("a,p,digest", [
        (13, 5, "99b7a6c1c217ce8de4b0729b2997cc9b2699086b7eba9b77f19504b4e1868706"),
        (17, 7, "098bb69c750bdbeb21fdd885f725b6494f6ac43a8193a3ee3a8c6399277d0f8e"),
    ])
    def test_pinwheel_witness_is_pinned(self, a, p, digest):
        d = tile_square_235p(a, p)
        assert d.reason == "pinwheel"
        assert hashlib.sha256(encode(d.witness).encode()).hexdigest() == digest

    def test_window_is_settled_by_pinwheel_or_weights(self):
        for a, p in WINDOW:
            d = tile_square_235p(a, p)
            s0 = p + (10 if p % 6 == 1 else 14)
            assert d.tileable == (a >= s0 or (a, p) == (13, 5)), (a, p)
            if d.tileable:
                assert d.reason == "pinwheel" and d.witness.box.sides == (a, a)
                assert_valid(d.witness)
            else:
                assert d.reason == "weight-invariant"

    def test_weight_invariant_leaves_no_origin(self):
        decisions = [(a, p, tile_square_235p(a, p)) for a, p in WINDOW]
        negatives = [(a, p) for a, p, d in decisions if not d.tileable]
        assert len(negatives) == 28
        for a, p in negatives:
            assert a < 2 * p  # so at most one p-square fits
            assert admissible_origins(a, p) == [], (a, p)
        # the origin test is not vacuous: each pinwheel below 2p puts its
        # p-square on an admissible origin
        for a, p, d in decisions:
            if d.tileable and a < 2 * p:
                (origin,) = d.witness.origin[d.witness.brick_index == 2].tolist()
                assert tuple(origin) in admissible_origins(a, p), (a, p)

    def test_weight_invariant_agrees_with_search(self):
        # the negatives with p <= 23 but 31 at p = 23, whose search takes
        # 555,576 nodes and 2.4 to 4.3 s (2 CPUs, Python 3.11)
        negatives = [(a, p) for a, p in WINDOW if a <= 25 and not tile_square_235p(a, p).tileable]
        assert negatives == [
            (7, 5), (11, 7), (13, 11), (19, 11), (17, 13), (19, 17), (25, 17), (23, 19), (25, 23)
        ]
        for a, p in negatives:
            result = exact_cover_search(BoxShape((a, a)), [Brick((s, s)) for s in (2, 3, p)])
            assert result.status == INFEASIBLE, (a, p, str(result))

    def test_brick_sized_square(self):
        d = tile_square_235p(5, 5)
        assert d.tileable and len(d.witness.placements) == 1

    def test_branch_tags(self):
        assert tile_square_235p(35, 5).reason == "grid"  # 5 | 35
        assert tile_square_235p(12, 7).reason == "grid"
        assert tile_square_235p(11, 5).reason == "composition"  # 11 = 5 + 6
        assert tile_square_235p(23, 7).reason == "composition"  # r = 9 >= 7
        assert tile_square_235p(1, 5).reason == "too-small"

    def test_sweep_p5(self):
        bad = [a for a in range(1, 31) if not tile_square_235p(a, 5).tileable]
        assert bad == [1, 7]

    def test_sweep_p7(self):
        bad = [a for a in range(1, 31) if not tile_square_235p(a, 7).tileable]
        assert bad == [1, 5, 11]

    def test_witnesses_verify_full(self):
        for a in range(1, 31):
            d = tile_square_235p(a, 7)
            if d.tileable:
                assert_valid(d.witness)

    def test_window_pinwheel_p11(self):
        # 13 and 19 are provably impossible; 25 and 31 are single pinwheels
        assert not tile_square_235p(13, 11).tileable
        assert not tile_square_235p(19, 11).tileable
        for a in (25, 31):
            d = tile_square_235p(a, 11)
            assert d.tileable and d.reason == "pinwheel"
            assert d.witness.box.sides == (a, a)
            assert_valid(d.witness)

    def test_composite_p_allowed(self):
        d = tile_square_235p(31, 25)  # 31 = 25 + 6, matching residue
        assert d.tileable and d.reason == "composition"
        assert_valid(d.witness)

    def test_p_preconditions(self):
        for p in (4, 9, 15, 3, 2, 1):
            with pytest.raises(PreconditionError):
                tile_square_235p(10, p)

    def test_witness_requires_positive_verdict(self):
        witness = tile_square_235p(5, 5).witness
        with pytest.raises(PreconditionError):
            Decision(False, witness, "nonsense")


# the decisions the witness digest covers: every 2/3/p side up to 4p, and
# every box with sides <= 30 against a few bricks and square pairs
DIGEST_SIDES = range(1, 31)
DIGEST_BRICKS = [(2, 3), (3, 2), (2, 4), (3, 5), (4, 6), (1, 7), (6, 10)]
DIGEST_SQUARES = [(2, 3), (2, 5), (3, 5), (4, 7), (5, 3)]
WITNESS_DIGEST = "9f7abe3dbba1a5dc680fedae217205ea4e2edd67495bc8f3843c2767ea76c4f8"


def witness_digest(decisions):
    """One sha256 over each (label, decision)'s verdict, reason and encoded witness."""
    h = hashlib.sha256()
    for label, d in decisions:
        h.update(f"{label} {d}\n".encode())
        if d.witness is not None:
            h.update(encode(d.witness).encode())
    return h.hexdigest()


def box_decisions(sides, bricks, squares):
    """(label, decision) for every box with these sides against each brick and square pair."""
    for a1 in sides:
        for a2 in sides:
            for x1, x2 in bricks:
                yield f"brick {a1} {a2} {x1} {x2}", decide_single_brick(a1, a2, x1, x2)
            for x, y in squares:
                yield f"squares {a1} {a2} {x} {y}", decide_two_squares(a1, a2, x, y)


def test_decider_witnesses_are_pinned():
    squares_235p = (
        (f"235p {a} {p}", tile_square_235p(a, p))
        for p in (5, 7, 11, 13, 17)
        for a in range(1, 4 * p + 1)
    )
    boxes = box_decisions(DIGEST_SIDES, DIGEST_BRICKS, DIGEST_SQUARES)
    assert witness_digest(itertools.chain(squares_235p, boxes)) == WITNESS_DIGEST


# ties the digest above does not reach: square bricks, whose grid is
# "grid" and never "rotated-grid"; bricks whose short side divides the
# long one; equal squares and squares of side 1
TIE_SIDES = range(1, 13)
TIE_BRICKS = [(1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (2, 6)]
TIE_SQUARES = [(1, 1), (1, 2), (2, 1), (1, 3)]
TIE_DIGEST = "3eb27afdf4048636bbdd04240cc55b7872eecbea990750cb70c29d938a08d82a"


def test_tie_breaks_are_pinned():
    assert witness_digest(box_decisions(TIE_SIDES, TIE_BRICKS, TIE_SQUARES)) == TIE_DIGEST


@pytest.mark.parametrize("decide, args", [
    (decide_single_brick, (4, 6, 2, 3)),
    (decide_single_brick, (5, 6, 2, 3)),
    (decide_two_squares, (12, 13, 2, 3)),
    (tile_square_235p, (4, 5)),
    (tile_square_235p, (43, 5)),
    (tile_square_235p, (29, 11)),
    (tile_square_235p, (25, 11)),
    (tile_square_235p, (13, 5)),
])
def test_each_witness_is_one_tiling(decide, args):
    # every Tiling has its fields set by Tiling._fill
    with mock.patch.object(Tiling, "_fill", autospec=True, side_effect=Tiling._fill) as init:
        d = decide(*args)
    assert d.tileable
    assert init.call_count == 1


def test_each_composed_square_is_one_tiling():
    with mock.patch.object(Tiling, "_fill", autospec=True, side_effect=Tiling._fill) as init:
        compose_squares(2, 3, 5, 9, 1, 1)
    assert init.call_count == 2


@st.composite
def dissection_instances(draw, max_bricks):
    """A box and one to max_bricks bricks: 2-D boxes to 9 x 9, or 3-D
    boxes of at most 64 cells with no two bricks of shape k x 1 x 1 in
    any order, past which the reference engine slows sharply."""
    if draw(st.booleans()):
        box = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        brick = st.tuples(st.integers(1, 6), st.integers(1, 6))
        return box, draw(st.lists(brick, min_size=1, max_size=max_bricks))
    a = draw(st.integers(1, 6))
    b = draw(st.integers(1, min(6, 64 // a)))
    box = (a, b, draw(st.integers(1, min(6, 64 // (a * b)))))
    brick = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    sides = draw(st.lists(brick, min_size=1, max_size=max_bricks).filter(
        lambda sides: sum(sorted(s)[1] == 1 for s in sides) < 2))
    return box, sides


@settings(max_examples=200, deadline=None)
@given(dissection_instances(3), st.sampled_from([ROTATION_FIXED, ROTATION_AXIS_PERMUTATIONS]))
def test_dissection_is_sound(instance, policy):
    """Every box dissection settles, in 2-D or 3-D, has a tiling by the
    earlier engine, and the dissection's blocks are one."""
    box, sides = instance
    bricks = [Brick(s) for s in sides]
    blocks = Dissection(bricks, policy).blocks(box)
    if blocks is not None:
        assert bitmask_search(box, sides, policy)[0] != INFEASIBLE
        assert_valid(grid_blocks(box, bricks, blocks, policy))


@settings(max_examples=200, deadline=None)
@given(dissection_instances(2), st.sampled_from([ROTATION_FIXED, ROTATION_AXIS_PERMUTATIONS]))
def test_dissection_is_exact_over_two_tiles(instance, policy):
    """Over one brick turning, or one or two bricks fixed, dissection
    settles exactly the boxes that have a tiling, in 2-D and 3-D."""
    box, sides = instance
    if policy == ROTATION_AXIS_PERMUTATIONS:
        sides = sides[:1]
    dissection = Dissection([Brick(s) for s in sides], policy)
    # a 2-D brick turning has two orientations, a 3-D one up to six
    assert len(box) == 3 or len(dissection.tiles) <= 2
    assume(len(dissection.tiles) <= 2)
    tileable = bitmask_search(box, sides, policy)[0] != INFEASIBLE
    assert bool(dissection.settled(box)) == tileable


@pytest.mark.parametrize("sides", [[2], [4, 6, 10]])
def test_dissection_refuses_unreachable_sides_at_once(sides):
    # 63 is no sum of even sides, so no cut or pinwheel is tried
    dissection = Dissection([Brick((s, s)) for s in sides])
    assert dissection.settled((63, 63)) is False
    assert dissection.blocks((63, 63)) is None
    assert dissection.memo == {(63, 63): False}


@pytest.mark.parametrize("a, p, ringed", [(13, 5, (7, 13)), (17, 7, (11, 17))])
def test_dissection_settles_gap_squares_by_pinwheel(a, p, ringed):
    # guillotine cuts alone leave these squares: a 6-row strip is cut
    # off, and the rest is a 3-square ringed by four rectangles
    bricks = [Brick((s, s)) for s in (2, 3, p)]
    dissection = Dissection(bricks)
    assert dissection.settled((a, a)) == ("cut", 0, 6)
    assert dissection.memo[ringed][:2] == ("pinwheel", (1, (0, 1)))
    assert_valid(grid_blocks((a, a), bricks, dissection.blocks((a, a))))


def test_dissection_witnesses_verify_for_every_record_kind():
    # every box to 19 x 19 over {2,3,5}, whose records hold grids, strips,
    # cuts on both axes and pinwheels, all in one memo
    bricks = [Brick((s, s)) for s in (2, 3, 5)]
    dissection = Dissection(bricks)
    for box in itertools.product(range(1, 20), repeat=2):
        blocks = dissection.blocks(box)
        if blocks is not None:
            assert_valid(grid_blocks(box, bricks, blocks))
    kinds = {how[:2] if how[0] == "cut" else how[0] for how in dissection.memo.values() if how}
    assert kinds == {"tiles", ("cut", 0), ("cut", 1), "pinwheel"}


def test_dissection_follows_the_rotation_policy():
    # one 2 x 3 brick fixed does not tile 9 x 4; turned, it does
    bricks = [Brick((2, 3))]
    assert Dissection(bricks).blocks((4, 9)) is not None
    assert Dissection(bricks).blocks((9, 4)) is None
    blocks = Dissection(bricks, ROTATION_AXIS_PERMUTATIONS).blocks((9, 4))
    assert_valid(grid_blocks((9, 4), bricks, blocks, ROTATION_AXIS_PERMUTATIONS))


def test_cube_dissection_leaves_the_known_sides():
    # over cubes {2,3,5,7}: 11 and 13 have no tiling, 17 tiles but by no
    # dissection, and 19, 23 and 37 are open
    bricks = [Brick((s, s, s)) for s in (2, 3, 5, 7)]
    dissection = Dissection(bricks)
    left = [a for a in range(1, 41) if not dissection.settled((a, a, a))]
    assert left == [1, 11, 13, 17, 19, 23, 37]
    for a in sorted(set(range(1, 41)) - set(left)):
        assert_valid(grid_blocks((a, a, a), bricks, dissection.blocks((a, a, a))))


def test_dissection_validates():
    with pytest.raises(PreconditionError, match="all of one dimension"):
        Dissection([Brick((1, 1)), Brick((1, 1, 1))])
    with pytest.raises(PreconditionError):
        Dissection([])
    with pytest.raises(PreconditionError):
        Dissection([Brick((1, 1))], "mirrored")
    with pytest.raises(PreconditionError, match="need a 2-D box"):
        Dissection([Brick((1, 1))]).settled((2, 2, 2))
    with pytest.raises(PreconditionError, match="need a 3-D box"):
        Dissection([Brick((1, 1, 1))]).blocks((2, 2))
    with pytest.raises(PreconditionError):
        Dissection([Brick((1, 1))]).blocks((0, 2))

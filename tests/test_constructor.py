"""Brick systems, admissibility, bounds, and the box constructor."""

import hashlib
import math
import random
from itertools import combinations
from unittest import mock

import pytest

from frobtile import constructor, semigroup
from frobtile.constructor import (
    AdmissibilityReport,
    BrickSystem,
    check_admissible,
    construct_box,
    gn_bound,
    xk_generators,
)
from frobtile.errors import (
    BoundNotMetError,
    DimensionMismatchError,
    NotAdmissibleError,
    PreconditionError,
)
from frobtile.codec import encode
from frobtile.model import BoxShape, Brick, Tiling, verify_full
from frobtile.semigroup import frobenius_general, quotient_frobenius


def rect_system():
    # the 2-D workhorse: one p x q brick plus an r x s brick both ways
    return BrickSystem([Brick((6, 4)), Brick((5, 7)), Brick((7, 5))])


def mixed_system():
    # distinct primes along each axis, no brick with two equal sides
    return BrickSystem([Brick(s) for s in [(2, 3, 5), (3, 5, 7), (5, 7, 2), (7, 2, 3)]])


def squares_system(values):
    n = len(values) - 1
    return BrickSystem([Brick((v,) * n) for v in values])


def test_system_validation():
    with pytest.raises(PreconditionError):
        BrickSystem([Brick((2, 2))])  # 2-D needs 3 bricks
    with pytest.raises(PreconditionError):
        BrickSystem([Brick((1, 2)), Brick((3, 4)), Brick((5, 6))])
    with pytest.raises(DimensionMismatchError):
        BrickSystem([Brick((2, 2)), Brick((3, 3)), Brick((5, 5, 5))])


def test_xk_generators():
    sys = rect_system()
    assert xk_generators(sys, 2, (0, 1, 2)).generators == (20, 28, 35)
    assert xk_generators(sys, 1, (0, 1)).generators == (5, 6)
    sq = squares_system([2, 3, 5])
    assert xk_generators(sq, 2, (0, 1, 2)).generators == (6, 10, 15)
    with pytest.raises(PreconditionError):
        xk_generators(sys, 3, (0, 1, 2))
    with pytest.raises(PreconditionError):
        xk_generators(sys, 2, (0, 1))


def test_check_admissible():
    assert check_admissible(rect_system()).valid
    report = check_admissible(squares_system([2, 4, 3]))
    assert not report.valid
    assert report.axis == 1
    assert report.subset == (0, 1)
    assert report.gcd == 2
    assert check_admissible(BrickSystem([Brick((4,)), Brick((9,))])).valid


def test_gn_bound():
    assert gn_bound(rect_system()) == 197
    assert gn_bound(squares_system([2, 3, 5])) == 29
    assert gn_bound(BrickSystem([Brick((5,)), Brick((7,))])) == 23
    with pytest.raises(NotAdmissibleError):
        gn_bound(squares_system([2, 4, 3]))


def test_gn_bound_closed_form_matches_apery_tables():
    """Admissible means pairwise coprime sides per axis; then every X_k
    set's Frobenius number is quotient_frobenius of its sides."""
    rng = random.Random(16)

    def axis_sides(count, coprime):
        sides = []
        while len(sides) < count:
            v = rng.randint(2, 30)
            if not coprime or all(math.gcd(v, u) == 1 for u in sides):
                sides.append(v)
        return sides

    admissible = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        axes = [axis_sides(n + 1, rng.random() < 0.8) for _ in range(n)]
        sys = BrickSystem([Brick(sides) for sides in zip(*axes)])
        coprime = all(
            math.gcd(a.sides[k], b.sides[k]) == 1
            for k in range(n)
            for a, b in combinations(sys.bricks, 2)
        )
        assert check_admissible(sys).valid == coprime, sys
        if not coprime:
            continue
        admissible += 1
        general = [frobenius_general(S) for S in constructor._xk_sets(sys).values()]
        closed = [
            quotient_frobenius([sys.bricks[i].sides[k - 1] for i in subset])
            for k, subset in constructor._xk_sets(sys)
        ]
        assert closed == general, sys
        assert gn_bound(sys) == max(general)
    assert admissible > 100


def test_construct_1d_segments():
    t = construct_box(BoxShape((24,)), BrickSystem([Brick((5,)), Brick((7,))]))
    assert verify_full(t).valid
    lengths = [t.bricks[p.brick_index].sides[0] for p in t.placements]
    assert lengths == [5, 5, 7, 7]


def test_construct_squares_30():
    t = construct_box(BoxShape((30, 30)), squares_system([2, 3, 5]))
    assert verify_full(t).valid
    assert t.rotation_policy == "fixed"
    used = {t.bricks[p.brick_index].sides for p in t.placements}
    assert used <= {(2, 2), (3, 3), (5, 5)}


def test_construct_rect_198():
    t = construct_box(BoxShape((198, 198)), rect_system())
    assert verify_full(t).valid
    assert all(p.orientation == (0, 1) for p in t.placements)
    used = {t.bricks[p.brick_index].sides for p in t.placements}
    assert used <= {(6, 4), (5, 7), (7, 5)}


def test_construct_uneven_box():
    t = construct_box(BoxShape((205, 199)), rect_system())
    assert t.box.sides == (205, 199)
    assert verify_full(t).valid


def test_construct_bound_not_met():
    with pytest.raises(BoundNotMetError) as exc:
        construct_box(BoxShape((29, 30)), squares_system([2, 3, 5]))
    assert exc.value.axis == 0
    assert exc.value.required == 30
    assert exc.value.got == 29


def test_construct_rejects_inadmissible():
    with pytest.raises(NotAdmissibleError):
        construct_box(BoxShape((100, 100)), squares_system([2, 4, 3]))
    # admissibility is checked before the box's dimension
    with pytest.raises(NotAdmissibleError):
        construct_box(BoxShape((100, 100, 100)), squares_system([2, 4, 3]))


def test_construct_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        construct_box(BoxShape((30, 30, 30)), squares_system([2, 3, 5]))


def test_construct_checks_dimension_before_the_bound():
    # a system with large sides can need a huge Apery table; a box of the
    # wrong dimension is rejected without building one
    with mock.patch.object(semigroup, "_prefix_tables", side_effect=AssertionError):
        with pytest.raises(DimensionMismatchError):
            construct_box(BoxShape((30, 30, 30)), squares_system([2, 3, 5]))


def test_construct_builds_each_xk_sets_tables_once(monkeypatch):
    # distinct primes per axis, so the four X_2 sets and the X_3 set differ;
    # the bound is in closed form, so only represent reads tables, and it
    # reads each set's at most once
    sys = mixed_system()
    builds, read = [], set()
    build, rep = semigroup._prefix_tables, constructor.represent
    monkeypatch.setattr(semigroup, "_prefix_tables", lambda gens: builds.append(gens) or build(gens))
    monkeypatch.setattr(constructor, "represent", lambda a, S: read.add(S.generators) or rep(a, S))
    t = construct_box(BoxShape((384, 385, 386)), sys)
    assert t.box.sides == (384, 385, 386)
    tabled = {S.generators for S in constructor._xk_sets(sys).values() if len(S) > 2}
    assert len(tabled) == 5
    assert len(builds) == len(set(builds))
    assert set(builds) == read & tabled


def test_construct_random_prime_systems():
    """Soundness on random admissible 2-D systems near the bound."""
    rng = random.Random(20)
    primes = [2, 3, 5, 7]
    for _ in range(6):
        xs = rng.sample(primes, 3)
        ys = rng.sample(primes, 3)
        sys = BrickSystem([Brick((x, y)) for x, y in zip(xs, ys)])
        assert check_admissible(sys).valid  # distinct primes per axis
        g = gn_bound(sys)
        box = BoxShape((g + 1 + rng.randint(0, 4), g + 1 + rng.randint(0, 4)))
        t = construct_box(box, sys)
        report = verify_full(t)
        assert report.valid, (xs, ys, box.sides, str(report))


# sha256 over encode() of each tiling of _construct_corpus, in order,
# recorded before construct_box built its boxes as grid blocks
CONSTRUCT_DIGEST = "ffb1b125672ac25e6911f89b6ae0299fa6d44176ac894e1c3d00c61a3fda7bf3"


def _construct_corpus():
    """(box, system) pairs in 1-D to 3-D, the cube and a mixed 3-D box."""
    for box, lengths in [((24,), (5, 7)), ((30,), (2, 3)), ((101,), (4, 9)), ((200,), (7, 11))]:
        yield BoxShape(box), BrickSystem([Brick((v,)) for v in lengths])
    for box in [(198, 198), (205, 199), (250, 211)]:
        yield BoxShape(box), rect_system()
    for box in [(30, 30), (31, 44), (57, 41)]:
        yield BoxShape(box), squares_system([2, 3, 5])
    rng = random.Random(13)
    for n in (2, 2, 2, 3):
        # distinct primes along each axis make the system admissible
        axes = [rng.sample([2, 3, 5, 7], n + 1) for _ in range(n)]
        sys = BrickSystem([Brick(s) for s in zip(*axes)])
        g = gn_bound(sys)
        yield BoxShape([g + 1 + rng.randint(0, 5) for _ in range(n)]), sys
    yield BoxShape((384,) * 3), squares_system([2, 3, 5, 7])
    yield BoxShape((384, 385, 386)), mixed_system()


def test_constructed_tilings_are_pinned():
    digest = hashlib.sha256()
    for box, sys in _construct_corpus():
        digest.update(encode(construct_box(box, sys)).encode())
    assert digest.hexdigest() == CONSTRUCT_DIGEST


@pytest.mark.parametrize("box, sys", [
    (BoxShape((24,)), BrickSystem([Brick((5,)), Brick((7,))])),
    (BoxShape((205, 199)), rect_system()),
    (BoxShape((384, 385, 386)), mixed_system()),
])
def test_construct_makes_one_tiling(box, sys):
    # every Tiling has its fields set by Tiling._fill
    with mock.patch.object(Tiling, "_fill", autospec=True, side_effect=Tiling._fill) as fill:
        t = construct_box(box, sys)
    assert fill.call_count == 1
    assert t.box == box

"""Acceptance suite: one end-to-end check per shipping criterion.

Each test covers one numbered criterion, prints a single
"PASS criterion N" line with its measured runtime, and fails if the
stated time budget is exceeded.  Expected values come from the
independent brute-force oracle in brute.py or from closed forms that
the unit suites already cross-check; nothing here is tuned to match
the implementation under test.

Run with -s to see the PASS lines on a green run.
"""

import math
import time
from itertools import combinations, permutations
from random import Random

import pytest

from brute import brute_frobenius
from frobtile import (
    BoxShape,
    Brick,
    BrickSystem,
    GeneratorSet,
    SearchConfig,
    compose_squares,
    corollary1_construct,
    corollary1_threshold,
    decide_single_brick,
    decide_two_squares,
    exact_cover_search,
    frobenius_general,
    frobenius_pair,
    gn_bound,
    pair_representation,
    prime_cubes_bound,
    prime_cubes_construct,
    quotient_set,
    reduce_brauer_shockley,
    represent,
    threshold_scan,
    tile_square_235p,
    verify_full,
    verify_sampled,
)

FOUND = "found"
INFEASIBLE = "infeasible"


def _conclude(num: int, started: float, budget: float, detail: str) -> None:
    """Print the one-line verdict and enforce the time budget."""
    elapsed = time.monotonic() - started
    print(f"PASS criterion {num}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed <= budget, (
        f"criterion {num} exceeded its time budget: {elapsed:.2f}s > {budget}s"
    )


def _assert_valid(t, context: str) -> None:
    report = verify_full(t)
    assert report.valid, f"{context}: {report}"


def test_criterion_01_frobenius_matches_brute_force():
    """All three Frobenius paths agree with the reachability scan.

    Every valid generator set with elements in 2..40 and at most four
    elements; pairs additionally go through the closed form.
    """
    started = time.monotonic()
    checked = 0
    for size in (2, 3, 4):
        for gens in combinations(range(2, 41), size):
            if math.gcd(*gens) != 1:
                continue
            expected = brute_frobenius(list(gens))
            S = GeneratorSet(gens)
            assert frobenius_general(S) == expected, gens
            assert reduce_brauer_shockley(S) == expected, gens
            if size == 2:
                assert frobenius_pair(*gens) == expected, gens
            checked += 1
    assert checked > 80_000
    _conclude(1, started, 10.0, f"{checked} generator sets agree with brute force")


def test_criterion_02_threshold_instance_and_paths():
    """corollary1_threshold(6,4,5,7) is 198; g({20,28,35}) is 197 three ways."""
    started = time.monotonic()
    threshold = corollary1_threshold(6, 4, 5, 7)
    assert threshold == 198
    # far below the classical sufficiency bound of 2214 for this system
    assert threshold < 2214
    S = GeneratorSet((20, 28, 35))
    assert frobenius_general(S) == 197
    assert reduce_brauer_shockley(S) == 197
    assert brute_frobenius([20, 28, 35]) == 197
    _conclude(2, started, 10.0, "threshold 198, g({20,28,35}) = 197 via 3 paths")


def test_criterion_03_constructive_sweep_198_to_210():
    """Every box with both sides in 198..210 tiles with the three bricks."""
    started = time.monotonic()
    expected_bricks = ((6, 4), (5, 7), (7, 5))
    boxes = 0
    for a1 in range(198, 211):
        for a2 in range(198, 211):
            t = corollary1_construct(a1, a2, 6, 4, 5, 7)
            assert t.box.sides == (a1, a2)
            assert tuple(b.sides for b in t.bricks) == expected_bricks
            _assert_valid(t, f"box {a1}x{a2}")
            boxes += 1
    assert boxes == 169
    _conclude(3, started, 120.0, "169 boxes constructed and fully verified")


def test_criterion_04_prime_squares_2_3_5():
    """Bound 29 for squares {2,3,5}; construct and verify sides 30..60."""
    started = time.monotonic()
    assert prime_cubes_bound((2, 3, 5)) == 29
    for a in range(30, 61):
        t = prime_cubes_construct(a, (2, 3, 5))
        assert t.box.sides == (a, a)
        _assert_valid(t, f"square side {a}")
    _conclude(4, started, 60.0, "bound 29; sides 30..60 constructed and verified")


def test_criterion_05_prime_cubes_2_3_5_7():
    """Bound 383 for cubes {2,3,5,7}; side 384 builds and samples Valid."""
    started = time.monotonic()
    assert prime_cubes_bound((2, 3, 5, 7)) == 383
    t = prime_cubes_construct(384, (2, 3, 5, 7))
    assert t.box.sides == (384, 384, 384)
    assert t.placement_volume() == 384**3
    report = verify_sampled(t, samples=100_000, seed=0)
    assert report.valid, str(report)
    assert report.samples == 100_000
    _conclude(
        5,
        started,
        300.0,
        f"side-384 cube: {len(t.placements)} placements, exact volume, sampled Valid",
    )


def test_criterion_06_squares_2_3_5_characterization():
    """Only 1x1 and 7x7 resist squares {2,3,5}; the decider agrees on 1..60."""
    started = time.monotonic()
    bricks = (Brick((2, 2)), Brick((3, 3)), Brick((5, 5)))
    assert threshold_scan(bricks, 30) == [1, 7]
    for a in range(1, 61):
        decision = tile_square_235p(a, 5)
        assert decision.tileable == (a not in (1, 7)), a
        if decision.tileable:
            assert decision.witness.box.sides == (a, a)
            _assert_valid(decision.witness, f"witness side {a}")
    result = exact_cover_search(BoxShape((7, 7)), bricks)
    assert result.status == INFEASIBLE
    _conclude(6, started, 10.0, "misses {1,7}; decider agrees on 1..60; 7x7 Infeasible")


def test_criterion_07_squares_2_3_7_characterization():
    """Squares {2,3,7} miss exactly sides 1, 5, 11 up to 30."""
    started = time.monotonic()
    bricks = (Brick((7, 7)), Brick((3, 3)), Brick((2, 2)))
    assert threshold_scan(bricks, 30) == [1, 5, 11]
    found = exact_cover_search(BoxShape((17, 17)), bricks)
    assert found.status == FOUND
    _assert_valid(found.tiling, "17x17 search witness")
    missing = exact_cover_search(BoxShape((11, 11)), bricks)
    assert missing.status == INFEASIBLE
    _conclude(7, started, 600.0, "misses {1,5,11}; 17x17 Found; 11x11 Infeasible")


def test_criterion_08_deciders_match_oracle():
    """Closed-form deciders agree with complete search on small boxes.

    All boxes up to 10x10; single bricks with sides up to 4 and coprime
    square pairs with sides up to 4.  Positive witnesses fully verify.
    """
    started = time.monotonic()
    single = [(x1, x2) for x1 in range(1, 5) for x2 in range(x1, 5)]
    pairs = [
        (x, y)
        for x in range(1, 5)
        for y in range(x + 1, 5)
        if math.gcd(x, y) == 1
    ]
    cfg = SearchConfig()
    checked = 0
    for a1 in range(1, 11):
        for a2 in range(1, 11):
            box = BoxShape((a1, a2))
            for x1, x2 in single:
                decision = decide_single_brick(a1, a2, x1, x2)
                result = exact_cover_search(box, (Brick((x1, x2)),), cfg)
                assert decision.tileable == (result.status == FOUND), (a1, a2, x1, x2)
                if decision.tileable:
                    _assert_valid(decision.witness, f"{a1}x{a2} brick {x1}x{x2}")
                checked += 1
            for x, y in pairs:
                decision = decide_two_squares(a1, a2, x, y)
                result = exact_cover_search(box, (Brick((x, x)), Brick((y, y))), cfg)
                assert decision.tileable == (result.status == FOUND), (a1, a2, x, y)
                if decision.tileable:
                    _assert_valid(decision.witness, f"{a1}x{a2} squares {x},{y}")
                checked += 1
    assert checked == 100 * (len(single) + len(pairs))
    _conclude(8, started, 300.0, f"{checked} decider verdicts match the oracle")


def test_criterion_09_subset_bound_monotonicity():
    """Surplus bounds of prime subsets stay below the full tuple's bound.

    For every ascending prime tuple of 2..4 elements from
    {2,3,5,7,11,13} and every sub-tuple of >= 2 primes, the quotient
    set's Frobenius number is at most the full tuple's, with equality
    only at the full tuple.  The hypercube-system bound agrees with the
    closed form throughout.
    """
    started = time.monotonic()
    pool = (2, 3, 5, 7, 11, 13)
    tuples = 0
    for size in (2, 3, 4):
        for primes in combinations(pool, size):
            top = frobenius_general(quotient_set(primes))
            for sub_size in range(2, size + 1):
                for sub in combinations(primes, sub_size):
                    g_sub = frobenius_general(quotient_set(sub))
                    if sub == primes:
                        assert g_sub == top
                    else:
                        assert g_sub < top, (primes, sub)
            n = size - 1
            system = BrickSystem(tuple(Brick((p,) * n) for p in primes))
            assert prime_cubes_bound(primes) == gn_bound(system) == top
            tuples += 1
    assert tuples == 50
    _conclude(9, started, 10.0, f"{tuples} prime tuples: subset bounds strictly below")


def test_criterion_10_square_compositions_verify():
    """Every composable parameter choice yields two fully valid squares.

    Grid: distinct prime roles a,b,c from {2,3,5,7}, r <= 30, L <= 3,
    k <= 2, restricted to choices meeting the construction's own
    preconditions.  Identical outputs are verified once.
    """
    started = time.monotonic()
    verified: set = set()
    combos = 0
    for a, b, c in permutations((2, 3, 5, 7), 3):
        for r in range(1, 31):
            if r % b != 0 or pair_representation(r, a, c) is None:
                continue
            for L in range(1, 4):
                if pair_representation(L * c, a, b) is None:
                    continue
                for k in (1, 2):
                    first, second = compose_squares(a, b, c, r, L, k)
                    assert first.box.sides == (r + a * c,) * 2
                    assert second.box.sides == (L * c + k * a * b,) * 2
                    key1 = ("first", a, b, c, r)
                    if key1 not in verified:
                        _assert_valid(first, f"first square {key1}")
                        verified.add(key1)
                    key2 = ("second", a, b, c, L, k)
                    if key2 not in verified:
                        _assert_valid(second, f"second square {key2}")
                        verified.add(key2)
                    combos += 1
    assert combos > 500
    _conclude(
        10,
        started,
        60.0,
        f"{combos} parameter choices, {len(verified)} distinct squares verified",
    )


def test_criterion_11_scaling_identity_randomized():
    """Scaling all but one generator by coprime d shifts g predictably.

    200 random valid instances: g(d*t_1..d*t_k, s) must equal
    d*g(t_1..t_k, s) + (d-1)*s exactly when gcd(d, s) = 1.
    """
    started = time.monotonic()
    rng = Random(20260817)
    produced = 0
    attempts = 0
    while produced < 200:
        attempts += 1
        assert attempts < 10_000, "instance sampling should not struggle"
        core = sorted({rng.randint(2, 30) for _ in range(rng.randint(2, 4))})
        s = rng.randint(2, 30)
        d = rng.randint(1, 6)
        if len(core) < 2 or math.gcd(*core, s) != 1 or math.gcd(d, s) != 1:
            continue
        base = frobenius_general(GeneratorSet(core + [s]))
        scaled = frobenius_general(GeneratorSet([d * t for t in core] + [s]))
        assert scaled == d * base + (d - 1) * s, (core, s, d)
        produced += 1
    _conclude(11, started, 5.0, "200 randomized instances match exactly")


def test_criterion_12_frobenius_at_m_one_million():
    """m = 10^6: the three semigroup paths agree within the budget.

    One fixed set of five generators in [m, 2m), no four of them sharing
    a factor, so no reduction applies and every path reads a table of a
    million residues.
    """
    started = time.monotonic()
    gens = (1_000_000, 1_234_567, 1_414_213, 1_618_033, 1_732_051)
    assert all(math.gcd(*(gens[:j] + gens[j + 1:])) == 1 for j in range(len(gens)))
    S = GeneratorSet(gens)
    g = frobenius_general(S)
    assert reduce_brauer_shockley(S) == g
    assert represent(g, S) is None
    rep = represent(g + 1, S)
    assert rep.target == g + 1
    assert min(rep.coefficients) >= 0
    assert sum(c * s for c, s in zip(rep.coefficients, gens)) == g + 1
    _conclude(12, started, 5.0, f"g = {g} three ways at m = 10^6")

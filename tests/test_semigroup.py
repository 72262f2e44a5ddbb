"""Frobenius numbers, reductions, and representations against brute force."""

import gc
import math
import random
import weakref

import numpy as np
import pytest

from frobtile import semigroup
from frobtile.errors import NonCoprimeError, NotPrimeError, PreconditionError
from frobtile.semigroup import (
    INT64_MAX,
    GeneratorSet,
    checked_add,
    checked_mul,
    closed_form_primes,
    frobenius_general,
    frobenius_pair,
    is_prime,
    pair_representation,
    quotient_frobenius,
    quotient_set,
    reduce_brauer_shockley,
    represent,
)

from brute import (
    brute_frobenius,
    brute_representable,
    loop_pair_representation,
    walk_back_representation,
)


def random_valid_set(rng, max_size=4, max_value=40):
    while True:
        size = rng.randint(2, max_size)
        gens = sorted(rng.sample(range(2, max_value + 1), size))
        if math.gcd(*gens) == 1:
            return tuple(gens)


# ---------------------------------------------------------------------------
# closed form for two generators
# ---------------------------------------------------------------------------

def test_pair_small_values():
    assert frobenius_pair(2, 3) == 1
    assert frobenius_pair(5, 7) == 23
    assert frobenius_pair(6, 7) == 29
    assert frobenius_pair(2, 101) == 99


def test_pair_matches_brute_scan():
    for s1 in range(2, 26):
        for s2 in range(s1 + 1, 26):
            if math.gcd(s1, s2) == 1:
                assert frobenius_pair(s1, s2) == brute_frobenius([s1, s2])


def test_pair_rejects_bad_input():
    with pytest.raises(NonCoprimeError):
        frobenius_pair(4, 6)
    with pytest.raises(PreconditionError):
        frobenius_pair(1, 5)
    with pytest.raises(OverflowError):
        frobenius_pair(2**32, 2**32 + 1)


def test_pair_checks_its_result_not_its_product():
    # 3 * (2^62 + 1) leaves int64, but g = 2^63 - 1 does not
    assert frobenius_pair(3, 2**62 + 1) == INT64_MAX
    with pytest.raises(OverflowError):
        frobenius_pair(3, 2**62 + 4)


# ---------------------------------------------------------------------------
# general algorithm and identity-based reduction
# ---------------------------------------------------------------------------

def test_general_known_values():
    assert frobenius_general(GeneratorSet([2, 3])) == 1
    assert frobenius_general(GeneratorSet([6, 10, 15])) == 29
    assert frobenius_general(GeneratorSet([20, 28, 35])) == 197


def test_general_matches_brute_on_random_sets():
    rng = random.Random(1404)
    for _ in range(300):
        gens = random_valid_set(rng)
        expected = brute_frobenius(gens)
        S = GeneratorSet(gens)
        assert frobenius_general(S) == expected, gens
        assert reduce_brauer_shockley(S) == expected, gens


def test_general_validates_input():
    with pytest.raises(NonCoprimeError):
        frobenius_general(GeneratorSet([6, 10]))
    with pytest.raises(PreconditionError):
        frobenius_general(GeneratorSet([7]))
    with pytest.raises(PreconditionError):
        frobenius_general(GeneratorSet([1, 4]))


def test_reduction_handles_scaled_prefix():
    # {4,6,7}: common factor 2 in {4,6} scales out to the core {2,3,7}
    assert reduce_brauer_shockley(GeneratorSet([4, 6, 7])) == 9
    assert brute_frobenius([4, 6, 7]) == 9


def test_reduction_drops_redundant_generators():
    # 12 = 5 + 7 is representable over the rest, so it contributes nothing
    rng = random.Random(7)
    for _ in range(100):
        gens = random_valid_set(rng, max_size=3, max_value=30)
        S = GeneratorSet(gens)
        g = frobenius_general(S)
        extra = sum(rng.randint(0, 3) * s for s in gens)
        if extra < 2:
            continue
        widened = GeneratorSet(gens + (extra,))
        assert frobenius_general(widened) == reduce_brauer_shockley(widened)
        if extra > max(gens):
            # widened set drops back to S
            assert reduce_brauer_shockley(widened) == g


def test_reduction_agrees_with_general_at_the_int64_edge():
    # 2^62 + 4 = (2^62 + 1) + 3 drops, leaving the pair (3, 2^62 + 1)
    S = GeneratorSet([3, 2**62 + 1, 2**62 + 4])
    assert frobenius_general(S) == INT64_MAX
    assert reduce_brauer_shockley(S) == INT64_MAX


def test_scaling_identity():
    # g(d*t_1,...,d*t_k, s) = d*g(t_1,...,t_k, s) + (d-1)*s
    rng = random.Random(99)
    checked = 0
    while checked < 100:
        d = rng.randint(2, 6)
        core = sorted(rng.sample(range(2, 31), rng.randint(2, 3)))
        s = rng.randint(2, 40)
        scaled = tuple(d * t for t in core) + (s,)
        if math.gcd(*scaled) != 1 or s in scaled[:-1]:
            continue
        if math.gcd(*core) != 1:
            continue
        lhs = frobenius_general(GeneratorSet(scaled))
        rhs = d * frobenius_general(GeneratorSet(tuple(core) + (s,))) + (d - 1) * s
        assert lhs == rhs, (d, core, s)
        checked += 1


# ---------------------------------------------------------------------------
# Apery tables: the numpy pass, int64 headroom and table ownership
# ---------------------------------------------------------------------------

def loop_table(gens):
    """The Apery table of ascending gens, built by the loop pass alone."""
    dist = [0] + [semigroup._INF] * (gens[0] - 1)
    for a in gens[1:]:
        semigroup._relax_loop(dist, a)
    return tuple(dist)


def as_loop_table(table):
    """A numpy table in the loop's form: unreached classes hold _INF."""
    return tuple(w if w < semigroup._UNREACHED else semigroup._INF for w in table.tolist())


def loop_walk_back(a, gens):
    """walk_back_representation with membership read from loop tables."""
    tables = [loop_table(gens[:i]) for i in range(1, len(gens) + 1)]
    m = gens[0]
    if tables[-1][a % m] > a:
        return None
    coeffs = [0] * len(gens)
    rem = a
    for i in range(len(gens) - 1, 0, -1):
        s = gens[i]
        coeffs[i] = next(c for c in range(rem // s, -1, -1) if tables[i - 1][(rem - c * s) % m] <= rem - c * s)
        rem -= coeffs[i] * s
    coeffs[0] = rem // m
    return tuple(coeffs)


def numpy_path_sets(rng, count):
    """Valid sets with m in [256, 4000] and 3 to 6 generators.

    A generator sharing a factor with m splits Z/mZ into several cycles,
    and 2m (0 mod m) gives a pass with nothing to relax.
    """
    out = []
    while len(out) < count:
        m = rng.randint(256, 4000)
        gens = {m}
        shared = [p for p in (2, 3, 5, 7) if m % p == 0]
        if shared:
            p = rng.choice(shared)
            gens.add(m + p * rng.randint(1, m // p - 1))
        if rng.random() < 0.5:
            gens.add(2 * m)
        k = rng.randint(max(3, len(gens)), 6)
        while len(gens) < k:
            gens.add(rng.randint(m + 1, 3 * m))
        gens = tuple(sorted(gens))
        if math.gcd(*gens) == 1:
            out.append(gens)
    return out


def test_numpy_pass_matches_the_loop():
    rng = random.Random(2026)
    sets = numpy_path_sets(rng, 12)
    assert any(math.gcd(g[0], g[i] % g[0]) > 1 for g in sets for i in range(1, len(g)))
    assert any(g[i] % g[0] == 0 for g in sets for i in range(1, len(g)))
    for gens in sets:
        S = GeneratorSet(gens)
        # one table per prefix of two or more generators
        assert len(S._tables) == len(gens) - 1
        for i, table in enumerate(S._tables, start=2):
            assert isinstance(table, np.ndarray), gens[:i]
            # prefixes of gcd > 1 leave classes unreached
            assert as_loop_table(table) == loop_table(gens[:i]), gens[:i]
        g = frobenius_general(S)
        assert g == max(loop_table(gens)) - gens[0]
        assert reduce_brauer_shockley(S) == g, gens
        for a in (0, g, g + 1, rng.randint(0, g), g + 1 + rng.randrange(gens[0])):
            rep = represent(a, S)
            assert (rep and rep.coefficients) == walk_back_representation(a, gens), (a, gens)


def test_int64_headroom_keeps_exact_python_ints():
    # 2*m*max(S) > 2^63 - 1: the loop builds these tables, in Python ints
    gens = (300, 2**54 + 1, 2**54 + 7)
    S = GeneratorSet(gens)
    assert all(isinstance(table, tuple) for table in S._tables)
    assert len(S._tables) == len(gens) - 1
    table = S._tables[-1]
    assert table == loop_table(gens)
    g = max(table) - 300
    assert frobenius_general(S) == g == 558446353793941289
    assert reduce_brauer_shockley(S) == g
    # its prefix (256, 300) alone would take numpy; one set never mixes forms
    mixed = (256, 300, 2**55 + 3, 2**56 + 1)
    assert isinstance(GeneratorSet(mixed[:2])._tables[-1], np.ndarray)
    assert all(isinstance(table, tuple) for table in GeneratorSet(mixed)._tables)
    for gens in (gens, mixed):
        S = GeneratorSet(gens)
        g = frobenius_general(S)
        assert g == max(loop_table(gens)) - gens[0]
        assert reduce_brauer_shockley(S) == g
        assert represent(g, S) is None
        for a in (g + 1, g + 12_345, g // 2, 2**63 + 7):
            rep = represent(a, S)
            assert (rep and rep.coefficients) == loop_walk_back(a, gens), (a, gens)
    assert frobenius_general(GeneratorSet([3, 4, 2**62])) == 5


def count_table_builds(monkeypatch):
    """A list that gets one entry per _prefix_tables call."""
    builds = []
    build = semigroup._prefix_tables

    def counted(gens):
        builds.append(gens)
        return build(gens)

    monkeypatch.setattr(semigroup, "_prefix_tables", counted)
    return builds


def test_a_set_builds_its_tables_once(monkeypatch):
    builds = count_table_builds(monkeypatch)
    for gens in ((6, 9, 20), (1000, 1013, 1500, 2001)):
        S = GeneratorSet(gens)
        g = frobenius_general(S)
        assert reduce_brauer_shockley(S) == g
        for a in (0, g, g + 1, 3 * g + 7):
            represent(a, S)
        assert builds.count(gens) == 1, builds
    # an equal set is another owner with its own tables
    frobenius_general(GeneratorSet((6, 9, 20)))
    assert builds.count((6, 9, 20)) == 2
    # a pair never builds a table
    represent(10**6, GeneratorSet((1000, 1013)))
    assert (1000, 1013) not in builds


def test_a_numpy_table_is_freed_with_its_set():
    S = GeneratorSet((1000, 1013, 1500))
    frobenius_general(S)
    ref = weakref.ref(S._tables[-1])
    assert ref() is not None
    del S
    gc.collect()
    assert ref() is None


def test_set_equality_hash_and_repr_ignore_the_tables():
    S, T = GeneratorSet((20, 9, 6)), GeneratorSet((6, 9, 20))
    frobenius_general(S)
    assert S == T and hash(S) == hash(T)
    assert repr(S) == repr(T) == "GeneratorSet(generators=(6, 9, 20))"


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def all_representations(a, gens):
    if len(gens) == 1:
        return [(a // gens[0],)] if a % gens[0] == 0 else []
    out = []
    s = gens[-1]
    for c in range(a // s, -1, -1):
        for rest in all_representations(a - c * s, gens[:-1]):
            out.append(rest + (c,))
    return out


def test_represent_known_value():
    rep = represent(24, GeneratorSet([5, 7]))
    assert rep.coefficients == (2, 2)
    assert rep.target == 24


def test_represent_at_and_above_frobenius_number():
    for gens in [(5, 7), (4, 9), (6, 10, 15), (5, 8, 11, 13)]:
        S = GeneratorSet(gens)
        g = frobenius_general(S)
        assert represent(g, S) is None
        for a in range(g + 1, g + 2 + 2 * max(gens)):
            rep = represent(a, S)
            assert rep is not None, (a, gens)
            assert sum(c * s for c, s in zip(rep.coefficients, gens)) == a
            assert all(c >= 0 for c in rep.coefficients)


def test_represent_agrees_with_brute_representability():
    rng = random.Random(23)
    for _ in range(60):
        gens = random_valid_set(rng, max_size=3, max_value=25)
        S = GeneratorSet(gens)
        for a in range(0, 2 * max(gens) + 10):
            rep = represent(a, S)
            assert (rep is not None) == brute_representable(a, gens), (a, gens)
            if rep is not None:
                assert sum(c * s for c, s in zip(rep.coefficients, gens)) == a


def test_represent_tie_break_is_greatest_from_the_top():
    """Among all valid coefficient vectors, ours maximizes the largest
    generator's coefficient, then the next largest, and so on."""
    rng = random.Random(411)
    for _ in range(40):
        gens = random_valid_set(rng, max_size=3, max_value=15)
        S = GeneratorSet(gens)
        a = rng.randint(0, 60)
        everything = all_representations(a, gens)
        rep = represent(a, S)
        if not everything:
            assert rep is None
            continue
        best = max(everything, key=lambda cs: tuple(reversed(cs)))
        assert rep.coefficients == best, (a, gens)


def test_represent_zero_and_negative():
    S = GeneratorSet([5, 7])
    assert represent(0, S).coefficients == (0, 0)
    with pytest.raises(PreconditionError):
        represent(-1, S)


def test_pair_representation():
    assert pair_representation(29, 4, 7) == (2, 3)
    assert pair_representation(12, 2, 3) == (0, 4)
    assert pair_representation(5, 2, 4) is None
    assert pair_representation(0, 3, 5) == (0, 0)
    # works on non-coprime pairs, unlike represent
    assert pair_representation(8, 2, 4) == (0, 2)


def test_pair_representation_matches_the_loop():
    for x in range(1, 13):
        for y in range(1, 13):
            for target in range(-2, 150):
                assert pair_representation(target, x, y) == loop_pair_representation(target, x, y)
    rng = random.Random(4)
    for _ in range(300):
        g = rng.choice((1, 2, 3, 6))
        x, y = g * rng.randint(1, 60), g * rng.randint(1, 60)
        target = rng.randint(0, 20_000)
        assert pair_representation(target, x, y) == loop_pair_representation(target, x, y)


def test_pair_representation_is_constant_time_on_large_targets():
    # gcd(2, 4) = 2 does not divide the odd target: no loop down from 2.5e6
    assert pair_representation(10**7 + 1, 2, 4) is None
    assert pair_representation(10**18 + 7, 4, 7) == loop_pair_representation(10**18 + 7, 4, 7)


# ---------------------------------------------------------------------------
# prime closed form
# ---------------------------------------------------------------------------

def test_closed_form_known_values():
    assert closed_form_primes([2, 3]) == 1
    assert closed_form_primes([2, 3, 5]) == 29
    assert closed_form_primes([2, 3, 5, 7]) == 383


def test_closed_form_equals_general_on_quotients():
    for primes in [(2, 3), (2, 3, 5), (3, 5, 7), (2, 3, 5, 7), (2, 5, 7, 11)]:
        q = quotient_set(primes)
        assert closed_form_primes(primes) == frobenius_general(q), primes


def test_closed_form_needs_n_times_prod_in_int64():
    # n * prod leaves int64 though the Frobenius number does not: the
    # shared closed form gives it, closed_form_primes keeps its range
    primes = (2, 3, 900000000000000017)
    g = frobenius_general(quotient_set(primes))
    assert quotient_frobenius(primes) == g == 6300000000000000113
    with pytest.raises(OverflowError, match="64-bit contract"):
        closed_form_primes(primes)


def test_quotient_set_values():
    assert quotient_set([2, 3, 5]).generators == (6, 10, 15)
    assert quotient_set([2, 3, 5, 7]).generators == (30, 42, 70, 105)


def test_closed_form_validates_input():
    with pytest.raises(NotPrimeError):
        closed_form_primes([4, 5])
    with pytest.raises(PreconditionError):
        closed_form_primes([3, 2])
    with pytest.raises(PreconditionError):
        closed_form_primes([5])
    with pytest.raises(OverflowError):
        closed_form_primes([2, 3, 5, 7, 11, 13, 4611686018427387847])


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(561)   # Carmichael
    assert not is_prime(2047)  # strong pseudoprime to base 2
    assert is_prime(2**61 - 1)


# ---------------------------------------------------------------------------
# checked arithmetic and set hygiene
# ---------------------------------------------------------------------------

def test_checked_arithmetic():
    assert checked_mul(3, 5) == 15
    assert checked_add(INT64_MAX - 1, 1) == INT64_MAX
    with pytest.raises(OverflowError):
        checked_mul(INT64_MAX, 2)
    with pytest.raises(OverflowError):
        checked_add(INT64_MAX, 1)


def test_generator_set_normalizes():
    S = GeneratorSet([7, 5, 7, 5])
    assert S.generators == (5, 7)
    assert len(S) == 2
    assert S.gcd == 1
    assert S.is_frobenius_valid
    assert not GeneratorSet([4, 6]).is_frobenius_valid
    with pytest.raises(PreconditionError):
        GeneratorSet([])
    with pytest.raises(PreconditionError):
        GeneratorSet([0, 3])

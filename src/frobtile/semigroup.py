"""Frobenius numbers and nonnegative integer representations.

For a set S = {s_1 < ... < s_k} of positive integers with gcd(S) = 1 and
every s_i >= 2, the Frobenius number g(S) is the largest integer that is
NOT a nonnegative integer combination of S.  Closed form for two
generators:

    g(s1, s2) = s1*s2 - s1 - s2        (s1, s2 coprime)

The general computation walks residue classes modulo the smallest
generator m: for each residue r, find the least representable integer
congruent to r (the Apery set of S with respect to m).  Then

    g(S) = max_r apery[r] - m

The Apery set is computed by relaxing, one generator at a time, the
cycles that the generator induces on Z/mZ -- a single pass per cycle
starting from its current minimum is exact, giving O(m) work per
generator and no heap.

Two identity-based reductions are also implemented:

  * scaling: if gcd of all generators but one equals d > 1, then
      g(d*t_1, ..., d*t_k, s) = d*g(t_1, ..., t_k, s) + (d-1)*s
  * dropping: a generator representable over the others is redundant.

All arithmetic is checked against a signed 64-bit contract; results or
intermediates beyond 2^63 - 1 raise OverflowError rather than silently
degrading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .errors import NonCoprimeError, NotPrimeError, PreconditionError

INT64_MAX = (1 << 63) - 1


def checked_mul(a: int, b: int) -> int:
    r = a * b
    if r > INT64_MAX or r < -INT64_MAX - 1:
        raise OverflowError(f"{a} * {b} exceeds the 64-bit contract")
    return r


def checked_add(a: int, b: int) -> int:
    r = a + b
    if r > INT64_MAX or r < -INT64_MAX - 1:
        raise OverflowError(f"{a} + {b} exceeds the 64-bit contract")
    return r


def checked_prod(values: Iterable[int]) -> int:
    r = 1
    for v in values:
        r = checked_mul(r, v)
    return r


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSet:
    """Finite set of positive integers, stored sorted and deduplicated.

    A set is "Frobenius-valid" when gcd = 1 and every element is >= 2;
    only such sets have a Frobenius number.  Validity implies at least
    two elements (a singleton with gcd 1 would have to be {1}).
    """

    generators: tuple[int, ...]

    def __init__(self, generators: Iterable[int]):
        gens = tuple(sorted(set(int(g) for g in generators)))
        if not gens:
            raise PreconditionError("generator set must be non-empty")
        if gens[0] < 1:
            raise PreconditionError(f"generators must be >= 1, got {gens[0]}")
        object.__setattr__(self, "generators", gens)

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    @property
    def gcd(self) -> int:
        return math.gcd(*self.generators)

    @property
    def is_frobenius_valid(self) -> bool:
        return len(self.generators) >= 2 and self.generators[0] >= 2 and self.gcd == 1

    def require_frobenius_valid(self) -> None:
        if self.generators[0] < 2 or len(self.generators) < 2:
            raise PreconditionError(
                f"need at least two generators, all >= 2; got {self.generators}"
            )
        if self.gcd != 1:
            raise NonCoprimeError(f"gcd{self.generators} = {self.gcd}, expected 1")


@dataclass(frozen=True)
class Representation:
    """Coefficient vector c with dot(c, generators) = target, all c_i >= 0.

    Coefficients align with the ascending generator order of the
    GeneratorSet that produced them.
    """

    coefficients: tuple[int, ...]
    target: int


# ---------------------------------------------------------------------------
# Apery-set machinery
# ---------------------------------------------------------------------------

_INF = float("inf")


@lru_cache(maxsize=256)
def _apery_distances(gens: tuple[int, ...]) -> tuple:
    """Least representable integer in each residue class mod gens[0].

    Requires gens sorted ascending with gcd 1.  Entry r is the smallest
    nonnegative integer combination of gens congruent to r mod gens[0].
    """
    m = gens[0]
    dist = [0] + [_INF] * (m - 1)
    for a in gens[1:]:
        step = a % m
        if step == 0:
            continue
        n_cycles = math.gcd(m, step)
        cycle_len = m // n_cycles
        for r0 in range(n_cycles):
            # locate the cycle minimum, then relax once around from it
            r = r0
            best_r, best = r0, dist[r0]
            for _ in range(cycle_len - 1):
                r = (r + step) % m
                if dist[r] < best:
                    best_r, best = r, dist[r]
            if best is _INF:
                continue
            r = best_r
            cur = best
            for _ in range(cycle_len - 1):
                nxt = (r + step) % m
                cand = cur + a
                if cand < dist[nxt]:
                    dist[nxt] = cand
                r, cur = nxt, dist[nxt]
    return tuple(dist)


def _representable_over(x: int, gens: tuple[int, ...]) -> bool:
    """Is x a nonnegative integer combination of gens (any gcd)?"""
    if x < 0:
        return False
    if x == 0:
        return True
    d = math.gcd(*gens)
    if x % d:
        return False
    x //= d
    scaled = tuple(sorted(set(g // d for g in gens)))
    if scaled[0] == 1:
        return True
    if len(scaled) == 1:
        return x % scaled[0] == 0
    dist = _apery_distances(scaled)
    return dist[x % scaled[0]] <= x


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def frobenius_pair(s1: int, s2: int) -> int:
    """g(s1, s2) = s1*s2 - s1 - s2 for coprime s1, s2 >= 2."""
    if s1 < 2 or s2 < 2:
        raise PreconditionError(f"generators must be >= 2, got ({s1}, {s2})")
    if math.gcd(s1, s2) != 1:
        raise NonCoprimeError(f"gcd({s1}, {s2}) = {math.gcd(s1, s2)}, expected 1")
    return checked_mul(s1, s2) - s1 - s2


def frobenius_general(S: GeneratorSet) -> int:
    """Largest integer not representable over S, via the Apery set."""
    S.require_frobenius_valid()
    gens = S.generators
    if len(gens) == 2:
        return frobenius_pair(*gens)
    dist = _apery_distances(gens)
    g = max(dist) - gens[0]
    if g > INT64_MAX:
        raise OverflowError(f"Frobenius number of {gens} exceeds the 64-bit contract")
    return g


def _frobenius_reduced(gens: tuple[int, ...]) -> int:
    # gens sorted, deduplicated, gcd 1; may contain 1 (then every
    # nonnegative integer is representable and g = -1 by convention)
    if gens[0] == 1:
        return -1
    if len(gens) == 2:
        return frobenius_pair(*gens)
    # drop any generator representable over the others (largest first)
    for i in range(len(gens) - 1, -1, -1):
        others = gens[:i] + gens[i + 1:]
        if _representable_over(gens[i], others):
            return _frobenius_reduced(others)
    # scale out a common factor of all generators but one
    for j in range(len(gens) - 1, -1, -1):
        rest = gens[:j] + gens[j + 1:]
        d = math.gcd(*rest)
        if d > 1:
            core = tuple(sorted(set(t // d for t in rest) | {gens[j]}))
            inner = _frobenius_reduced(core)
            return checked_add(checked_mul(d, inner), checked_mul(d - 1, gens[j]))
    return frobenius_general(GeneratorSet(gens))


def reduce_brauer_shockley(S: GeneratorSet) -> int:
    """Frobenius number via identity-based reduction.

    Repeatedly drops generators representable over the rest and scales
    out common factors shared by all generators but one, falling back to
    the Apery computation on irreducible cores.  Always equals
    frobenius_general(S).
    """
    S.require_frobenius_valid()
    return _frobenius_reduced(S.generators)


def represent(a: int, S: GeneratorSet) -> Optional[Representation]:
    """A representation of a over S, or None if a is not representable.

    Deterministic tie-break: among all valid coefficient vectors, return
    the one that is lexicographically greatest when read from the
    largest generator down (greedy walk-back over the Apery tables of
    the generator prefixes).
    """
    S.require_frobenius_valid()
    if a < 0:
        raise PreconditionError(f"target must be >= 0, got {a}")
    gens = S.generators
    if not _representable_over(a, gens):
        return None
    coeffs = [0] * len(gens)
    rem = a
    for i in range(len(gens) - 1, 0, -1):
        prefix = gens[:i]
        s = gens[i]
        for c in range(rem // s, -1, -1):
            if _representable_over(rem - c * s, prefix):
                coeffs[i] = c
                rem -= c * s
                break
    coeffs[0] = rem // gens[0]
    return Representation(coefficients=tuple(coeffs), target=a)


def pair_representation(target: int, x: int, y: int) -> Optional[tuple[int, int]]:
    """(u, v) with u*x + v*y = target, u, v >= 0, maximizing v; or None.

    Unlike represent(), x and y need not be coprime or >= 2.
    """
    if target < 0:
        return None
    if x <= 0 or y <= 0:
        raise PreconditionError("pair generators must be positive")
    g = math.gcd(x, y)
    if target % g:
        return None
    # x | target - v*y exactly when v = (target/g) * (y/g)^-1 modulo x/g;
    # take the largest such v with v*y <= target
    modulus = x // g
    residue = (target // g) * pow(y // g, -1, modulus) % modulus
    top = target // y
    v = top - (top - residue) % modulus
    if v < 0:
        return None
    return ((target - v * y) // x, v)


def two_squares_split(a1: int, a2: int, x: int, y: int) -> Optional[tuple[int, tuple[int, int]]]:
    """How squares (x x x) and (y x y), gcd(x, y) = 1, tile (a1 x a2); or None.

    The two-squares criterion: tileable exactly when x or y divides
    both sides, or x*y divides one side and the other side is a
    nonnegative combination of x and y.  The answer (axis, (u, v)) cuts
    the box across axis into u strips of thickness x and v of thickness
    y, each strip a grid of its square.  A one-square grid is the split
    with the other count 0, the larger square (y on a tie) preferred.
    """
    for side in (x, y) if x > y else (y, x):
        if a1 % side == 0 and a2 % side == 0:
            count = a2 // side
            return 1, ((0, count) if side == y else (count, 0))
    both = x * y
    if a1 % both == 0:
        rep = pair_representation(a2, x, y)
        if rep is not None:
            return 1, rep
    if a2 % both == 0:
        rep = pair_representation(a1, x, y)
        if rep is not None:
            return 0, rep
    return None


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def closed_form_primes(primes: Iterable[int]) -> int:
    """n * p_1*...*p_{n+1} - sum_i (p_1*...*p_{n+1} / p_i) for distinct primes.

    Equals the Frobenius number of the quotient set {prod/p_i}: with
    n+1 ascending primes the products-over-one generate exactly the
    integers whose non-multiples run out at this value.
    """
    plist = list(primes)
    if len(plist) < 2:
        raise PreconditionError("need at least two primes")
    if any(plist[i] >= plist[i + 1] for i in range(len(plist) - 1)):
        raise PreconditionError(f"primes must be strictly increasing, got {plist}")
    for p in plist:
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
    n = len(plist) - 1
    prod = checked_prod(plist)
    total = checked_mul(n, prod)
    for p in plist:
        total = total - prod // p
    if total > INT64_MAX:
        raise OverflowError("closed form exceeds the 64-bit contract")
    return total


def quotient_set(primes: Iterable[int]) -> GeneratorSet:
    """The products-over-one {prod(P)/p : p in P} as a GeneratorSet."""
    plist = list(primes)
    prod = checked_prod(plist)
    return GeneratorSet(prod // p for p in plist)

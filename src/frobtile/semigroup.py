"""Frobenius numbers and nonnegative integer representations.

For a set S = {s_1 < ... < s_k} of positive integers with gcd(S) = 1 and
every s_i >= 2, the Frobenius number g(S) is the largest integer that is
NOT a nonnegative integer combination of S.  Closed form for two
generators:

    g(s1, s2) = s1*s2 - s1 - s2        (s1, s2 coprime)

The general computation walks residue classes modulo the smallest
generator m: for each residue r, find the least representable integer
congruent to r (the Apery table of S with respect to m).  Then

    g(S) = max_r apery[r] - m

and x is representable exactly when x >= apery[x mod m].  The table is
built one generator at a time: each generator a splits Z/mZ into cycles
r, r + a, r + 2a, ... and relaxing a cycle once around from its minimum
is exact.  Along a cycle that relaxation is a running minimum of
dist[j] - j*a, so numpy does all cycles of one generator in one
np.minimum.accumulate; below m = 128, or where the entries could leave
int64, a Python loop does the same pass.  A GeneratorSet builds the
tables of all its prefixes on first use, all numpy or all tuples, and
keeps them for its lifetime; every operation reads them:

  * frobenius_general takes the table's maximum;
  * represent walks back from the largest generator, taking the largest
    coefficient that leaves a remainder in the semigroup of the smaller
    generators (read from that prefix's table; the largest such
    coefficient is among the top m candidates, which numpy tests at
    once);
  * reduce_brauer_shockley drops the generators representable over the
    rest (x is redundant exactly when x - y is in <S> for a smaller
    generator y, one table read each) and scales out common factors:
      g(d*t_1, ..., d*t_k, s) = d*g(t_1, ..., t_k, s) + (d-1)*s

Results are checked against a signed 64-bit contract: a Frobenius
number beyond 2^63 - 1 raises OverflowError rather than silently
degrading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

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

    @cached_property
    def _tables(self) -> tuple:
        """The Apery tables of generators[:2] through generators, built once."""
        return _prefix_tables(self.generators)


@dataclass(frozen=True)
class Representation:
    """Coefficient vector c with dot(c, generators) = target, all c_i >= 0.

    Coefficients align with the ascending generator order of the
    GeneratorSet that produced them.
    """

    coefficients: tuple[int, ...]
    target: int


# ---------------------------------------------------------------------------
# Apery tables
# ---------------------------------------------------------------------------

_INF = float("inf")

# a numpy table's entry for a class its generators cannot reach: above
# every real entry, and far enough below 2^63 that a pass cannot overflow
_UNREACHED = INT64_MAX // 2

# below this modulus the loop builds a table faster than numpy's fixed
# cost per pass
_VECTOR_MIN_M = 128


def _vectorized(m: int, top: int) -> bool:
    """Does numpy build the table of generators mod m up to top?

    Real entries stay below m*top <= _UNREACHED, and a pass adds at most
    m*top to an entry, so int64 holds every value when 2*m*top does.
    """
    return m >= _VECTOR_MIN_M and 2 * m * top <= INT64_MAX


def _prefix_tables(gens: tuple[int, ...]) -> tuple:
    """Least element of <gens[:i]> in each residue class mod m = gens[0].

    gens is sorted ascending, of any gcd; table i - 2 is that of gens[:i]
    for i >= 2, one pass over table i - 3 (or over gens[:1]'s, which is
    not kept: nothing reads it).  A class a prefix cannot reach holds
    _INF in a tuple table and _UNREACHED in a numpy table.  The tables
    are read-only numpy int64 arrays where _vectorized(m, gens[-1]) holds
    and tuples otherwise, so one set never mixes the two.
    """
    m = gens[0]
    if _vectorized(m, gens[-1]):
        table = np.full(m, _UNREACHED, dtype=np.int64)
        table[0] = 0
        tables = []
        for a in gens[1:]:
            table = _relax_vector(table.copy(), a)
            tables.append(table)
        for table in tables:
            table.flags.writeable = False
        return tuple(tables)
    dist = [0] + [_INF] * (m - 1)
    return tuple(tuple(_relax_loop(dist, a)) for a in gens[1:])


def _relax_loop(dist: list, a: int) -> list:
    """Close dist under adding a, one pass per cycle a induces mod m.

    Relaxing a cycle once around, starting from its minimum, is exact.
    """
    m = len(dist)
    step = a % m
    if step == 0:
        return dist
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
    return dist


def _relax_vector(dist: np.ndarray, a: int) -> np.ndarray:
    """_relax_loop on an int64 array, all cycles at once.

    Along a cycle r, r + a, r + 2a, ... (mod m) of length L, position t
    becomes t*a + min over j <= t of (dist[j] - j*a), or that minimum
    taken over the whole cycle plus L*a when the best source lies past
    the row's end: one running minimum per row.
    """
    m = dist.size
    step = a % m
    if step == 0:
        return dist
    n_cycles = math.gcd(m, step)
    length = m // n_cycles
    # row r0 lists the residues of the cycle through r0, in walking order
    order = np.arange(length, dtype=np.int64) * step % m + np.arange(n_cycles, dtype=np.int64)[:, None]
    ramp = np.arange(length, dtype=np.int64) * a
    run = np.minimum.accumulate(dist[order] - ramp, axis=1)
    np.minimum(run, run[:, -1:] + length * a, out=run)
    dist[order] = run + ramp
    return dist


def _member(table, x: int) -> bool:
    """Is x >= 0 in the semigroup?  table must reach every class."""
    return int(table[x % len(table)]) <= x


def _largest_multiple(rem: int, prefix_table, s: int) -> int:
    """Largest c <= rem // s with rem - c*s in <prefix>; one must exist.

    prefix_table is the table of the generators below s, from the same
    set as s.  The answer is among the top m candidates.  If c works and
    c + m <= rem // s, then x = rem - c*s >= m*s; with d = gcd(prefix)
    and e = d / gcd(d, s), x - e*s is a multiple of d above every gap of
    <prefix> (those lie below m*s - d*s), so c + e works too.
    """
    m = len(prefix_table)
    top, low = divmod(rem, s)
    if isinstance(prefix_table, np.ndarray):
        # the set's tables are numpy, so m*s <= _UNREACHED, and candidate
        # c = top - j leaves low + j*s < m*s
        left = low + s * np.arange(min(m, top + 1), dtype=np.int64)
        return top - int(np.argmax(prefix_table[left % m] <= left))
    for c in range(top, -1, -1):
        x = rem - c * s
        if prefix_table[x % m] <= x:
            return c
    raise AssertionError(f"{rem} is not in the semigroup up to {s}")


def _max_entry(table) -> int:
    return int(table.max()) if isinstance(table, np.ndarray) else max(table)


def _checked_g(g: int, gens: tuple[int, ...]) -> int:
    if g > INT64_MAX:
        raise OverflowError(f"Frobenius number of {gens} exceeds the 64-bit contract")
    return g


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def frobenius_pair(s1: int, s2: int) -> int:
    """g(s1, s2) = s1*s2 - s1 - s2 for coprime s1, s2 >= 2."""
    if s1 < 2 or s2 < 2:
        raise PreconditionError(f"generators must be >= 2, got ({s1}, {s2})")
    if math.gcd(s1, s2) != 1:
        raise NonCoprimeError(f"gcd({s1}, {s2}) = {math.gcd(s1, s2)}, expected 1")
    return _checked_g(s1 * s2 - s1 - s2, (s1, s2))


def frobenius_general(S: GeneratorSet) -> int:
    """Largest integer not representable over S, via the Apery table."""
    S.require_frobenius_valid()
    gens = S.generators
    if len(gens) == 2:
        return frobenius_pair(*gens)
    return _checked_g(_max_entry(S._tables[-1]) - gens[0], gens)


def _frobenius_reduced(S: GeneratorSet) -> int:
    # S has gcd 1 and may contain 1 (then every nonnegative integer is
    # representable and g = -1 by convention)
    gens = S.generators
    if gens[0] == 1:
        return -1
    if len(gens) == 2:
        return frobenius_pair(*gens)
    # x is redundant exactly when x - y is in <gens> for a smaller
    # generator y: elements below x are combinations without x.
    # Dropping it changes neither the semigroup nor its table.
    table = S._tables[-1]
    kept = tuple(x for i, x in enumerate(gens) if not any(_member(table, x - y) for y in gens[:i]))
    if len(kept) == 2:
        return frobenius_pair(*kept)
    # scale out a common factor of all generators but one
    for j in range(len(kept) - 1, -1, -1):
        rest = kept[:j] + kept[j + 1:]
        d = math.gcd(*rest)
        if d > 1:
            core = GeneratorSet([t // d for t in rest] + [kept[j]])
            return _checked_g(d * _frobenius_reduced(core) + (d - 1) * kept[j], gens)
    return _checked_g(_max_entry(table) - gens[0], gens)


def reduce_brauer_shockley(S: GeneratorSet) -> int:
    """Frobenius number via identity-based reduction.

    Drops the generators representable over the rest and scales out
    common factors shared by all generators but one, falling back to the
    Apery table on irreducible cores.  Always equals frobenius_general(S).
    """
    S.require_frobenius_valid()
    return _frobenius_reduced(S)


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
    if len(gens) > 2 and not _member(S._tables[-1], a):
        return None
    coeffs = [0] * len(gens)
    rem = a
    for i in range(len(gens) - 1, 1, -1):
        coeffs[i] = _largest_multiple(rem, S._tables[i - 2], gens[i])
        rem -= coeffs[i] * gens[i]
    # the last step is the pair's own: the largest coefficient of gens[1]
    pair = pair_representation(rem, gens[0], gens[1])
    if pair is None:
        return None
    coeffs[0], coeffs[1] = pair
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


def quotient_frobenius(values: Sequence[int]) -> int:
    """k*P - sum_i P/a_i, where P = a_0*...*a_k, for pairwise coprime a_i >= 2.

    The Frobenius number of the products-over-one {P/a_i}, in closed form
    (g(a_0, a_1) for k = 1).  The caller checks coprimality and any range
    of its own; only the result must fit in int64.
    """
    prod = math.prod(values)
    gens = tuple(prod // a for a in values)
    return _checked_g((len(values) - 1) * prod - sum(gens), gens)


def closed_form_primes(primes: Iterable[int]) -> int:
    """n * p_1*...*p_{n+1} - sum_i (p_1*...*p_{n+1} / p_i) for distinct primes.

    Equals the Frobenius number of the quotient set {prod/p_i}, by
    quotient_frobenius: distinct primes are pairwise coprime.
    """
    plist = list(primes)
    if len(plist) < 2:
        raise PreconditionError("need at least two primes")
    if any(plist[i] >= plist[i + 1] for i in range(len(plist) - 1)):
        raise PreconditionError(f"primes must be strictly increasing, got {plist}")
    for p in plist:
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
    checked_mul(len(plist) - 1, checked_prod(plist))  # n * prod stays in int64
    return quotient_frobenius(plist)


def quotient_set(primes: Iterable[int]) -> GeneratorSet:
    """The products-over-one {prod(P)/p : p in P} as a GeneratorSet."""
    plist = list(primes)
    prod = checked_prod(plist)
    return GeneratorSet(prod // p for p in plist)

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
np.minimum.accumulate.  A GeneratorSet builds the tables of all its
prefixes on first use, as one chain of numpy arrays: int64 while the
values its passes and readers meet fit, then object dtype (exact Python
ints) for the passes that follow, or raises CapExceededError when they
are too large to hold.  It keeps them for its lifetime:

  * frobenius_general takes the table's maximum;
  * represent walks back from the largest generator, taking the largest
    coefficient that leaves a remainder in the semigroup of the smaller
    generators (read from that prefix's table; the largest such
    coefficient is among the top m candidates, which numpy tests at
    once while m times the generator fits int64);
  * reduce_brauer_shockley reads none: with gcds alone it scales out the
    common factor d of all generators but one,
      g(d*t_1, ..., d*t_k, s) = d*g(t_1, ..., t_k, s) + (d-1)*s
    and hands a core with no such factor to frobenius_general.

The products-over-one {P/a_i} of pairwise coprime a_i, the sets the
tiling construction represents over, need no table: their Frobenius
number (quotient_frobenius) and representations (quotient_representation,
by the Chinese remainder theorem) have closed forms.

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

from .errors import CapExceededError, NonCoprimeError, NotPrimeError, PreconditionError

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
        try:
            return _prefix_tables(self.generators)
        except (ValueError, MemoryError):
            message = f"the Apery tables of {self.generators} are too large to hold"
            raise CapExceededError(message) from None


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

# an int64 table's entry for a class its generators cannot reach: above
# every real entry, and far enough below 2^63 that a pass cannot overflow
_UNREACHED = INT64_MAX // 2


def _prefix_tables(gens: tuple[int, ...]) -> tuple:
    """Least element of <gens[:i]> in each residue class mod m = gens[0].

    gens is sorted ascending, of any gcd; table i - 2 is that of gens[:i]
    for i >= 2, one pass over table i - 3 (or over gens[:1]'s, which is
    not kept: nothing reads it).  Each table is a read-only numpy array.
    Table i - 2 is read at targets below m*gens[i] (the last table at any
    target, but it reaches every class), and a pass adds at most m*a to
    an entry; so it is int64, with _UNREACHED for a class it cannot
    reach, while 2*m*gens[i] fits int64 (2*m*gens[-1] for the last
    table).  From the first table where that fails, the chain widens to
    object dtype: exact Python ints, and math.inf for an unreached class.
    """
    m = gens[0]
    table = np.full(m, _UNREACHED, dtype=np.int64)
    table[0] = 0
    tables = []
    for i, a in enumerate(gens[1:], start=2):
        if table.dtype != object and 2 * m * gens[min(i, len(gens) - 1)] > INT64_MAX:
            table = table.astype(object)
            table[table == _UNREACHED] = math.inf
        table = _relax_vector(table.copy(), a)
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _relax_vector(dist: np.ndarray, a: int) -> np.ndarray:
    """Close dist under adding a, all cycles a induces mod m at once.

    Relaxing a cycle once around, starting from its minimum, is exact.
    Along a cycle r, r + a, r + 2a, ... (mod m) of length L, position t
    becomes t*a + min over j <= t of (dist[j] - j*a), or that minimum
    taken over the whole cycle plus L*a when the best source lies past
    the row's end: one running minimum per row, computed in place.
    """
    m = dist.size
    step = a % m
    if step == 0:
        return dist
    n_cycles = math.gcd(m, step)
    length = m // n_cycles
    # row r0 lists the residues of the cycle through r0, in walking order;
    # one cycle is one row, with no second axis
    order = np.arange(0, length * step, step, dtype=np.int64)
    order %= m
    if n_cycles > 1:
        order = order + np.arange(n_cycles, dtype=np.int64)[:, None]
    ramp = np.arange(0, length * a, a, dtype=dist.dtype)
    run = dist[order]
    run -= ramp
    np.minimum.accumulate(run, axis=-1, out=run)
    np.minimum(run, run[..., -1:] + length * a, out=run)
    run += ramp
    dist[order] = run
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
    if m * s <= INT64_MAX:
        # candidate c = top - j leaves low + j*s < m*s, in int64
        left = low + s * np.arange(min(m, top + 1), dtype=np.int64)
        return top - int(np.argmax(prefix_table[left % m] <= left))
    for c in range(top, -1, -1):
        x = rem - c * s
        if prefix_table[x % m] <= x:
            return c
    raise AssertionError(f"{rem} is not in the semigroup up to {s}")


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
    # g(S) >= min(S) - 1, a gap, so no table is needed to see an overflow
    _checked_g(gens[0] - 1, gens)
    return _checked_g(int(S._tables[-1].max()) - gens[0], gens)


def _frobenius_reduced(S: GeneratorSet) -> int:
    # S has gcd 1 and may contain 1 (then every nonnegative integer is
    # representable and g = -1 by convention)
    gens = S.generators
    if gens[0] == 1:
        return -1
    # scale out a common factor of all generators but one; a pair is the
    # identity's own case, with core {1, s}
    for j in range(len(gens) - 1, -1, -1):
        rest = gens[:j] + gens[j + 1:]
        d = math.gcd(*rest)
        if d > 1:
            core = GeneratorSet([t // d for t in rest] + [gens[j]])
            return _checked_g(d * _frobenius_reduced(core) + (d - 1) * gens[j], gens)
    return frobenius_general(S)


def reduce_brauer_shockley(S: GeneratorSet) -> int:
    """Frobenius number via identity-based reduction.

    Scales out a common factor of all generators but one with gcds alone
    and recurses on the core; only a core with no such factor builds an
    Apery table, in frobenius_general.  Always equals frobenius_general(S).
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


def sums_mask(gens: Iterable[int], bound: int) -> int:
    """Bitmask over 0..bound: bit i set iff i is a sum of gens, with
    repeats (0, the empty sum, included).  The gens need not be coprime."""
    reach = 1
    mask = (1 << (bound + 1)) - 1
    for g in sorted(set(gens)):
        shift = g
        while shift <= bound:
            reach |= (reach << shift) & mask
            shift <<= 1
    return reach


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


def quotient_representation(x: int, values: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Coefficients c_i >= 0 with sum_i c_i * P/a_i = x, for pairwise coprime
    a_i = values[i] >= 2 and P = a_0*...*a_k; or None if there are none.

    Modulo a_i every P/a_j but P/a_i vanishes, so c_i = x * (P/a_i)^-1 is
    fixed mod a_i.  Each c_i but the one on the largest generator
    P/min(values) takes its least residue, and that one takes the slack:
    the choice of represent(x, quotient_set(values)), lexicographically
    greatest from the largest generator down.  Exact ints throughout;
    the caller checks coprimality and any range of its own.
    """
    prod = math.prod(values)
    big = values.index(min(values))
    coeffs = [x * pow(prod // a, -1, a) % a for a in values]
    slack = x - sum(c * (prod // a) for i, (c, a) in enumerate(zip(coeffs, values)) if i != big)
    if slack < 0:
        return None
    coeffs[big] = slack // (prod // values[big])
    return tuple(coeffs)


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

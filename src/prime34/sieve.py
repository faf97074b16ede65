"""Prime sieve with exact rational range queries, the two classical prime
bounds (pi(n) <= n/2 and the primorial bound prod p <= 4^x), and the two
decision helpers the package shares: a float screen that falls back to an
exact comparison, and the "smallest n from which a check holds" scanner.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .errors import CapacityError, CoverageError, DomainError, PrecisionError

MEMORY_CAP = 2**31  # bytes a sieve build may allocate at its peak

_LN4 = math.log(4)

Rational = Fraction


def _as_exact(x):
    """x itself when it is an int or a Fraction; floats are refused."""
    if isinstance(x, (int, Fraction)):
        return x
    raise DomainError(f"expected an int or Fraction endpoint, got {type(x).__name__}")


def _as_rational(x) -> Fraction:
    x = _as_exact(x)
    return Fraction(x) if isinstance(x, int) else x


@dataclass(frozen=True, eq=False)
class PrimeSieve:
    """Immutable ascending tuple of the primes in [0, limit]; primality and
    prime counting are bisections of it."""

    limit: int
    primes: tuple = field(repr=False)

    def is_prime(self, k: int) -> bool:
        if not 0 <= k <= self.limit:
            raise CoverageError(f"{k} outside sieve range [0, {self.limit}]")
        i = bisect_left(self.primes, k)
        return i < len(self.primes) and self.primes[i] == k

    def pi(self, x: int) -> int:
        """Count of primes <= x."""
        if x < 0:
            raise DomainError("pi is defined for x >= 0")
        if x > self.limit:
            raise CoverageError(f"pi({x}) beyond sieve limit {self.limit}")
        return bisect_right(self.primes, x)

    def primes_in(self, lo_exclusive, hi_inclusive) -> list:
        """Ascending primes p with lo < p <= hi, endpoints exact rationals.

        Membership is decided by integer floors of the endpoints, never by
        floating point: p > lo iff p >= floor(lo) + 1, p <= hi iff
        p <= floor(hi).  Int endpoints are used as they are.
        """
        lo = _as_exact(lo_exclusive)
        hi = _as_exact(hi_inclusive)
        if lo < 0:
            raise DomainError("lower endpoint must be >= 0")
        if lo >= hi:
            raise DomainError(f"empty interval: lo={lo} >= hi={hi}")
        if hi > self.limit:
            raise CoverageError(f"endpoint {hi} beyond sieve limit {self.limit}")
        start = bisect_right(self.primes, math.floor(lo))
        stop = bisect_right(self.primes, math.floor(hi))
        return list(self.primes[start:stop])


def _peak_bytes(limit: int) -> int:
    """Upper estimate of the bytes build_sieve(limit) holds at its peak: the
    flag bytearray, the largest stride buffer (half the limit), 48 B per
    prime for a boxed int, its tuple slot and the tuple's growth, with
    pi(x) < 1.25506 x / ln x (Rosser and Schoenfeld), and 4 KiB of fixed
    object overhead."""
    primes = math.ceil(1.25506 * limit / math.log(limit))
    return 3 * (limit + 1) // 2 + 48 * primes + 4096


def _check_capacity(limit: int, memory_cap: int = MEMORY_CAP) -> None:
    """Refuse a sieve whose limit is below 2 or whose estimated peak
    exceeds memory_cap bytes."""
    if limit < 2:
        raise CapacityError(f"sieve limit {limit} below 2")
    need = _peak_bytes(limit)
    if need > memory_cap:
        raise CapacityError(
            f"sieve limit {limit} needs about {need} bytes, "
            f"over the budget of {memory_cap}"
        )


def build_sieve(limit: int, memory_cap: int = MEMORY_CAP) -> PrimeSieve:
    """Sieve of Eratosthenes over [0, limit], refused before anything is
    allocated when its estimated peak exceeds memory_cap bytes."""
    _check_capacity(limit, memory_cap)
    table = bytearray(b"\x01") * (limit + 1)
    table[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if table[p]:
            table[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    # find() boxes only the primes, where compress(range(...)) boxes every k
    primes = []
    k = table.find(1)
    while k >= 0:
        primes.append(k)
        k = table.find(1, k + 1)
    return PrimeSieve(limit=limit, primes=tuple(primes))


def check_pi_bound(sieve: PrimeSieve, n: int) -> bool:
    """pi(n) <= n/2, valid for n >= 8; checked as 2*pi(n) <= n exactly."""
    if n < 8:
        raise DomainError("the pi(n) <= n/2 bound requires n >= 8")
    if n > sieve.limit:
        raise CoverageError(f"n={n} beyond sieve limit {sieve.limit}")
    return 2 * sieve.pi(n) <= n


@lru_cache(maxsize=4)
def _log_prefix(sieve: PrimeSieve) -> array:
    """prefix[k] = sum of ln p over the first k primes of the sieve."""
    return array("d", accumulate((math.log(p) for p in sieve.primes), initial=0.0))


def _balanced_product(parts) -> int:
    """Product of a sequence of ints via halving, cheap for many factors."""
    parts = list(parts)
    if not parts:
        return 1
    while len(parts) > 1:
        parts = [
            parts[i] * parts[i + 1] if i + 1 < len(parts) else parts[i]
            for i in range(0, len(parts), 2)
        ]
    return parts[0]


def screened_le(lhs: float, rhs: float, margin: float, exact) -> bool:
    """Whether lhs <= rhs, for floats that estimate two exact values with a
    joint error below margin: settled by the floats when they lie more than
    margin apart, else by exact(), which compares the exact values.  exact()
    also decides ties, so a strict exact() makes this a screen for lhs < rhs."""
    if lhs + margin <= rhs:
        return True
    if lhs - margin > rhs:
        return False
    return exact()


def settled_from(bad_ns, n_min: int, n_max: int):
    """Smallest n >= n_min from which a check holds through n_max, given the
    n in [n_min, n_max] where it fails: one past the last failure, or None
    when the check fails at n_max itself."""
    last = max(bad_ns, default=0)
    return None if last == n_max else max(n_min, last + 1)


def check_primorial_bound(sieve: PrimeSieve, x) -> bool:
    """prod_{p <= x} p <= 4^x for rational x > 0.

    Compared in log domain first.  The margin scales the per-term 2^-50
    allowance by the magnitude of the compared values, since the plain
    term-count bound is only valid for sums below 1.  A comparison inside
    the margin escalates to an exact big-integer check of
    (prod p)^b <= 4^a for x = a/b.
    """
    x = _as_rational(x)
    if x <= 0:
        raise DomainError("primorial bound requires x > 0")
    if x > sieve.limit:
        raise CoverageError(f"x={x} beyond sieve limit {sieve.limit}")
    k = sieve.pi(math.floor(x))
    lhs = _log_prefix(sieve)[k]
    rhs = float(x) * _LN4

    def exact():
        if x.denominator > 4096:
            raise PrecisionError(
                "comparison within float margin and exact escalation infeasible "
                f"for denominator {x.denominator}"
            )
        return _balanced_product(sieve.primes[:k]) ** x.denominator <= 4**x.numerator

    margin = (k + 4) * 2.0**-50 * max(1.0, lhs, abs(rhs))
    return screened_le(lhs, rhs, margin, exact)

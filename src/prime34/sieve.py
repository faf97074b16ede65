"""Prime sieve with exact rational range queries, the two classical prime
bounds (pi(n) <= n/2 and the primorial bound prod p <= 4^x, both decided
in integers), and the "smallest n from which a check holds" scanner the
package shares.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import mul

from .errors import CapacityError, CoverageError, DomainError, PrecisionError

MEMORY_CAP = 2**31  # bytes a sieve build may allocate at its peak

Rational = Fraction


def _as_exact(x):
    """x itself when it is an int or a Fraction; floats are refused."""
    if isinstance(x, (int, Fraction)):
        return x
    raise DomainError(f"expected an int or Fraction, got {type(x).__name__}")


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
        p <= floor(hi).
        """
        lo, hi = _as_exact(lo_exclusive), _as_exact(hi_inclusive)
        if lo < 0:
            raise DomainError("lower endpoint must be >= 0")
        if lo >= hi:
            raise DomainError(f"empty interval: lo={lo} >= hi={hi}")
        if hi > self.limit:
            raise CoverageError(f"endpoint {hi} beyond sieve limit {self.limit}")
        lo, hi = math.floor(lo), math.floor(hi)
        primes = self.primes
        stop = bisect_right(primes, hi)
        return list(primes[bisect_right(primes, lo, 0, stop) : stop])


def _peak_bytes(limit: int) -> int:
    """Upper estimate of the bytes build_sieve(limit) holds at its peak:
    3(limit + 1)/2 bytes for the odd-only flag bytearray (half the limit)
    and its largest stride buffer (a sixth, for p = 3), a budget fixed when
    the table flagged every number and kept so that the limits it refuses
    stay the same; 48 B per prime for a boxed int, its list and tuple
    slots and the list's growth, with pi(x) < 1.25506 x / ln x (Rosser and
    Schoenfeld); and 4 KiB of fixed object overhead."""
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
    """Sieve of Eratosthenes over the odd numbers up to limit, refused before
    anything is allocated when its estimated peak exceeds memory_cap bytes."""
    _check_capacity(limit, memory_cap)
    table = bytearray(b"\x01") * ((limit + 1) // 2)  # table[i] flags 2i + 1
    table[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if table[i]:
            p, start = 2 * i + 1, 2 * i * (i + 1)  # start flags p * p
            table[start::p] = bytes(len(range(start, len(table), p)))
    return PrimeSieve(limit=limit, primes=(2, *compress(range(1, limit + 1, 2), table)))


def check_pi_bound(sieve: PrimeSieve, n: int) -> bool:
    """pi(n) <= n/2, valid for n >= 8; checked as 2*pi(n) <= n exactly."""
    if n < 8:
        raise DomainError("the pi(n) <= n/2 bound requires n >= 8")
    if n > sieve.limit:
        raise CoverageError(f"n={n} beyond sieve limit {sieve.limit}")
    return 2 * sieve.pi(n) <= n


def _balanced_product(parts) -> int:
    """Product of a sequence of ints via halving, cheap for many factors."""
    parts = list(parts) or [1]
    while len(parts) > 1:  # pairwise products; an odd last factor carries over
        parts = [*map(mul, parts[::2], parts[1::2]), *parts[len(parts) & ~1 :]]
    return parts[0]


def settled_from(fails, n_min: int, n_max: int):
    """Smallest n >= n_min from which a check holds through n_max, given the
    predicate fails(n): one past the last n in [n_min, n_max] where it is
    true, or None when the check fails at n_max or the range is empty.

    The scan runs down from n_max and stops at the first failure it meets,
    so no n below the last failure is evaluated."""
    for n in range(n_max, n_min - 1, -1):
        if fails(n):
            return None if n == n_max else n + 1
    return n_min if n_min <= n_max else None


def primorial_le(primes, a: int, b: int) -> bool:
    """Whether (prod primes)^b <= 4^a, for a sequence of primes and ints
    a >= 0, b >= 1: _power_le on their product."""
    return _power_le(_balanced_product(primes), a, b)


def _power_le(product: int, a: int, b: int) -> bool:
    """Whether product^b <= 4^a, for ints product >= 1, a >= 0, b >= 1.

    With P the product, 2^m <= P <= 2^l for m = P.bit_length() - 1 and
    l = (P - 1).bit_length(), so b*l <= 2a proves the bound and b*m > 2a
    refutes it.  Only between the two is P^b compared with 4^a, refused
    for b > 4096.
    """
    if b * (product - 1).bit_length() <= 2 * a:
        return True
    if b * (product.bit_length() - 1) > 2 * a:
        return False
    if b > 4096:
        raise PrecisionError(
            f"exact comparison infeasible for denominator {b}: "
            "the bit lengths leave it undecided"
        )
    return product**b <= 4**a


def check_primorial_bound(sieve: PrimeSieve, x) -> bool:
    """prod_{p <= x} p <= 4^x for rational x > 0, as primorial_le on
    x = a/b."""
    x = _as_rational(x)
    if x <= 0:
        raise DomainError("primorial bound requires x > 0")
    if x > sieve.limit:
        raise CoverageError(f"x={x} beyond sieve limit {sieve.limit}")
    primes = sieve.primes[: sieve.pi(math.floor(x))]
    return primorial_le(primes, x.numerator, x.denominator)

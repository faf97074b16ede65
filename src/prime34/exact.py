"""Exact big-integer and rational arithmetic for the binomial C(4n, 3n):
prime valuations, the T1/T2/T3 decomposition, the generalized binomial
{s\\r} with its delta correction, and the divisibility-based bounds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConsistencyError, CoverageError, DomainError
from .sieve import (
    PrimeSieve,
    Rational,
    _as_rational,
    _balanced_product,
    screened_le,
    settled_from,
)

# Deterministic Miller-Rabin bases, valid for all inputs below 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_int(m: int) -> bool:
    """Deterministic primality test for machine-scale integers."""
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _legendre(n: int, p: int) -> int:
    # unchecked core; p must be prime
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def legendre_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n!, by Legendre's formula."""
    if n < 0:
        raise DomainError("factorial valuation requires n >= 0")
    if not is_prime_int(p):
        raise DomainError(f"{p} is not prime")
    return _legendre(n, p)


def _beta(n: int, p: int) -> int:
    # unchecked core; p must be prime.  Once p*p > 4n every Legendre sum
    # is a single floor.
    if p * p > 4 * n:
        return 4 * n // p - 3 * n // p - n // p
    return _legendre(4 * n, p) - _legendre(3 * n, p) - _legendre(n, p)


def beta(n: int, p: int) -> int:
    """Exponent of the prime p in C(4n, 3n)."""
    if n < 1:
        raise DomainError("beta requires n >= 1")
    if not is_prime_int(p):
        raise DomainError(f"{p} is not prime")
    return _beta(n, p)


@dataclass(frozen=True)
class ValuationMap:
    """Factored positive integer: ascending (prime, exponent >= 1) pairs."""

    entries: tuple

    def __post_init__(self):
        prev = 1
        for p, e in self.entries:
            if p <= prev:
                raise DomainError("primes must be strictly ascending")
            if e < 1:
                raise DomainError("exponents must be >= 1")
            prev = p

    @classmethod
    def from_pairs(cls, pairs) -> "ValuationMap":
        vm = cls(entries=tuple(pairs))
        for p, _ in vm.entries:
            if not is_prime_int(p):
                raise DomainError(f"{p} is not prime")
        return vm

    def get(self, p: int) -> int:
        for q, e in self.entries:
            if q == p:
                return e
        return 0

    def value(self) -> int:
        return _balanced_product(p**e for p, e in self.entries)

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class Decomposition:
    """C(4n, 3n) split by prime size: p^2 <= 4n, sqrt(4n) < p <= 3n, p > 3n."""

    n: int
    t1: ValuationMap
    t2: ValuationMap
    t3: ValuationMap

    def product(self) -> int:
        return self.t1.value() * self.t2.value() * self.t3.value()


def decompose(n: int, sieve: PrimeSieve) -> Decomposition:
    """Factor C(4n, 3n) into the T1, T2, T3 valuation maps.

    Size classes are decided exactly: p <= sqrt(4n) iff p*p <= 4n.
    """
    if n < 1:
        raise DomainError("decompose requires n >= 1")
    if 4 * n > sieve.limit:
        raise CoverageError(f"decompose({n}) needs sieve coverage {4 * n}")
    t1, t2, t3 = [], [], []
    stop = bisect_right(sieve.primes, 4 * n)
    for p in sieve.primes[:stop]:
        b = _beta(n, p)
        if b:
            bucket = t1 if p * p <= 4 * n else t2 if p <= 3 * n else t3
            bucket.append((p, b))
    return Decomposition(
        n=n,
        t1=ValuationMap(entries=tuple(t1)),
        t2=ValuationMap(entries=tuple(t2)),
        t3=ValuationMap(entries=tuple(t3)),
    )


def beta_at_most_one(n: int, sieve: PrimeSieve) -> bool:
    """beta(p) <= 1 for every prime with sqrt(4n) < p <= 3n."""
    if n < 1:
        raise DomainError("beta_at_most_one requires n >= 1")
    if 4 * n > sieve.limit:
        raise CoverageError(f"n={n} needs sieve coverage {4 * n}")
    start = bisect_right(sieve.primes, math.isqrt(4 * n))
    stop = bisect_right(sieve.primes, 3 * n)
    return all(_beta(n, p) <= 1 for p in sieve.primes[start:stop])


def floor_of(x) -> int:
    """Greatest integer <= x, exact for any rational."""
    return math.floor(_as_rational(x))


def frac_of(x) -> Rational:
    """Fractional part x - [x], in [0, 1)."""
    x = _as_rational(x)
    return x - math.floor(x)


@dataclass(frozen=True)
class GenBinomIndex:
    """Index pair (s, r) of a generalized binomial, requiring s > r >= 1."""

    s: Rational
    r: Rational

    def __post_init__(self):
        object.__setattr__(self, "s", _as_rational(self.s))
        object.__setattr__(self, "r", _as_rational(self.r))
        if not self.s > self.r >= 1:
            raise DomainError(f"need s > r >= 1, got s={self.s}, r={self.r}")


def delta(idx: GenBinomIndex) -> int:
    """1 if {s} >= {r}, else [s - r] + 1; always <= s."""
    if frac_of(idx.s) >= frac_of(idx.r):
        d = 1
    else:
        d = floor_of(idx.s - idx.r) + 1
    if d > idx.s:
        raise ConsistencyError(f"delta {d} exceeds s = {idx.s}")
    return d


def interval_integer_count(idx: GenBinomIndex) -> int:
    """Number of integers in (s - r, s]."""
    return floor_of(idx.s) - floor_of(idx.s - idx.r)


def gen_binomial(idx: GenBinomIndex) -> int:
    """{s\\r}: the product of integers in (s - r, s] over the product of
    integers in (0, r], computed twice (integer-product quotient and
    delta(r, s) * C([s], [r])) and cross-checked.
    """
    fs = floor_of(idx.s)
    fr = floor_of(idx.r)
    fsr = floor_of(idx.s - idx.r)
    numerator = math.prod(range(fsr + 1, fs + 1))
    quotient, remainder = divmod(numerator, math.factorial(fr))
    if remainder:
        raise ConsistencyError(f"non-integral quotient for (s, r) = ({idx.s}, {idx.r})")
    via_binomial = delta(idx) * math.comb(fs, fr)
    if quotient != via_binomial:
        raise ConsistencyError(
            f"route mismatch for (s, r) = ({idx.s}, {idx.r}): "
            f"{quotient} != {via_binomial}"
        )
    return quotient


# Absorber index coefficients: value = {s_coeff * n \\ r_coeff * n}.
ABSORBER_COEFFS = {
    "A": (Fraction(4, 3), Fraction(1)),
    "B": (Fraction(2), Fraction(3, 2)),
    "C": (Fraction(4, 17), Fraction(3, 13)),
    "D": (Fraction(2, 7), Fraction(4, 15)),
}


def absorber_index(which: str, n: int) -> GenBinomIndex:
    if which not in ABSORBER_COEFFS:
        raise DomainError(f"unknown absorber {which!r}")
    if n < 1:
        raise DomainError("absorber requires n >= 1")
    sc, rc = ABSORBER_COEFFS[which]
    return GenBinomIndex(s=sc * n, r=rc * n)


@lru_cache(maxsize=256)
def absorber(which: str, n: int) -> int:
    """Exact value of the named absorber (A, B, C or D) at n."""
    return gen_binomial(absorber_index(which, n))


def _absorber_floors(which: str, n: int) -> tuple:
    """Integer floors ([s], [s - r], [r]) of the named absorber's index at n,
    under the same s > r >= 1 validation as absorber_index, but computed as
    (num * n) // den without building a Fraction or a GenBinomIndex."""
    if which not in ABSORBER_COEFFS:
        raise DomainError(f"unknown absorber {which!r}")
    if n < 1:
        raise DomainError("absorber requires n >= 1")
    sc, rc = ABSORBER_COEFFS[which]
    sn, sd, rn, rd = sc.numerator, sc.denominator, rc.numerator, rc.denominator
    # with n >= 1: s > r iff sn * rd > rn * sd, and r >= 1 iff rn * n >= rd
    if not (sn * rd > rn * sd and rn * n >= rd):
        raise DomainError(f"need s > r >= 1, got s={sc * n}, r={rc * n}")
    return sn * n // sd, (sn * rd - rn * sd) * n // (sd * rd), rn * n // rd


def absorber_valuation(which: str, n: int, p: int) -> int:
    """Exponent of a prime p in the named absorber, via Legendre sums."""
    fs, fsr, fr = _absorber_floors(which, n)
    return _legendre(fs, p) - _legendre(fsr, p) - _legendre(fr, p)


def _t2_value(n: int, sieve: PrimeSieve) -> int:
    start = bisect_right(sieve.primes, math.isqrt(4 * n))
    stop = bisect_right(sieve.primes, 3 * n)
    betas = ((p, _beta(n, p)) for p in sieve.primes[start:stop])
    return _balanced_product(p**b for p, b in betas if b)


def check_t2_divisibility_bound(n: int, sieve: PrimeSieve) -> bool:
    """T2 <= 4^(n/6) * A * B * C * D, decided exactly on sixth powers."""
    if 4 * n > sieve.limit:
        raise CoverageError(f"n={n} needs sieve coverage {4 * n}")
    product = 1
    for which in "ABCD":
        product *= absorber(which, n)
    return _t2_value(n, sieve) ** 6 <= 4**n * product**6


def t2_bound_minimal_n(n_max: int, sieve: PrimeSieve):
    """Smallest n such that the T2 bound holds for all n' in [n, n_max].

    An n where an absorber index is not yet valid counts as a failure.
    Returns None if the bound fails at n_max itself.
    """

    def fails(n):
        try:
            return not check_t2_divisibility_bound(n, sieve)
        except DomainError:
            return True

    return settled_from(filter(fails, range(1, n_max + 1)), 1, n_max)


def check_t1_bound(n: int, sieve: PrimeSieve) -> bool:
    """T1 < (4n)^pi(sqrt(4n)) and pi(sqrt(4n)) <= sqrt(n).

    The first comparison runs in log domain with an error margin and
    escalates to exact big integers when inside the margin.  The second is
    already exact as pi(sqrt(4n))^2 <= n.
    """
    if n < 16:
        raise DomainError("the T1 bound requires n >= 16 so that sqrt(4n) >= 8")
    if 4 * n > sieve.limit:
        raise CoverageError(f"n={n} needs sieve coverage {4 * n}")
    t1 = decompose(n, sieve).t1.value()
    k = sieve.pi(math.isqrt(4 * n))
    lhs = math.log(t1)
    rhs = k * math.log(4 * n)
    margin = 2.0**-40 * max(1.0, lhs, rhs)
    return screened_le(lhs, rhs, margin, lambda: t1 < (4 * n) ** k) and k * k <= n

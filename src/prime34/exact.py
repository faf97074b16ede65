"""Exact big-integer and rational arithmetic for the binomial C(4n, 3n):
prime valuations, the T1/T2/T3 decomposition, the generalized binomial
{s\\r} with its delta correction, and the divisibility-based bounds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Optional

from .errors import ConsistencyError, CoverageError, DomainError
from .sieve import (
    PrimeSieve,
    Rational,
    _as_rational,
    _balanced_product,
    build_sieve,
    settled_from,
)

# Deterministic Miller-Rabin bases: the primes up to 41 admit no strong
# pseudoprime below psi_13 = 3317044064679887385961981 (about 3.3 * 10^24;
# J. Sorenson and J. Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).  Without 41 the bound is psi_12, about 3.2 * 10^23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13, itself a strong pseudoprime


def is_prime_int(m: int) -> bool:
    """Deterministic primality test for integers below psi_13; larger ones
    are refused, since the bases prove nothing there."""
    if m >= _MR_BOUND:
        raise DomainError(f"{m} is at or above psi_13 = {_MR_BOUND}, past the proven bases")
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
    # unchecked core; p must be prime
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


def _size_classes(n: int, sieve: PrimeSieve) -> tuple:
    """The primes up to 4n split by size into the T1, T2 and T3 classes,
    p*p <= 4n, sqrt(4n) < p <= 3n and 3n < p <= 4n: three sieve.primes slices."""
    if 4 * n > sieve.limit:
        raise CoverageError(f"n={n} needs sieve coverage {4 * n}")
    primes = sieve.primes
    middle = bisect_right(primes, 3 * n)
    small = bisect_right(primes, 4 * n, 0, middle, key=lambda p: p * p)
    large = bisect_right(primes, 4 * n, middle)
    return primes[:small], primes[small:middle], primes[middle:large]


def _factored(n: int, primes) -> ValuationMap:
    """The part of C(4n, 3n) on the given ascending primes: p^beta(p),
    beta(p) >= 1.  Past sqrt(4n) each Legendre sum of beta is one floor."""
    m, t = 4 * n, 3 * n
    small = bisect_right(primes, m, key=lambda p: p * p)
    exponents = [_beta(n, p) for p in primes[:small]]
    exponents += [m // p - t // p - n // p for p in primes[small:]]
    return ValuationMap(tuple(compress(zip(primes, exponents), exponents)))


def decompose(n: int, sieve: PrimeSieve) -> Decomposition:
    """Factor C(4n, 3n) into the T1, T2, T3 valuation maps."""
    if n < 1:
        raise DomainError("decompose requires n >= 1")
    t1, t2, t3 = (_factored(n, primes) for primes in _size_classes(n, sieve))
    return Decomposition(n=n, t1=t1, t2=t2, t3=t3)


def beta_at_most_one(n: int, sieve: PrimeSieve) -> bool:
    """beta(p) <= 1 for every prime with sqrt(4n) < p <= 3n."""
    if n < 1:
        raise DomainError("beta_at_most_one requires n >= 1")
    return all(e <= 1 for _, e in _factored(n, _size_classes(n, sieve)[1]).entries)


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


def gen_binomial(idx: GenBinomIndex, sieve: Optional[PrimeSieve] = None) -> int:
    """{s\\r}: the product of integers in (s - r, s] over the product of
    integers in (0, r], computed twice and cross-checked: as the product of
    p^v(p) over the primes p <= [s], with v(p) = L([s]) - L([s - r]) - L([r])
    and L(m) the exponent of p in m! (Legendre), and as
    delta(r, s) * C([s], [r]).  The primes come from the caller's sieve,
    which must reach [s] (CoverageError otherwise), or from a sieve built to
    [s]; an index whose sieve to [s] exceeds MEMORY_CAP raises
    CapacityError before anything is allocated.
    """
    floors = fs, fsr, fr = floor_of(idx.s), floor_of(idx.s - idx.r), floor_of(idx.r)
    if sieve is None:
        primes = build_sieve(fs).primes if fs >= 2 else ()
    elif fs > sieve.limit:
        raise CoverageError(f"[s] = {fs} beyond sieve limit {sieve.limit}")
    else:
        primes = sieve.primes[: bisect_right(sieve.primes, fs)]
    small = bisect_right(primes, math.isqrt(fs))  # past them each L is one floor
    exponents = [_floors_valuation(floors, p) for p in primes[:small]]
    exponents += [fs // p - fsr // p - fr // p for p in primes[small:]]
    if min(exponents, default=0) < 0:
        raise ConsistencyError(f"non-integral quotient for (s, r) = ({idx.s}, {idx.r})")
    quotient = _balanced_product(compress(map(pow, primes, exponents), exponents))
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


def absorber(which: str, n: int, sieve: Optional[PrimeSieve] = None) -> int:
    """Exact value of the named absorber (A, B, C or D) at n, on the
    caller's sieve when given (see gen_binomial)."""
    return gen_binomial(absorber_index(which, n), sieve)


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


def _floors_valuation(floors: tuple, p: int) -> int:
    # unchecked core; p must be prime, floors ([s], [s - r], [r]) of an index
    fs, fsr, fr = floors
    return _legendre(fs, p) - _legendre(fsr, p) - _legendre(fr, p)


def absorber_valuation(which: str, n: int, p: int) -> int:
    """Exponent of a prime p in the named absorber, via Legendre sums."""
    return _floors_valuation(_absorber_floors(which, n), p)


def check_t2_divisibility_bound(
    n: int, sieve: PrimeSieve, t2: Optional[int] = None, absorbers=None
) -> bool:
    """T2 <= 4^(n/6) * A * B * C * D, in integers.

    T2 <= ABCD settles it, since 4^(n/6) >= 1; otherwise the sixth powers
    T2^6 <= 4^n * (ABCD)^6 decide.  A caller that holds them passes T2's
    value (decompose(n, sieve).t2.value()) and the four absorbers' values at
    n; otherwise T2 is factored and the absorbers are built on the sieve.
    """
    if t2 is None:
        t2 = _factored(n, _size_classes(n, sieve)[1]).value()
    if absorbers is None:
        absorbers = [absorber(which, n, sieve) for which in "ABCD"]
    abcd = math.prod(absorbers)
    return t2 <= abcd or t2**6 <= 4**n * abcd**6


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

    return settled_from(fails, 1, n_max)


def check_t1_bound(n: int, sieve: PrimeSieve, t1: Optional[int] = None) -> bool:
    """T1 < (4n)^pi(sqrt(4n)) and pi(sqrt(4n)) <= sqrt(n), both in
    integers, the second as pi(sqrt(4n))^2 <= n.  A caller that holds T1's
    value (decompose(n, sieve).t1.value()) passes it; otherwise T1 is
    factored on the sieve."""
    if n < 16:
        raise DomainError("the T1 bound requires n >= 16 so that sqrt(4n) >= 8")
    small = _size_classes(n, sieve)[0]
    k = len(small)
    if t1 is None:
        t1 = _factored(n, small).value()
    return t1 < (4 * n) ** k and k * k <= n

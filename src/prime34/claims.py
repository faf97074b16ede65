"""Window claims on the prime exponents of C(4n,3n) beyond the T1 region.

Twenty-two contiguous windows (a*n, b*n] tile (sqrt(4n), 3n].  Each claim
asserts one consequence for every prime p in its window: the exponent
beta(p) of p in C(4n,3n) is zero, or p^beta(p) divides one of the four
absorbers A, B, C, D, or (first window only) the product of the window's
primes is at most 4^(n/6).  Together the consequences give the divisibility
bound T2 <= 4^(n/6) A B C D.

A claim may carry a chain of linear inequalities that justifies its
consequence.  Chains are verified exactly over the rationals at both window
endpoints: the open endpoint is evaluated at p = lo*n + epsilon via
lexicographic (value, epsilon-coefficient) comparison, the closed endpoint
at p = hi*n directly.  Every side of every link is linear in p, so endpoint
validity implies validity across the whole window; every side is also a
multiple of n, so a chain's verdict is the same at every n and is decided
once per claim.

Window bounds and absorber valuations are integer arithmetic: bounds are
floored as (num * n) // den, and valuations are Legendre sums at the
integer floors of the absorber index.  check_claim decides one window at
one n.  A sweep decides all 22 windows of one n in a single pass
(check_claims): 3n, 4n and the absorber floors are computed once per n,
and since the windows tile, each window's primes are found with one
bisection of the sieve at its floored end, the previous window's end
being its start.  Both decide a window's primes by the same function.
Every prime is still decided on its own, but when (lo + 1)^2 > 4n for the
floored window start lo, each window prime p has p^2 > 4n, which exceeds
every absorber floor too, so each Legendre sum is the single floor m//p:
beta(p) = 4n//p - 3n//p - n//p and v(p) = fs//p - fsr//p - fr//p.  Windows
that open at or below sqrt(4n) keep the full sums.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt
from typing import Optional

from .errors import CoverageError, DomainError
# absorber_valuation is no longer called here but stays in the namespace:
# bench/tracing.py counts calls to it through this module
from .exact import _absorber_floors, _beta, _floors_valuation, absorber_valuation  # noqa: F401
from .sieve import PrimeSieve, primorial_le, settled_from

BETA_ZERO = "BETA_ZERO"
DIVIDES_A = "DIVIDES_A"
DIVIDES_B = "DIVIDES_B"
DIVIDES_C = "DIVIDES_C"
DIVIDES_D = "DIVIDES_D"
PRIMORIAL_16TH = "PRIMORIAL_16TH"

CONSEQUENCES = frozenset(
    {BETA_ZERO, DIVIDES_A, DIVIDES_B, DIVIDES_C, DIVIDES_D, PRIMORIAL_16TH}
)

_ABSORBER_OF = {
    DIVIDES_A: "A",
    DIVIDES_B: "B",
    DIVIDES_C: "C",
    DIVIDES_D: "D",
}

# one chain side: optional multiplier, variable p or n, optional divisor
_SIDE_RE = re.compile(r"^(\d+)?([pn])(?:/(\d+))?$")

_OPS = ("<", "<=")


def _parse_side(token: str):
    m = _SIDE_RE.match(token)
    if m is None:
        raise DomainError(f"unparseable chain term {token!r}")
    mult = int(m.group(1) or 1)
    div = int(m.group(3) or 1)
    return Fraction(mult, div), m.group(2)


@lru_cache(maxsize=64)
def parse_chain(chain: str):
    """Split a chain like '2p < n/2 < 3p <= 2n' into sides and operators."""
    tokens = chain.split()
    if len(tokens) < 3 or len(tokens) % 2 == 0:
        raise DomainError(f"chain must alternate terms and comparisons: {chain!r}")
    sides = tuple(_parse_side(t) for t in tokens[0::2])
    ops = tuple(tokens[1::2])
    bad = [op for op in ops if op not in _OPS]
    if bad:
        raise DomainError(f"unknown chain comparison {bad[0]!r}")
    return sides, ops


@dataclass(frozen=True)
class ClaimSpec:
    """One window claim: interval (lo_coeff*n, hi_coeff*n], a consequence,
    and an optional justification chain.  lo_coeff None means the window
    opens at sqrt(4n), applied exactly as p*p > 4n."""

    id: int
    lo_coeff: Optional[Fraction]
    hi_coeff: Fraction
    consequence: str
    chain: str = ""

    def __post_init__(self):
        if not 1 <= self.id <= 22:
            raise DomainError(f"claim id {self.id} out of range")
        if self.lo_coeff is not None:
            object.__setattr__(self, "lo_coeff", Fraction(self.lo_coeff))
        object.__setattr__(self, "hi_coeff", Fraction(self.hi_coeff))
        if self.lo_coeff is not None and not 0 <= self.lo_coeff < self.hi_coeff:
            raise DomainError(f"claim {self.id}: window is empty or negative")
        if self.consequence not in CONSEQUENCES:
            raise DomainError(f"claim {self.id}: unknown consequence")
        if self.chain:
            parse_chain(self.chain)  # fail fast on typos
        # integer numerators and denominators for floor_window, check_tiling
        # and check_claims, kept off the dataclass fields so equality and
        # repr are unchanged
        lo = self.lo_coeff
        lo_nd = None if lo is None else (lo.numerator, lo.denominator)
        object.__setattr__(
            self, "_floor_coeffs", (lo_nd, self.hi_coeff.numerator, self.hi_coeff.denominator)
        )

    def window(self, n: int):
        """Exact rational (lo, hi] bounds at this n; lo of sqrt(4n) windows
        is isqrt(4n), since p > sqrt(4n) iff p > isqrt(4n) for integer p."""
        lo = Fraction(isqrt(4 * n)) if self.lo_coeff is None else self.lo_coeff * n
        return lo, self.hi_coeff * n

    def floor_window(self, n: int):
        """Integer floors of window(n), computed without Fractions; the
        window's primes are exactly the p with lo < p <= hi."""
        lo_nd, hi_num, hi_den = self._floor_coeffs
        if lo_nd is None:
            return isqrt(4 * n), hi_num * n // hi_den
        return lo_nd[0] * n // lo_nd[1], hi_num * n // hi_den

    @cached_property
    def _chain_verdict(self) -> bool:
        # evaluated on first use; frozen dataclasses still allow the
        # instance-dict write that cached_property makes
        sides, ops = parse_chain(self.chain)
        return _chain_holds_at(sides, ops, 1, self.lo_coeff, True) and _chain_holds_at(
            sides, ops, 1, self.hi_coeff, False
        )


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one claim at one n; failures empty iff the claim holds."""

    claim_id: int
    n: int
    primes_checked: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


_TABLE = (
    ClaimSpec(1, None, Fraction(1, 6), PRIMORIAL_16TH),
    ClaimSpec(
        2, Fraction(1, 6), Fraction(2, 11), DIVIDES_B,
        "2p < n/2 < 3p < 8p < 3n/2 < 9p < 11p <= 2n",
    ),
    ClaimSpec(
        3, Fraction(2, 11), Fraction(4, 21), DIVIDES_A,
        "p < n/3 < 2p < 5p < n < 6p < 7p <= 4n/3",
    ),
    ClaimSpec(
        4, Fraction(4, 21), Fraction(1, 5), BETA_ZERO,
        "5p <= n < 6p < 15p <= 3n < 16p < 20p <= 4n < 21p",
    ),
    ClaimSpec(
        5, Fraction(1, 5), Fraction(2, 9), DIVIDES_A,
        "p < n/3 < 2p < 4p < n < 5p < 6p <= 4n/3",
    ),
    # the 13p-3n link is non-strict: the closed endpoint p = 3n/13 makes
    # 13p equal to 3n, and the consequence still holds there
    ClaimSpec(
        6, Fraction(2, 9), Fraction(3, 13), BETA_ZERO,
        "4p < n < 5p < 13p <= 3n < 14p < 17p < 4n < 18p",
    ),
    ClaimSpec(7, Fraction(3, 13), Fraction(4, 17), DIVIDES_C),
    ClaimSpec(
        8, Fraction(4, 17), Fraction(1, 4), BETA_ZERO,
        "4p <= n < 5p < 12p <= 3n < 13p < 16p <= 4n < 17p",
    ),
    ClaimSpec(
        9, Fraction(1, 4), Fraction(4, 15), DIVIDES_A,
        "p < n/3 < 2p < 3p < n < 4p < 5p <= 4n/3",
    ),
    ClaimSpec(10, Fraction(4, 15), Fraction(2, 7), DIVIDES_D),
    ClaimSpec(
        11, Fraction(2, 7), Fraction(3, 10), BETA_ZERO,
        "3p < n < 4p < 10p <= 3n < 11p < 13p < 4n < 14p",
    ),
    ClaimSpec(
        12, Fraction(3, 10), Fraction(1, 3), DIVIDES_B,
        "p < n/2 < 2p < 4p < 3n/2 < 5p < 6p <= 2n",
    ),
    ClaimSpec(
        13, Fraction(1, 3), Fraction(4, 9), DIVIDES_A,
        "n/3 < p < 2p < n < 3p <= 4n/3",
    ),
    ClaimSpec(
        14, Fraction(4, 9), Fraction(1, 2), BETA_ZERO,
        "2p <= n < 3p < 6p <= 3n < 7p < 8p <= 4n < 9p",
    ),
    ClaimSpec(
        15, Fraction(1, 2), Fraction(2, 3), DIVIDES_B,
        "n/2 < p < 2p < 3n/2 < 3p <= 2n",
    ),
    ClaimSpec(
        16, Fraction(2, 3), Fraction(3, 4), BETA_ZERO,
        "p < n < 2p < 4p <= 3n < 5p < 4n < 6p",
    ),
    ClaimSpec(
        17, Fraction(3, 4), Fraction(4, 5), DIVIDES_B,
        "n/2 < p < 3n/2 < 2p <= 2n",
    ),
    ClaimSpec(
        18, Fraction(4, 5), Fraction(1), BETA_ZERO,
        "p <= n < 2p < 3p <= 3n < 4p <= 4n < 5p",
    ),
    ClaimSpec(19, Fraction(1), Fraction(4, 3), DIVIDES_A),
    ClaimSpec(
        20, Fraction(4, 3), Fraction(3, 2), BETA_ZERO,
        "n < p < 2p <= 3n < 4n < 3p",
    ),
    ClaimSpec(21, Fraction(3, 2), Fraction(2), DIVIDES_B),
    ClaimSpec(22, Fraction(2), Fraction(3), BETA_ZERO, "n < p <= 3n < 4n < 2p"),
)


def claim_table() -> list:
    """The 22 window claims, in window order."""
    return list(_TABLE)


def claim_to_dict(claim: ClaimSpec) -> dict:
    """JSON-friendly form with lo/hi as coefficient strings."""
    return {
        "id": claim.id,
        "lo": "sqrt(4n)" if claim.lo_coeff is None else str(claim.lo_coeff),
        "hi": str(claim.hi_coeff),
        "consequence": claim.consequence,
        "chain": claim.chain,
    }


def check_tiling(table=None) -> bool:
    """Symbolic coefficient check that the windows tile (sqrt(4n), 3n]:
    window 1 opens at sqrt(4n) and each later window opens exactly where
    the previous one closed, ending at 3n.  (sqrt(4n) <= n/6 holds once
    n >= 144; below that window 1 narrows or empties, and windows still
    never overlap because its lower bound is applied as p*p > 4n.)"""
    table = claim_table() if table is None else table
    if len(table) != 22 or table[0].lo_coeff is not None:
        return False
    # coefficients as reduced (numerator, denominator) pairs, which are
    # equal exactly when the rationals are
    prev_hi = None
    for claim in table:
        lo, hi_num, hi_den = claim._floor_coeffs
        if lo is None:
            if prev_hi is not None:
                return False
        elif lo != prev_hi or lo[0] * hi_den >= hi_num * lo[1]:
            return False
        prev_hi = (hi_num, hi_den)
    return prev_hi == (3, 1)


def _chain_holds_at(sides, ops, n: int, p_coeff: Fraction, open_end: bool) -> bool:
    """Evaluate the chain at p = p_coeff*n (+ epsilon when open_end)."""

    def ev(side):
        coeff, var = side
        if var == "n":
            return coeff * n, Fraction(0)
        return coeff * p_coeff * n, coeff if open_end else Fraction(0)

    values = [ev(s) for s in sides]
    for (x, dx), op, (y, dy) in zip(values, ops, values[1:]):
        if x > y:
            return False
        if x == y and not (dx < dy if op == "<" else dx <= dy):
            return False
    return True


def check_chain(claim: ClaimSpec, n: int) -> bool:
    """Whether the claim's inequality chain holds over its whole window at
    this n, decided exactly at the two rational endpoints.

    The verdict does not depend on n.  At p = c*n (+ epsilon) every side of
    a link is a pair (x*n, dx): x*n with a rational x fixed by the chain and
    the endpoint coefficient, dx the side's epsilon coefficient, which holds
    no n.  For n > 0, x*n > y*n iff x > y and x*n == y*n iff x == y, so
    each lexicographic link comparison, and with it the chain, comes out
    the same at every n >= 1.  The verdict is therefore evaluated once, at
    n = 1, and cached on the claim.
    """
    if not claim.chain:
        raise DomainError(f"claim {claim.id} has no chain")
    if claim.lo_coeff is None:
        raise DomainError("chain endpoints require a rational window")
    if n < 1:
        raise DomainError("chain check requires n >= 1")
    return claim._chain_verdict


def absorber_floors_at(n: int) -> dict:
    """{absorber: its index floors at n, or None where the index is outside
    s > r >= 1}, for the windows that share this n."""
    return {which: _floors_or_none(which, n) for which in _ABSORBER_OF.values()}


def _floors_or_none(which: str, n: int):
    try:
        return _absorber_floors(which, n)
    except DomainError:
        return None


def check_claim(
    claim: ClaimSpec, n: int, sieve: PrimeSieve, floors: Optional[dict] = None
) -> ClaimResult:
    """Verify the claim's consequence for every prime in its window at n.

    An empty window passes vacuously.  A divisibility claim whose absorber
    is undefined at this n (index outside s > r >= 1) fails for every
    window prime, since nothing is available to absorb them.  floors, from
    absorber_floors_at(n), shares the absorber floors between the claims
    at one n; when it is None they are computed here.  The primes are
    decided by _window_failures, as in check_claims.
    """
    if n < 1:
        raise DomainError("claims are checked for n >= 1")
    lo, hi = claim.floor_window(n)
    if lo >= hi:
        return ClaimResult(claim.id, n, 0, ())
    primes = sieve.primes_in(lo, hi)
    if not primes:
        return ClaimResult(claim.id, n, 0, ())
    which = _ABSORBER_OF.get(claim.consequence)
    if which is None:
        index = None
    else:
        index = _floors_or_none(which, n) if floors is None else floors[which]
    n4 = 4 * n
    failures = _window_failures(
        claim.consequence, primes, n, 3 * n, n4, (lo + 1) * (lo + 1) > n4, index
    )
    return ClaimResult(claim.id, n, len(primes), failures)


def _window_failures(consequence, primes, n, n3, n4, single, index) -> tuple:
    """(p, detail) for each of one window's primes at n that fail its
    consequence; n3 and n4 are 3n and 4n, index the floors of the claim's
    absorber at n (None where it is undefined or the claim has none).

    single means (lo + 1)^2 > 4n for the floored window start lo.  Then
    every window prime p has p^2 > 4n, and 4n bounds every absorber floor
    (each is at most 2n), so each Legendre sum is the single floor m//p:
    beta(p) = 4n//p - 3n//p - n//p and v(p) = fs//p - fsr//p - fr//p.
    Other windows keep the full Legendre sums.  Detail strings are built,
    by the full sums, for failing primes only.
    """
    if consequence == BETA_ZERO:
        if single:
            bad = [p for p in primes if n4 // p - n3 // p - n // p]
        else:
            bad = [p for p in primes if _beta(n, p)]
        if not bad:
            return ()
        return tuple((p, f"beta={_beta(n, p)}") for p in bad)
    if consequence == PRIMORIAL_16TH:
        # product of window primes <= 4^(n/6), i.e. (product)^6 <= 4^n
        return () if primorial_le(primes, n, 6) else ((0, "window primorial exceeds 4^(n/6)"),)
    which = _ABSORBER_OF[consequence]
    if index is None:
        detail = f"absorber {which} undefined at n={n}"
        return tuple((p, detail) for p in primes)
    if single:
        fs, fsr, fr = index
        bad = [p for p in primes if fs // p - fsr // p - fr // p < n4 // p - n3 // p - n // p]
    else:
        bad = [p for p in primes if _floors_valuation(index, p) < _beta(n, p)]
    if not bad:
        return ()
    return tuple(
        (p, f"valuation {_floors_valuation(index, p)} in {which} < beta {_beta(n, p)}")
        for p in bad
    )


# per claim, in window order: the integer coefficients of the window's end
# and the consequence with its absorber, for check_claims
_WINDOW_ENDS = tuple(
    (c._floor_coeffs[1], c._floor_coeffs[2], c.consequence, _ABSORBER_OF.get(c.consequence))
    for c in _TABLE
)


def check_claims(sieve: PrimeSieve, start: int, stop: int) -> list:
    """Per-claim (primes_checked, failures) of the 22 table claims over n in
    [start, stop], in window order, failures as (n, p, detail): the totals
    of check_claim over every (claim, n), and its failures in n order.

    One pass per n: 3n, 4n and the absorber floors are computed once, and
    the tiled window bounds are walked with one bisection per bound, window
    k opening at window k-1's floored end.  Window 1 opens at isqrt(4n) and
    window 2 at floor(n/6), also where window 1 is empty (below n = 144).
    Each window's primes are decided by _window_failures, as in check_claim.
    """
    if start < 1:
        raise DomainError("claims are checked for n >= 1")
    if start <= stop and 3 * stop > sieve.limit:
        raise CoverageError(f"endpoint {3 * stop} beyond sieve limit {sieve.limit}")
    primes = sieve.primes
    checked = [0] * len(_WINDOW_ENDS)
    failed = [[] for _ in _WINDOW_ENDS]
    for n in range(start, stop + 1):
        n3, n4 = 3 * n, 4 * n
        floors = absorber_floors_at(n)
        lo = isqrt(n4)
        i = bisect_right(primes, lo)
        for k, (num, den, consequence, which) in enumerate(_WINDOW_ENDS):
            hi = num * n // den
            j = bisect_right(primes, hi)
            if i < j:
                checked[k] += j - i
                failures = _window_failures(
                    consequence, primes[i:j], n, n3, n4, (lo + 1) * (lo + 1) > n4,
                    floors.get(which),
                )
                if failures:
                    failed[k] += [(n, p, detail) for p, detail in failures]
            i, lo = j, hi
    return [(c, tuple(f)) for c, f in zip(checked, failed)]


def minimal_valid_n(claim: ClaimSpec, n_max: int, sieve: PrimeSieve):
    """Smallest n such that check_claim passes for every n' in [n, n_max];
    None if the claim still fails at n_max."""
    if n_max < 1:
        raise DomainError("minimal_valid_n requires n_max >= 1")
    bad = (n for n in range(1, n_max + 1) if check_claim(claim, n, sieve).failures)
    return settled_from(bad, 1, n_max)

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

Window bounds and absorber valuations are integer arithmetic.  A sequence
of claims becomes one window plan: per window, where it opens (at
isqrt(4n), where the previous window closed, or at its own floored
(num * n) // den), its end as (num, den), its consequence and its
absorber.  One walker, _claims_pass, decides a plan over a range of n:
the absorber floors are computed once per n, and each window's
primes are found by bisecting the sieve at its floored end, a tiled
window reusing the previous window's end as its start.  check_claims
walks the table's plan, check_claim a one-claim plan, and check_tiling
reads the table's plan.

The walker takes n in blocks of _BLOCK n, a single-n call being one block.
A window's bounds never fall, so within a block [N, M] each prime is in the
window over one stay [N', N' + D'].  A prime with p^2 > 4M has p^2 > 4n at
every n of the block, which also exceeds every absorber floor (each is at
most 2n), so each Legendre sum is the single floor m//p:
beta(p) = 4n//p - 3n//p - n//p and v(p) = fs//p - fsr//p - fr//p.  Such a
prime, unless its claim's absorber is undefined at N, is settled for its
whole stay, with no per-n decision, when N' % p + 3N' % p + 4D' < p (beta
stays 0) or, for a divisibility claim, v(N') = 1 and the floors fsr//p and
fr//p stay put over the stay (v stays 1 >= beta).  Every other prime is decided
per n by _window_failures, the one per-prime decision rule, by the full
Legendre sums, which also writes every failure.  Claim 1's window product
is carried across the n of a call, its primes multiplied in as they enter
and divided out as they leave.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt
from typing import Optional

from .errors import CoverageError, DomainError
# absorber_valuation is no longer called here but stays in the namespace:
# bench/tracing.py counts calls to it through this module
from .exact import _absorber_floors, _beta, _floors_valuation, absorber_valuation  # noqa: F401
from .sieve import PrimeSieve, _balanced_product, _power_le, settled_from

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

    def window(self, n: int):
        """Exact rational (lo, hi] bounds at this n; lo of sqrt(4n) windows
        is isqrt(4n), since p > sqrt(4n) iff p > isqrt(4n) for integer p."""
        lo = Fraction(isqrt(4 * n)) if self.lo_coeff is None else self.lo_coeff * n
        return lo, self.hi_coeff * n

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
    """Symbolic check, on the table's window plan, that the windows tile
    (sqrt(4n), 3n]: window 1 opens at sqrt(4n) and each later window opens
    exactly where the previous one closed, ending at 3n.  (sqrt(4n) <= n/6 holds once
    n >= 144; below that window 1 narrows or empties, and windows still
    never overlap because its lower bound is applied as p*p > 4n.)"""
    plan = _TABLE_PLAN if table is None else _plan(table)
    return (
        len(plan) == 22
        and plan[0][0] is _ROOT
        and all(opens is None for opens, *_ in plan[1:])
        and plan[-1][1:3] == (3, 1)
    )


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


def check_claim(claim: ClaimSpec, n: int, sieve: PrimeSieve) -> ClaimResult:
    """Verify the claim's consequence for every prime in its window at n:
    _claims_pass over the claim's one-window plan.

    An empty window passes vacuously, but a sieve short of the window's
    end is refused even then.  A divisibility claim whose absorber is
    undefined at this n (index outside s > r >= 1) fails for every window
    prime, since nothing is available to absorb them.
    """
    [(checked, failures)] = _claims_pass(sieve, n, n, _plan((claim,)))
    return ClaimResult(claim.id, n, checked, tuple((p, detail) for _, p, detail in failures))


def _window_failures(consequence, primes, n, index) -> tuple:
    """(p, detail) for each of one window's primes at n that fail its
    consequence, BETA_ZERO or a divisibility (_claims_pass decides a
    primorial window itself), by the full Legendre sums; index is the
    floors of the claim's absorber at n (None where it is undefined or the
    claim has none).  Detail strings are built for failing primes only.
    """
    if consequence == BETA_ZERO:
        return tuple((p, f"beta={_beta(n, p)}") for p in primes if _beta(n, p))
    which = _ABSORBER_OF[consequence]
    if index is None:
        detail = f"absorber {which} undefined at n={n}"
        return tuple((p, detail) for p in primes)
    return tuple(
        (p, f"valuation {_floors_valuation(index, p)} in {which} < beta {_beta(n, p)}")
        for p in primes
        if _floors_valuation(index, p) < _beta(n, p)
    )


# where a window opens when it starts at isqrt(4n)
_ROOT = "sqrt(4n)"


def _plan(claims) -> tuple:
    """The window plan of a sequence of claims, in their order: per window,
    where it opens (None where the previous window closed, _ROOT at
    isqrt(4n), else its own (num, den)), its end as (num, den), its
    consequence and its absorber.  Pairs are reduced, so equal pairs are
    equal rationals and give equal floors."""
    plan, prev = [], None
    for c in claims:
        lo, hi = c.lo_coeff, c.hi_coeff
        opens = _ROOT if lo is None else (lo.numerator, lo.denominator)
        if opens == prev:
            opens = None
        prev = (hi.numerator, hi.denominator)
        plan.append((opens, *prev, c.consequence, _ABSORBER_OF.get(c.consequence)))
    return tuple(plan)


_TABLE_PLAN = _plan(_TABLE)


# n per block of _claims_pass.  On 256-n ranges 32 took 15-40 % less time
# per n than 16 from n = 5000 up and the same at n = 2500; a range shorter
# than a block is one block either way.
_BLOCK = 32


def _claims_pass(sieve: PrimeSieve, start: int, stop: int, plan) -> list:
    """Per window of the plan, (primes_checked, failures) over n in
    [start, stop], failures as (n, p, detail) in n order.

    Per n, the absorber floors are computed once, and each window's
    primes are the sieve between two bisections, at its floored start and
    end.  A tiled window starts where the previous one ended,
    also where that one is empty, so it needs one bisection, at its end.
    A sieve that stops short of the plan's furthest end at stop is refused
    before any prime is read.

    The n are walked in blocks [N, M] of _BLOCK, D = M - N, a single n
    being a block with D = 0.  Both bounds of a window grow with n, so each
    prime that is in a window at some n of the block is in it over one
    stay [N', N' + D'] (see _stays), and the primes with the same stay are
    contiguous.  The block lemma takes every window but a primorial one
    and settles a prime for its whole stay, with no per-n decision.  It
    leaves each prime with p^2 <= 4M, and every prime of a divisibility
    window whose absorber is undefined at N.  Any other prime has p^2 > 4n
    at every n of the block, above every absorber floor too (each is at
    most 2n), so beta and v are single floors, and the absorber is defined
    at every n from N on.  Such a prime p is settled when
      - N' % p + 3N' % p + 4D' < p: at n = N' + d the residues n % p and
        3n % p are those at N' plus d and 3d, with no wrap, so beta(n),
        the carry of n % p + 3n % p past p, stays 0; or
      - v(N') = 1 and fsr // p and fr // p stay constant over the stay,
        for the absorber floors (fs, fsr, fr): fs never falls, so v(n) >=
        v(N'), and fs <= fsr + fr + 1, so v(n) <= 1; thus v stays 1, and
        beta <= 1.
    Either way the consequence holds at every n of the stay; with D' = 0
    the two tests are exactly beta(N') = 0 and v(N') = 1 >= beta(N').
    Each prime the lemma leaves is decided at each n of its stay by
    _window_failures, in ascending p, which writes every failure and its
    detail.

    A primorial window (claim 1) carries the product of its primes across
    the n of the call: the primes that enter are multiplied in and those
    that leave divided out, and the product is rebuilt only when the
    window has moved past the carried one.  _power_le, primorial_le's
    rule, decides (product)^6 <= 4^n.
    """
    if start < 1:
        raise DomainError("claims are checked for n >= 1")
    if start <= stop:
        end = max(num * stop // den for _, num, den, _, _ in plan)
        if end > sieve.limit:
            raise CoverageError(f"endpoint {end} beyond sieve limit {sieve.limit}")
    primes = sieve.primes
    checked = [0] * len(plan)
    failed = [[] for _ in plan]
    # per primorial window, (i, j, product of primes[i:j]) as last decided
    carried = [(0, 0, 1)] * len(plan)
    for first in range(start, stop + 1, _BLOCK):
        block = range(first, min(first + _BLOCK, stop + 1))
        floors = [absorber_floors_at(n) for n in block]
        bounds = [_window_bounds(primes, n, plan) for n in block]
        # primes[:root] are those with p^2 <= 4M
        root = bisect_right(primes, isqrt(4 * block[-1]))
        for k, column in enumerate(zip(*bounds)):
            consequence, which = plan[k][3:]
            icol, jcol = zip(*column)
            checked[k] += sum([j - i for i, j in zip(icol, jcol) if i < j])
            if consequence == PRIMORIAL_16TH:
                ci, cj, product = carried[k]
                for n, i, j in zip(block, icol, jcol):
                    if i >= j:
                        continue
                    if i >= cj:
                        product = _balanced_product(primes[i:j])
                    elif (i, j) != (ci, cj):
                        product = (
                            product * _balanced_product(primes[cj:j])
                            // _balanced_product(primes[ci:i])
                        )
                    ci, cj = i, j
                    if not _power_le(product, n, 6):
                        failed[k].append((n, 0, "window primorial exceeds 4^(n/6)"))
                carried[k] = ci, cj, product
                continue
            # the lemma leaves the primes below the cut, and all of them
            # where the absorber is undefined at the block's first n
            cut = root if which is None or floors[0][which] is not None else len(primes)
            unsettled = []
            for x, y, t1, t2 in _stays(icol, jcol):
                z = min(max(x, cut), y)
                unsettled += primes[x:z]
                unsettled += _unsettled(
                    primes[z:y], block[t1], t2 - t1,
                    floors[t1].get(which), floors[t2].get(which),
                )
            if not unsettled:
                continue
            for n, i, j, at_n in zip(block, icol, jcol, floors):
                if i >= j:
                    continue
                window = unsettled[
                    bisect_left(unsettled, primes[i]) : bisect_right(unsettled, primes[j - 1])
                ]
                if window:
                    failures = _window_failures(consequence, window, n, at_n.get(which))
                    failed[k] += [(n, p, detail) for p, detail in failures]
    return [(c, tuple(f)) for c, f in zip(checked, failed)]


def _window_bounds(primes, n: int, plan) -> list:
    """Per window of the plan at n, (i, j): its primes are primes[i:j]."""
    row = []
    for opens, num, den, _, _ in plan:
        if opens is not None:
            lo = isqrt(4 * n) if opens is _ROOT else opens[0] * n // opens[1]
            i = bisect_right(primes, lo)
        j = bisect_right(primes, num * n // den)
        row.append((i, j))
        i = j
    return row


def _stays(icol, jcol) -> list:
    """(x, y, t1, t2) per run of prime indices x..y-1 that are in a window
    at the same block positions t1..t2, given the window's primes
    primes[icol[t]:jcol[t]] at each position t.  i and j never fall, so
    index x is in the window from t1 = bisect_right(jcol, x), the first
    position with x < j, to t2 = bisect_right(icol, x) - 1, the last with
    i <= x.  Both change only where x passes an i or a j, so the runs lie
    between consecutive distinct bounds; a run in the window at no
    position is left out."""
    cuts = sorted({*icol, *jcol})
    stays = []
    for x, y in zip(cuts, cuts[1:]):
        t1, t2 = bisect_right(jcol, x), bisect_right(icol, x) - 1
        if t1 <= t2:
            stays.append((x, y, t1, t2))
    return stays


def _unsettled(stay, n: int, d: int, index, index_last) -> list:
    """The primes of one stay [n, n + d] that the block lemma (see
    _claims_pass) does not settle; index and index_last are the absorber
    floors at n and n + d, both None for a BETA_ZERO window."""
    n3, d4 = 3 * n, 4 * d
    if index is None:
        return [p for p in stay if n % p + n3 % p + d4 >= p]
    fs, fsr, fr = index
    _, fsr_last, fr_last = index_last
    return [
        p for p in stay
        if n % p + n3 % p + d4 >= p
        and (
            fs // p - fsr // p - fr // p != 1
            or fsr_last // p != fsr // p
            or fr_last // p != fr // p
        )
    ]


def check_claims(sieve: PrimeSieve, start: int, stop: int) -> list:
    """Per-claim (primes_checked, failures) of the 22 table claims over n in
    [start, stop], in window order, failures as (n, p, detail): the totals
    of check_claim over every (claim, n), and its failures in n order.

    _claims_pass over the table's plan, which tiles: window 1 opens at
    isqrt(4n) and window k > 1 at window k-1's floored end, so each n takes
    one bisection per window end plus one at isqrt(4n).  Window 2 opens at
    floor(n/6) also where window 1 is empty (below n = 144).  The n are
    taken in blocks of _BLOCK, a single n being one block; a window prime
    with p^2 > 4M for the block's last n M that the block lemma settles
    over its stay in the block, also one that enters or leaves the window
    inside the block, is decided once for that stay, every other one once
    per n.  Claim 1's product is carried across the n of the call, so per
    n it takes in only the primes that enter or leave its window.
    """
    return _claims_pass(sieve, start, stop, _TABLE_PLAN)


def minimal_valid_n(claim: ClaimSpec, n_max: int, sieve: PrimeSieve):
    """Smallest n such that check_claim passes for every n' in [n, n_max];
    None if the claim still fails at n_max."""
    if n_max < 1:
        raise DomainError("minimal_valid_n requires n_max >= 1")
    return settled_from(lambda n: bool(check_claim(claim, n, sieve).failures), 1, n_max)

"""Log-domain analytic machinery: the Stirling sandwich functions f and g,
monotonicity scans for h1 and h2, closed-form bounds on C(4n,3n) and the
four absorbers, the correction term E(n), the growth constant M, the T3
lower bound, and the prime-count lower bound derived from it.

All strictly positive quantities are carried as LogReal values: an
outward-rounded mpmath.iv interval that contains the natural log, plus the
precision it was evaluated at.  A comparison is decided only when the two
intervals do not overlap; otherwise it reports indeterminate and callers
escalate the working precision.

Exact inputs stay integers until they meet an interval: each closed form's
lead and corrections, E(n) and the intermediate T3 form's rational factor
are integer ratios (numerator, denominator), each converted once.  A
closed form is ln(lead^2 / (k n)) / 2 - ln(pi) / 2 + corrections
+ n ln rate, with ln(pi) / 2 and the rates among the constants evaluated
once per precision; e_term builds a Fraction only for its caller.

The values one report evaluates more than once (the binomial lower bound,
the four absorber upper bounds, the T3 lower bound, and the terms the two
T3 forms share) are cached per (n, prec).  Callers pass prec positionally:
lru_cache keys f(n, p), f(n, prec=p) and f(n) apart.  An escalated
comparison asks for a new precision, hence a new key, so the cache never
pins a first attempt.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import chain, pairwise
from types import SimpleNamespace
from typing import NamedTuple, Optional

from .errors import ConsistencyError, DomainError, PrecisionError
from .exact import ABSORBER_COEFFS
from .sieve import _as_rational, settled_from


def _lazy_module(name: str):
    """The module name, executed on its first attribute access unless it
    is imported already.  LazyLoader is not thread-safe before Python 3.12;
    prime34 runs mpmath on its main thread only."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# Only decompose, lower-bound and verify-analytic evaluate a bound, so the
# other commands never pay for loading mpmath.
mpmath = _lazy_module("mpmath")

DEFAULT_PREC = 128
MAX_PREC = 4096

M_CORRECTION_NOTE = (
    "growth constant M uses first factor 256/27; the printed 256/7 is a "
    "misprint (the factor must cancel the (256/27)^n binomial numerator)"
)


@contextmanager
def _working(prec: int):
    """Run mpmath.iv arithmetic at prec bits, every result rounded outward."""
    saved = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        yield
    finally:
        mpmath.iv.prec = saved


def _rational(x):
    """An interval enclosing the rational x, at the working precision."""
    x = _as_rational(x)
    return _ratio(x.numerator, x.denominator)


def _ratio(num: int, den: int):
    """The narrowest interval at the working precision that encloses
    num / den, for ints with den > 0: each endpoint is the quotient rounded
    once, outward.  The fraction need not be in lowest terms."""
    libmp, prec = mpmath.libmp, mpmath.iv.prec
    lo = libmp.from_rational(num, den, prec, libmp.round_floor)
    hi = libmp.from_rational(num, den, prec, libmp.round_ceiling)
    return mpmath.iv.make_mpf((lo, hi))


def _ratio_sum(terms, n: int) -> tuple:
    """The sum of k / (a n + b) over the (k, a, b) in terms, as one integer
    ratio (numerator, denominator), not reduced; every a n + b must be
    positive."""
    num, den = 0, 1
    for k, a, b in terms:
        d = a * n + b
        num, den = num * d + k * den, den * d
    return num, den


class LogReal:
    """Natural log of a strictly positive real, as an interval enclosing it.

    Adding LogReals multiplies the underlying quantities; the ordering of
    ln values is the ordering of the quantities.  LogReal(ln_value, err,
    prec) encloses the ball ln_value +- err.
    """

    __slots__ = ("interval", "prec")

    def __init__(self, ln_value, err, prec: int):
        with _working(prec):
            self.interval = mpmath.iv.mpf(ln_value) + mpmath.iv.mpf((-err, err))
        self.prec = prec

    @classmethod
    def from_interval(cls, interval, prec: int) -> "LogReal":
        """Hold an interval already evaluated at prec."""
        out = cls.__new__(cls)
        out.interval = interval
        out.prec = prec
        return out

    @property
    def ln_value(self) -> mpmath.mpf:
        """The interval's midpoint, rounded to nearest at prec; reports
        print this point value."""
        with _working(self.prec), mpmath.workprec(self.prec):
            return mpmath.mpf(self.interval.mid)

    @property
    def err(self) -> mpmath.mpf:
        """Half the interval's width, rounded up to 53 bits."""
        with _working(53), mpmath.workprec(53):
            return mpmath.mpf(self.interval.delta) / 2

    def __add__(self, other: "LogReal") -> "LogReal":
        prec = min(self.prec, other.prec)
        with _working(prec):
            return LogReal.from_interval(self.interval + other.interval, prec)

    def __sub__(self, other: "LogReal") -> "LogReal":
        prec = min(self.prec, other.prec)
        with _working(prec):
            return LogReal.from_interval(self.interval - other.interval, prec)

    def scaled(self, k) -> "LogReal":
        """The underlying quantity raised to the rational power k."""
        with _working(self.prec):
            return LogReal.from_interval(self.interval * _rational(k), self.prec)

    def less_than(self, other: "LogReal") -> Optional[bool]:
        """True when this interval lies wholly below other's, False when
        wholly at or above it, None when the two overlap."""
        return self.interval < other.interval

    def consistent_with(self, other: "LogReal") -> bool:
        """Whether the two intervals overlap."""
        return self.interval.a <= other.interval.b and other.interval.a <= self.interval.b


def _decide(attempt, prec: int = DEFAULT_PREC) -> bool:
    """Run attempt(prec) -> Optional[bool], doubling precision on None."""
    while prec <= MAX_PREC:
        result = attempt(prec)
        if result is not None:
            return result
        prec *= 2
    raise PrecisionError(f"comparison undecided at {MAX_PREC} bits")


def _all_less(pairs) -> Optional[bool]:
    """a < b for every (a, b) of LogReals in pairs: False when some pair is
    decided a >= b, else None when some pair overlaps, else True."""
    verdicts = {a.less_than(b) for a, b in pairs}
    if False in verdicts:
        return False
    return None if None in verdicts else True


class _Form(NamedTuple):
    """A Stirling closed form for the generalized binomial {s n \\ r n}:
    lead / sqrt(k pi n) * e^(sum of c/(a n + b) over the corrections)
    * rate^n, with ln rate from _rate(s, r).  The lead is a pair (numerator,
    denominator) of tuples of integer linear factors, each (a, b) for
    a n + b; the form applies from _first_n(form) on."""

    index: tuple
    lead: tuple
    k: int
    corrections: tuple


# The lower bound on C(4n, 3n) and the upper bounds on the four absorbers.
_FORMS = {
    "binomial": _Form(
        (4, 3), (((0, 2),), ()), 6, ((1, 48, 1), (-1, 36, 0), (-1, 12, 0)),
    ),
    "A": _Form(
        ABSORBER_COEFFS["A"], (((8, 0),), ((0, 3),)), 2,
        ((1, 16, 0), (-1, 12, 1), (-1, 4, 1)),
    ),
    "B": _Form(
        ABSORBER_COEFFS["B"], (((12, 8),), ()), 3,
        ((1, 24, 0), (-1, 18, 1), (-1, 6, 1)),
    ),
    "C": _Form(
        ABSORBER_COEFFS["C"], (((4, 0), (51, 221), (0, 26)), ((0, 17), (1, -221))), 6,
        ((17, 48, 0), (-13, 36, 13), (-221, 12, 221)),
    ),
    "D": _Form(
        ABSORBER_COEFFS["D"], (((0, 15), (1, 0), (4, 15)), ((2, -105),)), 2,
        ((7, 24, 0), (-5, 16, 5), (-35, 8, 35)),
    ),
}


def _first_n(form: _Form) -> int:
    """The first n >= 1 from which every lead factor a n + b is positive
    (a factor with a = 0 is a positive constant)."""
    return max([1] + [-b // a + 1 for a, b in chain(*form.lead) if a > 0])


# The T3 bound combines every row, so it applies from the largest first n on.
T3_N_MIN = max(map(_first_n, _FORMS.values()))


def _rate(s, r):
    """ln of the growth rate of {s n \\ r n}: s ln s - r ln r - (s-r) ln(s-r)."""
    s, r = _rational(s), _rational(r)
    return s * mpmath.iv.log(s) - r * mpmath.iv.log(r) - (s - r) * mpmath.iv.log(s - r)


@lru_cache(maxsize=8)
def _constants(prec: int) -> SimpleNamespace:
    """The intervals every bound shares, evaluated once per precision.  The
    rates are the exponential growth rates of the five closed forms; the
    prefactors are ln(sqrt(3) pi^(3/2) / d) for the two forms of T3, with
    the paper's printed d, not derived from _FORMS: BoundReport.validate
    checks the chain the table composes against these forms."""
    with _working(prec):
        pi = +mpmath.iv.pi
        pi_3_2 = mpmath.iv.sqrt(3) * pi * mpmath.iv.sqrt(pi)
        return SimpleNamespace(
            half=mpmath.iv.mpf(0.5),
            one=mpmath.iv.mpf(1),
            twelve=mpmath.iv.mpf(12),
            half_ln_pi=mpmath.iv.log(pi) / 2,
            half_ln_2pi=mpmath.iv.log(2 * pi) / 2,
            rates={name: _rate(*form.index) for name, form in _FORMS.items()},
            t3_prefactor=mpmath.iv.log(pi_3_2 / 332800),
            t3_prefactor_intermediate=mpmath.iv.log(pi_3_2 / 4160),
        )


def _closed_form(name: str, n: int, prec: int) -> LogReal:
    """The named row of _FORMS evaluated at n, as
    ln(lead^2 / (k n)) / 2 - ln(pi) / 2 + corrections + n ln rate, with the
    lead and the corrections each one integer ratio and ln(pi) / 2 from
    _constants."""
    form = _FORMS[name]
    n_min = _first_n(form)
    if n < n_min:
        poles = "".join(f" has a pole at n = {Fraction(-b, a)};" for a, b in form.lead[1] if a > 0)
        raise DomainError(f"{name} bound{poles} requires n >= {n_min}")
    num, den = (math.prod(a * n + b for a, b in side) for side in form.lead)
    c = _constants(prec)
    with _working(prec):
        v = mpmath.iv.log(_ratio(num * num, den * den * form.k * n)) * c.half - c.half_ln_pi
        v += _ratio(*_ratio_sum(form.corrections, n)) + n * c.rates[name]
        return LogReal.from_interval(v, prec)


def ln_of_int(value: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of an exactly known positive integer, for comparisons against
    the closed-form bounds."""
    if not isinstance(value, int) or value <= 0:
        raise DomainError("ln_of_int requires a positive integer")
    with _working(prec):
        return LogReal.from_interval(mpmath.iv.log(value), prec)


def _ln_stirling(name: str, x, shift: int, prec: int) -> LogReal:
    """ln of sqrt(2 pi) x^(x+1/2) e^(-x) e^(1/(12x + shift))."""
    x = _as_rational(x)
    if x <= 0:
        raise DomainError(f"{name} is defined for x > 0")
    c = _constants(prec)
    with _working(prec):
        xi = _rational(x)
        denom = c.twelve * xi + c.one if shift else c.twelve * xi
        v = c.half_ln_2pi + (xi + c.half) * mpmath.iv.log(xi) - xi + c.one / denom
        return LogReal.from_interval(v, prec)


def ln_f(x, prec: int = DEFAULT_PREC) -> LogReal:
    """ln f(x) for f(x) = sqrt(2 pi) x^(x+1/2) e^(-x) e^(1/(12x))."""
    return _ln_stirling("f", x, 0, prec)


def ln_g(x, prec: int = DEFAULT_PREC) -> LogReal:
    """ln g(x), identical to ln f(x) except the 1/(12x + 1) correction."""
    return _ln_stirling("g", x, 1, prec)


def ln_factorial(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln(n!) by direct summation of ln k, independent of f and g."""
    if n < 0:
        raise DomainError("factorial requires n >= 0")
    with _working(prec):
        total = mpmath.iv.mpf(0)
        for k in range(2, n + 1):
            total += mpmath.iv.log(k)
        return LogReal.from_interval(total, prec)


def check_factorial_sandwich(n: int) -> bool:
    """Strictly g(n) < n! < f(n), escalating precision when indeterminate."""
    if n < 1:
        raise DomainError("sandwich check requires n >= 1")

    def attempt(p):
        mid = ln_factorial(n, p)
        return _all_less([(ln_g(n, p), mid), (mid, ln_f(n, p))])

    return _decide(attempt)


def factorial_sandwich_sweep(n_max: int) -> list:
    """One incremental pass of the sandwich over [1, n_max].

    Returns [(n, "violated" | "indeterminate"), ...]; empty means every
    comparison cleared its band strictly at this precision.
    """
    bad = []
    prec = DEFAULT_PREC
    with _working(prec):
        total = mpmath.iv.mpf(0)
        for n in range(1, n_max + 1):
            total += mpmath.iv.log(n)
            mid = LogReal.from_interval(total, prec)
            verdict = _all_less([(ln_g(n, prec), mid), (mid, ln_f(n, prec))])
            if verdict is not True:
                bad.append((n, "indeterminate" if verdict is None else "violated"))
    return bad


def _validate_grid(grid, lo_min: Fraction) -> list:
    pts = [_as_rational(x) for x in grid]
    if not pts:
        raise DomainError("empty grid")
    if any(b <= a for a, b in pairwise(pts)):
        raise DomainError("grid must be strictly ascending")
    if pts[0] < lo_min:
        raise DomainError(f"grid must start at or above {lo_min}")
    return pts


def scan_h1_monotone(c, grid) -> bool:
    """h1(x) = f(x + c) / (g(c) g(x)) strictly increasing along the grid."""
    c = _as_rational(c)
    if c < Fraction(1, 12):
        raise DomainError("h1 requires c >= 1/12")
    pts = _validate_grid(grid, Fraction(1, 2))

    def attempt(p):
        gc = ln_g(c, p)
        vals = [ln_f(x + c, p) - gc - ln_g(x, p) for x in pts]
        return _all_less(pairwise(vals))

    return _decide(attempt)


def scan_h2_unimodal(c, grid) -> bool:
    """h2(x) = f(c) / (g(x) g(c - x)): strictly increasing below c/2 and
    strictly decreasing above.  h2(x) = h2(c - x) holds by definition, so
    symmetry about c/2 needs no check."""
    c = _as_rational(c)
    if c < 1:
        raise DomainError("h2 scan requires c >= 1")
    pts = _validate_grid(grid, Fraction(1, 2))
    if pts[-1] > c - Fraction(1, 2):
        raise DomainError(f"grid must stay within [1/2, {c - Fraction(1, 2)}]")
    half = c / 2

    def attempt(p):
        fc = ln_f(c, p)
        vals = [fc - ln_g(x, p) - ln_g(c - x, p) for x in pts]
        # rising up to the peak, falling after it; a pair straddling it is skipped
        return _all_less(
            (va, vb) if b <= half else (vb, va)
            for (a, va), (b, vb) in pairwise(zip(pts, vals))
            if b <= half or a >= half
        )

    return _decide(attempt)


@lru_cache(maxsize=64)
def ln_binom_lower(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of 2/sqrt(6 pi n) * e^(1/(48n+1) - 1/(36n) - 1/(12n)) * (256/27)^n,
    the closed-form lower bound on C(4n, 3n).

    Cross-checked against ln g(4n) - ln f(3n) - ln f(n), which it equals
    identically; disagreement raises ConsistencyError.
    """
    closed = _closed_form("binomial", n, prec)
    route = ln_g(4 * n, prec) - ln_f(3 * n, prec) - ln_f(n, prec)
    if not closed.consistent_with(route):
        raise ConsistencyError(f"binomial lower bound routes disagree at n={n}")
    return closed


@lru_cache(maxsize=64)
def ln_a_upper(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of (4n/3) sqrt(2/(pi n)) e^(1/(16n) - 1/(12n+1) - 1/(4n+1))
    * (4^(4/3)/3)^n, the closed-form upper bound on A."""
    return _closed_form("A", n, prec)


@lru_cache(maxsize=64)
def ln_b_upper(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of ((12n+8)/sqrt(3 pi n)) e^(1/(24n) - 1/(18n+1) - 1/(6n+1))
    * (16/3^(3/2))^n, the closed-form upper bound on B."""
    return _closed_form("B", n, prec)


@lru_cache(maxsize=64)
def ln_c_upper(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of (4n/17) ((51n+221)/(n-221)) (26/sqrt(6 pi n))
    * e^(17/(48n) - 13/(36n+13) - 221/(12n+221))
    * (221^(1/221) (13/3)^(3/13) (4/17)^(4/17))^n, upper bound on C."""
    return _closed_form("C", n, prec)


@lru_cache(maxsize=64)
def ln_d_upper(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of ((4n^2+15n)/(2n-105)) (15/sqrt(2 pi n))
    * e^(7/(24n) - 5/(16n+5) - 35/(8n+35))
    * ((105/2)^(2/105) (15/4)^(4/15) (2/7)^(2/7))^n, upper bound on D."""
    return _closed_form("D", n, prec)


# The upper bound on each absorber, read by sweeps.absorber_below_bound
_ABSORBER_UPPER = {"A": ln_a_upper, "B": ln_b_upper, "C": ln_c_upper, "D": ln_d_upper}


def ln_t1_upper(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of (4n)^sqrt(n), the analytic cap on T1."""
    if n < 1:
        raise DomainError("T1 cap requires n >= 1")
    with _working(prec):
        return LogReal.from_interval(mpmath.iv.sqrt(n) * mpmath.iv.log(4 * n), prec)


# The 15 terms of E(n), each k / (a*n + b) as (k, a, b): the binomial
# bound's corrections less those of the four absorber bounds.
_E_TERMS = _FORMS["binomial"].corrections + tuple(
    (-k, a, b) for name in "ABCD" for k, a, b in _FORMS[name].corrections
)


def e_term(n: int) -> Fraction:
    """The 15-term correction aggregate E(n), as an exact rational summed
    as one integer ratio."""
    if n < 1:
        raise DomainError("E is defined for n >= 1")
    return Fraction(*_ratio_sum(_E_TERMS, n))


@lru_cache(maxsize=8)
def ln_m(prec: int = DEFAULT_PREC) -> LogReal:
    """ln M for the ten-factor growth constant, first factor 256/27.

    See M_CORRECTION_NOTE for why 256/27 replaces the printed 256/7.
    ln M is checked positive (M > 1 drives the T3 bound to infinity).
    """
    with _working(prec):
        v = (
            mpmath.iv.log(mpmath.iv.mpf(256) / 27)
            + 4 * mpmath.iv.log(mpmath.iv.mpf(1) / 4) / 3
            + mpmath.iv.log(3)
            + mpmath.iv.log(3 * mpmath.iv.sqrt(3) / 16)
            + mpmath.iv.log(mpmath.iv.mpf(1) / 221) / 221
            + 3 * mpmath.iv.log(mpmath.iv.mpf(3) / 13) / 13
            + 4 * mpmath.iv.log(mpmath.iv.mpf(17) / 4) / 17
            + 2 * mpmath.iv.log(mpmath.iv.mpf(2) / 105) / 105
            + 4 * mpmath.iv.log(mpmath.iv.mpf(4) / 15) / 15
            + 2 * mpmath.iv.log(mpmath.iv.mpf(7) / 2) / 7
            - mpmath.iv.log(4) / 6
        )
    if not v.a > 0:
        raise ConsistencyError("ln M must be positive")
    return LogReal.from_interval(v, prec)


def ln_m_rate_identity(prec: int = DEFAULT_PREC) -> bool:
    """ln M == ln(256/27) - rate_A - rate_B - rate_C - rate_D - (1/6)ln 4,
    the defining cancellation against the growth rates, which here are
    derived from the binomial's and the absorbers' indices."""
    rates = _constants(prec).rates
    with _working(prec):
        absorbed = rates["A"] + rates["B"] + rates["C"] + rates["D"]
        rhs = rates["binomial"] - absorbed - mpmath.iv.log(4) / 6
    return ln_m(prec).consistent_with(LogReal.from_interval(rhs, prec))


def replacement_step_holds(n: int) -> bool:
    """Whether the prefactor simplification step is valid at n:
    80 n (n-221)(2n-105) >= (3n+2)(3n+13)(4n+15), exactly."""
    return (
        80 * n * (n - 221) * (2 * n - 105)
        >= (3 * n + 2) * (3 * n + 13) * (4 * n + 15)
    )


def replacement_minimal_n(n_max: int = 10_000):
    """Smallest n such that replacement_step_holds for all n' in [n, n_max]."""
    return settled_from(lambda n: not replacement_step_holds(n), 1, n_max)


@lru_cache(maxsize=64)
def _t3_shared(n: int, prec: int) -> tuple:
    """(E + n ln M - sqrt(n) ln 4n, ln n) as intervals, evaluated once per
    (n, prec) for both T3 forms."""
    lm = ln_m(prec).interval
    with _working(prec):
        shared = _ratio(*_ratio_sum(_E_TERMS, n)) + n * lm
        return shared - mpmath.iv.sqrt(n) * mpmath.iv.log(4 * n), mpmath.iv.log(n)


def _t3_terms(n: int, prefactor, n_power, prec: int):
    """prefactor + E + n ln M - sqrt(n) ln 4n - n_power ln n as an interval,
    one T3 form from the terms both share.  Both apply from T3_N_MIN on."""
    if n < T3_N_MIN:
        raise DomainError(f"T3 lower bound requires n >= {T3_N_MIN}")
    shared, ln_n = _t3_shared(n, prec)
    with _working(prec):
        return prefactor + shared - n_power * ln_n


@lru_cache(maxsize=64)
def ln_t3_lower(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of (sqrt(3) pi^(3/2) / 332800) e^E M^n (4n)^(-sqrt n) n^(-5/2)."""
    v = _t3_terms(n, _constants(prec).t3_prefactor, 2.5, prec)
    return LogReal.from_interval(v, prec)


def ln_t3_lower_intermediate(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """The pre-simplification form with prefactor sqrt(3) pi^(3/2) / 4160 and
    the rational factor n^(-3/2)(n-221)(2n-105)/((3n+2)(3n+13)(4n+15)), both
    as printed: validate checks the table against them (see _constants)."""
    v = _t3_terms(n, _constants(prec).t3_prefactor_intermediate, 1.5, prec)
    num, den = (n - 221) * (2 * n - 105), (3 * n + 2) * (3 * n + 13) * (4 * n + 15)
    with _working(prec):
        return LogReal.from_interval(v + mpmath.iv.log(_ratio(num, den)), prec)


def count_lower_bound(n: int, prec: int = DEFAULT_PREC) -> float:
    """log base 4n of the T3 lower bound: a lower bound on the number of
    primes in the open interval (3n, 4n).  For n >= 307 the prefactor
    replacement step holds (replacement_step_holds), so the final T3 form
    lies below the intermediate one and with it below T3.  On [222, 306]
    the step fails, and the result is a lower bound only because it is
    negative there."""
    t3 = ln_t3_lower(n, prec)
    with mpmath.workprec(prec):
        return float(t3.ln_value / mpmath.log(4 * n))


def _simplified(n: int, prec: int):
    """The further-simplified count bound
    n (ln M - ln(4n) / sqrt(n)) / (2 ln n) - 5/2 as an interval."""
    if n < T3_N_MIN:
        raise DomainError(f"count lower bound requires n >= {T3_N_MIN}")
    lm = ln_m(prec).interval
    with _working(prec):
        log = mpmath.iv.log
        return n * (lm - log(4 * n) / mpmath.iv.sqrt(n)) / (2 * log(n)) - mpmath.iv.mpf(2.5)


def count_lower_bound_simplified(n: int) -> float:
    """The further-simplified form n(ln M - ln(4n)/sqrt(n))/(2 ln n) - 5/2,
    the midpoint of its interval."""
    return float(LogReal.from_interval(_simplified(n, DEFAULT_PREC), DEFAULT_PREC).ln_value)


def _t3_settled_from(fails, n_min: int, n_max: int):
    """settled_from over [n_min, n_max] for a check on the T3 bound."""
    # below T3_N_MIN the T3 bound is undefined, yet a scan that stops above
    # it would never evaluate there and would return an answer
    if n_min < T3_N_MIN:
        raise DomainError(f"threshold scan requires n_min >= {T3_N_MIN}, got {n_min}")
    if n_max < n_min:
        raise DomainError(f"threshold scan requires n_min <= n_max, got [{n_min}, {n_max}]")
    return settled_from(fails, n_min, n_max)


def simplified_bound_minimal_n(n_max: int, n_min: int = T3_N_MIN):
    """Smallest n such that simplified <= exact holds for all n' in [n, n_max].

    The simplification drops negative terms, so unlike the blanket n >= 4
    reading it only holds from an empirical threshold onward; this reports
    that threshold.  Each n is decided in interval arithmetic, ln T3 / ln 4n
    against the simplified form, escalating precision while the two
    overlap.  The scan runs down from n_max and stops at the last failure,
    so a call costs about 0.3-0.45 ms per n between n_max and the threshold
    (2 cores): pass an n_max not far above the threshold.
    """

    def exact_below_simplified(n):
        def attempt(p):
            with _working(p):
                count = ln_t3_lower(n, p).interval / mpmath.iv.log(4 * n)
            return count < _simplified(n, p)

        return _decide(attempt)

    return _t3_settled_from(exact_below_simplified, n_min, n_max)


def t3_positive_minimal_n(n_max: int, n_min: int = T3_N_MIN):
    """Smallest n such that ln_t3_lower stays positive through [n, n_max],
    i.e. the empirical threshold past which T3 > 1 is guaranteed; None if
    the bound is still nonpositive at n_max.  Each n is decided in interval
    arithmetic, escalating precision while the bound's interval holds 0.
    The scan runs down from n_max and stops at the last failure, so a call
    costs about 0.15-0.25 ms per n between n_max and the threshold (2
    cores): pass an n_max not far above the threshold.
    """

    def negative(n):
        return _decide(lambda p: ln_t3_lower(n, p).less_than(_zero(p)))

    return _t3_settled_from(negative, n_min, n_max)


def _zero(prec: int) -> LogReal:
    return LogReal(0, 0, prec)


@dataclass(frozen=True)
class BoundReport:
    """All analytic bounds at one n, validated for chain consistency."""

    n: int
    ln_binom_lower: LogReal
    ln_A_upper: LogReal
    ln_B_upper: LogReal
    ln_C_upper: LogReal
    ln_D_upper: LogReal
    ln_T1_upper: LogReal
    e_term: Fraction
    ln_T3_lower: LogReal
    count_lower_bound: float

    def validate(self) -> None:
        """Recompute ln_T3_lower from the other fields per the bound chain.

        The chain composition (binomial lower bound over the T1 cap,
        4^(n/6) and the four absorber uppers) must match the intermediate
        closed form within error; the stored final form must lie strictly
        below the intermediate wherever the prefactor replacement step
        holds, escalating precision while the two overlap.
        """
        prec = self.ln_T3_lower.prec
        with _working(prec):
            ln4_sixth = LogReal.from_interval(self.n * mpmath.iv.log(4) / 6, prec)
        chain = (
            self.ln_binom_lower
            - self.ln_T1_upper
            - ln4_sixth
            - self.ln_A_upper
            - self.ln_B_upper
            - self.ln_C_upper
            - self.ln_D_upper
        )
        intermediate = ln_t3_lower_intermediate(self.n, prec)
        if not chain.consistent_with(intermediate):
            raise ConsistencyError(
                f"bound chain does not recompose at n={self.n}: "
                f"{chain.ln_value} vs {intermediate.ln_value}"
            )

        def final_below_intermediate(p):
            # the stored field at prec; both forms re-evaluated when escalated
            if p == prec:
                return self.ln_T3_lower.less_than(intermediate)
            return ln_t3_lower(self.n, p).less_than(ln_t3_lower_intermediate(self.n, p))

        if replacement_step_holds(self.n) and not _decide(final_below_intermediate, prec):
            raise ConsistencyError(
                f"final T3 form exceeds the intermediate form at n={self.n}"
            )

    def to_json_dict(self) -> dict:
        d = {}
        for name in BOUND_REPORT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, LogReal):
                value = value.ln_value
            d[name] = value if name == "n" else float(value)
        d["m_constant_note"] = M_CORRECTION_NOTE
        return d


BOUND_REPORT_FIELDS = tuple(f.name for f in fields(BoundReport))


def build_bound_report(n: int) -> BoundReport:
    """Evaluate every analytic bound at n and validate the chain."""
    prec = DEFAULT_PREC
    report = BoundReport(
        n=n,
        ln_binom_lower=ln_binom_lower(n, prec),
        ln_A_upper=ln_a_upper(n, prec),
        ln_B_upper=ln_b_upper(n, prec),
        ln_C_upper=ln_c_upper(n, prec),
        ln_D_upper=ln_d_upper(n, prec),
        ln_T1_upper=ln_t1_upper(n, prec),
        e_term=e_term(n),
        ln_T3_lower=ln_t3_lower(n, prec),
        count_lower_bound=count_lower_bound(n, prec),
    )
    report.validate()
    return report


def default_h1_grid(points: int = 50, lo: float = 0.5, hi: float = 1e6) -> list:
    """Geometric grid for the h1 scan, as exact binary rationals."""
    ratio = hi / lo
    return [Fraction(lo * ratio ** (i / (points - 1))) for i in range(points)]


def default_h2_grid(c, points: int = 100) -> list:
    """Uniform (hence mirror-symmetric) grid over [1/2, c - 1/2]."""
    c = _as_rational(c)
    if c < 1:
        raise DomainError("h2 grid requires c >= 1")
    width = c - 1
    return [Fraction(1, 2) + Fraction(i, points - 1) * width for i in range(points)]

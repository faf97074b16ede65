"""Log-domain analytic machinery: the Stirling sandwich functions f and g,
monotonicity scans for h1 and h2, closed-form bounds on C(4n,3n) and the
four absorbers, the correction term E(n), the growth constant M, the T3
lower bound, and the prime-count lower bound derived from it.

All strictly positive quantities are carried as LogReal values: a high
precision natural log plus an accumulated absolute error bound.  Boolean
comparisons must clear the joint error band; otherwise they report
indeterminate and callers escalate the working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import pairwise
from typing import Optional

from mpmath import log, mpf, pi, sqrt, workprec

from .errors import ConsistencyError, DomainError, PrecisionError
from .sieve import settled_from

DEFAULT_PREC = 128
MAX_PREC = 4096

M_CORRECTION_NOTE = (
    "growth constant M uses first factor 256/27; the printed 256/7 is a "
    "misprint (the factor must cancel the (256/27)^n binomial numerator)"
)


def _coerce_rational(x) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"non-finite value {x}")
        return Fraction(x)
    raise DomainError(f"expected a rational value, got {type(x).__name__}")


def _to_mpf(x) -> mpf:
    # one rounding for Fractions, exact for ints and floats that fit
    x = _coerce_rational(x)
    return mpf(x.numerator) / mpf(x.denominator)


def _round_eps(prec: int, value) -> mpf:
    return mpf(2) ** (1 - prec) * max(mpf(1), abs(value))


@dataclass(frozen=True)
class LogReal:
    """Natural log of a strictly positive real, with an error bound.

    Adding LogReals multiplies the underlying quantities; the ordering of
    ln values is the ordering of the quantities.
    """

    ln_value: mpf
    err: mpf
    prec: int

    def __add__(self, other: "LogReal") -> "LogReal":
        prec = min(self.prec, other.prec)
        with workprec(prec):
            v = self.ln_value + other.ln_value
        return LogReal(v, self.err + other.err + _round_eps(prec, v), prec)

    def __sub__(self, other: "LogReal") -> "LogReal":
        prec = min(self.prec, other.prec)
        with workprec(prec):
            v = self.ln_value - other.ln_value
        return LogReal(v, self.err + other.err + _round_eps(prec, v), prec)

    def scaled(self, k) -> "LogReal":
        """The underlying quantity raised to the rational power k."""
        with workprec(self.prec):
            kf = _to_mpf(k)
            v = self.ln_value * kf
        err = self.err * abs(kf) + 2 * _round_eps(self.prec, v)
        return LogReal(v, err, self.prec)

    def less_than(self, other: "LogReal") -> Optional[bool]:
        """True/False when decidable outside the joint band, else None."""
        band = self.err + other.err
        gap = self.ln_value - other.ln_value
        if gap < -band:
            return True
        if gap > band:
            return False
        return None

    def consistent_with(self, other: "LogReal") -> bool:
        """Whether the two values agree within the joint error band."""
        return abs(self.ln_value - other.ln_value) <= self.err + other.err


def _log_real(value: mpf, ops: int, magnitude, prec: int) -> LogReal:
    """Wrap a freshly evaluated value with a conservative error bound:
    ops roundings, each bounded by the largest intermediate magnitude."""
    mag = max(mpf(1), abs(mpf(magnitude)))
    return LogReal(value, mpf(ops) * mpf(2) ** (1 - prec) * mag, prec)


def _decide(attempt, prec: int) -> bool:
    """Run attempt(prec) -> Optional[bool], doubling precision on None."""
    while prec <= MAX_PREC:
        result = attempt(prec)
        if result is not None:
            return result
        prec *= 2
    raise PrecisionError(f"comparison undecided at {MAX_PREC} bits")


def ln_of_int(value: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of an exactly known positive integer, for comparisons against
    the closed-form bounds (one conversion rounding plus one log)."""
    if not isinstance(value, int) or value <= 0:
        raise DomainError("ln_of_int requires a positive integer")
    with workprec(prec):
        v = log(mpf(value))
    return _log_real(v, 2, v, prec)


def _ln_stirling(name: str, x, shift: int, prec: int) -> LogReal:
    """ln of sqrt(2 pi) x^(x+1/2) e^(-x) e^(1/(12x + shift))."""
    x = _coerce_rational(x)
    if x <= 0:
        raise DomainError(f"{name} is defined for x > 0")
    with workprec(prec):
        xf = _to_mpf(x)
        lead = (xf + mpf(1) / 2) * log(xf)
        v = log(2 * pi) / 2 + lead - xf + 1 / (12 * xf + shift)
        mag = abs(lead) + xf + 2
    return _log_real(v, 12, mag, prec)


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
    with workprec(prec):
        total = mpf(0)
        for k in range(2, n + 1):
            total += log(k)
    return _log_real(total, 2 * max(n, 1), total, prec)


def check_factorial_sandwich(n: int, prec: int = DEFAULT_PREC) -> bool:
    """Strictly g(n) < n! < f(n), escalating precision when indeterminate."""
    if n < 1:
        raise DomainError("sandwich check requires n >= 1")

    def attempt(p):
        mid = ln_factorial(n, p)
        below = ln_g(n, p).less_than(mid)
        above = mid.less_than(ln_f(n, p))
        if below is False or above is False:
            return False
        if below is None or above is None:
            return None
        return True

    return _decide(attempt, prec)


def factorial_sandwich_sweep(n_max: int, prec: int = DEFAULT_PREC) -> list:
    """One incremental pass of the sandwich over [1, n_max].

    Returns [(n, "violated" | "indeterminate"), ...]; empty means every
    comparison cleared its band strictly at this precision.
    """
    bad = []
    with workprec(prec):
        total = mpf(0)
        for n in range(1, n_max + 1):
            total += log(n)
            mid = _log_real(total, 2 * n, total, prec)
            below = ln_g(n, prec).less_than(mid)
            above = mid.less_than(ln_f(n, prec))
            if below is None or above is None:
                bad.append((n, "indeterminate"))
            elif not (below and above):
                bad.append((n, "violated"))
    return bad


def _validate_grid(grid, lo_min: Fraction) -> list:
    pts = [_coerce_rational(x) for x in grid]
    if not pts:
        raise DomainError("empty grid")
    if any(b <= a for a, b in pairwise(pts)):
        raise DomainError("grid must be strictly ascending")
    if pts[0] < lo_min:
        raise DomainError(f"grid must start at or above {lo_min}")
    return pts


def scan_h1_monotone(c, grid, prec: int = DEFAULT_PREC) -> bool:
    """h1(x) = f(x + c) / (g(c) g(x)) strictly increasing along the grid."""
    c = _coerce_rational(c)
    if c < Fraction(1, 12):
        raise DomainError("h1 requires c >= 1/12")
    pts = _validate_grid(grid, Fraction(1, 2))

    def attempt(p):
        gc = ln_g(c, p)
        vals = [ln_f(x + c, p) - gc - ln_g(x, p) for x in pts]
        verdicts = [a.less_than(b) for a, b in pairwise(vals)]
        if any(v is False for v in verdicts):
            return False
        if any(v is None for v in verdicts):
            return None
        return True

    return _decide(attempt, prec)


def scan_h2_unimodal(c, grid, prec: int = DEFAULT_PREC) -> bool:
    """h2(x) = f(c) / (g(x) g(c - x)): strictly increasing below c/2,
    strictly decreasing above, and symmetric about c/2 within the band."""
    c = _coerce_rational(c)
    if c < 1:
        raise DomainError("h2 scan requires c >= 1")
    pts = _validate_grid(grid, Fraction(1, 2))
    if pts[-1] > c - Fraction(1, 2):
        raise DomainError(f"grid must stay within [1/2, {c - Fraction(1, 2)}]")
    half = c / 2

    def attempt(p):
        fc = ln_f(c, p)
        vals = [fc - ln_g(x, p) - ln_g(c - x, p) for x in pts]
        mirrored = [fc - ln_g(c - x, p) - ln_g(x, p) for x in pts]
        for v, m in zip(vals, mirrored):
            if not v.consistent_with(m):
                return False
        for (a, va), (b, vb) in pairwise(zip(pts, vals)):
            if b <= half:
                verdict = va.less_than(vb)
            elif a >= half:
                verdict = vb.less_than(va)
            else:
                continue  # pair straddles the peak
            if verdict is not True:
                return verdict
        return True

    return _decide(attempt, prec)


def ln_binom_lower(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of 2/sqrt(6 pi n) * e^(1/(48n+1) - 1/(36n) - 1/(12n)) * (256/27)^n,
    the closed-form lower bound on C(4n, 3n).

    Cross-checked against ln g(4n) - ln f(3n) - ln f(n), which it equals
    identically; disagreement raises ConsistencyError.
    """
    if n < 1:
        raise DomainError("binomial lower bound requires n >= 1")
    corr = Fraction(1, 48 * n + 1) - Fraction(1, 36 * n) - Fraction(1, 12 * n)
    with workprec(prec):
        lead = n * log(mpf(256) / 27)
        v = log(mpf(2)) - log(6 * pi * n) / 2 + _to_mpf(corr) + lead
        mag = abs(lead) + 8
    closed = _log_real(v, 14, mag, prec)
    route = ln_g(4 * n, prec) - ln_f(3 * n, prec) - ln_f(n, prec)
    if not closed.consistent_with(route):
        raise ConsistencyError(f"binomial lower bound routes disagree at n={n}")
    return closed


# Exponential growth rates of the four absorber upper bounds.  Each is
# evaluated under the caller's working precision.
def _rate_a():
    return 4 * log(mpf(4)) / 3 - log(mpf(3))


def _rate_b():
    return log(mpf(16)) - 3 * log(mpf(3)) / 2


def _rate_c():
    return log(mpf(221)) / 221 + 3 * log(mpf(13) / 3) / 13 + 4 * log(mpf(4) / 17) / 17


def _rate_d():
    return (
        2 * log(mpf(105) / 2) / 105
        + 4 * log(mpf(15) / 4) / 15
        + 2 * log(mpf(2) / 7) / 7
    )


def ln_a_upper(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of (4n/3) sqrt(2/(pi n)) e^(1/(16n) - 1/(12n+1) - 1/(4n+1))
    * (4^(4/3)/3)^n, the closed-form upper bound on A."""
    if n < 1:
        raise DomainError("A bound requires n >= 1")
    corr = Fraction(1, 16 * n) - Fraction(1, 12 * n + 1) - Fraction(1, 4 * n + 1)
    with workprec(prec):
        lead = n * _rate_a()
        v = log(mpf(4 * n) / 3) + log(mpf(2) / (pi * n)) / 2 + _to_mpf(corr) + lead
        mag = abs(lead) + log(mpf(4 * n)) + 8
    return _log_real(v, 16, mag, prec)


def ln_b_upper(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of ((12n+8)/sqrt(3 pi n)) e^(1/(24n) - 1/(18n+1) - 1/(6n+1))
    * (16/3^(3/2))^n, the closed-form upper bound on B."""
    if n < 1:
        raise DomainError("B bound requires n >= 1")
    corr = Fraction(1, 24 * n) - Fraction(1, 18 * n + 1) - Fraction(1, 6 * n + 1)
    with workprec(prec):
        lead = n * _rate_b()
        v = log(mpf(12 * n + 8)) - log(3 * pi * n) / 2 + _to_mpf(corr) + lead
        mag = abs(lead) + log(mpf(12 * n + 8)) + 8
    return _log_real(v, 16, mag, prec)


def ln_c_upper(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of (4n/17) ((51n+221)/(n-221)) (26/sqrt(6 pi n))
    * e^(17/(48n) - 13/(36n+13) - 221/(12n+221))
    * (221^(1/221) (13/3)^(3/13) (4/17)^(4/17))^n, upper bound on C."""
    if n <= 221:
        raise DomainError("C bound has a pole at n = 221; requires n >= 222")
    corr = (
        Fraction(17, 48 * n)
        - Fraction(13, 36 * n + 13)
        - Fraction(221, 12 * n + 221)
    )
    with workprec(prec):
        lead = n * _rate_c()
        v = (
            log(mpf(4 * n) / 17)
            + log(mpf(51 * n + 221))
            - log(mpf(n - 221))
            + log(mpf(26))
            - log(6 * pi * n) / 2
            + _to_mpf(corr)
            + lead
        )
        mag = abs(lead) + log(mpf(51 * n + 221)) + 16
    return _log_real(v, 24, mag, prec)


def ln_d_upper(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of ((4n^2+15n)/(2n-105)) (15/sqrt(2 pi n))
    * e^(7/(24n) - 5/(16n+5) - 35/(8n+35))
    * ((105/2)^(2/105) (15/4)^(4/15) (2/7)^(2/7))^n, upper bound on D."""
    if 2 * n <= 105:
        raise DomainError("D bound has a pole at 2n = 105; requires n >= 53")
    corr = Fraction(7, 24 * n) - Fraction(5, 16 * n + 5) - Fraction(35, 8 * n + 35)
    with workprec(prec):
        lead = n * _rate_d()
        v = (
            log(mpf(4 * n * n + 15 * n))
            - log(mpf(2 * n - 105))
            + log(mpf(15))
            - log(2 * pi * n) / 2
            + _to_mpf(corr)
            + lead
        )
        mag = abs(lead) + log(mpf(4 * n * n + 15 * n)) + 16
    return _log_real(v, 24, mag, prec)


def ln_t1_upper(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of (4n)^sqrt(n), the analytic cap on T1."""
    if n < 1:
        raise DomainError("T1 cap requires n >= 1")
    with workprec(prec):
        v = sqrt(mpf(n)) * log(mpf(4 * n))
    return _log_real(v, 4, v, prec)


def e_term(n: int) -> Fraction:
    """The 15-term correction aggregate E(n), as an exact rational."""
    if n < 1:
        raise DomainError("E is defined for n >= 1")
    return (
        Fraction(1, 48 * n + 1)
        - Fraction(1, 36 * n)
        - Fraction(1, 12 * n)
        - Fraction(1, 16 * n)
        + Fraction(1, 12 * n + 1)
        + Fraction(1, 4 * n + 1)
        - Fraction(1, 24 * n)
        + Fraction(1, 18 * n + 1)
        + Fraction(1, 6 * n + 1)
        - Fraction(17, 48 * n)
        + Fraction(13, 36 * n + 13)
        + Fraction(221, 12 * n + 221)
        - Fraction(7, 24 * n)
        + Fraction(5, 16 * n + 5)
        + Fraction(35, 8 * n + 35)
    )


@lru_cache(maxsize=8)
def ln_m(prec: int = DEFAULT_PREC) -> LogReal:
    """ln M for the ten-factor growth constant, first factor 256/27.

    See M_CORRECTION_NOTE for why 256/27 replaces the printed 256/7.
    ln M is asserted positive (M > 1 drives the T3 bound to infinity).
    """
    with workprec(prec):
        v = (
            log(mpf(256) / 27)
            + 4 * log(mpf(1) / 4) / 3
            + log(mpf(3))
            + log(mpf(3) ** mpf("1.5") / 16)
            + log(mpf(1) / 221) / 221
            + 3 * log(mpf(3) / 13) / 13
            + 4 * log(mpf(17) / 4) / 17
            + 2 * log(mpf(2) / 105) / 105
            + 4 * log(mpf(4) / 15) / 15
            + 2 * log(mpf(7) / 2) / 7
            - log(mpf(4)) / 6
        )
    out = _log_real(v, 40, 8, prec)
    if not v > out.err:
        raise ConsistencyError("ln M must be positive")
    return out


def ln_m_rate_identity(prec: int = DEFAULT_PREC) -> bool:
    """ln M == ln(256/27) - rate_A - rate_B - rate_C - rate_D - (1/6)ln 4,
    the defining cancellation against the absorber growth rates."""
    with workprec(prec):
        rhs = (
            log(mpf(256) / 27)
            - _rate_a()
            - _rate_b()
            - _rate_c()
            - _rate_d()
            - log(mpf(4)) / 6
        )
    return ln_m(prec).consistent_with(_log_real(rhs, 40, 8, prec))


def replacement_step_holds(n: int) -> bool:
    """Whether the prefactor simplification step is valid at n:
    80 n (n-221)(2n-105) >= (3n+2)(3n+13)(4n+15), exactly."""
    return (
        80 * n * (n - 221) * (2 * n - 105)
        >= (3 * n + 2) * (3 * n + 13) * (4 * n + 15)
    )


def replacement_minimal_n(n_max: int = 10_000):
    """Smallest n such that replacement_step_holds for all n' in [n, n_max]."""
    bad = (n for n in range(1, n_max + 1) if not replacement_step_holds(n))
    return settled_from(bad, 1, n_max)


def _e_term_logreal(n: int, prec: int) -> LogReal:
    with workprec(prec):
        return _log_real(_to_mpf(e_term(n)), 2, 4, prec)


def ln_t3_lower(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """ln of (sqrt(3) pi^(3/2) / 332800) e^E M^n (4n)^(-sqrt n) n^(-5/2)."""
    if n < 222:
        raise DomainError("T3 lower bound requires n >= 222")
    with workprec(prec):
        const = _log_real(log(sqrt(mpf(3)) * pi ** mpf("1.5") / 332800), 8, 16, prec)
        tail_v = sqrt(mpf(n)) * log(mpf(4 * n)) + mpf("2.5") * log(mpf(n))
        tail = _log_real(tail_v, 8, tail_v, prec)
    return const + _e_term_logreal(n, prec) + ln_m(prec).scaled(n) - tail


def ln_t3_lower_intermediate(n: int, prec: int = DEFAULT_PREC) -> LogReal:
    """The pre-simplification form with prefactor sqrt(3) pi^(3/2) / 4160 and
    the rational factor n^(-3/2)(n-221)(2n-105)/((3n+2)(3n+13)(4n+15))."""
    if n < 222:
        raise DomainError("intermediate T3 bound requires n >= 222")
    with workprec(prec):
        const = _log_real(log(sqrt(mpf(3)) * pi ** mpf("1.5") / 4160), 8, 16, prec)
        tail_v = sqrt(mpf(n)) * log(mpf(4 * n)) + mpf("1.5") * log(mpf(n))
        tail = _log_real(tail_v, 8, tail_v, prec)
        ratio_v = (
            log(mpf(n - 221))
            + log(mpf(2 * n - 105))
            - log(mpf(3 * n + 2))
            - log(mpf(3 * n + 13))
            - log(mpf(4 * n + 15))
        )
        ratio = _log_real(ratio_v, 10, 6 * log(mpf(4 * n + 15)), prec)
    return const + _e_term_logreal(n, prec) + ln_m(prec).scaled(n) - tail + ratio


def count_lower_bound(n: int, prec: int = DEFAULT_PREC) -> float:
    """log base 4n of the T3 lower bound: the guaranteed number of primes
    in the open interval (3n, 4n)."""
    if n < 222:
        raise DomainError("count lower bound requires n >= 222")
    t3 = ln_t3_lower(n, prec)
    with workprec(prec):
        return float(t3.ln_value / log(mpf(4 * n)))


def count_lower_bound_simplified(n: int, prec: int = DEFAULT_PREC) -> float:
    """The further-simplified form n(ln M - ln(4n)/sqrt(n))/(2 ln n) - 5/2."""
    if n < 222:
        raise DomainError("count lower bound requires n >= 222")
    with workprec(prec):
        lm = ln_m(prec).ln_value
        v = n * (lm - log(mpf(4 * n)) / sqrt(mpf(n))) / (2 * log(mpf(n)))
        return float(v - mpf("2.5"))


_T3_CONST = math.log(math.sqrt(3) * math.pi**1.5 / 332800)


def _t3_float(n: int, lm: float) -> float:
    """ln_t3_lower(n) in double precision, for the threshold scans."""
    return (
        _T3_CONST + float(e_term(n)) + n * lm - math.sqrt(n) * math.log(4 * n)
        - 2.5 * math.log(n)
    )


def _require_scan_range(n_min: int, n_max: int) -> None:
    # an empty scan finds no failure and would report n_min as settled
    if n_max < n_min:
        raise DomainError(f"threshold scan requires n_min <= n_max, got [{n_min}, {n_max}]")


def simplified_bound_minimal_n(n_max: int, n_min: int = 222):
    """Smallest n such that simplified <= exact holds for all n' in [n, n_max].

    The simplification drops negative terms, so unlike the blanket n >= 4
    reading it only holds from an empirical threshold onward; this reports
    that threshold.  Scanned in float arithmetic: the two forms separate at
    a rate that dwarfs double rounding away from the single crossover.
    """
    _require_scan_range(n_min, n_max)
    lm = float(ln_m().ln_value)

    def simplified_above_exact(n):
        l4n = math.log(4 * n)
        simplified = n * (lm - l4n / math.sqrt(n)) / (2 * math.log(n)) - 2.5
        return simplified > _t3_float(n, lm) / l4n

    bad = filter(simplified_above_exact, range(n_min, n_max + 1))
    return settled_from(bad, n_min, n_max)


def t3_positive_minimal_n(n_max: int, n_min: int = 222):
    """Smallest n such that ln_t3_lower stays positive through [n, n_max],
    i.e. the empirical threshold past which T3 > 1 is guaranteed; None if
    the bound is still nonpositive at n_max.  Scanned in float arithmetic
    (the bound climbs at about ln M per step, far above double rounding);
    the endpoints of the scan are re-verified in tracked log arithmetic.
    """
    _require_scan_range(n_min, n_max)
    lm = float(ln_m().ln_value)
    bad = (n for n in range(n_min, n_max + 1) if _t3_float(n, lm) <= 0)
    minimal = settled_from(bad, n_min, n_max)
    if minimal is None:
        return None
    if _decide(lambda p: ln_t3_lower(minimal, p).less_than(_zero(p)), DEFAULT_PREC):
        raise ConsistencyError(f"float scan and log arithmetic disagree at {minimal}")
    if minimal > n_min and not _decide(
        lambda p: ln_t3_lower(minimal - 1, p).less_than(_zero(p)), DEFAULT_PREC
    ):
        raise ConsistencyError(f"float scan and log arithmetic disagree at {minimal - 1}")
    return minimal


def _zero(prec: int) -> LogReal:
    return LogReal(mpf(0), mpf(0), prec)


BOUND_REPORT_FIELDS = (
    "n",
    "ln_binom_lower",
    "ln_A_upper",
    "ln_B_upper",
    "ln_C_upper",
    "ln_D_upper",
    "ln_T1_upper",
    "e_term",
    "ln_T3_lower",
    "count_lower_bound",
)


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
        closed form within error; the stored final form must not exceed
        the intermediate wherever the prefactor replacement step holds.
        """
        prec = self.ln_T3_lower.prec
        with workprec(prec):
            v = mpf(self.n) * log(mpf(4)) / 6
            ln4_sixth = _log_real(v, 4, v, prec)
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
        if replacement_step_holds(self.n):
            if self.ln_T3_lower.less_than(intermediate) is False:
                raise ConsistencyError(
                    f"final T3 form exceeds the intermediate form at n={self.n}"
                )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ln_binom_lower": float(self.ln_binom_lower.ln_value),
            "ln_A_upper": float(self.ln_A_upper.ln_value),
            "ln_B_upper": float(self.ln_B_upper.ln_value),
            "ln_C_upper": float(self.ln_C_upper.ln_value),
            "ln_D_upper": float(self.ln_D_upper.ln_value),
            "ln_T1_upper": float(self.ln_T1_upper.ln_value),
            "e_term": float(self.e_term),
            "ln_T3_lower": float(self.ln_T3_lower.ln_value),
            "count_lower_bound": self.count_lower_bound,
            "m_constant_note": M_CORRECTION_NOTE,
        }

    def to_csv_row(self) -> list:
        d = self.to_json_dict()
        return [str(self.n)] + [repr(d[k]) for k in BOUND_REPORT_FIELDS[1:]]


def build_bound_report(n: int, prec: int = DEFAULT_PREC) -> BoundReport:
    """Evaluate every analytic bound at n and validate the chain."""
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
    c = _coerce_rational(c)
    if c < 1:
        raise DomainError("h2 grid requires c >= 1")
    width = c - 1
    return [Fraction(1, 2) + Fraction(i, points - 1) * width for i in range(points)]

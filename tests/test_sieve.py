import math
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from prime34 import (
    CapacityError,
    CoverageError,
    DomainError,
    PrecisionError,
    build_sieve,
    check_pi_bound,
    check_primorial_bound,
    replacement_minimal_n,
    t2_bound_minimal_n,
)
from prime34.sieve import _peak_bytes, screened_le, settled_from


def test_build_rejects_bad_limits():
    with pytest.raises(CapacityError):
        build_sieve(1)
    with pytest.raises(CapacityError):
        build_sieve(10**7, memory_cap=10**6)


@pytest.mark.parametrize("limit", [10**5, 10**6, 4 * 10**6])
def test_peak_estimate_covers_measured_peak(limit):
    tracemalloc.start()
    try:
        build_sieve(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _peak_bytes(limit)


def test_membership_and_counts(sieve_small):
    assert not sieve_small.is_prime(0)
    assert not sieve_small.is_prime(1)
    assert sieve_small.is_prime(2)
    assert sieve_small.is_prime(1193)
    assert not sieve_small.is_prime(1191)
    assert sieve_small.pi(0) == 0
    assert sieve_small.pi(2) == 1
    assert sieve_small.pi(100) == 25
    assert sieve_small.pi(1000) == 168


def test_counts_match_sympy(sieve_mid):
    for x in (10, 97, 541, 1000, 4999, 8000):
        assert sieve_mid.pi(x) == sympy.primepi(x)
    assert list(sieve_mid.primes[:25]) == list(sympy.primerange(2, 98))


def test_pi_domain_and_coverage(sieve_small):
    with pytest.raises(DomainError):
        sieve_small.pi(-1)
    with pytest.raises(CoverageError):
        sieve_small.pi(1201)
    with pytest.raises(CoverageError):
        sieve_small.is_prime(5000)


def test_primes_in_exact_endpoints(sieve_small):
    assert sieve_small.primes_in(10, 20) == [11, 13, 17, 19]
    # closed upper endpoint includes an exact prime boundary
    assert sieve_small.primes_in(Fraction(11), 13) == [13]
    # open lower endpoint excludes an exact prime boundary
    assert sieve_small.primes_in(11, 14) == [13]
    assert sieve_small.primes_in(Fraction(21, 2), 13) == [11, 13]
    # endpoints between consecutive integers behave like their floors
    assert sieve_small.primes_in(Fraction(65, 6), Fraction(79, 6)) == [11, 13]


def test_primes_in_validation(sieve_small):
    with pytest.raises(DomainError):
        sieve_small.primes_in(5, 5)
    with pytest.raises(DomainError):
        sieve_small.primes_in(-1, 5)
    with pytest.raises(DomainError):
        sieve_small.primes_in(0.5, 2)  # floats are rejected, never coerced
    with pytest.raises(CoverageError):
        sieve_small.primes_in(2, 1300)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.fractions(min_value=0, max_value=400),
    width=st.fractions(min_value=Fraction(1, 7), max_value=300),
)
def test_primes_in_matches_bruteforce(sieve_small, lo, width):
    hi = lo + width
    got = sieve_small.primes_in(lo, hi)
    expected = [p for p in sieve_small.primes if lo < p <= hi]
    assert got == expected


def test_pi_at_most_half(sieve_mid):
    assert all(check_pi_bound(sieve_mid, n) for n in range(8, 2001))
    assert check_pi_bound(sieve_mid, 8000)
    with pytest.raises(DomainError):
        check_pi_bound(sieve_mid, 7)


def test_primorial_at_most_4_to_x(sieve_mid):
    # brute-force oracle on denominator-6 inputs, the form used by claims
    for six_n in range(6, 600, 7):
        x = Fraction(six_n, 6)
        product = math.prod(p for p in sieve_mid.primes if p <= x)
        assert check_primorial_bound(sieve_mid, x) == (product**6 <= 4**six_n)
    assert check_primorial_bound(sieve_mid, 8000)
    with pytest.raises(DomainError):
        check_primorial_bound(sieve_mid, 0)
    with pytest.raises(CoverageError):
        check_primorial_bound(sieve_mid, 8001)


def test_primorial_bound_rejects_infeasible_escalation(sieve_mid):
    # the float screen is indecisive only when x is so small that 4^x sits
    # within the absolute margin of the empty product; such x necessarily
    # has a denominator too large for the exact escalation, so the check
    # refuses rather than guessing
    for x in (Fraction(1, 2**52), Fraction(3, 2**52)):
        with pytest.raises(PrecisionError):
            check_primorial_bound(sieve_mid, x)
    # a huge denominator alone is no obstacle while the screen can decide
    assert check_primorial_bound(sieve_mid, Fraction(2**60 + 1, 2**52))
    assert check_primorial_bound(sieve_mid, Fraction(1, 2048))


def test_screened_le_calls_exact_only_inside_the_band():
    calls = []

    def exact(verdict):
        def decide():
            calls.append(verdict)
            return verdict

        return decide

    # the floats settle comparisons more than the margin apart ...
    assert screened_le(1.0, 1.5, 0.5, exact(False)) is True
    assert screened_le(2.0, 1.0, 0.5, exact(True)) is False
    assert calls == []
    # ... and exact() settles the rest, whatever the floats suggest
    assert screened_le(1.0, 1.25, 0.5, exact(False)) is False
    assert screened_le(1.5, 1.0, 0.5, exact(True)) is True
    assert calls == [False, True]


def test_settled_from_edges(sieve_small):
    assert settled_from([4, 7], 1, 10) == 8
    assert settled_from(iter([4, 7]), 1, 10) == 8
    # no failure at all: the floor n_min itself
    assert settled_from([], 1, 10) == 1
    assert settled_from([], 222, 1000) == 222
    # failing at n_max leaves nothing settled
    assert settled_from([3, 10], 1, 10) is None
    assert settled_from([10], 10, 10) is None
    # the empty range [1, 0] has nothing to settle either
    assert settled_from([], 1, 0) is None
    assert replacement_minimal_n(0) is None
    assert t2_bound_minimal_n(0, sieve_small) is None

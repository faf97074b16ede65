import math
import pickle
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
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
from prime34.sieve import _balanced_product, _peak_bytes, primorial_le, settled_from


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


def test_sieve_is_a_frozen_record_with_identity_equality(sieve_small):
    twin = build_sieve(sieve_small.limit)
    assert twin.primes == sieve_small.primes
    assert sieve_small == sieve_small and twin != sieve_small and not twin == sieve_small
    assert twin != (twin.limit, twin.primes) and (twin.limit, twin.primes) != twin
    assert len({sieve_small, twin, sieve_small}) == 2
    assert repr(twin) == f"PrimeSieve(limit={twin.limit})"
    # the process pool sends the sieve to its workers pickled
    copy = pickle.loads(pickle.dumps(twin))
    assert (copy.limit, copy.primes, copy.pi(1000)) == (twin.limit, twin.primes, 168)
    assert copy != twin
    for name in ("limit", "primes"):
        with pytest.raises(AttributeError):
            setattr(twin, name, None)


def test_counts_match_sympy(sieve_mid):
    for x in (10, 97, 541, 1000, 4999, 8000):
        assert sieve_mid.pi(x) == sympy.primepi(x)
    assert list(sieve_mid.primes[:25]) == list(sympy.primerange(2, 98))


def test_primes_match_trial_division(sieve_4m):
    # odd and even limits, p * p and p * p - 1 for every p up to 53
    reference = [k for k in range(2, 3001) if all(k % d for d in range(2, math.isqrt(k) + 1))]
    for limit in range(2, 3001):
        assert build_sieve(limit).primes == tuple(p for p in reference if p <= limit)
    assert len(sieve_4m.primes) == sympy.primepi(4 * 10**6)


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
    # primorial_le on the windows of claim 1, (sqrt(4n), n/6], as (prod)^6 <= 4^n
    for n in range(1, 3001):
        window = [p for p in sieve_mid.primes if math.isqrt(4 * n) < p <= n // 6]
        assert primorial_le(window, n, 6) == (math.prod(window) ** 6 <= 4**n)
    assert not primorial_le([2, 3, 5], 1, 1)
    assert primorial_le([2], 1, 2)  # the tie 2^2 == 4^1


def test_primorial_bound_rejects_infeasible_escalation(sieve_mid):
    # below x = 2 the product is empty, and 1 <= 4^x whatever the
    # denominator
    for x in (Fraction(1, 2**52), Fraction(3, 2**52)):
        assert check_primorial_bound(sieve_mid, x)
    # a huge denominator is no obstacle while the bit lengths decide
    assert check_primorial_bound(sieve_mid, Fraction(2**60 + 1, 2**52))
    assert check_primorial_bound(sieve_mid, Fraction(1, 2048))
    # 2 < 3 < 2^2, so for b = 5000 the bit lengths decide a < 2500 and
    # a >= 5000; a = 3000 lies between, where the exact comparison is refused
    assert not primorial_le([3], 2000, 5000)
    assert primorial_le([3], 5000, 5000)
    with pytest.raises(PrecisionError):
        primorial_le([3], 3000, 5000)


_SMALL_PRIMES = [p for p in range(2, 200) if sympy.isprime(p)]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(_SMALL_PRIMES), unique=True, max_size=20),
    st.integers(1, 64),
    st.integers(-80, 80),
)
@example([], 1, 0)  # the empty product, 1 <= 4^0
@example([2], 2, -1)  # the tie 2^2 == 4^1
@example([2], 3, -2)  # P = 2, a power of two: 2^3 > 4^1
def test_primorial_le_matches_the_exact_comparison(primes, b, offset):
    # a drawn around b * log2(P) / 2, so that both bit-length tests and
    # the band between them are reached
    product = _balanced_product(primes)
    a = max(0, b * product.bit_length() // 2 + offset)
    assert primorial_le(primes, a, b) == (product**b <= 4**a)


def test_settled_from_edges(sieve_small):
    assert settled_from({4, 7}.__contains__, 1, 10) == 8
    # no failure at all: the floor n_min itself
    assert settled_from(lambda n: False, 1, 10) == 1
    assert settled_from(lambda n: False, 222, 1000) == 222
    # failing at n_max leaves nothing settled
    assert settled_from({3, 10}.__contains__, 1, 10) is None
    assert settled_from({10}.__contains__, 10, 10) is None
    # an empty range has nothing to settle either
    assert settled_from(lambda n: False, 1, 0) is None
    assert settled_from(lambda n: False, 5, 4) is None
    assert replacement_minimal_n(0) is None
    assert t2_bound_minimal_n(0, sieve_small) is None


def test_settled_from_never_evaluates_below_the_last_failure():
    asked = []

    def fails(n):
        asked.append(n)
        return n in (4, 7)

    assert settled_from(fails, 1, 10) == 8
    assert asked == [10, 9, 8, 7]

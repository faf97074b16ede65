import math
import random
from fractions import Fraction

import pytest
import sympy

from prime34 import (
    ConsistencyError,
    CoverageError,
    DomainError,
    Decomposition,
    GenBinomIndex,
    ValuationMap,
    absorber,
    absorber_index,
    absorber_valuation,
    beta,
    beta_at_most_one,
    build_sieve,
    check_t1_bound,
    check_t2_divisibility_bound,
    decompose,
    delta,
    gen_binomial,
    interval_integer_count,
    is_prime_int,
    legendre_valuation,
    t2_bound_minimal_n,
)
from prime34.exact import _absorber_floors, floor_of


def test_deterministic_primality(sieve_mid):
    for k in range(8000):
        assert is_prime_int(k) == sieve_mid.is_prime(k)
    # strong-pseudoprime composites and large primes, against the oracle
    for x in (3215031751, 3825123056546413051, 2**61 - 1, 10**12 + 39):
        assert is_prime_int(x) == sympy.isprime(x)


def test_legendre_valuation_matches_sympy():
    for n in (1, 7, 10, 100, 999):
        for p in (2, 3, 7, 97):
            assert legendre_valuation(n, p) == sympy.multiplicity(p, math.factorial(n))
    assert legendre_valuation(10, 2) == 8
    with pytest.raises(DomainError):
        legendre_valuation(-1, 2)
    with pytest.raises(DomainError):
        legendre_valuation(10, 4)


def test_beta_matches_binomial_factorization():
    for n in (1, 2, 13, 100):
        factors = sympy.factorint(math.comb(4 * n, 3 * n))
        for p in sympy.primerange(2, 4 * n + 1):
            assert beta(n, p) == factors.get(p, 0), (n, p)
    assert beta(1, 2) == 2
    with pytest.raises(DomainError):
        beta(0, 2)


def test_valuation_map_validation():
    vm = ValuationMap.from_pairs([(2, 3), (7, 1)])
    assert vm.value() == 56
    assert vm.get(2) == 3 and vm.get(5) == 0
    assert len(vm) == 2
    with pytest.raises(DomainError):
        ValuationMap(entries=((7, 1), (2, 3)))  # must ascend
    with pytest.raises(DomainError):
        ValuationMap(entries=((2, 0),))  # exponents >= 1
    with pytest.raises(DomainError):
        ValuationMap.from_pairs([(4, 1)])  # prime bases only


def test_decompose_small_values(sieve_small):
    d1 = decompose(1, sieve_small)
    assert d1.t1.entries == ((2, 2),)
    assert d1.t2.entries == () and d1.t3.entries == ()
    d2 = decompose(2, sieve_small)
    assert d2.t1.entries == ((2, 2),)
    assert d2.t2.entries == ()
    assert d2.t3.entries == ((7, 1),)
    assert d2.product() == 28


def test_decompose_identity_and_region_split(sieve_small):
    for n in (1, 2, 3, 17, 60, 150, 300):
        d = decompose(n, sieve_small)
        assert d.product() == math.comb(4 * n, 3 * n)
        for p, e in d.t1.entries:
            assert p * p <= 4 * n and e >= 1
        for p, e in d.t2.entries:
            assert p * p > 4 * n and p <= 3 * n
        for p, e in d.t3.entries:
            assert 3 * n < p <= 4 * n and e == 1


def test_decompose_matches_sympy_factorization(sieve_small):
    for n in (9, 42, 137):
        d = decompose(n, sieve_small)
        merged = {}
        for vm in (d.t1, d.t2, d.t3):
            for p, e in vm.entries:
                merged[p] = merged.get(p, 0) + e
        assert merged == sympy.factorint(math.comb(4 * n, 3 * n))


def test_beta_window_bound(sieve_mid):
    assert all(beta_at_most_one(n, sieve_mid) for n in range(1, 501))
    with pytest.raises(CoverageError):
        beta_at_most_one(5000, sieve_mid)


def test_gen_binomial_index_validation():
    with pytest.raises(DomainError):
        GenBinomIndex(s=2, r=2)
    with pytest.raises(DomainError):
        GenBinomIndex(s=Fraction(1, 2), r=Fraction(1, 3))
    with pytest.raises(DomainError):
        GenBinomIndex(s=1.5, r=1.0)  # floats rejected


def test_gen_binomial_plain_integer_case():
    for s in range(2, 40):
        for r in range(1, s):
            idx = GenBinomIndex(s=s, r=r)
            assert delta(idx) == 1
            assert gen_binomial(idx) == math.comb(s, r)


def test_gen_binomial_fractional_examples():
    # {7/2 \ 3/2}: integers in (2, 7/2] are {3}, in (0, 3/2] is {1}
    idx = GenBinomIndex(s=Fraction(7, 2), r=Fraction(3, 2))
    assert interval_integer_count(idx) == 1
    assert gen_binomial(idx) == 3
    # {s} < {r} forces the delta = [s - r] + 1 branch
    idx2 = GenBinomIndex(s=Fraction(10, 3), r=Fraction(5, 2))
    assert delta(idx2) == 1 + math.floor(Fraction(10, 3) - Fraction(5, 2))
    assert gen_binomial(idx2) == delta(idx2) * math.comb(3, 2)


def test_gen_binomial_bulk_dual_route_consistency():
    rng = random.Random(20260814)
    checked = 0
    while checked < 4000:
        den_s = rng.randint(1, 20)
        den_r = rng.randint(1, 20)
        s = Fraction(rng.randint(2, 200 * den_s), den_s)
        r = Fraction(rng.randint(den_r, 150 * den_r), den_r)
        if not s > r >= 1:
            continue
        value = gen_binomial(GenBinomIndex(s=s, r=r))  # cross-checks internally
        assert value >= 1
        checked += 1


def test_absorber_values_and_poles():
    assert absorber("A", 3) == 4
    assert absorber("B", 2) == 4
    assert absorber("C", 221) == 52
    assert absorber("D", 105) == 435
    # C needs 3n/13 >= 1, D needs 4n/15 >= 1
    assert absorber_index("C", 5) and absorber_index("D", 4)
    for which, first_valid in (("C", 5), ("D", 4)):
        with pytest.raises(DomainError):
            absorber_index(which, first_valid - 1)
    with pytest.raises(DomainError):
        absorber_index("E", 10)


def test_absorber_valuation_matches_factorization():
    for which in "ABCD":
        for n in (7, 20, 53):
            factors = sympy.factorint(absorber(which, n))
            idx = absorber_index(which, n)
            for p in sympy.primerange(2, math.floor(idx.s) + 1):
                assert absorber_valuation(which, n, p) == factors.get(p, 0)


def test_absorber_floors_match_index():
    # the integer floors agree with the Fraction index wherever it is
    # valid, and both refuse exactly the same n
    for which in "ABCD":
        for n in range(0, 2001):
            try:
                idx = absorber_index(which, n)
            except DomainError:
                with pytest.raises(DomainError):
                    _absorber_floors(which, n)
                continue
            expected = (floor_of(idx.s), floor_of(idx.s - idx.r), floor_of(idx.r))
            assert _absorber_floors(which, n) == expected, (which, n)
    with pytest.raises(DomainError):
        _absorber_floors("E", 10)


def test_t2_divisibility_bound(sieve_mid):
    assert all(check_t2_divisibility_bound(n, sieve_mid) for n in range(5, 120))
    with pytest.raises(DomainError):
        check_t2_divisibility_bound(4, sieve_mid)  # absorber C undefined
    assert t2_bound_minimal_n(120, sieve_mid) == 5


def test_t1_cap(sieve_mid):
    assert all(check_t1_bound(n, sieve_mid) for n in range(16, 400))
    with pytest.raises(DomainError):
        check_t1_bound(15, sieve_mid)


def test_decomposition_type_shape(sieve_small):
    d = decompose(25, sieve_small)
    assert isinstance(d, Decomposition)
    assert d.n == 25
    assert d.product() == d.t1.value() * d.t2.value() * d.t3.value()

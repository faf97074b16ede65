import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prime34 import (
    CapacityError,
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
    check_claim,
    check_primorial_bound,
    check_t1_bound,
    check_t2_divisibility_bound,
    claim_table,
    decompose,
    delta,
    gen_binomial,
    is_prime_int,
    legendre_valuation,
    t2_bound_minimal_n,
)
from prime34 import exact
from prime34.claims import PRIMORIAL_16TH
from prime34.exact import _absorber_floors, floor_of


def test_deterministic_primality(sieve_mid):
    for k in range(8000):
        assert is_prime_int(k) == sieve_mid.is_prime(k)
    # strong-pseudoprime composites and large primes, against the oracle;
    # psi_12 is a strong pseudoprime to every prime base up to 37
    for x in (
        3215031751, 3825123056546413051, 318665857834031151167461, 2**61 - 1, 10**12 + 39,
    ):
        assert is_prime_int(x) == sympy.isprime(x)


def test_primality_refuses_psi13_and_above():
    # psi_13 is a strong pseudoprime to every prime base up to 41, so the
    # test refuses it and everything above
    assert not sympy.isprime(exact._MR_BOUND)
    assert is_prime_int(exact._MR_BOUND - 2) == sympy.isprime(exact._MR_BOUND - 2)
    for x in (exact._MR_BOUND, exact._MR_BOUND + 2, 10**30):
        with pytest.raises(DomainError):
            is_prime_int(x)


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
    with pytest.raises(AttributeError):
        vm.entries = ()
    assert pickle.loads(pickle.dumps(vm)) == vm
    # unpickling validates again: a map built past the check is refused
    forged = pickle.dumps(tuple.__new__(ValuationMap, (((7, 1), (2, 3)),)))
    with pytest.raises(DomainError, match="ascending"):
        pickle.loads(forged)
    # _replace and _make validate as the constructor does
    assert vm._replace(entries=((2, 1), (5, 1))) == ValuationMap(((2, 1), (5, 1)))
    assert ValuationMap._make([((2, 3),)]).entries == ((2, 3),)
    with pytest.raises(DomainError, match="ascending"):
        vm._replace(entries=((3, 1), (2, 1)))


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


def test_size_classes_partition_the_primes_up_to_4n():
    sieve = build_sieve(1600)
    for n in range(1, 401):
        small, middle, large = exact._size_classes(n, sieve)
        assert small + middle + large == sieve.primes[: sieve.pi(4 * n)]
        assert all(p * p <= 4 * n for p in small)
        assert all(p * p > 4 * n and p <= 3 * n for p in middle)
        assert all(p > 3 * n for p in large)
    with pytest.raises(CoverageError):
        exact._size_classes(401, sieve)


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
    idx = GenBinomIndex(3, r=2)
    assert idx == (Fraction(3), Fraction(2)) and type(idx.s) is Fraction
    assert pickle.loads(pickle.dumps(idx)) == idx
    for name in ("s", "r"):
        with pytest.raises(AttributeError):
            setattr(idx, name, Fraction(5))
    assert idx._replace(s=4).s == Fraction(4)
    with pytest.raises(DomainError):
        idx._replace(r=0)
    with pytest.raises(DomainError):
        GenBinomIndex._make((1.5, 1.0))


def test_gen_binomial_plain_integer_case():
    for s in range(2, 40):
        for r in range(1, s):
            idx = GenBinomIndex(s=s, r=r)
            assert delta(idx) == 1
            assert gen_binomial(idx) == math.comb(s, r)


def test_gen_binomial_fractional_examples():
    # {7/2 \ 3/2}: integers in (2, 7/2] are {3}, in (0, 3/2] is {1}
    idx = GenBinomIndex(s=Fraction(7, 2), r=Fraction(3, 2))
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


def _reference_gen_binomial(idx):
    """{s\\r} as math.perm over math.factorial: the product of the integers
    in ([s - r], [s]] over [r]!."""
    fs, fr, fsr = floor_of(idx.s), floor_of(idx.r), floor_of(idx.s - idx.r)
    quotient, remainder = divmod(math.perm(fs, fs - fsr), math.factorial(fr))
    assert remainder == 0
    return quotient


def test_gen_binomial_matches_the_quotient_of_integer_products():
    rng = random.Random(20260814)
    checked = 0
    while checked < 4000:
        den_s = rng.randint(1, 20)
        den_r = rng.randint(1, 20)
        s = Fraction(rng.randint(2, 200 * den_s), den_s)
        r = Fraction(rng.randint(den_r, 150 * den_r), den_r)
        if not s > r >= 1:
            continue
        idx = GenBinomIndex(s=s, r=r)
        assert gen_binomial(idx) == _reference_gen_binomial(idx)
        checked += 1
    for n in [*range(1, 401), 2000, 5000]:
        for which in "ABCD":
            if which == "C" and n < 5 or which == "D" and n < 4:
                continue  # index not yet valid
            idx = absorber_index(which, n)
            assert gen_binomial(idx) == _reference_gen_binomial(idx)
    # [s] = 1: no prime up to [s], the empty product
    assert gen_binomial(GenBinomIndex(s=Fraction(3, 2), r=1)) == 1


def test_gen_binomial_refuses_a_huge_index_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            gen_binomial(GenBinomIndex(s=10**12, r=5 * 10**11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_gen_binomial_refuses_a_non_integral_quotient(monkeypatch):
    legendre = exact._legendre
    # one factor of 2 too many in [r]! = 3!: v(2) = 4 - 3 - 2 = -1
    monkeypatch.setattr(exact, "_legendre", lambda n, p: legendre(n, p) + (n == 3))
    with pytest.raises(ConsistencyError, match="non-integral quotient"):
        gen_binomial(GenBinomIndex(s=7, r=3))


def test_gen_binomial_routes_must_agree(monkeypatch):
    monkeypatch.setattr(exact, "delta", lambda idx: 2)  # 1 for integer indices
    with pytest.raises(ConsistencyError, match="route mismatch"):
        gen_binomial(GenBinomIndex(s=7, r=3))


def test_delta_never_exceeds_s(monkeypatch):
    idx = GenBinomIndex(s=Fraction(10, 3), r=Fraction(5, 2))  # {s} < {r}
    monkeypatch.setattr(exact, "floor_of", lambda x: 10)
    with pytest.raises(ConsistencyError, match="exceeds s"):
        delta(idx)


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


def test_t2_divisibility_bound_matches_exact_reference(sieve_mid, monkeypatch):
    def reference(n):
        t2 = decompose(n, sieve_mid).t2.value()
        product = math.prod(absorber(which, n) for which in "ABCD")
        return t2**6 <= 4**n * product**6

    ns = range(5, 401)
    expected = [reference(n) for n in ns]
    assert [check_t2_divisibility_bound(n, sieve_mid) for n in ns] == expected
    # the real absorbers settle every n by T2 <= ABCD; scaled ones put ABCD
    # at T2 / ratio, where the sixth powers decide either way
    for n in (11, 12, 60):
        t2 = decompose(n, sieve_mid).t2.value()
        for ratio in (2, 4 ** (n // 6), 4 ** (n // 6 + 1)):
            scaled = t2 // ratio
            monkeypatch.setattr(exact, "absorber", lambda which, n, sieve: scaled if which == "A" else 1)
            assert check_t2_divisibility_bound(n, sieve_mid) == (t2**6 <= 4**n * scaled**6)


def test_no_float_decides_the_integer_bounds(sieve_mid, monkeypatch):
    # every sieve is built first, the absorbers' own included, so that
    # math.log is left only in the capacity estimate of a sieve build
    absorbers = {(which, n): absorber(which, n) for n in range(5, 401) for which in "ABCD"}
    monkeypatch.setattr(exact, "absorber", lambda which, n, sieve: absorbers[which, n])

    def refuse(*args):
        raise AssertionError("a float decided an integer bound")

    monkeypatch.setattr(math, "log", refuse)
    monkeypatch.setattr(math, "fsum", refuse)
    assert all(check_t1_bound(n, sieve_mid) for n in range(16, 401))
    assert all(check_t2_divisibility_bound(n, sieve_mid) for n in range(5, 401))
    grid = [Fraction(a, b) for b in range(1, 13) for a in range(1, 60 * b, 7)]
    assert all(check_primorial_bound(sieve_mid, x) for x in grid)
    claim1 = claim_table()[0]
    assert claim1.consequence == PRIMORIAL_16TH
    results = [check_claim(claim1, n, sieve_mid) for n in range(145, 401)]
    assert all(r.ok for r in results)
    assert sum(r.primes_checked > 0 for r in results) > 200


def test_t1_cap(sieve_mid):
    assert all(check_t1_bound(n, sieve_mid) for n in range(16, 400))
    with pytest.raises(DomainError):
        check_t1_bound(15, sieve_mid)


def test_decomposition_type_shape(sieve_small):
    d = decompose(25, sieve_small)
    assert isinstance(d, Decomposition)
    assert d.n == 25
    assert d.product() == d.t1.value() * d.t2.value() * d.t3.value()
    for name in ("n", "t1", "t2", "t3"):
        with pytest.raises(AttributeError):
            setattr(d, name, d.t1)


def test_gen_binomial_on_a_short_sieve_raises_coverage_error():
    # a sieve that ends below [s] would drop primes from the product and
    # surface as a route mismatch; it is refused before any product is formed
    short = build_sieve(100)
    with pytest.raises(CoverageError):
        gen_binomial(GenBinomIndex(s=Fraction(403, 3), r=50), short)  # [s] = 134
    with pytest.raises(CoverageError):
        absorber("B", 60, short)  # [s] = 120
    with pytest.raises(CoverageError):
        t2_bound_minimal_n(30, short)  # at n = 26, T2 needs the primes to 104
    assert gen_binomial(GenBinomIndex(s=100, r=30), short) == math.comb(100, 30)
    assert absorber("B", 50, short) == absorber("B", 50)  # [s] = 100, the limit


_gen_binomial_indices = st.builds(
    lambda r, gap: GenBinomIndex(s=r + gap, r=r),
    st.fractions(min_value=1, max_value=3000, max_denominator=60),
    st.fractions(min_value=0, max_value=3000, max_denominator=60).filter(lambda g: g > 0),
)


@settings(max_examples=100, deadline=None)
@given(_gen_binomial_indices)
@example(GenBinomIndex(s=Fraction(3, 2), r=1))
@example(GenBinomIndex(s=2, r=1))
def test_gen_binomial_on_the_callers_sieve_matches_the_standalone_call(sieve_mid, idx):
    fs = floor_of(idx.s)
    standalone = gen_binomial(idx)
    assert gen_binomial(idx, sieve_mid) == standalone
    assert gen_binomial(idx, build_sieve(max(fs, 2))) == standalone
    if fs > 2:
        with pytest.raises(CoverageError):
            gen_binomial(idx, build_sieve(fs - 1))

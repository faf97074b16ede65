import math
from fractions import Fraction

import pytest
import sympy

from prime34 import (
    BETA_ZERO,
    DIVIDES_A,
    DIVIDES_B,
    DIVIDES_C,
    DIVIDES_D,
    DomainError,
    PRIMORIAL_16TH,
    ClaimSpec,
    check_chain,
    check_claim,
    check_tiling,
    claim_table,
    claim_to_dict,
    minimal_valid_n,
    parse_chain,
)
from prime34.claims import _chain_holds_at
from prime34.exact import beta

HI_COEFFS = [
    Fraction(1, 6), Fraction(2, 11), Fraction(4, 21), Fraction(1, 5),
    Fraction(2, 9), Fraction(3, 13), Fraction(4, 17), Fraction(1, 4),
    Fraction(4, 15), Fraction(2, 7), Fraction(3, 10), Fraction(1, 3),
    Fraction(4, 9), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4),
    Fraction(4, 5), Fraction(1), Fraction(4, 3), Fraction(3, 2),
    Fraction(2), Fraction(3),
]


def test_table_shape():
    table = claim_table()
    assert [c.id for c in table] == list(range(1, 23))
    assert [c.hi_coeff for c in table] == HI_COEFFS
    assert table[0].lo_coeff is None
    assert all(c.lo_coeff == table[i].hi_coeff for i, c in enumerate(table[1:]))


def test_consequence_assignment():
    by_consequence = {}
    for c in claim_table():
        by_consequence.setdefault(c.consequence, set()).add(c.id)
    assert by_consequence[PRIMORIAL_16TH] == {1}
    assert by_consequence[BETA_ZERO] == {4, 6, 8, 11, 14, 16, 18, 20, 22}
    assert by_consequence[DIVIDES_A] == {3, 5, 9, 13, 19}
    assert by_consequence[DIVIDES_B] == {2, 12, 15, 17, 21}
    assert by_consequence[DIVIDES_C] == {7}
    assert by_consequence[DIVIDES_D] == {10}


def test_chain_presence():
    chainless = {c.id for c in claim_table() if not c.chain}
    assert chainless == {1, 7, 10, 19, 21}


def test_claim_to_dict():
    table = claim_table()
    d = claim_to_dict(table[0])
    assert d["lo"] == "sqrt(4n)" and d["hi"] == "1/6"
    d = claim_to_dict(table[1])
    assert d == {
        "id": 2,
        "lo": "1/6",
        "hi": "2/11",
        "consequence": DIVIDES_B,
        "chain": "2p < n/2 < 3p < 8p < 3n/2 < 9p < 11p <= 2n",
    }


def test_tiling():
    assert check_tiling()
    table = claim_table()
    assert not check_tiling(table[:-1])  # dropped window
    gap = list(table)
    gap[4] = ClaimSpec(5, Fraction(21, 100), Fraction(2, 9), DIVIDES_A)
    assert not check_tiling(gap)  # window 5 no longer abuts window 4
    short = list(table)
    short[-1] = ClaimSpec(22, Fraction(2), Fraction(5, 2), BETA_ZERO)
    assert not check_tiling(short)  # coverage stops before 3n


def test_window_endpoints_are_exact():
    table = claim_table()
    assert table[1].window(100) == (Fraction(50, 3), Fraction(200, 11))
    # sqrt windows use the integer square root
    assert table[0].window(100) == (Fraction(20), Fraction(50, 3))
    assert table[0].window(101) == (Fraction(20), Fraction(101, 6))


def test_parse_chain_errors():
    with pytest.raises(DomainError):
        parse_chain("p <")
    with pytest.raises(DomainError):
        parse_chain("p")
    with pytest.raises(DomainError):
        parse_chain("p << n")
    with pytest.raises(DomainError):
        parse_chain("2q < n")
    with pytest.raises(DomainError):
        parse_chain("p > n")
    sides, ops = parse_chain("2p < n/2 <= 3n")
    assert sides == ((Fraction(2), "p"), (Fraction(1, 2), "n"), (Fraction(3), "n"))
    assert ops == ("<", "<=")


def test_chains_hold_at_every_scale():
    # every side is linear homogeneous in n, so validity is n-independent;
    # spot-check a spread of n anyway
    chained = [c for c in claim_table() if c.chain]
    assert len(chained) == 17
    for n in (1, 2, 12, 144, 5000):
        for claim in chained:
            assert check_chain(claim, n), (claim.id, n)


def test_chain_open_endpoint_semantics():
    # at n=12 window 20 opens at p=16 exactly, where "n < p" holds only
    # because the endpoint itself is excluded
    claim20 = claim_table()[19]
    assert claim20.window(12) == (Fraction(16), Fraction(18))
    assert check_chain(claim20, 12)


def test_chain_nonstrict_link_is_required():
    # window 6 closes at p = 3n/13 where 13p equals 3n; tightening the
    # link to strict makes the chain fail at the closed endpoint
    strict = ClaimSpec(
        6, Fraction(2, 9), Fraction(3, 13), BETA_ZERO,
        "4p < n < 5p < 13p < 3n < 14p < 17p < 4n < 18p",
    )
    assert not check_chain(strict, 1)
    assert not check_chain(strict, 1000)


def test_cached_chain_verdict_matches_direct_evaluation():
    # check_chain answers from a verdict decided once at n = 1; evaluating
    # the chain at each n must agree, for the 17 table chains (all true)
    # and for the strict window-6 counter-example (false)
    strict = ClaimSpec(
        6, Fraction(2, 9), Fraction(3, 13), BETA_ZERO,
        "4p < n < 5p < 13p < 3n < 14p < 17p < 4n < 18p",
    )
    chained = [c for c in claim_table() if c.chain]
    assert len(chained) == 17
    for claim, expected in [(c, True) for c in chained] + [(strict, False)]:
        sides, ops = parse_chain(claim.chain)
        for n in (1, 249, 250, 5000, 10**6 + 7):
            direct = _chain_holds_at(
                sides, ops, n, claim.lo_coeff, True
            ) and _chain_holds_at(sides, ops, n, claim.hi_coeff, False)
            assert check_chain(claim, n) == direct == expected, (claim.id, n)


def test_floor_window_is_floor_of_exact_window():
    for claim in claim_table():
        for n in range(1, 2001):
            lo, hi = claim.window(n)
            bounds = claim.floor_window(n)
            assert bounds == (math.floor(lo), math.floor(hi)), (claim.id, n)
            assert all(type(b) is int for b in bounds)


def test_check_chain_domain_errors():
    table = claim_table()
    with pytest.raises(DomainError):
        check_chain(table[0], 10)  # no chain
    with pytest.raises(DomainError):
        check_chain(table[1], 0)
    rootless = ClaimSpec(1, None, Fraction(1, 6), PRIMORIAL_16TH, "p < n")
    with pytest.raises(DomainError):
        check_chain(rootless, 10)


def test_claim_spec_validation():
    with pytest.raises(DomainError):
        ClaimSpec(0, Fraction(1, 2), Fraction(2, 3), BETA_ZERO)
    with pytest.raises(DomainError):
        ClaimSpec(23, Fraction(1, 2), Fraction(2, 3), BETA_ZERO)
    with pytest.raises(DomainError):
        ClaimSpec(5, Fraction(2, 3), Fraction(1, 2), BETA_ZERO)
    with pytest.raises(DomainError):
        ClaimSpec(5, Fraction(-1, 2), Fraction(1, 2), BETA_ZERO)
    with pytest.raises(DomainError):
        ClaimSpec(5, Fraction(1, 2), Fraction(2, 3), "DIVIDES_E")
    with pytest.raises(DomainError):
        ClaimSpec(5, Fraction(1, 2), Fraction(2, 3), BETA_ZERO, "p <> n")


def test_check_claim_examples(sieve_mid):
    table = claim_table()
    # (11, 12] holds no prime: vacuous pass
    r = check_claim(table[1], 66, sieve_mid)
    assert r.ok and r.primes_checked == 0
    # window 19 at n=100 covers the seven primes in (100, 133]
    r = check_claim(table[18], 100, sieve_mid)
    assert r.ok and r.primes_checked == 16 - 9  # pi(133) - pi(100)
    # window 22 at n=100 covers (200, 300]
    r = check_claim(table[21], 100, sieve_mid)
    assert r.ok and r.primes_checked == 16


def test_check_claim_full_valuation_path(sieve_mid):
    # n=100 window 2 holds only p=17, and 17^2 <= 400 forces the full
    # Legendre sums rather than the single-floor shortcut
    claim2 = claim_table()[1]
    r = check_claim(claim2, 100, sieve_mid)
    assert r.ok and r.primes_checked == 1
    expected = sympy.factorint(sympy.binomial(400, 300)).get(17, 0)
    assert beta(100, 17) == expected == 1


def test_check_claim_divisibility_failure(sieve_mid):
    # at n=1 window 21 holds p=2 with beta=2, but only 2^1 divides B
    r = check_claim(claim_table()[20], 1, sieve_mid)
    assert r.failures == ((2, "valuation 1 in B < beta 2"),)


def test_check_claim_undefined_absorber(sieve_mid):
    # absorber C requires n >= 5; a widened window at n=4 has primes but
    # nothing to absorb them
    synthetic = ClaimSpec(7, Fraction(1, 2), Fraction(3), DIVIDES_C)
    r = check_claim(synthetic, 4, sieve_mid)
    assert not r.ok
    assert r.primes_checked == 4
    assert all("absorber C undefined" in reason for _, reason in r.failures)


def test_check_claim_domain_error(sieve_mid):
    with pytest.raises(DomainError):
        check_claim(claim_table()[0], 0, sieve_mid)


def test_minimal_valid_n_spots(sieve_mid):
    table = claim_table()
    assert minimal_valid_n(table[21], 300, sieve_mid) == 1
    assert minimal_valid_n(table[20], 300, sieve_mid) == 2
    assert minimal_valid_n(table[1], 300, sieve_mid) == 138
    assert minimal_valid_n(table[9], 40, sieve_mid) is None
    with pytest.raises(DomainError):
        minimal_valid_n(table[0], 0, sieve_mid)

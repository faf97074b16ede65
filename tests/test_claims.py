import math
import random
from fractions import Fraction
from functools import lru_cache

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
    build_sieve,
    check_chain,
    check_claim,
    check_tiling,
    claim_table,
    claim_to_dict,
    minimal_valid_n,
    parse_chain,
)
from prime34 import claims, observations_sweep
from prime34.claims import ClaimResult, _chain_holds_at, absorber_floors_at, check_claims
from prime34.errors import CoverageError
from prime34.exact import absorber_valuation, beta

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


def _reference_tiling(table) -> bool:
    """check_tiling as Fraction comparisons."""
    if len(table) != 22 or table[0].lo_coeff is not None:
        return False
    prev_hi = None
    for claim in table:
        if claim.lo_coeff is None:
            if prev_hi is not None:
                return False
        elif claim.lo_coeff != prev_hi or claim.lo_coeff >= claim.hi_coeff:
            return False
        prev_hi = claim.hi_coeff
    return prev_hi == 3


def test_integer_tiling_matches_fraction_reference():
    table = claim_table()
    tables = [table, table[:-1], table[1:], table + table[:1], list(reversed(table))]
    # each window end moved a little either way, or a sqrt(4n) window put
    # in another place
    for k, claim in enumerate(table):
        for hi in (claim.hi_coeff - Fraction(1, 997), claim.hi_coeff + Fraction(1, 1009)):
            if claim.lo_coeff is not None and hi <= claim.lo_coeff:
                continue
            moved = list(table)
            moved[k] = ClaimSpec(claim.id, claim.lo_coeff, hi, claim.consequence)
            tables.append(moved)
        rootless = list(table)
        rootless[k] = ClaimSpec(claim.id, None, claim.hi_coeff, claim.consequence)
        tables.append(rootless)
    verdicts = [check_tiling(t) for t in tables]
    assert verdicts == [_reference_tiling(t) for t in tables]
    assert verdicts.count(True) == 2  # the table, once as it is and once rebuilt


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


def test_chain_fails_by_magnitude():
    # 14p stays below 4n over the whole window (2n/9, 3n/13], so the link
    # fails by its value at both endpoints, not by an epsilon
    wrong = ClaimSpec(6, Fraction(2, 9), Fraction(3, 13), BETA_ZERO, "4n < 14p")
    assert not check_chain(wrong, 1)
    sides, ops = parse_chain(wrong.chain)
    assert not _chain_holds_at(sides, ops, 1000, wrong.lo_coeff, True)
    assert not _chain_holds_at(sides, ops, 1000, wrong.hi_coeff, False)


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


def test_shared_absorber_floors_give_the_same_results(sieve_mid, monkeypatch):
    # r >= 1 needs n >= 4 for D (r = 4n/15) and n >= 5 for C (r = 3n/13), so
    # below that the undefined-absorber details come from the shared floors
    table = claim_table()
    for n in list(range(1, 40)) + [300, 2000]:
        floors = absorber_floors_at(n)
        undefined = {w for w, f in floors.items() if f is None}
        assert undefined == ({"C", "D"} if n < 4 else {"C"} if n == 4 else set())
        for claim in table:
            assert check_claim(claim, n, sieve_mid, floors) == check_claim(claim, n, sieve_mid)
    synthetic = ClaimSpec(7, Fraction(1, 2), Fraction(3), DIVIDES_C)
    r = check_claim(synthetic, 4, sieve_mid, absorber_floors_at(4))
    assert all("absorber C undefined" in reason for _, reason in r.failures)

    # the claims sweep decides each (absorber, n) once
    calls = []
    floors_of = claims._absorber_floors

    def counted(which, n):
        calls.append((which, n))
        return floors_of(which, n)

    monkeypatch.setattr(claims, "_absorber_floors", counted)
    observations_sweep(300, 319)
    assert sorted(calls) == sorted((w, n) for w in "ABCD" for n in range(300, 320))


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


def _beta_reference(n, p):
    """Exponent of the prime p in C(4n, 3n), by Legendre's formula for each
    factorial."""

    def exponent(m):
        e, q = 0, p
        while q <= m:
            e, q = e + m // q, q * p
        return e

    return exponent(4 * n) - exponent(3 * n) - exponent(n)


def _reference_check(claim, n, prime_set, beta_of):
    """check_claim rebuilt prime by prime from the exact rational window,
    the given beta and the public absorber_valuation."""
    lo, hi = claim.window(n)
    primes = [p for p in range(math.floor(lo) + 1, math.floor(hi) + 1) if p in prime_set]
    failures = []
    if claim.consequence == PRIMORIAL_16TH:
        if math.prod(primes) ** 6 > 4**n:
            failures.append((0, "window primorial exceeds 4^(n/6)"))
    elif claim.consequence == BETA_ZERO:
        failures = [(p, f"beta={beta_of(n, p)}") for p in primes if beta_of(n, p)]
    else:
        which = claim.consequence[-1]
        for p in primes:
            try:
                v = absorber_valuation(which, n, p)
            except DomainError:
                failures.append((p, f"absorber {which} undefined at n={n}"))
                continue
            if v < beta_of(n, p):
                failures.append((p, f"valuation {v} in {which} < beta {beta_of(n, p)}"))
    return ClaimResult(claim.id, n, len(primes), tuple(failures))


def test_check_claim_matches_per_prime_reference():
    # every n in [1, 300] plus 40 strata draws up to 5000 and [20000, 20050];
    # the two synthetic windows open at 0, so primes p <= sqrt(4n) take the
    # full Legendre path at every n, while the table windows take the
    # single-floor path once (lo + 1)^2 > 4n.  Below n = 144 window 1 is
    # empty and window 2 opens below sqrt(4n).  The one-pass check_claims
    # must give check_claim's counts and failures for every table claim.
    rng = random.Random("check_claim reference")
    draws = [rng.randint(301 + 117 * k, 300 + 117 * (k + 1)) for k in range(40)]
    far = range(20000, 20051)
    sieve = build_sieve(3 * far[-1])
    prime_set = set(sieve.primes)
    beta_of = lru_cache(maxsize=None)(_beta_reference)
    synthetic = [
        ClaimSpec(4, Fraction(0), Fraction(3), BETA_ZERO),
        ClaimSpec(3, Fraction(0), Fraction(3), DIVIDES_A),
    ]
    table_failures = 0
    for n in [*range(1, 301), *draws, *far]:
        tallied = check_claims(sieve, n, n)
        for claim in claim_table() + (synthetic if n < far[0] else []):
            got = check_claim(claim, n, sieve)
            assert got == _reference_check(claim, n, prime_set, beta_of), (claim.id, n)
            table_failures += claim not in synthetic and not got.ok
            if claim not in synthetic:
                failures = tuple((n, p, detail) for p, detail in got.failures)
                assert tallied[claim.id - 1] == (got.primes_checked, failures), (claim.id, n)
        # both synthetic windows fail at every n here, so failure details
        # are compared on the full Legendre path too; for BETA_ZERO p = 2
        # always fails, since n and 3n share their lowest set bit and
        # adding them carries (Kummer)
        assert n >= far[0] or all(not check_claim(c, n, sieve).ok for c in synthetic), n
    # the table claims fail below their minimal valid n
    assert table_failures > 0
    # over a range, check_claims adds up its n in order
    for span in (range(1, 301), far):
        per_n = [check_claims(sieve, n, n) for n in span]
        assert check_claims(sieve, span[0], span[-1]) == [
            (sum(c for c, _ in column), tuple(row for _, f in column for row in f))
            for column in zip(*per_n)
        ]


def test_check_claims_refuses_a_short_sieve():
    # the windows close at 3n, so a sieve must reach 3 * stop; a shorter
    # one is refused like check_claim refuses it, never by an IndexError or
    # a short count
    sieve = build_sieve(100)
    with pytest.raises(CoverageError):
        check_claims(sieve, 30, 40)
    with pytest.raises(CoverageError):
        check_claim(claim_table()[-1], 40, sieve)
    with pytest.raises(CoverageError):
        check_claims(build_sieve(119), 30, 40)
    just_enough = build_sieve(120)
    assert check_claims(just_enough, 30, 40) == check_claims(build_sieve(1000), 30, 40)
    with pytest.raises(DomainError):
        check_claims(just_enough, 0, 40)

import math
import pickle
import random
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy

from prime34 import (
    BETA_ZERO,
    CONSEQUENCES,
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
from prime34.claims import (
    ClaimResult, _chain_holds_at, absorber_floors_at, certify_claims, check_claims,
)
from prime34.errors import ConsistencyError, CoverageError
from prime34.sieve import primorial_le
from prime34.exact import ABSORBER_COEFFS, absorber_valuation, beta

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


def test_check_claims_counts_the_primes_of_each_exact_window(sieve_mid):
    # the plan's integer floors select exactly the primes p with lo < p <= hi
    # of the rational window; window 1 is empty below n = 144 and counts none
    table = claim_table()
    for n in range(1, 2001):
        expected = []
        for claim in table:
            lo, hi = claim.window(n)
            expected.append(max(0, sieve_mid.pi(math.floor(hi)) - sieve_mid.pi(math.floor(lo))))
        assert [checked for checked, _ in check_claims(sieve_mid, n, n)] == expected, n


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
    claim = ClaimSpec(id=5, lo_coeff=1, hi_coeff=2, consequence=BETA_ZERO)
    assert (claim.lo_coeff, claim.hi_coeff, claim.chain) == (Fraction(1), Fraction(2), "")
    assert type(claim.lo_coeff) is Fraction
    for name in claim._fields:
        with pytest.raises(AttributeError):
            setattr(claim, name, None)
    # the chain verdict is cached in the instance dict on first use
    chained = ClaimSpec(22, 2, 3, BETA_ZERO, "n < p <= 3n < 4n < 2p")
    assert check_chain(chained, 1) and vars(chained) == {"_chain_verdict": True}
    assert pickle.loads(pickle.dumps(chained)) == chained
    # _replace validates and coerces as the constructor does
    assert type(claim._replace(hi_coeff=3).hi_coeff) is Fraction
    with pytest.raises(DomainError):
        claim._replace(lo_coeff=5)


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
    for name in r._fields:
        with pytest.raises(AttributeError):
            setattr(r, name, 0)


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
    # below that the shared floors leave those absorbers undefined
    for n in list(range(1, 40)) + [300, 2000]:
        undefined = {w for w, f in absorber_floors_at(n).items() if f is None}
        assert undefined == ({"C", "D"} if n < 4 else {"C"} if n == 4 else set())

    # the claims sweep decides each (absorber, n) once where a divisibility
    # window is decided per n: below claim 2's n0 = 144.  From there the
    # breakpoint certificate decides every window, and no floor is read
    calls = []
    floors_of = claims._absorber_floors

    def counted(which, n):
        calls.append((which, n))
        return floors_of(which, n)

    monkeypatch.setattr(claims, "_absorber_floors", counted)
    observations_sweep(120, 139)
    assert sorted(calls) == sorted((w, n) for w in "ABCD" for n in range(120, 140))
    calls.clear()
    observations_sweep(300, 319)
    assert calls == []


def test_untiled_plan_matches_check_claim(sieve_mid):
    # window 5 of this table opens at 21n/100, past window 4's end, so the
    # walker bisects at its own start; window 6 opens where window 5 closes
    gap = claim_table()
    gap[4] = ClaimSpec(5, Fraction(21, 100), Fraction(2, 9), DIVIDES_A)
    plan = claims._plan(gap)
    assert [opens for opens, *_ in plan][3:6] == [None, (21, 100), None]
    for n in [*range(1, 301), 1000, 2000]:
        walked = claims._claims_pass(sieve_mid, n, n, plan)
        for claim, (checked, failures) in zip(gap, walked):
            r = check_claim(claim, n, sieve_mid)
            assert (checked, failures) == (
                r.primes_checked, tuple((n, p, detail) for p, detail in r.failures)
            ), (claim.id, n)
    # the gap (n/5, 21n/100] is in no window: at n = 2000 it holds 401,
    # 409 and 419
    assert claims._claims_pass(sieve_mid, 2000, 2000, plan)[4][0] + 3 == (
        check_claims(sieve_mid, 2000, 2000)[4][0]
    )


def test_check_claim_refuses_a_sieve_short_of_its_window_end():
    # claim 1 at n = 100 is empty (isqrt(400) > 100/6), but its end 16 is
    # past the sieve's 10, as for every other window
    with pytest.raises(CoverageError):
        check_claim(claim_table()[0], 100, build_sieve(10))
    assert check_claim(claim_table()[0], 100, build_sieve(16)).primes_checked == 0


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


# Windows on which a claim fails for some primes at every n the tests below
# take, so the breakpoint certificate must refuse each and the pass decide
# them per n.  From n = 145 on, all but the last open above sqrt(4n).
#   - BETA_ZERO on (2n/11, 4n/21]: beta is 1 above p = 3n/16, 0 below;
#   - BETA_ZERO on (3n/2, 2n]: beta is 1 throughout;
#   - BETA_ZERO on (7n/4, 5n/2]: beta is 1 up to p = 2n and 0 above, so a
#     prime just above 2N at a block's first n fails before its last;
#   - DIVIDES_B on (n/3, 2n/5]: v in B is 1 above p = 3n/8 and 0 below,
#     and beta, 0 on (4n/11, 3n/8], turns 1 below p = 4n/11;
#   - DIVIDES_D on (n/4, 2n/7]: v in D is 1 above p = 4n/15 and 0 below,
#     where beta is 1, since [4n/15]//p moves where 4n//p does;
#   - claim 1's consequence on (2n, 5n/2], where beta is 0 but the
#     product of the primes exceeds 4^(n/6);
#   - BETA_ZERO on (n/100, n/10], where p^2 <= 4n for the primes up to
#     sqrt(4n), so beta has a second Legendre term.
_BLOCK_PROBES = [
    ClaimSpec(4, Fraction(2, 11), Fraction(4, 21), BETA_ZERO),
    ClaimSpec(20, Fraction(3, 2), Fraction(2), BETA_ZERO),
    ClaimSpec(22, Fraction(7, 4), Fraction(5, 2), BETA_ZERO),
    ClaimSpec(13, Fraction(1, 3), Fraction(2, 5), DIVIDES_B),
    ClaimSpec(10, Fraction(1, 4), Fraction(2, 7), DIVIDES_D),
    ClaimSpec(1, Fraction(2), Fraction(5, 2), PRIMORIAL_16TH),
    ClaimSpec(2, Fraction(1, 100), Fraction(1, 10), BETA_ZERO),
]


def _block_pass_against_per_n(probes, sieve) -> list:
    """Check that the breakpoint certificate refuses every probe, and
    compare claims._claims_pass on the probes' plan, over ranges of 1, 31,
    32, 33 and 67 n, with per-n check_claim and _reference_check; per probe,
    (failures, primes checked) over every n compared."""
    plan = claims._plan(probes)
    assert [n0 for n0, _, _ in claims._certificate(plan)] == [None] * len(probes)
    prime_set = set(sieve.primes)
    beta_of = lru_cache(maxsize=None)(_beta_reference)
    per_n = {}

    def decided(n):
        if n not in per_n:
            results = [check_claim(claim, n, sieve) for claim in probes]
            assert results == [_reference_check(c, n, prime_set, beta_of) for c in probes], n
            per_n[n] = results
        return per_n[n]

    for first in (145, 300, 700, 2500, 4900, 20000):
        for length in (1, 31, 32, 33, 67):
            span = range(first, first + length)
            expected = [
                (
                    sum(r.primes_checked for r in column),
                    tuple((r.n, p, detail) for r in column for p, detail in r.failures),
                )
                for column in zip(*map(decided, span))
            ]
            assert claims._claims_pass(sieve, span[0], span[-1], plan) == expected, span
    return [
        (sum(len(rs[k].failures) for rs in per_n.values()),
         sum(rs[k].primes_checked for rs in per_n.values()))
        for k in range(len(probes))
    ]


def test_block_pass_matches_per_n_decisions_where_claims_fail():
    tallies = _block_pass_against_per_n(_BLOCK_PROBES, build_sieve(3 * 20100))
    # each probe fails on some of its primes; all but (3n/2, 2n] hold on others
    assert all(failed for failed, _ in tallies)
    assert [failed < checked for failed, checked in tallies] == [True, False, *[True] * 5]


def test_block_pass_with_an_absorber_whose_lower_floors_swap(monkeypatch):
    # v = [s]//p - [s - r]//p - [r]//p is symmetric in [s - r] and [r].  D
    # mirrored swaps them (s - r = 4n/15, r = 2n/105), so it gives D's
    # verdicts, but its v flips where [s - r]//p moves, not [r]//p.  For
    # each of A-D, r/(s - r) is an integer, so [s - r]//p moves only where
    # [r]//p does; only a mirrored absorber tells a rule that drops the
    # [s - r] term from one that keeps it.  The certificate must refuse it.
    monkeypatch.setitem(ABSORBER_COEFFS, "D", (Fraction(2, 7), Fraction(2, 105)))
    [(failed, checked)] = _block_pass_against_per_n([_BLOCK_PROBES[4]], build_sieve(3 * 20100))
    assert 0 < failed < checked


def test_check_claims_across_block_boundaries(sieve_mid):
    # check_claims over a range equals the per-n concatenation where
    #   - window 2 (from n/6) turns single-floor inside [130, 161], and the
    #     certificate takes it over at its n0 = 144;
    #   - windows 4, 9 and 11 are empty at 130 but not at 161, and window 3
    #     is empty at 300 but not at 331;
    #   - the range is no whole number of 32-n blocks.
    block = 32

    def bounds(n):
        return claims._window_bounds(sieve_mid.primes, n, claims._TABLE_PLAN)

    def opening(first):  # windows empty at first but not at the block's last n
        a, b = bounds(first), bounds(first + block - 1)
        return [k + 1 for k in range(22) if a[k][0] >= a[k][1] and b[k][0] < b[k][1]]

    assert {(n // 6 + 1) ** 2 > 4 * n for n in range(130, 130 + block)} == {False, True}
    assert opening(130) == [4, 9, 11] and opening(300) == [3]
    for span in (range(130, 130 + 2 * block + 5), range(300, 300 + block + 7)):
        assert len(span) % block
        per_n = [check_claims(sieve_mid, n, n) for n in span]
        assert check_claims(sieve_mid, span[0], span[-1]) == [
            (sum(c for c, _ in column), tuple(row for _, f in column for row in f))
            for column in zip(*per_n)
        ]
    # absorber C turns defined inside the block [4, 5] (r = 3n/13 >= 1 from
    # n = 5); at n = 4 every prime of (n, 3n] fails, also 11, where beta is 0
    widened = ClaimSpec(19, Fraction(1), Fraction(3), DIVIDES_C)
    results = [check_claim(widened, n, sieve_mid) for n in (4, 5)]
    assert claims._claims_pass(sieve_mid, 4, 5, claims._plan([widened])) == [
        (
            sum(r.primes_checked for r in results),
            tuple((r.n, p, detail) for r in results for p, detail in r.failures),
        )
    ]
    assert results[0].failures[-1] == (11, "absorber C undefined at n=4")


# Windows whose edge primes, those that enter at the top or leave at the
# floor inside a block of 32 n, fail at some n of their stay but not at
# others, so no rule that settles a prime over a whole block may pass them.
# From n = 145 on both open above sqrt(4n).
#   - BETA_ZERO on (13n/10, 27n/20]: beta is 1 for p <= 4n/3 and 0 above, so
#     a prime that enters at 27n/20 holds until n = 3p/4 and fails from
#     there until it leaves at 13n/10;
#   - DIVIDES_B on (7n/20, 19n/50]: v in B is 1 for p > 3n/8 and 0 below,
#     beta is 1 for p > 3n/8, 0 on (4n/11, 3n/8] and 1 below, so a prime
#     enters holding with v = 1 and fails from p <= 4n/11 until it leaves.
_EDGE_PROBES = [
    ClaimSpec(16, Fraction(13, 10), Fraction(27, 20), BETA_ZERO),
    ClaimSpec(13, Fraction(7, 20), Fraction(19, 50), DIVIDES_B),
]


def _window_stays(claim, block, sieve) -> dict:
    """{p: the n of the block at which p is in the claim's window}, from the
    rational window at each n."""
    stays = {}
    for n in block:
        lo, hi = map(math.floor, claim.window(n))
        for p in sieve.primes_in(lo, hi) if lo < hi else ():
            stays.setdefault(p, []).append(n)
    return stays


def test_block_pass_settles_edge_primes_over_their_own_stay():
    sieve = build_sieve(3 * 20100)
    tallies = _block_pass_against_per_n(_EDGE_PROBES, sieve)
    assert all(0 < failed < checked for failed, checked in tallies)
    # each probe has primes that enter, and primes that leave, inside a
    # block and over their stay in it fail at some n but not at others
    block = 32
    for claim in _EDGE_PROBES:
        mixed = set()
        for first in range(145, 845, block):
            span = range(first, first + block)
            failing = {
                (n, p) for n in span for p, _ in check_claim(claim, n, sieve).failures
            }
            for p, stay in _window_stays(claim, span, sieve).items():
                fails = sum((n, p) in failing for n in stay)
                if 0 < fails < len(stay):
                    mixed |= {"enters"} if stay[0] > first else set()
                    mixed |= {"leaves"} if stay[-1] < span[-1] else set()
        assert mixed == {"enters", "leaves"}, claim


# the n0 of claims 2-22, from which the breakpoint certificate decides them
_N0 = [144, 121, 111, 100, 81, 76, 73, 64, 57, 49, 45, 36, 21, 16, 9, 8, 7, 4, 3, 2, 1]


def test_pass_decides_per_n_only_the_uncertified_windows(monkeypatch):
    # the walker hands _window_failures, at each n, exactly the primes of
    # each non-empty window that the certificate does not decide at n, in
    # window order: a table window below its n0, and every probe window,
    # which the certificate refuses.  Rebuilt here prime by prime from the
    # rational windows.  Window 2 opens above sqrt(4n) at n = 132, not from
    # 133 to 137 and again from 138, and is certified from 144; the primes of
    # (n/100, n/10] lie on both sides of sqrt(4n), and (sqrt(4n), n/10] is
    # never certified, also where it follows a window
    calls = []
    decide = claims._window_failures

    def recorded(consequence, primes, n, *rest):
        calls.append((n, tuple(primes)))
        return decide(consequence, primes, n, *rest)

    monkeypatch.setattr(claims, "_window_failures", recorded)
    sieve = build_sieve(3 * 20100)
    table = claim_table()[1:]
    probes = [
        *_EDGE_PROBES, *_BLOCK_PROBES[3:5], _BLOCK_PROBES[6], _BLOCK_PROBES[2],
        ClaimSpec(2, None, Fraction(1, 10), BETA_ZERO),
    ]
    cases = [
        (table, 1, 150), (table, 2500, 67), (table, 20000, 33),
        (probes, 145, 67), (probes, 700, 67), (probes, 4900, 1),
    ]
    decided_n = set()
    for windows, first, length in cases:
        span = range(first, first + length)
        n0 = _N0 if windows is table else [None] * len(windows)
        expected = []
        for n in span:
            for claim, at in zip(windows, n0):
                lo, hi = map(math.floor, claim.window(n))
                primes = tuple(sieve.primes_in(lo, hi)) if lo < hi else ()
                if primes and (at is None or n < at):
                    expected.append((n, primes))
        calls.clear()
        claims._claims_pass(sieve, span[0], span[-1], claims._plan(windows))
        assert calls == expected, (windows[0].id, first, length)
        decided_n |= {n for n, _ in calls} if windows is table else set()
    # no table window is decided per n past 137: window 2 holds no prime on
    # [138, 143], and from 144 on the certificate decides every window
    assert max(decided_n) == 137


# the points x = n/p at which the certificate decides claims 2-22
_POINTS = [
    "11/2 17/3 23/4", "21/4 16/3", "5", "9/2 14/3 19/4", "13/3", "17/4", "4",
    "15/4", "7/2 11/3", "10/3", "3 13/4", "9/4 7/3 5/2 8/3 11/4", "2",
    "3/2 5/3 7/4", "4/3", "5/4", "1", "3/4", "2/3", "1/2", "1/3",
]


def test_certificate_pins_n0_and_points():
    # claim 1 opens at sqrt(4n) and is primorial, so it is not certified.
    # Claims 2-22 are, from n0 = ceil(4/a^2) for their lower coefficient a,
    # at x = 1/b and at each breakpoint k/c in (1/b, 1/a) of [4x], [3x],
    # [x] and the absorber's [s x], [(s - r) x] and [r x], at most 5 each
    entries = certify_claims()
    assert [e["id"] for e in entries] == list(range(1, 23))
    assert entries[0] == {"id": 1, "n0": None, "points": ()}
    assert [e["n0"] for e in entries[1:]] == _N0
    assert [" ".join(map(str, e["points"])) for e in entries[1:]] == _POINTS
    for claim, e in zip(claim_table()[1:], entries[1:]):
        a, b = claim.lo_coeff, claim.hi_coeff
        coeffs = [Fraction(4), Fraction(3), Fraction(1)]
        if claim.consequence != BETA_ZERO:
            s, r = ABSORBER_COEFFS[claim.consequence[-1]]
            coeffs += [s, s - r, r]
        breaks = {k / c for c in coeffs for k in range(math.ceil(c / b), math.ceil(c / a))}
        assert e["n0"] == math.ceil(4 / a**2) and len(e["points"]) <= 5
        assert e["points"] == (1 / b, *sorted(x for x in breaks if x > 1 / b)), claim.id


def test_certify_claims_raises_where_a_chain_disagrees(monkeypatch):
    # window 6 with its 13p-3n link made strict: the chain fails at the
    # closed end, while the consequence holds, so the two routes disagree
    table = claim_table()
    table[5] = ClaimSpec(
        6, Fraction(2, 9), Fraction(3, 13), BETA_ZERO,
        "4p < n < 5p < 13p < 3n < 14p < 17p < 4n < 18p",
    )
    with pytest.raises(ConsistencyError, match="claim 6: the chain fails"):
        certify_claims(table)
    table[5] = ClaimSpec(6, Fraction(2, 9), Fraction(3, 13), BETA_ZERO)
    assert certify_claims(table) == certify_claims()
    # B made C(2n, n) absorbs less: the certificate refuses claims 12 and 17,
    # whose chains still hold
    monkeypatch.setitem(ABSORBER_COEFFS, "B", (Fraction(2), Fraction(1)))
    with pytest.raises(ConsistencyError, match="claim 12: the chain holds"):
        certify_claims()


def test_certificate_reads_the_absorber_coefficients_at_each_call(monkeypatch):
    # with B made C(2n, n), claims 12 and 17 fail past their n0, and the
    # pass must find every failure that the per-prime reference finds
    monkeypatch.setitem(ABSORBER_COEFFS, "B", (Fraction(2), Fraction(1)))
    certificate = claims._certificate(claims._TABLE_PLAN)
    assert [k for k, (n0, _, _) in enumerate(certificate, 1) if n0 is None] == [1, 12, 17]
    sieve = build_sieve(3 * 2050)
    prime_set = set(sieve.primes)
    beta_of = lru_cache(maxsize=None)(_beta_reference)
    span = range(2000, 2050)
    results = [
        [_reference_check(c, n, prime_set, beta_of) for c in claim_table()] for n in span
    ]
    expected = [
        (
            sum(r.primes_checked for r in column),
            tuple((r.n, p, detail) for r in column for p, detail in r.failures),
        )
        for column in zip(*results)
    ]
    assert check_claims(sieve, span[0], span[-1]) == expected
    assert [k for k, (_, failures) in enumerate(expected, 1) if failures] == [12, 17]


def test_certificate_refuses_an_absorber_outside_its_proof(monkeypatch, sieve_mid):
    # the proof needs every absorber floor at most 4n (s <= 4) and the
    # absorber defined from n0 on.  C with r = 1/200 passes every point of
    # window 7 (v = 1 on x in [17/4, 13/3)) but is undefined below n = 200,
    # past window 7's n0 = 76, where each of its primes fails; A with s = 9
    # and r = 3 passes every point of window 3, but its floors reach 9n
    monkeypatch.setitem(ABSORBER_COEFFS, "C", (Fraction(4, 17), Fraction(1, 200)))
    monkeypatch.setitem(ABSORBER_COEFFS, "A", (Fraction(9), Fraction(3)))
    certificate = claims._certificate(claims._TABLE_PLAN)
    assert certificate[2][0] is None and certificate[6][0] is None
    result = check_claim(claim_table()[6], 124, sieve_mid)
    assert result.failures and result.failures[0][1] == "absorber C undefined at n=124"
    assert check_claims(sieve_mid, 124, 124)[6] == (
        result.primes_checked, tuple((124, p, d) for p, d in result.failures)
    )


def test_full_per_prime_rule_gives_the_certified_report(monkeypatch):
    # the independent route past n0: with the certificate refusing every
    # window, the pass decides each window prime at each n by the full
    # Legendre sums, and the whole report must be the same
    certified = observations_sweep(10**4, 10**4 + 200)
    decided = []
    decide = claims._window_failures

    def recorded(consequence, primes, n, index):
        decided.append(len(primes))
        return decide(consequence, primes, n, index)

    monkeypatch.setattr(claims, "_window_failures", recorded)
    monkeypatch.setattr(claims, "_certificate", lambda plan: [(None, 1, ())] * len(plan))
    per_prime = observations_sweep(10**4, 10**4 + 200)
    del certified["runtime_ms"], per_prime["runtime_ms"]
    assert per_prime == certified
    assert sum(decided) == sum(c["primes_checked"] for c in certified["claims"][1:])


def test_certified_windows_hold_for_every_prime_from_n0():
    # the certificate's promise, checked prime by prime: random windows
    # x = n/p in [x0, x1), that is p in (n/x1, n/x0], with each consequence,
    # and where certified, no prime of the window fails at n0, at the next
    # 20 n or at 4 draws up to 3000
    rng = random.Random("certificate soundness")
    sieve = build_sieve(9000)
    prime_set = set(sieve.primes)
    beta_of = lru_cache(maxsize=None)(_beta_reference)
    verdicts = set()
    for _ in range(150):
        x0 = Fraction(rng.randint(4, 144), rng.choice([12, 35]))
        x1 = x0 + Fraction(rng.randint(1, 6), rng.choice([12, 35]))
        claim = ClaimSpec(2, 1 / x1, 1 / x0, rng.choice(sorted(CONSEQUENCES - {PRIMORIAL_16TH})))
        [(n0, _, _)] = claims._certificate(claims._plan([claim]))
        verdicts.add((claim.consequence, n0 is not None))
        if n0 is None:
            continue
        assert n0 == math.ceil(4 * x1**2)
        for n in [*range(n0, n0 + 21), *(rng.randint(n0, 3000) for _ in range(4))]:
            assert _reference_check(claim, n, prime_set, beta_of).ok, (x0, x1, claim.consequence, n)
    # both verdicts occur, for windows of each consequence
    assert len(verdicts) == 10


def test_carried_primorial_matches_a_fresh_product_at_every_n(monkeypatch):
    # the walker carries each primorial window's product across the n of a
    # call; at every n its verdict must be primorial_le on the window's
    # primes, multiplied afresh.  Claim 1 holds at every n here, so three
    # windows from sqrt(4n) whose products sit near 4^(n/6) flip verdicts
    # in [1, 400], [4900, 5100] and [20000, 20100].  The ranges cross
    # window 1's opening at n = 144, block seams and the exits at isqrt(4n)
    # of the primes 2 to 37 and of 283 (at n = 20023); the calls that
    # start inside a range build their first product from scratch there.
    sieve = build_sieve(3 * 20100)
    windows = [claim_table()[0]] + [
        ClaimSpec(1, None, hi, PRIMORIAL_16TH)
        for hi in (Fraction(3, 8), Fraction(21, 80), Fraction(249, 1000))
    ]
    plan = claims._plan(windows)
    ranges = [(1, 400), (4900, 5100), (20000, 20100), (163, 400), (4937, 5100), (20011, 20100)]
    verdicts = {}
    for first, last in ranges:
        expected = []
        for k, claim in enumerate(windows):
            checked, failures = 0, []
            for n in range(first, last + 1):
                lo, hi = math.isqrt(4 * n), math.floor(claim.hi_coeff * n)
                window = sieve.primes_in(lo, hi) if lo < hi else []
                checked += len(window)
                verdicts.setdefault(k, {})[n] = primorial_le(window, n, 6)
                if not verdicts[k][n]:
                    failures.append((n, 0, "window primorial exceeds 4^(n/6)"))
            expected.append((checked, tuple(failures)))
        assert claims._claims_pass(sieve, first, last, plan) == expected, (first, last)
    # window 1 is empty up to n = 144 and holds throughout; each other
    # window both holds and fails within its range
    assert all(verdicts[0].values())
    assert claims._claims_pass(sieve, 1, 144, plan)[0][0] == 0
    assert claims._claims_pass(sieve, 145, 400, plan)[0][0] > 0
    for k, (first, last) in enumerate(ranges[:3], 1):
        assert {verdicts[k][n] for n in range(first, last + 1)} == {False, True}, k
    exits = [
        n for first, last in ranges[:3] for n in range(first, last + 1)
        if math.isqrt(4 * n) > math.isqrt(4 * n - 4) and sieve.is_prime(math.isqrt(4 * n))
    ]
    assert exits == [1, 3, 7, 13, 31, 43, 73, 91, 133, 211, 241, 343, 20023]
    # over one call, window 1's bit sum reads its primes at the first n and
    # then only those that enter or leave, at the n where the window moves,
    # and no product is built for it: the bound decides every n.  A product
    # is built, of the window's primes, at exactly the n where 6 * bit sum
    # > 2n leaves it undecided.
    read, built = [], []
    bit_sum, multiply = claims._bit_sum, claims._balanced_product

    def counted(ps):
        read.append(len(ps))
        return bit_sum(ps)

    def recorded(ps):
        built.append(tuple(ps))
        return multiply(ps)

    monkeypatch.setattr(claims, "_bit_sum", counted)
    monkeypatch.setattr(claims, "_balanced_product", recorded)
    claims._claims_pass(sieve, 20000, 20100, plan[:1])
    ends = [(sieve.pi(math.isqrt(4 * n)), sieve.pi(n // 6)) for n in range(20000, 20101)]
    moved = sum(i1 - i0 + j1 - j0 for (i0, j0), (i1, j1) in zip(ends, ends[1:]))
    steps = sum(a != b for a, b in zip(ends, ends[1:]))
    assert (sum(read), len(read), built) == (ends[0][1] - ends[0][0] + moved, 1 + 2 * steps, [])
    for k, (first, last) in enumerate(ranges[:3], 1):
        built.clear()
        claims._claims_pass(sieve, first, last, plan[k : k + 1])
        undecided = []
        for n in range(first, last + 1):
            lo, hi = math.isqrt(4 * n), windows[k].hi_coeff * n
            window = tuple(sieve.primes_in(lo, hi)) if lo < hi else ()
            if 6 * sum(p.bit_length() for p in window) > 2 * n:
                undecided.append(window)
        assert built == undecided and undecided, k


def test_primorial_bit_bound_defers_to_the_exact_rule_at_its_edge():
    # narrow windows of few primes, whose bit-length sum B lies just above
    # n/3 (2n < 6B <= 2n + 6) at n where the product exceeds 4^(n/6): the
    # bound must leave these n to the exact rule
    sieve = build_sieve(600)
    windows = [
        ClaimSpec(1, lo, hi, PRIMORIAL_16TH)
        for lo, hi in ((Fraction(1), Fraction(6, 5)), (Fraction(3, 2), Fraction(7, 4)))
    ]
    plan = claims._plan(windows)
    edges = []
    for first in (1, 29, 300):
        expected = []
        for claim in windows:
            checked, failures = 0, []
            for n in range(first, 301):
                lo, hi = claim.window(n)
                window = sieve.primes_in(lo, hi) if lo < hi else []
                checked += len(window)
                if window and not primorial_le(window, n, 6):
                    failures.append((n, 0, "window primorial exceeds 4^(n/6)"))
                    if n < 3 * sum(p.bit_length() for p in window) <= n + 3:
                        edges.append(n)
            expected.append((checked, tuple(failures)))
        assert claims._claims_pass(sieve, first, 300, plan) == expected, first
    assert sorted(set(edges)) == [6, 10, 11, 12, 27, 28, 34, 51, 52, 141]

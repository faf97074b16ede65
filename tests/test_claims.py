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
    # below that the shared floors leave those absorbers undefined
    for n in list(range(1, 40)) + [300, 2000]:
        undefined = {w for w, f in absorber_floors_at(n).items() if f is None}
        assert undefined == ({"C", "D"} if n < 4 else {"C"} if n == 4 else set())

    # the claims sweep decides each (absorber, n) once
    calls = []
    floors_of = claims._absorber_floors

    def counted(which, n):
        calls.append((which, n))
        return floors_of(which, n)

    monkeypatch.setattr(claims, "_absorber_floors", counted)
    observations_sweep(300, 319)
    assert sorted(calls) == sorted((w, n) for w in "ABCD" for n in range(300, 320))


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


# Windows on which a claim fails for some primes, so the block lemma of
# claims._claims_pass can settle some core primes and must leave the others
# to the per-n decision.  From n = 145 on, all but the last open above
# sqrt(4n).
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
    """Compare claims._claims_pass on the probes' plan, over ranges of 1,
    B - 1, B, B + 1 and 2B + 3 n (B the block size), with per-n check_claim
    and _reference_check; per probe, (failures, primes checked) over every n
    compared."""
    block = claims._BLOCK
    plan = claims._plan(probes)
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
        for length in (1, block - 1, block, block + 1, 2 * block + 3):
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
    # [r]//p does; only a mirrored absorber needs the lemma's [s - r] term.
    monkeypatch.setitem(ABSORBER_COEFFS, "D", (Fraction(2, 7), Fraction(2, 105)))
    [(failed, checked)] = _block_pass_against_per_n([_BLOCK_PROBES[4]], build_sieve(3 * 20100))
    assert 0 < failed < checked


def test_check_claims_across_block_boundaries(sieve_mid):
    # check_claims over a range equals the per-n concatenation where
    #   - window 2 (from n/6) turns single-floor inside the block at 130;
    #   - windows 4, 9 and 11 are empty at 130 but not at 161, and window 3
    #     is empty at 300 but not at 331;
    #   - the last block is partial.
    block = claims._BLOCK

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
# floor inside a block, fail at some n of their stay but not at others, so
# the block lemma must settle each over its own stay in the block, not over
# the whole block.  From n = 145 on both open above sqrt(4n).
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
    block = claims._BLOCK
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


def _settled(claim, p, stay) -> bool:
    """Whether the block lemma settles p over its stay, the n of one block
    at which it is in the claim's window, with the absorber's floors taken
    from its rational index."""
    n, d = stay[0], stay[-1] - stay[0]
    if n % p + 3 * n % p + 4 * d < p:
        return True
    if claim.consequence == BETA_ZERO:
        return False
    which = claim.consequence[-1]
    s, r = ABSORBER_COEFFS[which]

    def lower_floors(m):
        return math.floor((s - r) * m) // p, math.floor(r * m) // p

    return absorber_valuation(which, n, p) == 1 and lower_floors(n) == lower_floors(stay[-1])


def test_block_pass_decides_per_n_only_the_primes_the_lemma_leaves(monkeypatch):
    # the walker hands _window_failures, at each n, exactly the window's
    # primes that the block lemma does not settle over their own stay in
    # the block, in ascending order: also every prime with p^2 <= 4M for
    # the block's last n M, and every prime of a window whose absorber is
    # undefined at the block's first n.  A single-n block takes the lemma
    # too.  Rebuilt here prime by prime from the rational windows.  Window
    # 2 opens above sqrt(4n) at n = 132, not from 133 to 137 and again from
    # 138; the primes of (n/100, n/10] lie on both sides of sqrt(4n).
    calls = []
    decide = claims._window_failures

    def recorded(consequence, primes, n, *rest):
        calls.append((n, tuple(primes)))
        return decide(consequence, primes, n, *rest)

    monkeypatch.setattr(claims, "_window_failures", recorded)
    sieve = build_sieve(3 * 20100)
    block = claims._BLOCK
    table = claim_table()[1:]
    probes = _EDGE_PROBES + _BLOCK_PROBES[3:5] + _BLOCK_PROBES[6:]
    cases = [
        (table, 132, 2 * block + 5), (table, 2500, 2 * block + 3), (table, 20000, block + 1),
        (probes, 145, 2 * block + 3), (probes, 700, 2 * block + 3), (probes, 4900, 1),
    ]
    settled_edges = 0
    for windows, first, length in cases:
        span = range(first, first + length)
        expected = []
        for start in span[::block]:
            part = span[span.index(start) : span.index(start) + block]
            for claim in windows:
                which = claim.consequence[-1]
                defined = claim.consequence == BETA_ZERO or absorber_floors_at(part[0])[which]
                stays = _window_stays(claim, part, sieve)
                left = {
                    p for p, stay in stays.items()
                    if not (p * p > 4 * part[-1] and defined and _settled(claim, p, stay))
                }
                edges = {p for p, stay in stays.items() if stay != list(part)}
                settled_edges += len(edges - left)
                for n in part:
                    decided = tuple(p for p in sorted(left) if n in stays[p])
                    if decided:
                        expected.append((n, decided))
        calls.clear()
        claims._claims_pass(sieve, span[0], span[-1], claims._plan(windows))
        assert calls == expected, (windows[0].id, first, length)
    # the lemma settles edge primes too, not only those in the window
    # throughout the block
    assert settled_edges > 0


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
    # over one call, window 1's product takes its primes at the first n and
    # then only those that enter or leave, also across block seams
    factors = []
    multiply = claims._balanced_product

    def counted(ps):
        factors.append(len(ps))
        return multiply(ps)

    monkeypatch.setattr(claims, "_balanced_product", counted)
    claims._claims_pass(sieve, 20000, 20100, plan[:1])
    ends = [(sieve.pi(math.isqrt(4 * n)), sieve.pi(n // 6)) for n in range(20000, 20101)]
    moved = sum(i1 - i0 + j1 - j0 for (i0, j0), (i1, j1) in zip(ends, ends[1:]))
    assert sum(factors) == ends[0][1] - ends[0][0] + moved

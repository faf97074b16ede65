"""Acceptance gate: fourteen numbered end-to-end checks, one per test, each
printing a single PASS/FAIL line (run with -s to see them).  Together they
exercise the full pipeline: the finite sweep below the analytic threshold,
the exact decomposition and divisibility machinery, the Stirling-bound
scans, the absorber dominance, the growth constant, and the determinism of
parallel reports."""

import math

from prime34 import (
    M_CORRECTION_NOTE,
    absorber,
    analytic_report,
    beta_at_most_one,
    build_bound_report,
    count_lower_bound,
    decompose,
    default_h1_grid,
    default_h2_grid,
    factorial_sandwich_sweep,
    absorber_below_bound,
    ln_m,
    ln_t3_lower,
    lower_bound_report,
    observations_csv_lines,
    observations_sweep,
    scan_h1_monotone,
    scan_h2_unimodal,
    sweep_csv_lines,
    t2_bound_minimal_n,
    verify_corollary,
    verify_direct,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_full_direct_sweep(direct_full):
    ok = (
        direct_full.n_max == 162755
        and direct_full.failures == ()
        and direct_full.runtime_ms < 10_000
    )
    report(
        1,
        ok,
        f"n up to {direct_full.n_max}, {len(direct_full.failures)} failures, "
        f"{direct_full.runtime_ms:.0f} ms",
    )


def test_criterion_02_decomposition_identity(sieve_small):
    bad = [
        n
        for n in range(1, 301)
        if decompose(n, sieve_small).product() != math.comb(4 * n, 3 * n)
    ]
    report(2, not bad, f"T1*T2*T3 == C(4n,3n) exactly for n in [1, 300], bad={bad}")


def test_criterion_03_middle_exponents_at_most_one(sieve_mid):
    bad = [n for n in range(1, 2001) if not beta_at_most_one(n, sieve_mid)]
    report(3, not bad, f"beta(p) <= 1 on sqrt(4n) < p <= 3n for n in [1, 2000], bad={bad}")


def test_criterion_04_t2_divisibility_bound(sieve_mid):
    minimal = t2_bound_minimal_n(2000, sieve_mid)
    ok = minimal is not None and minimal <= 250
    report(4, ok, f"T2^6 <= 4^n (ABCD)^6 from n={minimal} through 2000")


def test_criterion_05_observation_suite(observations_full):
    minima = {e.claim_id: e.minimal_valid_n for e in observations_full.entries}
    ok = (
        observations_full.contract_violations == 0
        and observations_full.tiling_ok
        and all(m is not None and m <= 250 for m in minima.values())
    )
    worst = max(minima.values())
    report(
        5,
        ok,
        f"22 claims clean on [250, 5000], tiling ok, largest minimal n = {worst}",
    )


def test_criterion_06_factorial_sandwich():
    bad = factorial_sandwich_sweep(5000)
    report(6, not bad, f"g(n) < n! < f(n) strict for n in [1, 5000], bad={bad[:3]}")


def test_criterion_07_monotonicity_scans():
    from fractions import Fraction

    h1 = all(
        scan_h1_monotone(c, default_h1_grid())
        for c in (Fraction(1, 12), Fraction(1, 3), 1, 10)
    )
    h2 = all(scan_h2_unimodal(c, default_h2_grid(c)) for c in (2, 4, 10, 100))
    report(7, h1 and h2, "h1 increasing on 50-pt grid, h2 unimodal+symmetric on 100-pt")


def test_criterion_08_absorber_dominance(sieve_mid):
    bad = [
        (which, n)
        for n in range(222, 2001)
        for which in "ABCD"
        if not absorber_below_bound(which, n, absorber(which, n, sieve_mid))
    ]
    report(8, not bad, f"A,B,C,D below closed-form bounds on [222, 2000], bad={bad[:3]}")


def test_criterion_09_growth_constant():
    value = float(ln_m().ln_value)
    oracle = (
        math.log(256 / 27)
        + (4 / 3) * math.log(1 / 4)
        + math.log(3)
        + math.log(3**1.5 / 16)
        + math.log(1 / 221) / 221
        + (3 / 13) * math.log(3 / 13)
        + (4 / 17) * math.log(17 / 4)
        + (2 / 105) * math.log(2 / 105)
        + (4 / 15) * math.log(4 / 15)
        + (2 / 7) * math.log(7 / 2)
        - math.log(4) / 6
    )
    flagged = "256/27" in M_CORRECTION_NOTE and "256/7" in M_CORRECTION_NOTE
    in_report = build_bound_report(300).to_json_dict()["m_constant_note"] == M_CORRECTION_NOTE
    ok = (
        0.0513 <= value <= 0.0523
        and 0.0513 <= oracle <= 0.0523
        and abs(value - oracle) < 1e-12
        and value > 0
        and flagged
        and in_report
    )
    report(9, ok, f"ln M = {value:.10f}, oracle {oracle:.10f}, correction flagged")


def test_criterion_10_threshold_positive():
    at_threshold = float(ln_t3_lower(162755).ln_value)
    ladder = analytic_report()
    ok = (
        2990.0 * 0.95 <= at_threshold <= 2990.0 * 1.05
        and at_threshold > 0
        and ladder["all_positive"]
        and all(d > 0 for d in ladder["first_differences"])
        and ladder["strictly_increasing"]
    )
    report(10, ok, f"ln T3 lower bound at 162755 = {at_threshold:.1f}, ladder rising")


def test_criterion_11_count_lower_bound(sieve_4m):
    results = {n: lower_bound_report(n, sieve_4m) for n in (222, 10**3, 10**4, 10**5, 10**6)}
    at_million = results[10**6]
    ok = (
        all(r["satisfied"] for r in results.values())
        and 2300 < at_million["bound"] < 2500
        and at_million["actual"] == 66330
    )
    report(
        11,
        ok,
        f"bound holds at all five n; at 10^6 bound {at_million['bound']:.1f} "
        f"vs actual {at_million['actual']}",
    )


def test_criterion_12_corollary_sweep(corollary_1e5):
    ok = corollary_1e5.failures == () and corollary_1e5.n_max == 100_000
    report(12, ok, f"prime inside (n, 4(n+2)/3) for n in [3, 10^5], "
                   f"{len(corollary_1e5.failures)} failures")


def test_criterion_13_bound_strictly_increasing():
    values = [count_lower_bound(2**k) for k in range(18, 31)]
    ok = all(b > a for a, b in zip(values, values[1:]))
    report(13, ok, f"count bound rises over 2^18..2^30: {values[0]:.1f} .. {values[-1]:.1f}")


def test_criterion_14_parallel_determinism(direct_full, observations_full, corollary_1e5):
    direct_parallel = verify_direct(threads=4)
    obs_parallel = observations_sweep(1, 5000, threads=4)
    corollary_parallel = verify_corollary(100_000, threads=4)
    same_direct = list(sweep_csv_lines(direct_full)) == list(
        sweep_csv_lines(direct_parallel)
    )
    same_obs = list(observations_csv_lines(observations_full)) == list(
        observations_csv_lines(obs_parallel)
    )
    same_corollary = list(sweep_csv_lines(corollary_1e5)) == list(
        sweep_csv_lines(corollary_parallel)
    )
    report(
        14,
        same_direct and same_obs and same_corollary,
        "serial and 4-worker CSV byte-identical for the three sweep reports",
    )

"""Sweep drivers and machine-readable reports.

Four report families: the direct prime-in-[3n,4n] sweep, the corollary
sweep for (n, 4(n+2)/3), the per-claim window sweep, and single-n reports
(lower bound, analytic trend, decomposition inspection).  Sweeps partition
the n-range into fixed-size chunks over one immutable sieve; chunk results
are merged in range order, so serial and parallel runs emit byte-identical
CSV for the same inputs.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from time import perf_counter
from typing import Optional

from .bounds import (
    DEFAULT_PREC,
    _decide,
    _zero,
    build_bound_report,
    count_lower_bound,
    ln_a_upper,
    ln_b_upper,
    ln_binom_lower,
    ln_c_upper,
    ln_d_upper,
    ln_of_int,
    ln_t3_lower,
)
from .claims import (
    check_chain,
    check_claim,
    check_tiling,
    claim_table,
    claim_to_dict,
)
from .errors import DomainError
from .exact import absorber, check_t1_bound, check_t2_divisibility_bound, decompose
from .sieve import PrimeSieve, _check_capacity, build_sieve, settled_from

DEFAULT_DIRECT_NMAX = 162755  # ceiling of e^12, closing the n < e^12 range
CONTRACT_N = 250  # claim failures below this n are reported, not fatal
EXACT_CHECK_CUTOFF = 5000  # largest n where decompose runs exact cross-checks

_DIRECT_CHUNK = 8192
_OBS_CHUNK = 256


@dataclass(frozen=True)
class SweepReport:
    """Result of a per-n existence sweep (direct or corollary form)."""

    n_min: int
    n_max: int
    failures: tuple
    witness: Optional[dict]
    runtime_ms: Optional[float]


def _scan_direct(sieve: PrimeSieve, start: int, stop: int) -> list:
    """Rows (n, smallest prime in [3n, 4n] or 0) for n in [start, stop]."""
    primes = sieve.primes
    rows = []
    for n in range(start, stop + 1):
        i = bisect_left(primes, 3 * n)
        p = primes[i] if i < len(primes) else 0
        rows.append((n, p if p and p <= 4 * n else 0))
    return rows


def _scan_corollary(sieve: PrimeSieve, start: int, stop: int) -> list:
    """Rows (n, smallest prime p with n < p and 3p < 4(n+2), or 0)."""
    primes = sieve.primes
    rows = []
    for n in range(start, stop + 1):
        i = bisect_right(primes, n)
        p = primes[i] if i < len(primes) else 0
        rows.append((n, p if p and 3 * p < 4 * (n + 2) else 0))
    return rows


def _scan_observations(sieve: PrimeSieve, start: int, stop: int) -> list:
    """Per-claim (primes_checked, claim_failures, chain_failures)
    accumulated over n in [start, stop]."""
    table = claim_table()
    acc = [[0, [], []] for _ in table]
    for n in range(start, stop + 1):
        for slot, claim in zip(acc, table):
            result = check_claim(claim, n, sieve)
            slot[0] += result.primes_checked
            if result.failures:
                slot[1].extend((n, p, detail) for p, detail in result.failures)
            if claim.chain and not check_chain(claim, n):
                slot[2].append(n)
    return [(c, tuple(f), tuple(ch)) for c, f, ch in acc]


_WORKER_SIEVE = None


def _init_worker(limit: int) -> None:
    global _WORKER_SIEVE
    _WORKER_SIEVE = build_sieve(limit)


def _worker_scan(scan, span):
    return scan(_WORKER_SIEVE, *span)


def _run_chunked(scan, limit, n_min, n_max, threads, chunk):
    """Run scan over [n_min, n_max] in fixed chunks; merge in range order.
    Chunk boundaries depend only on the range, never on the worker count,
    which is capped by the chunk count and the CPU count."""
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    starts = range(n_min, n_max + 1, chunk)
    spans = ((s, min(s + chunk - 1, n_max)) for s in starts)
    workers = min(threads, len(starts), os.cpu_count() or 1)
    if workers <= 1:
        sieve = build_sieve(limit)
        return [scan(sieve, *span) for span in spans]
    _check_capacity(limit)  # here, not as a broken pool after forking
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(limit,)
    ) as pool:
        return list(pool.map(_worker_scan, repeat(scan), spans))


def _existence_sweep(scan, limit, n_min, n_max, witnesses, threads) -> SweepReport:
    """A SweepReport of scan's (n, witness or 0) rows over [n_min, n_max]."""
    t0 = perf_counter()
    parts = _run_chunked(scan, limit, n_min, n_max, threads, _DIRECT_CHUNK)
    rows = [row for part in parts for row in part]
    failures = tuple(n for n, w in rows if w == 0)
    witness = {n: w for n, w in rows if w} if witnesses else None
    return SweepReport(n_min, n_max, failures, witness, (perf_counter() - t0) * 1e3)


def verify_direct(
    n_max: int = DEFAULT_DIRECT_NMAX, witnesses: bool = False, threads: int = 1
) -> SweepReport:
    """For every n in [1, n_max], find the smallest prime in [3n, 4n]."""
    if n_max < 1:
        raise DomainError("direct sweep requires n_max >= 1")
    return _existence_sweep(_scan_direct, 4 * n_max, 1, n_max, witnesses, threads)


def verify_corollary(
    n_max: int, witnesses: bool = False, threads: int = 1
) -> SweepReport:
    """For every n in [3, n_max], find a prime strictly inside
    (n, 4(n+2)/3), via exact integer comparison 3p < 4(n+2)."""
    if n_max < 3:
        raise DomainError("corollary sweep requires n_max >= 3")
    limit = 4 * (n_max + 2) // 3 + 1
    return _existence_sweep(_scan_corollary, limit, 3, n_max, witnesses, threads)


def sweep_to_json_dict(report: SweepReport) -> dict:
    witness = report.witness
    return {
        "n_min": report.n_min,
        "n_max": report.n_max,
        "failures": list(report.failures),
        "witness": None if witness is None else {str(n): p for n, p in witness.items()},
        "runtime_ms": report.runtime_ms,
    }


def sweep_from_json_dict(d: dict) -> SweepReport:
    witness = d["witness"]
    return SweepReport(
        d["n_min"],
        d["n_max"],
        tuple(d["failures"]),
        None if witness is None else {int(n): p for n, p in witness.items()},
        d["runtime_ms"],
    )


def sweep_csv_lines(report: SweepReport):
    """One row per swept n; 'n,witness' with the witnessing prime (0 on
    failure) when witnesses were kept, else 'n,ok' with a 0/1 flag.
    Runtime is deliberately excluded so reruns are byte-identical."""
    if report.witness is not None:
        yield "n,witness"
        for n in range(report.n_min, report.n_max + 1):
            yield f"{n},{report.witness.get(n, 0)}"
    else:
        yield "n,ok"
        failed = set(report.failures)
        for n in range(report.n_min, report.n_max + 1):
            yield f"{n},{0 if n in failed else 1}"


def sweep_from_csv_lines(lines) -> SweepReport:
    """Rebuild a SweepReport (without runtime) from sweep_csv_lines output."""
    it = iter(lines)
    header = next(it).strip()
    if header not in ("n,witness", "n,ok"):
        raise DomainError(f"unrecognized sweep CSV header {header!r}")
    with_witness = header == "n,witness"
    ns, failures, witness = [], [], {}
    for line in it:
        line = line.strip()
        if not line:
            continue
        n_text, value_text = line.split(",")
        n, value = int(n_text), int(value_text)
        ns.append(n)
        if value == 0:
            failures.append(n)
        elif with_witness:
            witness[n] = value
    if not ns:
        raise DomainError("sweep CSV has no data rows")
    return SweepReport(
        ns[0], ns[-1], tuple(failures), witness if with_witness else None, None
    )


@dataclass(frozen=True)
class ClaimSweepEntry:
    """One claim's aggregate over a swept n-range."""

    claim_id: int
    minimal_valid_n: Optional[int]
    primes_checked: int
    claim_failures: tuple  # (n, p, detail)
    chain_failures: tuple  # n values where the chain check failed


@dataclass(frozen=True)
class ObservationsReport:
    n_min: int
    n_max: int
    entries: tuple
    tiling_ok: bool
    contract_violations: int
    runtime_ms: Optional[float]


def observations_sweep(n_min: int, n_max: int, threads: int = 1) -> ObservationsReport:
    """check_claim plus check_chain for all 22 claims over [n_min, n_max],
    with per-claim minimal valid n and the symbolic tiling check.

    Failures at n >= 250 are contract violations; smaller n are reported
    only (the claims are not promised there)."""
    if n_min < 1 or n_max < n_min:
        raise DomainError("observations sweep requires 1 <= n_min <= n_max")
    t0 = perf_counter()
    parts = _run_chunked(
        _scan_observations, 4 * n_max, n_min, n_max, threads, _OBS_CHUNK
    )
    table = claim_table()
    entries = []
    violations = 0
    for k, claim in enumerate(table):
        checked = sum(part[k][0] for part in parts)
        failures = tuple(row for part in parts for row in part[k][1])
        chain_bad = tuple(n for part in parts for n in part[k][2])
        bad = [n for n, _, _ in failures] + list(chain_bad)
        minimal = settled_from(bad, n_min, n_max)
        violations += sum(1 for n, _, _ in failures if n >= CONTRACT_N)
        violations += sum(1 for n in chain_bad if n >= CONTRACT_N)
        entries.append(
            ClaimSweepEntry(claim.id, minimal, checked, failures, chain_bad)
        )
    return ObservationsReport(
        n_min,
        n_max,
        tuple(entries),
        check_tiling(table),
        violations,
        (perf_counter() - t0) * 1e3,
    )


def observations_to_json_dict(report: ObservationsReport) -> dict:
    by_id = {claim.id: claim for claim in claim_table()}
    entries = []
    for e in report.entries:
        d = claim_to_dict(by_id[e.claim_id])
        d.update(
            minimal_valid_n=e.minimal_valid_n,
            primes_checked=e.primes_checked,
            claim_failures=[[n, p, detail] for n, p, detail in e.claim_failures],
            chain_failures=list(e.chain_failures),
        )
        entries.append(d)
    return {
        "n_min": report.n_min,
        "n_max": report.n_max,
        "claims": entries,
        "tiling_ok": report.tiling_ok,
        "contract_violations": report.contract_violations,
        "runtime_ms": report.runtime_ms,
    }


def observations_csv_lines(report: ObservationsReport):
    """Numeric per-claim summary; -1 encodes 'no valid n in range'."""
    yield "claim_id,minimal_valid_n,primes_checked,claim_failures,chain_failures"
    for e in report.entries:
        minimal = -1 if e.minimal_valid_n is None else e.minimal_valid_n
        yield (
            f"{e.claim_id},{minimal},{e.primes_checked},"
            f"{len(e.claim_failures)},{len(e.chain_failures)}"
        )


def lower_bound_report(
    n: int, sieve: Optional[PrimeSieve] = None, prec: int = DEFAULT_PREC
) -> dict:
    """Analytic lower bound vs the actual sieve count of primes in (3n, 4n)."""
    if n < 222:
        raise DomainError("lower bound report requires n >= 222")
    if sieve is None:
        sieve = build_sieve(4 * n)
    actual = sieve.pi(4 * n - 1) - sieve.pi(3 * n)
    bound = count_lower_bound(n, prec)
    return {"n": n, "bound": bound, "actual": actual, "satisfied": actual >= bound}


DEFAULT_ANALYTIC_SAMPLES = tuple(DEFAULT_DIRECT_NMAX << k for k in range(15))


def analytic_report(samples=None, prec: int = DEFAULT_PREC) -> dict:
    """ln of the T3 lower bound at each sample: positivity and first
    differences over a geometric ladder standing in for the n -> infinity
    trend (the literal all-n claim is out of desk-scale reach)."""
    samples = DEFAULT_ANALYTIC_SAMPLES if samples is None else tuple(samples)
    if any(s <= DEFAULT_DIRECT_NMAX - 1 for s in samples):
        raise DomainError(f"analytic samples must exceed {DEFAULT_DIRECT_NMAX - 1}")
    if any(b <= a for a, b in zip(samples, samples[1:])):
        raise DomainError("analytic samples must be strictly ascending")

    values = [ln_t3_lower(s, prec) for s in samples]
    positive = [
        _decide(lambda p, s=s: _zero(p).less_than(ln_t3_lower(s, p)), prec)
        for s in samples
    ]
    floats = [float(v.ln_value) for v in values]
    diffs = [b - a for a, b in zip(floats, floats[1:])]
    increasing = [
        _decide(
            lambda p, a=a, b=b: ln_t3_lower(a, p).less_than(ln_t3_lower(b, p)), prec
        )
        for a, b in zip(samples, samples[1:])
    ]
    return {
        "samples": list(samples),
        "ln_t3_lower": floats,
        "all_positive": all(positive),
        "first_differences": diffs,
        "strictly_increasing": all(increasing),
    }


_ABSORBER_UPPER = {"A": ln_a_upper, "B": ln_b_upper, "C": ln_c_upper, "D": ln_d_upper}


def absorber_below_bound(which: str, n: int, prec: int = DEFAULT_PREC) -> bool:
    """Exact absorber value strictly below its closed-form upper bound."""
    upper = _ABSORBER_UPPER[which]
    value = absorber(which, n)
    upper(n, prec)  # surface domain errors (poles) before deciding
    return _decide(lambda p: ln_of_int(value, p).less_than(upper(n, p)), prec)


def _factors_ln(entries) -> float:
    return sum(e * math.log(p) for p, e in entries)


def decompose_report(
    n: int, sieve: Optional[PrimeSieve] = None, prec: int = DEFAULT_PREC
) -> dict:
    """Factored T1/T2/T3 with ln values and pass/fail for every inequality
    applicable at this n.  Exact cross-checks (big-integer identity and
    bound comparisons) run for n <= EXACT_CHECK_CUTOFF; above that only
    the factored forms and ln values are reported."""
    if n < 1:
        raise DomainError("decompose requires n >= 1")
    if sieve is None:
        sieve = build_sieve(4 * n if n > 1 else 4)
    dec = decompose(n, sieve)
    checks = {}
    exact_scale = n <= EXACT_CHECK_CUTOFF

    if exact_scale:
        product = dec.product()
        checks["binomial_identity"] = (
            "pass" if product == math.comb(4 * n, 3 * n) else "fail"
        )
        checks["binomial_above_lower_bound"] = _verdict(
            _decide(
                lambda p: ln_binom_lower(n, p).less_than(
                    ln_of_int(math.comb(4 * n, 3 * n), p)
                ),
                prec,
            )
        )
    else:
        checks["binomial_identity"] = "skipped above exact-check cutoff"
        checks["binomial_above_lower_bound"] = "skipped above exact-check cutoff"

    if n >= 16 and exact_scale:
        checks["t1_cap"] = _verdict(check_t1_bound(n, sieve))
    elif n < 16:
        checks["t1_cap"] = "not applicable"
    else:
        checks["t1_cap"] = "skipped above exact-check cutoff"

    if exact_scale:
        try:
            checks["t2_divisibility"] = _verdict(check_t2_divisibility_bound(n, sieve))
        except DomainError:
            checks["t2_divisibility"] = "not applicable"
    else:
        checks["t2_divisibility"] = "skipped above exact-check cutoff"

    for which in "ABCD":
        key = f"absorber_{which}_below_bound"
        if not exact_scale:
            checks[key] = "skipped above exact-check cutoff"
            continue
        try:
            checks[key] = _verdict(absorber_below_bound(which, n, prec))
        except DomainError as exc:
            checks[key] = (
                "pole: not applicable" if "pole" in str(exc) else "not applicable"
            )

    if n < 222:
        checks["t3_above_lower_bound"] = "not applicable"
    elif exact_scale:
        t3_value = dec.t3.value()
        checks["t3_above_lower_bound"] = _verdict(
            _decide(lambda p: ln_t3_lower(n, p).less_than(ln_of_int(t3_value, p)), prec)
        )
    else:
        checks["t3_above_lower_bound"] = "skipped above exact-check cutoff"

    report = {
        "n": n,
        "t1_factors": [[p, e] for p, e in dec.t1.entries],
        "t2_factors": [[p, e] for p, e in dec.t2.entries],
        "t3_factors": [[p, e] for p, e in dec.t3.entries],
        "ln_t1": _factors_ln(dec.t1.entries),
        "ln_t2": _factors_ln(dec.t2.entries),
        "ln_t3": _factors_ln(dec.t3.entries),
        "checks": checks,
        "bound_report": build_bound_report(n, prec).to_json_dict() if n >= 222 else None,
    }
    return report


def _verdict(flag: bool) -> str:
    return "pass" if flag else "fail"

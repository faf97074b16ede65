"""Sweep drivers and machine-readable reports.

Four report families: the direct prime-in-[3n,4n] sweep, the corollary
sweep for (n, 4(n+2)/3), the per-claim window sweep, and single-n reports
(lower bound, analytic trend, decomposition inspection).  Sweeps partition
the n-range into fixed-size chunks over one immutable sieve; chunk results
are merged in range order, so serial and parallel runs emit byte-identical
CSV for the same inputs.

Of the package, only sieve and errors are imported here.  Each driver of
the claims sweep or of the single-n reports imports claims, or bounds and
exact, when it runs, so the existence sweeps load none of them.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_left, bisect_right
from functools import partial
from importlib import import_module
from itertools import accumulate, chain, compress, repeat
from operator import gt, mul, ne, sub
from time import perf_counter
from typing import NamedTuple, Optional

from .errors import DomainError
from .sieve import PrimeSieve, _check_capacity, build_sieve, settled_from

DEFAULT_DIRECT_NMAX = 162755  # ceiling of e^12, closing the n < e^12 range
CONTRACT_N = 250  # claim failures below this n are reported, not fatal
EXACT_CHECK_CUTOFF = 5000  # largest n where decompose runs exact cross-checks

_DIRECT_CHUNK = 8192
_OBS_CHUNK = 256

# Names bench/tracing.py reads from this module, by their home module.
_TRACED = {
    "check_claim": "claims",
    "check_chain": "claims",
    "decompose": "exact",
    "check_t1_bound": "exact",
    "check_t2_divisibility_bound": "exact",
    "build_bound_report": "bounds",
    "_ABSORBER_UPPER": "bounds",
}


def __getattr__(name: str):
    """The object a traced name is bound to in its home module.

    bench/tracing.py, this shim's only reader, patches these names in this
    module's namespace as well as in their home modules, which the drivers
    read at call time.  The shim goes with the tracer's rewrite (ROADMAP
    item 10)."""
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_TRACED[name]}", __package__), name)


class SweepReport(NamedTuple):
    """Result of a per-n existence sweep (direct or corollary form).

    runs holds the witnesses of [n_min, n_max] run-length encoded, as a pair
    of int64 arrays (primes, lengths): primes[i] witnesses the next
    lengths[i] n, with 0 for a run of failures.  Runs are canonical (none
    is empty and no two neighbours share a prime), so equal witnesses give
    equal runs.  runs is None when witnesses were not kept."""

    n_min: int
    n_max: int
    failures: tuple
    runs: Optional[tuple]
    runtime_ms: Optional[float]

    @property
    def witness(self) -> Optional[dict]:
        """{n: witness} over the n that did not fail, or None."""
        if self.runs is None:
            return None
        return dict(_witness_items(self, range(self.n_min, self.n_max + 1)))


def _expand(primes, lengths):
    """The per-n values of runs, as an iterator."""
    return chain.from_iterable(map(repeat, primes, lengths))


def _witness_items(report, keys):
    """(key, witness) for the n of the report that did not fail, its
    failures being the n of its 0-runs; keys run over every n."""
    found = _expand(*report.runs)
    if not report.failures:
        return zip(keys, found)
    found = array("q", found)
    return compress(zip(keys, found), found)


def _canonical(primes, lengths) -> tuple:
    """Runs with the empty ones dropped and equal neighbours merged."""
    out_p, out_l = array("q"), array("q")
    for p, k in zip(primes, lengths):
        if not k:
            continue
        if out_p and out_p[-1] == p:
            out_l[-1] += k
        else:
            out_p.append(p)
            out_l.append(k)
    return out_p, out_l


# Witness forms (a, b, c, d): the witness of n is the smallest prime
# p >= a*n + b, kept when c*p <= 4n + d.
_DIRECT_FORM = (3, 0, 1, 0)  # p in [3n, 4n]
_COROLLARY_FORM = (1, 1, 3, 7)  # n < p and 3p < 4(n + 2)


def _scan_witnesses(sieve: PrimeSieve, start: int, stop: int, form: tuple) -> tuple:
    """Canonical runs (primes, lengths) of the witnesses for n in [start,
    stop] in the given form, and whether they hold a 0-run: witness
    primes[i], 0 where the candidate is rejected or the sieve runs out of
    primes, covers the next lengths[i] n.  Both are int64 buffers, which a
    worker pool pickles whole.

    Each prime p is the candidate for the run of n up to (p - b) // a, so a
    run's length is the gap between neighbouring run ends.  Acceptance,
    c*p <= 4n + d, grows with n, so only the front of a run, n through
    (c*p - d - 1) // 4, can be rejected; such runs (none on a full sieve)
    are split into a 0-run and a p-run.

    The chunk's largest gap G between neighbouring primes can accept every
    run at once.  A prime p after p' opens its run at e + 1, where e =
    (p' - b) // a >= (p' - b - a + 1) / a, and p <= p' + G, so c*p <=
    4(e + 1) + d when (4 - a*c)*p' >= a*c*G + 4b - 4 - a*d.  For a*c <= 4
    the left side does not fall as p' grows, so that test at the first
    prime, with the first prime accepted at start, accepts every run; the
    runs are then canonical when none is empty and primes do not run out.
    Only the split runs and the tail can make a 0-run."""
    a, b, c, d = form
    primes = sieve.primes
    lo = bisect_left(primes, a * start + b)
    hi = bisect_left(primes, a * stop + b) + 1
    ps = primes[lo:hi]
    lasts = [(p - b) // a for p in ps]
    if lasts and lasts[-1] > stop:
        lasts[-1] = stop  # the last run may reach past stop
    ends = [start - 1, *lasts]  # ends[i]: the n before run i
    lengths = list(map(sub, lasts, ends))
    tail = stop - ends[-1]  # the n after the last run, where primes ran out
    ac = a * c
    if not tail and all(lengths) and ac <= 4 and c * ps[0] <= 4 * start + d:
        gap = max(map(sub, ps[1:], ps), default=0)
        if (4 - ac) * ps[0] >= ac * gap + 4 * b - 4 - a * d:
            return array("q", ps), array("q", lengths), False
    rejected = [(c * p - d - 1) // 4 for p in ps]  # the last n rejecting p
    bad = list(compress(range(len(ps)), map(gt, rejected, ends)))
    if not bad and not tail:
        # two distinct primes are never neighbours with the same value; an
        # array built from a list is copied in C, not appended item by item
        return array("q", [*compress(ps, lengths)]), array("q", [*filter(None, lengths)]), False
    runs_p, runs_l, done = [], [], 0
    for i in bad:
        zeros = min(rejected[i], lasts[i]) - ends[i]
        runs_p += (*ps[done:i], 0, ps[i])
        runs_l += (*lengths[done:i], zeros, lengths[i] - zeros)
        done = i + 1
    runs_p += (*ps[done:], 0)
    runs_l += (*lengths[done:], tail)
    runs_p, runs_l = _canonical(runs_p, runs_l)
    return runs_p, runs_l, 0 in runs_p


_WORKER_SIEVE = None


def _init_worker(sieve: PrimeSieve) -> None:
    global _WORKER_SIEVE
    _WORKER_SIEVE = sieve


def _worker_scan(scan, span):
    return scan(_WORKER_SIEVE, *span)


def _check_threads(threads: int) -> None:
    """Refuse a worker count below 1, before any sieve is built."""
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")


def _run_chunked(scan, sieve, n_min, n_max, threads, chunk):
    """Run scan over [n_min, n_max] in fixed chunks; merge in range order.
    Chunk boundaries depend only on the range, never on the worker count,
    which is capped by the chunk count and the CPU count.  The caller's
    sieve, built before any worker starts, is handed to each worker."""
    starts = range(n_min, n_max + 1, chunk)
    spans = ((s, min(s + chunk - 1, n_max)) for s in starts)
    workers = min(threads, len(starts), os.cpu_count() or 1)
    if workers <= 1:
        return [scan(sieve, *span) for span in spans]
    from concurrent.futures import ProcessPoolExecutor  # serial runs skip its import

    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(sieve,)
    ) as pool:
        return list(pool.map(_worker_scan, repeat(scan), spans))


def _existence_sweep(form, limit, n_min, n_max, witnesses, threads) -> SweepReport:
    """A SweepReport of the witnesses in this form over [n_min, n_max].

    The scan reads no prime past the first one from reach = a*n_max + b,
    so the sieve stops at reach + isqrt(reach).  When that holds no prime
    from reach on (below 3 * 10**6 only at reach 8, 24, 114, 115 and 116),
    the full limit, which holds every accepted witness, is built instead.
    Either sieve gives the same witnesses.  The budget is decided on the
    full limit first, so the refused n_max do not depend on the trim."""
    t0 = perf_counter()
    _check_threads(threads)
    _check_capacity(limit)
    a, b = form[:2]
    reach = a * n_max + b
    sieve = build_sieve(reach + math.isqrt(reach))
    if sieve.primes[-1] < reach:
        sieve = build_sieve(limit)
    scan = partial(_scan_witnesses, form=form)
    primes, lengths, failed = array("q"), array("q"), False
    for ps, ls, zero in _run_chunked(scan, sieve, n_min, n_max, threads, _DIRECT_CHUNK):
        if primes[-1:] == ps[:1]:  # one run across the seam
            lengths[-1] += ls[0]
            ps, ls = ps[1:], ls[1:]
        primes += ps
        lengths += ls
        failed |= zero
    failures = _failures(n_min, (primes, lengths)) if failed else ()
    runtime_ms = (perf_counter() - t0) * 1e3
    runs = (primes, lengths) if witnesses else None
    return SweepReport(n_min, n_max, failures, runs, runtime_ms)


def _failures(n_min: int, runs) -> tuple:
    """The n of the 0-runs of runs, which start at n_min."""
    primes, lengths = runs
    starts = accumulate(lengths, initial=n_min)
    return tuple(
        chain.from_iterable(
            range(s, s + k) for p, s, k in zip(primes, starts, lengths) if not p
        )
    )


def verify_direct(
    n_max: int = DEFAULT_DIRECT_NMAX, witnesses: bool = False, threads: int = 1
) -> SweepReport:
    """For every n in [1, n_max], find the smallest prime in [3n, 4n].

    The sieve reaches 3 * n_max + isqrt(3 * n_max), or 4 * n_max where no
    prime lies between 3 * n_max and that; the memory budget is decided on
    4 * n_max."""
    if n_max < 1:
        raise DomainError("direct sweep requires n_max >= 1")
    return _existence_sweep(_DIRECT_FORM, 4 * n_max, 1, n_max, witnesses, threads)


def verify_corollary(
    n_max: int, witnesses: bool = False, threads: int = 1
) -> SweepReport:
    """For every n in [3, n_max], find a prime strictly inside
    (n, 4(n+2)/3), via exact integer comparison 3p < 4(n+2).

    The sieve reaches n_max + 1 + isqrt(n_max + 1), or 4(n_max + 2)/3 + 1
    where no prime lies between n_max + 1 and that; the memory budget is
    decided on 4(n_max + 2)/3 + 1."""
    if n_max < 3:
        raise DomainError("corollary sweep requires n_max >= 3")
    limit = 4 * (n_max + 2) // 3 + 1
    return _existence_sweep(_COROLLARY_FORM, limit, 3, n_max, witnesses, threads)


def sweep_to_json_dict(report: SweepReport) -> dict:
    witness = None
    if report.runs is not None:
        keys = map(str, range(report.n_min, report.n_max + 1))
        witness = dict(_witness_items(report, keys))
    return {
        "n_min": report.n_min,
        "n_max": report.n_max,
        "failures": list(report.failures),
        "witness": witness,
        "runtime_ms": report.runtime_ms,
    }


def _flag_runs(report: SweepReport) -> tuple:
    """Runs of the 'n,ok' flags, 0 on each failure and 1 between them."""
    fails = report.failures
    bounds = zip([report.n_min - 1, *fails], [*fails, report.n_max + 1])
    lengths = [1] * (2 * len(fails) + 1)
    lengths[::2] = [b - a - 1 for a, b in bounds]
    return [1, 0] * len(fails) + [1], lengths


def sweep_csv_text(report: SweepReport) -> str:
    """One row per swept n; 'n,witness' with the witnessing prime (0 on
    failure) when witnesses were kept, else 'n,ok' with a 0/1 flag.
    Runtime is deliberately excluded so reruns are byte-identical.

    The rows are written per block of n with one digit count: one format
    call writes every run's row with a placeholder for n, and each row is
    repeated over its run.  The n are then written one digit column at a
    time, so no n is formatted or boxed on its own."""
    if report.runs is not None:
        header, (values, lengths) = "n,witness", report.runs
    else:
        header, (values, lengths) = "n,ok", _flag_runs(report)
    starts = [*accumulate(lengths, initial=report.n_min)]  # first n of each run
    blocks, lo = [], report.n_min  # (lo, runs i:j, the n cut off their ends)
    while lo <= report.n_max:
        stop = min(10 ** len(str(lo)), report.n_max + 1)
        i, j = bisect_right(starts, lo) - 1, bisect_left(starts, stop)
        blocks.append((lo, i, j, lo - starts[i], starts[j] - stop))
        lo = stop
    del starts  # its boxed ints go before the rows, which set the peak
    out = bytearray(header.encode() + b"\n")
    for lo, i, j, head, tail in blocks:
        block = array("q", lengths[i:j])
        block[0] -= head
        block[-1] -= tail
        _write_block(out, lo, len(str(lo)), values[i:j], block)
    return out.decode("ascii")


def _write_block(out: bytearray, n: int, width: int, values, lengths) -> None:
    """Append the rows of n, n + 1, ..., all of width digits, whose values
    come in runs (values, lengths).  Rows of one size sit at one stride, so
    each digit place of their n is one slice assignment; a row is wider
    where its value gains a digit and narrower over a 0-run."""
    rows = ((b"0" * width + b",%d\n") * len(values) % tuple(values)).splitlines(True)
    sizes = list(map(len, rows))
    cuts = [0, *compress(range(1, len(sizes)), map(ne, sizes[1:], sizes)), len(sizes)]
    at = len(out)
    out += b"".join(map(mul, rows, lengths))
    for a, b in zip(cuts, cuts[1:]):
        count, size = sum(lengths[a:b]), sizes[a]
        end = at + count * size
        for col in range(width):
            column = _digit_column(n, count, 10 ** (width - 1 - col))
            out[at + col : end : size] = column
        n, at = n + count, end


_DIGITS = [bytes((c,)) for c in b"0123456789"]


def _digit_column(n0: int, count: int, unit: int) -> bytes:
    """The digit at place unit (a power of ten) of n0, ..., n0 + count - 1,
    one byte each.  The digits repeat with period 10 * unit; the period is
    built only when the column holds it whole, and otherwise the column is
    its few stretches of one digit."""
    period = 10 * unit
    if period <= count:
        cycle = b"".join([d * unit for d in _DIGITS])
        skip = n0 % period
        return (cycle * ((skip + count) // period + 1))[skip : skip + count]
    first, last = n0 // unit, (n0 + count - 1) // unit
    cuts = [n0, *range((first + 1) * unit, last * unit + 1, unit), n0 + count]
    digits = (_DIGITS[q % 10] for q in range(first, last + 1))
    return b"".join(map(mul, digits, map(sub, cuts[1:], cuts)))


def sweep_csv_lines(report: SweepReport) -> list:
    """The lines of sweep_csv_text, without their newlines."""
    return sweep_csv_text(report).splitlines()


def observations_sweep(n_min: int, n_max: int, threads: int = 1) -> dict:
    """Every window claim and chain over [n_min, n_max], with per-claim
    minimal valid n and the symbolic tiling check, as the dict that
    `observations --format json` prints: n_min, n_max, claims, tiling_ok,
    contract_violations and runtime_ms.  Each entry of claims is
    claim_to_dict's with minimal_valid_n, primes_checked, claim_failures
    as [n, p, detail] lists and chain_failures, the n where the chain
    check failed.

    Each chunk of n runs check_claims, one pass over the 22 windows
    (claims._claims_pass): one sieve bisection per window bound and n,
    each window prime decided per n only below the n0 of the breakpoint
    certificate (at most 144), and claim 1's window product carried
    across the chunk's n.  Its totals and failures are those of
    check_claim over every (claim, n).
    The windows close by 3n, so the sieve reaches 3 * n_max.  A chain's
    verdict is the same at every n (check_chain), so it is decided once.

    Failures at n >= 250 are contract violations; smaller n are reported
    only (the claims are not promised there)."""
    from .claims import check_chain, check_claims, check_tiling, claim_table, claim_to_dict

    if n_min < 1 or n_max < n_min:
        raise DomainError("observations sweep requires 1 <= n_min <= n_max")
    t0 = perf_counter()
    _check_threads(threads)
    sieve = build_sieve(3 * n_max)
    parts = _run_chunked(check_claims, sieve, n_min, n_max, threads, _OBS_CHUNK)
    entries = []
    violations = 0
    for k, claim in enumerate(claim_table()):
        failures = [[n, p, detail] for part in parts for n, p, detail in part[k][1]]
        chain_ok = not claim.chain or check_chain(claim, n_min)
        chain_bad = [] if chain_ok else list(range(n_min, n_max + 1))
        bad = [n for n, _, _ in failures] + chain_bad
        violations += sum(1 for n in bad if n >= CONTRACT_N)
        entries.append(
            {
                **claim_to_dict(claim),
                "minimal_valid_n": settled_from(set(bad).__contains__, n_min, n_max),
                "primes_checked": sum(part[k][0] for part in parts),
                "claim_failures": failures,
                "chain_failures": chain_bad,
            }
        )
    return {
        "n_min": n_min,
        "n_max": n_max,
        "claims": entries,
        "tiling_ok": check_tiling(),
        "contract_violations": violations,
        "runtime_ms": (perf_counter() - t0) * 1e3,
    }


def observations_csv_lines(report: dict):
    """Numeric per-claim summary of an observations_sweep dict, one line
    per claim; -1 encodes 'no valid n in range'."""
    yield "claim_id,minimal_valid_n,primes_checked,claim_failures,chain_failures"
    for c in report["claims"]:
        minimal = -1 if c["minimal_valid_n"] is None else c["minimal_valid_n"]
        yield (
            f"{c['id']},{minimal},{c['primes_checked']},"
            f"{len(c['claim_failures'])},{len(c['chain_failures'])}"
        )


def lower_bound_report(n: int, sieve: Optional[PrimeSieve] = None) -> dict:
    """Analytic lower bound vs the actual sieve count of primes in (3n, 4n)."""
    from .bounds import T3_N_MIN, _decide, count_lower_bound, ln_of_int, ln_t3_lower

    if n < T3_N_MIN:
        raise DomainError(f"lower bound report requires n >= {T3_N_MIN}")
    if sieve is None:
        sieve = build_sieve(4 * n)
    actual = sieve.pi(4 * n - 1) - sieve.pi(3 * n)
    bound = count_lower_bound(n)
    # actual >= ln T3 / ln 4n, decided as ln T3 < actual * ln 4n
    satisfied = _decide(
        lambda p: ln_t3_lower(n, p).less_than(ln_of_int(4 * n, p).scaled(actual))
    )
    return {"n": n, "bound": bound, "actual": actual, "satisfied": satisfied}


DEFAULT_ANALYTIC_SAMPLES = tuple(DEFAULT_DIRECT_NMAX << k for k in range(15))


def analytic_report(samples=None) -> dict:
    """ln of the T3 lower bound at each sample: positivity and first
    differences over a geometric ladder standing in for the n -> infinity
    trend."""
    from .bounds import DEFAULT_PREC, _decide, _zero, ln_t3_lower

    samples = DEFAULT_ANALYTIC_SAMPLES if samples is None else tuple(samples)
    if not samples:
        raise DomainError("analytic report requires at least one sample")
    if any(s <= DEFAULT_DIRECT_NMAX - 1 for s in samples):
        raise DomainError(f"analytic samples must exceed {DEFAULT_DIRECT_NMAX - 1}")
    if any(b <= a for a, b in zip(samples, samples[1:])):
        raise DomainError("analytic samples must be strictly ascending")

    # each sample is decided right after its evaluation, while the cache
    # still holds it and the previous sample.  A value past the largest
    # float (samples above about 3.5e309) is refused: JSON has no Infinity
    floats, positive, increasing = [], [], []
    for i, s in enumerate(samples):
        floats.append(float(ln_t3_lower(s, DEFAULT_PREC).ln_value))
        if not math.isfinite(floats[-1]):
            raise DomainError(f"analytic sample {s}: ln_t3_lower overflows a float")
        positive.append(_decide(lambda p: _zero(p).less_than(ln_t3_lower(s, p))))
        if i:
            a = samples[i - 1]
            increasing.append(_decide(lambda p: ln_t3_lower(a, p).less_than(ln_t3_lower(s, p))))
    diffs = [b - a for a, b in zip(floats, floats[1:])]
    return {
        "samples": list(samples),
        "ln_t3_lower": floats,
        "all_positive": all(positive),
        "first_differences": diffs,
        "strictly_increasing": all(increasing),
    }


def absorber_below_bound(which: str, n: int, value: int) -> bool:
    """The named absorber's exact value at n (absorber(which, n, sieve))
    strictly below its closed-form upper bound."""
    from .bounds import _ABSORBER_UPPER, _decide, ln_of_int

    upper = _ABSORBER_UPPER[which]
    return _decide(lambda p: ln_of_int(value, p).less_than(upper(n, p)))


def _factors_ln(entries) -> float:
    return sum(e * math.log(p) for p, e in entries)


def _outcome(decide) -> str:
    """The verdict of decide(), "pass" or "fail", or "not applicable" when
    the check's own domain refuses this n ("pole: " prefixed at a pole)."""
    try:
        return "pass" if decide() else "fail"
    except DomainError as exc:
        return "pole: not applicable" if "pole" in str(exc) else "not applicable"


def decompose_report(n: int) -> dict:
    """Factored T1/T2/T3 with ln values and pass/fail for every inequality
    applicable at this n.  Exact cross-checks (big-integer identity and
    bound comparisons) run for n <= EXACT_CHECK_CUTOFF; above that only
    the factored forms and ln values are reported.

    Each value is built once per call.  The one sieve, to 4n, serves every
    prime the report needs.  decompose factors T1, T2 and T3 on it; each
    is multiplied once, and the values go to the binomial identity,
    check_t1_bound, check_t2_divisibility_bound and the T3 check.
    C(4n, 3n) is one math.comb, for the identity and the binomial bound
    check.  Each absorber is built on the sieve by the first check that
    needs it and handed to the others.  The closed forms and the T3 bound
    are evaluated once per precision (the caches in bounds), for the
    checks and for bound_report alike.
    """
    from .bounds import (
        T3_N_MIN,
        _decide,
        build_bound_report,
        ln_binom_lower,
        ln_of_int,
        ln_t3_lower,
    )
    from .exact import absorber, check_t1_bound, check_t2_divisibility_bound, decompose

    if n < 1:
        raise DomainError("decompose requires n >= 1")
    sieve = build_sieve(4 * n)
    dec = decompose(n, sieve)
    absorbers = {}

    def absorber_at(which):
        if which not in absorbers:
            absorbers[which] = absorber(which, n, sieve)
        return absorbers[which]

    # binomial and t1..t3 are bound below the table, and only at n <=
    # EXACT_CHECK_CUTOFF, where the deciders run
    deciders = {
        "binomial_identity": lambda: t1 * t2 * t3 == binomial,
        "binomial_above_lower_bound": lambda: _decide(
            lambda p: ln_binom_lower(n, p).less_than(ln_of_int(binomial, p))
        ),
        "t1_cap": lambda: check_t1_bound(n, sieve, t1),
        "t2_divisibility": lambda: check_t2_divisibility_bound(
            n, sieve, t2, [absorber_at(which) for which in "ABCD"]
        ),
        **{
            f"absorber_{which}_below_bound": lambda which=which: absorber_below_bound(
                which, n, absorber_at(which)
            )
            for which in "ABCD"
        },
        "t3_above_lower_bound": lambda: _decide(
            lambda p: ln_t3_lower(n, p).less_than(ln_of_int(t3, p))
        ),
    }
    if n > EXACT_CHECK_CUTOFF:
        checks = dict.fromkeys(deciders, "skipped above exact-check cutoff")
    else:
        binomial = math.comb(4 * n, 3 * n)
        t1, t2, t3 = dec.t1.value(), dec.t2.value(), dec.t3.value()
        checks = {key: _outcome(decide) for key, decide in deciders.items()}

    return {
        "n": n,
        "t1_factors": [[p, e] for p, e in dec.t1.entries],
        "t2_factors": [[p, e] for p, e in dec.t2.entries],
        "t3_factors": [[p, e] for p, e in dec.t3.entries],
        "ln_t1": _factors_ln(dec.t1.entries),
        "ln_t2": _factors_ln(dec.t2.entries),
        "ln_t3": _factors_ln(dec.t3.entries),
        "checks": checks,
        "bound_report": build_bound_report(n).to_json_dict() if n >= T3_N_MIN else None,
    }

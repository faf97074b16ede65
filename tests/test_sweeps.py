import concurrent.futures
import json
import random
import sys
import tracemalloc
from array import array
from bisect import bisect_left
from itertools import zip_longest

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prime34 import (
    CapacityError,
    ConsistencyError,
    DEFAULT_ANALYTIC_SAMPLES,
    DEFAULT_DIRECT_NMAX,
    DomainError,
    M_CORRECTION_NOTE,
    PrimeSieve,
    analytic_report,
    build_sieve,
    claim_table,
    decompose_report,
    lower_bound_report,
    observations_csv_lines,
    observations_sweep,
    sweep_csv_lines,
    sweep_to_json_dict,
    verify_corollary,
    verify_direct,
)
from prime34 import bounds, claims, cli, exact, sweeps
from prime34 import sieve as sieve_module


def test_direct_sweep_small():
    report = verify_direct(10, witnesses=True)
    assert report.failures == ()
    assert report.witness == {
        1: 3, 2: 7, 3: 11, 4: 13, 5: 17, 6: 19, 7: 23, 8: 29, 9: 29, 10: 31,
    }
    assert report.runtime_ms >= 0
    bare = verify_direct(10)
    assert bare.witness is None and bare.failures == ()
    with pytest.raises(DomainError):
        verify_direct(0)


def test_corollary_sweep_small():
    report = verify_corollary(10, witnesses=True)
    assert report.failures == ()
    assert report.witness == {3: 5, 4: 5, 5: 7, 6: 7, 7: 11, 8: 11, 9: 11, 10: 11}
    # witnesses sit strictly inside (n, 4(n+2)/3)
    for n, p in report.witness.items():
        assert n < p and 3 * p < 4 * (n + 2)
    with pytest.raises(DomainError):
        verify_corollary(2)


def test_sweep_json_roundtrip():
    report = verify_direct(25, witnesses=True)
    d = json.loads(json.dumps(sweep_to_json_dict(report)))
    assert d == {
        "n_min": 1,
        "n_max": 25,
        "failures": [],
        "witness": {str(n): p for n, p in report.witness.items()},
        "runtime_ms": report.runtime_ms,
    }
    assert list(d["witness"]) == [str(n) for n in range(1, 26)]
    bare = verify_direct(25)
    d = json.loads(json.dumps(sweep_to_json_dict(bare)))
    assert (d["failures"], d["witness"]) == ([], None)


def test_sweep_csv_roundtrip():
    report = verify_direct(40, witnesses=True)
    lines = list(sweep_csv_lines(report))
    assert lines[0] == "n,witness"
    assert lines[1] == "1,3"
    assert len(lines) == 41
    assert lines[1:] == [f"{n},{p}" for n, p in report.witness.items()]

    bare = verify_direct(40)
    lines = list(sweep_csv_lines(bare))
    assert lines[0] == "n,ok"
    assert lines[1:] == [f"{n},1" for n in range(1, 41)]

    # CSV excludes runtime, so reruns are byte-identical
    again = list(sweep_csv_lines(verify_direct(40)))
    assert again == lines


def test_observations_report():
    report = observations_sweep(1, 120)
    assert (report["n_min"], report["n_max"]) == (1, 120)
    assert report["tiling_ok"] is True
    assert report["contract_violations"] == 0
    assert len(report["claims"]) == 22
    assert [c["id"] for c in report["claims"]] == list(range(1, 23))
    minima = {c["id"]: c["minimal_valid_n"] for c in report["claims"]}
    # range-relative: within [1, 120] window 2 last fails at 113
    assert minima[1] == 1 and minima[2] == 114 and minima[5] == 95
    # a claim whose last failure is at n_max - 1 settles at n_max itself
    assert observations_sweep(100, 114)["claims"][1]["minimal_valid_n"] == 114
    assert all(c["chain_failures"] == [] for c in report["claims"])
    assert report["claims"][21]["primes_checked"] > 0

    csv = list(observations_csv_lines(report))
    assert csv[0] == "claim_id,minimal_valid_n,primes_checked,claim_failures,chain_failures"
    assert len(csv) == 23
    for line, c in zip(csv[1:], report["claims"]):
        minimal = -1 if c["minimal_valid_n"] is None else c["minimal_valid_n"]
        assert line == (
            f"{c['id']},{minimal},{c['primes_checked']},"
            f"{len(c['claim_failures'])},{len(c['chain_failures'])}"
        )

    assert json.loads(json.dumps(report)) == report
    assert report["claims"][0]["lo"] == "sqrt(4n)"

    with pytest.raises(DomainError):
        observations_sweep(0, 10)
    with pytest.raises(DomainError):
        observations_sweep(5, 4)


def test_chains_are_decided_once_per_sweep(monkeypatch):
    # a chain's verdict does not depend on n, so the sweep asks once per
    # chained claim, and a failing chain fails at every n of the range
    calls = []

    def claim_22_fails(claim, n):
        calls.append((claim.id, n))
        return claim.id != 22

    monkeypatch.setattr(claims, "check_chain", claim_22_fails)
    # [249, 251] straddles CONTRACT_N = 250, below which a failure is
    # reported but is no contract violation
    for n_min, n_max, violations in ((300, 320, 21), (249, 251, 2)):
        calls.clear()
        report = observations_sweep(n_min, n_max)
        assert calls == [(claim.id, n_min) for claim in claim_table() if claim.chain]
        for c in report["claims"]:
            assert c["chain_failures"] == (
                list(range(n_min, n_max + 1)) if c["id"] == 22 else []
            )
            assert c["claim_failures"] == []
        assert report["claims"][21]["minimal_valid_n"] is None
        assert report["contract_violations"] == violations


def test_parallel_runs_match_serial_byte_for_byte():
    serial = list(sweep_csv_lines(verify_direct(9000, witnesses=True)))
    parallel = list(sweep_csv_lines(verify_direct(9000, witnesses=True, threads=2)))
    assert serial == parallel

    serial = list(observations_csv_lines(observations_sweep(1, 260)))
    parallel = list(observations_csv_lines(observations_sweep(1, 260, threads=2)))
    assert serial == parallel


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and the
    initializer arguments it was given and runs the chunks in this process."""

    opened = []
    initargs = []

    def __init__(self, max_workers, initializer, initargs):
        self.opened.append(max_workers)
        self.initargs.append(initargs)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_worker_count_is_clamped(monkeypatch):
    opened, initargs = [], []
    monkeypatch.setattr(_RecordingPool, "opened", opened)
    monkeypatch.setattr(_RecordingPool, "initargs", initargs)
    # _run_chunked imports the pool from concurrent.futures when workers start
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(sweeps, "_WORKER_SIEVE", None)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 4)
    serial = list(sweep_csv_lines(verify_direct(20000, witnesses=True)))

    # one 8192-n chunk: no pool at all, however many threads are asked for
    verify_direct(1000, threads=8)
    assert opened == []
    # three chunks: at most three workers, and no more than the CPU count
    parallel = list(sweep_csv_lines(verify_direct(20000, witnesses=True, threads=8)))
    assert parallel == serial
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
    verify_direct(20000, threads=8)
    assert opened == [3, 2]
    # the parent's sieve is handed to the workers, not rebuilt by each
    (sieve,) = initargs[-1]
    assert isinstance(sieve, PrimeSieve) and sieve.limit == 60244
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: None)
    verify_direct(20000, threads=8)
    assert opened == [3, 2]

    # an over-budget sieve is refused before any worker starts
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 4)
    with pytest.raises(CapacityError):
        verify_direct(500_000_000, threads=2)
    assert opened == [3, 2]

    for threads in (0, -1):
        with pytest.raises(DomainError):
            verify_direct(1000, threads=threads)
        with pytest.raises(DomainError):
            observations_sweep(1, 10, threads=threads)


def _thinned_sieve(limit, density, rng, top=None):
    """A PrimeSieve over [0, limit] with each prime dropped at the given
    density, and every prime above top dropped, so scans can fail."""
    top = limit if top is None else top
    primes = build_sieve(limit).primes
    kept = (p for p in primes if p <= top and rng.random() >= density)
    return PrimeSieve(limit, tuple(kept))


def _brute_witnesses(sieve, n_min, n_max, form):
    """Per-n witnesses read off a next-prime table: the smallest prime
    p >= a*n + b, kept when c*p <= 4n + d, else 0."""
    a, b, c, d = form
    nxt = [0] * (sieve.limit + 2)
    members = set(sieve.primes)
    for k in range(sieve.limit, -1, -1):
        nxt[k] = k if k in members else nxt[k + 1]
    rows = []
    for n in range(n_min, n_max + 1):
        p = nxt[a * n + b] if a * n + b <= sieve.limit else 0
        rows.append(p if p and c * p <= 4 * n + d else 0)
    return rows


def _expand_runs(runs):
    """The per-n witnesses of (primes, lengths) runs."""
    primes, lengths = runs
    return [p for p, k in zip(primes, lengths) for _ in range(k)]


def _assert_canonical(runs, count):
    """runs cover count n, with no empty run and no two neighbours equal."""
    primes, lengths = runs
    assert len(primes) == len(lengths)
    assert min(lengths) > 0
    assert all(p != q for p, q in zip(primes, primes[1:]))
    assert sum(lengths) == count


def test_witness_forms_state_the_sweeps():
    # direct: a prime in [3n, 4n]; corollary: n < p and 3p < 4(n + 2).  Real
    # sieves never fail these, so an off-by-one in c or d would show in no
    # report
    assert sweeps._DIRECT_FORM == (3, 0, 1, 0)
    assert sweeps._COROLLARY_FORM == (1, 1, 3, 7)


# (1, 0, 3, -1000) is no sweep of the package: it rejects whole runs of n
# for p below about 1000, which neither real form ever does.  (1, 0, 5, 148)
# has a*c = 5 > 4: its first prime can be accepted with small gaps while
# later primes are rejected, since 5p outgrows 4p' + 148
_FORMS = (sweeps._DIRECT_FORM, sweeps._COROLLARY_FORM, (1, 0, 3, -1000), (1, 0, 5, 148))


@pytest.mark.parametrize("density", [0.0, 0.2, 0.6, 0.95])
def test_witness_scan_matches_brute_force_on_thinned_sieves(density):
    rng = random.Random(f"thinned:{density}")
    for _ in range(40):
        limit = rng.randint(2, 4000)
        sieve = _thinned_sieve(limit, density, rng)
        # spans reach past limit / 3 and past limit, where the primes run out
        start = rng.randint(1, limit // 2 + 2)
        stop = start + rng.randint(0, limit // 2)
        for form in _FORMS:
            *got, zero = sweeps._scan_witnesses(sieve, start, stop, form)
            _assert_canonical(got, stop - start + 1)
            assert _expand_runs(got) == _brute_witnesses(sieve, start, stop, form)
            assert zero == (0 in got[0])  # the scan reports its 0-runs


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)]),
    st.integers(0, 30),
    st.integers(1, 2000),
    st.integers(0, 300),
    st.sampled_from([0.0, 0.3, 0.7, 0.9]),
    st.integers(0, 2**32),
)
@example((1, 4), 0, 100, 40, 0.0, 0)  # largest gap 14, between 113 and 127
@example((1, 4), 5, 1000, 60, 0.7, 1)  # a thinned sieve, largest gap 36
@example((3, 1), 0, 8, 20, 0.0, 0)  # the first prime binds: 29 at n = 8
@example((2, 2), 0, 20, 20, 0.0, 0)  # the gap binds at d = 10 > 0, with a = 2
@example((3, 1), 0, 1, 20, 0.0, 0)  # 3 and 5 share the run of n = 1
def test_gap_bound_accepts_every_run_and_is_tight(ac, b, start, span, density, seed):
    # d is the least value at which the first prime is accepted at start and
    # the chunk's largest gap bounds every later run, so the scan must skip
    # the per-prime rule.  Where the first prime sets d, or at a = 1, c = 4,
    # one less rejects a run at its first n: the first prime's, or the run
    # after the largest gap
    (a, c), stop = ac, start + span
    sieve = _thinned_sieve(a * stop + b + 2000, density, random.Random(seed))
    primes = sieve.primes
    lo = bisect_left(primes, a * start + b)
    hi = bisect_left(primes, a * stop + b) + 1
    assume(hi <= len(primes))  # no tail: a prime from a*stop + b on
    ps = primes[lo:hi]
    gap = max((q - p for p, q in zip(ps, ps[1:])), default=0)
    first = c * ps[0] - 4 * start
    by_gap = -(((4 - a * c) * ps[0] - a * c * gap - 4 * b + 4) // a)
    d = max(first, by_gap)
    found, compared = {}, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweeps, "gt", lambda x, y: compared.append(y) or x > y)
        for dd in (d, d - 1):
            form = (a, b, c, dd)
            *got, zero = sweeps._scan_witnesses(sieve, start, stop, form)
            assert zero == (0 in got[0])
            _assert_canonical(got, span + 1)
            found[dd] = _expand_runs(got)
            assert found[dd] == _brute_witnesses(sieve, start, stop, form)
            if dd == d and len(set(found[d])) == len(ps):  # no run is empty
                assert compared == []  # the bound took the chunk at once
    assert 0 not in found[d]
    if first >= by_gap or (a, c) == (1, 4):
        assert 0 in found[d - 1]


def test_default_direct_sweep_decides_acceptance_per_prime_only_in_its_first_chunk(
    monkeypatch,
):
    # primes 3 and 5 share the run of n = 1, so the first 8192-n chunk has an
    # empty run and takes the per-prime rule, one comparison per prime; the
    # largest prime gap accepts every run of the other 19 chunks at once
    compared = []  # the run ends the per-prime rule compares against
    monkeypatch.setattr(sweeps, "gt", lambda x, y: compared.append(y) or x > y)
    report = verify_direct()
    primes = build_sieve(3 * 8192 + 100).primes
    first_chunk = primes[bisect_left(primes, 3) : bisect_left(primes, 3 * 8192) + 1]
    assert report.failures == ()
    assert len(compared) == len(first_chunk)
    assert min(compared) == 0 and max(compared) < 8192


@pytest.mark.parametrize("thinned", [False, True])
def test_sweep_runs_are_canonical_across_chunk_seams(thinned, monkeypatch):
    # 20,000 n are three 8192-n chunks; the thinned sieve of
    # test_sweep_csv_matches_per_n_reference makes both forms fail
    if thinned:
        monkeypatch.setattr(sweeps, "build_sieve", _failing_sieve)
    for sweep, limit, n_min, form in (
        (verify_direct, 80_000, 1, sweeps._DIRECT_FORM),
        (verify_corollary, 26_670, 3, sweeps._COROLLARY_FORM),
    ):
        sieve = sweeps.build_sieve(limit)
        expected = _brute_witnesses(sieve, n_min, 20_000, form)
        serial = sweep(20_000, witnesses=True)
        pooled = sweep(20_000, witnesses=True, threads=2)
        assert pooled.runs == serial.runs
        _assert_canonical(serial.runs, 20_000 - n_min + 1)
        assert _expand_runs(serial.runs) == expected
        assert (0 in expected) == thinned
        # a run crosses each seam, so chunks were joined there
        for seam in (n_min + 8192, n_min + 2 * 8192):
            assert expected[seam - 1 - n_min] == expected[seam - n_min]


# the n_max at which the sieve to reach + isqrt(reach) holds no prime from
# reach = a*n_max + b on, so the full limit is built: direct 8 and 38,
# corollary 7, 23, 113, 114 and 115
@settings(max_examples=40, deadline=None)
@given(st.integers(3, 20_000))
@example(7)
@example(8)
@example(23)
@example(38)
@example(113)
@example(114)
@example(115)
def test_trimmed_sweeps_equal_full_limit_sweeps(n_max):
    for sweep, limit, n_min, form in (
        (verify_direct, 4 * n_max, 1, sweeps._DIRECT_FORM),
        (verify_corollary, 4 * (n_max + 2) // 3 + 1, 3, sweeps._COROLLARY_FORM),
    ):
        *runs, zero = sweeps._scan_witnesses(build_sieve(limit), n_min, n_max, form)
        runs = tuple(runs)
        failures = tuple(n for n, w in enumerate(_expand_runs(runs), n_min) if not w)
        assert zero == bool(failures)
        report = sweep(n_max, witnesses=True)
        assert (report.runs, report.failures) == (runs, failures)
        assert sweep(n_max).failures == failures


def test_existence_sweeps_sieve_only_to_their_last_witness(monkeypatch):
    built = []

    def spy(limit):
        built.append(limit)
        return build_sieve(limit)

    monkeypatch.setattr(sweeps, "build_sieve", spy)
    # reach + isqrt(reach), for reach = 3 * 162,755 and 100,000 + 1
    verify_direct()
    assert built == [488_963]
    built.clear()
    verify_corollary(100_000)
    assert built == [100_317]
    # [24, 28] holds no prime, so the full limit 4 * 8 follows
    built.clear()
    verify_direct(8)
    assert built == [28, 32]


def test_sweep_report_derives_found_and_witness():
    runs = (array("q", [3, 0, 13, 17]), array("q", [1, 2, 1, 1]))
    report = sweeps.SweepReport(1, 5, (2, 3), runs, 1.0)
    assert list(sweeps._expand(*report.runs)) == [3, 0, 0, 13, 17]
    assert report.witness == {1: 3, 4: 13, 5: 17}
    bare = sweeps.SweepReport(1, 5, (2,), None, 1.0)
    assert bare.witness is None
    for name in ("witness", *report._fields):
        with pytest.raises(AttributeError):
            setattr(report, name, None)


def test_sweep_failures_reach_reports(monkeypatch):
    def thinned(limit):
        # the same sieve for the same limit; 60 % of the primes dropped and
        # none above 18,000, so both sweeps fail across three 8192-n chunks
        return _thinned_sieve(limit, 0.6, random.Random(limit), top=18_000)

    monkeypatch.setattr(sweeps, "build_sieve", thinned)
    for sweep, limit, n_min, form in (
        (verify_direct, 80_000, 1, (3, 0, 1, 0)),
        (verify_corollary, 26_670, 3, (1, 1, 3, 7)),
    ):
        found = _brute_witnesses(thinned(limit), n_min, 20_000, form)
        rows = list(enumerate(found, n_min))
        failures = tuple(n for n, w in rows if w == 0)
        assert len(failures) > 100 and failures[-1] == 20_000

        report = sweep(20_000, witnesses=True)
        assert report.failures == failures
        assert report.witness == {n: w for n, w in rows if w}
        assert list(sweep_csv_lines(report))[1:] == [f"{n},{w}" for n, w in rows]
        bare = list(sweep_csv_lines(sweep(20_000)))
        assert bare[1:] == [f"{n},{int(w > 0)}" for n, w in rows]
        pooled = sweep(20_000, witnesses=True, threads=2)
        assert (pooled.failures, pooled.witness) == (failures, report.witness)


def _failing_sieve(limit):
    """The thinned sieve of test_sweep_failures_reach_reports."""
    return _thinned_sieve(limit, 0.6, random.Random(limit), top=18_000)


def _assert_same_lines(lines, expected):
    """lines == expected for two lists of lines.  A mismatch fails with the
    first line that differs, where pytest's diff of 20,000 rows would take
    minutes."""
    if lines != expected:
        i = next(i for i, (a, b) in enumerate(zip_longest(lines, expected)) if a != b)
        pytest.fail(
            f"line {i + 1} differs: {lines[i:i + 1]} where {expected[i:i + 1]} "
            f"was expected ({len(lines)} lines, {len(expected)} expected)"
        )


@pytest.mark.parametrize("witnesses", [True, False])
@pytest.mark.parametrize(
    "command, limit, n_min, form, failing_chunks",
    [
        ("verify-direct", 80_000, 1, (3, 0, 1, 0), {0, 1, 2}),
        # every corollary window below 13,500 keeps a prime under 18,000
        ("verify-corollary", 26_670, 3, (1, 1, 3, 7), {0, 2}),
    ],
)
def test_sweep_csv_matches_per_n_reference(
    command, limit, n_min, form, failing_chunks, witnesses, monkeypatch, capsys
):
    monkeypatch.setattr(sweeps, "build_sieve", _failing_sieve)
    found = _brute_witnesses(_failing_sieve(limit), n_min, 20_000, form)
    rows = list(enumerate(found, n_min))
    failures = tuple(n for n, w in rows if w == 0)
    # the 8192-n chunks (first, middle, last) that hold failures
    assert {(n - n_min) // 8192 for n in failures} == failing_chunks

    flag = ["--witnesses"] if witnesses else []
    assert cli.main([command, "--nmax", "20000", "--format", "csv", *flag]) == 1
    text = capsys.readouterr().out
    if witnesses:
        expected = "n,witness\n" + "".join(f"{n},{w}\n" for n, w in rows)
    else:
        expected = "n,ok\n" + "".join(f"{n},{0 if w == 0 else 1}\n" for n, w in rows)
    # with their line ends, the lines are equal exactly when the texts are
    _assert_same_lines(text.splitlines(True), expected.splitlines(True))

    sweep = verify_direct if command == "verify-direct" else verify_corollary
    report = sweep(20_000, witnesses=witnesses)
    assert report.failures == failures
    if witnesses:
        assert report.witness == {n: w for n, w in rows if w}
        assert not report.witness.keys() & set(failures)
    else:
        assert report.witness is None
    _assert_same_lines(list(sweep_csv_lines(report)), text.splitlines())
    d = sweep_to_json_dict(report)
    assert d["failures"] == list(failures)
    if witnesses:
        assert d["witness"] == {str(n): w for n, w in rows if w}


def _per_row_csv(report):
    """sweep_csv_text's bytes, written with one f-string per row."""
    ns = range(report.n_min, report.n_max + 1)
    if report.runs is None:
        failed = set(report.failures)
        return "n,ok\n" + "".join(f"{n},{int(n not in failed)}\n" for n in ns)
    found = sweeps._expand(*report.runs)
    return "n,witness\n" + "".join(f"{n},{w}\n" for n, w in zip(ns, found))


def _runs_report(n_min, runs):
    """A SweepReport from n_min over (witness, length) runs, 0 for failures."""
    primes, lengths = sweeps._canonical(*zip(*runs))
    n_max = n_min + sum(lengths) - 1
    failures = sweeps._failures(n_min, (primes, lengths))
    return sweeps.SweepReport(n_min, n_max, failures, (primes, lengths), 1.0)


# witnesses of one to nine digits and failures, over runs short enough to
# change the row size every few rows and long enough to cross powers of ten
_witnesses = st.one_of(
    st.just(0), st.integers(2, 9), st.integers(10, 999), st.integers(1000, 10**8)
)
_run_lists = st.lists(
    st.tuples(_witnesses, st.one_of(st.integers(1, 3), st.integers(300, 2000))),
    min_size=1,
    max_size=20,
)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.sampled_from([1, 3, 9, 10, 99, 100, 9999]), st.integers(1, 10**7)),
    _run_lists,
)
@example(1, [(7, 1)])  # one row
@example(99, [(0, 1)])
@example(9_990, [(3, 5), (0, 30), (101, 4000)])  # a 0-run across 10^4
@example(9, [(0, 2), (11, 1), (0, 3), (5, 2)])  # adjacent failures
@example(90, [(13, 9), (101, 1), (0, 1), (103, 1)])
@example(1, [(0, 2), (101, 9000), (0, 3000), (1009, 40_000)])  # long runs, 10^k
def test_sweep_csv_text_matches_per_row_reference(n_min, runs):
    report = _runs_report(n_min, runs)
    bare = sweeps.SweepReport(report.n_min, report.n_max, report.failures, None, 1.0)
    for r in (report, bare):
        # as lists, so that a failure names its first wrong row quickly
        got = sweeps.sweep_csv_text(r).splitlines(True)
        assert got == _per_row_csv(r).splitlines(True)


def test_sweep_csv_text_peak_memory_is_near_its_length():
    # a boxed int for every n, held at once, would put the peak above 6x
    report = verify_direct(DEFAULT_DIRECT_NMAX, witnesses=True)
    tracemalloc.start()
    try:
        text = sweeps.sweep_csv_text(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2_000_000
    assert peak < 5 * len(text)


def test_sweep_csv_text_builds_no_digit_period_longer_than_its_rows():
    # eight rows across 10^6: a whole period of the 10^6 digit place would
    # take 10^7 bytes
    report = _runs_report(10**6 - 4, [(3_000_017, 8)])
    tracemalloc.start()
    try:
        text = sweeps.sweep_csv_text(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.splitlines(True) == _per_row_csv(report).splitlines(True)
    assert peak < 100_000


def test_lower_bound_report():
    report = lower_bound_report(222)
    assert report["actual"] == 33
    assert abs(report["bound"] - -16.72979322497214) < 1e-9
    assert report["satisfied"]
    with pytest.raises(DomainError):
        lower_bound_report(221)


def test_analytic_report():
    ladder = (162755, 325510, 651020)
    report = analytic_report(ladder)
    assert report["samples"] == list(ladder)
    assert len(report["ln_t3_lower"]) == 3
    assert report["all_positive"]
    assert report["strictly_increasing"]
    assert len(report["first_differences"]) == 2
    assert all(d > 0 for d in report["first_differences"])
    with pytest.raises(DomainError):
        analytic_report([100])
    with pytest.raises(DomainError):
        analytic_report([162755, 162755])


@pytest.fixture
def t3_evaluations(monkeypatch):
    """The precision of every _t3_terms evaluation, counted from empty caches."""

    def clear_caches():
        for form in vars(bounds).values():
            if hasattr(form, "cache_clear"):
                form.cache_clear()

    clear_caches()
    precs = []
    terms = bounds._t3_terms

    def counted(n, prefactor, n_power, prec):
        precs.append(prec)
        return terms(n, prefactor, n_power, prec)

    monkeypatch.setattr(bounds, "_t3_terms", counted)
    yield precs
    clear_caches()


_EIGHT_STEP_LADDER = [200_000 << k for k in range(8)]


def test_decompose_report_evaluates_each_bound_once(t3_evaluations):
    report = decompose_report(2600)
    assert all(v == "pass" for v in report["checks"].values())
    # the T3 check, the bound report and the count share one ln_t3_lower;
    # the chain validation adds the intermediate form
    assert t3_evaluations == [128, 128]
    for form in (
        bounds.ln_binom_lower,
        bounds.ln_a_upper,
        bounds.ln_b_upper,
        bounds.ln_c_upper,
        bounds.ln_d_upper,
        bounds.ln_t3_lower,
    ):
        assert form.cache_info().misses == 1, form.__name__


def test_analytic_report_evaluates_each_sample_once(t3_evaluations):
    report = analytic_report(_EIGHT_STEP_LADDER)
    assert report["all_positive"] and report["strictly_increasing"]
    assert t3_evaluations == [128] * 8


def test_analytic_report_outgrowing_the_cache_evaluates_each_sample_once(t3_evaluations):
    # more samples than the 64 entries of ln_t3_lower's cache
    report = analytic_report([200_000 + 1000 * k for k in range(70)])
    assert report["all_positive"] and report["strictly_increasing"]
    assert t3_evaluations == [128] * 70


def test_escalated_decisions_evaluate_afresh(t3_evaluations, monkeypatch):
    """With every 128-bit comparison undecided, the verdicts are unchanged
    and come from 256-bit evaluations, not from the cached first attempt."""
    expected_ladder = analytic_report(_EIGHT_STEP_LADDER)
    expected_decompose = decompose_report(2600)
    less_than = bounds.LogReal.less_than

    def undecided_at_default(self, other):
        if min(self.prec, other.prec) == bounds.DEFAULT_PREC:
            return None
        return less_than(self, other)

    monkeypatch.setattr(bounds.LogReal, "less_than", undecided_at_default)
    t3_evaluations.clear()
    assert analytic_report(_EIGHT_STEP_LADDER) == expected_ladder
    assert t3_evaluations == [256] * 8
    t3_evaluations.clear()
    assert decompose_report(2600) == expected_decompose
    # the T3 check escalates; the uncached intermediate form is evaluated
    # again, and at 256 bits when validate's final-vs-intermediate escalates
    assert t3_evaluations == [256, 128, 256]


def test_default_analytic_ladder_shape():
    assert len(DEFAULT_ANALYTIC_SAMPLES) == 15
    assert DEFAULT_ANALYTIC_SAMPLES[0] == DEFAULT_DIRECT_NMAX == 162755
    assert all(
        b == 2 * a
        for a, b in zip(DEFAULT_ANALYTIC_SAMPLES, DEFAULT_ANALYTIC_SAMPLES[1:])
    )


def test_decompose_report_smallest():
    report = decompose_report(1)
    assert report["t1_factors"] == [[2, 2]]
    assert report["t2_factors"] == []
    assert report["t3_factors"] == []
    assert report["checks"] == {
        "binomial_identity": "pass",
        "binomial_above_lower_bound": "pass",
        "t1_cap": "not applicable",
        "t2_divisibility": "not applicable",
        "absorber_A_below_bound": "pass",
        "absorber_B_below_bound": "pass",
        "absorber_C_below_bound": "not applicable",
        "absorber_D_below_bound": "not applicable",
        "t3_above_lower_bound": "not applicable",
    }
    assert report["bound_report"] is None
    with pytest.raises(DomainError):
        decompose_report(0)


def test_decompose_report_propagates_errors_other_than_domain(monkeypatch):
    # only a DomainError reads as "not applicable"; a failed internal check
    # must reach the caller
    def broken(n, sieve, t1=None):
        raise ConsistencyError("T1 routes disagree")

    monkeypatch.setattr(exact, "check_t1_bound", broken)
    with pytest.raises(ConsistencyError, match="T1 routes disagree"):
        decompose_report(20)


def test_decompose_report_examples():
    report = decompose_report(2)
    assert report["t1_factors"] == [[2, 2]]
    assert report["t2_factors"] == []
    assert report["t3_factors"] == [[7, 1]]

    # n=221 sits exactly on the C-bound pole
    report = decompose_report(221)
    assert report["checks"]["absorber_C_below_bound"] == "pole: not applicable"
    assert report["checks"]["t2_divisibility"] == "pass"
    assert report["checks"]["t3_above_lower_bound"] == "not applicable"

    report = decompose_report(300)
    assert all(v == "pass" for v in report["checks"].values())
    assert report["bound_report"]["n"] == 300
    assert report["bound_report"]["m_constant_note"] == M_CORRECTION_NOTE
    assert report["ln_t1"] <= report["bound_report"]["ln_T1_upper"]


def test_decompose_report_builds_each_quantity_once(sieve_mid, monkeypatch):
    """One sieve per report, none for the T2 scan on the caller's sieve, and
    T1, T2, T3 and each absorber built once per report."""
    real_build = sieve_module.build_sieve
    builds = []

    def spy_build(limit, *args, **kwargs):
        builds.append(limit)
        return real_build(limit, *args, **kwargs)

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("prime34") and getattr(module, "build_sieve", None) is real_build:
            monkeypatch.setattr(module, "build_sieve", spy_build)
            patched.add(name)
    assert {"prime34.sieve", "prime34.exact", "prime34.sweeps"} <= patched

    real_factored, factored = exact._factored, []

    def spy_factored(n, primes):
        factored.append(tuple(primes))
        return real_factored(n, primes)

    real_gen_binomial, indices = exact.gen_binomial, []

    def spy_gen_binomial(idx, sieve=None):
        indices.append(idx)
        return real_gen_binomial(idx, sieve)

    monkeypatch.setattr(exact, "_factored", spy_factored)
    monkeypatch.setattr(exact, "gen_binomial", spy_gen_binomial)
    for n in (300, 2345, 5000):
        builds.clear()
        factored.clear()
        indices.clear()
        report = decompose_report(n)
        assert all(v == "pass" for v in report["checks"].values()), n
        assert builds == [4 * n]
        t1, t2, t3 = exact._size_classes(n, real_build(4 * n))
        assert sorted(factored) == sorted([t1, t2, t3]), n
        assert sorted(indices, key=repr) == sorted(
            (exact.absorber_index(which, n) for which in "ABCD"), key=repr
        )

    builds.clear()
    assert exact.t2_bound_minimal_n(400, sieve_mid) == 5
    assert builds == []


def test_failures_are_searched_only_where_a_chunk_made_a_0_run(monkeypatch):
    # the scan reports each chunk's 0-runs, so a sweep whose chunks made
    # none never searches its runs for one
    searched = []
    failures_of = sweeps._failures

    def recorded(n_min, runs):
        searched.append(n_min)
        return failures_of(n_min, runs)

    monkeypatch.setattr(sweeps, "_failures", recorded)
    assert verify_direct(20_000).failures == verify_corollary(20_000).failures == ()
    assert searched == []
    monkeypatch.setattr(sweeps, "build_sieve", _failing_sieve)
    assert verify_direct(20_000).failures and verify_corollary(20_000).failures
    assert searched == [1, 3]

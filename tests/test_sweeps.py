import json

import pytest

from prime34 import (
    CapacityError,
    DEFAULT_ANALYTIC_SAMPLES,
    DEFAULT_DIRECT_NMAX,
    DomainError,
    M_CORRECTION_NOTE,
    analytic_report,
    decompose_report,
    lower_bound_report,
    observations_csv_lines,
    observations_sweep,
    observations_to_json_dict,
    sweep_csv_lines,
    sweep_from_csv_lines,
    sweep_from_json_dict,
    sweep_to_json_dict,
    verify_corollary,
    verify_direct,
)
from prime34 import sweeps


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
    back = sweep_from_json_dict(d)
    assert back == report
    bare = verify_direct(25)
    assert sweep_from_json_dict(json.loads(json.dumps(sweep_to_json_dict(bare)))) == bare


def test_sweep_csv_roundtrip():
    report = verify_direct(40, witnesses=True)
    lines = list(sweep_csv_lines(report))
    assert lines[0] == "n,witness"
    assert lines[1] == "1,3"
    assert len(lines) == 41
    back = sweep_from_csv_lines(lines)
    assert (back.n_min, back.n_max) == (1, 40)
    assert back.witness == report.witness
    assert back.failures == report.failures

    bare = verify_direct(40)
    lines = list(sweep_csv_lines(bare))
    assert lines[0] == "n,ok"
    assert set(lines[1:]) == {f"{n},1" for n in range(1, 41)}
    back = sweep_from_csv_lines(lines)
    assert back.failures == () and back.witness is None

    # CSV excludes runtime, so reruns are byte-identical
    again = list(sweep_csv_lines(verify_direct(40)))
    assert again == lines


def test_sweep_csv_validation():
    with pytest.raises(DomainError):
        sweep_from_csv_lines(["n,bogus", "1,1"])
    with pytest.raises(DomainError):
        sweep_from_csv_lines(["n,ok"])


def test_observations_report():
    report = observations_sweep(1, 120)
    assert (report.n_min, report.n_max) == (1, 120)
    assert report.tiling_ok
    assert report.contract_violations == 0
    assert len(report.entries) == 22
    assert [e.claim_id for e in report.entries] == list(range(1, 23))
    minima = {e.claim_id: e.minimal_valid_n for e in report.entries}
    # range-relative: within [1, 120] window 2 last fails at 113
    assert minima[1] == 1 and minima[2] == 114 and minima[5] == 95
    assert all(e.chain_failures == () for e in report.entries)
    assert report.entries[21].primes_checked > 0

    csv = list(observations_csv_lines(report))
    assert csv[0] == "claim_id,minimal_valid_n,primes_checked,claim_failures,chain_failures"
    assert len(csv) == 23
    for line, e in zip(csv[1:], report.entries):
        minimal = -1 if e.minimal_valid_n is None else e.minimal_valid_n
        assert line == (
            f"{e.claim_id},{minimal},{e.primes_checked},"
            f"{len(e.claim_failures)},{len(e.chain_failures)}"
        )

    d = json.loads(json.dumps(observations_to_json_dict(report)))
    assert d["tiling_ok"] is True
    assert d["contract_violations"] == 0
    assert len(d["claims"]) == 22
    assert d["claims"][0]["lo"] == "sqrt(4n)"
    assert d["claims"][1]["minimal_valid_n"] == 114

    with pytest.raises(DomainError):
        observations_sweep(0, 10)
    with pytest.raises(DomainError):
        observations_sweep(5, 4)


def test_parallel_runs_match_serial_byte_for_byte():
    serial = list(sweep_csv_lines(verify_direct(9000, witnesses=True)))
    parallel = list(sweep_csv_lines(verify_direct(9000, witnesses=True, threads=2)))
    assert serial == parallel

    serial = list(observations_csv_lines(observations_sweep(1, 260)))
    parallel = list(observations_csv_lines(observations_sweep(1, 260, threads=2)))
    assert serial == parallel


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count it was
    asked for and runs the chunks in this process."""

    opened = []

    def __init__(self, max_workers, initializer, initargs):
        self.opened.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_worker_count_is_clamped(monkeypatch):
    opened = []
    monkeypatch.setattr(_RecordingPool, "opened", opened)
    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", _RecordingPool)
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

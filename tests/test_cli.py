import errno
import importlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prime34 import (
    CapacityError,
    ConsistencyError,
    PrecisionError,
    SweepReport,
    cli,
    sweeps,
)
from prime34.cli import main
from prime34.sieve import MEMORY_CAP, _check_capacity, _peak_bytes


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_direct_json(capsys):
    code, out, err = run(capsys, ["verify-direct", "--nmax", "50"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["n_max"] == 50
    assert report["failures"] == []
    assert report["witness"] is None
    assert report["runtime_ms"] >= 0


# one command line per JSON subcommand, covering every shape the writer
# hands to the C encoder: witness maps, [p, e] lists and sample ladders
JSON_COMMANDS = [
    "verify-direct --nmax 2000 --witnesses",
    "verify-corollary --nmax 500 --witnesses",
    "decompose --n 2600",
    "decompose --n 5001",
    "lower-bound --n 222",
    "verify-analytic",
    "observations --nmin 1 --nmax 30",
]


@pytest.mark.parametrize("command", JSON_COMMANDS)
def test_json_report_is_json_dumps_indented_and_key_sorted(capsys, command):
    code, out, err = run(capsys, command.split())
    assert code == 0 and err == ""
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


_keys = st.text(max_size=4)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(max_size=4),
    st.text(st.characters(max_codepoint=0x1F) | st.characters(min_codepoint=0x80), max_size=4),
)
# lists of int lists take the writer's [p, e] path unless an inner list is
# empty or holds a bool
_int_lists = st.lists(st.lists(st.integers() | st.booleans(), max_size=3), max_size=4)
_json_values = st.recursive(
    _json_scalars | _int_lists | _int_lists.map(tuple) | st.dictionaries(_keys, st.integers()),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_keys, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(_json_values)
@example([[2, 5], [3, 1]])
@example([[2, 5], []])
@example([[2, True]])
def test_json_text_is_json_dumps_with_indent_2(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_verify_direct_csv_witnesses(capsys):
    code, out, _ = run(
        capsys, ["verify-direct", "--nmax", "50", "--witnesses", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,witness"
    assert lines[1] == "1,3"
    assert len(lines) == 51


def test_out_file(tmp_path, capsys):
    target = tmp_path / "direct.csv"
    code, out, _ = run(
        capsys,
        ["verify-direct", "--nmax", "10", "--format", "csv", "--out", str(target)],
    )
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[0] == "n,ok"


def test_out_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    for target in (tmp_path / "missing" / "report.json", tmp_path):
        code, out, err = run(capsys, ["lower-bound", "--n", "222", "--out", str(target)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err


def test_unwritable_out_exits_2_before_the_report_is_computed(
    tmp_path, capsys, monkeypatch
):
    def computed(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "verify_direct", computed)
    for target in (tmp_path / "missing" / "report.json", tmp_path):
        code, out, err = run(capsys, ["verify-direct", "--witnesses", "--out", str(target)])
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write the report: ")
        assert err.count("\n") == 1 and str(target) in err
    assert not (tmp_path / "missing").exists()
    # a writable path passes the check and is not created by it
    target = tmp_path / "report.json"
    with pytest.raises(AssertionError, match="the sweep ran"):
        main(["verify-direct", "--out", str(target)])
    assert not target.exists()


def test_out_write_failure_after_the_check_exits_2(tmp_path, capsys, monkeypatch):
    def refused(fd, data):  # as os.write raises: no filename
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", refused)
    target = tmp_path / "report.json"
    code, out, err = run(capsys, ["lower-bound", "--n", "222", "--out", str(target)])
    assert code == 2 and out == ""
    reason = f"[Errno 28] No space left on device: '{target}'"
    assert err == f"error: cannot write the report: {reason}\n"


def test_out_write_failure_leaves_a_prefix_of_the_new_report(tmp_path, capsys, monkeypatch):
    # the report is written over the old file in place: a write that fails
    # part way must not leave the old file's tail behind the new bytes
    argv = ["verify-direct", "--nmax", "2000", "--witnesses", "--format", "csv"]
    report = run(capsys, argv)[1].encode()
    target = tmp_path / "direct.csv"
    target.write_bytes(b"o" * 2 * len(report))
    real_write = os.write
    calls = []

    def one_chunk_then_refused(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data[:4096])

    monkeypatch.setattr(os, "write", one_chunk_then_refused)
    code, out, err = run(capsys, [*argv, "--out", str(target)])
    assert code == 2 and out == "" and len(calls) == 2
    reason = f"[Errno 28] No space left on device: '{target}'"
    assert err == f"error: cannot write the report: {reason}\n"
    assert len(report) > 4096 and target.read_bytes() == report[:4096]


def test_out_to_a_character_device_exits_0(capsys):
    # ftruncate refuses /dev/null with EINVAL, so only a regular file is cut
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    code, out, err = run(capsys, ["lower-bound", "--n", "222", "--out", os.devnull])
    assert code == 0 and out == "" and err == ""


def test_no_out_write_opens_its_file_with_o_trunc(tmp_path, capsys, monkeypatch):
    # truncating on open makes the next command on ext4 wait for the flush
    # of the file it replaced; the report is cut to length after writing
    real_open = os.open
    opened = []

    def recorded(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recorded)
    target = tmp_path / "report"
    for command in JSON_COMMANDS:
        opened.clear()
        code, out, err = run(capsys, [*command.split(), "--out", str(target)])
        assert code == 0 and out == "" and err == ""
        target_flags = [flags for path, flags in opened if path == str(target)]
        assert target_flags, f"{command}: the report was not written through os.open"
        assert not any(flags & os.O_TRUNC for flags in target_flags), command


def test_out_path_without_write_access_exits_2(tmp_path, capsys, monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("the report was computed")

    monkeypatch.setattr(cli, "lower_bound_report", computed)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    target = tmp_path / "report.json"
    code, out, err = run(capsys, ["lower-bound", "--n", "222", "--out", str(target)])
    assert code == 2 and out == ""
    reason = f"[Errno 13] Permission denied: '{target}'"
    assert err == f"error: cannot write the report: {reason}\n"
    assert not target.exists()


def test_verify_corollary(capsys):
    code, out, _ = run(
        capsys, ["verify-corollary", "--nmax", "100", "--witnesses", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[1] == "3,5"


def test_lower_bound_cli(capsys):
    code, out, _ = run(capsys, ["lower-bound", "--n", "222"])
    assert code == 0
    report = json.loads(out)
    assert report["satisfied"] is True and report["actual"] == 33

    code, _, err = run(capsys, ["lower-bound", "--n", "100"])
    assert code == 2
    assert "error:" in err


def test_verify_analytic_cli(capsys):
    code, out, _ = run(capsys, ["verify-analytic", "--samples", "162755,325510"])
    assert code == 0
    report = json.loads(out)
    assert report["all_positive"] and report["strictly_increasing"]

    code, _, err = run(capsys, ["verify-analytic", "--samples", "100"])
    assert code == 2 and "error:" in err


def test_verify_analytic_cli_refuses_a_sample_past_the_largest_float(capsys):
    # ln_t3_lower grows like n ln M, ln M = 0.0515..., so its float overflows
    # above about 3.5e309; the report would print Infinity, which is not JSON
    for sample in (4 * 10**309, 10**400):
        argv = ["verify-analytic", "--samples", f"162755,{sample}"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: analytic sample {sample}: ln_t3_lower overflows a float\n"
    code, out, _ = run(capsys, ["verify-analytic", "--samples", f"162755,{3 * 10**309}"])
    assert code == 0
    json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the report"))


def test_verify_analytic_cli_rejects_empty_samples(capsys):
    for samples in (",", ""):
        code, out, err = run(capsys, ["verify-analytic", "--samples", samples])
        assert code == 2 and out == ""
        assert "at least one sample" in err


def test_verify_analytic_cli_names_the_samples_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-analytic", "--samples", "200000,abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --samples: invalid comma_separated_ints value: '200000,abc'" in err


def test_decompose_cli(capsys):
    code, out, _ = run(capsys, ["decompose", "--n", "300"])
    assert code == 0
    report = json.loads(out)
    assert all(v == "pass" for v in report["checks"].values())

    code, out, _ = run(capsys, ["decompose", "--n", "221"])
    assert code == 0  # poles are out of scope, not failures
    report = json.loads(out)
    assert report["checks"]["absorber_C_below_bound"] == "pole: not applicable"


def test_observations_cli(capsys):
    code, out, _ = run(
        capsys, ["observations", "--nmin", "1", "--nmax", "60", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("claim_id,")
    assert len(lines) == 23


def test_observations_json_with_two_workers_matches_serial(capsys):
    # [900, 1700] spans four 256-n chunks, merged in range order; [2000, 2700]
    # spans three, and its 701 n are no whole number of 256-n chunks or of
    # 32-n blocks, so its last chunk is partial
    assert 701 % 256 and 701 % 32
    for n_min, n_max in ((900, 1700), (2000, 2700)):
        texts = []
        for threads in ("1", "2"):
            argv = ["observations", "--nmin", str(n_min), "--nmax", str(n_max), "--threads", threads]
            code, out, err = run(capsys, argv)
            assert code == 0 and err == ""
            assert json.loads(out)["claims"][1]["primes_checked"] > 0
            texts.append(re.sub(r'\n *"runtime_ms": [^\n]*', "", out))
        assert texts[0] == texts[1]


def test_observations_on_a_short_sieve_exits_3(capsys, monkeypatch):
    # a sieve one short of 3 * nmax is refused, not read past or undercounted
    full = sweeps.build_sieve
    monkeypatch.setattr(sweeps, "build_sieve", lambda limit: full(limit - 1))
    code, out, err = run(capsys, ["observations", "--nmin", "30", "--nmax", "40"])
    assert code == 3 and out == ""
    assert "beyond sieve limit 119" in err


def test_csv_output_builds_no_json_report(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("JSON report built for CSV output")

    monkeypatch.setattr(cli, "sweep_to_json_dict", refuse)
    monkeypatch.setattr(cli, "_json_text", refuse)
    for command in (
        ["verify-direct", "--nmax", "50"],
        ["observations", "--nmin", "1", "--nmax", "20"],
    ):
        code, out, _ = run(capsys, [*command, "--format", "csv"])
        assert code == 0 and out


def test_capacity_exit_code(capsys):
    code, _, err = run(capsys, ["verify-direct", "--nmax", "600000000"])
    assert code == 3
    assert "error:" in err


def test_sieve_over_byte_budget_exits_3_before_allocating(capsys):
    # limit 2 * 10^9 is within the old limit cap but needs about 8.6 GB
    tracemalloc.start()
    try:
        code, _, err = run(capsys, ["verify-direct", "--nmax", "500000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "budget" in err
    assert peak < 2**20


def test_observations_sieve_stops_at_3n_and_exits_3_over_budget(capsys, monkeypatch):
    # the claim windows close by 3n, so the sieve reaches 3 * nmax: the
    # first refused nmax is where _peak_bytes(3 * nmax) passes the budget
    lo, hi = 1, 2**30
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _peak_bytes(3 * mid) > MEMORY_CAP else (mid, hi)
    edge = hi
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["observations", "--nmin", str(edge), "--nmax", str(edge)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert f"sieve limit {3 * edge} " in err and "budget" in err
    assert peak < 2**20

    # one below the edge the budget admits the sieve, which is never built
    requested = []

    def admit_only(limit):
        _check_capacity(limit)
        requested.append(limit)
        raise CapacityError("admitted, not built")

    monkeypatch.setattr(sweeps, "build_sieve", admit_only)
    below = str(edge - 1)
    code, _, err = run(capsys, ["observations", "--nmin", below, "--nmax", below])
    assert code == 3 and "admitted, not built" in err
    assert requested == [3 * (edge - 1)]


@pytest.mark.parametrize(
    "command, edge, full_limit",
    [
        ("verify-direct", 118_904_363, lambda n: 4 * n),
        ("verify-corollary", 356_713_084, lambda n: 4 * (n + 2) // 3 + 1),
    ],
)
def test_existence_sweeps_exit_3_on_their_full_limit(
    command, edge, full_limit, capsys, monkeypatch
):
    # the sieve stops near a*nmax + b, but the budget is decided on the
    # full limit, which the sweep builds when no prime lies past the trim;
    # edge is the first nmax whose full limit passes the budget
    assert _peak_bytes(full_limit(edge)) > MEMORY_CAP >= _peak_bytes(full_limit(edge - 1))
    requested = []

    def admit_only(limit):
        _check_capacity(limit)
        requested.append(limit)
        raise CapacityError("admitted, not built")

    # no sieve is built: a budget decided on the trimmed limit alone shows
    # as an admitted run at the edge
    monkeypatch.setattr(sweeps, "build_sieve", admit_only)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, [command, "--nmax", str(edge)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert f"sieve limit {full_limit(edge)} " in err and "budget" in err
    assert peak < 2**20 and requested == []

    # one below the edge the budget admits the run
    code, _, err = run(capsys, [command, "--nmax", str(edge - 1)])
    assert code == 3 and "admitted, not built" in err
    assert len(requested) == 1 and requested[0] < full_limit(edge - 1)


def test_threads_below_one_exit_before_any_sieve(capsys, monkeypatch):
    requested = []

    def record(limit):
        requested.append(limit)
        raise CapacityError("built")

    monkeypatch.setattr(sweeps, "build_sieve", record)
    for command in (
        ["verify-direct", "--nmax", "100000000"],
        ["verify-corollary", "--nmax", "100000000"],
        ["observations", "--nmin", "1", "--nmax", "100000000"],
    ):
        code, out, err = run(capsys, [*command, "--threads", "0"])
        assert code == 2 and out == "" and "threads" in err
    assert requested == []


def test_threads_below_one_exit_code(capsys):
    for command in (
        ["verify-direct", "--nmax", "50"],
        ["verify-corollary", "--nmax", "50"],
        ["observations", "--nmin", "1", "--nmax", "5"],
    ):
        code, out, err = run(capsys, [*command, "--threads", "0"])
        assert code == 2 and out == ""
        assert "threads" in err


_ANALYTIC = ["verify-analytic"]
_OBSERVATIONS = ["observations", "--nmin", "1", "--nmax", "5"]


# one failing report per exit-1 verdict of cli._dispatch, returned by the
# command's driver; the two verify-analytic and the two observations reports
# each fail on one flag alone, so a verdict that joins its two flags the
# wrong way exits 0 on one of them
@pytest.mark.parametrize(
    "argv, driver, failing",
    [
        pytest.param(
            ["verify-direct", "--nmax", "5"],
            "verify_direct",
            SweepReport(1, 5, (2,), None, 1.0),
            id="direct",
        ),
        pytest.param(
            ["verify-corollary", "--nmax", "5"],
            "verify_corollary",
            SweepReport(3, 5, (4,), None, 1.0),
            id="corollary",
        ),
        pytest.param(
            ["lower-bound", "--n", "222"],
            "lower_bound_report",
            {"n": 222, "satisfied": False},
            id="lower-bound",
        ),
        pytest.param(
            _ANALYTIC,
            "analytic_report",
            {"all_positive": False, "strictly_increasing": True},
            id="analytic-positive",
        ),
        pytest.param(
            _ANALYTIC,
            "analytic_report",
            {"all_positive": True, "strictly_increasing": False},
            id="analytic-increasing",
        ),
        pytest.param(
            ["decompose", "--n", "300"],
            "decompose_report",
            {"n": 300, "checks": {"a": "pass", "b": "fail", "c": "not applicable"}},
            id="decompose",
        ),
        pytest.param(
            _OBSERVATIONS,
            "observations_sweep",
            {"contract_violations": 1, "tiling_ok": True},
            id="observations-violations",
        ),
        pytest.param(
            _OBSERVATIONS,
            "observations_sweep",
            {"contract_violations": 0, "tiling_ok": False},
            id="observations-tiling",
        ),
    ],
)
def test_failure_exit_code(capsys, monkeypatch, argv, driver, failing):
    monkeypatch.setattr(cli, driver, lambda *a, **k: failing)
    code, out, err = run(capsys, argv)
    assert code == 1 and err == ""
    assert json.loads(out)


@pytest.mark.parametrize("error", [ConsistencyError, PrecisionError])
def test_internal_check_failure_exits_1(capsys, monkeypatch, error):
    def tripped(*args, **kwargs):
        raise error("routes disagree")

    monkeypatch.setattr(cli, "lower_bound_report", tripped)
    code, out, err = run(capsys, ["lower-bound", "--n", "222"])
    assert (code, out, err) == (1, "", "internal check failed: routes disagree\n")


def _python(*args):
    """Run a fresh interpreter that imports prime34 from this source tree."""
    src = str(Path(cli.__file__).parents[1])
    path = filter(None, (src, os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


def test_module_entry_point_matches_main(capsys):
    argv = ["verify-direct", "--nmax", "10"]
    code, out, err = run(capsys, argv)
    runtime = re.compile(rb'"runtime_ms": [^\n]*')
    for module in ("prime34.cli", "prime34"):
        done = _python("-m", module, *argv)
        assert (done.returncode, done.stderr) == (code, err.encode()) == (0, b"")
        assert runtime.sub(b"", done.stdout) == runtime.sub(b"", out.encode())


# Runs each command line of argv in one interpreter and prints, after each,
# the loaded modules of prime34, of mpmath's package code and of the
# process pool.
_IMPORT_PROBE = """
import json, os, sys
from prime34.cli import main

for argv in sys.argv[1:]:
    assert main([*argv.split(), "--out", os.devnull]) == 0
    loaded = [m for m in sys.modules if m.startswith(("prime34.", "mpmath."))]
    loaded += [m for m in sys.modules if m == "concurrent.futures.process"]
    print(json.dumps(loaded))
"""

# A bare import loads no submodule; a submodule read as an attribute of the
# package loads that module and what it imports.
_BARE_IMPORT_PROBE = """
import sys, prime34
print([m for m in sys.modules if m.startswith("prime34.")])
prime34.errors
print([m for m in sys.modules if m.startswith("prime34.")])
"""


def _loaded_after(*argvs):
    """The modules _IMPORT_PROBE finds after each command line, all run in
    one fresh interpreter."""
    done = _python("-c", _IMPORT_PROBE, *argvs)
    assert (done.returncode, done.stderr) == (0, b"")
    return [set(json.loads(line)) for line in done.stdout.splitlines()]


def test_commands_import_only_what_they_run():
    # one fresh interpreter per command family, pinning the prime34 modules
    # it loads and whether it loads mpmath, so a stray top-level import
    # shows here; no family starts the process pool
    sweep_modules = {"prime34.cli", "prime34.errors", "prime34.sieve", "prime34.sweeps"}
    families = [
        (["verify-direct --nmax 50", "verify-corollary --nmax 50"], set(), False),
        (["observations --nmin 1 --nmax 20"], {"prime34.claims", "prime34.exact"}, False),
        (
            [
                "decompose --n 300",
                "lower-bound --n 300",
                "verify-analytic --samples 170000,340000",
            ],
            {"prime34.bounds", "prime34.exact"},
            True,
        ),
    ]
    for argvs, modules, mpmath in families:
        for argv, loaded in zip(argvs, _loaded_after(*argvs), strict=True):
            assert {m for m in loaded if m.startswith("prime34.")} == sweep_modules | modules, argv
            if mpmath:
                assert "mpmath.ctx_iv" in loaded, argv
            else:
                assert not any(m.startswith("mpmath.") for m in loaded), argv
            assert "concurrent.futures.process" not in loaded, argv
    bare = _python("-c", _BARE_IMPORT_PROBE)
    assert (bare.returncode, bare.stdout, bare.stderr) == (0, b"[]\n['prime34.errors']\n", b"")


# The names prime34 exported before its namespace was made lazy, by home
# module.
_EXPORTS = {
    "bounds": (
        "BoundReport DEFAULT_PREC LogReal M_CORRECTION_NOTE MAX_PREC build_bound_report "
        "check_factorial_sandwich count_lower_bound count_lower_bound_simplified "
        "default_h1_grid default_h2_grid e_term factorial_sandwich_sweep ln_a_upper "
        "ln_b_upper ln_binom_lower ln_c_upper ln_d_upper ln_f ln_factorial ln_g ln_m "
        "ln_m_rate_identity ln_of_int ln_t1_upper ln_t3_lower ln_t3_lower_intermediate "
        "replacement_minimal_n replacement_step_holds scan_h1_monotone scan_h2_unimodal "
        "simplified_bound_minimal_n t3_positive_minimal_n"
    ),
    "claims": (
        "BETA_ZERO ClaimResult ClaimSpec CONSEQUENCES DIVIDES_A DIVIDES_B DIVIDES_C "
        "DIVIDES_D PRIMORIAL_16TH check_chain check_claim check_tiling claim_table "
        "claim_to_dict minimal_valid_n parse_chain"
    ),
    "errors": "CapacityError ConsistencyError CoverageError DomainError PrecisionError",
    "exact": (
        "Decomposition GenBinomIndex ValuationMap absorber absorber_index "
        "absorber_valuation beta beta_at_most_one check_t1_bound "
        "check_t2_divisibility_bound decompose delta gen_binomial is_prime_int "
        "legendre_valuation t2_bound_minimal_n"
    ),
    "sieve": "MEMORY_CAP PrimeSieve Rational build_sieve check_pi_bound check_primorial_bound",
    "sweeps": (
        "CONTRACT_N DEFAULT_ANALYTIC_SAMPLES DEFAULT_DIRECT_NMAX EXACT_CHECK_CUTOFF "
        "SweepReport absorber_below_bound analytic_report decompose_report "
        "lower_bound_report observations_csv_lines observations_sweep sweep_csv_lines "
        "sweep_csv_text sweep_to_json_dict verify_corollary verify_direct"
    ),
}


def test_package_names_are_the_objects_of_their_home_modules():
    import prime34

    exported = [name for names in _EXPORTS.values() for name in names.split()]
    assert len(exported) == 92 and prime34.__all__ == exported
    star = {}
    exec("from prime34 import *", star)
    assert set(exported) <= set(star) and set(exported) <= set(dir(prime34))
    for module, names in _EXPORTS.items():
        home = importlib.import_module(f"prime34.{module}")
        assert getattr(prime34, module) is home
        for name in names.split():
            assert getattr(prime34, name) is star[name] is getattr(home, name), name
    with pytest.raises(AttributeError, match="'prime34' has no attribute 'no_such_name'"):
        prime34.no_such_name
    assert prime34.__version__ == "0.1.0"
    # the dict bench/tracing.py patches through sweeps is the one in bounds;
    # any other name sweeps lacks is still an AttributeError
    assert sweeps._ABSORBER_UPPER is prime34.bounds._ABSORBER_UPPER
    with pytest.raises(AttributeError, match="'prime34.sweeps' has no attribute 'ln_a_upper'"):
        sweeps.ln_a_upper


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["verify-corollary"])  # missing --nmax
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lower-bound", "--n", "222", "--format", "csv"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_an_absorber_beyond_its_sieve_exits_3_not_1(capsys, monkeypatch):
    # a sieve that ends below [s] is a coverage error (exit 3), never a
    # product with primes missing that fails its cross-check (exit 1)
    from prime34 import build_sieve, exact

    real = exact.absorber
    monkeypatch.setattr(
        exact, "absorber", lambda which, n, sieve: real(which, n, build_sieve(n))
    )
    code, out, err = run(capsys, ["decompose", "--n", "300"])
    assert code == 3 and out == ""
    assert err == "error: [s] = 400 beyond sieve limit 300\n"

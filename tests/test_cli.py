import json
import tracemalloc

import pytest

from prime34 import SweepReport, cli
from prime34.cli import main


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
    # json output is key-sorted
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


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


def test_threads_below_one_exit_code(capsys):
    for command in (
        ["verify-direct", "--nmax", "50"],
        ["verify-corollary", "--nmax", "50"],
        ["observations", "--nmin", "1", "--nmax", "5"],
    ):
        code, out, err = run(capsys, [*command, "--threads", "0"])
        assert code == 2 and out == ""
        assert "threads" in err


def test_failure_exit_code(capsys, monkeypatch):
    failing = SweepReport(1, 5, (2,), None, 1.0)
    monkeypatch.setattr(cli, "verify_direct", lambda *a, **k: failing)
    code, _, _ = run(capsys, ["verify-direct", "--nmax", "5"])
    assert code == 1


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

"""Command-line entry points for the verification sweeps and reports.

Exit codes: 0 all checks passed, 1 a verified claim failed (or an internal
consistency check tripped), 2 bad usage or out-of-domain parameters,
3 capacity or sieve-coverage limits exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    CapacityError,
    ConsistencyError,
    CoverageError,
    DomainError,
    PrecisionError,
)
from .sweeps import (
    DEFAULT_DIRECT_NMAX,
    analytic_report,
    decompose_report,
    lower_bound_report,
    observations_csv_lines,
    observations_sweep,
    observations_to_json_dict,
    sweep_csv_lines,
    sweep_to_json_dict,
    verify_corollary,
    verify_direct,
)


def _add_output_flags(sub, formats=("csv", "json")):
    sub.add_argument(
        "--format", choices=formats, default="json", help="report format"
    )
    sub.add_argument("--out", type=Path, default=None, help="write report to PATH")


def _add_threads_flag(sub):
    sub.add_argument(
        "--threads", type=int, default=1, help="worker processes for the sweep"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prime34",
        description="Verify that [3n, 4n] always contains a prime: finite "
        "sweeps, exact decompositions, and analytic lower bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-direct", help="smallest prime in [3n, 4n] for every n up to nmax"
    )
    p.add_argument("--nmax", type=int, default=DEFAULT_DIRECT_NMAX)
    p.add_argument(
        "--witnesses", action="store_true", help="keep the witness prime per n"
    )
    _add_output_flags(p)
    _add_threads_flag(p)

    p = sub.add_parser(
        "verify-corollary", help="a prime strictly inside (n, 4(n+2)/3) for n >= 3"
    )
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument(
        "--witnesses", action="store_true", help="keep the witness prime per n"
    )
    _add_output_flags(p)
    _add_threads_flag(p)

    p = sub.add_parser(
        "lower-bound", help="analytic prime-count lower bound vs sieve count"
    )
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p, formats=("json",))

    p = sub.add_parser(
        "verify-analytic", help="T3 lower bound positivity on a sample ladder"
    )
    p.add_argument(
        "--samples",
        type=lambda s: [int(x) for x in s.split(",") if x],
        default=None,
        help="comma-separated n values, each above 162754",
    )
    _add_output_flags(p, formats=("json",))

    p = sub.add_parser("decompose", help="factored T1/T2/T3 and bound checks at n")
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p, formats=("json",))

    p = sub.add_parser(
        "observations", help="all 22 window claims and chains over [nmin, nmax]"
    )
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    _add_output_flags(p)
    _add_threads_flag(p)

    return parser


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _render(json_dict, csv_lines, fmt: str) -> str:
    if fmt == "csv":
        return "\n".join(csv_lines) + "\n"
    return json.dumps(json_dict, indent=2, sort_keys=True) + "\n"


def _dispatch(args) -> int:
    if args.command in ("verify-direct", "verify-corollary"):
        verify = verify_direct if args.command == "verify-direct" else verify_corollary
        report = verify(args.nmax, args.witnesses, args.threads)
        _emit(
            _render(
                sweep_to_json_dict(report), sweep_csv_lines(report), args.format
            ),
            args.out,
        )
        return 1 if report.failures else 0

    if args.command == "lower-bound":
        report = lower_bound_report(args.n)
        _emit(_render(report, None, "json"), args.out)
        return 0 if report["satisfied"] else 1

    if args.command == "verify-analytic":
        report = analytic_report(args.samples)
        _emit(_render(report, None, "json"), args.out)
        return 0 if report["all_positive"] and report["strictly_increasing"] else 1

    if args.command == "decompose":
        report = decompose_report(args.n)
        _emit(_render(report, None, "json"), args.out)
        failed = any(value == "fail" for value in report["checks"].values())
        return 1 if failed else 0

    if args.command == "observations":
        report = observations_sweep(args.nmin, args.nmax, args.threads)
        _emit(
            _render(
                observations_to_json_dict(report),
                observations_csv_lines(report),
                args.format,
            ),
            args.out,
        )
        return 1 if report.contract_violations or not report.tiling_ok else 0

    raise DomainError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConsistencyError, PrecisionError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

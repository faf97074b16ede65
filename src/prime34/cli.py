"""Command-line entry points for the verification sweeps and reports.

Exit codes: 0 all checks passed, 1 a verified claim failed (or an internal
consistency check tripped), 2 bad usage (including an --out path that
cannot be written) or out-of-domain parameters, 3 capacity or
sieve-coverage limits exceeded.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from contextlib import suppress
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
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
    sweep_csv_text,
    sweep_to_json_dict,
    verify_corollary,
    verify_direct,
)


def _add_output_flags(sub, formats=("csv", "json")):
    sub.add_argument(
        "--format", choices=formats, default="json", help="report format"
    )
    sub.add_argument("--out", type=Path, default=None, help="write report to PATH")


def comma_separated_ints(text: str) -> list:
    """The ints of a comma-separated list, skipping empty items; argparse
    names this function when an item is not an int."""
    return [int(x) for x in text.split(",") if x]


def _add_threads_flag(sub):
    sub.add_argument(
        "--threads", type=int, default=1, help="worker processes for the sweep"
    )


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The prime34 argument parser, built once per process and shared by
    every call, so callers parse with it and never modify it."""
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
        type=comma_separated_ints,
        default=None,
        help=f"comma-separated n values, each above {DEFAULT_DIRECT_NMAX - 1}",
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


# json.dumps(obj, indent=2) runs the pure-Python encoder over the whole
# report.  _json_text writes the same bytes and hands the bulky shapes to
# the C encoder: containers of ints (the witness map, sample ladders) and
# lists of int lists (the [p, e] factor lists).  Those hold no cycle, so the
# encoders skip the cycle check.
_COMPACT = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_LINES = json.JSONEncoder(
    sort_keys=True, separators=(",\n", ": "), check_circular=False
).encode
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
    float: lambda x: float.__repr__(x) if x - x == 0 else _COMPACT(x),  # nan, inf: C
}
_INT = {int}


def _json_text(obj, nl: str = "\n") -> str:
    """obj exactly as json.dumps(obj, indent=2, sort_keys=True) writes it,
    for dicts with str keys; nl is the line break and indent that precede
    obj's closing bracket.  Python walks only the containers that hold a
    non-empty container; the others are one join or one C encoder call."""
    if not isinstance(obj, (dict, list, tuple)):
        return _SCALARS.get(type(obj), _COMPACT)(obj)  # subclasses: C
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = nl + "  "
    values = obj.values() if isinstance(obj, dict) else obj
    if set(map(type, values)) == _INT:
        # strings escape their newlines, so each one in the text ends an item
        text = _LINES(obj)
        return text[0] + inner + text[1:-1].replace("\n", inner) + nl + text[-1]
    if (
        values is obj
        and set(map(type, obj)) <= {list, tuple}
        and all(obj)
        and set(map(type, chain.from_iterable(obj))) == _INT
    ):
        # int literals hold no comma or bracket: a comma is followed by "["
        # between the int lists and by an int inside one
        leaf = inner + "  "
        body = _COMPACT(obj)[2:-2].replace(",", "," + leaf)
        body = body.replace("]," + leaf + "[", inner + "]," + inner + "[" + leaf)
        return "[" + inner + "[" + leaf + body + inner + "]" + nl + "]"
    if values is obj:
        texts = [
            w(v) if (w := _SCALARS.get(type(v))) else _json_text(v, inner) for v in obj
        ]
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    texts = [
        encode_basestring_ascii(key) + ": "
        + (w(v) if (w := _SCALARS.get(type(v))) else _json_text(v, inner))
        for key, v in sorted(obj.items())
    ]
    return "{" + inner + ("," + inner).join(texts) + nl + "}"


def _render(report, to_json, to_csv, fmt: str) -> str:
    """The report in fmt, built only by the formatter for that format;
    to_csv gives the whole CSV text."""
    if fmt == "csv":
        return to_csv(report)
    return _json_text(to_json(report)) + "\n"


def _observations_csv_text(report) -> str:
    return "\n".join(observations_csv_lines(report)) + "\n"


def _dispatch(args) -> tuple:
    """The report text of the command and its exit code."""
    if args.command in ("verify-direct", "verify-corollary"):
        verify = verify_direct if args.command == "verify-direct" else verify_corollary
        report = verify(args.nmax, args.witnesses, args.threads)
        text = _render(report, sweep_to_json_dict, sweep_csv_text, args.format)
        return text, 1 if report.failures else 0

    if args.command == "lower-bound":
        report = lower_bound_report(args.n)
        return _render(report, dict, None, "json"), 0 if report["satisfied"] else 1

    if args.command == "verify-analytic":
        report = analytic_report(args.samples)
        passed = report["all_positive"] and report["strictly_increasing"]
        return _render(report, dict, None, "json"), 0 if passed else 1

    if args.command == "decompose":
        report = decompose_report(args.n)
        failed = any(value == "fail" for value in report["checks"].values())
        return _render(report, dict, None, "json"), 1 if failed else 0

    if args.command == "observations":
        report = observations_sweep(args.nmin, args.nmax, args.threads)
        to_json, to_csv = observations_to_json_dict, _observations_csv_text
        text = _render(report, to_json, to_csv, args.format)
        return text, 1 if report.contract_violations or not report.tiling_ok else 0

    raise DomainError(f"unknown command {args.command!r}")


def _check_writable(path: Path) -> None:
    """Raise the OSError that writing the report to path would raise when
    path is a directory, its parent is not a directory, or either refuses
    writes.  Nothing is created."""
    if path.is_dir():
        err = errno.EISDIR
    elif not path.parent.is_dir():
        err = errno.ENOENT
    elif not os.access(path if path.exists() else path.parent, os.W_OK):
        err = errno.EACCES
    else:
        return
    raise OSError(err, os.strerror(err), str(path))


def _write_report(path: Path, text: str) -> None:
    """Write text over the file at path in place, then cut a regular file
    to the report's length; the file keeps its inode and mode.  It is not
    opened with O_TRUNC: on ext4, a truncating write over a file that held
    data took 0.4 ms longer for a 6 KB report and 1.3 ms longer for
    2.1 MB, in a fresh process too, however long after the last write.
    A failed write leaves a prefix of the report and raises an OSError
    that names path.  A system crash after a successful write can leave a
    file of the new length that mixes old and new bytes, where a
    truncating write on ext4 leaves the old report, the new one or an
    empty file."""
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    regular = False
    try:
        # /dev/null, a FIFO or a tty cannot be cut, as O_TRUNC ignores them
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        while written < len(data):
            written += os.write(fd, data[written:])
        if regular:
            os.ftruncate(fd, written)
    except OSError as exc:  # os.write and os.ftruncate name no file
        if regular:  # never leave the old report's tail behind the new bytes
            with suppress(OSError):
                os.ftruncate(fd, written)
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        os.close(fd)


def _cannot_write(exc: OSError) -> int:
    print(f"error: cannot write the report: {exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.out is not None:
        try:
            _check_writable(args.out)  # before any report is computed
        except OSError as exc:
            return _cannot_write(exc)
    try:
        text, code = _dispatch(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConsistencyError, PrecisionError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        _write_report(args.out, text)
    except OSError as exc:  # what the early check cannot see, or a path changed since
        return _cannot_write(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Start-up cost of prime34 commands, one command per fresh interpreter.

Usage, from the root of a source checkout:

    python3 tools/startup.py --tree old=../parent/src --tree new=src \\
        "observations --nmin 1 --nmax 20" "decompose --n 300"

Each command line runs as ``python -m prime34 <args>`` with ``PYTHONPATH``
set to one tree and ``PYTHONDONTWRITEBYTECODE=1``, so every process
compiles the modules it imports, as a process does that cannot write
bytecode caches.  Its standard output goes to ``/dev/null``.  Each
command runs RUNS times per tree, and the trees alternate run by run:
run i starts with the first tree when i is even and with the last when
it is odd.  Per command and tree the script prints the median and
quartiles of the wall time from spawn to exit and the exit codes, then,
from one ``-X importtime`` run per tree, the TOP modules with the largest
self import time.  ``--json PATH`` also writes the figures, and every
wall time, as JSON.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

RUNS = 20  # processes per command and tree
TOP = 8  # import-time entries printed per command and tree


def _env(src: str) -> dict:
    return {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}


def _run(src: str, argv: list) -> tuple:
    """Wall seconds from spawn to exit, and the exit code."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "prime34", *argv],
        env=_env(src), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return perf_counter() - start, done.returncode


def _import_times(src: str, argv: list) -> list:
    """(self us, cumulative us, module) of the top modules by self time."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "prime34", *argv],
        env=_env(src), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    rows = []
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, total, name = line[len("import time:"):].split("|")
        rows.append((int(own), int(total), name.strip()))
    return sorted(rows, reverse=True)[:TOP]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="+", help="prime34 command lines, one per argument")
    parser.add_argument("--tree", action="append", required=True, metavar="NAME=SRC",
                        help="a source tree: a name and the directory that holds prime34")
    parser.add_argument("--json", metavar="PATH", help="also write the figures as JSON")
    args = parser.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree)
    report = {"python": sys.version.split()[0], "cpus": os.cpu_count(), "runs": RUNS,
              "trees": trees, "commands": {}}
    for command in args.commands:
        argv = command.split()
        wall = {name: [] for name in trees}
        codes = {name: set() for name in trees}
        for i in range(RUNS):
            order = list(trees) if i % 2 == 0 else list(reversed(trees))
            for name in order:
                seconds, code = _run(trees[name], argv)
                wall[name].append(seconds * 1e3)
                codes[name].add(code)
        entry = {}
        print(f"{command}  ({RUNS} processes per tree, wall ms: q1 median q3)")
        for name, src in trees.items():
            q = statistics.quantiles(wall[name], n=4, method="inclusive")
            imports = _import_times(src, argv)
            entry[name] = {"wall_ms_quartiles": [round(x, 2) for x in q],
                           "wall_ms": [round(x, 2) for x in wall[name]],
                           "exit_codes": sorted(codes[name]),
                           "import_self_us_top": [list(row) for row in imports]}
            print(f"  {name:>8}: {q[0]:8.2f} {q[1]:8.2f} {q[2]:8.2f}  exit {sorted(codes[name])}")
            for own, total, module in imports:
                print(f"            self {own:7d} us  cumulative {total:7d} us  {module}")
        if len(trees) == 2:
            first, last = trees
            wins = sum(b < a for a, b in zip(wall[first], wall[last]))
            entry["pairs_won_by_" + last] = wins
            print(f"  {last} faster in {wins} of {RUNS} pairs")
        report["commands"][command] = entry
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the prime34 verifier, timed through its command line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload finite_sweep --seed 1 --seconds 20 --trace 0

Each operation is one prime34 subcommand run in-process through
``prime34.cli.main`` with ``--out`` to a temporary file, so argument
parsing, rendering and the write are timed as a user waits for them.  One
client runs a closed loop of whole rounds (see workloads.py) until
``--seconds`` have passed.  After each operation, outside the timed region,
an independent oracle checks the output and a fixed pure-Python reference
loop is timed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# The oracle's numpy must not start a thread pool in a process that forks
# the program's workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
# The reference loop's time on the machine of the README's figures.  Every
# time is reported in reference-host seconds: raw seconds times REF_S over
# the reference loop's time measured around them, which removes the host's
# speed drift (see README.md).
REF_S = 0.005

sys.path.insert(0, str(HERE))
from oracle import Oracle, OracleError  # noqa: E402
from tracing import METRICS, Tracer  # noqa: E402
from workloads import ROUNDS, WARMUP, round_ops  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "verdicts_per_s": "1/s",
    "wall_ref": "ref",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# Imports prime34 and makes the workload's warm-up call in a fresh
# interpreter; prints the seconds both took.
_SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import prime34.cli
code = prime34.cli.main(sys.argv[2:])
print(repr(time.perf_counter() - start))
sys.exit(code)
"""


def reference_loop() -> int:
    """Fixed pure-Python work (integer arithmetic, dict updates, string
    building) whose time tracks the host's speed at that moment."""
    acc, table = 0, {}
    for i in range(30_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return acc + len(",".join(map(str, table.values())))


def _cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _setup_seconds(workload: str, out: str) -> float:
    argv = WARMUP[workload].argv(out)
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), *argv],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup call failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs operations, checks them and keeps the per-round figures."""

    def __init__(self, cli, oracle, tracer, workdir: Path):
        self.cli = cli
        self.oracle = oracle
        self.tracer = tracer
        self.out = str(workdir / "out")
        self.clock = tracer.clock if tracer else perf_counter
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.ref_s = []

    def call(self, op, out) -> int:
        return self.cli.main(op.argv(out))

    def run_op(self, op) -> tuple:
        """(seconds, cpu seconds of the process and its children, verdicts)
        of one op."""
        self.attempted += 1
        if self.tracer:
            self.tracer.active = True
        cpu0, kids0 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
        t0 = self.clock()
        try:
            code = self.call(op, self.out)
        except (Exception, SystemExit) as exc:  # an operation boundary: count and go on
            code = f"{type(exc).__name__}: {exc}"
        t1 = self.clock()
        cpu1, kids1 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
        if self.tracer:
            self.tracer.active = False
        verdicts = self.verify(op, code)
        self.reference()
        return t1 - t0, (cpu1 - cpu0) + (kids1 - kids0), verdicts

    def reference(self) -> float:
        """Times the reference loop once and keeps the time."""
        start = perf_counter()
        reference_loop()
        self.ref_s.append(perf_counter() - start)
        return self.ref_s[-1]

    def setup(self, workload: str) -> float:
        """One set-up sample in reference-host seconds: the reference loop
        is timed just before and just after the fresh interpreter."""
        before = self.reference()
        seconds = _setup_seconds(workload, self.out)
        return seconds * REF_S * 2 / (before + self.reference())

    def verify(self, op, code) -> int:
        """Verdicts of a passing op; 0 and a failure count otherwise."""
        if code != 0:
            self.failed += 1
            print(f"failed: {' '.join(op.argv('OUT'))}: exit {code}", file=sys.stderr)
            return 0
        text = Path(self.out).read_text()
        if self.tracer:
            self.tracer.totals["cli.bytes_out"] += len(text.encode())
        try:
            return self.oracle.check(op, text)
        except OracleError as exc:
            self.failed += 1
            self.correct = False
            print(f"wrong: {' '.join(op.argv('OUT'))}: {exc}", file=sys.stderr)
            return 0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        sys.path.insert(0, str(SRC))
        import prime34.cli as cli
    except ImportError as exc:
        raise SystemExit(f"cannot import prime34 from {SRC}: {exc}")

    tracer = Tracer() if trace else None
    rounds = []
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        runner = Runner(cli, Oracle(), tracer, Path(tmp))
        if runner.call(WARMUP[workload], runner.out) != 0:
            raise SystemExit("warm-up call failed")
        if tracer:
            tracer.install()
        runner.reference()
        start = perf_counter()
        while not rounds or perf_counter() - start < seconds:
            mark = len(runner.ref_s) - 1
            figures = [runner.run_op(op) for op in round_ops(workload, seed, len(rounds))]
            wall, cpu, verdicts = (sum(column) for column in zip(*figures))
            ref = statistics.median(runner.ref_s[mark:])
            layers = tracer.take_round() if tracer else {}
            rounds.append(
                dict(
                    wall=wall * REF_S / ref,
                    ratio=wall / ref,
                    cpu=cpu * REF_S / ref,
                    rate=verdicts / (wall * REF_S / ref),
                    layers={k: v * REF_S / ref if k.endswith("_s") else v for k, v in layers.items()},
                )
            )
        peak_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        peak_kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        wall_s = statistics.median([r["wall"] for r in rounds])
        if tracer:
            tracer.uninstall()
            metrics = _layer_metrics(rounds, METRICS)
            metrics["trace.wall_s"] = wall_s
            _write_spans(tracer, workload, seed)
            units = METRICS
        else:
            metrics = {
                "wall_s": wall_s,
                "verdicts_per_s": statistics.median([r["rate"] for r in rounds]),
                "wall_ref": statistics.median([r["ratio"] for r in rounds]),
                "cpu_s": statistics.median([r["cpu"] for r in rounds]),
                "peak_rss_mib": max(peak_self, peak_kids),
                "setup_s": statistics.median([runner.setup(workload) for _ in range(SETUP_SAMPLES)]),
            }
            units = END_TO_END_UNITS
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def _layer_metrics(rounds, names) -> dict:
    """Counts, sizes and memory of the first round, which the seed fixes;
    times as medians over the rounds."""
    first = rounds[0]["layers"]
    metrics = {}
    for name, unit in names.items():
        if unit == "s":
            metrics[name] = statistics.median([r["layers"].get(name, 0.0) for r in rounds])
        else:
            value = first.get(name, 0)
            metrics[name] = value if unit == "MiB" else int(value)
    return metrics


def _write_spans(tracer, workload: str, seed: int) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-{seed}.json"
    fields = ["id", "parent", "name", "start_s", "end_s"]
    path.write_text(json.dumps({"fields": fields, "spans": tracer.spans}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

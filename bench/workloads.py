"""Seeded operation lists for the three benchmark workloads.

An operation is one ``prime34`` command line (without ``--out``).  A run is
a sequence of rounds; round ``r`` of seed ``s`` is drawn from
``random.Random(f"{workload}:{s}:{r}")``, so one seed always gives the same
operations, every round draws fresh inputs, and no two consecutive
operations share an input.  A cache kept across calls in one process
therefore gains nothing here, as it would gain nothing for a CLI user who
runs one command per process.

Inputs are drawn by strata over each range, so every round costs about the
same and the per-round median is steady across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DIRECT_NMAX = 162755  # the program's default nmax, ceil(e^12)
DIRECT_JITTER = 1500
COROLLARY_NMAX = 100_000
COROLLARY_JITTER = 1000

OBS_RANGE = (250, 5000)  # claims are promised from n = 250 on
OBS_STRATA = 8
OBS_LEN = 10

ANALYTIC_RANGE = (222, 5000)  # every bound is defined from 222; exact checks run to 5000
ANALYTIC_PAIRS = 6  # decompose + lower-bound pairs per round
LADDER_STEPS = 8
LADDER_START = (DIRECT_NMAX, 2 * DIRECT_NMAX)


@dataclass(frozen=True)
class Op:
    """One command line: the subcommand and its arguments."""

    command: str
    args: tuple

    def argv(self, out: str) -> list:
        return [self.command, *self.args, "--out", out]

    def arg(self, flag: str):
        """The value that follows ``flag``, or None when it is absent."""
        if flag not in self.args:
            return None
        return self.args[self.args.index(flag) + 1]


def _strata(rng: random.Random, lo: int, hi: int, k: int, width: int = 1) -> list:
    """k draws, one from each of k equal slices of [lo, hi - width + 1]."""
    top = hi - width + 1
    edges = [lo + (top - lo) * i // k for i in range(k + 1)]
    return [rng.randint(a, max(a, b - 1)) for a, b in zip(edges, edges[1:])]


def _finite_sweep(rng):
    direct = DIRECT_NMAX + rng.randint(-DIRECT_JITTER, DIRECT_JITTER)
    corollary = COROLLARY_NMAX + rng.randint(-COROLLARY_JITTER, COROLLARY_JITTER)
    return [
        Op("verify-direct", ("--nmax", str(direct), "--witnesses", "--format", "csv")),
        Op("verify-corollary", ("--nmax", str(corollary), "--witnesses", "--format", "csv")),
    ]


def _claim_windows(rng):
    starts = _strata(rng, *OBS_RANGE, OBS_STRATA, OBS_LEN)
    return [
        Op(
            "observations",
            ("--nmin", str(a), "--nmax", str(a + OBS_LEN - 1), "--format", "json"),
        )
        for a in starts
    ]


def _ladder(rng):
    start = rng.randint(*LADDER_START)
    return ",".join(str(start << k) for k in range(LADDER_STEPS))


def _analytic_bounds(rng):
    dec = _strata(rng, *ANALYTIC_RANGE, ANALYTIC_PAIRS)
    low = _strata(rng, *ANALYTIC_RANGE, ANALYTIC_PAIRS)
    rng.shuffle(low)
    ops = []
    for i, (a, b) in enumerate(zip(dec, low)):
        ops.append(Op("decompose", ("--n", str(a))))
        ops.append(Op("lower-bound", ("--n", str(b))))
        if i % 2:
            ops.append(Op("verify-analytic", ("--samples", _ladder(rng))))
    return ops


ROUNDS = {
    "finite_sweep": _finite_sweep,
    "claim_windows": _claim_windows,
    "analytic_bounds": _analytic_bounds,
}

# One fixed call per workload, made before timing starts and timed in fresh
# interpreters as part of setup_s.
WARMUP = {
    "finite_sweep": Op(
        "verify-direct", ("--nmax", str(DIRECT_NMAX), "--witnesses", "--format", "csv")
    ),
    "claim_windows": Op("observations", ("--nmin", "1000", "--nmax", "1009")),
    "analytic_bounds": Op("decompose", ("--n", "1000")),
}


def round_ops(workload: str, seed: int, index: int) -> list:
    """The operations of round ``index`` of a run with this seed."""
    return ROUNDS[workload](random.Random(f"{workload}:{seed}:{index}"))

"""Checks of prime34 outputs, written apart from the program.

Primes come from a numpy sieve kept here; the analytic values come from
float evaluations of the paper's closed forms.  Nothing is compared with a
stored copy of earlier output.  Each check returns the number of verdicts
the output carries and raises OracleError on the first disagreement.
"""

from __future__ import annotations

import json
import math

import numpy as np


class OracleError(AssertionError):
    """An output disagrees with the independent computation."""


def _require(ok, message: str) -> None:
    if not ok:
        raise OracleError(message)


class Primes:
    """Sieve of Eratosthenes in numpy, grown on demand."""

    def __init__(self):
        self.limit = 0
        self.primes = np.zeros(0, dtype=np.int64)
        self._pi = np.zeros(1, dtype=np.int64)

    def cover(self, limit: int) -> None:
        if limit <= self.limit:
            return
        limit = max(limit, 2 * self.limit)
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        self.limit = limit
        self.primes = np.flatnonzero(flags).astype(np.int64)
        self._pi = np.cumsum(flags, dtype=np.int64)

    def pi(self, x):
        """Count of primes <= x, for an int or an integer array."""
        self.cover(int(np.max(x)))
        return self._pi[x]

    def between(self, lo: int, hi: int) -> list:
        """Primes p with lo < p <= hi."""
        self.cover(hi)
        return self.primes[self.pi(lo) : self.pi(hi)].tolist()


# ln M, the growth constant, from its ten factors and the 4^(1/6) term
LN_M = (
    math.log(256 / 27)
    + (4 / 3) * math.log(1 / 4)
    + math.log(3)
    + math.log(3**1.5 / 16)
    + math.log(1 / 221) / 221
    + (3 / 13) * math.log(3 / 13)
    + (4 / 17) * math.log(17 / 4)
    + (2 / 105) * math.log(2 / 105)
    + (4 / 15) * math.log(4 / 15)
    + (2 / 7) * math.log(7 / 2)
    - math.log(4) / 6
)


def e_term(n: int) -> float:
    """The 15-term correction E(n) of the T3 bound."""
    return (
        1 / (48 * n + 1) - 1 / (36 * n) - 1 / (12 * n) - 1 / (16 * n)
        + 1 / (12 * n + 1) + 1 / (4 * n + 1) - 1 / (24 * n) + 1 / (18 * n + 1)
        + 1 / (6 * n + 1) - 17 / (48 * n) + 13 / (36 * n + 13)
        + 221 / (12 * n + 221) - 7 / (24 * n) + 5 / (16 * n + 5)
        + 35 / (8 * n + 35)
    )


def ln_t3_lower(n: int) -> tuple:
    """ln of (sqrt(3) pi^(3/2) / 332800) e^E M^n (4n)^(-sqrt n) n^(-5/2),
    with the scale of its largest terms for a relative tolerance."""
    const = math.log(math.sqrt(3) * math.pi**1.5 / 332800)
    growth = n * LN_M
    tail = math.sqrt(n) * math.log(4 * n) + 2.5 * math.log(n)
    return const + e_term(n) + growth - tail, abs(const) + growth + tail + 1


def _close(value, expected, scale, what: str) -> None:
    _require(
        abs(value - expected) <= 1e-9 * scale,
        f"{what}: {value!r} differs from the oracle's {expected!r}",
    )


def _int_table(text: str, header: str) -> np.ndarray:
    head, _, body = text.partition("\n")
    _require(head == header, f"CSV header {head!r}, expected {header!r}")
    _require(body.endswith("\n"), "CSV output does not end with a newline")
    values = np.array(body.replace("\n", ",").split(",")[:-1], dtype=np.int64)
    _require(values.size % 2 == 0, "CSV rows are not pairs")
    return values.reshape(-1, 2)


class Oracle:
    """Checks one operation's output; ``check`` dispatches on the command."""

    def __init__(self):
        self.sieve = Primes()

    def check(self, op, text: str) -> int:
        handler = getattr(self, "_" + op.command.replace("-", "_"))
        try:
            return handler(op, text)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise OracleError(f"malformed {op.command} output: {exc!r}") from exc

    def _witnesses(self, text: str, first: int, nmax: int) -> tuple:
        rows = _int_table(text, "n,witness")
        n, w = rows[:, 0], rows[:, 1]
        _require(
            np.array_equal(n, np.arange(first, nmax + 1)),
            f"rows do not cover n = {first}..{nmax} in order",
        )
        return n, w

    def _verify_direct(self, op, text: str) -> int:
        nmax = int(op.arg("--nmax"))
        n, w = self._witnesses(text, 1, nmax)
        self.sieve.cover(4 * nmax + 4)
        primes = self.sieve.primes
        expected = primes[np.searchsorted(primes, 3 * n, side="left")]
        _require(np.all(expected <= 4 * n), "a window [3n, 4n] holds no prime")
        bad = np.flatnonzero(w != expected)
        _require(
            bad.size == 0,
            f"{bad.size} witnesses are not the smallest prime >= 3n"
            + (f", first at n = {n[bad[0]]}" if bad.size else ""),
        )
        return n.size

    def _verify_corollary(self, op, text: str) -> int:
        nmax = int(op.arg("--nmax"))
        n, w = self._witnesses(text, 3, nmax)
        self.sieve.cover(2 * nmax + 4)
        primes = self.sieve.primes
        expected = primes[np.searchsorted(primes, n, side="right")]
        _require(np.all(3 * expected < 4 * (n + 2)), "a window (n, 4(n+2)/3) holds no prime")
        bad = np.flatnonzero(w != expected)
        _require(
            bad.size == 0,
            f"{bad.size} witnesses are not the smallest prime > n"
            + (f", first at n = {n[bad[0]]}" if bad.size else ""),
        )
        return n.size

    def window_primes(self, nmin: int, nmax: int) -> int:
        """Sum over n of the primes in (sqrt(4n), 3n], which the 22 windows tile."""
        n = np.arange(nmin, nmax + 1)
        roots = np.array([math.isqrt(4 * k) for k in range(nmin, nmax + 1)])
        return int(np.sum(self.sieve.pi(3 * n) - self.sieve.pi(roots)))

    def _observations(self, op, text: str) -> int:
        nmin, nmax = int(op.arg("--nmin")), int(op.arg("--nmax"))
        report = json.loads(text)
        _require(report["n_min"] == nmin and report["n_max"] == nmax, "range not echoed")
        _require(report["tiling_ok"] is True, "tiling_ok is not true")
        _require(report["contract_violations"] == 0, "contract violations reported")
        claims = report["claims"]
        _require([c["id"] for c in claims] == list(range(1, 23)), "claims are not 1..22")
        for c in claims:
            _require(
                c["minimal_valid_n"] == nmin,
                f"claim {c['id']}: minimal_valid_n {c['minimal_valid_n']} != {nmin}",
            )
            _require(
                not c["claim_failures"] and not c["chain_failures"],
                f"claim {c['id']} reports failures",
            )
        checked = sum(c["primes_checked"] for c in claims)
        expected = self.window_primes(nmin, nmax)
        _require(checked == expected, f"primes_checked sums to {checked}, sieve gives {expected}")
        return 22 * (nmax - nmin + 1)

    def _decompose(self, op, text: str) -> int:
        n = int(op.arg("--n"))
        report = json.loads(text)
        _require(report["n"] == n, "n not echoed")
        verdicts = 0
        for name, value in report["checks"].items():
            _require(
                value == "pass" or "not applicable" in value,
                f"check {name} is {value!r}",
            )
            verdicts += value == "pass"
        t1, t2, t3 = (report[k] for k in ("t1_factors", "t2_factors", "t3_factors"))
        self.sieve.cover(4 * n)
        is_prime = set(self.sieve.between(0, 4 * n))
        for name, factors, inside in (
            ("T1", t1, lambda p: p * p <= 4 * n),
            ("T2", t2, lambda p: p * p > 4 * n and p <= 3 * n),
            ("T3", t3, lambda p: p > 3 * n),
        ):
            for p, e in factors:
                _require(p in is_prime and e >= 1 and inside(p), f"{name} factor {p}^{e}")
        _require(
            [p for p, _ in t3] == self.sieve.between(3 * n, 4 * n)
            and all(e == 1 for _, e in t3),
            "T3 is not the product of the primes in (3n, 4n]",
        )
        product = math.prod(p**e for p, e in t1 + t2 + t3)
        _require(product == math.comb(4 * n, 3 * n), "T1*T2*T3 != C(4n, 3n)")
        ln_binom = math.lgamma(4 * n + 1) - math.lgamma(3 * n + 1) - math.lgamma(n + 1)
        _close(report["ln_t1"] + report["ln_t2"] + report["ln_t3"], ln_binom, ln_binom,
               "ln T1 + ln T2 + ln T3")
        bounds = report["bound_report"]
        expected, scale = ln_t3_lower(n)
        _close(bounds["ln_T3_lower"], expected, scale, "ln_T3_lower")
        return verdicts

    def _lower_bound(self, op, text: str) -> int:
        n = int(op.arg("--n"))
        report = json.loads(text)
        _require(report["n"] == n, "n not echoed")
        actual = len(self.sieve.between(3 * n, 4 * n - 1))
        _require(report["actual"] == actual, f"actual {report['actual']} != sieve count {actual}")
        value, scale = ln_t3_lower(n)
        ln4n = math.log(4 * n)
        _close(report["bound"], value / ln4n, scale / ln4n, "bound")
        _require(report["satisfied"] is True and actual >= report["bound"], "bound not satisfied")
        return 1

    def _verify_analytic(self, op, text: str) -> int:
        samples = [int(s) for s in op.arg("--samples").split(",")]
        report = json.loads(text)
        _require(report["samples"] == samples, "samples not echoed")
        values = report["ln_t3_lower"]
        _require(len(values) == len(samples), "one value per sample expected")
        for s, v in zip(samples, values):
            expected, scale = ln_t3_lower(s)
            _close(v, expected, scale, f"ln_t3_lower({s})")
        diffs = [b - a for a, b in zip(values, values[1:])]
        _require(report["first_differences"] == diffs, "first differences do not match")
        _require(all(v > 0 for v in values) and all(d > 0 for d in diffs),
                 "ladder is not positive and increasing")
        _require(report["all_positive"] is True and report["strictly_increasing"] is True,
                 "ladder verdicts are not true")
        return 2 * len(samples) - 1


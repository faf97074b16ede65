"""Tests of the benchmark itself: the oracle accepts the program's outputs
and rejects corrupted ones, and the seed fixes the operation lists.

Run from the root of a source checkout:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import prime34.cli  # noqa: E402
from oracle import Oracle, OracleError  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ROUNDS, Op, round_ops  # noqa: E402


def _output(op: Op) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        if prime34.cli.main(op.argv(out)) != 0:
            raise RuntimeError(f"{op} failed")
        return Path(out).read_text()


DIRECT = Op("verify-direct", ("--nmax", "3000", "--witnesses", "--format", "csv"))
COROLLARY = Op("verify-corollary", ("--nmax", "3000", "--witnesses", "--format", "csv"))
OBS_JSON = Op("observations", ("--nmin", "1000", "--nmax", "1019", "--format", "json"))
DECOMPOSE = Op("decompose", ("--n", "1234"))
LOWER = Op("lower-bound", ("--n", "777"))
LADDER = Op("verify-analytic", ("--samples", ",".join(str(170000 << k) for k in range(6))))


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.oracle = Oracle()
        cls.text = {op: _output(op) for op in (DIRECT, COROLLARY, OBS_JSON, DECOMPOSE, LOWER, LADDER)}

    def rejects(self, op, text):
        with self.assertRaises(OracleError):
            self.oracle.check(op, text)

    def test_accepts_program_outputs(self):
        verdicts = {op: self.oracle.check(op, text) for op, text in self.text.items()}
        self.assertEqual(verdicts[DIRECT], 3000)
        self.assertEqual(verdicts[COROLLARY], 2998)
        self.assertEqual(verdicts[OBS_JSON], 22 * 20)
        self.assertEqual(verdicts[LADDER], 11)

    def test_window_prime_count_on_1000_to_1019(self):
        self.assertEqual(self.oracle.window_primes(1000, 1019), 8316)

    def test_rejects_witness_moved_to_next_prime(self):
        lines = self.text[DIRECT].split("\n")
        n, p = map(int, lines[500].split(","))
        lines[500] = f"{n},{self.oracle.sieve.between(p, 4 * n)[0]}"
        self.rejects(DIRECT, "\n".join(lines))

    def test_rejects_corollary_witness_moved_to_next_prime(self):
        lines = self.text[COROLLARY].split("\n")
        n, p = map(int, lines[700].split(","))
        lines[700] = f"{n},{self.oracle.sieve.between(p, 2 * p)[0]}"
        self.rejects(COROLLARY, "\n".join(lines))

    def test_rejects_primes_checked_off_by_one(self):
        report = json.loads(self.text[OBS_JSON])
        report["claims"][9]["primes_checked"] += 1
        self.rejects(OBS_JSON, json.dumps(report))

    def test_rejects_dropped_t3_factor(self):
        report = json.loads(self.text[DECOMPOSE])
        del report["t3_factors"][3]
        self.rejects(DECOMPOSE, json.dumps(report))

    def test_rejects_perturbed_ladder_value(self):
        report = json.loads(self.text[LADDER])
        report["ln_t3_lower"][2] *= 1 + 1e-6
        self.rejects(LADDER, json.dumps(report))

    def test_rejects_malformed_output(self):
        self.rejects(LOWER, "{}")
        self.rejects(DIRECT, "n,witness\n1,3\n2,x\n")

    def test_rejects_wrong_prime_count(self):
        report = json.loads(self.text[LOWER])
        report["actual"] -= 1
        self.rejects(LOWER, json.dumps(report))


class TracingTest(unittest.TestCase):
    def test_traced_counts_match_the_work(self):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.active = True
            _output(OBS_JSON)
            # an n no other test uses, so the absorber cache cannot hide gen_binomial
            _output(Op("decompose", ("--n", "2345")))
            tracer.active = False
        finally:
            tracer.uninstall()
        totals = tracer.take_round()
        self.assertEqual(totals["cli.main.calls"], 2)
        self.assertEqual(totals["sweeps.n_scanned"], 20)
        self.assertEqual(totals["claims.check_claim.calls"], 22 * 20)
        self.assertEqual(
            totals["claims.check_claim.primes_checked"], Oracle().window_primes(1000, 1019)
        )
        self.assertEqual(totals["sieve.primes_in.primes"], totals["claims.check_claim.primes_checked"])
        self.assertEqual(totals["exact.decompose.calls"], 2)  # the report and check_t1_bound
        self.assertEqual(totals.get("bounds.ln_eval.escalated", 0), 0)
        self.assertGreater(totals["bounds.ln_eval.calls"], 0)
        self.assertGreater(totals["sieve.build_sieve.peak_mib"], 0)
        names = {span[2] for span in tracer.spans}
        self.assertTrue({"cli.main", "sweeps", "claims.check_claim", "exact.gen_binomial"} <= names)
        # every span but the two cli.main roots lies inside its parent
        spans = {span[0]: span for span in tracer.spans}
        for sid, parent, name, start, end in tracer.spans:
            if parent == -1:
                self.assertEqual(name, "cli.main")
            else:
                self.assertTrue(spans[parent][3] <= start <= end <= spans[parent][4])


class WorkloadTest(unittest.TestCase):
    def test_one_seed_gives_the_same_operations(self):
        for workload in ROUNDS:
            for index in range(3):
                self.assertEqual(round_ops(workload, 7, index), round_ops(workload, 7, index))

    def test_two_seeds_give_different_operations(self):
        for workload in ROUNDS:
            self.assertNotEqual(round_ops(workload, 7, 0), round_ops(workload, 8, 0))

    def test_consecutive_operations_differ(self):
        for workload in ROUNDS:
            ops = [op for index in range(4) for op in round_ops(workload, 7, index)]
            for a, b in zip(ops, ops[1:]):
                self.assertNotEqual(a.args, b.args)


if __name__ == "__main__":
    unittest.main()

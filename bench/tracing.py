"""Per-layer tracing of prime34 from outside the program.

``Tracer.install`` wraps the public functions of each layer wherever they
are looked up: ``sweeps`` and ``claims`` import their callees by name, so a
name is patched in every module namespace that calls it.  Each wrapped call
records a span (id, parent id, name, start, end); a layer's self time is
its span minus its child spans.  Spans of the first round are kept in
memory and written out when the run ends; later rounds only add to
per-round totals.

Worker processes are not traced: a forked worker inherits the wrappers, but
tracing stops at the fork, and the parent measures workers through their
rusage.
"""

from __future__ import annotations

import inspect
import os
import tracemalloc
from collections import defaultdict
from time import perf_counter

# Per-layer metrics in output order, with their units.
METRICS = {
    "sieve.build_sieve.calls": "count",
    "sieve.build_sieve.self_s": "s",
    "sieve.build_sieve.units": "count",
    "sieve.build_sieve.peak_mib": "MiB",
    "sieve.primes_in.calls": "count",
    "sieve.primes_in.self_s": "s",
    "sieve.primes_in.primes": "count",
    "claims.check_claim.calls": "count",
    "claims.check_claim.self_s": "s",
    "claims.check_claim.primes_checked": "count",
    "claims.check_chain.calls": "count",
    "claims.check_chain.self_s": "s",
    "exact.absorber_valuation.calls": "count",
    "exact.absorber_valuation.self_s": "s",
    "exact.decompose.calls": "count",
    "exact.decompose.self_s": "s",
    "exact.gen_binomial.calls": "count",
    "exact.gen_binomial.self_s": "s",
    "exact.check_t2_divisibility_bound.self_s": "s",
    "exact.check_t1_bound.self_s": "s",
    "bounds.ln_eval.calls": "count",
    "bounds.ln_eval.self_s": "s",
    "bounds.ln_eval.escalated": "count",
    "bounds.less_than.calls": "count",
    "bounds.less_than.undecided": "count",
    "bounds.build_bound_report.self_s": "s",
    "sweeps.self_s": "s",
    "sweeps.n_scanned": "count",
    "cli.main.self_s": "s",
    "cli.bytes_out": "B",
    "trace.wall_s": "s",
}

# The report drivers the CLI calls; n_scanned counts the n of the sweeps.
_SWEEP_DRIVERS = {
    "verify_direct": lambda a: a["n_max"],
    "verify_corollary": lambda a: a["n_max"] - 2,
    "observations_sweep": lambda a: a["n_max"] - a["n_min"] + 1,
    "lower_bound_report": lambda a: 0,
    "analytic_report": lambda a: 0,
    "decompose_report": lambda a: 0,
}


def _arguments(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Spans and per-round totals for one traced run."""

    def __init__(self):
        self.active = False
        self.first_round = True
        self.paused = 0.0
        self.spans = []
        self.totals = defaultdict(float)
        self._stack = []
        self._patches = []
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.active = False

    def clock(self) -> float:
        """perf_counter minus the time spent measuring sieve memory."""
        return perf_counter() - self.paused

    def wrap(self, name: str, fn, after=None):
        """fn inside a span named ``name``; ``after(args, kwargs, result)``
        adds the call's counts to ``totals``."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [self.clock(), 0.0, len(self.spans)]
            parent = self._stack[-1][2] if self._stack else -1
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                duration = end - frame[0]
                self.totals[name + ".calls"] += 1
                self.totals[name + ".self_s"] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                if self.first_round:
                    self.spans.append((frame[2], parent, name, frame[0], end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owners, attr, replacement) -> None:
        for owner in owners:
            if isinstance(owner, dict):
                self._patches.append((owner, attr, owner[attr]))
                owner[attr] = replacement
            else:
                self._patches.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def take_round(self) -> dict:
        """This round's totals; starts the next round."""
        totals, self.totals = dict(self.totals), defaultdict(float)
        self.first_round = False
        return totals

    def install(self) -> None:
        """Wrap the traced functions of the imported prime34 package."""
        from prime34 import bounds, claims, cli, exact, sieve, sweeps

        build = sieve.build_sieve

        def after_build(args, kwargs, result):
            self.totals["sieve.build_sieve.units"] += result.limit + 1
            if self.first_round:
                # tracemalloc slows the build thirtyfold, so the peak is
                # measured on a second, untimed build of the first round only
                start = perf_counter()
                tracemalloc.start()
                build(result.limit)
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.paused += perf_counter() - start
                key = "sieve.build_sieve.peak_mib"
                self.totals[key] = max(self.totals[key], peak)

        def after_primes_in(args, kwargs, result):
            self.totals["sieve.primes_in.primes"] += len(result)

        def after_check_claim(args, kwargs, result):
            self.totals["claims.check_claim.primes_checked"] += result.primes_checked

        def after_less_than(args, kwargs, result):
            self.totals["bounds.less_than.undecided"] += result is None

        self._patch((sieve, sweeps), "build_sieve", self.wrap("sieve.build_sieve", build, after_build))
        self._patch(
            (sieve.PrimeSieve,),
            "primes_in",
            self.wrap("sieve.primes_in", sieve.PrimeSieve.primes_in, after_primes_in),
        )
        self._patch(
            (claims, sweeps),
            "check_claim",
            self.wrap("claims.check_claim", claims.check_claim, after_check_claim),
        )
        self._patch((claims, sweeps), "check_chain", self.wrap("claims.check_chain", claims.check_chain))
        self._patch(
            (exact, claims),
            "absorber_valuation",
            self.wrap("exact.absorber_valuation", exact.absorber_valuation),
        )
        self._patch((exact, sweeps), "decompose", self.wrap("exact.decompose", exact.decompose))
        self._patch((exact,), "gen_binomial", self.wrap("exact.gen_binomial", exact.gen_binomial))
        for name in ("check_t2_divisibility_bound", "check_t1_bound"):
            self._patch((exact, sweeps), name, self.wrap("exact." + name, getattr(exact, name)))

        for name, fn in inspect.getmembers(bounds, callable):
            if not name.startswith("ln_") or getattr(fn, "__module__", None) != bounds.__name__:
                continue

            def after_ln(args, kwargs, result, signature=inspect.signature(fn)):
                if _arguments(signature, args, kwargs)["prec"] > bounds.DEFAULT_PREC:
                    self.totals["bounds.ln_eval.escalated"] += 1

            wrapped = self.wrap("bounds.ln_eval", fn, after_ln)
            self._patch([m for m in (bounds, sweeps) if getattr(m, name, None) is fn], name, wrapped)
            for key, value in list(sweeps._ABSORBER_UPPER.items()):
                if value is fn:
                    self._patch((sweeps._ABSORBER_UPPER,), key, wrapped)

        self._patch(
            (bounds.LogReal,),
            "less_than",
            self.wrap("bounds.less_than", bounds.LogReal.less_than, after_less_than),
        )
        self._patch(
            (bounds, sweeps),
            "build_bound_report",
            self.wrap("bounds.build_bound_report", bounds.build_bound_report),
        )
        for name, scanned in _SWEEP_DRIVERS.items():
            fn = getattr(sweeps, name)

            def after_sweep(args, kwargs, result, signature=inspect.signature(fn), scanned=scanned):
                self.totals["sweeps.n_scanned"] += scanned(_arguments(signature, args, kwargs))

            self._patch((cli,), name, self.wrap("sweeps", fn, after_sweep))
        self._patch((cli,), "main", self.wrap("cli.main", cli.main))


"""Computational verification that the interval [3n, 4n] always contains a
prime: an exact finite sweep below the analytic threshold, an exact
decomposition C(4n,3n) = T1*T2*T3 with divisibility absorbers, and
log-domain Stirling bounds that force T3 (hence the prime count in
(3n, 4n)) to grow without bound.

The names below are imported from their home module on first access
(PEP 562), so ``import prime34`` loads no submodule and a command loads
only the modules it runs."""

from importlib import import_module

# Each exported name, by the module that defines it.
_EXPORTS = {
    "bounds": """
        BoundReport DEFAULT_PREC LogReal M_CORRECTION_NOTE MAX_PREC
        build_bound_report check_factorial_sandwich count_lower_bound
        count_lower_bound_simplified default_h1_grid default_h2_grid e_term
        factorial_sandwich_sweep ln_a_upper ln_b_upper ln_binom_lower
        ln_c_upper ln_d_upper ln_f ln_factorial ln_g ln_m ln_m_rate_identity
        ln_of_int ln_t1_upper ln_t3_lower ln_t3_lower_intermediate
        replacement_minimal_n replacement_step_holds scan_h1_monotone
        scan_h2_unimodal simplified_bound_minimal_n t3_positive_minimal_n
    """,
    "claims": """
        BETA_ZERO ClaimResult ClaimSpec CONSEQUENCES DIVIDES_A DIVIDES_B
        DIVIDES_C DIVIDES_D PRIMORIAL_16TH check_chain check_claim
        check_tiling claim_table claim_to_dict minimal_valid_n parse_chain
    """,
    "errors": """
        CapacityError ConsistencyError CoverageError DomainError
        PrecisionError
    """,
    "exact": """
        Decomposition GenBinomIndex ValuationMap absorber absorber_index
        absorber_valuation beta beta_at_most_one check_t1_bound
        check_t2_divisibility_bound decompose delta gen_binomial is_prime_int
        legendre_valuation t2_bound_minimal_n
    """,
    "sieve": """
        MEMORY_CAP PrimeSieve Rational build_sieve check_pi_bound
        check_primorial_bound
    """,
    "sweeps": """
        CONTRACT_N DEFAULT_ANALYTIC_SAMPLES DEFAULT_DIRECT_NMAX
        EXACT_CHECK_CUTOFF ClaimSweepEntry ObservationsReport SweepReport
        absorber_below_bound analytic_report decompose_report
        lower_bound_report observations_csv_lines observations_sweep
        observations_to_json_dict sweep_csv_lines sweep_csv_text
        sweep_to_json_dict verify_corollary verify_direct
    """,
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the home module of an exported name, or a submodule, on first
    access; an exported name is then bound here, so the lookup runs once."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})

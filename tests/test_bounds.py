import inspect
import math
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv, mp, mpf

from prime34 import (
    BoundReport,
    ConsistencyError,
    DomainError,
    LogReal,
    M_CORRECTION_NOTE,
    PrecisionError,
    build_bound_report,
    check_factorial_sandwich,
    count_lower_bound,
    count_lower_bound_simplified,
    default_h1_grid,
    default_h2_grid,
    e_term,
    factorial_sandwich_sweep,
    ln_a_upper,
    ln_b_upper,
    ln_binom_lower,
    ln_c_upper,
    ln_d_upper,
    ln_f,
    ln_factorial,
    ln_g,
    ln_m,
    ln_m_rate_identity,
    ln_of_int,
    ln_t1_upper,
    ln_t3_lower,
    ln_t3_lower_intermediate,
    replacement_minimal_n,
    replacement_step_holds,
    scan_h1_monotone,
    scan_h2_unimodal,
    simplified_bound_minimal_n,
    t3_positive_minimal_n,
)
from prime34 import (
    CoverageError,
    beta,
    beta_at_most_one,
    build_sieve,
    check_pi_bound,
    decompose,
)
from prime34 import bounds, sweeps
from prime34.bounds import _all_less, _decide


def close(value, expected, tol=1e-9):
    return abs(float(value) - expected) <= tol


def test_logreal_algebra():
    a = LogReal(mpf(2), mpf("1e-20"), 128)
    b = LogReal(mpf(1), mpf("1e-20"), 128)
    total = a + b
    assert close(total.ln_value, 3.0, 1e-15)
    assert total.err >= a.err + b.err
    diff = a - b
    assert close(diff.ln_value, 1.0, 1e-15)
    tripled = a.scaled(3)
    assert close(tripled.ln_value, 6.0, 1e-15)
    assert tripled.err >= 3 * a.err


def test_logreal_comparisons_respect_error_bands():
    a = LogReal(mpf(1), mpf("1e-3"), 128)
    near = LogReal(mpf("1.0005"), mpf("1e-3"), 128)
    far = LogReal(mpf(2), mpf("1e-3"), 128)
    assert a.less_than(far) is True
    assert far.less_than(a) is False
    assert a.less_than(near) is None  # inside the joint band
    assert a.consistent_with(near)
    assert not a.consistent_with(far)


def test_decide_escalates_then_raises():
    calls = []

    def attempt(prec):
        calls.append(prec)
        return True if prec > 128 else None

    assert _decide(attempt, 128) is True
    assert calls == [128, 256]
    with pytest.raises(Exception) as err:
        _decide(lambda prec: None, 128)
    assert "undecided" in str(err.value)


def test_all_less_precedence():
    low, high = LogReal(0, 0, 128), LogReal(1, 0, 128)
    band = LogReal(mpf("0.5"), 1, 128)  # overlaps both
    assert _all_less([]) is True
    assert _all_less([(low, high), (low, high)]) is True
    assert _all_less([(low, high), (low, band)]) is None  # None beats True
    assert _all_less([(low, band), (high, low)]) is False  # False beats None
    assert _all_less([(high, low), (low, band)]) is False


def test_ln_f_and_ln_g_values():
    assert close(ln_f(1).ln_value, 0.002271866538006075)
    assert close(ln_g(1).ln_value, -0.0041383898722503355)
    with pytest.raises(DomainError):
        ln_f(0)
    with pytest.raises(DomainError):
        ln_g(Fraction(-1, 2))
    # f and g sandwich from both sides, so f > g pointwise
    for x in (Fraction(1, 2), 1, 7, 100, 5000):
        assert ln_g(x).less_than(ln_f(x)) is True


def test_ln_factorial_matches_lgamma():
    for n in (0, 1, 2, 5, 100, 2000):
        expected = math.lgamma(n + 1)
        assert abs(float(ln_factorial(n).ln_value) - expected) <= 1e-9 * max(
            1.0, expected
        )


def test_factorial_sandwich_strict():
    assert check_factorial_sandwich(1)
    assert check_factorial_sandwich(5)
    assert factorial_sandwich_sweep(500) == []
    with pytest.raises(DomainError):
        check_factorial_sandwich(0)


def test_h1_scan():
    grid = default_h1_grid(points=25)
    for c in (Fraction(1, 12), Fraction(1, 3), 1, 10):
        assert scan_h1_monotone(c, grid)
    with pytest.raises(DomainError):
        scan_h1_monotone(Fraction(1, 13), grid)
    with pytest.raises(DomainError):
        scan_h1_monotone(1, [])
    with pytest.raises(DomainError):
        scan_h1_monotone(1, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(DomainError):
        scan_h1_monotone(1, [Fraction(1, 4), Fraction(1, 2)])


def test_h2_scan():
    for c in (2, 10):
        assert scan_h2_unimodal(c, default_h2_grid(c, points=40))
    with pytest.raises(DomainError):
        scan_h2_unimodal(Fraction(1, 2), [Fraction(1, 2)])
    with pytest.raises(DomainError):
        # grid escapes [1/2, c - 1/2]
        scan_h2_unimodal(2, [Fraction(1, 2), Fraction(8, 5)])


def test_binom_lower_bound_value_and_cross_route():
    assert close(ln_binom_lower(1).ln_value, 1.383540133650646, 1e-12)
    # below ln C(4,3) = ln 4
    assert float(ln_binom_lower(1).ln_value) < math.log(4)
    for n in (1, 10, 137, 2000):
        exact = math.lgamma(4 * n + 1) - math.lgamma(3 * n + 1) - math.lgamma(n + 1)
        assert float(ln_binom_lower(n).ln_value) < exact
    with pytest.raises(DomainError):
        ln_binom_lower(0)


def test_absorber_upper_bound_domains():
    for fn in (ln_a_upper, ln_b_upper):
        assert fn(1).ln_value > 0
        with pytest.raises(DomainError):
            fn(0)
    with pytest.raises(DomainError):
        ln_c_upper(221)
    with pytest.raises(DomainError):
        ln_d_upper(52)
    assert ln_c_upper(222) and ln_d_upper(53)


def test_domains_are_derived_from_the_lead_factors():
    first = {name: bounds._first_n(form) for name, form in bounds._FORMS.items()}
    assert first == {"binomial": 1, "A": 1, "B": 1, "C": 222, "D": 53}
    assert bounds.T3_N_MIN == 222
    for name, fn in {"binomial": ln_binom_lower, **sweeps._ABSORBER_UPPER}.items():
        assert fn(first[name])
        with pytest.raises(DomainError) as refused:
            fn(first[name] - 1)
        # sweeps._outcome reads "pole" as "pole: not applicable"
        assert ("pole" in str(refused.value)) == (name in ("C", "D"))
    for fn in (ln_t3_lower, ln_t3_lower_intermediate):
        with pytest.raises(DomainError):
            fn(221)
    # a constant factor must be positive, or no n would be in the domain
    for form in bounds._FORMS.values():
        for a, b in chain(*form.lead):
            assert a > 0 or b > 0


def test_table_composes_to_the_printed_t3_constants():
    n = sympy.Symbol("n", positive=True)

    def lead(name):
        num, den = bounds._FORMS[name].lead
        return sympy.Mul(*(a * n + b for a, b in num)) / sympy.Mul(*(a * n + b for a, b in den))

    def prefactor(name):
        return lead(name) / sympy.sqrt(bounds._FORMS[name].k * sympy.pi * n)

    leads = sympy.Mul(*(lead(name) for name in "ABCD"))
    product = (
        16640 * n**3 * (3 * n + 2) * (3 * n + 13) * (4 * n + 15)
        / ((n - 221) * (2 * n - 105))
    )
    assert sympy.cancel(leads - product) == 0
    # T3 = C(4n, 3n) / (T1 4^(n/6) A B C D): the sqrt(k pi n) terms and the
    # leads leave the intermediate form's printed 4160 and R(n)
    r = (n - 221) * (2 * n - 105) / ((3 * n + 2) * (3 * n + 13) * (4 * n + 15))
    t3 = prefactor("binomial") / sympy.Mul(*(prefactor(name) for name in "ABCD"))
    half = sympy.Rational(1, 2)
    printed = sympy.sqrt(3) * sympy.pi ** (3 * half) / 4160 * r * n ** (-3 * half)
    assert sympy.simplify(t3 / printed) == 1
    # the replacement step R(n) >= 1/(80n) turns 4160 into the final 332800
    assert 332800 == 80 * 4160
    c = bounds._constants(128)
    shift = LogReal.from_interval(c.t3_prefactor_intermediate - c.t3_prefactor, 128)
    assert shift.consistent_with(ln_of_int(80, 128))
    for k in range(222, 5001):
        exact = Fraction((k - 221) * (2 * k - 105), (3 * k + 2) * (3 * k + 13) * (4 * k + 15))
        assert replacement_step_holds(k) == (exact >= Fraction(1, 80 * k)), k


def test_t1_upper_is_sqrtn_log():
    assert close(ln_t1_upper(100).ln_value, 10 * math.log(400), 1e-12)


def test_e_term_frozen_values_and_trend():
    assert close(e_term(1), 1.897561553875, 1e-10)
    assert close(e_term(163000), 1.421985001826e-4, 1e-14)
    assert close(e_term(10**6), 2.318019691885e-5, 1e-15)
    assert close(e_term(10**9), 2.318055519691e-8, 1e-18)
    assert abs(float(e_term(10**9))) < 1e-7
    # n * E(n) approaches a constant; spot the scale
    assert 23.0 < 10**9 * float(e_term(10**9)) < 23.4
    with pytest.raises(DomainError):
        e_term(0)


def test_growth_constant():
    value = float(ln_m().ln_value)
    assert close(value, 0.0515010009807165, 1e-13)
    assert value > 0  # M > 1 drives the bound to infinity
    assert ln_m_rate_identity()
    assert "256/27" in M_CORRECTION_NOTE and "256/7" in M_CORRECTION_NOTE


def test_growth_constant_independent_route():
    # ten factors summed independently in float arithmetic
    oracle = (
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
    assert abs(float(ln_m().ln_value) - oracle) < 1e-12


def test_replacement_step_threshold():
    assert replacement_minimal_n() == 307
    assert not replacement_step_holds(306)
    assert replacement_step_holds(307)
    assert replacement_step_holds(10**6)


def test_t3_lower_bound_values():
    assert close(ln_t3_lower(162755).ln_value, 2941.176096850671, 1e-6)
    assert close(ln_t3_lower(10**6).ln_value, 36254.2084124, 1e-4)
    assert float(ln_t3_lower(300).ln_value) < 0  # negative until far out
    with pytest.raises(DomainError):
        ln_t3_lower(221)


def test_t3_final_vs_intermediate_form():
    # wherever the prefactor replacement holds, the final form is smaller
    for n in (307, 1000, 162755):
        assert ln_t3_lower(n).less_than(ln_t3_lower_intermediate(n)) is True
    # before the replacement threshold the final form may exceed it
    assert ln_t3_lower_intermediate(250).less_than(ln_t3_lower(250)) is True


def test_count_lower_bound_values():
    assert close(count_lower_bound(222), -16.72979322, 1e-6)
    assert close(count_lower_bound(10**6), 2384.862100610811, 1e-6)
    assert close(count_lower_bound_simplified(10**6), 1311.2117, 1e-3)
    with pytest.raises(DomainError):
        count_lower_bound(221)


def test_simplified_bound_threshold():
    # the simplified form only drops below the exact form from here on
    assert simplified_bound_minimal_n(59000) == 58198
    assert count_lower_bound_simplified(58198) <= count_lower_bound(58198)
    assert count_lower_bound_simplified(58197) > count_lower_bound(58197)


def test_e_term_exact_values():
    assert e_term(1) == Fraction(845258813, 445444740)
    assert e_term(221) == Fraction(
        44632442067616205934062210291, 455023917459249503110249746060
    )


def test_simplified_threshold_follows_the_interval_evaluator(monkeypatch):
    assert simplified_bound_minimal_n(58300, n_min=58000) == 58198
    exact = bounds.ln_t3_lower
    # every n is decided from ln_t3_lower's interval, so halving T3 moves
    # the threshold up and doubling it moves the threshold down
    monkeypatch.setattr(bounds, "ln_t3_lower", lambda n, p=128: exact(n, p) - ln_of_int(2, p))
    assert simplified_bound_minimal_n(58300, n_min=58000) == 58271
    monkeypatch.setattr(bounds, "ln_t3_lower", lambda n, p=128: exact(n, p) + ln_of_int(2, p))
    assert simplified_bound_minimal_n(58300, n_min=58000) == 58125
    # with n_min at the threshold the scan ends there
    monkeypatch.setattr(bounds, "ln_t3_lower", exact)
    assert simplified_bound_minimal_n(58300, n_min=58198) == 58198


def test_t3_threshold_follows_the_interval_evaluator(monkeypatch):
    assert t3_positive_minimal_n(60000, n_min=59000) == 59201
    exact = bounds.ln_t3_lower
    # as for the simplified threshold: halving T3 moves it up, doubling down
    monkeypatch.setattr(bounds, "ln_t3_lower", lambda n, p=128: exact(n, p) - ln_of_int(2, p))
    assert t3_positive_minimal_n(60000, n_min=59000) == 59233
    monkeypatch.setattr(bounds, "ln_t3_lower", lambda n, p=128: exact(n, p) + ln_of_int(2, p))
    assert t3_positive_minimal_n(60000, n_min=59000) == 59170


def test_t3_positivity_threshold():
    assert t3_positive_minimal_n(60000) == 59201
    assert float(ln_t3_lower(59201).ln_value) > 0
    assert float(ln_t3_lower(59200).ln_value) < 0
    assert t3_positive_minimal_n(50000) is None
    assert t3_positive_minimal_n(60000, n_min=59300) == 59300


def test_simplified_bound_threshold_rejects_empty_range():
    with pytest.raises(DomainError):
        simplified_bound_minimal_n(100)  # [222, 100] is empty
    assert simplified_bound_minimal_n(222, n_min=222) is None


def test_t3_positivity_threshold_rejects_empty_range():
    with pytest.raises(DomainError):
        t3_positive_minimal_n(100)  # [222, 100] is empty
    assert t3_positive_minimal_n(222, n_min=222) is None


def test_bound_report_shape_and_validation():
    report = build_bound_report(300)
    assert isinstance(report, BoundReport)
    d = report.to_json_dict()
    assert d["n"] == 300
    assert d["m_constant_note"] == M_CORRECTION_NOTE
    assert d["ln_T3_lower"] < 0 < d["ln_binom_lower"]
    # a corrupted report must fail chain validation
    broken = BoundReport(
        n=300,
        ln_binom_lower=ln_binom_lower(301),
        ln_A_upper=report.ln_A_upper,
        ln_B_upper=report.ln_B_upper,
        ln_C_upper=report.ln_C_upper,
        ln_D_upper=report.ln_D_upper,
        ln_T1_upper=report.ln_T1_upper,
        e_term=report.e_term,
        ln_T3_lower=report.ln_T3_lower,
        count_lower_bound=report.count_lower_bound,
    )
    with pytest.raises(ConsistencyError):
        broken.validate()


def test_validate_escalates_an_overlapping_final_form(monkeypatch):
    report = build_bound_report(1000)
    intermediate = bounds.ln_t3_lower_intermediate

    # still consistent with the chain, but overlapping the final form at
    # every precision: validate must escalate, not accept
    def widened(n, prec):
        return LogReal(intermediate(n, prec).ln_value, 10, prec)

    monkeypatch.setattr(bounds, "ln_t3_lower_intermediate", widened)
    with pytest.raises(PrecisionError):
        report.validate()


def test_validate_rejects_a_final_form_above_the_intermediate_form():
    # from n = 307 the replacement step holds, so the final T3 form must
    # lie below the intermediate one
    report = build_bound_report(1000)
    prec = report.ln_T3_lower.prec
    intermediate = bounds.ln_t3_lower_intermediate(1000, prec)
    raised = LogReal(intermediate.ln_value + 1, 0, prec)
    with pytest.raises(ConsistencyError, match="final T3 form exceeds"):
        replace(report, ln_T3_lower=raised).validate()


def test_binom_lower_bound_routes_must_agree(monkeypatch):
    ln_g = bounds.ln_g
    monkeypatch.setattr(bounds, "ln_g", lambda x, prec: ln_g(x, prec).scaled(2))
    with pytest.raises(ConsistencyError, match="routes disagree"):
        ln_binom_lower(1000, 131)  # a precision no other call has cached


def test_floats_are_refused():
    # ints and Fractions only, as in primes_in and GenBinomIndex
    for call in (
        lambda: ln_f(1.5),
        lambda: scan_h1_monotone(0.5, default_h1_grid(points=3)),
        lambda: scan_h2_unimodal(2, [0.5, 1.5]),
        lambda: default_h2_grid(2.0),
    ):
        with pytest.raises(DomainError, match="expected an int or Fraction, got float"):
            call()


def test_ln_of_int():
    assert close(ln_of_int(1).ln_value, 0.0, 1e-20)
    assert close(ln_of_int(10**10).ln_value, 10 * math.log(10), 1e-12)
    with pytest.raises(DomainError):
        ln_of_int(0)
    with pytest.raises(DomainError):
        ln_of_int(Fraction(3, 2))


def test_threshold_scans_reject_n_below_222():
    # the T3 bound and the count bound are undefined below 222
    for n_min in (1, 2, 221):
        with pytest.raises(DomainError):
            simplified_bound_minimal_n(300, n_min=n_min)
        with pytest.raises(DomainError):
            t3_positive_minimal_n(300, n_min=n_min)


ENCLOSURE_NS = (222, 1000, 162755, 162755 * 2**14)


def _reference_forms(n):
    """Every closed form at n, written out again in mpmath.mp at 1024 bits."""
    with mp.workprec(1024):
        ln, pi, q = mp.log, mp.pi, mp.mpf

        def stirling(x, shift):
            return ln(2 * pi) / 2 + (x + q(1) / 2) * ln(x) - x + 1 / (12 * x + shift)

        rate_a = 4 * ln(4) / 3 - ln(3)
        rate_b = ln(16) - 3 * ln(3) / 2
        rate_c = ln(221) / 221 + 3 * ln(q(13) / 3) / 13 + 4 * ln(q(4) / 17) / 17
        rate_d = 2 * ln(q(105) / 2) / 105 + 4 * ln(q(15) / 4) / 15 + 2 * ln(q(2) / 7) / 7
        lm = ln(q(256) / 27) - rate_a - rate_b - rate_c - rate_d - ln(4) / 6
        e = q(e_term(n).numerator) / e_term(n).denominator
        t3_common = e + n * lm - mp.sqrt(n) * ln(4 * n)
        prefactor = ln(mp.sqrt(3) * pi**1.5)
        return {
            ln_f: stirling(q(n), 0),
            ln_g: stirling(q(n), 1),
            ln_binom_lower: ln(2) - ln(6 * pi * n) / 2 + 1 / q(48 * n + 1)
            - 1 / q(36 * n) - 1 / q(12 * n) + n * ln(q(256) / 27),
            ln_a_upper: ln(q(4 * n) / 3) + ln(2 / (pi * n)) / 2 + 1 / q(16 * n)
            - 1 / q(12 * n + 1) - 1 / q(4 * n + 1) + n * rate_a,
            ln_b_upper: ln(12 * n + 8) - ln(3 * pi * n) / 2 + 1 / q(24 * n)
            - 1 / q(18 * n + 1) - 1 / q(6 * n + 1) + n * rate_b,
            ln_c_upper: ln(q(4 * n) / 17) + ln(51 * n + 221) - ln(n - 221) + ln(26)
            - ln(6 * pi * n) / 2 + q(17) / (48 * n) - q(13) / (36 * n + 13)
            - q(221) / (12 * n + 221) + n * rate_c,
            ln_d_upper: ln(4 * n * n + 15 * n) - ln(2 * n - 105) + ln(15)
            - ln(2 * pi * n) / 2 + q(7) / (24 * n) - q(5) / (16 * n + 5)
            - q(35) / (8 * n + 35) + n * rate_d,
            ln_t1_upper: mp.sqrt(n) * ln(4 * n),
            ln_t3_lower: prefactor - ln(332800) + t3_common - q(5) / 2 * ln(n),
            ln_t3_lower_intermediate: prefactor - ln(4160) + t3_common
            - q(3) / 2 * ln(n) + ln(n - 221) + ln(2 * n - 105) - ln(3 * n + 2)
            - ln(3 * n + 13) - ln(4 * n + 15),
            ln_m: lm,
        }


def _assert_encloses(value, reference):
    with mp.workprec(1024):  # the endpoints convert exactly
        lo, hi = mpf(value.interval.a), mpf(value.interval.b)
    assert value.prec == 128
    assert lo <= reference <= hi
    # an enclosure as wide as the value itself would prove nothing
    assert hi - lo <= mpf(2) ** -100 * max(1, abs(reference))


@pytest.mark.parametrize("n", ENCLOSURE_NS)
def test_closed_forms_are_enclosed_at_128_bits(n):
    for fn, reference in _reference_forms(n).items():
        _assert_encloses(fn(128) if fn is ln_m else fn(n, 128), reference)
    with mp.workprec(1024):
        _assert_encloses(ln_of_int(n**7 + 1, 128), mp.log(mp.mpf(n**7 + 1)))
        if n <= 1000:  # ln_factorial sums n logs
            _assert_encloses(ln_factorial(n, 128), mp.loggamma(n + 1))
            binom = math.comb(4 * n, 3 * n)
            _assert_encloses(ln_of_int(binom, 128), mp.log(mp.mpf(binom)))
        x = mp.mpf(n) / 3
        reference = mp.log(2 * mp.pi) / 2 + (x + 0.5) * mp.log(x) - x + 1 / (12 * x + 1)
        _assert_encloses(ln_g(Fraction(n, 3), 128), reference)


def test_escalation_sharpens_a_decision():
    low, high = 2**300, 2**300 + 1  # ln values 2^-300 apart
    assert ln_of_int(low, 128).less_than(ln_of_int(high, 128)) is None
    assert _decide(lambda p: ln_of_int(low, p).less_than(ln_of_int(high, p)), 128) is True
    assert _decide(lambda p: ln_of_int(high, p).less_than(ln_of_int(low, p)), 128) is False


def test_bound_functions_keep_the_traced_contract():
    # bench/tracing.py wraps every ln_* function of bounds and reads its
    # prec, patches LogReal.less_than on the class, and patches the
    # absorber bounds inside sweeps._ABSORBER_UPPER
    ln_functions = [
        fn
        for name, fn in inspect.getmembers(bounds, callable)
        if name.startswith("ln_") and getattr(fn, "__module__", None) == bounds.__name__
    ]
    assert len(ln_functions) >= 14
    for fn in ln_functions:
        assert "prec" in inspect.signature(fn).parameters, fn.__name__
    assert "less_than" in vars(bounds.LogReal)
    assert sweeps._ABSORBER_UPPER == {
        "A": bounds.ln_a_upper,
        "B": bounds.ln_b_upper,
        "C": bounds.ln_c_upper,
        "D": bounds.ln_d_upper,
    }


def test_traced_names_stay_in_every_module_that_calls_them():
    # bench/tracing.py also patches these names in each module that looks
    # them up, and the sweep drivers in cli; a refactor that drops one
    # leaves its layer untraced
    from prime34 import claims, cli, exact, sieve

    homes = {
        "build_sieve": (sieve, sweeps),
        "check_claim": (claims, sweeps),
        "check_chain": (claims, sweeps),
        "absorber_valuation": (exact, claims),
        "decompose": (exact, sweeps),
        "gen_binomial": (exact,),
        "check_t2_divisibility_bound": (exact, sweeps),
        "check_t1_bound": (exact, sweeps),
        "build_bound_report": (bounds, sweeps),
    }
    for name, (home, *callers) in homes.items():
        fn = getattr(home, name)
        assert callable(fn), name
        for module in callers:
            assert getattr(module, name) is fn, (module.__name__, name)
    assert "primes_in" in vars(sieve.PrimeSieve)
    # the drivers' n_scanned reads these arguments by name
    drivers = {
        "verify_direct": {"n_max"},
        "verify_corollary": {"n_max"},
        "observations_sweep": {"n_min", "n_max"},
        "lower_bound_report": set(),
        "analytic_report": set(),
        "decompose_report": set(),
    }
    for name, arguments in drivers.items():
        fn = getattr(cli, name)
        assert fn is getattr(sweeps, name)
        assert arguments <= set(inspect.signature(fn).parameters), name
    assert callable(cli.main)


@pytest.mark.parametrize(
    "change", [{"k": 3}, {"lead": (((16, 0),), ((0, 3),))}], ids=["k", "lead"]
)
def test_validate_checks_the_table_against_the_printed_t3_forms(monkeypatch, change):
    # 332800, 4160 and R(n) are kept as printed rather than derived from
    # _FORMS, so a changed row no longer recomposes to the intermediate form
    def clear_caches():
        for fn in vars(bounds).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()

    monkeypatch.setitem(bounds._FORMS, "A", bounds._FORMS["A"]._replace(**change))
    clear_caches()
    try:
        with pytest.raises(ConsistencyError, match="does not recompose"):
            build_bound_report(1000)
    finally:
        monkeypatch.undo()
        clear_caches()
    build_bound_report(1000).validate()


def _e_term_by_terms(n):
    """E(n) summed one Fraction per term: the binomial bound's corrections
    less those of the four absorber bounds, as their docstrings print them."""
    q = Fraction
    binomial = q(1, 48 * n + 1) - q(1, 36 * n) - q(1, 12 * n)
    absorbers = (
        q(1, 16 * n) - q(1, 12 * n + 1) - q(1, 4 * n + 1)
        + q(1, 24 * n) - q(1, 18 * n + 1) - q(1, 6 * n + 1)
        + q(17, 48 * n) - q(13, 36 * n + 13) - q(221, 12 * n + 221)
        + q(7, 24 * n) - q(5, 16 * n + 5) - q(35, 8 * n + 35)
    )
    return binomial - absorbers


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**15))
@example(1)
@example(221)
@example(10**15)
def test_e_term_is_the_sum_of_its_fifteen_terms(n):
    assert e_term(n) == _e_term_by_terms(n)


def _fraction_closed_form(name, n, prec):
    """A row of _FORMS as ln(lead) - ln(k pi n) / 2 + corrections + n ln rate,
    with the lead and the corrections reduced Fractions."""
    form = bounds._FORMS[name]
    lead = Fraction(*(math.prod(a * n + b for a, b in side) for side in form.lead))
    corr = sum((Fraction(c, a * n + b) for c, a, b in form.corrections), Fraction(0))
    rate = bounds._constants(prec).rates[name]
    with bounds._working(prec):
        v = iv.log(bounds._rational(lead)) - iv.log(form.k * iv.pi * n) / 2
        return v + bounds._rational(corr) + n * rate


def _fraction_t3_terms(n, prefactor, n_power, prec):
    """prefactor + E + n ln M - sqrt(n) ln 4n - n_power ln n, with E one
    reduced Fraction and every term evaluated afresh."""
    lm = ln_m(prec).interval
    with bounds._working(prec):
        tail = iv.sqrt(n) * iv.log(4 * n) + iv.mpf(n_power) * iv.log(n)
        return prefactor + bounds._rational(_e_term_by_terms(n)) + n * lm - tail


def _assert_overlaps_narrowly(value, interval):
    assert value.consistent_with(LogReal.from_interval(interval, 512))
    with mp.workprec(1024):
        lo, hi = mpf(value.interval.a), mpf(value.interval.b)
        assert hi - lo <= mpf(2) ** -100 * max(1, abs(lo))


@settings(max_examples=40, deadline=None)
@given(st.integers(222, 10**12))
@example(222)
@example(307)
@example(5000)
def test_integer_ratio_forms_overlap_the_fraction_forms_at_512_bits(n):
    for name in bounds._FORMS:
        _assert_overlaps_narrowly(
            bounds._closed_form(name, n, 128), _fraction_closed_form(name, n, 512)
        )
    wide, narrow = bounds._constants(128), bounds._constants(512)
    for prefactor, n_power in (("t3_prefactor", 2.5), ("t3_prefactor_intermediate", 1.5)):
        value = bounds._t3_terms(n, getattr(wide, prefactor), n_power, 128)
        _assert_overlaps_narrowly(
            LogReal.from_interval(value, 128),
            _fraction_t3_terms(n, getattr(narrow, prefactor), n_power, 512),
        )


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda s: check_pi_bound(s, 101), CoverageError, "beyond sieve limit"),
        (lambda s: beta(10, 9), DomainError, "not prime"),
        (lambda s: decompose(0, s), DomainError, "requires n >= 1"),
        (lambda s: beta_at_most_one(0, s), DomainError, "requires n >= 1"),
        (lambda s: ln_t1_upper(0), DomainError, "requires n >= 1"),
        (lambda s: ln_factorial(-1), DomainError, "requires n >= 0"),
        (lambda s: count_lower_bound_simplified(221), DomainError, "requires n >= 222"),
        (lambda s: default_h2_grid(Fraction(1, 2)), DomainError, "requires c >= 1"),
    ],
    ids=[
        "check_pi_bound", "beta", "decompose", "beta_at_most_one", "ln_t1_upper",
        "ln_factorial", "count_lower_bound_simplified", "default_h2_grid",
    ],
)
def test_input_guards_refuse(call, error, message):
    # each guard on an input it refuses, with a sieve to 100 where one is taken
    with pytest.raises(error, match=message):
        call(build_sieve(100))

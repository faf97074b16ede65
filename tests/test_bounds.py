import math
from fractions import Fraction

import pytest
from mpmath import mpf

from prime34 import (
    BoundReport,
    ConsistencyError,
    DomainError,
    LogReal,
    M_CORRECTION_NOTE,
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
from prime34.bounds import _decide


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
    row = report.to_csv_row()
    assert row[0] == "300" and len(row) == 10
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


def test_ln_of_int():
    assert close(ln_of_int(1).ln_value, 0.0, 1e-20)
    assert close(ln_of_int(10**10).ln_value, 10 * math.log(10), 1e-12)
    with pytest.raises(DomainError):
        ln_of_int(0)
    with pytest.raises(DomainError):
        ln_of_int(Fraction(3, 2))

import math
import sys
import time
from decimal import MAX_PREC, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction

import numpy as np
import pytest

import spherekernel.derivatives as derivatives
from spherekernel.asymptotics import (
    _PAIRINGS_OVERFLOW_ELL,
    asymptotic_ratio,
    build_leading_table,
    constant_ratios,
    even_binomial_sum,
    leading_rows,
    limit_constant_report,
    odd_binomial_sum,
    scaled_sum,
    trace_convergence,
)
from spherekernel.cli import main
from spherekernel.errors import UnsupportedRange


def test_leading_table_base_cases():
    table = build_leading_table(5)
    assert table.cell(1, 1) == 1
    assert table.cell(3, 0) == 1
    assert table.cell(2, 1) == 3
    assert table.cell(2, 2) == 3


def test_leading_table_known_rows():
    table = build_leading_table(5)
    assert table.cell(3, 2) == 15
    assert table.cell(3, 3) == 15
    assert table.cell(4, 4) == 105
    assert table.cell(5, 5) == 945


def test_leading_diagonal_is_double_factorial():
    table = build_leading_table(10)
    value = 1
    for n in range(1, 11):
        value *= 2 * n - 1
        assert table.cell(n, n) == value


def test_leading_table_matches_bessel_closed_form():
    # independent oracle: g[n1, n2] = (n1 + n2)! / (2^n2 n2! (n1 - n2)!),
    # the Bessel polynomial coefficients (OEIS A001498)
    table = build_leading_table(40)
    for n1 in range(0, 41):
        for n2 in range(0, n1 + 1):
            num = math.factorial(n1 + n2)
            den = 2 ** n2 * math.factorial(n2) * math.factorial(n1 - n2)
            assert num % den == 0
            assert table.cell(n1, n2) == num // den, (n1, n2)


def test_leading_table_entries_positive():
    table = build_leading_table(12)
    assert all(value > 0 for row in table.rows for value in row)


@pytest.mark.parametrize(
    "n1, n2",
    # (2, -1) and (-1, -1) would index a real row from the end
    [(4, 0), (4, 4), (-1, 0), (-1, -1), (2, -1), (1, 2), (3, 4)],
)
def test_leading_table_cell_out_of_range(n1, n2):
    with pytest.raises(UnsupportedRange):
        build_leading_table(3).cell(n1, n2)


def test_asymptotic_ratio_base_cells_exact():
    for j in (10, 100, 2048):
        assert asymptotic_ratio(j, 1, 0) == 1.0
        assert asymptotic_ratio(j, 1, 1) == 1.0


def test_asymptotic_ratio_frozen_value():
    # cell (2, 1) is 3j^2 - 2j, so the ratio at j=100 is 29800/30000
    assert asymptotic_ratio(100, 2, 1) == pytest.approx(float(Fraction(149, 150)), abs=0)


def test_asymptotic_ratio_near_one_at_large_power():
    assert abs(asymptotic_ratio(2048, 4, 2) - 1.0) < 0.05


def test_asymptotic_ratio_range_check():
    with pytest.raises(UnsupportedRange):
        asymptotic_ratio(5, 3, 3)
    with pytest.raises(UnsupportedRange):
        asymptotic_ratio(10, 2, 3)


def test_binomial_sums_frozen_values():
    assert even_binomial_sum(2, 1) == 4
    assert even_binomial_sum(3, 1) == 6
    assert even_binomial_sum(1, 1) == 2
    assert odd_binomial_sum(2, 1) == Fraction(3, 4)
    assert odd_binomial_sum(1, 1) == Fraction(1, 4)
    assert odd_binomial_sum(2, 2) == Fraction(21, 4)


def test_scaled_sum_exact_path_values():
    # even sums at ell=1 equal 2j, so the scaled value is constant 2
    assert scaled_sum(2, 1, "even") == 2.0
    assert scaled_sum(3, 1, "even") == 2.0
    assert scaled_sum(2, 1, "odd") == pytest.approx(0.375, abs=0)


def test_scaled_sum_equals_defining_sum():
    # j <= ell reads the defining sum, j > ell the moment polynomial; both
    # sides of ell and of j = 200/201 give the float nearest the exact value
    for j in (1, 2, 3, 5, 6, 7, 200, 201, 400):
        for ell in (1, 3, 5, 6):
            for parity, exact_sum in (("even", even_binomial_sum), ("odd", odd_binomial_sum)):
                want = float(exact_sum(j, ell) / Fraction(j) ** ell)
                assert scaled_sum(j, ell, parity) == want, (j, ell, parity)


def test_pairings_overflow_threshold_is_exact():
    # the scaled sum for j > ell is at least (2 ell - 1)!!/4
    def pairings(ell):
        return Fraction(math.prod(range(1, 2 * ell, 2)), 4)

    assert pairings(_PAIRINGS_OVERFLOW_ELL) > sys.float_info.max
    assert pairings(_PAIRINGS_OVERFLOW_ELL - 1) < sys.float_info.max


def test_scaled_sum_beyond_float_range_is_unsupported(monkeypatch):
    grid = [(2048, 151), (2048, 200), (300, 5000), (1, 5000), (10**5, 10**5),
            (2, 1100), (600, 1000), (140, 140)]
    degrees = []
    build = derivatives._diagonal_polynomial
    monkeypatch.setattr(
        derivatives, "_diagonal_polynomial", lambda ell: degrees.append(ell) or build(ell)
    )
    start = time.perf_counter()
    for j, ell in grid:
        for parity in ("even", "odd"):
            try:
                value = scaled_sum(j, ell, parity)
            except UnsupportedRange:
                continue
            assert math.isfinite(value), (j, ell, parity)
    assert time.perf_counter() - start < 1.0
    assert max(degrees, default=0) < _PAIRINGS_OVERFLOW_ELL
    # the largest representable value on each line is returned exactly and
    # the next ell is refused; odd(1, ell) = 1/4 for every ell
    for j, ell, parity in ((2, 342, "even"), (2, 473, "odd"), (40, 151, "odd"),
                           (201, 136, "even"), (201, 137, "odd")):
        exact_sum = even_binomial_sum if parity == "even" else odd_binomial_sum
        want = float(exact_sum(j, ell) / Fraction(j) ** ell)
        assert want > 1e306
        assert scaled_sum(j, ell, parity) == want, (j, ell, parity)
        with pytest.raises(UnsupportedRange):
            scaled_sum(j, ell + 1, parity)
    assert scaled_sum(1, 5000, "odd") == 0.25
    assert scaled_sum(1, 10**9, "odd") == 0.25
    with pytest.raises(UnsupportedRange):
        scaled_sum(1, 5000, "even")
    with pytest.raises(UnsupportedRange):
        scaled_sum(2048, 151, "odd")


def test_trace_convergence_structure():
    trace = trace_convergence(1, "even", [2, 3])
    assert trace.sample_js == (2, 3)
    assert trace.scaled_values == (2.0, 2.0)
    assert trace.estimated_constant == 2.0


def test_trace_requires_increasing_js():
    with pytest.raises(ValueError):
        trace_convergence(1, "even", [4, 4])
    with pytest.raises(ValueError):
        trace_convergence(1, "even", [])
    with pytest.raises(ValueError):
        scaled_sum(4, 1, "sideways")


@pytest.mark.parametrize("j, ell", [(2.5, 1), (2.0, 1), (1_000_000.0, 2), (3, 1.5), (300, 1.0)])
def test_scaled_sum_rejects_a_float_power_or_order(j, ell):
    # an int / int division would take a float, so the integers are checked first
    with pytest.raises(TypeError):
        scaled_sum(j, ell, "even")


def test_scaled_sum_reads_a_numpy_power_as_a_python_int():
    # a fixed-width power would wrap in the moment polynomial
    for j in (10**6, 2**40):
        assert scaled_sum(np.int64(j), 3, "even") == scaled_sum(j, 3, "even")
    assert asymptotic_ratio(np.int64(3000), 5, 5) == asymptotic_ratio(3000, 5, 5)


@pytest.mark.parametrize("j", [9.5, 9.0, 200.0])
def test_asymptotic_ratio_rejects_a_float_power(j):
    with pytest.raises(TypeError):
        asymptotic_ratio(j, 2, 1)


@pytest.mark.parametrize("js", [[2.7, 3.9], [2.0, 3.0], (4, 8.0)])
def test_trace_rejects_a_float_grid_instead_of_flooring_it(js):
    with pytest.raises(TypeError):
        trace_convergence(1, "even", js)


def test_limit_constant_report_shape():
    report = limit_constant_report(1, (64, 128, 256))
    assert report["ell"] == 1
    assert report["even_constant"] == pytest.approx(2.0, rel=1e-6)
    # the even and odd limits differ by a fixed factor of 4 (measured, not asserted)
    assert report["even_over_odd"] == pytest.approx(4.0, rel=0.05)
    assert report["even_over_diagonal_growth"] == pytest.approx(1.0, rel=0.01)


@pytest.mark.parametrize("ell", [1, 134, 135, 200])
def test_ratio_to_growth_is_the_quotient_rounded_once(ell):
    # 2^ell (2 ell - 1)!! leaves float range at ell = 135: below, the float
    # division of before; from there, the exact quotient rounded once
    report = limit_constant_report(ell, (1, 2))
    even = report["even_constant"]
    growth = 2**ell * math.prod(range(1, 2 * ell, 2))
    if ell < 135:
        assert report["even_over_diagonal_growth"] == even / growth
    else:
        with pytest.raises(OverflowError):
            float(growth)
        assert report["even_over_diagonal_growth"] == float(Fraction(even) / growth)
    if ell == 200:
        assert 0.0 < report["even_over_diagonal_growth"] < sys.float_info.min
    traces = (trace_convergence(ell, "even", (1, 2)), trace_convergence(ell, "odd", (1, 2)))
    assert {**report, **constant_ratios(*traces)} == report


def test_csv_exports(capsys):
    # traces and leading tables export as CSV through the CLI only
    assert main(["asymptotics", "--ell", "1", "--js", "2", "3", "--parity", "even",
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out == "ell,parity,j,scaled_value\n1,even,2,2.0\n1,even,3,2.0\n"
    assert main(["ctable", "--max-n", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "n1,n2,value\n0,0,1\n1,0,1\n1,1,1\n2,0,1\n2,1,3\n2,2,3\n"


def test_leading_rows_check_eagerly_and_match_the_table():
    with pytest.raises(ValueError):
        leading_rows(0)
    table = build_leading_table(60)
    assert tuple(leading_rows(60)) == table.rows
    # Decimal cells are exact only in a context with room for every digit
    with localcontext(Context(prec=MAX_PREC, traps=[Inexact, Rounded])):
        decimal_rows = tuple(leading_rows(60, Decimal(1)))
    assert all(isinstance(v, Decimal) for row in decimal_rows for v in row)
    assert decimal_rows == table.rows

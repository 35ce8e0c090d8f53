import math
from decimal import MAX_PREC, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import spherekernel.derivatives as derivatives
from spherekernel.asymptotics import build_leading_table
from spherekernel.cli import main
from spherekernel.derivatives import (
    SinCosPoly,
    _diagonal_polynomial,
    _even_block_counts,
    build_deriv_table,
    cos_power_derivative,
    deriv_rows,
    derivative_at_zero,
    diagonal_closed_form,
    symbolic_derivative,
)
from spherekernel.errors import UnsupportedRange


def test_base_and_first_cells():
    for power in (2, 5, 9):
        table = build_deriv_table(power, power - 1)
        assert table.cell(0, 0) == 1
        assert table.cell(1, 0) == power


def test_power_four_cells_match_hand_derivative():
    # (cos^4)'' = 12 cos^2 sin^2 - 4 cos^4, worked by the rewrite rule
    table = build_deriv_table(4, 3)
    assert table.cell(2, 0) == 12
    assert table.cell(1, 1) == 4
    assert table.cell(3, 0) == 24
    assert table.cell(2, 1) == 40


def test_even_level_diagonal_copies_left_neighbour():
    table = build_deriv_table(11, 10)
    for q in range(1, 6):
        assert table.cell(q, q) == table.cell(q, q - 1)


def test_table_rejects_order_reaching_power():
    with pytest.raises(UnsupportedRange):
        build_deriv_table(4, 4)
    with pytest.raises(UnsupportedRange):
        build_deriv_table(1, 1)
    with pytest.raises(ValueError):
        build_deriv_table(0, 1)


def test_deriv_rows_check_eagerly_and_match_the_table():
    # the checks run when deriv_rows is called, before any row is asked for
    with pytest.raises(UnsupportedRange):
        deriv_rows(4, 4)
    with pytest.raises(ValueError):
        deriv_rows(0, 1)
    with pytest.raises(ValueError):
        deriv_rows(5, 0)
    table = build_deriv_table(60, 45)
    assert tuple(deriv_rows(60, 45)) == table.rows
    # Decimal cells are exact only in a context with room for every digit
    with localcontext(Context(prec=MAX_PREC, traps=[Inexact, Rounded])):
        decimal_rows = tuple(deriv_rows(60, 45, Decimal(1)))
    assert all(isinstance(v, Decimal) for row in decimal_rows for v in row)
    assert decimal_rows == table.rows


@pytest.mark.parametrize(
    "n1, n2",
    # level above the table, negative n1 or n2, n2 > n1; (2, -1) and
    # (-2, -1) would index a real row from the end
    [(3, 0), (2, 1), (-1, 0), (-1, 1), (2, -1), (-2, -1), (0, 1), (0, 2)],
)
def test_cell_outside_table_raises(n1, n2):
    table = build_deriv_table(6, 2)
    with pytest.raises(UnsupportedRange):
        table.cell(n1, n2)


def test_level_outside_table_is_empty():
    table = build_deriv_table(6, 2)
    assert table.level(-1) == [] and table.level(3) == []
    assert table.level(0) == [((0, 0), 1)]
    assert table.level(2) == [((2, 0), 30), ((1, 1), 6)]


def test_symbolic_derivative_small_cases():
    assert symbolic_derivative(2, 1) == SinCosPoly({(1, 1): -2})
    assert symbolic_derivative(4, 2) == SinCosPoly({(2, 2): 12, (4, 0): -4})
    assert symbolic_derivative(3, 2) == SinCosPoly({(1, 2): 6, (3, 0): -3})


def test_symbolic_derivative_handles_order_at_least_power():
    # the rewrite rule works where the table recursion does not
    poly = symbolic_derivative(2, 4)
    for x in (0.0, 0.7, 2.0):
        expected = 8.0 * math.cos(2.0 * x)  # (cos^2)'''' = 8 cos(2x)
        assert poly.evaluate(x) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60)
@given(
    power=st.integers(min_value=1, max_value=9),
    order=st.integers(min_value=0, max_value=6),
    x=st.floats(min_value=-3.0, max_value=3.0),
)
def test_canonical_form_preserves_value(power, order, x):
    poly = symbolic_derivative(power, order)
    canon = poly.canonical()
    assert all(b in (0, 1) for (_, b) in canon.terms)
    assert canon.evaluate(x) == pytest.approx(poly.evaluate(x), abs=1e-8)


def test_mixed_basis_equality_requires_canonicalization():
    # sin^2 and 1 - cos^2 are distinct dicts but the same function
    left = SinCosPoly({(0, 2): 1})
    right = SinCosPoly({(0, 0): 1, (2, 0): -1})
    assert left.terms != right.terms
    assert left == right


def test_deriv_eval_order_zero_and_one():
    for power in (2, 5):
        for x in (0.0, 0.4, 1.7):
            assert cos_power_derivative(power, 0, x) == pytest.approx(
                math.cos(x) ** power, rel=1e-15
            )
            expected = -power * math.cos(x) ** (power - 1) * math.sin(x)
            assert cos_power_derivative(power, 1, x) == pytest.approx(expected, abs=1e-15)


def test_deriv_eval_rejects_unsupported_order():
    with pytest.raises(UnsupportedRange):
        cos_power_derivative(4, 4, 0.3)


def test_deriv_eval_beyond_float_range_raises_unsupported_range():
    # T[400, 0] = 1000!/600! is far beyond float range
    with pytest.raises(UnsupportedRange, match="float range"):
        cos_power_derivative(1000, 400, 0.3)


def test_diagonal_closed_form_frozen_values():
    assert diagonal_closed_form(4, 1) == 4
    assert diagonal_closed_form(3, 1) == 3
    assert diagonal_closed_form(6, 1) == 6
    assert diagonal_closed_form(1, 1) == 1
    # integrality beyond the table range is not assumed: cos(x) has
    # fourth derivative 1 at zero, cos^2 has 8 cos(2x)/... = 8
    assert diagonal_closed_form(2, 2) == 8


def test_diagonal_polynomial_matches_closed_form():
    for ell in range(1, 9):
        coeffs = _diagonal_polynomial(ell)
        assert len(coeffs) == ell + 1 and coeffs[0] == 0
        assert all(isinstance(c, int) for c in coeffs)
        for m in range(1, 301):
            closed = diagonal_closed_form(m, ell)
            assert sum(c * m ** k for k, c in enumerate(coeffs)) == closed, (ell, m)
            # derivative_at_zero reads the polynomial above m = 2 ell, the
            # closed form at or below it
            assert derivative_at_zero(m, 2 * ell) == (-1) ** ell * closed, (ell, m)
            assert derivative_at_zero(m, 2 * ell + 1) == 0


def test_diagonal_polynomial_leading_coefficient_is_growth_constant():
    # the constant derivative_at_zero_series scales its cutoff by:
    # diag(m, ell) ~ g[ell, ell] m^ell with g[ell, ell] = (2 ell - 1)!!
    table = build_leading_table(8)
    for ell in range(1, 9):
        leading = _diagonal_polynomial(ell)[ell]
        assert leading == table.cell(ell, ell)
        assert leading == math.prod(range(1, 2 * ell, 2))


@lru_cache(maxsize=None)
def _partition_count(n, k):
    # partitions of n items into k even blocks: the block holding the last
    # item takes 2i - 1 of the other n - 1 items
    if n == 0 or k == 0:
        return int(n == k)
    return sum(
        math.comb(n - 1, 2 * i - 1) * _partition_count(n - 2 * i, k - 1)
        for i in range(1, n // 2 + 1)
    )


def test_even_block_counts_match_the_partition_recurrence():
    for ell in range(1, 13):
        assert _even_block_counts(ell) == tuple(_partition_count(2 * ell, k) for k in range(ell + 1))
        # N(2 ell, ell) counts the perfect matchings of 2 ell items
        assert _even_block_counts(ell)[ell] == math.prod(range(1, 2 * ell, 2))


def test_even_block_counts_expand_the_diagonal_over_falling_factorials():
    for ell in range(1, 9):
        counts = _even_block_counts(ell)
        for m in range(1, 61):
            value = sum(n * math.perm(m, k) for k, n in enumerate(counts))
            assert value == diagonal_closed_form(m, ell), (ell, m)


def test_derivative_at_zero():
    assert derivative_at_zero(5, 1) == 0
    assert derivative_at_zero(4, 2) == -4
    assert derivative_at_zero(1, 2) == -1
    assert derivative_at_zero(3, 0) == 1
    assert derivative_at_zero(6, 4) == diagonal_closed_form(6, 2)


def test_derivative_at_zero_at_a_huge_power_skips_the_closed_form(monkeypatch):
    # the closed form sums power/2 big binomials; at 10^6 it would run for hours
    def refused(power, ell):
        raise AssertionError(f"diagonal_closed_form({power}, {ell}) called")

    monkeypatch.setattr(derivatives, "diagonal_closed_form", refused)
    _even_block_counts.cache_clear()
    _diagonal_polynomial.cache_clear()
    # E[S^4] = 3 m^2 - 2 m for a sum S of m random signs
    assert derivative_at_zero(10**6, 4) == 3 * 10**12 - 2 * 10**6


def test_derivative_at_zero_matches_symbolic_oracle():
    for power in range(1, 8):
        for order in range(0, 9):
            expected = Fraction(symbolic_derivative(power, order).evaluate(0.0))
            got = derivative_at_zero(power, order)
            assert got == pytest.approx(float(expected), abs=1e-9)


def test_all_table_entries_positive():
    for power in (3, 8, 15):
        table = build_deriv_table(power, power - 1)
        assert all(value > 0 for row in table.rows for value in row)


def test_closed_form_fractions_are_normalized():
    for power, ell in ((4, 1), (9, 3), (30, 6)):
        value = diagonal_closed_form(power, ell)
        assert value.denominator > 0
        assert math.gcd(value.numerator, value.denominator) == 1


def test_table_csv_export(capsys):
    # exact tables export as CSV through the CLI only
    assert main(["btable", "--j", "4", "--order", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "j,n1,n2,value\n4,0,0,1\n4,1,0,4\n4,2,0,12\n4,1,1,4\n"

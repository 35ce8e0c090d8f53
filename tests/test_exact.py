import math

import pytest
from hypothesis import given, strategies as st

from spherekernel.exact import binomial, falling_factorial


def pascal_row(n):
    # independent oracle: build the triangle row by row via the addition rule
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


def test_binomial_small_values():
    assert binomial(4, 2) == 6
    assert binomial(6, 4) == pascal_row(6)[4] == 15
    assert binomial(0, 0) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_pascal_identity_exhaustive():
    for n in range(2, 201):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=-5, max_value=3005))
def test_binomial_symmetry(n, k):
    assert binomial(n, k) == binomial(n, n - k)


def test_falling_factorial_values():
    assert falling_factorial(4, 2) == 12
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(10, 10) == math.factorial(10) == 3628800


def test_falling_factorial_rejects_ell_above_j():
    with pytest.raises(ValueError):
        falling_factorial(3, 4)

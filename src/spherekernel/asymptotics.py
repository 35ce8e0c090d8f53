"""Growth of the derivative coefficients in the cosine power.

Each table cell at fixed (n1, n2) is a degree-n1 polynomial in the power
j, so cell(j) / (g[n1, n2] * j^n1) -> 1 as j grows, where the leading
coefficients g satisfy their own integer recursion:

    g[1, 1]   = 1,  g[n1, 0] = 1
    g[n1, n2] = g[n1-1, n2] + (n1 - n2 + 1) * g[n1, n2-1]   (0 < n2 < n1)
    g[n1, n1] = g[n1, n1-1]

Stored as rows[n1][n2]; each row is filled left to right from the row above.
`leading_rows(max_n, one=1)` yields the rows in turn, in multiples of `one`.

The scaled central-binomial sums

    even(j, ell) = 2^(1-2j) sum_{n=1}^{j} (2n)^(2 ell)   C(2j,   j+n)
    odd(j, ell)  = 2^(-2j)  sum_{n=1}^{j} (2n-1)^(2 ell) C(2j-1, j+n-1)

grow like j^ell; they tie the diagonal table cells to the smoothness
classification, and this module measures their convergence empirically.
They are diagonal magnitudes, even(j, ell) = diag(2j, ell) and
4 odd(j, ell) = diag(2j - 1, ell), so scaled_sum reads diag and is exact
until its final rounding to a float; the defining sums serve as the
verification oracle.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .derivatives import _diagonal, _diagonal_polynomial, deriv_rows
from .errors import UnsupportedRange

# DBL_MAX < 2^1024, so a lower bound above 2^1025 overflows whatever the
# rounding of its logarithm; (2 ell - 1)!!/4 > DBL_MAX from ell = 151 on
_LOG2_FLOAT_LIMIT = 1025.0
_PAIRINGS_OVERFLOW_ELL = 151


@dataclass(frozen=True, eq=False)
class LeadingCoeffTable:
    """Triangular table of exact leading growth coefficients."""

    max_n: int
    rows: tuple

    def cell(self, n1: int, n2: int) -> int:
        if 0 <= n2 <= n1 <= self.max_n:
            return self.rows[n1][n2]
        raise UnsupportedRange(
            f"cell ({n1}, {n2}) outside leading coefficient table "
            f"with max_n {self.max_n}"
        )


def leading_rows(max_n: int, one=1):
    """Iterator over rows 0..max_n, each built from the last; checks max_n first."""
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")

    def next_row(prev: tuple, n1: int) -> tuple:
        row, value = [one], one
        for n2 in range(1, n1):
            value = prev[n2] + (n1 - n2 + 1) * value
            row.append(value)
        return (*row, value)

    return accumulate(range(1, max_n + 1), next_row, initial=(one,))


def build_leading_table(max_n: int) -> LeadingCoeffTable:
    """Fill the leading coefficient recursion up to n1 = max_n."""
    return LeadingCoeffTable(max_n, tuple(leading_rows(max_n)))


def asymptotic_ratio(j: int, n1: int, n2: int) -> float:
    """cell(j, n1, n2) / (g[n1, n2] * j^n1), one correctly rounded int / int division."""
    j = operator.index(j)
    if n1 < 1 or n2 < 0 or n2 > n1:
        raise UnsupportedRange(f"need 1 <= n1 and 0 <= n2 <= n1, got ({n1}, {n2})")
    if n1 + n2 >= j:
        raise UnsupportedRange(
            f"table cell ({n1}, {n2}) needs power above {n1 + n2}, got {j}"
        )
    cell = deque(deriv_rows(j, n1 + n2), maxlen=1).pop()[n2]
    leading = deque(leading_rows(n1), maxlen=1).pop()[n2]
    return cell / (leading * j ** n1)


def even_binomial_sum(j: int, ell: int) -> Fraction:
    """Exact value of 2^(1-2j) sum_{n=1}^{j} (2n)^(2 ell) C(2j, j+n)."""
    if j < 1 or ell < 1:
        raise ValueError(f"j and ell must be positive, got j={j}, ell={ell}")
    num = sum((2 * n) ** (2 * ell) * math.comb(2 * j, j + n) for n in range(1, j + 1))
    return Fraction(num, 2 ** (2 * j - 1))


def odd_binomial_sum(j: int, ell: int) -> Fraction:
    """Exact value of 2^(-2j) sum_{n=1}^{j} (2n-1)^(2 ell) C(2j-1, j+n-1)."""
    if j < 1 or ell < 1:
        raise ValueError(f"j and ell must be positive, got j={j}, ell={ell}")
    num = sum(
        (2 * n - 1) ** (2 * ell) * math.comb(2 * j - 1, j + n - 1)
        for n in range(1, j + 1)
    )
    return Fraction(num, 2 ** (2 * j))


def scaled_sum(j: int, ell: int, parity: str) -> float:
    """sum(j, ell) / j^ell = diag(P, ell) / (s j^ell), one int / int division.

    (P, s) = (2j, 1) for even and (2j - 1, 4) for odd.  diag comes from
    derivatives: the moment polynomial (ell + 1 terms) where P > 2 ell,
    that is j > ell, else the closed form (j terms).  A value beyond
    float range raises UnsupportedRange, up front where a lower bound
    shows it: with diag(P, ell) = E[S^(2 ell)] for a sum S of P random
    signs, Jensen gives (P/j)^ell / s, and for j > ell the matchings of
    ell distinct signs give
    (2 ell - 1)!! P!/(P - ell)! / (s j^ell) >= (2 ell - 1)!!/4.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    j, ell = operator.index(j), operator.index(ell)
    if j < 1 or ell < 1:
        raise ValueError(f"j and ell must be positive, got j={j}, ell={ell}")
    power, scale = (2 * j, 1) if parity == "even" else (2 * j - 1, 4)
    try:
        jensen_log2 = ell * math.log2(power / j) - math.log2(scale)
        if jensen_log2 > _LOG2_FLOAT_LIMIT or j > ell >= _PAIRINGS_OVERFLOW_ELL:
            raise OverflowError
        return _diagonal(power, ell) / (scale * j ** ell)
    except OverflowError:
        raise UnsupportedRange(
            f"scaled {parity} sum at j={j}, ell={ell} exceeds float range"
        ) from None


@dataclass(frozen=True)
class ConvergenceTrace:
    """Scaled sums along increasing powers, tracking the limit constant."""

    ell: int
    parity: str
    sample_js: tuple[int, ...]
    scaled_values: tuple[float, ...]
    estimated_constant: float


def trace_convergence(
    ell: int, parity: str, sample_js: list[int] | tuple[int, ...]
) -> ConvergenceTrace:
    """Scaled sums v(j) = sum(j, ell)/j^ell over a strictly increasing j grid."""
    js = tuple(map(operator.index, sample_js))
    if not js:
        raise ValueError("sample_js must be nonempty")
    if any(b <= a for a, b in zip(js, js[1:])):
        raise ValueError(f"sample_js must be strictly increasing, got {js}")
    values = tuple(scaled_sum(j, ell, parity) for j in js)
    return ConvergenceTrace(ell, parity, js, values, values[-1])


def constant_ratios(even: ConvergenceTrace, odd: ConvergenceTrace) -> dict:
    """The even/odd ratio of two traces' constants, and the even constant
    over 2^ell times the diagonal growth coefficient (2 ell - 1)!!.

    That growth leaves float range from ell = 135 on; there the exact
    quotient is rounded once instead, which may give a subnormal float.
    """
    growth = 2 ** even.ell * _diagonal_polynomial(even.ell)[-1]
    try:
        over_growth = even.estimated_constant / growth
    except OverflowError:
        num, den = even.estimated_constant.as_integer_ratio()
        over_growth = num / (den * growth)
    return {
        "even_over_odd": even.estimated_constant / odd.estimated_constant,
        "even_over_diagonal_growth": over_growth,
    }


def limit_constant_report(ell: int, sample_js=(256, 512, 1024, 2048)) -> dict:
    """Empirical limit constants for both parities plus their measured ratios.

    The even/odd ratio and the comparison against 2^ell times the
    diagonal growth coefficient are reported, not asserted: only the
    j^ell growth shape is needed downstream.
    """
    even = trace_convergence(ell, "even", sample_js)
    odd = trace_convergence(ell, "odd", sample_js)
    return {
        "ell": ell,
        "even_constant": even.estimated_constant,
        "odd_constant": odd.estimated_constant,
        **constant_ratios(even, odd),
    }

"""Exact coefficients for repeated derivatives of powers of cosine.

For phi(x) = cos^j(x) the ell-th derivative expands over mixed monomials
indexed by pairs (n1, n2) with n1 + n2 = ell and 0 <= n2 <= n1:

    phi^(ell)(x) = sum (-1)^n1 * T[n1, n2] * cos^(j-n1+n2)(x) * sin^(n1-n2)(x)

where the positive integer table T is filled level by level
(level = n1 + n2) from

    T[0, 0]   = 1
    T[n1, 0]  = T[n1-1, 0] * (j - (n1-1))           edge: falling factorial
    T[n1, n2] = T[n1-1, n2] * (j - (n1-1) + n2)
              + T[n1, n2-1] * (n1 - (n2-1))         interior, 0 < n2 < n1
    T[q, q]   = T[q, q-1]                           diagonal, even level 2q

valid while the level stays strictly below j (larger orders would push
cosine exponents negative, so that range is rejected).  Row `level` holds
T[level - n2, n2] at index n2 and is filled from the row before alone: an
interior cell from prev[n2] and prev[n2 - 1], the even diagonal T[q, q] as
prev[q - 1].  `deriv_rows(power, max_order, one=1)` yields the rows in turn, in
multiples of `one`.  Two independent cross-checks live alongside the table: a
term-rewriting symbolic differentiator over exact cos/sin polynomials, and
closed-form diagonal values from the multiple-angle expansion of cosine powers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .errors import UnsupportedRange


@dataclass(frozen=True, eq=False)
class DerivTable:
    """Triangular table for one cosine power: rows[level][n2] = T[level - n2, n2]."""

    power: int
    max_order: int
    rows: tuple

    def cell(self, n1: int, n2: int) -> int:
        if 0 <= n2 <= n1 and n1 + n2 <= self.max_order:
            return self.rows[n1 + n2][n2]
        raise UnsupportedRange(
            f"cell ({n1}, {n2}) outside table for power {self.power}, "
            f"max order {self.max_order}"
        )

    def level(self, order: int) -> list[tuple[tuple[int, int], int]]:
        """Cells with n1 + n2 == order, ordered by increasing n2."""
        if not 0 <= order <= self.max_order:
            return []
        return [((order - n2, n2), value) for n2, value in enumerate(self.rows[order])]


def deriv_rows(power: int, max_order: int, one=1):
    """Iterator over rows 0..max_order, each built from the last; checks its arguments first."""
    if power < 1:
        raise ValueError(f"power must be positive, got {power}")
    if max_order < 1:
        raise ValueError(f"max order must be positive, got {max_order}")
    if max_order >= power:
        raise UnsupportedRange(
            f"table undefined for order {max_order} >= power {power}; "
            "use symbolic_derivative for that range"
        )

    def next_row(prev: tuple, level: int) -> tuple:
        # interior factors j - n1 + 1 + n2 and n1 - n2 + 1 at n1 = level - n2
        edge = power - level + 1
        row = [prev[0] * edge] + [
            prev[n2] * (edge + 2 * n2) + prev[n2 - 1] * (level + 1 - 2 * n2)
            for n2 in range(1, (level + 1) // 2)
        ]
        return (*row, prev[-1]) if level % 2 == 0 else tuple(row)

    return accumulate(range(1, max_order + 1), next_row, initial=(one,))


def build_deriv_table(power: int, max_order: int) -> DerivTable:
    """Fill the coefficient table for cos^power up to the given level."""
    return DerivTable(power, max_order, tuple(deriv_rows(power, max_order)))


def cos_power_derivative(power: int, order: int, x: float) -> float:
    """d^order/dx^order cos^power at x via the table; beyond float range raises."""
    if power < 1:
        raise ValueError(f"power must be positive, got {power}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order == 0:
        return math.cos(x) ** power
    row = deque(deriv_rows(power, order), maxlen=1).pop()
    c, s = math.cos(x), math.sin(x)
    try:
        # |cos|, |sin| <= 1: only a coefficient's float conversion or the sum overflows
        return math.fsum(
            (-1) ** (order - n2) * coeff * c ** (power - order + 2 * n2) * s ** (order - 2 * n2)
            for n2, coeff in enumerate(row)
        )
    except OverflowError:
        msg = f"order {order} derivative of cos^{power} at x={x} exceeds float range"
        raise UnsupportedRange(msg) from None


@dataclass(frozen=True, eq=False)
class SinCosPoly:
    """Integer-coefficient polynomial in cos(x) and sin(x).

    ``terms`` maps (cos_power, sin_power) to a signed integer
    coefficient.  The mixed basis is not unique (sin^2 = 1 - cos^2), so
    equality is decided on the canonical form, which reduces every sin
    power to 0 or 1.
    """

    terms: dict

    def canonical(self) -> "SinCosPoly":
        out: dict[tuple[int, int], int] = {}
        for (a, b), coeff in self.terms.items():
            q, s = divmod(b, 2)
            for i in range(q + 1):
                key = (a + 2 * i, s)
                out[key] = out.get(key, 0) + coeff * math.comb(q, i) * (-1) ** i
        return SinCosPoly({k: v for k, v in out.items() if v})

    def derivative(self) -> "SinCosPoly":
        """One rewrite step: cos^a sin^b -> -a cos^(a-1) sin^(b+1) + b cos^(a+1) sin^(b-1)."""
        out: dict[tuple[int, int], int] = {}
        for (a, b), coeff in self.terms.items():
            if a:
                key = (a - 1, b + 1)
                out[key] = out.get(key, 0) - a * coeff
            if b:
                key = (a + 1, b - 1)
                out[key] = out.get(key, 0) + b * coeff
        return SinCosPoly({k: v for k, v in out.items() if v})

    def evaluate(self, x: float) -> float:
        c, s = math.cos(x), math.sin(x)
        return math.fsum(
            coeff * c ** a * s ** b for (a, b), coeff in self.terms.items()
        )

    def __eq__(self, other):
        if not isinstance(other, SinCosPoly):
            return NotImplemented
        return self.canonical().terms == other.canonical().terms


def symbolic_derivative(power: int, order: int) -> SinCosPoly:
    """order-th derivative of cos^power by repeated term rewriting.

    Independent of the coefficient table: works for every order,
    including order >= power where the table recursion is undefined.
    """
    if power < 1:
        raise ValueError(f"power must be positive, got {power}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    poly = SinCosPoly({(power, 0): 1})
    for _ in range(order):
        poly = poly.derivative()
    return poly


def table_polynomial(table: DerivTable, order: int) -> SinCosPoly:
    """The derivative polynomial encoded by one level of the table."""
    if order == 0:
        return SinCosPoly({(table.power, 0): 1})
    if order > table.max_order:
        raise UnsupportedRange(
            f"order {order} exceeds table max order {table.max_order}"
        )
    terms: dict[tuple[int, int], int] = {}
    for (n1, n2), coeff in table.level(order):
        key = (table.power - n1 + n2, n1 - n2)
        terms[key] = terms.get(key, 0) + (-1) ** n1 * coeff
    return SinCosPoly(terms)


def diagonal_closed_form(power: int, ell: int) -> Fraction:
    """Magnitude of d^(2 ell)/dx^(2 ell) cos^power at x = 0, in closed form.

    Uses the multiple-angle expansions

        cos^(2j)(x)   = 2^(-2j)   { sum_{k<j} 2 C(2j, k) cos(2(j-k)x) + C(2j, j) }
        cos^(2j-1)(x) = 2^(-2j+2) sum_{k<j} C(2j-1, k) cos((2j-2k-1)x)

    whose 2*ell-fold derivative at zero turns each angle factor into its
    (2*ell)-th power.  Exact rational; the value equals the diagonal
    table cell T[ell, ell] whenever 2*ell < power, and remains defined
    for every power >= 1.
    """
    if power < 1:
        raise ValueError(f"power must be positive, got {power}")
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    if power % 2 == 0:
        j = power // 2
        num = sum(
            2 * math.comb(2 * j, k) * (2 * (j - k)) ** (2 * ell) for k in range(j)
        )
        return Fraction(num, 2 ** (2 * j))
    j = (power + 1) // 2
    num = sum(
        math.comb(2 * j - 1, k) * (2 * j - 2 * k - 1) ** (2 * ell) for k in range(j)
    )
    return Fraction(num, 2 ** (2 * j - 2))


@lru_cache(maxsize=32)
def _even_block_counts(ell: int) -> tuple[int, ...]:
    """N(2 ell, k) for k = 0..ell: partitions of 2 ell items into k even blocks.

    diag(m, ell) = diagonal_closed_form(m, ell)
                 = 2^(-m) sum_k C(m, k) (m - 2k)^(2 ell)
    is the (2 ell)-th moment of a sum S_m of m independent random signs.
    Expanding S_m^(2 ell) over which signs the 2 ell factors pick, a term
    survives the expectation exactly when every sign is picked an even
    number of times, so

        diag(m, ell) = sum_k N(2 ell, k) (m)_k,

    with (m)_k = m (m-1) ... (m-k+1).  The counts have the exponential
    generating function (cosh x - 1)^k / k!, whose second derivative is
    k^2 times itself plus (2k - 1) times the one for k - 1:

        N(n + 2, k) = k^2 N(n, k) + (2k - 1) N(n, k - 1),   N(0, 0) = 1.
    """
    counts = [1]
    for _ in range(ell):
        counts = [
            k * k * n + (2 * k - 1) * low
            for k, (low, n) in enumerate(zip([0] + counts, counts + [0]))
        ]
    return tuple(counts)


@lru_cache(maxsize=32)
def _diagonal_polynomial(ell: int) -> tuple[int, ...]:
    """Integer coefficients c_0..c_ell with diag(m, ell) = sum_k c_k m^k.

    diag(m, ell) is an integer polynomial in m of degree ell with c_0 = 0
    and leading coefficient (2 ell - 1)!!, expanded from the falling
    factorial form sum_k N(2 ell, k) (m)_k of _even_block_counts.
    """
    counts = _even_block_counts(ell)
    # nested form N_0 + m (N_1 + (m-1) (N_2 + ...)), innermost first
    poly = [counts[-1]]
    for k in range(ell - 1, -1, -1):
        poly = [low - k * high for low, high in zip([0] + poly, poly + [0])]
        poly[0] += counts[k]
    return tuple(poly)


def _horner(highest_first: tuple[int, ...], m: int) -> int:
    """Exact value at m of _diagonal_polynomial(ell)[::-1] (or any int polynomial)."""
    value = 0
    for c in highest_first:
        value = value * m + c
    return value


def _diagonal(power: int, ell: int) -> int:
    """diag(power, ell), the magnitude of d^(2 ell)/dx^(2 ell) cos^power at 0.

    Above power 2 ell the cached degree-ell moment polynomial is evaluated
    (ell + 1 terms); at or below it the closed form (power/2 terms) is,
    which keeps small powers at large ell, such as (1, 10^9), instant.
    """
    if power > 2 * ell:
        return _horner(_diagonal_polynomial(ell)[::-1], power)
    return int(diagonal_closed_form(power, ell))


def derivative_at_zero(power: int, order: int) -> Fraction:
    """Exact value of d^order/dx^order cos^power at x = 0.

    Odd orders vanish because cos^power is even; even orders 2*ell carry
    the sign (-1)^ell on the diagonal magnitude diag(power, ell).
    """
    if power < 1:
        raise ValueError(f"power must be positive, got {power}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order == 0:
        return Fraction(1)
    if order % 2 == 1:
        return Fraction(0)
    ell = order // 2
    return Fraction((-1) ** ell * _diagonal(power, ell))

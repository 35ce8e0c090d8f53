"""Exact combinatorial primitives used by every other module.

Arbitrary-precision integers are plain Python ints; exact rationals are
``fractions.Fraction`` values (always lowest terms, positive denominator).
"""

from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """n-choose-k as an exact integer; 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def falling_factorial(j: int, ell: int) -> int:
    """j * (j-1) * ... * (j-ell+1) exactly, i.e. j!/(j-ell)!."""
    if j < 0 or ell < 0:
        raise ValueError(f"arguments must be nonnegative, got j={j}, ell={ell}")
    if ell > j:
        raise ValueError(f"falling factorial undefined for ell={ell} > j={j}")
    return math.perm(j, ell)

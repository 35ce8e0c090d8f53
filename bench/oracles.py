"""Independent reference values for every output the benchmark checks.

Nothing here imports the library.  Models are plain descriptors:

    ("geometric", c, r)   a_m = c r^m
    ("poisson", c)        a_m = exp(-c) c^m / m!
    ("powerlaw", C, p)    a_m = C (m+1)^(-p)

Series values come from generating functions and closed forms evaluated
with mpmath at 30 significant digits; where no closed form exists (the
Gegenbauer series of Poisson and power-law models on S^4) the series is
summed in mpmath up to a cutoff chosen from this module's own tail
bounds, so that the reference is at least a hundred times more accurate
than the tolerance it is compared with.  Exact outputs are compared
with exact integers computed by different algorithms than the library
uses.  Every function is pure, so results are memoised: a task that
repeats in a later round is checked without recomputing its reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

_DPS = 30
# Gegenbauer sums run many terms; 20 digits keep their rounding far below
# the reference share while costing half as much as _DPS.
_SUM_DPS = 20
# A reference sum stops once its own tail bound is below this share of
# the tolerance it will be compared with.
_REF_SHARE = 0.01


def _mp(x) -> mpmath.mpf:
    return mpmath.mpf(x)


# ---------------------------------------------------------------------------
# Hilbert sphere: phi(theta) = F(cos theta) with F the generating function.


@lru_cache(maxsize=None)
def phi_inf(desc: tuple, theta: float) -> float:
    """sum_m a_m cos^m(theta) from the model's generating function."""
    with mpmath.workdps(_DPS):
        return float(_gen(desc, mpmath.cos(_mp(theta)), theta == 0.0))


def _gen(desc: tuple, u, at_one: bool):
    kind = desc[0]
    if kind == "geometric":
        _, c, r = desc
        return _mp(c) / (1 - _mp(r) * u)
    if kind == "poisson":
        return mpmath.exp(_mp(desc[1]) * (u - 1))
    if kind == "powerlaw":
        _, C, p = desc
        C, p = _mp(C), _mp(p)
        if at_one:
            return C * mpmath.zeta(p)
        if u == 0:
            return C
        if u > 0:
            return C * mpmath.polylog(p, u) / u
        # Li_p(-x) = 2^(1-p) Li_p(x^2) - Li_p(x) keeps polylog on real inputs
        x = -u
        li = mpmath.power(2, 1 - p) * mpmath.polylog(p, x * x) - mpmath.polylog(p, x)
        return C * li / u
    raise ValueError(f"unknown model {desc!r}")


# ---------------------------------------------------------------------------
# Finite-dimensional spheres.


@lru_cache(maxsize=None)
def phi_d(desc: tuple, d: int, cos_theta_exact, tol: float) -> float:
    """sum_k a_k C_k^lam(t)/C_k^lam(1), lam = (d-1)/2, at t = cos theta.

    ``cos_theta_exact`` is either ("theta", theta) or ("dot", u) so that a
    pair of points can pass its exact dot product.  The reference is
    accurate to _REF_SHARE * tol.
    """
    with mpmath.workdps(_DPS):
        tag, x = cos_theta_exact
        t = mpmath.cos(_mp(x)) if tag == "theta" else _mp(x)
        if tag == "theta" and x == 0.0:
            t = _mp(1)
        if desc[0] == "geometric":
            return float(_geometric_closed(desc, d, t))
        if t == 1:
            return float(_gen(desc, _mp(1), True))
        if t == -1:
            return float(_alternating_sum(desc))
        if d != 4:
            raise ValueError("only the S^4 Gegenbauer sum is implemented")
    with mpmath.workdps(_SUM_DPS):
        return float(_gegenbauer_sum_s4(desc, t, tol * _REF_SHARE))


def _geometric_closed(desc: tuple, d: int, t):
    _, c, r = desc
    c, r = _mp(c), _mp(r)
    R2 = 1 - 2 * r * t + r * r
    if d == 1:
        return c * (1 - r * t) / R2
    if d == 2:
        return c / mpmath.sqrt(R2)
    if d == 4:
        # sum_k r^k C_k^{3/2}(t) u^k = (1-2ut+u^2)^(-3/2), integrated twice in u
        # because C_k^{3/2}(1) = (k+1)(k+2)/2.
        if t == 1:
            return c / (1 - r)
        if t == -1:
            return c / (1 + r)
        return 2 * c * (mpmath.sqrt(R2) - 1 + t * r) / (r * r * (1 - t * t))
    raise ValueError(f"no geometric closed form for d={d}")


def _alternating_sum(desc: tuple):
    """sum_k (-1)^k a_k, the value at theta = pi on every sphere."""
    kind = desc[0]
    if kind == "poisson":
        return mpmath.exp(-2 * _mp(desc[1]))
    if kind == "powerlaw":
        _, C, p = desc
        p = _mp(p)
        return _mp(C) * (1 - mpmath.power(2, 1 - p)) * mpmath.zeta(p)
    raise ValueError(f"unknown model {desc!r}")


def _coefficient(desc: tuple, k: int):
    if desc[0] == "poisson":
        c = _mp(desc[1])
        return mpmath.exp(-c + k * mpmath.log(c) - mpmath.loggamma(k + 1)) if c else _mp(k == 0)
    _, C, p = desc
    return _mp(C) * mpmath.power(k + 1, -_mp(p))


_COEFFICIENTS: dict = {}


def _coefficients(desc: tuple, count: int) -> list:
    """a_0 .. a_{count-1}, grown on demand and shared between angles."""
    known = _COEFFICIENTS.setdefault(desc, [])
    known.extend(_coefficient(desc, k) for k in range(len(known), count))
    return known[:count]


def _s4_tail_bound(desc: tuple, K: int, sin_theta: float) -> float:
    """Bound on sum_{k>=K} a_k |C_k^{3/2}(t)/C_k^{3/2}(1)|.

    The normalised polynomial equals 2 P'_{k+1}(t)/((k+1)(k+2)); with
    (1-t^2) P'_n = n (P_{n-1} - t P_n) and Bernstein's inequality
    |P_n(cos theta)| < sqrt(2/(pi n sin theta)) it is at most
    E k^(-3/2) with E = 4 sqrt(2/pi) sin(theta)^(-5/2), and at most 1.
    """
    if desc[0] == "poisson":
        c = desc[1]
        if K + 1 <= 2 * c:
            return math.inf
        a_K = float(_coefficient(desc, K))
        return a_K / (1.0 - c / (K + 1.0))
    _, C, p = desc
    uniform = C * float(mpmath.zeta(p, K + 1))
    E = 4.0 * math.sqrt(2.0 / math.pi) * sin_theta ** -2.5
    s = p + 1.5
    envelope = C * E * (K ** -s + K ** (1.0 - s) / (s - 1.0))
    return min(uniform, envelope)


def _gegenbauer_sum_s4(desc: tuple, t, accuracy: float):
    sin_theta = float(mpmath.sqrt(1 - t * t))
    K = 16
    while _s4_tail_bound(desc, K, sin_theta) > accuracy:
        K *= 2
    lo = K // 2
    while K - lo > 1:
        mid = (lo + K) // 2
        if _s4_tail_bound(desc, mid, sin_theta) > accuracy:
            lo = mid
        else:
            K = mid
    # normalised recurrence G_{k+1} = ((2k + 2 lam) t G_k - k G_{k-1}) / (k + 2 lam)
    two_lam = 3
    coeffs = _coefficients(desc, max(K, 2))
    g_prev, g_cur = _mp(1), t
    terms = [coeffs[0], coeffs[1] * t]
    for k in range(1, K - 1):
        g_prev, g_cur = g_cur, ((2 * k + two_lam) * t * g_cur - k * g_prev) / (k + two_lam)
        terms.append(coeffs[k + 1] * g_cur)
    return mpmath.fsum(terms)


@lru_cache(maxsize=None)
def psd_form(desc: tuple, d, points: tuple, weights: tuple, tol: float) -> float:
    """sum_ij w_i w_j phi(angle(x_i, x_j)) with exact dot products."""
    with mpmath.workdps(_DPS):
        phi0 = _mp(phi_inf(desc, 0.0)) if d is None else _mp(phi_d(desc, d, ("theta", 0.0), tol))
        total = [_mp(w) * _mp(w) * phi0 for w in weights]
        n = len(points)
        for i in range(n):
            for j in range(i + 1, n):
                dot = mpmath.fsum(_mp(a) * _mp(b) for a, b in zip(points[i], points[j]))
                dot = max(_mp(-1), min(_mp(1), dot))
                if d is None:
                    value = _gen(desc, dot, dot == 1)
                else:
                    value = _mp(phi_d(desc, d, ("dot", float(dot)), tol))
                total.append(2 * _mp(weights[i]) * _mp(weights[j]) * value)
        return float(mpmath.fsum(total))


# ---------------------------------------------------------------------------
# Derivatives at zero: phi^(2 ell)(0) = (-1)^ell sum_m a_m E[S_m^(2 ell)], where
# S_m is a sum of m independent random signs; its even moments are
# polynomials in m.

RADEMACHER_MOMENTS = {
    1: (0, 1),              # m
    2: (0, -2, 3),          # 3m^2 - 2m
    3: (0, 16, -30, 15),    # 15m^3 - 30m^2 + 16m
}


def _power_moment(desc: tuple, k: int):
    """sum_m a_m m^k in closed form."""
    kind = desc[0]
    if kind == "geometric":
        _, c, r = desc
        return _mp(c) * mpmath.polylog(-k, _mp(r))
    if kind == "poisson":
        c = _mp(desc[1])
        touchard = {1: c, 2: c * c + c, 3: c ** 3 + 3 * c * c + c}
        return touchard[k]
    if kind == "powerlaw":
        _, C, p = desc
        # m^k = ((m+1) - 1)^k expanded against sum (m+1)^(j-p) = zeta(p-j)
        return _mp(C) * mpmath.fsum(
            math.comb(k, j) * (-1) ** (k - j) * mpmath.zeta(_mp(p) - j)
            for j in range(k + 1)
        )
    raise ValueError(f"unknown model {desc!r}")


@lru_cache(maxsize=None)
def derivative_at_zero(desc: tuple, ell: int) -> float:
    with mpmath.workdps(_DPS):
        coeffs = RADEMACHER_MOMENTS[ell]
        value = mpmath.fsum(
            a * _power_moment(desc, k) for k, a in enumerate(coeffs) if a
        )
        return float((-1) ** ell * value)


# ---------------------------------------------------------------------------
# Exact tables.


@lru_cache(maxsize=None)
def deriv_table(power: int, max_order: int) -> dict:
    """Cells T[n1, n2] of the cos^power derivative table, by term rewriting.

    Differentiates sum coeff * cos^a sin^b term by term in the basis
    with a + b = power, never reducing sin^2; at order L the monomial
    (a, b) carries the cell n1 = (L + b)/2, n2 = (L - b)/2 with sign
    (-1)^n1.
    """
    cells = {(0, 0): 1}
    poly = {0: 1}  # b -> signed coefficient of cos^(power-b) sin^b
    for order in range(1, max_order + 1):
        nxt: dict[int, int] = {}
        for b, coeff in poly.items():
            a = power - b
            if a:
                nxt[b + 1] = nxt.get(b + 1, 0) - a * coeff
            if b:
                nxt[b - 1] = nxt.get(b - 1, 0) + b * coeff
        poly = nxt
        for b, coeff in poly.items():
            n1, n2 = (order + b) // 2, (order - b) // 2
            cells[(n1, n2)] = coeff if n1 % 2 == 0 else -coeff
    return cells


@lru_cache(maxsize=None)
def deriv_table_strings(power: int, max_order: int) -> dict:
    return {key: str(value) for key, value in deriv_table(power, max_order).items()}


@lru_cache(maxsize=None)
def leading_table(max_n: int) -> dict:
    """g[n1, n2] = (n1+n2)! / (2^n2 n2! (n1-n2)!), the Bessel-polynomial coefficients."""
    cells = {}
    for n1 in range(max_n + 1):
        g = 1
        cells[(n1, 0)] = g
        for n2 in range(n1):
            # ratio g[n1, n2+1] / g[n1, n2] = (n1+n2+1)(n1-n2) / (2 (n2+1))
            g = g * (n1 + n2 + 1) * (n1 - n2) // (2 * (n2 + 1))
            cells[(n1, n2 + 1)] = g
    return cells


@lru_cache(maxsize=None)
def scaled_sum(j: int, ell: int, parity: str) -> float:
    """even: 2^(1-2j) sum_n (2n)^(2ell) C(2j, j+n) / j^ell;
    odd: 2^(-2j) sum_n (2n-1)^(2ell) C(2j-1, j+n-1) / j^ell; exact, rounded once."""
    top = 2 * j if parity == "even" else 2 * j - 1
    # walk C(top, k) downward from the centre by exact ratios
    k = j + 1 if parity == "even" else j
    binom = math.comb(top, k)
    num = 0
    for n in range(1, j + 1):
        base = 2 * n if parity == "even" else 2 * n - 1
        num += base ** (2 * ell) * binom
        binom = binom * (top - k) // (k + 1)
        k += 1
    shift = 2 * j - 1 if parity == "even" else 2 * j
    return float(Fraction(num, (1 << shift) * j ** ell))


# ---------------------------------------------------------------------------
# Circle transform: sum_{n<=N} b_n cos(n theta) against phi_inf.


def rebuilt(terms, theta: float) -> float:
    with mpmath.workdps(_DPS):
        th = _mp(theta)
        return float(mpmath.fsum(_mp(b) * mpmath.cos(n * th) for n, b in enumerate(terms)))


def powerlaw_max_ell(p: float, weight_factor: int) -> int:
    """Largest ell with sum (m+1)^(-p) m^(weight_factor ell) finite."""
    ell = 0
    while weight_factor * (ell + 1) < p - 1.0:
        ell += 1
    return ell

"""High-precision references for the tests, sharing no code with spherekernel.

Every value the tests check against mpmath or exact arithmetic comes from
here.  Models are read through their fields and ``model.variant``; where a
reference must stop where the library stops, the test passes the stop in.

Kernel values are at 40 digits.  On the Hilbert sphere and S^1, at x = cos t:
Geometric c / (1 - r x) and c (1 - r x) / (1 - 2 r x + r^2), Poisson
exp(c (x - 1)) and exp(c (x - 1)) cos(c sin t), PowerLaw C Li_p(x) / x and
C Re(e^(-it) Li_p(e^(it))).  Elsewhere, sums over one table of g_k(x) =
C_k^lam(x) / C_k^lam(1) (x^k on the Hilbert sphere), in integers times
2^-_BITS, with a bound on the dropped tail: below 1e-30 of the mass, or
past 2,000 PowerLaw terms.  At t = 0 the value is the exact mass.
"""

import functools
import math
from fractions import Fraction
from operator import mul

import mpmath

DPS = 40
# each recurrence step rounds down by a unit or two of 2^-140 < 1e-42
_BITS = 140


@functools.lru_cache(maxsize=256)
def _table(lam, x):  # g_0 and g_1, extended in place as longer sums need it
    return [1 << _BITS, int(mpmath.ldexp(x, _BITS))]


def _gegenbauer_fixed(lam, x, count):
    """g_0(x) .. g_{count-1}(x) times 2^_BITS, for an mpf x: DLMF 18.9.1 over
    C_k^lam(1) = (2 lam)_k / k!, g_k = (2 (k + lam - 1) x g_{k-1} - (k - 1)
    g_{k-2}) / (k + 2 lam - 1) from g_0 = 1, g_1 = x (Chebyshev's at lam =
    0); lam = inf gives x^k, the limit of the normalized polynomials."""
    table = _table(lam, x)
    x_fixed, two_lam = table[1], 0 if lam == math.inf else round(2 * lam)
    for k in range(len(table), count):
        if lam == math.inf:
            table.append((x_fixed * table[-1]) >> _BITS)
        else:
            step = ((2 * k + two_lam - 2) * x_fixed * table[-1]) >> _BITS
            table.append((step - (k - 1) * table[-2]) // (k + two_lam - 1))
    return table[:count]


def _scaled(coeffs):
    # (ints, shift), ints[k] = coeffs[k] 2^shift rounded down, the largest near 2^_BITS
    shift = _BITS - mpmath.frexp(max(coeffs, default=0.0))[1]
    return [int(mpmath.ldexp(a, shift)) for a in coeffs], shift


_scaled_floats = functools.lru_cache(maxsize=16)(_scaled)


def _dot(scaled, lam, x):
    ints, shift = scaled
    table = _gegenbauer_fixed(lam, x, len(ints))
    return mpmath.ldexp(sum(map(mul, ints, table)), -(shift + _BITS))


def gegenbauer_values(lam, x, count):
    """g_0(x) .. g_{count-1}(x) as mpfs, at 40 digits."""
    with mpmath.workdps(DPS):
        return [mpmath.ldexp(g, -_BITS) for g in _gegenbauer_fixed(lam, x, count)]


def gegenbauer_table_error(lam, x, degrees):
    """max |g_k(x) - mpmath's hypergeometric C_k^lam(x) / C_k^lam(1)| over the degrees, lam > 0."""
    with mpmath.workdps(DPS):
        values = gegenbauer_values(lam, x, max(degrees) + 1)
        ratio = lambda k: mpmath.gegenbauer(k, lam, x) / mpmath.gegenbauer(k, lam, 1)
        return max(abs(values[k] - ratio(k)) for k in degrees)


def gegenbauer_series(coeffs, lam, x):
    """sum_k coeffs[k] g_k(x) at 40 digits, for a tuple of floats."""
    with mpmath.workdps(DPS):
        return _dot(_scaled_floats(coeffs), lam, x)


def _mpf(value):
    return mpmath.mpf(value.numerator) / value.denominator


def exact_mass(model):
    # sum_m a_m: exact rationals, or C zeta(p) to 40 digits for PowerLaw
    if model.variant == "geometric":
        return Fraction(model.c) / (1 - Fraction(model.r))
    if model.variant == "finite":
        return sum(map(Fraction, model.terms))
    if model.variant == "poisson":
        return Fraction(1)
    with mpmath.workdps(40):
        return Fraction(mpmath.nstr(mpmath.mpf(model.C) * mpmath.zeta(model.p), 40))


@functools.lru_cache(maxsize=32)
def _coefficients(model):
    """(scaled a_0 .. a_{K-1}, bound on sum_{k >= K} a_k), at 40 digits."""
    if model.variant == "finite":
        return _scaled(model.terms), 0
    if model.variant == "powerlaw":
        n, scale, p = 2000, mpmath.mpf(model.C), mpmath.mpf(model.p)
        # (k + 1)^-p <= the integral over [k, k + 1]
        terms = [scale * mpmath.mpf(k + 1) ** -p for k in range(n)]
        return _scaled(terms), scale * mpmath.mpf(n) ** (1 - p) / (p - 1)
    small, c = mpmath.mpf(10) ** -30 * _mpf(exact_mass(model)), mpmath.mpf(model.c)
    if model.variant == "geometric":
        r = mpmath.mpf(model.r)
        terms = [c]
        while terms[-1] * r / (1 - r) > small:
            terms.append(terms[-1] * r)
        return _scaled(terms), terms[-1] * r / (1 - r)
    # past m + 1 > c, p(m + j) <= p(m) (c / (m + 1))^j
    terms, term = [], mpmath.exp(-c)
    while not (len(terms) + 1 > c and term * (len(terms) + 1) / (len(terms) + 1 - c) <= small):
        terms.append(term)
        term = term * c / len(terms)
    return _scaled(terms), term * (len(terms) + 1) / (len(terms) + 1 - c)


def _closed_form(model, dimension, x, theta):
    c = model.C if model.variant == "powerlaw" else model.c
    if model.variant == "geometric":
        r = mpmath.mpf(model.r)
        return c / (1 - r * x) if dimension is None else c * (1 - r * x) / (1 - 2 * r * x + r * r)
    if model.variant == "poisson":
        return mpmath.exp(c * (x - 1)) * (1 if dimension is None else mpmath.cos(c * mpmath.sin(theta)))
    if dimension is None:
        return c * mpmath.re(mpmath.polylog(model.p, x)) / x
    return c * mpmath.re(mpmath.polylog(model.p, mpmath.expj(theta)) / mpmath.expj(theta))


def _s2_laplace(c, r, x, theta):
    """sum_k c r^k P_k(x) by Laplace's integral P_k(x) = (1/pi) int_0^pi (x + i sin
    theta cos phi)^k dphi (Whittaker and Watson, 15.23), summed under it."""
    s = mpmath.sin(theta)
    integrand = lambda phi: 1 / (1 - r * x - 1j * r * s * mpmath.cos(phi))
    return c * mpmath.quad(integrand, [0, mpmath.pi / 2, mpmath.pi]).real / mpmath.pi


def _s3_generating(c, r, x, theta):
    """sum_k c r^k sin((k+1) theta) / ((k+1) sin theta), as
    c Im(-log(1 - r e^(i theta))) / (r sin theta)."""
    return c * mpmath.im(-mpmath.log(1 - r * mpmath.expj(theta))) / (r * mpmath.sin(theta))


def _s4_generating(c, r, x, theta):
    """sum_k c r^k C_k^(3/2)(t) / C_k^(3/2)(1), t = cos theta, as (1 - 2 t z +
    z^2)^(-3/2) integrated twice in z, 2 c (sqrt(1 - 2 r t + r^2) - 1 + r t)
    / (r^2 (1 - t^2)); at 80 digits, as both differences cancel up to 32."""
    with mpmath.workdps(80):
        t = mpmath.cos(theta)
        return 2 * c * (mpmath.sqrt(1 - 2 * r * t + r * r) - 1 + r * t) / (r * r * (1 - t * t))


# Geometric past r = 0.99, where a table sum runs to 5e7 terms at r = 1 - 2^-20
_NEAR_ONE_FORMS = {2: _s2_laplace, 3: _s3_generating, 4: _s4_generating}


@functools.lru_cache(maxsize=1024)
def kernel(model, dimension, theta):
    """(phi(theta), remainder) at 40 digits on S^dimension, or the Hilbert
    sphere for None: phi(theta) is within the remainder of the true value."""
    with mpmath.workdps(DPS):
        theta = mpmath.mpf(theta)
        x = mpmath.cos(theta)
        if x == 1:
            return _mpf(exact_mass(model)), 0
        if dimension in (None, 1) and model.variant != "finite":
            return _closed_form(model, dimension, x, theta), 0
        if model.variant == "geometric" and model.r > 0.99:
            return _NEAR_ONE_FORMS[dimension](mpmath.mpf(model.c), mpmath.mpf(model.r), x, theta), 0
        lam = math.inf if dimension is None else (dimension - 1) / 2
        scaled, remainder = _coefficients(model)
        return _dot(scaled, lam, x), remainder


def poisson_tail(c, start, ell):
    """sum_{m >= start} e^-c c^m m^ell / m!, term by term at 40 digits: the
    term ratio c (1 + 1/m)^ell / (m + 1) falls with m, so once it is below 1
    the rest is at most term * ratio / (1 - ratio)."""
    with mpmath.workdps(40):
        c, m = mpmath.mpf(c), start
        p = mpmath.exp(-c + m * mpmath.log(c) - mpmath.loggamma(m + 1))
        total = mpmath.mpf(0)
        while True:
            term = p * mpmath.mpf(m) ** ell
            total += term
            if m > 0:
                ratio = c / (m + 1) * (mpmath.mpf(m + 1) / m) ** ell
                if ratio < 1 and term * ratio / (1 - ratio) < total * mpmath.mpf(10) ** -45:
                    return total
            p *= c / (m + 1)
            m += 1


_polylog = functools.lru_cache(maxsize=None)(mpmath.polylog)


def geometric_tail(c, r, start, ell):
    """sum_{m >= start} c r^m m^ell at 40 digits, from the binomial expansion
    c r^start sum_p C(ell, p) start^(ell - p) sum_n n^p r^n, with the inner
    sums polylogarithms of negative order, plus 1 at p = 0 for n = 0."""
    with mpmath.workdps(40):
        r = mpmath.mpf(r)
        inner = [_polylog(-p, r) + (p == 0) for p in range(ell + 1)]
        weights = [math.comb(ell, p) * start ** (ell - p) for p in range(ell + 1)]
        return mpmath.mpf(c) * r ** start * mpmath.fsum(map(mpmath.fmul, weights, inner))


def tail(model, start, ell):
    if model.variant == "geometric":
        return geometric_tail(model.c, model.r, start, ell)
    return poisson_tail(model.c, start, ell)


def generating_function(model):
    # z -> sum_m a_m z^m: c / (1 - r z) or exp(c (z - 1))
    c = mpmath.mpf(model.c)
    if model.variant == "geometric":
        return lambda z: c / (1 - mpmath.mpf(model.r) * z)
    return lambda z: mpmath.exp(c * (z - 1))


def derivatives_at_one(function, count):
    # orders 0 .. count - 1 as Fractions, by numerical differentiation at 30 digits
    with mpmath.workdps(30):
        return [Fraction(str(mpmath.diff(function, 1, k))) for k in range(count)]


def circle_coefficient(coefficient, n, stop):
    """The exact rational b_n over a_m = coefficient(m) for the m < stop of
    n's parity: sum_m a_m C(m, (m + n) / 2) / 2^(m - 1 + [n = 0])."""
    return sum(
        Fraction(coefficient(m)) * math.comb(m, (m + n) // 2) / 2 ** (m - 1 + (n == 0))
        for m in range(n, stop, 2)
    )


def geometric_circle(c, r, n):
    """(b_n, rho^n) at 50 digits, from c / (1 - r cos t) = (c / q) (1 + 2
    sum_n rho^n cos(n t)), q = sqrt(1 - r^2), rho = r / (1 + q)."""
    with mpmath.workdps(50):
        q = mpmath.sqrt(1 - mpmath.mpf(r) ** 2)
        scale, power = mpmath.mpf(c) / q, (mpmath.mpf(r) / (1 + q)) ** n
        return (scale if n == 0 else 2 * scale * power), power


def termwise_derivative(coefficient, diagonal, ell, stop):
    # one big-integer diag(m, ell) for every term a_m = coefficient(m), 0 < m < stop
    total = math.fsum(
        coefficient(m) * float(diagonal(m, ell)) for m in range(1, stop) if coefficient(m)
    )
    return (-1) ** ell * total


def power_moment_derivative(model, ell, coeffs):
    # 50-digit phi^(2 ell)(0) from power moments sum_m a_m m^k in closed form
    # (polylog for Geometric, Touchard polynomials for Poisson) and the
    # monomial coefficients of diag(m, ell): no factorial moment in it
    with mpmath.workdps(50):
        if model.variant == "geometric":
            moment = lambda k: mpmath.mpf(model.c) * mpmath.polylog(-k, mpmath.mpf(model.r))
        else:
            moment = lambda k: mpmath.bell(k, mpmath.mpf(model.c))
        value = mpmath.fsum(c * moment(k) for k, c in enumerate(coeffs) if c)
        return float((-1) ** ell * value)

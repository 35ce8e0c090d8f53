import functools
import hashlib
import math
import random
import sys
import threading
from array import array
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from spherekernel import kernels
from spherekernel.errors import DimensionMismatch, ToleranceUnreachable
from spherekernel.kernels import (
    KernelSpec,
    UnitVector,
    gegenbauer_normalized,
    geodesic_distance,
    phi_eval,
    phi_eval_d,
    phi_eval_inf,
    psd_spot_check,
)
from spherekernel.sequences import (
    Finite,
    Geometric,
    PoissonType,
    PowerLaw,
    coefficient_prefix,
    term,
    weighted_tail_bound,
)


def test_gegenbauer_degree_zero_and_one():
    for lam in (0.0, 0.5, 1.0, 2.5):
        for t in (-1.0, -0.25, 0.0, 0.8, 1.0):
            assert gegenbauer_normalized(0, lam, t) == 1.0
            if lam > 0:
                assert gegenbauer_normalized(1, lam, t) == pytest.approx(t, abs=1e-15)


def test_gegenbauer_legendre_value():
    # lam = 1/2 is the Legendre case: P_2(x) = (3x^2 - 1)/2
    assert gegenbauer_normalized(2, 0.5, 0.5) == pytest.approx(-0.125, abs=1e-14)


def test_gegenbauer_chebyshev_limit():
    for k in (0, 1, 3, 10):
        for t in (-0.9, 0.1, 0.77):
            assert gegenbauer_normalized(k, 0.0, t) == pytest.approx(
                math.cos(k * math.acos(t)), abs=1e-12
            )


def test_gegenbauer_matches_scipy_oracle():
    for lam in (0.5, 1.0, 1.5, 3.0):
        for k in (2, 5, 17, 40):
            norm = scipy.special.eval_gegenbauer(k, lam, 1.0)
            for t in np.linspace(-1.0, 1.0, 23):
                want = scipy.special.eval_gegenbauer(k, lam, t) / norm
                got = gegenbauer_normalized(k, lam, float(t))
                assert got == pytest.approx(want, abs=1e-9)


def test_gegenbauer_value_at_one_is_one():
    for lam in (0.5, 1.0, 4.5):
        for k in range(0, 60):
            assert gegenbauer_normalized(k, lam, 1.0) == pytest.approx(1.0, abs=1e-11)


@settings(max_examples=200)
@given(
    k=st.integers(min_value=0, max_value=100),
    half_d=st.integers(min_value=0, max_value=10),
    t=st.floats(min_value=-1.0, max_value=1.0),
)
def test_gegenbauer_bounded_by_one(k, half_d, t):
    lam = half_d / 2.0
    assert abs(gegenbauer_normalized(k, lam, t)) <= 1.0 + 1e-10


def test_gegenbauer_domain_checks():
    with pytest.raises(ValueError):
        gegenbauer_normalized(2, 0.5, 1.01)
    with pytest.raises(ValueError):
        gegenbauer_normalized(2, 0.3, 0.5)  # not a half-integer
    with pytest.raises(ValueError):
        gegenbauer_normalized(-1, 0.5, 0.5)
    for t in (math.nan, math.inf):
        for lam in (0.0, 0.5):
            with pytest.raises(ValueError):
                gegenbauer_normalized(2, lam, t)
    for lam in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="half-integer"):
            gegenbauer_normalized(3, lam, 0.5)
    # within the clamp slack
    assert gegenbauer_normalized(3, 0.5, 1.0 + 1e-13) == pytest.approx(1.0, abs=1e-11)


def test_huge_sphere_dimension_tends_to_the_hilbert_sphere():
    # g_k -> t^k as lam grows, so S^d approaches the Hilbert sphere like
    # 1/d, and |g_k| <= 1 keeps every d up to the float range finite
    model = Geometric(1.0, 0.5)
    hilbert = phi_eval_inf(model, 1.0)
    assert hilbert == 1.3701467146520903
    assert phi_eval_d(KernelSpec(10**11, model), 1.0) == 1.3701467146475372
    for d in (10**9, 10**11, 10**13):
        assert 0.0 < (hilbert - phi_eval_d(KernelSpec(d, model), 1.0)) * d < 1.0
    assert abs(phi_eval_d(KernelSpec(10**300, model), 1.0) - hilbert) <= 1e-15
    assert gegenbauer_normalized(40, (10**12 - 1) / 2, 0.5) == pytest.approx(0.5**40, rel=1e-8)


def _reference_gegenbauer_sum(coeffs, lam, t):
    # the recurrences of C_k^lam at t and at 1 run side by side and divide;
    # at lam = 1/2 the normalizers are 1.0 exactly
    if not coeffs:
        return 0.0
    total = coeffs[0]
    if len(coeffs) == 1:
        return total
    c_prev, c_cur = 1.0, 2.0 * lam * t
    n_prev, n_cur = 1.0, 2.0 * lam
    total += coeffs[1] * (c_cur / n_cur)
    for k in range(2, len(coeffs)):
        c_next = (2.0 * t * (k + lam - 1.0) * c_cur - (k + 2.0 * lam - 2.0) * c_prev) / k
        n_next = (2.0 * (k + lam - 1.0) * n_cur - (k + 2.0 * lam - 2.0) * n_prev) / k
        c_prev, c_cur = c_cur, c_next
        n_prev, n_cur = n_cur, n_next
        if coeffs[k]:
            total += coeffs[k] * (c_cur / n_cur)
    return total


def _decimal_gegenbauer_sum(coeffs, lam, t):
    """sum_k coeffs[k] C_k^lam(t) / C_k^lam(1) in 30-digit decimal arithmetic,
    through C_k^lam(t) = ((k + lam - 1) 2t C_{k-1} - (k + 2 lam - 2) C_{k-2}) / k
    and C_k^lam(1) = C_{k-1}^lam(1) (k + 2 lam - 1) / k, with C_k^lam(1) > 0.
    lam = inf sums coeffs[k] t^k, the limit of the normalized polynomials.
    """
    with localcontext() as ctx:
        ctx.prec = 30
        x = Decimal(t)
        if lam == math.inf:
            total = Decimal(0)
            for a in reversed(coeffs):
                total = total * x + Decimal(a)
            return float(total)
        lam = Decimal(lam)
        c_prev, c_cur, n_cur = Decimal(1), 2 * lam * x, 2 * lam
        total = Decimal(coeffs[0]) + Decimal(coeffs[1]) * x
        for k, a in enumerate(coeffs[2:], 2):
            c_prev, c_cur = c_cur, ((k + lam - 1) * 2 * x * c_cur - (k + 2 * lam - 2) * c_prev) / k
            n_cur = n_cur * (k + 2 * lam - 1) / k
            total += Decimal(a) * c_cur / n_cur
        return float(total)


@pytest.mark.parametrize(
    "model",
    [Geometric(1.0, 0.5), PoissonType(3.0), PowerLaw(1.0, 3.5), Finite((0.2, 0.0, 0.5, 0.0, 0.3))],
)
@pytest.mark.parametrize("tol", [1e-5, 1e-10])
def test_gegenbauer_sum_equals_simultaneous_recurrence_reference(model, tol):
    coeffs = coefficient_prefix(model, tol)
    rng = random.Random(f"{model}:{tol}")
    thetas = [0.0, math.pi] + [rng.uniform(0.0, math.pi) for _ in range(5)]
    # the rounding of M terms of |value| <= 1 each
    bound = 4 * len(coeffs) * 2.0**-53 * math.fsum(coeffs)
    for theta in thetas:
        t = math.cos(theta)
        # the Legendre loop is unchanged, bit for bit
        assert kernels._gegenbauer_sum(coeffs, 0.5, t) == _reference_gegenbauer_sum(coeffs, 0.5, t)
        for lam in (1.0, 1.5, 3.0, (10**9 - 1) / 2, (10**11 - 1) / 2):
            want = _decimal_gegenbauer_sum(coeffs, lam, t)
            assert abs(kernels._gegenbauer_sum(coeffs, lam, t) - want) <= bound, (lam, theta)
        # this lam overflowed both unnormalized recurrences; here g_k = t^k
        got = kernels._gegenbauer_sum(coeffs, (10**200 - 1) / 2, t)
        assert abs(got - _decimal_gegenbauer_sum(coeffs, math.inf, t)) <= bound, theta


_S2_PINNED_GEOMETRIC = [Geometric(1.0, r) for r in (0.5, 0.9, 0.99)]


def _s2_digest(evaluate, models):
    values = [
        repr(evaluate(model, k * math.pi / 64, tol))
        for model in models
        for tol in (1e-5, 1e-10)
        for k in range(65)
    ]
    return hashlib.sha1("\n".join(values).encode()).hexdigest()


def test_s2_values_are_pinned_bit_for_bit():
    # the Legendre path: every repr over a grid of models, tolerances and
    # angles, through the series itself, which Geometric rows of phi_eval_d
    # no longer take
    models = _S2_PINNED_GEOMETRIC + [PoissonType(c) for c in (2.0, 50.0)]
    models += [PowerLaw(1.0, p) for p in (3.5, 4.5, 7.0)]
    digest = _s2_digest(lambda model, theta, tol: kernels._series(model, 2, theta, tol), models)
    assert digest == "089471886e9f3247357554d571aa0fecfa7ab1d7"
    # phi_eval_d takes that path for every model without a closed form
    others = models[len(_S2_PINNED_GEOMETRIC):]
    digest = _s2_digest(lambda model, theta, tol: phi_eval_d(KernelSpec(2, model), theta, tol), others)
    assert digest == "f90f84972a8a59598853154dafd782b7cdef9754"


def test_s2_geometric_form_values_are_pinned_bit_for_bit():
    # the same grid's Geometric rows through the closed form
    digest = _s2_digest(
        lambda model, theta, tol: phi_eval_d(KernelSpec(2, model), theta, tol), _S2_PINNED_GEOMETRIC
    )
    assert digest == "43d4d2685405f9a88b67cd6fa002f838c52a721f"


def test_recurrence_tables_under_concurrent_builds():
    # more threads than cores over many lam, so the prefix cache and the
    # sums interleave; every value matches its single-threaded one
    model = PowerLaw(1.0, 3.5)
    dims = range(2, 14)
    want = {d: phi_eval_d(KernelSpec(d, model), 0.7, 1e-5) for d in dims}
    got, errors = [], []

    def worker(offset):
        try:
            for i in range(40):
                d = dims[(offset + i) % len(dims)]
                got.append((d, phi_eval_d(KernelSpec(d, model), 0.7, 1e-5)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(got) == 160 and all(value == want[d] for d, value in got)


def _mp_normalized_gegenbauer(lam, t, count):
    """C_k^lam(t) / C_k^lam(1) for k < count, at 30 digits (the float t exactly)."""
    with mpmath.workdps(30):
        lam, x = mpmath.mpf(lam), mpmath.mpf(t)
        c_prev, c_cur = mpmath.mpf(1), 2 * lam * x
        n_cur = 2 * lam  # C_k^lam(1) = binomial(k + 2 lam - 1, k)
        values = [c_prev, c_cur / n_cur]
        for k in range(2, count):
            c_prev, c_cur = c_cur, (2 * x * (k + lam - 1) * c_cur - (k + 2 * lam - 2) * c_prev) / k
            n_cur = n_cur * (k + 2 * lam - 1) / k
            values.append(c_cur / n_cur)
        return values


# within 1e-3 of both ends, where the envelopes are 1 for many degrees
_ENVELOPE_ANGLES = (1e-3, 0.7, math.pi / 2, math.pi - 1e-3)


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_envelope_bounds_normalized_gegenbauer(dimension):
    lam = (dimension - 1) / 2.0
    for theta in _ENVELOPE_ANGLES:
        t = math.cos(theta)
        env = kernels._envelope(dimension, t)
        values = _mp_normalized_gegenbauer(lam, t, 4001)
        # env(k) bounds degree k; env does not grow, so it bounds every degree >= k
        assert all(abs(values[k]) <= env(k) for k in range(1, 4001)), theta
        assert all(env(k + 1) <= env(k) <= 1.0 for k in range(1, 4000))
        if theta == 0.7:
            assert env(4000) < 0.1  # a real envelope, not the bound 1


def test_envelope_is_one_where_no_bound_is_known():
    for dimension in (1, 5, 6):
        assert kernels._envelope(dimension, 0.3) is None
    for dimension in (None, 2, 3, 4):
        assert kernels._envelope(dimension, 1.0) is None
        assert kernels._envelope(dimension, -1.0) is None
    assert kernels._envelope(None, 0.5)(3) == 0.125


@pytest.mark.parametrize(
    "model",
    [Geometric(1.0, 0.9), PoissonType(50.0), PowerLaw(1.0, 3.5), Finite((0.5, 0.0, 0.25, 0.125))],
)
def test_suffix_tails_bound_the_exact_suffix_sums(model):
    tol = 1e-8
    prefix = kernels._prefix(model, tol)
    coeffs = coefficient_prefix(model, tol)
    assert prefix.coeffs == coeffs and len(prefix) == len(coeffs)
    assert isinstance(prefix.rest, array) and len(prefix.rest) == len(coeffs) + 1
    exact = Fraction(weighted_tail_bound(model, len(coeffs), 0).bound)
    for m in range(len(coeffs), -1, -1):
        if m < len(coeffs):
            exact += Fraction(coeffs[m])
        assert Fraction(prefix.rest[m]) >= exact
    # rounded up by a few ulps, not more
    assert prefix.rest[0] <= float(exact) * (1.0 + 1e-12)


def _mp_gegenbauer_series(lam, t, terms, count):
    """sum_{k < count} terms(k) C_k^lam(t) / C_k^lam(1) at 30 digits."""
    values = _mp_normalized_gegenbauer(lam, t, count)
    with mpmath.workdps(30):
        return float(mpmath.fsum(terms(k) * v for k, v in enumerate(values)))


_INTERIOR_ANGLES = (0.4, 1.1, 1.9, 2.8)


# the closed forms are checked at these angles and ratios, and at c = 0
_FORM_ANGLES = (0.0, 1e-8, 1e-5, 0.7, 2.0, 3.1, math.pi, -0.4, 7.0)
_FORM_RATIOS = (0.0, 0.5, 0.99, 1.0 - 2.0**-20)


def _mp_cos(theta):
    return mpmath.cos(mpmath.mpf(theta))


def _mp_hilbert_geometric(c, r, theta):
    """sum_m c r^m cos^m theta by mpmath.nsum at 40 digits.

    Levin's transform: the default Richardson and Shanks steps stopped early
    on 6 of 1,813 drawn (r, theta), such as r = 0.5, theta = -1.925.
    """
    with mpmath.workdps(40):
        x = mpmath.mpf(r) * _mp_cos(theta)
        return mpmath.nsum(lambda m: mpmath.mpf(c) * x**m, [0, mpmath.inf], method="levin")


def _mp_s2_geometric(c, r, theta):
    """sum_k c r^k P_k(cos theta) at 40 digits.

    For r <= 0.99 the Legendre series itself, by mpmath.nsum.  At r = 1 - 2^-20
    it needs about 5e7 terms, so each P_k comes from Laplace's first integral,
    P_k(cos theta) = (1/pi) int_0^pi (cos theta + i sin theta cos phi)^k dphi
    (Whittaker and Watson, 15.23), and the geometric series in k is summed
    under the integral sign.
    """
    with mpmath.workdps(40):
        t, c, r = _mp_cos(theta), mpmath.mpf(c), mpmath.mpf(r)
        if r <= 0.99:
            return mpmath.nsum(lambda k: c * r**k * mpmath.legendre(k, t), [0, mpmath.inf])
        s = mpmath.sin(mpmath.mpf(theta))
        integrand = lambda phi: 1 / (1 - r * t - 1j * r * s * mpmath.cos(phi))
        return c * mpmath.quad(integrand, [0, mpmath.pi / 2, mpmath.pi]).real / mpmath.pi


def _mp_hilbert_poisson(c, theta):
    """sum_m e^-c c^m cos^m theta / m! at 40 digits, over m < 2c + 200.

    Past m = 2c the terms fall by half at least per step, so the rest is
    below twice the last term, under 1e-60 of the mass here.
    """
    with mpmath.workdps(40):
        x = mpmath.mpf(c) * _mp_cos(theta)
        term, terms = mpmath.exp(-mpmath.mpf(c)), []
        for m in range(int(2 * c) + 200):
            terms.append(term)
            term = term * x / (m + 1)
        return mpmath.fsum(terms)


def _mp_s3_geometric(c, r, theta):
    """sum_k c r^k sin((k+1) theta) / ((k+1) sin theta) at 40 digits, as
    c Im(-log(1 - r e^(i theta))) / (r sin theta), and c / (1 - r) at theta = 0."""
    with mpmath.workdps(40):
        c, r, theta = mpmath.mpf(c), mpmath.mpf(r), mpmath.mpf(theta)
        if theta == 0:
            return c / (1 - r)
        return c * mpmath.im(-mpmath.log(1 - r * mpmath.exp(1j * theta))) / (r * mpmath.sin(theta))


def _mp_s4_geometric(c, r, theta):
    """sum_k c r^k C_k^(3/2)(t) / C_k^(3/2)(1) at t = cos theta, as the
    generating function (1 - 2 t z + z^2)^(-3/2) integrated twice in z,
    2 c (sqrt(1 - 2 r t + r^2) - 1 + r t) / (r^2 (1 - t^2)), and c / (1 - r)
    at theta = 0.  Both differences cancel up to 32 digits at theta = pi,
    so they are taken at 80.
    """
    with mpmath.workdps(80):
        c, r, theta = mpmath.mpf(c), mpmath.mpf(r), mpmath.mpf(theta)
        if theta == 0:
            return c / (1 - r)
        t = mpmath.cos(theta)
        return 2 * c * (mpmath.sqrt(1 - 2 * r * t + r * r) - 1 + r * t) / (r * r * (1 - t * t))


# 0.99^5600 < 1e-24: the normalized Gegenbauer values the S^3 and S^4 oracles sum
_DECIMAL_TERMS = 5600


@functools.lru_cache(maxsize=None)
def _decimal_normalized_gegenbauer(lam, theta):
    """g_k(cos theta) for k < _DECIMAL_TERMS by the normalized recurrence
    g_k = (2 (k + lam - 1) t g_{k-1} - (k - 1) g_{k-2}) / (k + 2 lam - 1)
    in 40-digit decimal arithmetic, from the float theta's cosine to 40 digits."""
    with mpmath.workdps(40):
        t = Decimal(mpmath.nstr(_mp_cos(theta), 40))
    with localcontext() as ctx:
        ctx.prec = 40
        lam = Decimal(lam)
        values = [Decimal(1), t]
        for k in range(2, _DECIMAL_TERMS):
            values.append((2 * (k + lam - 1) * t * values[-1] - (k - 1) * values[-2]) / (k + 2 * lam - 1))
        return values


def _decimal_geometric(c, r, dimension, theta):
    """sum_k c r^k g_k(cos theta) over the recurrence above, at 40 digits.

    The sum stops where r^k < 1e-24; as |g_k| <= 1 the rest is below
    1e-24 c / (1 - r), under 1e-7 of a unit of any form's bound.
    """
    values = _decimal_normalized_gegenbauer((dimension - 1) / 2.0, theta)
    with localcontext() as ctx:
        ctx.prec = 40
        r, power, total = Decimal(r), Decimal(1), Decimal(0)
        for value in values:
            if power < Decimal("1e-24"):
                break
            total += power * value
            power *= r
        assert power < Decimal("1e-24")
        total *= Decimal(c)
    with mpmath.workdps(40):
        return mpmath.mpf(str(total))


# an oracle for every row of kernels._FORMS: (model, theta) -> phi(theta),
# sharing no code with the form
_FORM_ORACLES = {
    (Geometric, None): lambda model, theta: _mp_hilbert_geometric(model.c, model.r, theta),
    (Geometric, 2): lambda model, theta: _mp_s2_geometric(model.c, model.r, theta),
    (Geometric, 3): lambda model, theta: _decimal_geometric(model.c, model.r, 3, theta),
    (Geometric, 4): lambda model, theta: _decimal_geometric(model.c, model.r, 4, theta),
    (PoissonType, None): lambda model, theta: _mp_hilbert_poisson(model.c, theta),
}


def _form_bound(model, dimension):
    return kernels._form_bound(kernels._FORMS[type(model), dimension], model)


def _assert_geometric_form_within_its_bound(dimension, oracle, ratios, angles):
    tol = 1e-6  # above every bound on the grid, so the form is taken
    for c, r in [(0.3, r) for r in ratios] + [(0.0, 0.5)]:
        model = Geometric(c, r)
        bound = _form_bound(model, dimension)
        assert bound <= tol and kernels._kernel_form(model, dimension, tol) is not None
        for theta in angles:
            got = phi_eval(KernelSpec(dimension, model), theta, tol)
            with mpmath.workdps(40):
                assert abs(got - oracle(model, theta)) <= bound, (c, r, theta)


def test_hilbert_geometric_matches_generating_function():
    oracle = _FORM_ORACLES[Geometric, None]
    _assert_geometric_form_within_its_bound(None, oracle, _FORM_RATIOS, _FORM_ANGLES)
    # the series path still cuts its prefix short where |cos theta| < 1
    model, tol = PowerLaw(1.0, 3.5), 1e-10
    prefix = kernels._coefficient_prefix(model, tol)
    for theta in _INTERIOR_ANGLES:
        t = math.cos(theta)
        assert len(kernels._angle_prefix(prefix, None, t, tol)) < len(prefix)
        with mpmath.workdps(30):
            want = mpmath.polylog(3.5, mpmath.mpf(t)) / t
        assert abs(phi_eval_inf(model, theta, tol) - want) <= tol


def test_s2_geometric_matches_generating_function():
    oracle = _FORM_ORACLES[Geometric, 2]
    _assert_geometric_form_within_its_bound(2, oracle, _FORM_RATIOS, _FORM_ANGLES)


# the S^3 and S^4 forms are checked on this grid, and at c = 0
_GEGENBAUER_FORM_ANGLES = (0.0, 1e-8, 1e-5, 1e-3, 0.7, 2.0, 3.1, math.pi, -0.4, 7.0)
_GEGENBAUER_FORM_RATIOS = (0.0, 0.3, 0.5, 0.9, 0.99)


@pytest.mark.parametrize(
    "dimension, generating_function", [(3, _mp_s3_geometric), (4, _mp_s4_geometric)]
)
def test_s3_s4_geometric_match_the_gegenbauer_recurrence(dimension, generating_function):
    oracle = _FORM_ORACLES[Geometric, dimension]
    _assert_geometric_form_within_its_bound(
        dimension, oracle, _GEGENBAUER_FORM_RATIOS, _GEGENBAUER_FORM_ANGLES
    )
    # r = 1 - 2^-20 would need about 5e7 terms; its generating function,
    # written otherwise than the form, instead
    oracle = lambda model, theta: generating_function(model.c, model.r, theta)
    _assert_geometric_form_within_its_bound(
        dimension, oracle, (1.0 - 2.0**-20,), _GEGENBAUER_FORM_ANGLES
    )


def test_hilbert_poisson_matches_its_series():
    tol = 1e-10
    oracle = _FORM_ORACLES[PoissonType, None]
    for c in (0.0, 0.5, 2.0, 50.0, 1e3):
        model = PoissonType(c)
        bound = _form_bound(model, None)
        assert kernels._kernel_form(model, None, tol) is not None
        for theta in _FORM_ANGLES:
            got = phi_eval_inf(model, theta, tol)
            assert abs(got - oracle(model, theta)) <= bound, (c, theta)


@pytest.mark.parametrize("theta", [1e-5, 1e-4, 1e-3])
def test_s2_geometric_near_zero_meets_the_tolerance(theta):
    # the summed Legendre series missed here by 1.0043, 0.74 and 0.24 tol:
    # its certified tail used almost all of tol, leaving none for rounding
    tol = 1e-10
    got = phi_eval_d(KernelSpec(2, Geometric(1.0, 0.99)), theta, tol)
    assert abs(got - _mp_s2_geometric(1.0, 0.99, theta)) <= tol


def test_geometric_forms_near_the_float_maximum():
    # 4c overflows for the first model and 2c for the second, but neither
    # their masses (1.6e308 and 1.67e308) nor any form
    rows = [dimension for variant, dimension in kernels._FORMS if variant is Geometric]
    assert rows == [None, 2, 3, 4]
    for model in (Geometric(8e307, 0.5), Geometric(1.5e308, 0.1)):
        c, r = Fraction(model.c), Fraction(model.r)
        for dimension in rows:
            bound = _form_bound(model, dimension)
            assert kernels._kernel_form(model, dimension, 1e300) is not None
            # every normalized basis value is (+-1)^k at theta = 0 and pi
            for theta, want in ((0.0, c / (1 - r)), (math.pi, c / (1 + r))):
                got = phi_eval(KernelSpec(dimension, model), theta, 1e300)
                assert abs(Fraction(got) - want) <= bound, (model, dimension, theta)


# for every row of kernels._FORMS, a model and its series value at theta = 0.7
# and tol = 1e-300, as summed before the row's form existed
_FALLBACK_CASES = {
    (Geometric, None): (Geometric(1.0, 0.5), 1.6192262878562635),
    (Geometric, 2): (Geometric(1.0, 0.5), 1.4356827599495945),
    (Geometric, 3): (Geometric(1.0, 0.5), 1.4925142983379065),
    (Geometric, 4): (Geometric(1.0, 0.5), 1.5219407383680337),
    (PoissonType, None): (PoissonType(2.0), 0.6248050328002883),
}


def test_forms_fall_back_to_the_series_below_their_bounds():
    for (_, dimension), (model, series_value) in _FALLBACK_CASES.items():
        # a tol below the rounding bound sums the series, bit for bit as before
        got = phi_eval(KernelSpec(dimension, model), 0.7, 1e-300)
        assert got == series_value == kernels._series(model, dimension, 0.7, 1e-300)
        bound = _form_bound(model, dimension)
        assert kernels._kernel_form(model, dimension, bound) is not None
        assert kernels._kernel_form(model, dimension, math.nextafter(bound, 0.0)) is None
    # a zero mass has a zero bound, and tol is still validated first
    for tol in (0.0, -1e-10, math.nan):
        for dimension in (None, 2, 3, 4):
            with pytest.raises(ToleranceUnreachable):
                phi_eval(KernelSpec(dimension, Geometric(0.0, 0.5)), 0.7, tol)
    # no form on the other spheres, nor for the other variants
    for dimension, model in [
        (1, Geometric(1.0, 0.5)),
        (5, Geometric(1.0, 0.5)),
        (2, PoissonType(2.0)),
        (None, PowerLaw(1.0, 3.5)),
        (None, Finite((0.5, 0.5))),
    ]:
        assert kernels._kernel_form(model, dimension, 1e-3) is None


def test_every_form_has_an_oracle_and_a_fallback_case():
    # a row cannot land untested: each needs an oracle and a recorded series value
    for key in kernels._FORMS:
        assert key in _FORM_ORACLES and key in _FALLBACK_CASES, key
        model, _ = _FALLBACK_CASES[key]
        got = phi_eval(KernelSpec(key[1], model), 0.7, 1e-6)
        with mpmath.workdps(40):
            assert abs(got - _FORM_ORACLES[key](model, 0.7)) <= _form_bound(model, key[1]), key
    assert set(_FORM_ORACLES) == set(_FALLBACK_CASES) == set(kernels._FORMS)


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_powerlaw_matches_mpmath_gegenbauer_series(dimension):
    model, tol = PowerLaw(1.0, 3.5), 1e-6
    count = 2000
    # |normalized C_k| <= 1 and (k+1)^-3.5 <= the integral over [k, k+1]
    remainder = count ** -2.5 / 2.5
    prefix = kernels._coefficient_prefix(model, tol)
    lam = (dimension - 1) / 2.0
    for theta in _INTERIOR_ANGLES:
        t = math.cos(theta)
        assert len(kernels._angle_prefix(prefix, dimension, t, tol)) < len(prefix)
        want = _mp_gegenbauer_series(lam, t, lambda k: mpmath.mpf(k + 1) ** -3.5, count)
        got = phi_eval_d(KernelSpec(dimension, model), theta, tol)
        assert abs(got - want) <= tol + remainder


def _full_prefix_sum(model, dimension, theta, tol):
    coeffs = coefficient_prefix(model, tol)
    if dimension is None:
        total, u = 0.0, math.cos(theta)
        for a in reversed(coeffs):
            total = total * u + a
        return total
    if dimension == 1:
        return math.fsum(a * math.cos(k * theta) for k, a in enumerate(coeffs))
    return kernels._gegenbauer_sum(coeffs, (dimension - 1) / 2.0, math.cos(theta))


@pytest.mark.parametrize("dimension", [None, 1, 2, 3, 4, 5])
def test_full_prefix_where_the_envelope_is_one(dimension):
    # |cos theta| = 1 on every sphere, and every angle for d = 1 and d = 5
    model, tol = PowerLaw(1.0, 3.5), 1e-6
    thetas = [0.0, math.pi]
    if dimension in (1, 5):
        thetas += list(_INTERIOR_ANGLES)
    spec = KernelSpec(dimension, model)
    for theta in thetas:
        assert repr(phi_eval(spec, theta, tol)) == repr(_full_prefix_sum(model, dimension, theta, tol))


@pytest.mark.parametrize("dimension", [None, 2, 3, 4])
def test_cutoff_is_the_smallest_certified_index(dimension):
    for model in (PowerLaw(1.0, 3.5), Geometric(1.0, 0.99), PoissonType(50.0)):
        prefix = kernels._coefficient_prefix(model, 1e-8)
        for theta in _INTERIOR_ANGLES:
            t = math.cos(theta)
            env = kernels._envelope(dimension, t)
            cut = len(kernels._angle_prefix(prefix, dimension, t, 1e-8))
            half = len(prefix) // 2
            if env(half) * prefix.rest[half] > 1e-8:
                assert cut == len(prefix)  # the middle probe failed
            else:
                assert env(cut) * prefix.rest[cut] <= 1e-8
                assert cut == 1 or env(cut - 1) * prefix.rest[cut - 1] > 1e-8


def test_s4_powerlaw_cutoff_is_far_below_the_plain_prefix():
    model, tol = PowerLaw(1.0, 3.5), 1e-10
    prefix = kernels._coefficient_prefix(model, tol)
    cut = len(kernels._angle_prefix(prefix, 4, math.cos(1.0), tol))
    assert len(prefix) > 6000 and cut < len(prefix) // 10


def test_phi_eval_d_single_degree_one_term():
    spec = KernelSpec(2, Finite((0.0, 1.0)))
    for theta in (0.0, 0.4, 1.5, 3.0):
        assert phi_eval_d(spec, theta, 1e-12) == pytest.approx(math.cos(theta), abs=1e-12)


def test_phi_eval_d_at_zero_is_mass():
    spec = KernelSpec(3, Geometric(0.5, 0.5))
    assert phi_eval_d(spec, 0.0, 1e-11) == pytest.approx(1.0, abs=1e-10)


def test_phi_eval_d_matches_brute_force_legendre_sum():
    # independent oracle: 10^4-term partial sum through scipy's Legendre values
    theta = 1.0
    ks = np.arange(10_000)
    oracle = float(
        np.sum(0.5 * 0.5 ** ks * scipy.special.eval_legendre(ks, math.cos(theta)))
    )
    spec = KernelSpec(2, Geometric(0.5, 0.5))
    assert phi_eval_d(spec, theta, 1e-12) == pytest.approx(oracle, abs=1e-10)


def test_phi_eval_d_dimension_one_is_cosine_series():
    spec = KernelSpec(1, Finite((0.25, 0.0, 0.75)))
    for theta in (0.0, 0.9, 2.2):
        want = 0.25 + 0.75 * math.cos(2 * theta)
        assert phi_eval_d(spec, theta, 1e-12) == pytest.approx(want, abs=1e-12)


def test_phi_eval_inf_geometric_closed_form():
    model = Geometric(0.5, 0.5)
    for theta in (0.0, 0.3, math.pi / 2, 2.1, math.pi):
        assert abs(phi_eval_inf(model, theta, 1e-13) - _mp_hilbert_geometric(0.5, 0.5, theta)) <= 1e-13


def test_phi_eval_inf_at_right_angle_is_first_coefficient():
    model = PoissonType(2.0)
    assert phi_eval_inf(model, math.pi / 2, 1e-12) == pytest.approx(
        term(model, 0), abs=1e-11
    )


def test_phi_eval_inf_reflection_identity():
    model = Geometric(0.3, 0.7)
    for theta in (0.2, 1.0, 2.5):
        direct = sum(term(model, m) * (-math.cos(theta)) ** m for m in range(200))
        assert phi_eval_inf(model, math.pi - theta, 1e-13) == pytest.approx(
            direct, abs=1e-11
        )


def test_phi_eval_dispatch_and_spec_checks():
    model = Geometric(0.5, 0.5)
    assert phi_eval(KernelSpec(None, model), 0.7, 1e-12) == pytest.approx(
        phi_eval_inf(model, 0.7, 1e-12), abs=0
    )
    with pytest.raises(ValueError):
        phi_eval_inf(KernelSpec(2, model), 0.7)
    with pytest.raises(ValueError):
        phi_eval_d(KernelSpec(None, model), 0.7)
    with pytest.raises(ValueError):
        KernelSpec(0, model)


@pytest.mark.parametrize(
    "dimension", [2.5, 3.0, True, False, "2", -1, pytest.param(10**400, id="10**400")]
)
def test_kernel_spec_requires_integer_dimension(dimension):
    with pytest.raises(ValueError):
        KernelSpec(dimension, Geometric(0.5, 0.5))


@pytest.mark.parametrize("dimension", [None, 1, 2])
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_is_rejected(dimension, theta):
    spec = KernelSpec(dimension, Geometric(0.5, 0.5))
    evaluator = phi_eval_inf if dimension is None else phi_eval_d
    for fn in (phi_eval, evaluator):
        with pytest.raises(ValueError, match="angle must be finite"):
            fn(spec, theta)


def test_unit_vector_validation():
    UnitVector((1.0, 0.0))
    with pytest.raises(ValueError):
        UnitVector((1.0, 1.0))


@pytest.mark.parametrize(
    "components", [(math.nan,), (1.0, math.nan), (math.inf, 0.0), (-math.inf,)]
)
def test_unit_vector_rejects_non_finite_components(components):
    with pytest.raises(ValueError):
        UnitVector(components)


def test_geodesic_distance_examples():
    e1 = UnitVector((1.0, 0.0, 0.0))
    e2 = UnitVector((0.0, 1.0, 0.0))
    m1 = UnitVector((-1.0, 0.0, 0.0))
    assert geodesic_distance(e1, e1) == 0.0
    assert geodesic_distance(e1, m1) == pytest.approx(math.pi, abs=0)
    assert geodesic_distance(e1, e2) == pytest.approx(math.pi / 2, abs=1e-15)
    with pytest.raises(DimensionMismatch):
        geodesic_distance(e1, UnitVector((1.0, 0.0)))


def random_sphere_points(rng, ambient, count):
    points = []
    for _ in range(count):
        raw = [rng.gauss(0.0, 1.0) for _ in range(ambient)]
        norm = math.sqrt(sum(x * x for x in raw))
        points.append(UnitVector(tuple(x / norm for x in raw)))
    return points


def test_psd_single_point():
    spec = KernelSpec(None, Geometric(1.0, 0.5))
    verdict = psd_spot_check(spec, [UnitVector((0.0, 1.0, 0.0))], [3.0])
    assert verdict.passed
    assert verdict.value == pytest.approx(9.0 * phi_eval_inf(spec, 0.0, 1e-12), rel=1e-9)


def test_psd_zero_weights():
    rng = random.Random(7)
    spec = KernelSpec(None, PoissonType(0.5))
    points = random_sphere_points(rng, 3, 5)
    verdict = psd_spot_check(spec, points, [0.0] * 5)
    assert verdict.passed
    assert verdict.value == 0.0


@pytest.mark.parametrize(
    "model",
    [
        Finite((0.2, 0.0, 0.8)),
        Geometric(1.0, 0.5),
        PowerLaw(1.0, 3.5),
        PoissonType(1.0),
    ],
)
@pytest.mark.parametrize("dim", [2, 4])
def test_psd_random_draws_both_sphere_readings(model, dim):
    rng = random.Random(1234 + dim)
    for spec in (KernelSpec(None, model), KernelSpec(dim, model)):
        for _ in range(25):
            points = random_sphere_points(rng, dim + 1, 10)
            weights = [rng.uniform(-1.0, 1.0) for _ in range(10)]
            assert psd_spot_check(spec, points, weights).passed


def test_psd_detects_sign_flipped_kernel():
    # negative control: a genuinely indefinite "kernel" must fail the check;
    # cos(3 theta) alone takes both signs, so some draw produces a negative form
    rng = random.Random(99)
    spec = KernelSpec(1, Finite((0.0, 0.0, 0.0, 1.0)))
    points = random_sphere_points(rng, 2, 12)

    failed = False
    for _ in range(60):
        weights = [rng.uniform(-1.0, 1.0) for _ in range(12)]
        gram_weighted = 0.0
        for i, p in enumerate(points):
            for j, q in enumerate(points):
                theta = geodesic_distance(p, q)
                # flip the PSD series by hand
                gram_weighted += weights[i] * weights[j] * -math.cos(3 * theta)
        if gram_weighted < -1e-9:
            failed = True
            break
    assert failed


def test_psd_dimension_mismatch():
    spec = KernelSpec(None, Geometric(1.0, 0.5))
    pts = [UnitVector((1.0, 0.0)), UnitVector((0.0, 1.0, 0.0))]
    with pytest.raises(DimensionMismatch):
        psd_spot_check(spec, pts, [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        psd_spot_check(spec, pts[:1], [1.0, 2.0])
    # a finite dimension d needs points in R^(d+1); the Hilbert sphere takes any
    in_r6 = [UnitVector((1.0,) + (0.0,) * 5), UnitVector((0.0, 1.0) + (0.0,) * 4)]
    for d in (1, 2, 4):
        with pytest.raises(DimensionMismatch, match=f"S\\^{d}"):
            psd_spot_check(KernelSpec(d, Geometric(1.0, 0.5)), in_r6, [1.0, 1.0])
    assert psd_spot_check(KernelSpec(5, Geometric(1.0, 0.5)), in_r6, [1.0, 1.0]).passed
    assert psd_spot_check(spec, in_r6, [1.0, 1.0]).passed


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_psd_rejects_non_finite_weights(bad):
    spec = KernelSpec(2, Geometric(1.0, 0.5))
    pts = [UnitVector((1.0, 0.0, 0.0)), UnitVector((0.0, 1.0, 0.0))]
    with pytest.raises(ValueError, match="weights must be finite"):
        psd_spot_check(spec, pts, [1.0, bad])


def _lattice_points(ambient, count):
    # integer directions over a correctly rounded sqrt: the same floats on
    # every platform; the last two points are the first one's antipode and a
    # repeat of the second, so the clamp of the dot product is exercised
    rng = random.Random(ambient)
    points = []
    while len(points) < count - 2:
        raw = [rng.randint(-9, 9) for _ in range(ambient)]
        if any(raw):
            norm = math.sqrt(sum(x * x for x in raw))
            points.append(UnitVector(tuple(x / norm for x in raw)))
    antipode = UnitVector(tuple(-x for x in points[0].components))
    return points + [antipode, points[1]]


# the series path on spheres with and without an envelope (S^5's is 1)
_PSD_SERIES_MODELS = [PowerLaw(1.0, 3.5), PoissonType(2.0), Finite((0.2, 0.0, 0.8, 0.1))]


def _psd_pinned_cases():
    # every form row at a tol that takes it and at 1e-300, which sums its
    # series (a new row adds cases, so the digest is recorded again)
    for (_, dimension), (model, _) in _FALLBACK_CASES.items():
        for tol in (1e-10, 1e-300):
            yield KernelSpec(dimension, model), tol
    for dimension in (None, 1, 3, 5):
        for model in _PSD_SERIES_MODELS:
            yield KernelSpec(dimension, model), 1e-10


def test_psd_and_distances_are_pinned_bit_for_bit():
    values = []
    for spec, tol in _psd_pinned_cases():
        points = _lattice_points(4 if spec.dimension is None else spec.dimension + 1, 8)
        weights = [(-1) ** i * (i + 1) / 8 for i in range(8)]
        values.append(repr(psd_spot_check(spec, points[:1], [3.0], tol)))
        values.append(repr(psd_spot_check(spec, points, weights, tol)))
    # each threshold scales the certified mass, exactly 1 for Poisson models
    digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
    assert digest == "599f06cd55f5c4909382a070d7cf6f57c8ed505a0a94f7141a1e18ce63d02fe8"
    distances = [
        repr(geodesic_distance(p, q))
        for ambient in (2, 3, 4, 6)
        for p in _lattice_points(ambient, 8)
        for q in _lattice_points(ambient, 8)
    ]
    digest = hashlib.sha256("\n".join(distances).encode()).hexdigest()
    assert digest == "bba7cb1c958259f51aa7f24b138b40d3e82e001e1c7ec13d41cec1cce16276bc"


def test_psd_validation_errors_keep_their_order():
    spec = KernelSpec(2, Geometric(1.0, 0.5))
    in_r3, in_r4 = _lattice_points(3, 4)[:3], _lattice_points(4, 4)
    off_sphere = in_r4[:2]
    cases = [
        # length mismatch, mixed dimensions, points off S^2 and a NaN weight
        (in_r3[:1] + off_sphere, [1.0, math.nan], DimensionMismatch, "points but"),
        (in_r3[:1] + off_sphere, [1.0, 1.0, math.nan], DimensionMismatch, "mixed ambient"),
        (off_sphere, [1.0, math.nan], DimensionMismatch, "do not lie on S\\^2"),
        (in_r3, [1.0, 1.0, math.nan], ValueError, "weights must be finite"),
    ]
    for points, weights, error, message in cases:
        with pytest.raises(error, match=message):
            psd_spot_check(spec, points, weights)

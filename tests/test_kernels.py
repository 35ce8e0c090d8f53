import ast
import hashlib
import math
import random
import sys
import threading
from array import array
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import _reference
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
    _VARIANTS,
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
            want = float(_reference.gegenbauer_series(coeffs, lam, t))
            assert abs(kernels._gegenbauer_sum(coeffs, lam, t) - want) <= bound, (lam, theta)
        # this lam overflowed both unnormalized recurrences; here g_k = t^k
        got = kernels._gegenbauer_sum(coeffs, (10**200 - 1) / 2, t)
        assert abs(got - float(_reference.gegenbauer_series(coeffs, math.inf, t))) <= bound, theta


_S2_PINNED_GEOMETRIC = [Geometric(1.0, r) for r in (0.5, 0.9, 0.99)]


@cache
def _series_prefix(model, tol):
    return kernels._prefix(model, tol)


def _series_value(model, dimension, theta, tol):
    # the series path itself, which _resolve skips where a closed form applies
    return kernels._series(*_series_prefix(model, tol), dimension, theta, tol)


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
    digest = _s2_digest(lambda model, theta, tol: _series_value(model, 2, theta, tol), models)
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


# within 1e-3 of both ends, where the envelopes are 1 for many degrees
_ENVELOPE_ANGLES = (1e-3, 0.7, math.pi / 2, math.pi - 1e-3)


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_envelope_bounds_normalized_gegenbauer(dimension):
    lam = (dimension - 1) / 2.0
    for theta in _ENVELOPE_ANGLES:
        t = math.cos(theta)
        env = kernels._envelope(dimension, t)
        values = _reference.gegenbauer_values(lam, t, 4001)
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
    prefix, rest = kernels._prefix(model, tol)
    coeffs = coefficient_prefix(model, tol)
    assert prefix == coeffs
    assert isinstance(rest, array) and len(rest) == len(coeffs) + 1
    exact = Fraction(weighted_tail_bound(model, len(coeffs), 0).bound)
    for m in range(len(coeffs), -1, -1):
        if m < len(coeffs):
            exact += Fraction(coeffs[m])
        assert Fraction(rest[m]) >= exact
    # rounded up by a few ulps, not more
    assert rest[0] <= float(exact) * (1.0 + 1e-12)


_INTERIOR_ANGLES = (0.4, 1.1, 1.9, 2.8)


def _form_bound(model, dimension):
    return kernels._form_bound(kernels._FORMS[type(model), dimension], model)


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
        assert got == series_value == _series_value(model, dimension, 0.7, 1e-300)
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


# The contract |phi_eval - phi| <= bound on every (variant, sphere) cell against
# _reference.kernel: the bound is the row's rounding bound where _kernel_form
# takes a closed form, else tol, plus the reference's own remainder.
_SPHERES = (None, 1, 2, 3, 4, 5, 6)
_CONTRACT_ANGLES = (0.0, 1e-8, 1e-5, 1e-4, 1e-3, 0.3, 0.7, math.pi / 2, 2.0, 2.1, 3.1, math.pi, -0.4, 7.0)
# past about 1e12, k * theta loses the angle that libm's sin and cos keep
_CONTRACT_ANGLES += (1e300, -1e308)
_CONTRACT_ANGLES += _INTERIOR_ANGLES

# (models, tolerances, spheres): every model at every tolerance, angle and sphere
_CONTRACT_GRID = [
    ([Geometric(0.3, r) for r in (0.0, 0.3, 0.5, 0.9, 0.99)], (1e-6, 1e-10), _SPHERES),
    ([Geometric(0.0, 0.5), Geometric(1.0, 0.5), Geometric(1.0, 0.99)], (1e-6, 1e-10), _SPHERES),
    ([Geometric(0.5, 0.5)], (1e-6, 1e-10, 1e-13), _SPHERES),
    # a series would sum about 4e7 terms, so only where a form is taken
    ([Geometric(0.3, 1.0 - 2.0**-20)], (1e-6,), (None, 2, 3, 4)),
    ([PoissonType(c) for c in (0.0, 0.5, 2.0, 50.0, 1e3)], (1e-6, 1e-10), _SPHERES),
    ([PowerLaw(1.0, 3.5)], (1e-6, 1e-10), (None, 1)),
    # the 2,000-term reference leaves 2.2e-9, far below this tol
    ([PowerLaw(1.0, 3.5)], (1e-6,), (2, 3, 4, 5, 6)),
    ([Finite((0.5, 0.0, 0.25, 0.125)), Finite((1.0, 1e-13, 0.0, 3e-14))], (1e-6, 1e-10), _SPHERES),
]

# (model, sphere, theta, tol) -> its miss, as the cutoff takes all of tol and the
# sum adds its rounding on top
_KNOWN_MISSES = {
    (Geometric(1.0, 0.99), 5, 1e-5, 1e-10): "misses by 1.0036 tol",
    (Geometric(1.0, 0.99), 6, 1e-5, 1e-10): "misses by 1.0085 tol",
    (Geometric(1.0, 0.9999), 1, 0.0, 1e-10): "misses by 1.009 tol",
    (Geometric(1.0, 0.9999), 5, 0.0, 1e-10): "misses by 63.89 tol",
    (Geometric(1.0, 0.999), 5, 0.0, 1e-10): "misses by 1.128 tol",
    (PoissonType(3e5), 2, 0.0, 1e-10): "misses by 2.18 tol, through its prefix terms",
    (Geometric(1.0, 0.99), None, 1e-8, 1e-13): "misses by 3.14 tol",
    (Geometric(1.0, 0.99), 2, 1e-8, 1e-13): "misses by 488 tol",
    (PoissonType(1e3), 2, 1e-8, 1e-13): "misses by 247 tol",
}


def _contract_cases(variant, dimension):
    return [
        (model, theta, tol)
        for models, tols, spheres in _CONTRACT_GRID if dimension in spheres
        for model in models if type(model) is variant
        for tol in tols
        for theta in _CONTRACT_ANGLES if (model, dimension, theta, tol) not in _KNOWN_MISSES
    ]


def _contract_params():
    name = lambda dimension: "hilbert" if dimension is None else f"S{dimension}"
    for variant, dimension in product(_VARIANTS.values(), _SPHERES):
        cases = _contract_cases(variant, dimension)
        yield pytest.param(dimension, cases, id=f"{variant.variant}-{name(dimension)}")
    for (model, dimension, theta, tol), miss in _KNOWN_MISSES.items():
        yield pytest.param(
            dimension, [(model, theta, tol)], id=f"miss-{model}-{name(dimension)}-{theta}-{tol}",
            marks=pytest.mark.xfail(raises=AssertionError, strict=True, reason=f"ROADMAP item 2: {miss}"),
        )


@pytest.mark.parametrize("dimension, cases", _contract_params())
def test_phi_eval_meets_its_contract(dimension, cases):
    for model, theta, tol in cases:
        form = kernels._kernel_form(model, dimension, tol)
        bound = tol if form is None else _form_bound(model, dimension)
        want, remainder = _reference.kernel(model, dimension, theta)
        got = phi_eval(KernelSpec(dimension, model), theta, tol)
        with mpmath.workdps(_reference.DPS):
            assert abs(got - want) <= bound + remainder, (model, dimension, theta, tol)


def test_every_form_and_sphere_has_contract_cases():
    # no form row, variant or sphere lands untested, nor a form without a series value
    for variant, dimension in set(kernels._FORMS) | set(product(_VARIANTS.values(), _SPHERES)):
        assert _contract_cases(variant, dimension), (variant, dimension)
    assert set(_FALLBACK_CASES) == set(kernels._FORMS)
    for key, (model, _) in _FALLBACK_CASES.items():
        assert (model, 0.7, 1e-6) in _contract_cases(*key), key


def test_reference_module_imports_nothing_from_the_library():
    nodes = list(ast.walk(ast.parse(Path(_reference.__file__).read_text())))
    modules = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
    assert "mpmath" in modules and not [m for m in modules if m.split(".")[0] == "spherekernel"]
    # and its table agrees with mpmath's own Gegenbauer polynomials
    for lam, x in ((0.5, 0.3), (1.5, 0.7), (2.5, -0.999)):
        assert _reference.gegenbauer_table_error(lam, x, (1, 7, 500, 6000)) < 1e-35, (lam, x)


# the closed forms are checked at these angles and ratios, and at c = 0
_FORM_ANGLES = (0.0, 1e-8, 1e-5, 0.7, 2.0, 3.1, math.pi, -0.4, 7.0)
_FORM_RATIOS = (0.0, 0.5, 0.99, 1.0 - 2.0**-20)


def _assert_geometric_form_within_its_bound(dimension):
    tol = 1e-6  # above every bound on the grid, so the form is taken
    for c, r in [(0.3, r) for r in _FORM_RATIOS] + [(0.0, 0.5)]:
        model = Geometric(c, r)
        bound = _form_bound(model, dimension)
        assert bound <= tol and kernels._kernel_form(model, dimension, tol) is not None
        for theta in _FORM_ANGLES:
            want, remainder = _reference.kernel(model, dimension, theta)
            got = phi_eval(KernelSpec(dimension, model), theta, tol)
            with mpmath.workdps(_reference.DPS):
                assert abs(got - want) + remainder <= bound, (c, r, theta)


def test_hilbert_geometric_matches_generating_function():
    _assert_geometric_form_within_its_bound(None)
    # the series path still cuts its prefix short where |cos theta| < 1
    model, tol = PowerLaw(1.0, 3.5), 1e-10
    prefix, rest = _series_prefix(model, tol)
    for theta in _INTERIOR_ANGLES:
        t = math.cos(theta)
        assert len(kernels._angle_prefix(prefix, rest, None, t, tol)) < len(prefix)
        want, remainder = _reference.kernel(model, None, theta)
        with mpmath.workdps(_reference.DPS):
            assert abs(phi_eval_inf(model, theta, tol) - want) + remainder <= tol


def test_s2_geometric_matches_generating_function():
    _assert_geometric_form_within_its_bound(2)


def test_phi_eval_inf_geometric_closed_form():
    model = Geometric(0.5, 0.5)
    for theta in (0.0, 0.3, math.pi / 2, 2.1, math.pi):
        want, remainder = _reference.kernel(model, None, theta)
        with mpmath.workdps(_reference.DPS):
            assert abs(phi_eval_inf(model, theta, 1e-13) - want) + remainder <= 1e-13


@pytest.mark.parametrize("theta", [1e-5, 1e-4, 1e-3])
def test_s2_geometric_near_zero_meets_the_tolerance(theta):
    # the summed Legendre series missed here by 1.0043, 0.74 and 0.24 tol:
    # its certified tail used almost all of tol, leaving none for rounding
    model, tol = Geometric(1.0, 0.99), 1e-10
    got = phi_eval_d(KernelSpec(2, model), theta, tol)
    want, remainder = _reference.kernel(model, 2, theta)
    with mpmath.workdps(_reference.DPS):
        assert abs(got - want) + remainder <= tol


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
        prefix, rest = _series_prefix(model, 1e-8)
        for theta in _INTERIOR_ANGLES:
            t = math.cos(theta)
            env = kernels._envelope(dimension, t)
            cut = len(kernels._angle_prefix(prefix, rest, dimension, t, 1e-8))
            half = len(prefix) // 2
            if env(half) * rest[half] > 1e-8:
                assert cut == len(prefix)  # the middle probe failed
            else:
                assert env(cut) * rest[cut] <= 1e-8
                assert cut == 1 or env(cut - 1) * rest[cut - 1] > 1e-8


def test_s4_powerlaw_cutoff_is_far_below_the_plain_prefix():
    model, tol = PowerLaw(1.0, 3.5), 1e-10
    prefix, rest = _series_prefix(model, tol)
    cut = len(kernels._angle_prefix(prefix, rest, 4, math.cos(1.0), tol))
    assert len(prefix) > 6000 and cut < len(prefix) // 10
    # and a cut below the plain prefix on every sphere with an envelope
    for dimension, tol in ((None, 1e-10), (2, 1e-6), (3, 1e-6), (4, 1e-6)):
        prefix, rest = _series_prefix(model, tol)
        for theta in _INTERIOR_ANGLES:
            assert len(kernels._angle_prefix(prefix, rest, dimension, math.cos(theta), tol)) < len(prefix)


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


def test_one_prefix_per_model_sphere_and_tol(monkeypatch):
    # phi_eval and psd_spot_check share one evaluator per (model, sphere, tol),
    # and the evaluator builds its prefix once
    builds, build = [], kernels._prefix

    def counted(model, tol):
        builds.append((model, tol))
        return build(model, tol)

    monkeypatch.setattr(kernels, "_prefix", counted)
    kernels._evaluator.cache_clear()
    model, tol = PoissonType(2.0), 1e-10  # a unit mass: psd_spot_check evaluates at tol / 4
    for spheres, dimension in enumerate((2, 5), 1):
        spec = KernelSpec(dimension, model)
        for k in range(33):
            phi_eval(spec, k * math.pi / 32, tol / 4.0)
        points = random_sphere_points(random.Random(dimension), dimension + 1, 8)
        assert psd_spot_check(spec, points, [1.0] * 8, tol).passed
        assert builds == [(model, tol / 4.0)] * spheres


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

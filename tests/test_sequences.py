import functools
import json
import math
import sys
from dataclasses import fields
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherekernel.derivatives import _even_block_counts
from spherekernel.errors import DivergentSeries, ToleranceUnreachable, UnsupportedRange
from spherekernel import sequences
from spherekernel.sequences import (
    _VARIANTS,
    Finite,
    Geometric,
    PoissonType,
    PowerLaw,
    converges_weighted,
    model_from_dict,
    model_from_json,
    model_to_dict,
    term,
    total_mass_bound,
    truncation_index,
    weighted_tail_bound,
)

SAMPLE_MODELS = [
    Finite((1.0, 0.0, 0.5)),
    Finite(()),
    Geometric(1.0, 0.5),
    Geometric(0.7, 0.9),
    Geometric(2.0, 0.0),
    PowerLaw(1.0, 4.5),
    PowerLaw(3.0, 2.2),
    PoissonType(0.5),
    PoissonType(2.0),
    PoissonType(0.0),
]


def brute_weighted_tail(model, start, ell, count=100_000):
    m = np.arange(start, start + count, dtype=float)
    a = np.array([term(model, int(i)) for i in range(start, start + count)])
    weights = np.ones_like(m) if ell == 0 else m ** ell
    if start == 0 and ell == 0:
        weights[0] = 1.0
    return float(np.sum(a * weights))


def test_term_examples():
    assert term(Finite((1, 0, 0.5)), 2) == 0.5
    assert term(Finite((1, 0, 0.5)), 7) == 0.0
    assert term(Geometric(0.5, 0.5), 3) == pytest.approx(0.0625, abs=0)
    assert term(PoissonType(1.0), 0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert term(PowerLaw(1.0, 2.0), 1) == pytest.approx(0.25, rel=1e-15)


def test_term_rejects_negative_index():
    with pytest.raises(ValueError):
        term(Geometric(1.0, 0.5), -1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Geometric(1.0, 1.0)
    with pytest.raises(ValueError):
        Geometric(-1.0, 0.5)
    with pytest.raises(ValueError):
        PowerLaw(1.0, 1.0)
    with pytest.raises(ValueError):
        PoissonType(-0.1)
    with pytest.raises(ValueError):
        Finite((1.0, -0.5))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Finite((1.0, math.nan)),
        lambda: Finite((math.inf,)),
        lambda: Geometric(math.nan, 0.5),
        lambda: Geometric(math.inf, 0.5),
        lambda: PowerLaw(math.nan, 3.5),
        lambda: PowerLaw(1.0, math.inf),
        lambda: PoissonType(math.nan),
        lambda: PoissonType(math.inf),
    ],
)
def test_non_finite_fields_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: Geometric(1e308, 0.5),
        lambda: PowerLaw(1.7e308, 3.5),
        lambda: Finite((1e308, 1e308)),
    ],
    ids=["geometric", "powerlaw", "finite"],
)
def test_overflowing_total_mass_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_largest_finite_mass_accepted():
    assert total_mass_bound(Geometric(1e308, 0.4)) < math.inf
    assert total_mass_bound(Finite((1e308, 7e307))) < math.inf


@pytest.mark.parametrize(
    "model, ell",
    [
        (Geometric(1.0, 0.5), 400),
        (PoissonType(3.0), 400),
        (Finite((0.0,) * 999 + (1.0,)), 200),
        (Finite((0.0, 0.0, 1e300)), 30),
    ],
    ids=["geometric", "poisson", "finite", "finite-infinite-sum"],
)
def test_weighted_tail_beyond_float_range_is_unsupported_range(model, ell):
    # m**ell past float range (an OverflowError), or a_m m**ell (an infinite bound)
    with pytest.raises(UnsupportedRange, match="float range"):
        weighted_tail_bound(model, 0, ell)
    assert math.isfinite(weighted_tail_bound(model, 0, 1).bound)


def _mp_poisson_tail(c, start, ell):
    """sum_{m >= start} e^-c c^m m^ell / m!, summed term by term at 40 digits.

    The term ratio c (1 + 1/m)^ell / (m + 1) falls with m, so once it is
    below 1 the rest is at most term * ratio / (1 - ratio).
    """
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


def _mp_geometric_tail(c, r, start, ell):
    """sum_{m >= start} c r^m m^ell at 40 digits, from the binomial expansion
    c r^start sum_p C(ell, p) start^(ell - p) sum_n n^p r^n, with the inner
    sums polylogarithms of negative order, plus 1 at p = 0 for n = 0."""
    with mpmath.workdps(40):
        r = mpmath.mpf(r)
        inner = [_mp_polylog(-p, r) + (p == 0) for p in range(ell + 1)]
        weights = [math.comb(ell, p) * start ** (ell - p) for p in range(ell + 1)]
        return mpmath.mpf(c) * r ** start * mpmath.fsum(map(mpmath.fmul, weights, inner))


_mp_polylog = functools.lru_cache(maxsize=None)(mpmath.polylog)


def _mp_tail(model, start, ell):
    if isinstance(model, Geometric):
        return _mp_geometric_tail(model.c, model.r, start, ell)
    return _mp_poisson_tail(model.c, start, ell)


def _assert_sandwiched(model, start, ell):
    # Geometric tails, and Poisson tails from 0, within 1e-8 relative above
    # the exact value, and Poisson tails from start > 0 within 4 times it;
    # 2^-1066 absolute covers the two subnormal units that each of up to
    # 61 terms below the float range reads, and 1e-25 relative the oracle's
    # own rounding, far below a float's
    with mpmath.workdps(30):
        exact = _mp_tail(model, start, ell)
        if exact > sys.float_info.max:
            with pytest.raises(UnsupportedRange, match="float range"):
                weighted_tail_bound(model, start, ell)
            return
        bound = weighted_tail_bound(model, start, ell).bound
        over = 4 if isinstance(model, PoissonType) and start > 0 else 1 + mpmath.mpf(1e-8)
        low = exact * (1 - mpmath.mpf(1e-25))
        assert low <= bound <= exact * over + 2.0 ** -1066, (model, start, ell, bound, exact)


@pytest.mark.parametrize(
    "model, ell, exact",
    [
        (Geometric(1.0, 0.5), 118, lambda: mpmath.polylog(-118, 0.5)),
        (Geometric(1.0, 0.5), 150, lambda: mpmath.polylog(-150, 0.5)),
        (PoissonType(3.0), 200, lambda: _mp_poisson_tail(3.0, 0, 200)),
    ],
    ids=["geometric-118", "geometric-150", "poisson-200"],
)
def test_weighted_tail_where_m_to_the_ell_leaves_float_range(model, ell, exact):
    # m**ell overflows a float from m = 410 (ell = 118) on, while the sum
    # of a_m m**ell is an ordinary float; the bound used to raise
    with mpmath.workdps(30):
        want = exact()
        bound = weighted_tail_bound(model, 0, ell).bound
        assert want <= bound <= want * (1 + mpmath.mpf(1e-8))


def test_tails_from_where_terms_leave_float_range_bound_the_exact_tail():
    # m**ell overflows a float at each start, and a_m = 1e-3**m is below
    # float range from m = 103 on, so the tails there go through logarithms
    for model, start, ell in [
        (Geometric(1.0, 1e-3), 120, 200),
        (Geometric(1.0, 1e-3), 160, 160),
        (Geometric(0.3, 0.5), 410, 118),
        (PoissonType(3.0), 400, 200),
        # about 5.9e309 from here, a tail past float range
        (PoissonType(1e5), 100_000, 62),
    ]:
        with pytest.raises(OverflowError):
            float(start**ell)
        _assert_sandwiched(model, start, ell)


def test_weighted_tails_lie_in_their_mpmath_sandwich():
    models = [Geometric(c, r) for c in (1.0, 0.3) for r in (1e-10, 0.5, 0.99)]
    models += [PoissonType(c) for c in (0.5, 3.0, 50.0, 700.0)]
    for model in models:
        for start in (0, 1, 7, 100):
            for ell in (0, 1, 2, 5, 20, 60):
                _assert_sandwiched(model, start, ell)


def test_tails_sum_no_terms(monkeypatch):
    # closed forms sum no terms, so these return at once however large
    # start, c or r are
    def refuse(self, m):
        raise AssertionError("a tail summed a term")

    monkeypatch.setattr(Geometric, "term", refuse)
    monkeypatch.setattr(PoissonType, "term", refuse)
    assert truncation_index(PoissonType(1e5), 0, 1e-10) == 102_020
    _assert_sandwiched(Geometric(1.0, 0.999999), 0, 20)
    _assert_sandwiched(PoissonType(1e6), 10**6 + 5_000, 3)


@pytest.mark.parametrize("c", [0.0, 0.5, 50.0, 700.0, 1e6, 1e300])
def test_poisson_mass_is_exactly_one(c):
    assert total_mass_bound(PoissonType(c)) == 1.0


def test_poisson_first_moment_bound_reaches_the_intensity():
    # the exact first moment is c
    assert weighted_tail_bound(PoissonType(1e6), 0, 1).bound >= 1e6


@given(
    terms=st.lists(st.floats(min_value=0.0, max_value=1e100), max_size=8),
    start=st.integers(min_value=0, max_value=9),
    ell=st.integers(min_value=0, max_value=6),
)
def test_finite_tail_is_at_least_the_exact_sum(terms, start, ell):
    model = Finite(tuple(terms))
    exact = sum(Fraction(a) * m**ell for m, a in enumerate(model.terms) if m >= start)
    bound = weighted_tail_bound(model, start, ell).bound
    # the least float at or above the exact sum
    assert Fraction(bound) >= exact and (bound == 0.0 or Fraction(math.nextafter(bound, 0.0)) < exact)


def test_poisson_term_switches_to_log_domain_on_overflow():
    # 1e5 ** 64 overflows a float; the log-domain form underflows to 0 instead
    c = 1e5
    assert term(PoissonType(c), 64) == math.exp(-c + 64 * math.log(c) - math.lgamma(65))
    # below the overflow the direct product is kept bit for bit
    assert term(PoissonType(700.0), 64) == math.exp(-700.0) * 700.0 ** 64 / math.factorial(64)


def test_geometric_closed_form_bound_is_tight():
    bound = weighted_tail_bound(Geometric(1.0, 0.5), 0, 0).bound
    assert 2.0 <= bound <= 2.0 + 1e-12


def test_finite_tail_beyond_length_is_zero():
    assert weighted_tail_bound(Finite((1.0, 2.0)), 5, 3).bound == 0.0


def test_powerlaw_divergence_detected():
    with pytest.raises(DivergentSeries):
        weighted_tail_bound(PowerLaw(1.0, 4.5), 10, 5)
    assert not converges_weighted(PowerLaw(1.0, 4.5), 4)
    assert converges_weighted(PowerLaw(1.0, 4.5), 3)
    # zero scale converges regardless of the exponent
    assert converges_weighted(PowerLaw(0.0, 1.5), 9)


@pytest.mark.parametrize("model", SAMPLE_MODELS)
@pytest.mark.parametrize("start", [0, 1, 7])
@pytest.mark.parametrize("ell", [0, 1, 3])
def test_bound_dominates_brute_force_partial_sum(model, start, ell):
    if not converges_weighted(model, ell):
        pytest.skip("divergent combination")
    bound = weighted_tail_bound(model, start, ell).bound
    partial = brute_weighted_tail(model, start, ell)
    assert bound >= partial * (1.0 - 1e-12) - 1e-300


@pytest.mark.parametrize("model", SAMPLE_MODELS)
@pytest.mark.parametrize("ell", [0, 1, 2])
def test_bound_monotone_nonincreasing_in_start(model, ell):
    if not converges_weighted(model, ell):
        pytest.skip("divergent combination")
    bounds = [weighted_tail_bound(model, start, ell).bound for start in range(0, 40)]
    assert all(b <= a + 1e-15 for a, b in zip(bounds, bounds[1:]))


@given(
    c=st.floats(min_value=0.0, max_value=10.0),
    r=st.floats(min_value=0.0, max_value=0.99),
    m=st.integers(min_value=0, max_value=500),
)
def test_geometric_terms_nonnegative(c, r, m):
    assert term(Geometric(c, r), m) >= 0.0


@given(
    c=st.floats(min_value=0.0, max_value=30.0),
    m=st.integers(min_value=0, max_value=2000),
)
def test_poisson_terms_nonnegative_and_finite(c, m):
    value = term(PoissonType(c), m)
    assert value >= 0.0
    assert math.isfinite(value)


@pytest.mark.parametrize(
    "model, generating",
    [
        (Geometric(0.7, 0.9), lambda z: 0.7 / (1 - 0.9 * z)),
        (Geometric(2.0, 0.0), lambda z: mpmath.mpf(2)),
        (PoissonType(2.5), lambda z: mpmath.exp(2.5 * (z - 1))),
        (PoissonType(0.0), lambda z: mpmath.mpf(1)),
    ],
)
def test_factorial_moments_are_generating_function_derivatives(model, generating):
    # mu_k = sum a_m (m)_k is the k-th derivative at z = 1 of sum a_m z^m,
    # here by mpmath's numerical differentiation at 30 digits
    with mpmath.workdps(30):
        derivs = [Fraction(str(mpmath.diff(generating, 1, k))) for k in range(6)]
    for k in range(6):
        mu = model.factorial_moment(k)
        assert isinstance(mu, Fraction)
        assert abs(mu - derivs[k]) <= 1e-20 * max(1, mu)
    # the weighted sums behind the derivative series (N(2 ell, k)) and the
    # tails (S(ell, k)), as integer ratios
    for ell in range(1, 6):
        for weights in (_even_block_counts(ell), sequences._stirling_row(ell, 0)):
            num, den = model.moment_ratio(weights)
            assert isinstance(num, int) and isinstance(den, int) and den > 0
            want = sum(w * mu for w, mu in zip(weights, derivs))
            assert abs(Fraction(num, den) - want) <= 1e-20 * max(1, want)


def test_factorial_moments_without_a_rational_closed_form_are_none():
    for model in (Finite((1.0, 0.5)), PowerLaw(1.0, 4.5)):
        assert all(model.factorial_moment(k) is None for k in range(4))
        assert model.moment_ratio((0, 1, 3)) is None


@settings(max_examples=30)
@given(
    r=st.floats(min_value=0.01, max_value=0.95),
    ell=st.integers(min_value=0, max_value=6),
    tol=st.floats(min_value=1e-12, max_value=1e-2),
)
def test_truncation_index_certifies_tolerance(r, ell, tol):
    model = Geometric(1.0, r)
    cut = truncation_index(model, ell, tol)
    assert weighted_tail_bound(model, cut, ell).bound <= tol
    if cut > 0:
        assert weighted_tail_bound(model, cut - 1, ell).bound > tol


def test_truncation_index_rejects_nonpositive_tol():
    with pytest.raises(ToleranceUnreachable):
        truncation_index(Geometric(1.0, 0.5), 0, 0.0)


def test_total_mass_bounds():
    assert total_mass_bound(Geometric(1.0, 0.5)) == pytest.approx(2.0, abs=1e-12)
    assert total_mass_bound(Finite((1.0, 2.5))) == 3.5
    # Poisson mass is exactly 1; the bound may only overshoot
    assert 1.0 <= total_mass_bound(PoissonType(2.0)) <= 1.5


@pytest.mark.parametrize("model", SAMPLE_MODELS)
def test_model_json_round_trip(model):
    data = model_to_dict(model)
    assert model_from_dict(json.loads(json.dumps(data))) == model
    assert model_from_json(json.dumps(data)) == model


def test_model_from_dict_rejects_unknown_variant():
    with pytest.raises(ValueError):
        model_from_dict({"variant": "exotic"})
    with pytest.raises(ValueError):
        model_from_dict({"variant": "geometric", "c": 1.0})
    with pytest.raises(ValueError):
        model_from_dict([1, 2, 3])
    # non-string variants are unknown names, not lookup crashes
    for variant in (["x"], None, 1, {"a": 1}):
        with pytest.raises(ValueError, match="unknown sequence model variant"):
            model_from_dict({"variant": variant})
    with pytest.raises(ValueError, match="model variant 'powerlaw' is missing field 'C'"):
        model_from_dict({"variant": "powerlaw", "p": 3.0})
    with pytest.raises(ValueError, match="model fields must be finite"):
        model_from_dict({"variant": "poisson", "c": 10 ** 400})
    with pytest.raises(ValueError, match="model fields must be finite"):
        model_from_dict({"variant": "finite", "terms": [10 ** 400]})
    # fields must be JSON numbers: null, strings and booleans are not, even
    # where float() would take them
    for data in (
        {"variant": "geometric", "c": None, "r": 0.5},
        {"variant": "geometric", "c": "abc", "r": 0.5},
        {"variant": "geometric", "c": "1", "r": 0.5},
        {"variant": "geometric", "c": True, "r": 0.5},
        {"variant": "poisson", "c": False},
        {"variant": "finite", "terms": ["1", True]},
        {"variant": "finite", "terms": [1, True]},
        {"variant": "finite", "terms": [[1]]},
    ):
        with pytest.raises(TypeError, match="model field '(c|terms)' must be a number"):
            model_from_dict(data)
    # JSON integers are numbers, and extra keys are ignored
    assert model_from_dict({"variant": "geometric", "c": 1, "r": 0}) == Geometric(1.0, 0.0)
    assert model_from_dict({"variant": "powerlaw", "C": 1, "p": 3.0, "x": "y"}) == PowerLaw(1.0, 3.0)
    # terms reach Finite as given, which converts each one
    assert model_from_dict({"variant": "finite", "terms": [1, 2.5]}) == Finite((1.0, 2.5))
    # ... but must be a JSON array, not a string or object read element-wise
    for terms in (None, "12", {"3": 1}):
        with pytest.raises(TypeError):
            model_from_dict({"variant": "finite", "terms": terms})


def test_every_registered_variant_round_trips():
    assert {type(model) for model in SAMPLE_MODELS} == set(_VARIANTS.values())
    for model in SAMPLE_MODELS:
        assert _VARIANTS[model.variant] is type(model)
        data = model_to_dict(model)
        assert list(data) == ["variant"] + [f.name for f in fields(model)]
        assert model_from_dict(data) == model
        assert model.tail(0, 0) == total_mass_bound(model)

import math
import random
import sys
from fractions import Fraction
from itertools import count

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import _reference
import spherekernel.derivatives as derivatives
import spherekernel.kernels as kernels
import spherekernel.sequences as sequences
import spherekernel.transform as transform
from spherekernel.asymptotics import build_leading_table
from spherekernel.derivatives import _diagonal_polynomial, _even_block_counts, diagonal_closed_form
from spherekernel.errors import DivergentSeries, ToleranceUnreachable, UnsupportedRange
from spherekernel.kernels import KernelSpec, phi_eval_d, phi_eval_inf
from spherekernel.sequences import (
    Finite,
    Geometric,
    PoissonType,
    PowerLaw,
    _VARIANTS,
    coefficient_prefix,
    converges_weighted,
    truncation_index,
    weighted_tail_bound,
)
from spherekernel.transform import (
    circle_coefficient,
    circle_sequence,
    circle_sequence_to,
    classify_d,
    classify_inf,
    derivative_at_zero_series,
    reconstruct_error,
)
from spherekernel.verification import finite_difference, fixture_models

THETAS = [0.0, 0.3, math.pi / 2, 2.1, math.pi]


def test_cos_squared_expansion_exact():
    model = Finite((0.0, 0.0, 1.0))
    assert circle_coefficient(model, 0) == pytest.approx(0.5, abs=1e-15)
    assert circle_coefficient(model, 2) == pytest.approx(0.5, abs=1e-15)
    assert circle_coefficient(model, 1) == 0.0
    assert circle_coefficient(model, 4) == 0.0


def test_cos_cubed_expansion_exact():
    model = Finite((0.0, 0.0, 0.0, 1.0))
    assert circle_coefficient(model, 1) == pytest.approx(0.75, abs=1e-15)
    assert circle_coefficient(model, 3) == pytest.approx(0.25, abs=1e-15)
    assert circle_coefficient(model, 0) == 0.0
    assert circle_coefficient(model, 2) == 0.0


def test_constant_model_passes_through():
    model = Finite((1.0,))
    assert circle_coefficient(model, 0) == 1.0
    assert all(circle_coefficient(model, n) == 0.0 for n in range(1, 5))


def test_circle_coefficient_validation():
    with pytest.raises(ValueError):
        circle_coefficient(Finite((1.0,)), -1)
    with pytest.raises(ToleranceUnreachable):
        circle_coefficient(Geometric(1.0, 0.5), 0, 0.0)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda model, tol: truncation_index(model, 0, tol),
        lambda model, tol: phi_eval_inf(model, 0.0, tol),
        lambda model, tol: phi_eval_d(KernelSpec(2, model), 0.0, tol),
        lambda model, tol: derivative_at_zero_series(model, 1, tol),
        lambda model, tol: circle_coefficient(model, 0, tol),
        lambda model, tol: circle_sequence(model, tol),
        lambda model, tol: circle_sequence_to(model, 3, tol),
    ],
    ids=["truncation_index", "phi_eval_inf", "phi_eval_d", "derivative_series",
         "circle_coefficient", "circle_sequence", "circle_sequence_to"],
)
def test_nan_tolerance_rejected(evaluate):
    # a NaN tolerance used to truncate silently (phi 1.0 for a true 2.0)
    with pytest.raises(ToleranceUnreachable):
        evaluate(Geometric(1.0, 0.5), math.nan)


@pytest.mark.parametrize(
    "evaluate",
    [circle_sequence, lambda model, tol: circle_coefficient(model, 0, tol),
     lambda model, tol: circle_sequence_to(model, 3, tol)],
    ids=["circle_sequence", "circle_coefficient", "circle_sequence_to"],
)
def test_infinite_circle_tolerance_rejected(evaluate):
    # circle_sequence ends its loop at n + 1 = tol / (2 per_tol), which an
    # infinite tol makes NaN
    with pytest.raises(ToleranceUnreachable, match="finite"):
        evaluate(Geometric(1.0, 0.5), math.inf)


def _assert_within_rounding(got, exact, size, context):
    # the weight recurrences over a size-term prefix round each b_n by at
    # most (2 size + 3) 2^-53 relative, plus a few 2^-1074 where weights
    # leave the normal float range
    slack = (2 * size + 3) * Fraction(1, 2**53) * exact + Fraction(4, 2**1074)
    assert abs(Fraction(got) - exact) <= slack, (context, got, float(exact))


def _assert_geometric_within_rounding(model, n, got):
    # the closed form is within (n + 5) 2^-53 relative of the true value,
    # plus (b_0 + 1) 2^-1072 where rho^n leaves the normal float range
    with mpmath.workdps(50):
        want, power = _reference.geometric_circle(model.c, model.r, n)
        slack = (n + 5) * mpmath.mpf(2) ** -53 * want
        if power < mpmath.mpf(2) ** -1021:
            slack += (_reference.geometric_circle(model.c, model.r, 0)[0] + 1) * mpmath.mpf(2) ** -1072
        assert abs(got - want) <= slack, (model, n, got, want)


REFERENCE_MODELS = (
    [Geometric(1.0, r) for r in (0.5, 0.9, 0.99)]
    + [PoissonType(c) for c in (0.5, 2.0, 50.0)]
    + [PowerLaw(1.0, p) for p in (3.5, 4.5, 7.0)]
    + [Finite((1.0, 1e-13, 0.0, 3e-14))]
)


@pytest.mark.parametrize("model", REFERENCE_MODELS)
def test_circle_coefficient_equals_stepping_reference(model):
    for tol in (1e-5, 1e-10, 1e-12):
        if isinstance(model, Finite):
            cutoff = len(model.terms)
        else:
            cutoff = truncation_index(model, 0, tol / 2.0)
        if cutoff > 5000:
            continue  # PowerLaw(1, 3.5) below 1e-5: the exact sums take minutes
        # both ends of the range plus a few interior indices of either parity
        ns = set(range(4)) | set(range(max(cutoff - 2, 0), cutoff + 3))
        ns |= {cutoff * i // 5 + i % 2 for i in range(1, 5)}
        for n in sorted(ns):
            got = circle_coefficient(model, n, tol)
            if isinstance(model, Geometric):
                # the closed form is compared with the true value, not the
                # truncated sum
                _assert_geometric_within_rounding(model, n, got)
            else:
                # the exact b_n up to where twice the certified tail from m drops to tol
                tails = (m for m in count(n, 2) if weighted_tail_bound(model, m, 0).bound * 2.0 <= tol)
                stop = cutoff if isinstance(model, Finite) else next(tails)
                want = _reference.circle_coefficient(model.term, n, stop)
                _assert_within_rounding(got, want, cutoff, (tol, n))


_FINITE_MASS = 0.5 * sys.float_info.max


@pytest.mark.parametrize("r", [0.0, 0.3, 0.9, 0.99, 0.999999])
@pytest.mark.parametrize("c", [0.0, 1.0, "near the finite-mass limit"])
def test_geometric_circle_coefficients_against_mpmath(r, c):
    # n runs to 4096, through where rho^n leaves the normal range (n near
    # 380 for r = 0.3, 1520 to 1600 for r = 0.9); the largest c keeps the
    # mass c / (1 - r) within float range
    model = Geometric(_FINITE_MASS * (1.0 - r) if isinstance(c, str) else c, r)
    terms = circle_sequence_to(model, 4096).terms
    assert all(map(math.isfinite, terms))
    for n in [*range(512), *range(512, 4097, 17)]:
        _assert_geometric_within_rounding(model, n, terms[n])


@pytest.mark.parametrize("r", [0.0, 0.3, 0.9, 0.99])
def test_geometric_circle_entry_points_agree(r):
    # the closed form ignores tol, so all three entry points give the same floats
    model = Geometric(0.7, r)
    for tol in (1e-5, 1e-10):
        seq = circle_sequence(model, tol)
        assert circle_sequence_to(model, seq.max_index, tol).terms == seq.terms
        assert tuple(circle_coefficient(model, n, tol) for n in range(seq.max_index + 1)) == seq.terms


# the cells of the benchmark's transform workload at the ends of its scale
# range 0.95..1.05 and in the middle, with the stop index N the prefix path
# gave there: the Geometric closed form keeps the stop rule and these N.
# Three stops at scale 1.05 moved one down when the mass bound came to be
# read from the coefficient prefix at tol/2000 instead of a second prefix
# at tol/4; their rebuilt mass at theta = 0 stays within tol of a 40-digit
# reference: PoissonType(52.5) at 1e-5 uses 0.93 of tol, PoissonType(2.1)
# at 1e-10 0.87 and PowerLaw(1.05, 7) at 1e-10 0.96
TRANSFORM_CELL_STOPS = [
    (("geometric", 1.0 - 0.9, 0.9), 1e-5, (25, 25, 25)),
    (("geometric", 1.0 - 0.9, 0.9), 1e-10, (49, 49, 50)),
    (("geometric", 1.0 - 0.99, 0.99), 1e-5, (82, 82, 83)),
    (("geometric", 1.0 - 0.99, 0.99), 1e-10, (165, 165, 165)),
    (("geometric", 0.5, 0.5), 1e-10, (17, 17, 17)),
    (("poisson", 50.0), 1e-5, (31, 32, 32)),
    (("poisson", 50.0), 1e-10, (46, 47, 48)),
    (("poisson", 2.0), 1e-10, (12, 12, 12)),
    (("powerlaw", 1.0, 4.5), 1e-5, (6, 6, 6)),
    (("powerlaw", 1.0, 4.5), 1e-10, (38, 38, 38)),
    (("powerlaw", 1.0, 7.0), 1e-10, (11, 11, 11)),
    (("powerlaw", 1.0, 3.5), 1e-5, (12, 12, 12)),
    (("powerlaw", 1.0, 3.5), 1e-6, (19, 19, 19)),
]


@pytest.mark.parametrize("desc, tol, stops", TRANSFORM_CELL_STOPS)
def test_circle_sequence_stops_where_the_prefix_path_stopped(desc, tol, stops):
    for scale, stop in zip((0.95, 1.0, 1.05), stops):
        kind, first, *rest = desc
        model = _VARIANTS[kind](first * scale, *rest)
        seq = circle_sequence(model, tol)
        assert seq.max_index == stop, (model, tol)
        # the closed form's rounding bound at n <= N stays below the prefix path's
        if isinstance(model, Geometric):
            size = truncation_index(model, 0, seq.per_term_tol / 2.0)
            assert seq.max_index + 5 <= 2 * size + 3


MASS_CELLS = [
    (_VARIANTS[kind](first * scale, *rest), tol)
    for (kind, first, *rest), tol, _ in TRANSFORM_CELL_STOPS
    for scale in (0.95, 1.0, 1.05)
] + [(Finite((0.5, 0.25, 0.0, 0.125)), 1e-10), (Finite((1.0, 1e-13, 0.0, 3e-14)), 1e-12)]


@pytest.mark.parametrize("model, tol", MASS_CELLS)
def test_circle_mass_bound_is_at_least_the_exact_mass(model, tol):
    mass = _reference.exact_mass(model)
    assert Fraction(transform._circle_terms(model, tol)[1]) >= mass
    # at the per-term tol / 1000 that circle_sequence uses, the prefix path's
    # true dropped tail can fill its tol/2 allowance to within less than the
    # rounding of the float terms and their sum: PowerLaw(0.95, 4.5) at 1e-13
    # reads 3.8e-17 below the mass, which the stop rule's per-term charges cover
    lowest = mass if isinstance(model, (Geometric, Finite)) else mass * (1 - Fraction(1, 2**52))
    assert Fraction(transform._circle_terms(model, tol / 1000.0)[1]) >= lowest


def _count_prefixes(monkeypatch):
    built = []

    def counted(model, tol):
        built.append(tol)
        return coefficient_prefix(model, tol)

    monkeypatch.setattr(transform, "coefficient_prefix", counted)
    return built


@pytest.mark.parametrize(
    "model", [Geometric(0.01, 0.99), Geometric(0.5, 0.5), Finite((0.5, 0.25, 0.0, 0.125))]
)
def test_circle_sequence_builds_no_prefix_where_the_mass_is_exact(model, monkeypatch):
    want = circle_sequence(model, 1e-10)
    built = _count_prefixes(monkeypatch)
    assert circle_sequence(model, 1e-10) == want
    assert built == []


@pytest.mark.parametrize("model", [PowerLaw(1.0, 4.5), PoissonType(50.0)])
def test_circle_sequence_builds_one_prefix_for_coefficients_and_mass(model, monkeypatch):
    want = circle_sequence(model, 1e-10)
    built = _count_prefixes(monkeypatch)
    assert circle_sequence(model, 1e-10) == want
    assert len(built) == 1


@pytest.mark.parametrize("model", [PoissonType(3e4), Geometric(1.0, 0.999999)])
def test_circle_sequence_ends_where_the_charge_reaches_tol(model, monkeypatch):
    # the stop rule charges 2 (n + 1) tol / 1000, which alone reaches tol at
    # n = 499; neither model captures its mass by then at tol 1e-3
    evaluated = []

    def counting(make):
        def wrapped(*args):
            coefficient = make(*args)

            def counted(n):
                evaluated.append(n)
                return coefficient(n)

            return counted

        return wrapped

    for name in ("_prefix_circle_terms", "_geometric_circle_terms"):
        monkeypatch.setattr(transform, name, counting(getattr(transform, name)))
    with pytest.raises(ToleranceUnreachable, match="charge"):
        circle_sequence(model, 1e-3)
    assert evaluated == list(range(500))


def test_circle_coefficients_where_the_diagonal_weight_underflows():
    # 2^(1-n) underflows from n = 1075 on, so a walk up from w(n, n) would
    # zero these columns; the exact values there are about 1e-105
    model = Finite(tuple(random.Random(5).uniform(0.5, 1.0) for _ in range(2500)))
    size = len(model.terms)
    for n in (0, 1, 2, 3, 1074, 1075, 1076, 1500, 2000, size - 1, size):
        want = _reference.circle_coefficient(model.term, n, size)
        _assert_within_rounding(circle_coefficient(model, n), want, size, n)


@pytest.mark.parametrize("c, r, tol", [(0.01, 0.99, 1e-10), (0.1, 0.9, 1e-10), (1.0, 0.5, 1e-12)])
def test_geometric_circle_sequence_against_closed_form(c, r, tol):
    model = Geometric(c, r)
    seq = circle_sequence(model, tol)
    size = truncation_index(model, 0, seq.per_term_tol / 2.0)
    with mpmath.workdps(50):
        for n, got in enumerate(seq.terms):
            want = _reference.geometric_circle(c, r, n)[0]
            slack = seq.per_term_tol + (2 * size + 3) * 2.0**-53 * want
            assert abs(got - want) <= slack, (n, got, want)


@pytest.mark.parametrize("max_index", [-1, -2])
def test_negative_max_index_rejected(max_index):
    model = Geometric(1.0, 0.5)
    with pytest.raises(ValueError, match="max index"):
        circle_sequence_to(model, max_index)
    with pytest.raises(ValueError, match="max index"):
        reconstruct_error(model, THETAS, max_index)


def test_monomial_reconstruction_is_exact():
    for m in range(0, 9):
        model = Finite((0.0,) * m + (1.0,))
        err = reconstruct_error(model, THETAS, m, 1e-12)
        assert err <= 1e-13


def test_geometric_reconstruction_against_closed_form():
    model = Geometric(0.5, 0.5)
    seq = circle_sequence(model, 1e-11)
    for theta in THETAS:
        rebuilt = sum(b * math.cos(n * theta) for n, b in enumerate(seq.terms))
        want = 0.5 / (1.0 - 0.5 * math.cos(theta))
        assert rebuilt == pytest.approx(want, abs=1e-10)


def test_circle_sequence_mass_matches_model_mass():
    for model in (Geometric(1.0, 0.3), PoissonType(2.0), Finite((0.5, 0.25, 0.25))):
        seq = circle_sequence(model, 1e-10)
        circle_mass = math.fsum(seq.terms)
        model_mass = phi_eval_inf(model, 0.0, 1e-12)
        assert circle_mass == pytest.approx(model_mass, abs=1e-9)
        assert all(b >= -seq.per_term_tol for b in seq.terms)


RECONSTRUCT_MODELS = [
    Geometric(0.01, 0.99),
    PoissonType(50.0),
    PowerLaw(1.0, 4.5),
    Finite((0.5, 0.25, 0.0, 0.125)),
]


@pytest.mark.parametrize("model", RECONSTRUCT_MODELS)
def test_reconstruct_error_is_the_largest_gap_to_phi_eval_inf(model):
    tol, thetas = 1e-8, THETAS + [0.7, -2.5]
    max_index = circle_sequence(model, tol).max_index
    coeffs = circle_sequence_to(model, max_index, tol).terms
    want = max(
        abs(math.fsum(b * math.cos(n * theta) for n, b in enumerate(coeffs))
            - phi_eval_inf(model, theta, tol / 4.0))
        for theta in thetas
    )
    kernels._evaluator.cache_clear()
    got = reconstruct_error(model, thetas, max_index, tol)
    assert type(got) is float and got == want
    # its prefix is built for the call and kept out of the kernel cache
    assert kernels._evaluator.cache_info().currsize == 0


@pytest.mark.parametrize("model", [Geometric(0.01, 0.99), PoissonType(50.0)])
def test_reconstruct_error_builds_no_prefix_where_a_closed_form_applies(model, monkeypatch):
    def refuse(*args):
        raise AssertionError("prefix built")

    max_index = circle_sequence(model, 1e-8).max_index
    want = reconstruct_error(model, THETAS, max_index, 1e-8)
    monkeypatch.setattr(kernels, "_prefix", refuse)
    assert reconstruct_error(model, THETAS, max_index, 1e-8) == want
    # below the form's rounding bound the prefix is built again
    with pytest.raises(AssertionError, match="prefix built"):
        reconstruct_error(model, THETAS, max_index, 1e-300)


def test_reconstruct_error_rejects_a_nan_angle():
    with pytest.raises(ValueError, match="angle"):
        reconstruct_error(Geometric(1.0, 0.5), [0.3, math.nan], 10)


def test_reconstruct_error_at_huge_angles():
    # n * theta loses the angle past about 1e12 and overflows at 1e308, where
    # the angle itself is still a float that sin and cos reduce exactly
    assert 0.0 <= reconstruct_error(Geometric(1.0, 0.5), [1e308, 1e300], 40) <= 1e-10


def test_reconstruct_error_fixture_sweep():
    for model in fixture_models():
        seq = circle_sequence(model, 1e-10)
        err = reconstruct_error(model, THETAS, seq.max_index, 1e-10)
        assert err <= 1e-9, (model, err)


def test_classify_inf_examples():
    assert classify_inf(PowerLaw(1.0, 4.5)).max_ell == 3
    assert classify_inf(PowerLaw(1.0, 4.5)).derivative_order == 6
    assert classify_inf(PowerLaw(1.0, 2.2)).max_ell == 1
    assert classify_inf(Geometric(1.0, 0.5)).max_ell is None
    assert classify_inf(PoissonType(2.0)).max_ell is None
    assert classify_inf(Finite((1.0, 1.0))).max_ell is None


def test_classify_d_examples():
    assert classify_d(PowerLaw(1.0, 4.5)).max_ell == 1
    assert classify_d(Finite((3.0, 2.0, 1.0))).max_ell is None
    assert classify_d(PoissonType(2.0)).max_ell is None


def assert_max_ell_is_last_convergent_probe(p, probe=12):
    # probe past the boundary: weight_factor * ell < p - 1 <= 11 keeps ell <= 10
    model = PowerLaw(1.0, p)
    for classify, weight_factor in ((classify_inf, 1), (classify_d, 2)):
        max_ell = classify(model, probe).max_ell
        convergent = [
            ell for ell in range(probe + 1) if converges_weighted(model, weight_factor * ell)
        ]
        assert max_ell == max(convergent)
        assert weight_factor * max_ell < p - 1.0 <= weight_factor * (max_ell + 1)
        assert classify(PowerLaw(0.0, p), probe).max_ell is None


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0, 1.5, 2.2, 4.5, 12.0])
def test_powerlaw_max_ell_at_integer_boundaries(p):
    assert_max_ell_is_last_convergent_probe(p)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(min_value=1.0, max_value=12.0, exclude_min=True))
def test_powerlaw_max_ell_on_drawn_exponents(p):
    assert_max_ell_is_last_convergent_probe(p)


def test_classify_reports_per_ell_verdicts():
    report = classify_inf(PowerLaw(1.0, 4.5), ell_max_probe=6)
    converges = [v.converges for v in report.per_ell]
    assert converges == [True, True, True, True, False, False, False]
    assert all(v.value is not None for v in report.per_ell if v.converges)
    assert all(v.value is None for v in report.per_ell if not v.converges)
    # convergence is monotone: once false, always false
    assert sorted(converges, reverse=True) == converges


def test_classifier_weight_consistency_on_powerlaws():
    for p in (1.5, 2.2, 3.0, 4.5, 8.0):
        model = PowerLaw(1.0, p)
        d_report = classify_d(model, 5)
        inf_report = classify_inf(model, 10)
        for verdict in d_report.per_ell:
            assert verdict.converges == inf_report.per_ell[2 * verdict.ell].converges


def test_report_json_shape():
    data = classify_inf(Geometric(1.0, 0.5), 2).to_dict()
    assert data["max_ell"] == "unbounded"
    assert data["derivative_order"] == "unbounded"
    assert data["per_ell"][0]["ell"] == 0
    bounded = classify_inf(PowerLaw(1.0, 2.2), 2).to_dict()
    assert bounded["max_ell"] == 1
    assert bounded["derivative_order"] == 2


def test_derivative_series_single_cosine():
    assert derivative_at_zero_series(Finite((0.0, 1.0)), 1) == pytest.approx(-1.0, abs=1e-12)


def test_derivative_series_frozen_closed_forms():
    # phi = 0.5/(1 - 0.5 cos): phi''(0) = -1 and phi''''(0) = 7
    model = Geometric(0.5, 0.5)
    assert derivative_at_zero_series(model, 1, 1e-12) == pytest.approx(-1.0, abs=1e-9)
    assert derivative_at_zero_series(model, 2, 1e-12) == pytest.approx(7.0, abs=1e-9)
    # phi = exp(-2) exp(2 cos): phi''(0) = -2 and phi''''(0) = 14
    poisson = PoissonType(2.0)
    assert derivative_at_zero_series(poisson, 1, 1e-12) == pytest.approx(-2.0, abs=1e-9)
    assert derivative_at_zero_series(poisson, 2, 1e-12) == pytest.approx(14.0, abs=1e-9)


def test_derivative_series_matches_finite_difference():
    for ell, step in ((1, 1e-2), (2, 3e-2)):
        for model in (Geometric(0.5, 0.5), PoissonType(0.5), Finite((0.0, 0.5, 0.5))):
            series = derivative_at_zero_series(model, ell, 1e-12)
            estimate = finite_difference(
                lambda u, m=model: phi_eval_inf(m, u, 1e-13), 0.0, 2 * ell, step
            )
            assert series == pytest.approx(estimate, abs=1e-5)


def test_derivative_series_divergence():
    with pytest.raises(DivergentSeries):
        derivative_at_zero_series(PowerLaw(1.0, 4.5), 4)
    with pytest.raises(ValueError):
        derivative_at_zero_series(Geometric(1.0, 0.5), 0)


def test_diagonal_growth_domination():
    # the truncation constant used by derivative_at_zero_series:
    # diag(m, ell) <= g[ell, ell] * m^ell for every power m >= 1
    table = build_leading_table(6)
    for ell in range(1, 7):
        cap = table.cell(ell, ell)
        for m in range(1, 80):
            assert diagonal_closed_form(m, ell) <= cap * Fraction(m) ** ell


def _reference_derivative_series(model, ell, tol):
    growth = build_leading_table(ell).cell(ell, ell)
    stop = truncation_index(model, ell, tol / growth)
    return _reference.termwise_derivative(model.term, diagonal_closed_form, ell, stop)


SERIES_MODELS = (
    [Geometric(1.0, 0.5), Geometric(1.0, 0.9), Geometric(0.05, 0.8)]
    + [PoissonType(2.0), PoissonType(50.0)]
    + [PowerLaw(1.0, 8.0), PowerLaw(2.0, 9.0)]
    + [Finite((0.0, 0.5, 0.0, 1e-13, 0.25, 3.0))]
)


@pytest.mark.parametrize("model", SERIES_MODELS)
def test_derivative_series_equals_closed_form_reference(model):
    # PowerLaw and Finite models sum termwise, bit for bit the reference;
    # Geometric and Poisson values are exact rationals rounded once, so
    # they equal the rounded 50-digit value, and the termwise reference
    # lies within tol of them up to its own rounding (a few ulps)
    exact = isinstance(model, (Geometric, PoissonType))
    for ell in (1, 2, 3):
        for tol in (1e-5, 1e-10):
            want = _reference_derivative_series(model, ell, tol)
            got = derivative_at_zero_series(model, ell, tol)
            if exact:
                rounded = _reference.power_moment_derivative(model, ell, _diagonal_polynomial(ell))
                assert got == rounded, (ell, tol)
                assert abs(got - want) <= tol + 4 * math.ulp(got), (ell, tol)
            else:
                assert got == want, (ell, tol)


def test_derivative_series_rounds_the_exact_value_correctly():
    # the termwise sums gave -680490.0000000006 and -1912549.9999999993,
    # 1.16 and 6.98 times tol away from the exact values
    assert derivative_at_zero_series(Geometric(1.0, 0.9), 3, 1e-10) == -680490.0000000007
    assert derivative_at_zero_series(PoissonType(50.0), 3, 1e-10) == -1912550.0


@pytest.mark.parametrize(
    "model, ell",
    [
        (Geometric(1e300, 0.999), 3),
        (PoissonType(1e200), 3),
        # 1e308 + 1.01e308: intermediate overflow in fsum
        (Finite((0.0,) * 100 + (1e306, 1e306)), 1),
    ],
    ids=["geometric-exact", "poisson-exact", "finite-termwise"],
)
def test_derivative_series_beyond_float_range_is_unsupported_range(model, ell):
    with pytest.raises(UnsupportedRange):
        derivative_at_zero_series(model, ell)


def test_large_intensity_poisson_derivative_reads_no_tail(monkeypatch):
    # phi''(0) = -c exactly; the termwise path would sum about 2c terms
    def refuse(*args):
        raise AssertionError("the exact branch must not truncate")

    monkeypatch.setattr(PoissonType, "tail", refuse)
    monkeypatch.setattr(sequences, "truncation_index", refuse)
    monkeypatch.setattr(transform, "truncation_index", refuse)
    assert derivative_at_zero_series(PoissonType(1e6), 1, 1e-3) == -1e6


def test_derivative_series_builds_polynomial_once(monkeypatch):
    # the series evaluates diag(m, ell) from one cached polynomial, built
    # from the block-count recurrence, so a 7632-term sum never asks the
    # closed form; a per-term call fails at once instead of running for minutes
    model, ell, tol = PowerLaw(1.0, 3.5), 1, 1e-6

    def refused(power, order):
        raise AssertionError(f"diagonal_closed_form called at m = {power}")

    monkeypatch.setattr(derivatives, "diagonal_closed_form", refused)
    monkeypatch.setattr(transform, "diagonal_closed_form", refused, raising=False)
    _even_block_counts.cache_clear()
    _diagonal_polynomial.cache_clear()
    assert truncation_index(model, ell, tol) == 7632
    derivative_at_zero_series(model, ell, tol)

"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one pass/fail line; the underlying checks (with the
tolerances baked into them) live in spherekernel.verification so the
same suite is runnable through the CLI verify command.
"""

import math
from fractions import Fraction

from spherekernel import verification
from spherekernel.asymptotics import even_binomial_sum
from spherekernel.derivatives import diagonal_closed_form


def _report(criterion: str, result: verification.CheckResult):
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} [{result.name}] {result.detail}")
    assert result.passed, f"{criterion}: {result.detail}"


def test_criterion_1_derivative_table_equals_symbolic_oracle():
    # exact equality for all 1 <= order < power <= 12, zero tolerance
    _report("1 (oracle equivalence)", verification.check_table_matches_symbolic_oracle(12))


def test_criterion_2_diagonal_closed_form_identity():
    # exact rational equality for 1 <= ell <= 10, ell < j <= 30
    _report("2 (diagonal identity)", verification.check_diagonal_closed_form(10, 30))


def test_criterion_3_exact_leading_coefficients():
    # degree and leading coefficient by exact finite-difference interpolation
    _report("3 (leading coefficients)", verification.check_leading_coefficients(4))


def test_criterion_4_ratio_convergence():
    # |ratio - 1| <= 0.05 at j=2048 and improvement from j=256 (1e-9 tie slack)
    _report("4 (ratio convergence)", verification.check_ratio_convergence())


def test_criterion_5_scaled_sum_shape_and_cross_identity():
    _report("5a (scaled sum shape)", verification.check_scaled_sum_shape())
    _report("5b (cross identity)", verification.check_binomial_sum_cross_identity(20))


def test_criterion_5_cross_identity_explicit_range():
    # belt and braces: spell the exact identity out at the stated range
    for ell in range(1, 20):
        for j in range(ell + 1, 21):
            assert even_binomial_sum(j, ell) == diagonal_closed_form(2 * j, ell)
    print("ACCEPTANCE 5 (explicit even identity j<=20): PASS")


def test_criterion_6_transform_reconstruction():
    _report("6 (reconstruction)", verification.check_reconstruction())
    _report("6b (mass preservation)", verification.check_mass_preservation())


def test_criterion_7_smoothness_classifiers():
    _report("7a (classifier fixed points)", verification.check_classifier_fixed_points())
    _report("7b (weight consistency)", verification.check_classifier_weight_consistency())


def test_criterion_8_derivative_series_vs_finite_differences():
    _report("8 (derivative series vs stencil)", verification.check_derivative_series_vs_fd())


def test_criterion_9_psd_spot_checks():
    _report("9 (psd quadratic forms)", verification.check_psd_quadratic_forms(100))


def test_supporting_crossover_validation():
    # design constraint backing criteria 4 and 5: every scaled sum is the
    # float nearest its exact defining sum, on both sides of j = 200
    _report("supporting (scaled sum definition)", verification.check_scaled_sum_definition())


def test_supporting_edge_cells():
    _report("supporting (edge cells)", verification.check_edge_cells(30))

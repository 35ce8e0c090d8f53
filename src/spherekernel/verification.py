"""End-to-end verification suites runnable from the CLI and the tests.

Each check is a plain function returning ``(passed, detail)`` that
probes one correctness property at fixed desk-scale sizes, with every
size and tolerance pinned inside it.  ``SUITES`` is the one table of
named checks and ``run_suite`` the one loop that times them.  Module
attributes are looked up at call time so a corrupted implementation (or
a deliberately patched one, as in the negative-control test) is caught.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import asymptotics, derivatives, kernels, sequences, transform


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


# ---------------------------------------------------------------------------
# Finite-difference oracle: stencil weights solved exactly from the
# Vandermonde moment conditions sum_i w_i x_i^k = k! [k == order].


def finite_difference_weights(order: int, offsets) -> list[Fraction]:
    offsets = [Fraction(o) for o in offsets]
    size = len(offsets)
    if order >= size:
        raise ValueError(f"need more than {order} points for order {order}")
    rows = [
        [o ** k for o in offsets]
        + [Fraction(math.factorial(order)) if k == order else Fraction(0)]
        for k in range(size)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col]
        rows[col] = [x / inv for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][size] for i in range(size)]


def finite_difference(f, x: float, order: int, step: float) -> float:
    """Central finite-difference derivative estimate on a 9-point stencil."""
    offsets = range(-4, 5)
    weights = finite_difference_weights(order, offsets)
    return math.fsum(
        float(w) * f(x + o * step) for w, o in zip(weights, offsets)
    ) / step ** order


def series_difference_from_zero(
    model: sequences.SequenceModel, theta: float, tol: float = 1e-19
) -> float:
    """phi(theta) - phi(0) for the Hilbert-sphere series, cancellation-free.

    Summing a_m (cos^m theta - 1) via expm1/log1p of the versine
    2 sin^2(theta/2) keeps full relative accuracy near zero: every term
    shares one sign and the constant mass never enters, whereas
    differencing direct evaluations loses the leading digits to
    cancellation at steps small enough for stencil accuracy.
    """
    coeffs = sequences.coefficient_prefix(model, tol)
    versine = 2.0 * math.sin(0.5 * theta) ** 2
    log_u = math.log1p(-versine)
    return math.fsum(
        a * math.expm1(m * log_u) for m, a in enumerate(coeffs[1:], start=1)
    )


def finite_difference_even_series(
    model: sequences.SequenceModel, order: int, step: float
) -> float:
    """Central 9-point stencil derivative of the Hilbert-sphere series at zero.

    The stencil weights sum to zero, so applying them to phi and to
    phi - phi(0) is the same linear functional; the difference form plus
    the evenness of phi (values reused across +/- offsets) makes the
    estimate truncation-limited instead of rounding-limited.
    """
    offsets = range(-4, 5)
    weights = finite_difference_weights(order, offsets)
    values = {i: series_difference_from_zero(model, i * step) for i in range(5)}
    return math.fsum(
        float(w) * values[abs(o)] for w, o in zip(weights, offsets)
    ) / step ** order


# ---------------------------------------------------------------------------
# Fixture models shared by the reconstruction-grade checks.


def fixture_models() -> list[sequences.SequenceModel]:
    monomials = [
        sequences.Finite((0.0,) * m + (1.0,)) for m in range(0, 9)
    ]
    geometrics = [sequences.Geometric(1.0 - r, r) for r in (0.3, 0.5, 0.9)]
    poissons = [sequences.PoissonType(c) for c in (0.5, 2.0)]
    return monomials + geometrics + poissons


# ---------------------------------------------------------------------------
# Identity checks (exact arithmetic, zero tolerance).


def check_table_matches_symbolic_oracle() -> tuple[bool, str]:
    """Table-reconstructed derivatives of cos^j equal the rewrite oracle."""
    count = 0
    for power in range(2, 13):
        table = derivatives.build_deriv_table(power, power - 1)
        poly = derivatives.SinCosPoly({(power, 0): 1})
        for order in range(1, power):
            poly = poly.derivative()
            if derivatives.table_polynomial(table, order) != poly:
                return False, f"mismatch at power {power}, order {order}"
            count += 1
    return True, f"{count} (power, order) pairs equal exactly"


def check_diagonal_closed_form() -> tuple[bool, str]:
    """Diagonal table cells equal the multiple-angle closed form, exactly."""
    count = 0
    for j in range(2, 31):
        top = min(10, j - 1)
        even = derivatives.build_deriv_table(2 * j, 2 * top)
        odd = derivatives.build_deriv_table(2 * j - 1, 2 * top)
        for ell in range(1, top + 1):
            if Fraction(even.cell(ell, ell)) != derivatives.diagonal_closed_form(2 * j, ell):
                return False, f"even power {2 * j}, ell {ell}"
            if Fraction(odd.cell(ell, ell)) != derivatives.diagonal_closed_form(2 * j - 1, ell):
                return False, f"odd power {2 * j - 1}, ell {ell}"
            count += 2
    return True, f"{count} diagonal cells equal exactly"


def check_edge_cells() -> tuple[bool, str]:
    """Edge cells (n1, 0) are falling factorials of the power."""
    for power in range(2, 31):
        table = derivatives.build_deriv_table(power, power - 1)
        for n1 in range(power):
            if table.cell(n1, 0) != math.perm(power, n1):
                return False, f"power {power}, cell ({n1}, 0)"
    return True, "edge cells exact for powers up to 30"


def check_binomial_sum_cross_identity() -> tuple[bool, str]:
    """even(j, ell) = diag(2j, ell) and 4 odd(j, ell) = diag(2j-1, ell), exactly.

    Covers 1 <= j <= 20 on both sides of j = ell, where scaled_sum switches
    from the closed form to the moment polynomial.
    """
    count = 0
    for ell in range(1, 20):
        for j in range(1, 21):
            if asymptotics.even_binomial_sum(j, ell) != derivatives.diagonal_closed_form(2 * j, ell):
                return False, f"even j={j}, ell={ell}"
            if 4 * asymptotics.odd_binomial_sum(j, ell) != derivatives.diagonal_closed_form(2 * j - 1, ell):
                return False, f"odd j={j}, ell={ell}"
            count += 2
    return True, f"{count} cross identities exact"


def check_derivative_vs_finite_difference() -> tuple[bool, str]:
    """Table evaluation of cos^j derivatives matches a 9-point stencil."""
    tol = 1e-6
    step = 1e-2
    worst = 0.0
    for power in range(2, 11):
        for order in range(1, min(5, power)):
            for x in (0.0, 0.3, 1.0, 2.5):
                direct = derivatives.cos_power_derivative(power, order, x)
                estimate = finite_difference(
                    lambda u, p=power: math.cos(u) ** p, x, order, step
                )
                worst = max(worst, abs(direct - estimate))
    return worst <= tol, f"worst |table - stencil| = {worst:.3e} (tol {tol})"


# ---------------------------------------------------------------------------
# Asymptotics checks.


def check_leading_coefficients() -> tuple[bool, str]:
    """Cells are degree-n1 polynomials in the power with the predicted lead.

    Samples nine consecutive powers just above the cell level and takes
    exact finite differences: the n1-th difference must be the constant
    n1! * g[n1, n2] and the next difference must vanish.
    """
    leading = asymptotics.build_leading_table(4)
    for n1 in range(1, 5):
        for n2 in range(0, n1 + 1):
            level = n1 + n2
            js = list(range(level + 1, level + 10))
            values = [
                Fraction(derivatives.build_deriv_table(j, level).cell(n1, n2))
                for j in js
            ]
            diffs = values
            for _ in range(n1):
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            expected = math.factorial(n1) * leading.cell(n1, n2)
            if any(d != expected for d in diffs):
                return False, f"cell ({n1}, {n2}): degree-{n1} lead mismatch"
            next_diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            if any(d != 0 for d in next_diffs):
                return False, f"cell ({n1}, {n2}): degree exceeds {n1}"
    return True, "leads exact for all cells with n1 <= 4"


def check_ratio_convergence() -> tuple[bool, str]:
    """cell/(lead * j^n1) approaches 1: within 0.05 at j=2048, improving from j=256.

    Cells whose ratio is exactly 1 at every power (the two base cells)
    are allowed to tie within measurement slack 1e-9.
    """
    js = (256, 512, 1024, 2048)
    tol, slack = 0.05, 1e-9
    worst = 0.0
    for n1 in range(1, 5):
        for n2 in range(0, n1 + 1):
            devs = [abs(asymptotics.asymptotic_ratio(j, n1, n2) - 1.0) for j in js]
            worst = max(worst, devs[-1])
            if devs[-1] > tol:
                return False, f"cell ({n1}, {n2}) deviation {devs[-1]:.3e} at j=2048"
            if any(b > a + slack for a, b in zip(devs, devs[1:])):
                return False, f"cell ({n1}, {n2}) deviations not improving: {devs}"
            if devs[-1] >= devs[0] and devs[0] > slack:
                return False, f"cell ({n1}, {n2}) no strict improvement: {devs}"
    return True, f"worst deviation at j=2048 is {worst:.3e} (tol {tol})"


def check_scaled_sum_shape() -> tuple[bool, str]:
    """Scaled binomial sums flatten: |v(2048)/v(1024) - 1| <= 0.02 for both parities."""
    tol = 0.02
    js = (256, 512, 1024, 2048)
    reports = []
    for ell in range(1, 6):
        for parity in ("even", "odd"):
            trace = asymptotics.trace_convergence(ell, parity, js)
            last, prev = trace.scaled_values[-1], trace.scaled_values[-2]
            if abs(last / prev - 1.0) > tol:
                return False, f"ell={ell} {parity}: ratio {last / prev:.5f}"
        report = asymptotics.limit_constant_report(ell, js)
        reports.append(
            f"ell={ell}: even/odd={report['even_over_odd']:.4f}, "
            f"even/(2^l g)={report['even_over_diagonal_growth']:.4f}"
        )
    return True, "; ".join(reports)


def check_scaled_sum_definition() -> tuple[bool, str]:
    """scaled_sum is the float nearest its defining sum over j^ell.

    scaled_sum reads diag, the closed form for j <= ell and the moment
    polynomial for j > ell: j = 1 meets only the closed form, 2 and 5
    both, 200 and 201 only the polynomial.
    """
    sums = {"even": asymptotics.even_binomial_sum, "odd": asymptotics.odd_binomial_sum}
    for j, ell, parity in itertools.product((1, 2, 5, 200, 201), range(1, 6), sums):
        want = float(sums[parity](j, ell) / Fraction(j) ** ell)
        got = asymptotics.scaled_sum(j, ell, parity)
        if got != want:
            return False, f"j={j} ell={ell} {parity}: {got!r} != {want!r}"
    return True, "equal for j in {1, 2, 5, 200, 201}, ell <= 5, both parities"


# ---------------------------------------------------------------------------
# Reconstruction, classification, derivative-series and psd checks.

_THETA_SAMPLES = tuple(i * math.pi / 19.0 for i in range(20))


def check_reconstruction() -> tuple[bool, str]:
    """Rebuilt cosine series matches the power series on every fixture.

    Also pins the two exact expansions: cos^2 -> {1/2, 1/2} and
    cos^3 -> {3/4, 1/4} to 1e-12.
    """
    tol = 1e-9
    seq_tol = 1e-10
    cos2 = sequences.Finite((0.0, 0.0, 1.0))
    cos3 = sequences.Finite((0.0, 0.0, 0.0, 1.0))
    exact_cases = [
        (transform.circle_coefficient(cos2, 0), 0.5),
        (transform.circle_coefficient(cos2, 2), 0.5),
        (transform.circle_coefficient(cos2, 1), 0.0),
        (transform.circle_coefficient(cos3, 1), 0.75),
        (transform.circle_coefficient(cos3, 3), 0.25),
        (transform.circle_coefficient(cos3, 0), 0.0),
    ]
    if any(abs(got - want) > 1e-12 for got, want in exact_cases):
        return False, "cos^2 / cos^3 coefficients off beyond 1e-12"
    worst = 0.0
    for model in fixture_models():
        seq = transform.circle_sequence(model, seq_tol)
        err = transform.reconstruct_error(
            model, _THETA_SAMPLES, seq.max_index, seq_tol
        )
        worst = max(worst, err)
        if err > tol:
            return False, f"{model!r}: reconstruction error {err:.3e}"
    return True, f"worst reconstruction error {worst:.3e} (tol {tol})"


def check_mass_preservation() -> tuple[bool, str]:
    """Total circle mass equals total model mass within the truncation budget."""
    tol = 1e-10
    worst = 0.0
    for model in fixture_models():
        seq = transform.circle_sequence(model, tol)
        circle_mass = math.fsum(seq.terms)
        model_mass = kernels.phi_eval_inf(model, 0.0, tol)
        gap = abs(circle_mass - model_mass)
        budget = 2.0 * tol + (seq.max_index + 1) * seq.per_term_tol
        worst = max(worst, gap)
        if gap > budget:
            return False, f"{model!r}: mass gap {gap:.3e} over budget {budget:.3e}"
        if any(b < -seq.per_term_tol for b in seq.terms):
            return False, f"{model!r}: negative circle coefficient"
    return True, f"worst mass gap {worst:.3e}"


def check_classifier_fixed_points() -> tuple[bool, str]:
    """Known classifications: power-law cutoffs, geometric/Poisson unbounded."""
    cases = [
        (transform.classify_inf(sequences.PowerLaw(1.0, 4.5)), 3, 6),
        (transform.classify_inf(sequences.PowerLaw(1.0, 2.2)), 1, 2),
        (transform.classify_d(sequences.PowerLaw(1.0, 4.5)), 1, 2),
    ]
    for report, want_ell, want_order in cases:
        if report.max_ell != want_ell or report.derivative_order != want_order:
            return False, (
                f"power-law report ({report.max_ell}, {report.derivative_order}) "
                f"!= ({want_ell}, {want_order})"
            )
    unbounded = [
        transform.classify_inf(sequences.Geometric(1.0, 0.5)),
        transform.classify_inf(sequences.PoissonType(2.0)),
        transform.classify_d(sequences.PoissonType(2.0)),
        transform.classify_d(sequences.Finite((1.0, 2.0, 3.0))),
    ]
    if any(rep.max_ell is not None for rep in unbounded):
        return False, "a summable-everywhere model was not reported unbounded"
    return True, "power-law cutoffs and unbounded variants as expected"


def check_classifier_weight_consistency() -> tuple[bool, str]:
    """classify_d converges at ell iff classify_inf converges at 2 ell."""
    models = fixture_models() + [
        sequences.PowerLaw(1.0, p) for p in (1.5, 2.2, 3.0, 4.5, 7.0)
    ]
    for model in models:
        d_report = transform.classify_d(model, 5)
        inf_report = transform.classify_inf(model, 10)
        for verdict in d_report.per_ell:
            partner = inf_report.per_ell[2 * verdict.ell]
            if verdict.converges != partner.converges:
                return False, (
                    f"{model!r}: d-mode ell={verdict.ell} disagrees with "
                    f"inf-mode ell={2 * verdict.ell}"
                )
    return True, "weight doubling consistent on all fixtures"


def check_derivative_series_vs_fd() -> tuple[bool, str]:
    """Derivative series at 0 matches 9-point finite differences.

    The series is exact and rounded once for Geometric and Poisson
    fixtures, and summed termwise for the others.

    Steps balance stencil truncation against rounding; the fourth
    derivative uses the cancellation-free difference evaluation of the
    same series, which keeps the stencil truncation-limited (a direct
    evaluation leaves less headroom than the 1e-5 tolerance at any step).
    """
    tol = 1e-5
    steps = {1: 1e-2, 2: 4e-3}
    worst = 0.0
    for ell, step in steps.items():
        for model in fixture_models():
            if not sequences.converges_weighted(model, ell):
                continue
            series = transform.derivative_at_zero_series(model, ell, 1e-12)
            estimate = finite_difference_even_series(model, 2 * ell, step)
            worst = max(worst, abs(series - estimate))
            if abs(series - estimate) > tol:
                return False, f"{model!r} at ell={ell}: gap {abs(series - estimate):.3e}"
    return True, f"worst series/stencil gap {worst:.3e} (tol {tol})"


def _random_unit_vector(rng: random.Random, ambient: int) -> kernels.UnitVector:
    while True:
        raw = [rng.gauss(0.0, 1.0) for _ in range(ambient)]
        norm = math.sqrt(math.fsum(x * x for x in raw))
        if norm > 1e-6:
            return kernels.UnitVector(tuple(x / norm for x in raw))


def check_psd_quadratic_forms() -> tuple[bool, str]:
    """Quadratic forms stay nonnegative for every fixture on S^2 and S^4.

    Each fixture is exercised both as a Hilbert-sphere kernel and as a
    coefficient sequence for the matching finite-dimensional expansion,
    over 100 seeded draws of 8 points and weights.
    """
    tol = 1e-10
    draws, points_per_draw = 100, 8
    rng = random.Random(20240811)
    worst = 0.0
    for model in fixture_models():
        for dim in (2, 4):
            specs = [
                kernels.KernelSpec(None, model),
                kernels.KernelSpec(dim, model),
            ]
            for _ in range(draws):
                pts = [
                    _random_unit_vector(rng, dim + 1)
                    for _ in range(points_per_draw)
                ]
                wts = [rng.uniform(-1.0, 1.0) for _ in range(points_per_draw)]
                for spec in specs:
                    verdict = kernels.psd_spot_check(spec, pts, wts, tol)
                    margin = -verdict.value / max(verdict.threshold, 1e-300)
                    worst = max(worst, margin)
                    if not verdict.passed:
                        return False, (
                            f"{model!r} on S^{dim} "
                            f"(dimension={spec.dimension}): form {verdict.value:.3e} "
                            f"below -{verdict.threshold:.3e}"
                        )
    return True, f"all quadratic forms >= -threshold (worst margin use {worst:.2f})"


# ---------------------------------------------------------------------------
# Suites: the one table of named checks, in the order verify prints them.

SUITES = {
    "identities": (
        ("table matches symbolic oracle", check_table_matches_symbolic_oracle),
        ("diagonal closed form", check_diagonal_closed_form),
        ("edge cells are falling factorials", check_edge_cells),
        ("binomial sum cross identity", check_binomial_sum_cross_identity),
        ("derivative vs finite difference", check_derivative_vs_finite_difference),
    ),
    "asymptotics": (
        ("exact leading coefficients", check_leading_coefficients),
        ("ratio convergence to leading growth", check_ratio_convergence),
        ("scaled sum convergence shape", check_scaled_sum_shape),
        ("scaled sum definition", check_scaled_sum_definition),
    ),
    "reconstruction": (
        ("circle-series reconstruction", check_reconstruction),
        ("mass preservation and nonnegativity", check_mass_preservation),
        ("classifier fixed points", check_classifier_fixed_points),
        ("classifier weight consistency", check_classifier_weight_consistency),
        ("derivative series vs finite difference", check_derivative_series_vs_fd),
        ("psd quadratic form spot checks", check_psd_quadratic_forms),
    ),
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them, timing each check."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    results = []
    for suite in names:
        for check_name, check in SUITES[suite]:
            start = time.perf_counter()
            passed, detail = check()
            results.append(
                CheckResult(check_name, passed, detail, time.perf_counter() - start)
            )
    return results

"""Circle sequence from a Hilbert-sphere sequence, and smoothness classification.

Expanding each cosine power over multiple angles turns the power series
sum_m a_m cos^m(theta) into a cosine series sum_n b_n cos(n theta) whose
coefficients mix binomial slices of (a_m):

    b_n = eps_n * sum_{m >= n, m = n mod 2} 2^(1-m) C(m, (m+n)/2) a_m

with eps_0 = 1/2 and eps_n = 1 otherwise.  The prefactor comes from the
multiple-angle identity for cos^m; its central term (n = 0, even m)
carries no doubling factor, which is eps_0.  All b_n are nonnegative,
their total equals the total of (a_m), and each series term is at most
twice its a-coefficient, so certified tails of the input model bound
truncation.

Over a prefix a_0..a_{M-1}, each b_n is one pass over its parity slice.
The weights w(m, n) = 2^(1-m) C(m, (m+n)/2) have exact neighbour ratios

    w(m, n) / w(m+2, n) = ((m+2)^2 - n^2) / ((m+1)(m+2)),

whose integer factors are exact floats below the 2^26 prefix cap, so a
step costs one rounded quotient and one rounded product.  The pass walks
down from the top index of n's parity, where an underflowed weight only
meets smaller ones.  The top weight w(top, n) starts from the central
weight w(top, p), p = n mod 2, built by the ratio (m+1+p)/(m+2+p) along
m, and steps across the row by (top-k)/(top+k+2) from k = p to n.  Each
weight thus carries at most 2 top + 2 roundings, and each b_n lies
within (2M+3) 2^-53 relative of the exact rational sum over the same
prefix (the product bound gamma_k, Higham, Accuracy and Stability of
Numerical Algorithms, 3.1), up to a few 2^-1074 where weights leave
the normal float range.  Finite models take this pass over all their
terms, PowerLaw and Poisson over the certified prefix of the plain sum.

Geometric models need no prefix.  Their power series is c / (1 - r cos
theta), and the Poisson kernel

    sum_{n in Z} rho^|n| e^(i n theta) = (1 - rho^2) / (1 - 2 rho cos theta + rho^2)

with rho = r / (1 + q), q = sqrt(1 - r^2), satisfies 2 rho / (1 + rho^2)
= r and (1 - rho^2) / (1 + rho^2) = q, so the coefficients are exact:

    b_0 = c / q,    b_n = 2 (c / q) rho^n.

c / q and rho are each rounded once from an exact integer square root
(within 2^-53 + 2^-100 relative), rho^n is libm's pow (within one ulp)
and one product follows, so each b_n lies within (n + 5) 2^-53 relative
of the true value, with no truncation, plus (c / q + 1) 2^-1072 where
rho^n leaves the normal float range; the n in it is rho's one rounding
raised to the power n.  Let M be the plain sum's certified cutoff at
per_tol / 2, per_tol = tol / 1000.  Since sum_{n > M} b_n <= sum_{m > M}
a_m, circle_sequence stops by n = M when M is below 499 (where tol
dominates the rounding of its partial sums) and never past n = 499, so
for M >= 2 and every n <= N this bound is below the prefix path's
(2M + 3) 2^-53.

Smoothness classification reads decay instead: the even derivative
phi^(2 ell)(0) exists exactly when sum_m a_m m^ell converges (weight
m^(2 ell) in the fixed-dimension reading), read from the model's
analytic convergence limit max_weight.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, islice, repeat
from operator import mul, sub, truediv

from .derivatives import _diagonal_polynomial, _even_block_counts, _horner
from .errors import DivergentSeries, ToleranceUnreachable, UnsupportedRange
from .kernels import _finite_angle, _hilbert_sum, _kernel_form, _prefix
from .sequences import (
    Finite,
    Geometric,
    SequenceModel,
    coefficient_prefix,
    converges_weighted,
    term,
    total_mass_bound,
    truncation_index,
    weighted_tail_bound,
)


def circle_coefficient(model: SequenceModel, n: int, tol: float = 1e-12) -> float:
    """Coefficient b_n of the rebuilt cosine series, within tol.

    Geometric models use the closed form b_n = 2 (c / q) rho^n (b_0 = c / q),
    q = sqrt(1 - r^2) and rho = r / (1 + q), from the Poisson kernel; it
    is within (n + 5) 2^-53 relative of the true value, plus
    (c / q + 1) 2^-1072 where rho^n leaves the normal float range (see
    the module docstring).  Finite models are summed exactly; PowerLaw
    and Poisson models drop the terms beyond the certified cutoff of the
    plain sum at tol/2, since each series term is at most twice its
    a-coefficient.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return _circle_terms(model, tol)[0](n)


def _circle_terms(model: SequenceModel, tol: float) -> tuple[Callable[[int], float], float]:
    # n -> b_n within tol and an upper bound on the mass, from one resolution:
    # Geometric models (closed form) and Finite ones (all terms, as their circle
    # sums are exact by contract) take the exact mass rounded up, the others the
    # plain sum's certified prefix at tol/2 and its sum plus tol/2
    if not 0.0 < tol < math.inf:
        raise ToleranceUnreachable(f"tolerance must be positive and finite, got {tol}")
    if isinstance(model, Geometric):
        return _geometric_circle_terms(model), total_mass_bound(model)
    if isinstance(model, Finite):
        return _prefix_circle_terms(model.terms), total_mass_bound(model)
    prefix = coefficient_prefix(model, tol / 2.0)
    return _prefix_circle_terms(prefix), math.fsum(prefix) + tol / 2.0


# bits beyond the float's 53 carried by the integer square root
_ROOT_BITS = 128


def _geometric_circle_terms(model: Geometric) -> Callable[[int], float]:
    """n -> b_n of c / (1 - r cos theta) in closed form.

    With r = num / den exactly, den q 2^K = sqrt((den^2 - num^2) 2^(2K))
    is floored by isqrt to within a 2^-100 relative part (q >= 2^-27), and
    c / q and rho = num 2^K / (den 2^K + den q 2^K) are each one correctly
    rounded integer division.  c / q is at most the model's finite mass.
    """
    num, den = model.r.as_integer_ratio()
    root = math.isqrt((den * den - num * num) << 2 * _ROOT_BITS)
    c_num, c_den = model.c.as_integer_ratio()
    scale = (c_num * den << _ROOT_BITS) / (c_den * root)
    rho = (num << _ROOT_BITS) / ((den << _ROOT_BITS) + root)

    def coefficient(n: int) -> float:
        return scale if n == 0 else 2.0 * (scale * rho ** n)

    return coefficient


def _prefix_circle_terms(coeffs: tuple[float, ...]) -> Callable[[int], float]:
    """n -> b_n over one coefficient prefix, by the weight recurrences.

    Keeps, per parity, the slice of the prefix and the ratio tables from
    the top index down, and the last row weight w(top, n), so a rising
    run of n pays O(1) for each new top weight.
    """
    size = len(coeffs)
    # a_m below the first nonzero one (underflowed Poisson terms) add nothing
    low = next((m for m, a in enumerate(coeffs) if a), size)
    columns = {}  # parity -> (a_m, (m+2)^2, (m+1)(m+2), w(top, p)), m from top down
    rows = {}  # parity -> (n, w(top, n)) of the latest call

    def coefficient(n: int) -> float:
        top = n + 2 * ((size - 1 - n) // 2)
        if top < n:
            return 0.0
        p = n % 2
        if p not in columns:
            below = range(top - 2, low - 1, -2)
            central = reduce(
                mul, map(truediv, range(2 * p + 1, top + p, 2), range(2 * p + 2, top + p + 1, 2)),
                2.0 - p,
            )
            columns[p] = (
                coeffs[top::-2],
                [float((m + 2) * (m + 2)) for m in below],
                [float((m + 1) * (m + 2)) for m in below],
                central,
            )
            rows[p] = (p, central)
        column, squares, products, central = columns[p]
        k, w = rows[p]
        if k > n:
            k, w = p, central
        steps = map(truediv, range(top - k, top - n, -2), range(top + k + 2, top + n + 2, 2))
        w = reduce(mul, steps, w)
        rows[p] = (n, w)
        ratios = map(truediv, map(sub, squares, repeat(float(n * n))), products)
        weights = accumulate(ratios, mul, initial=w)
        total = math.fsum(map(mul, islice(column, (top - max(n, low)) // 2 + 1), weights))
        return 0.5 * total if n == 0 else total

    return coefficient


@dataclass(frozen=True)
class CircleSequence:
    """Computed cosine-series coefficients with their per-term error budget."""

    terms: tuple[float, ...]
    max_index: int
    per_term_tol: float


def circle_sequence(model: SequenceModel, tol: float = 1e-10) -> CircleSequence:
    """Compute b_0..b_N with N chosen so the dropped tail mass is below tol.

    Since sum_n b_n equals sum_m a_m, the remaining mass after N terms is
    bounded by an upper bound on the model total, resolved with the
    coefficients (exact for Geometric and Finite models, else the prefix
    sum plus its tail allowance), minus the partial sum, padded by the
    per-term charge 2 (n + 1) tol / 1000, which alone reaches tol at n = 499.
    """
    per_tol = tol / 1000.0
    circle_term, mass_upper = _circle_terms(model, per_tol)
    terms: list[float] = []
    partial = 0.0
    for n in range(round(tol / (2.0 * per_tol))):
        b = circle_term(n)
        terms.append(b)
        partial += b
        if mass_upper - partial + 2.0 * (n + 1) * per_tol <= tol:
            return CircleSequence(tuple(terms), n, per_tol)
    raise ToleranceUnreachable(
        f"circle sequence did not capture the mass of {model!r} at tolerance {tol} by n = "
        f"{len(terms) - 1}, where the per-term charge 2 (n + 1) tol / 1000 alone reaches tol"
    )


def circle_sequence_to(
    model: SequenceModel, max_index: int, tol: float = 1e-10
) -> CircleSequence:
    """Compute b_0..b_max_index, each within tol / (4 (max_index + 1))."""
    if max_index < 0:
        raise ValueError(f"max index must be nonnegative, got {max_index}")
    per_tol = tol / (4.0 * (max_index + 1))
    terms = tuple(map(_circle_terms(model, per_tol)[0], range(max_index + 1)))
    return CircleSequence(terms, max_index, per_tol)


def reconstruct_error(
    model: SequenceModel,
    theta_samples,
    max_index: int,
    tol: float = 1e-10,
) -> float:
    """Max abs difference between the rebuilt cosine series and the power series.

    Compares sum_{n<=max_index} b_n cos(n theta) against the direct
    Hilbert-sphere evaluation over the given angles, phi_eval_inf at
    tol/4: the closed form where phi_eval_inf takes it, else one prefix
    built for this call and left out of the kernel cache, which it would
    only fill with a model evaluated once.
    """
    coeffs = circle_sequence_to(model, max_index, tol).terms
    direct = _kernel_form(model, None, tol / 4.0)
    if direct is None:
        prefix = _prefix(model, tol / 4.0)

        def direct(theta):
            return _hilbert_sum(prefix, math.cos(theta), tol / 4.0)

    worst = 0.0
    for theta in map(_finite_angle, theta_samples):
        rebuilt = math.fsum(b * math.cos(n * theta) for n, b in enumerate(coeffs))
        worst = max(worst, abs(rebuilt - direct(theta)))
    return worst


@dataclass(frozen=True)
class EllVerdict:
    """Convergence verdict for one weight power."""

    ell: int
    converges: bool
    value: float | None  # certified bound on the full weighted sum, when finite


@dataclass(frozen=True)
class SmoothnessReport:
    """Largest usable weight power and the derivative order it certifies.

    max_ell is None when every weighted sum converges (unbounded
    smoothness); otherwise the largest ell with a convergent sum, making
    2*max_ell the highest derivative order that exists at zero.
    """

    max_ell: int | None
    derivative_order: int | None
    per_ell: tuple[EllVerdict, ...]

    def to_dict(self) -> dict:
        unbounded = "unbounded"
        return {
            "max_ell": unbounded if self.max_ell is None else self.max_ell,
            "derivative_order": (
                unbounded if self.derivative_order is None else self.derivative_order
            ),
            "per_ell": [
                {"ell": v.ell, "converges": v.converges, "value": v.value}
                for v in self.per_ell
            ],
        }


def _classify(model: SequenceModel, ell_max_probe: int, weight_factor: int) -> SmoothnessReport:
    if ell_max_probe < 0:
        raise ValueError(f"probe depth must be nonnegative, got {ell_max_probe}")
    verdicts = []
    for ell in range(ell_max_probe + 1):
        conv = converges_weighted(model, weight_factor * ell)
        value = (
            weighted_tail_bound(model, 0, weight_factor * ell).bound if conv else None
        )
        verdicts.append(EllVerdict(ell, conv, value))
    # weight_factor * ell <= max_weight, an integer, so the floor is exact
    max_ell = None if model.max_weight is None else model.max_weight // weight_factor
    order = None if max_ell is None else 2 * max_ell
    return SmoothnessReport(max_ell, order, tuple(verdicts))


def classify_inf(model: SequenceModel, ell_max_probe: int = 6) -> SmoothnessReport:
    """Smoothness from Hilbert-sphere decay: weight m^ell at level ell."""
    return _classify(model, ell_max_probe, 1)


def classify_d(model: SequenceModel, ell_max_probe: int = 6) -> SmoothnessReport:
    """Smoothness from fixed-dimension decay: weight k^(2 ell) at level ell."""
    return _classify(model, ell_max_probe, 2)


def derivative_at_zero_series(
    model: SequenceModel, ell: int, tol: float = 1e-10
) -> float:
    """phi^(2 ell)(0) = (-1)^ell sum_k N(2 ell, k) mu_k.

    a_m cos^m contributes a_m (-1)^ell diag(m, ell), with the diagonal
    magnitude diag(m, ell) = sum_k N(2 ell, k) (m)_k, where N(2 ell, k)
    counts the partitions of 2 ell items into k blocks of even size; so
    the factorial moments mu_k = sum_m a_m (m)_k carry the sum.  Where the
    model gives this sum of its mu_k as an exact integer ratio (Geometric,
    Poisson), the result is that ratio correctly rounded by one int / int
    division, in O(ell), and tol is only validated.  Otherwise the series
    is summed termwise, diag(m, ell) read off its integer moment
    polynomial, O(M * ell) for M terms; since
    diag(m, ell) <= g[ell, ell] m^ell, with g[ell, ell] = (2 ell - 1)!! the
    polynomial's leading coefficient, a certified weighted tail bound
    scaled by g[ell, ell] controls truncation.  A value beyond float range
    raises UnsupportedRange.
    """
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    if not converges_weighted(model, ell):
        raise DivergentSeries(
            f"phi^({2 * ell})(0) does not exist: sum a_m m^{ell} diverges "
            f"for {model!r}"
        )
    if not tol > 0.0:
        raise ToleranceUnreachable(f"tolerance must be positive, got {tol}")
    ratio = model.moment_ratio(_even_block_counts(ell))  # N(2 ell, 0) = 0
    try:
        if ratio is not None:
            total = ratio[0] / ratio[1]
        else:
            highest_first = _diagonal_polynomial(ell)[::-1]
            cutoff = truncation_index(model, ell, tol / highest_first[0])
            coeffs = ((m, term(model, m)) for m in range(1, cutoff))
            total = math.fsum(a * float(_horner(highest_first, m)) for m, a in coeffs if a)
    except OverflowError:
        total = math.inf
    if math.isinf(total):
        raise UnsupportedRange(
            f"phi^({2 * ell})(0) of {model!r} exceeds float range"
        )
    return (-1) ** ell * total

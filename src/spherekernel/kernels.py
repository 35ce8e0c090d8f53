"""Series evaluation of isotropic positive definite functions on spheres.

On the d-dimensional sphere the expansion runs over normalized
ultraspherical (Gegenbauer) polynomials with lam = (d-1)/2:

    phi(theta) = sum_k a_k * g_k(cos theta),  g_k = C_k^lam / C_k^lam(1),

and on the infinite-dimensional (Hilbert) sphere over plain cosine powers:

    phi(theta) = sum_m a_m * cos(theta)^m.

For lam > 0, _gegenbauer_sum runs the recurrence of g_k itself, and
|g_k| <= 1 keeps every d in float range.  d = 1 sums a_k cos(k theta)
with math.cos, which rounds better than that recurrence at lam = 0.

Each sum stops at the smallest M with env(M) * T(M) <= tol, where T(M)
is a certified bound on the coefficient tail sum_{k >= M} a_k and env(M)
bounds |basis_k| at the angle for every k >= M, without growing with k.
With s = sin theta (from t = cos theta as s = sqrt((1 - t)(1 + t))):

    sphere              env(M)
    Hilbert             |cos theta|^M
    S^2 (lam = 1/2)     min(1, sqrt(2 / (pi M s)))
    S^3 (lam = 1)       min(1, 1 / ((M + 1) s))
    S^4 (lam = 3/2)     min(1, 4 sqrt(2 / (pi M s)) / ((M + 2) s^2))
    any other           1

S^2 is Bernstein's inequality for Legendre polynomials (Szego,
*Orthogonal Polynomials*, Thm 7.3.3).  S^3 follows from C_k^1(cos theta)
= sin((k+1) theta) / sin theta.  S^4 follows from C_k^{3/2} = P'_{k+1},
(1 - x^2) P'_n = n (P_{n-1} - x P_n), Bernstein's inequality for both
Legendre values and C_k^{3/2}(1) = (k+1)(k+2)/2.  Where the envelope is
1 (d = 1, other d, and |cos theta| = 1), and for prefixes too short to
repay the search, the sum is the whole plain prefix.  Nonnegative
summable coefficients make both series positive definite;
psd_spot_check probes that numerically on finite point sets.

Some kernels are generating functions of their coefficients and have
O(1) closed forms, written in h^2 = sin^2(theta / 2), so that
1 - cos theta = 2 h^2 loses nothing to cancellation near theta = 0.
With D = (1 - r) + 2 r h^2, R = sqrt((1 - r)^2 + 4 r h^2) and
A(x) = atan(x) / x, the table _FORMS holds one row per (variant, sphere):

    sphere    model         phi(theta)                         units
    Hilbert   Geometric     c / D                              10
    S^2       Geometric     c / R                              10
    S^3       Geometric     c A(x) / D,  x = r sin(theta) / D  14
    S^4       Geometric     c 4 / ((1 + r + R)(1 - r + R))     12
    Hilbert   PoissonType   exp(-2 c h^2)                      5

A row's units bound its rounding error in units of u = 2^-53 of
total_mass_bound(model): c / (1 - r) rounded up, or 1 for PoissonType.  Since
1 - 2 r cos theta + r^2 = R^2, the S^2 form is the Legendre generating
function (DLMF 18.12.11).  On S^3, g_k = sin((k+1) theta) /
((k+1) sin theta), so sum_k r^k g_k = Im(-log(1 - r e^(i theta))) /
(r sin theta) = atan(r sin theta / D) / (r sin theta) = A(x) / D, with
A(0) = 1 where sin theta = 0.  On S^4, C_k^(3/2)(1) = (k+1)(k+2)/2, so
integrating the generating function (1 - 2 t z + z^2)^(-3/2) (DLMF
18.12.4) twice in z gives 2 (R - D) / (r^2 sin^2 theta); multiplied
through by R + D, using R^2 - D^2 = r^2 sin^2 theta, that is
2 / (D + R) = 4 / ((1 + r + R)(1 - r + R)), as (1 + R)^2 - r^2 =
2 (D + R).  It subtracts nothing, is c / (1 - r) at theta = 0 and c at
r = 0; the code evaluates c (2 / (D + R)).

The bounds take gamma_n = n u / (1 - n u) (Higham, *Accuracy and
Stability of Numerical Algorithms*, 3.1) and libm's sin, atan and exp
within one ulp (2u relative).  h^2 is within gamma_5 relative and
2 r h^2 or 4 r h^2 within gamma_6 (2r and 4r are exact); 1 - r is exact
for r >= 1/2 and within u otherwise, and (1 - r)^2 within gamma_3.  A
sum of two nonnegative terms keeps the larger relative error and adds
a rounding, so D is within gamma_7, and c / D within gamma_8 (Higham,
Lemma 3.3).  The square root halves the gamma_7 of R^2 and adds a
rounding, so R and c / R are within gamma_5 and gamma_6.  On S^4,
D + R is within gamma_8, 2 / (D + R) within gamma_9 and the product with
c within gamma_10.  On S^3, x = (r sin theta) / D is computed as
x (1 + e_4) / (1 + e_D), with |e_4| <= gamma_4 (sin and two roundings)
and |e_D| <= gamma_7.  A is even and decreasing in |x|, with elasticity
k = d log A / d log x = x / (atan(x) (1 + x^2)) - 1 in [-1, 0], so
A(x_computed) / D_computed = (A(x) / D) (1 + e_4)^k (1 + e_D)^(-1-k),
with k taken between the two x: both exponents lie in [-1, 0] and sum
to -1, so the product of the two factors lies between 1 / (1 + e_4) and
1 / (1 + e_D) and is within gamma_7.  atan and the division by x
add gamma_3, and the division by D and the product with c gamma_2: the
value is within gamma_12.  For |x| < 1e-4 the code takes
A = 1 - x^2 / 3, whose truncation x^4 / 5 < 0.2 u and three roundings
(two of them on a term below 4e-9) stay inside the gamma_3 of atan.
Every Geometric form is at most c / (1 - r), as |g_k| <= 1.  So the
Hilbert and S^2 values are within 10 u, S^4 within 12 u and S^3 within
14 u of c / (1 - r), at most the mass bound: the units past gamma's
index cover the rounding of the bound itself, and an h^2 that underflows
(2^-1072 absolute at most in 4 r h^2, against a D of at least 2^-53
and an R^2 of at least 2^-106).  For PoissonType, x = -2 c h^2 is
within gamma_6 relative, so for |x| <= 746
|exp(x (1 + e)) - exp(x)| <= exp(x) |x e| exp(|x e|) <= gamma_6 (1 + 1e-12) / e,
since y exp(-y) <= 1/e; past 746 both values are below 2^-1075.  exp's
own ulp adds 2u, so the value is within 5u, the mass being 1.  Every
form multiplies c by a factor of at most 1 / (1 - r) last or divides c,
so none overflows where the mass is finite.  A form is taken only where
tol is a positive number and the row's bound is at most tol; otherwise
the series above is summed (at tol = 1e-300, say).
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .errors import DimensionMismatch, ToleranceUnreachable
from .sequences import (
    Geometric,
    PoissonType,
    SequenceModel,
    coefficient_prefix,
    total_mass_bound,
    weighted_tail_bound,
)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel given by its sphere and its coefficient sequence.

    ``dimension`` is the sphere dimension d >= 1, or None for the
    Hilbert sphere (the infinite-dimensional limit).
    """

    dimension: int | None
    coefficients: SequenceModel

    def __post_init__(self):
        d = self.dimension
        # the upper bound keeps lam = (d - 1) / 2 a float
        if d is not None and not (type(d) is int and 1 <= d <= sys.float_info.max):
            raise ValueError(f"sphere dimension must be an integer in [1, float max], got {d!r}")


@dataclass(frozen=True)
class UnitVector:
    """Point on a sphere, stored as ambient coordinates with unit norm."""

    components: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(float(c) for c in self.components))
        norm = math.sqrt(math.fsum(c * c for c in self.components))
        # written so that a NaN or inf norm fails the test too
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"components must have unit norm, got norm {norm!r}")

    def __len__(self) -> int:
        return len(self.components)


def gegenbauer_normalized(k: int, lam: float, t: float) -> float:
    """C_k^lam(t) / C_k^lam(1) by the normalized recurrence of _gegenbauer_sum.

    lam must be a nonnegative half-integer (lam = (d-1)/2 for an integer
    dimension d >= 1).  At lam = 0 the normalized limit is the Chebyshev
    polynomial cos(k * arccos t), taken from math.cos.  t may exceed
    [-1, 1] by at most 1e-12 and is clamped.
    """
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    if not math.isfinite(lam) or lam < 0 or abs(2.0 * lam - round(2.0 * lam)) > 1e-9:
        raise ValueError(f"lam must be a nonnegative half-integer, got {lam}")
    if not abs(t) <= 1.0 + 1e-12:  # NaN fails this test too
        raise ValueError(f"argument must lie in [-1, 1], got {t}")
    t = max(-1.0, min(1.0, t))
    if lam == 0.0:
        return math.cos(k * math.acos(t))
    return _gegenbauer_sum((0.0,) * k + (1.0,), lam, t)


def _gegenbauer_sum(coeffs, lam: float, t: float) -> float:
    """sum_k coeffs[k] * g_k for lam > 0, with g_k = C_k^lam(t) / C_k^lam(1).

    DLMF 18.9.1 divided through by C_k^lam(1) = (2 lam)_k / k! gives the
    recurrence of the normalized values themselves,

        g_k = (2 (k + lam - 1) t g_{k-1} - (k - 1) g_{k-2}) / (k + 2 lam - 1),

    from g_0 = 1 and g_1 = t.  |g_k| <= 1 on [-1, 1], so nothing overflows
    at any lam, and g_k -> t^k as lam grows.  At lam = 1/2 it is Legendre's
    recurrence.  At lam = 0 it is Chebyshev's, which rounds far worse than
    math.cos near theta = 0 (1.5e-11 against 6e-15 over 2,750 terms at
    theta = 1e-3), so d = 1 uses cos.
    """
    if not coeffs:
        return 0.0
    total = coeffs[0]
    if len(coeffs) == 1:
        return total
    g_prev, g_cur = 1.0, t
    total += coeffs[1] * t
    two_t = 2.0 * t
    # k + lam - 1, k - 1, k + 2 lam - 1 at k = 1, as floats: an int k is slower
    p, q, r = lam, 0.0, 2.0 * lam
    for a in coeffs[2:]:
        p += 1.0
        q += 1.0
        r += 1.0
        g_prev, g_cur = g_cur, (two_t * p * g_cur - q * g_prev) / r
        total += a * g_cur
    return total


class _Prefix:
    """a_0 .. a_{M0-1}, with M0 the plain cutoff at tol, and suffix tails.

    ``rest[m]`` bounds sum_{k >= m} a_k for 0 <= m <= M0: it is at least
    sum_{m <= k < M0} a_k + T(M0), with T(M0) the certified plain tail.
    The suffix sums are float additions from the back, multiplied by
    1 + (M0 + 16) * 2**-52.  M0 additions of nonnegative terms lose at
    most a factor 1 - M0 * 2**-53 and the product another 2**-53, so the
    factor rounds every entry upward with at least 31 * 2**-53 to spare
    for the roundings of an envelope and of its product with rest[m].
    len() is the term count M0.
    """

    __slots__ = ("coeffs", "rest")

    def __init__(self, coeffs: tuple[float, ...], rest: array):
        self.coeffs = coeffs
        self.rest = rest

    def __len__(self) -> int:
        return len(self.coeffs)


def _prefix(model: SequenceModel, tol: float) -> _Prefix:
    coeffs = coefficient_prefix(model, tol)
    size = len(coeffs)
    sums = accumulate(reversed(coeffs), initial=weighted_tail_bound(model, size, 0).bound)
    scale = 1.0 + (size + 16) * 2.0 ** -52
    return _Prefix(coeffs, array("d", [total * scale for total in reversed(list(sums))]))


# kernels are evaluated at many angles with one (model, tol), so keep the prefix;
# a caller that evaluates a model only once builds its own with _prefix
_coefficient_prefix = lru_cache(maxsize=128)(_prefix)


def _envelope(dimension: int | None, t: float):
    """m -> bound on |basis_k(t)| for every degree k >= m >= 1, not growing
    with m, or None where the bound is 1 (the table in the module docstring).
    """
    if dimension is None:
        u = abs(t)
        return None if u == 1.0 else lambda m: u ** m
    if dimension not in (2, 3, 4):
        return None
    s = math.sqrt((1.0 - t) * (1.0 + t))
    if s == 0.0:
        return None
    if dimension == 2:
        c = 2.0 / (math.pi * s)
        return lambda m: min(1.0, math.sqrt(c / m))
    if dimension == 3:
        return lambda m: min(1.0, 1.0 / ((m + 1) * s))
    c = 4.0 * math.sqrt(2.0 / (math.pi * s)) / (s * s)
    return lambda m: min(1.0, c / (math.sqrt(m) * (m + 2)))


# a cutoff search costs about log2(M0) envelope probes, each about as much
# as a few terms of a sum, so prefixes shorter than this are summed whole
_SEARCH_MIN_TERMS = 64


def _angle_prefix(prefix: _Prefix, dimension: int | None, t: float, tol: float):
    """The coefficients an evaluation at t sums: a_0 .. a_{M-1} of the
    prefix, M the smallest m with envelope(m) * rest[m] <= tol.

    The middle of the prefix is probed first; when it fails, when the
    envelope is 1 or when the prefix is short, the whole prefix is summed.
    """
    coeffs = prefix.coeffs
    if len(coeffs) < _SEARCH_MIN_TERMS:
        return coeffs
    env = _envelope(dimension, t)
    rest, hi = prefix.rest, len(coeffs) // 2
    if env is None or env(hi) * rest[hi] > tol:
        return coeffs
    lo = 0  # the test passes at hi and fails at lo, or lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if env(mid) * rest[mid] <= tol:
            hi = mid
        else:
            lo = mid
    return coeffs[:hi]


def _as_model(spec) -> SequenceModel:
    return spec.coefficients if isinstance(spec, KernelSpec) else spec


def _finite_angle(theta: float) -> float:
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    return theta


def _half_chord_squared(theta: float) -> float:
    # sin^2(theta / 2) = (1 - cos theta) / 2, with no cancellation near 0
    h = math.sin(0.5 * theta)
    return h * h


def _hilbert_geometric(model: Geometric):
    c, d, two_r = model.c, 1.0 - model.r, 2.0 * model.r
    return lambda theta: c / (d + two_r * _half_chord_squared(theta))


def _s2_geometric(model: Geometric):
    c, d = model.c, 1.0 - model.r
    d2, four_r = d * d, 4.0 * model.r
    return lambda theta: c / math.sqrt(d2 + four_r * _half_chord_squared(theta))


def _s3_geometric(model: Geometric):
    c, r, d, two_r = model.c, model.r, 1.0 - model.r, 2.0 * model.r

    def form(theta):
        den = d + two_r * _half_chord_squared(theta)
        x = r * math.sin(theta) / den
        a = 1.0 - x * x / 3.0 if abs(x) < 1e-4 else math.atan(x) / x
        return c * (a / den)

    return form


def _s4_geometric(model: Geometric):
    c, d = model.c, 1.0 - model.r
    d2, two_r, four_r = d * d, 2.0 * model.r, 4.0 * model.r

    def form(theta):
        h2 = _half_chord_squared(theta)
        # c times the bounded factor, since 2c overflows for c near the float maximum
        return c * (2.0 / ((d + two_r * h2) + math.sqrt(d2 + four_r * h2)))

    return form


def _hilbert_poisson(model: PoissonType):
    c = model.c
    # c * (2 h^2) rather than 2c: 2c overflows for c near the float maximum
    return lambda theta: math.exp(-(c * (2.0 * _half_chord_squared(theta))))


@dataclass(frozen=True)
class _Form:
    """A closed form: ``make(model)`` is theta -> phi(theta), within
    ``units`` * 2^-53 * ``total_mass_bound(model)`` of the kernel's value."""

    make: Callable[[SequenceModel], Callable[[float], float]]
    units: int


# (variant, sphere) -> its closed form; the forms and their units are
# derived in the module docstring
_FORMS = {
    (Geometric, None): _Form(_hilbert_geometric, 10),
    (Geometric, 2): _Form(_s2_geometric, 10),
    (Geometric, 3): _Form(_s3_geometric, 14),
    (Geometric, 4): _Form(_s4_geometric, 12),
    (PoissonType, None): _Form(_hilbert_poisson, 5),
}


def _form_bound(form: _Form, model: SequenceModel) -> float:
    return form.units * 2.0 ** -53 * total_mass_bound(model)


def _kernel_form(model: SequenceModel, dimension: int | None, tol: float):
    """theta -> phi(theta) in closed form, or None where the series is summed.

    The forms are the rows of _FORMS; a form is returned only where its
    rounding bound is at most tol.  Raises ToleranceUnreachable unless
    tol is a positive number.
    """
    if not tol > 0.0:
        raise ToleranceUnreachable(f"tolerance must be positive, got {tol}")
    form = _FORMS.get((type(model), dimension))
    if form is None or _form_bound(form, model) > tol:
        return None
    return form.make(model)


def _hilbert_sum(prefix: _Prefix, u: float, tol: float) -> float:
    """sum_m a_m u^m over the prefix up to the cutoff at u = cos theta, by Horner."""
    total = 0.0
    for a in reversed(_angle_prefix(prefix, None, u, tol)):
        total = total * u + a
    return total


def _series(model: SequenceModel, dimension: int | None, theta: float, tol: float) -> float:
    """The series at a finite theta, truncated within tol, over the cached prefix."""
    t = math.cos(theta)
    prefix = _coefficient_prefix(model, tol)
    if dimension is None:
        return _hilbert_sum(prefix, t, tol)
    coeffs = _angle_prefix(prefix, dimension, t, tol)
    if dimension == 1:
        return math.fsum(a * math.cos(k * theta) for k, a in enumerate(coeffs))
    return _gegenbauer_sum(coeffs, (dimension - 1) / 2.0, t)


@lru_cache(maxsize=128)
def _evaluator(model: SequenceModel, dimension: int | None, tol: float):
    """theta -> phi(theta) within tol, kept like the prefix: the closed form
    where there is one, else the series over the cached prefix."""
    form = _kernel_form(model, dimension, tol)
    if form is not None:
        return form
    return lambda theta: _series(model, dimension, theta, tol)


def _evaluate(model: SequenceModel, dimension: int | None, theta: float, tol: float) -> float:
    theta = _finite_angle(theta)
    return _evaluator(model, dimension, tol)(theta)


def phi_eval_inf(spec, theta: float, tol: float = 1e-10) -> float:
    """Hilbert-sphere series sum_m a_m cos^m(theta), within tol.

    Accepts a KernelSpec (with dimension None) or a bare SequenceModel.
    Geometric and PoissonType models take their closed form where its
    rounding bound fits in tol (see the module docstring).
    """
    if isinstance(spec, KernelSpec) and spec.dimension is not None:
        raise ValueError("phi_eval_inf needs a Hilbert-sphere spec (dimension None)")
    return _evaluate(_as_model(spec), None, theta, tol)


def phi_eval_d(spec: KernelSpec, theta: float, tol: float = 1e-10) -> float:
    """d-sphere series sum_k a_k C_k^lam(cos theta)/C_k^lam(1) within tol.

    The remainder after truncation is bounded by the angle's envelope
    times the coefficient tail; Geometric models on S^2, S^3 and S^4
    take their closed form where its rounding bound fits in tol (see
    the module docstring).
    """
    if not isinstance(spec, KernelSpec) or spec.dimension is None:
        raise ValueError("phi_eval_d needs a KernelSpec with a finite dimension")
    return _evaluate(spec.coefficients, spec.dimension, theta, tol)


def phi_eval(spec: KernelSpec, theta: float, tol: float = 1e-10) -> float:
    """Evaluate the kernel series on whichever sphere ``spec`` names."""
    if spec.dimension is None:
        return phi_eval_inf(spec, theta, tol)
    return phi_eval_d(spec, theta, tol)


def _angle(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    # one C-level pass over the products; the clamp absorbs rounding past +-1
    return math.acos(max(-1.0, min(1.0, math.fsum(map(mul, a, b)))))


def geodesic_distance(xi: UnitVector, zeta: UnitVector) -> float:
    """arccos of the dot product, clamped to [-1, 1] to absorb rounding."""
    if len(xi) != len(zeta):
        raise DimensionMismatch(
            f"vectors have lengths {len(xi)} and {len(zeta)}"
        )
    return _angle(xi.components, zeta.components)


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a quadratic-form positive definiteness probe."""

    value: float
    threshold: float
    passed: bool


def psd_spot_check(
    spec: KernelSpec,
    points: list[UnitVector],
    weights: list[float],
    tol: float = 1e-10,
) -> PsdVerdict:
    """Evaluate sum_ij w_i w_j phi(dist(x_i, x_j)) and test nonnegativity.

    The pass threshold -tol * (sum |w|)^2 * (coefficient mass) scales
    with the weight and coefficient magnitudes, so the verdict is
    invariant under rescaling either.  A check resolves its kernel once,
    to its closed form or its series, and takes every pair angle from
    the one helper geodesic_distance also uses, so each term is the
    phi_eval value at that distance, bit for bit.
    """
    if len(points) != len(weights):
        raise DimensionMismatch(
            f"{len(points)} points but {len(weights)} weights"
        )
    dims = {len(p) for p in points}
    if len(dims) > 1:
        raise DimensionMismatch(f"points have mixed ambient dimensions {sorted(dims)}")
    if spec.dimension is not None and dims - {spec.dimension + 1}:
        raise DimensionMismatch(f"points in R^{dims.pop()} do not lie on S^{spec.dimension}")
    if not all(math.isfinite(w) for w in weights):
        raise ValueError("weights must be finite")
    model, dimension = spec.coefficients, spec.dimension
    mass = total_mass_bound(model)
    eval_tol = max(tol * mass / 4.0, 1e-300)
    phi = _evaluator(model, dimension, eval_tol)
    phi0 = phi(0.0)
    value = math.fsum(w * w * phi0 for w in weights)
    pairs = [(p.components, w) for p, w in zip(points, weights)]
    value += math.fsum([
        2.0 * w_i * w_j * phi(_angle(a, b))
        for i, (a, w_i) in enumerate(pairs)
        for b, w_j in pairs[i + 1:]
    ])
    weight_mass = math.fsum(abs(w) for w in weights)
    threshold = tol * weight_mass ** 2 * mass
    return PsdVerdict(value=value, threshold=threshold, passed=value >= -threshold)

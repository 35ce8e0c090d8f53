"""Coefficient sequence models with certified tail bounds.

A model represents a nonnegative summable sequence a_0, a_1, ... given
either term by term (``Finite``) or as a parametric family.  Tail bounds
returned here are certified over-estimates of the weighted tails

    sum_{m >= M} a_m * m**ell

never asymptotic estimates, and rounded upward, so truncation points
derived from them are safe for downstream reconstruction guarantees
(0**0 = 1 throughout); Geometric and Poisson tails are closed forms.

A variant is one frozen dataclass holding its ``term``, certified
``tail``, convergence limit ``max_weight``, JSON name ``variant`` and
``moment_ratio(weights)``: sum_k w_k mu_k over the factorial moments mu_k =
sum_m a_m (m)_k, (m)_k = m (m-1) ... (m-k+1), as an exact integer ratio
(num, den) where a closed form gives them, else None.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar, Union, get_args

from .errors import DivergentSeries, ToleranceUnreachable, UnsupportedRange

# Indices above this are never searched; parametric tails shrink far faster.
_SEARCH_CAP = 1 << 26


def _require_finite(*fields: float) -> None:
    for field in fields:
        if not math.isfinite(field):
            raise ValueError(f"model fields must be finite, got {field}")


def _require_finite_mass(model: SequenceModel) -> None:
    # finite fields can still certify a total beyond float range (c = 1e308), a bad
    # model field rather than a domain error later; a PoissonType mass is 1
    try:
        total_mass_bound(model)
    except UnsupportedRange:
        raise ValueError(f"model total mass must be finite for {model!r}") from None


@lru_cache(maxsize=32)
def _stirling_row(ell: int, shift: int) -> tuple[int, ...]:
    """B_k with (x + shift)^ell = sum_k B_k (x)_k, by x (x)_k = (x)_(k+1) + k (x)_k;
    at shift 0 the Stirling numbers of the second kind S(ell, k) (DLMF 26.8)."""
    row = [1]
    for _ in range(ell):
        row = [low + (k + shift) * b for k, (low, b) in enumerate(zip([0] + row, row + [0]))]
    return tuple(row)


def _exp_up(logs: list[float]) -> float:
    # exp(sum(logs)) rounded up: a pad of 2^-44 (sum |logs| + 1) is far above the few
    # ulps of each log, of fsum and of exp; nextafter covers an exp below normal range
    pad = 2.0 ** -44 * (math.fsum(map(abs, logs)) + 1.0)
    return math.nextafter(math.exp(math.fsum(logs) + pad), math.inf)


def _ratio_up(num: int, den: int) -> float:
    # num / den >= 0 rounded up; int / int is correctly rounded, or raises OverflowError
    total = num / den
    top, bottom = total.as_integer_ratio()
    return math.nextafter(total, math.inf) if top * den < num * bottom else total


class _Variant:
    def factorial_moment(self, k: int) -> Fraction | None:
        """mu_k alone as a Fraction, or None without a closed form."""
        ratio = self.moment_ratio((0,) * k + (1,))
        return None if ratio is None else Fraction(*ratio)


@dataclass(frozen=True)
class Finite(_Variant):
    """a_m = terms[m] for m < len(terms), 0 beyond."""

    variant: ClassVar[str] = "finite"
    max_weight: ClassVar[int | None] = None
    terms: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(float(t) for t in self.terms))
        _require_finite(*self.terms)
        if any(t < 0.0 for t in self.terms):
            raise ValueError("finite sequence terms must be nonnegative")
        _require_finite_mass(self)

    def term(self, m: int) -> float:
        return self.terms[m] if m < len(self.terms) else 0.0

    def tail(self, start: int, ell: int) -> float:
        # a term n / d has d = 2^e with e <= 1074, so the sum is exactly num / 2^1074
        ratios = enumerate(map(float.as_integer_ratio, self.terms[start:]), start)
        num = sum((n << 1075 - d.bit_length()) * m ** ell for m, (n, d) in ratios)
        return _ratio_up(num, 1 << 1074)

    def moment_ratio(self, weights: tuple[int, ...]) -> None:
        # an exact sum over the terms costs more than the float series
        return None


@dataclass(frozen=True)
class Geometric(_Variant):
    """a_m = c * r**m with c >= 0 and 0 <= r < 1."""

    variant: ClassVar[str] = "geometric"
    max_weight: ClassVar[int | None] = None
    c: float
    r: float

    def __post_init__(self):
        _require_finite(self.c, self.r)
        if self.c < 0.0:
            raise ValueError(f"scale must be nonnegative, got {self.c}")
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"ratio must lie in [0, 1), got {self.r}")
        _require_finite_mass(self)

    def term(self, m: int) -> float:
        return self.c * self.r ** m

    def tail(self, start: int, ell: int) -> float:
        # the m = 0 term is 0 for ell > 0, so starts 0 and 1 share one bound
        if start == 1 and ell > 0:
            start = 0
        # the tail is r^start sum_k B_k mu_k: the sum is num / den exactly, r^start is not
        num, den = self.moment_ratio(_stirling_row(ell, start))
        if start == 0:
            return _ratio_up(num, den)
        return _exp_up([math.log(num), -math.log(den), start * math.log(self.r)]) if num and self.r else 0.0

    def moment_ratio(self, weights: tuple[int, ...]) -> tuple[int, int]:
        # mu_k = c k! r^k / (1 - r)^(k+1) with c = a / b, r = p / q, all over b (q - p)^(top + 1)
        (a, b), (p, q) = self.c.as_integer_ratio(), self.r.as_integer_ratio()
        top = len(weights) - 1
        num = sum(w * math.factorial(k) * p ** k * (q - p) ** (top - k) for k, w in enumerate(weights))
        return a * q * num, b * (q - p) ** (top + 1)


@dataclass(frozen=True)
class PowerLaw(_Variant):
    """a_m = C * (m+1)**(-p) with C >= 0 and p > 1 (offset keeps a_0 finite)."""

    variant: ClassVar[str] = "powerlaw"
    C: float
    p: float

    def __post_init__(self):
        _require_finite(self.C, self.p)
        if self.C < 0.0:
            raise ValueError(f"scale must be nonnegative, got {self.C}")
        if not self.p > 1.0:
            raise ValueError(f"exponent must exceed 1 for summability, got {self.p}")
        _require_finite_mass(self)

    @property
    def max_weight(self) -> int | None:
        # integer ell < p - 1; ell = 0 always qualifies since p > 1
        return None if self.C == 0.0 else math.ceil(self.p - 1.0) - 1

    def term(self, m: int) -> float:
        return self.C * float(m + 1) ** (-self.p)

    def tail(self, start: int, ell: int) -> float:
        if self.C == 0.0:
            return 0.0
        # m**ell <= (m+1)**ell, then integral test on sum n**(ell - p)
        s = self.p - ell
        n0 = float(start + 1)
        return self.C * (n0 ** -s + n0 ** (1.0 - s) / (s - 1.0))

    def moment_ratio(self, weights: tuple[int, ...]) -> None:
        # an integer combination of zeta values, which are not rational
        return None


@dataclass(frozen=True)
class PoissonType(_Variant):
    """a_m = exp(-c) * c**m / m! with intensity c >= 0."""

    variant: ClassVar[str] = "poisson"
    max_weight: ClassVar[int | None] = None
    c: float

    def __post_init__(self):
        _require_finite(self.c)
        if self.c < 0.0:
            raise ValueError(f"intensity must be nonnegative, got {self.c}")

    def term(self, m: int) -> float:
        c = self.c
        if c == 0.0:
            return 1.0 if m == 0 else 0.0
        if m <= 64:
            try:
                return math.exp(-c) * c ** m / math.factorial(m)
            except OverflowError:
                pass
        # log-domain form avoids overflow in c**m for large m or c
        return math.exp(-c + m * math.log(c) - math.lgamma(m + 1))

    def tail(self, start: int, ell: int) -> float:
        c = self.c
        if c == 0.0:
            return 1.0 if (start == 0 and ell == 0) else 0.0
        num, den = 0, 1
        for k, s in enumerate(_stirling_row(ell, 0)):
            top, bottom = self._factorial_tail(s, k, start - k)
            num, den = num * bottom + top * den, den * bottom
        return _ratio_up(num, den)

    def _factorial_tail(self, s: int, k: int, n: int) -> tuple[int, int]:
        """An upper bound on s c^k Q(n), c > 0, as an integer ratio (see weighted_tail_bound)."""
        c, (a, b) = self.c, self.c.as_integer_ratio()
        if s and n > 0 and n + 1 > c:
            # log of p(n) (n + 1) / (n + 1 - c), the last factor rounded once
            log_q = [-c, n * math.log(c), -math.lgamma(n + 1), math.log(n + 1),
                     -math.log(((n + 1) * b - a) / b)]
            if math.fsum(log_q) < 0.0:
                return _exp_up([math.log(s), k * math.log(c), *log_q]).as_integer_ratio()
        return s * a ** k, b ** k

    def moment_ratio(self, weights: tuple[int, ...]) -> tuple[int, int]:
        # mu_k = c^k with c = a / b, all over b^top
        a, b = self.c.as_integer_ratio()
        top = len(weights) - 1
        return sum(w * a ** k * b ** (top - k) for k, w in enumerate(weights)), b ** top


SequenceModel = Union[Finite, Geometric, PowerLaw, PoissonType]
_VARIANTS = {cls.variant: cls for cls in get_args(SequenceModel)}


@dataclass(frozen=True)
class TailBound:
    """Certified upper bound on sum_{m >= start_index} a_m * m**weight_power."""

    start_index: int
    weight_power: int
    bound: float


def term(model: SequenceModel, m: int) -> float:
    """Coefficient a_m of the model."""
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    return model.term(m)


def converges_weighted(model: SequenceModel, ell: int) -> bool:
    """Whether sum_m a_m * m**ell is finite, decided analytically per variant."""
    if ell < 0:
        raise ValueError(f"weight power must be nonnegative, got {ell}")
    limit = model.max_weight
    return limit is None or ell <= limit


def weighted_tail_bound(model: SequenceModel, start: int, ell: int) -> TailBound:
    """Certify an upper bound on sum_{m >= start} a_m * m**ell.

    With (x)_k = x (x-1) ... (x-k+1), (x + start)^ell = sum_k B_k (x)_k
    and S(ell, k) = B_k at start 0, the Stirling numbers (DLMF 26.8):

        Geometric  c r^start sum_k B_k k! r^k / (1 - r)^(k+1)
        Poisson    sum_k S(ell, k) c^k Q(start - k),  Q(n) = P(X >= n)

    for X ~ Poisson(c) (DLMF 8.4): Q(n) <= 1, and past n + 1 > c, Q(n) <=
    p(n) (n + 1) / (n + 1 - c) as p(n + j) / p(n) <= (c / (n + 1))^j.  No
    loop runs with start, c or r.  Each sum is exact and rounded up once;
    r^start and Q(n) < 1 are upper bounds through padded logarithms.
    Power-law tails use the integral test.  Raises DivergentSeries when no
    finite bound exists, and UnsupportedRange past float range.
    """
    if start < 0:
        raise ValueError(f"start index must be nonnegative, got {start}")
    if not converges_weighted(model, ell):
        raise DivergentSeries(
            f"sum of a_m * m^{ell} diverges for {model!r}; no truncation is valid"
        )
    try:
        bound = model.tail(start, ell)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise UnsupportedRange(
            f"tail bound of a_m * m^{ell} from {start} exceeds float range for {model!r}"
        )
    return TailBound(start, ell, bound)


def total_mass_bound(model: SequenceModel) -> float:
    """Certified upper bound on sum_m a_m."""
    return weighted_tail_bound(model, 0, 0).bound


def truncation_index(model: SequenceModel, ell: int, tol: float) -> int:
    """Smallest start index whose certified weighted tail is at most tol."""
    if not tol > 0.0:
        raise ToleranceUnreachable(f"tolerance must be positive, got {tol}")
    if weighted_tail_bound(model, 0, ell).bound <= tol:
        return 0
    hi = 1
    while weighted_tail_bound(model, hi, ell).bound > tol:
        hi *= 2
        if hi > _SEARCH_CAP:
            raise ToleranceUnreachable(
                f"no index below {_SEARCH_CAP} certifies tail <= {tol} for {model!r}"
            )
    # the least index past hi // 2 that certifies, or hi
    return bisect_left(
        range(hi), True, hi // 2 + 1, key=lambda m: weighted_tail_bound(model, m, ell).bound <= tol
    )


def coefficient_prefix(model: SequenceModel, tol: float) -> tuple[float, ...]:
    """a_0 .. a_{M-1}, with M the certified cutoff of the plain sum at tol."""
    return tuple(term(model, m) for m in range(truncation_index(model, 0, tol)))


# ---------------------------------------------------------------------------
# JSON encoding, consumed by the CLI


def model_to_dict(model: SequenceModel) -> dict:
    data = {"variant": model.variant}
    for f in fields(model):
        value = getattr(model, f.name)
        data[f.name] = list(value) if isinstance(value, tuple) else value
    return data


def _number(name, value):
    # JSON numbers only: float() would also take "1", true and false
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"model field '{name}' must be a number, got {type(value).__name__}")
    return value


def _decode_field(field, value):
    # scalar fields go through float; sequences must be JSON arrays of
    # numbers and reach the class as given
    if field.type == "float":
        return float(_number(field.name, value))
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"model field '{field.name}' must be an array, got {type(value).__name__}")
    for item in value:
        _number(field.name, item)
    return value


def model_from_dict(data: dict) -> SequenceModel:
    if not isinstance(data, dict) or "variant" not in data:
        raise ValueError("sequence model JSON must be an object with a 'variant' key")
    variant = data["variant"]
    # non-strings (lists, null) are unknown variants, not lookup errors
    cls = _VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValueError(f"unknown sequence model variant '{variant}'")
    try:
        return cls(*(_decode_field(f, data[f.name]) for f in fields(cls)))
    except KeyError as exc:
        raise ValueError(f"model variant '{variant}' is missing field {exc}") from exc
    except OverflowError as exc:
        raise ValueError(f"model fields must be finite: {exc}") from exc


def model_from_json(text: str) -> SequenceModel:
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError("sequence model JSON is nested too deeply") from exc
    return model_from_dict(data)

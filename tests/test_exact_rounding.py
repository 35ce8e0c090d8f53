"""Floats rounded once from exact rationals: pinned bit for bit.

Each digest is the SHA-256 of the repr of every value, or the name of
the exception raised, over a grid that reaches the edges of each path:
zero scales and ratios, ratios next to 1, scales near the top of float
range, and orders past UnsupportedRange.
"""

import hashlib
import math

from spherekernel import asymptotics, sequences, transform
from spherekernel.asymptotics import asymptotic_ratio, constant_ratios, scaled_sum, trace_convergence
from spherekernel.sequences import Finite, Geometric, PoissonType, weighted_tail_bound
from spherekernel.transform import derivative_at_zero_series


def _digest(calls):
    lines = []
    for call in calls:
        try:
            lines.append(repr(call()))
        except Exception as exc:  # the type is the pinned outcome
            lines.append(type(exc).__name__)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


_GEOMETRIC = [
    Geometric(c, r)
    for c in (0.0, 1e-300, 0.7, 1.0, 3.5, 1e10, 1e300)
    for r in (0.0, 0.1, 0.5, 0.9, 0.999999, math.nextafter(1.0, 0.0))
    if c * (1.0 / (1.0 - r)) < 1e307
]
_POISSON = [PoissonType(c) for c in (0.0, 1e-300, 0.3, 1.0, 2.5, 50.0, 1e3, 1e10, 1e150, 1e300)]
_FINITE = [Finite(()), Finite((1.0,)), Finite((0.5, 0.0, 2.0, 1e-300, 3.25)), Finite((1e300, 1e-5) * 20)]


def _series_calls():
    return [
        lambda model=model, ell=ell: derivative_at_zero_series(model, ell)
        for model in _GEOMETRIC + _POISSON
        for ell in range(1, 41)
    ]


_SCALED_JS = [*range(1, 61), 199, 200, 201, 202, 400, 8192, 10**6]
_SCALED_ELLS = (1, 2, 3, 6, 20, 150, 151, 300)


def _asymptotics_calls():
    calls = [
        lambda j=j, ell=ell, parity=parity: scaled_sum(j, ell, parity)
        for j in _SCALED_JS
        for ell in _SCALED_ELLS
        for parity in ("even", "odd")
    ]
    calls += [
        lambda j=j, n1=n1, n2=n2: asymptotic_ratio(j, n1, n2)
        for j in (1, 2, 5, 9, 30, 200)
        for n1 in range(0, 8)
        for n2 in range(-1, n1 + 2)
    ]
    grids = ((1, 2, 3), (7, 64, 256), (200, 400, 1024))
    calls += [
        lambda ell=ell, parity=parity, js=js: trace_convergence(ell, parity, js)
        for ell in (1, 3, 6, 20, 134, 135, 150, 151)
        for parity in ("even", "odd")
        for js in grids
    ]
    calls += [
        lambda ell=ell, js=js: constant_ratios(
            trace_convergence(ell, "even", js), trace_convergence(ell, "odd", js)
        )
        for ell in (1, 3, 6, 20, 134, 135, 150)
        for js in grids[1:]
    ]
    return calls


def _tail_calls():
    return [
        lambda model=model, start=start, ell=ell: weighted_tail_bound(model, start, ell)
        for model in _GEOMETRIC + _POISSON + _FINITE
        for start in (0, 1, 5, 100)
        for ell in range(21)
    ]


def test_derivative_series_values_are_pinned_bit_for_bit():
    assert _digest(_series_calls()) == "139bc824515f111c44e5d7825213d18f4abc5c4f3d4164ec988580536561e6e4"


def test_scaled_sums_ratios_and_traces_are_pinned_bit_for_bit():
    assert _digest(_asymptotics_calls()) == "6b3e01df70eda53e55ed9e122c0ebb70824e001ce9400d15c593345a1c9ed052"


def test_weighted_tails_are_pinned_bit_for_bit():
    assert _digest(_tail_calls()) == "c369495fcfe0bd62757b6fcbcc4c1007ae0d0ad665f77eb7e716edcac049c9eb"


def test_pinned_values_build_no_fraction(monkeypatch):
    # each value is one int / int division; Fraction stays with the oracles
    # (derivatives, the defining binomial sums) and factorial_moment
    def refuse(*args):
        raise AssertionError("Fraction built")

    for module in (sequences, asymptotics):
        monkeypatch.setattr(module, "Fraction", refuse)
    assert not hasattr(transform, "Fraction")
    test_derivative_series_values_are_pinned_bit_for_bit()
    test_scaled_sums_ratios_and_traces_are_pinned_bit_for_bit()
    test_weighted_tails_are_pinned_bit_for_bit()

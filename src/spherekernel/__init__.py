"""Isotropic positive definite functions on spheres.

Evaluates Schoenberg-type expansions on the d-dimensional and
infinite-dimensional (Hilbert) spheres, computes exact derivative
coefficient tables for powers of cosine together with their growth
constants, transforms Hilbert-sphere coefficient sequences into circle
sequences, and classifies kernel smoothness from sequence decay.

Importing the package loads no submodule.  The first use of a public
name imports the submodule that defines it and binds all of that
submodule's public names here (PEP 562), so a program pays only for
the modules it uses.
"""

import importlib

# each submodule and the public names it gives the package
_EXPORTS = {
    "asymptotics": (
        "ConvergenceTrace", "LeadingCoeffTable", "asymptotic_ratio", "build_leading_table",
        "constant_ratios", "even_binomial_sum", "limit_constant_report", "odd_binomial_sum",
        "scaled_sum", "trace_convergence",
    ),
    "derivatives": (
        "DerivTable", "SinCosPoly", "build_deriv_table", "cos_power_derivative",
        "derivative_at_zero", "diagonal_closed_form", "symbolic_derivative", "table_polynomial",
    ),
    "errors": (
        "DimensionMismatch", "DivergentSeries", "SphereKernelError", "ToleranceUnreachable",
        "UnsupportedRange",
    ),
    "kernels": (
        "KernelSpec", "PsdVerdict", "UnitVector", "gegenbauer_normalized", "geodesic_distance",
        "phi_eval", "phi_eval_d", "phi_eval_inf", "psd_spot_check",
    ),
    "sequences": (
        "Finite", "Geometric", "PoissonType", "PowerLaw", "SequenceModel", "TailBound",
        "converges_weighted", "model_from_dict", "model_from_json", "model_to_dict", "term",
        "total_mass_bound", "truncation_index", "weighted_tail_bound",
    ),
    "transform": (
        "CircleSequence", "EllVerdict", "SmoothnessReport", "circle_coefficient",
        "circle_sequence", "classify_d", "classify_inf", "derivative_at_zero_series",
        "reconstruct_error",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = name if name in _EXPORTS else _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f".{module}", __name__)
    # setdefault keeps a name already rebound on the package, as a patch may do
    for public in _EXPORTS[module]:
        globals().setdefault(public, getattr(mod, public))
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
